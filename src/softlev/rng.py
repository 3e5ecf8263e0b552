"""Deterministic randomness: hashed seed derivation feeding counter-based streams.

Every stochastic routine in this package takes an explicit integer seed and
derives per-unit subseeds with :func:`derive_seed`, so any row, trial, or
restart can be replayed in isolation.  Streams are Philox (counter-based), so
draws do not depend on how work is split across threads.

A loop that needs one stream per index uses :func:`derive_seeds` and
:func:`generators` instead of calling :func:`derive_seed` and
:func:`generator` once per index; the draws are bitwise the same.
:func:`generators` builds one :class:`Stream` per call and re-keys its Philox
generator in place for each seed, so a yielded generator is valid only until
the next one is requested.  Each loop owns its stream: never keep one in a
module global or share it between threads.

A family of indexed units can instead share one key and address unit k by
the Philox counter: :func:`uniform_rows` fills row k of W uniforms (W a
multiple of 4) from counter ``[k * W / 4, word, 0, 0]``, so one call fills
a run of consecutive rows at one word bitwise as each row's own fill would,
and any row replays alone in O(1).  :func:`box_muller` turns pairs of those
uniforms into standard normals, elementwise, so the first m normals of a row
do not depend on how many more are computed.
"""

import operator
from hashlib import blake2b

import numpy as np

_MASK64 = (1 << 64) - 1
_INT_TAG = b"i" + (8).to_bytes(4, "little")  # type tag and length of an int label
_INT_TYPES = (int, np.integer)
_ZEROS = (0, 0, 0, 0)


def _encode(labels) -> bytes:
    """Each label tagged with its type and length-prefixed, concatenated."""
    parts = []
    for label in labels:
        if isinstance(label, str):
            data = label.encode("utf-8")
            parts += (b"s", len(data).to_bytes(4, "little"), data)
        elif isinstance(label, _INT_TYPES):
            parts += (_INT_TAG, (int(label) & _MASK64).to_bytes(8, "little"))
        else:
            raise TypeError(f"unsupported seed label type: {type(label)!r}")
    return b"".join(parts)


def derive_seed(seed: int, *labels) -> int:
    """Derive a 64-bit subseed from ``seed`` and a tuple of labels.

    Labels may be ints or strings.  Each is length-prefixed and tagged with
    its type before hashing (blake2b), so distinct label tuples cannot
    collide by concatenation and the result is stable across platforms and
    Python processes (no dependence on salted ``hash()``).
    """
    data = (int(seed) & _MASK64).to_bytes(8, "little") + _encode(labels)
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "little")


def derive_seeds(seed: int, *labels, indices, tail=None):
    """Yield ``derive_seed(seed, *labels, i)`` for each ``i`` in ``indices``;
    with a ``tail`` tuple, ``derive_seed(derive_seed(seed, *labels, i), *tail)``.

    The shared prefix, with the int tag of the index, and the tail are
    encoded once, leaving one hash per index and level.  Each index must be
    an int (``operator.index`` accepts it).
    """
    prefix = (int(seed) & _MASK64).to_bytes(8, "little") + _encode(labels) + _INT_TAG
    suffix = None if tail is None else _encode(tail)
    for i in indices:
        digest = blake2b(prefix + (operator.index(i) & _MASK64).to_bytes(8, "little"), digest_size=8).digest()
        if suffix is not None:
            # the digest is the little-endian seed bytes that derive_seed
            # would encode, so it feeds the second hash as it is
            digest = blake2b(digest + suffix, digest_size=8).digest()
        yield int.from_bytes(digest, "little")


def generator(seed: int) -> np.random.Generator:
    """Counter-based generator keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))


class Stream:
    """One Philox generator, re-keyed in place for each seed.

    ``keyed(seed)`` puts it in the state ``generator(seed)`` starts in:
    counter 0, key ``[seed mod 2**64, 0]``, empty buffer and no cached
    32-bit half.  It returns the same object every time, so a keyed
    generator is valid only until the next ``keyed`` call.
    """

    def __init__(self):
        self._bitgen = np.random.Philox(key=0)
        self._generator = np.random.Generator(self._bitgen)
        self._key = {"counter": _ZEROS, "key": None}
        self._state = {
            "bit_generator": "Philox",
            "state": self._key,
            "buffer": _ZEROS,
            "buffer_pos": 4,  # buffer used up: the next draw runs the counter
            "has_uint32": 0,
            "uinteger": 0,
        }

    def keyed(self, seed: int) -> np.random.Generator:
        self._key["key"] = (int(seed) & _MASK64, 0)
        self._bitgen.state = self._state
        return self._generator


def generators(seeds):
    """``generator(seed)`` for each seed, as one :class:`Stream` re-keyed
    per item: each item is valid only until the next is requested."""
    return map(Stream().keyed, seeds)


def uniform_rows(key: int, rows, width: int, word=0) -> np.ndarray:
    """Row i holds the uniforms in [0, 1) of counter row ``rows[i]`` at
    counter word ``word`` (one int, or one per row) under ``key``: W of
    them, ``width`` rounded up to a multiple of 4, from a Philox keyed by
    ``key`` whose counter starts at ``[rows[i] * W / 4, word, 0, 0]``.  A
    Philox block holds 4 uniforms, so consecutive rows are consecutive
    blocks: each run of consecutive ``rows`` (increasing ints) at one word
    is one fill, and a new fill starts wherever the word changes."""
    stride = -(-width // 4)
    rows = np.asarray(rows, dtype=np.int64)
    words = np.broadcast_to(np.asarray(word, dtype=np.int64), rows.shape)
    out = np.empty((len(rows), 4 * stride))
    cuts = (np.flatnonzero((np.diff(rows) != 1) | (np.diff(words) != 0)) + 1).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, len(rows)]):
        counter = (int(rows[lo]) * stride, int(words[lo]), 0, 0)
        np.random.Generator(np.random.Philox(key=int(key) & _MASK64, counter=counter)).random(out=out[lo:hi])
    return out


def box_muller(u: np.ndarray) -> np.ndarray:
    """Standard normals from adjacent pairs of uniforms in [0, 1) along the
    last axis, which has even length: normals 2p and 2p + 1 are r cos t and
    r sin t, with r = sqrt(-2 log(1 - u_2p)) and t = 2 pi u_2p+1.  Each is
    finite (|z| <= sqrt(106 ln 2), about 8.57) and depends only on its own
    pair."""
    r = np.sqrt(-2.0 * np.log(1.0 - u[..., 0::2]))
    t = 2.0 * np.pi * u[..., 1::2]
    z = np.empty(u.shape)
    z[..., 0::2] = r * np.cos(t)
    z[..., 1::2] = r * np.sin(t)
    return z
