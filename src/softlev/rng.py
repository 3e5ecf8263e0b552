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
