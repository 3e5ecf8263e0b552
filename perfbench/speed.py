"""A fixed reference computation that measures how fast the machine runs right now.

The benchmark's machine is shared: within a few minutes the same CLI calls
on the same inputs take from 1.0x to 1.5x their fastest time, and CPU time
rises with wall time, so the slowdown is not waiting but slower execution
(most likely contention for the physical core).  Over sets of ten 36-second
runs the median time of one workload spread 7-38% (interquartile range over
median), which hides real changes of that size.

``Speed`` interleaves short chunks of a fixed computation, owned by the
benchmark and independent of softlev, with the CLI calls, so that they share
the machine's state.  ``factor`` is the mean chunk time over the run divided
by ``REF_CHUNK_S``, the chunk's time on the reference machine (Python 3.11.7,
numpy 2.4.6, 2 cores); dividing a time by it reports that time at reference
speed.  The chunk uses the operations the CLI calls spend their time in:
small-matrix numpy calls, hashing and interpreted Python loops.
"""

import hashlib
from time import perf_counter

import numpy as np

REF_CHUNK_S = 0.017
SHARE = 0.25  # fraction of the measured interval spent in reference chunks
_ITERATIONS = 400

_g = np.random.default_rng(20260825)
_A = _g.standard_normal((6, 2))
_X = _g.standard_normal(16)


def _chunk():
    t0 = perf_counter()
    acc = 0.0
    for i in range(_ITERATIONS):
        q, _ = np.linalg.qr(_A)
        acc += float((q * q).sum())
        e = np.exp(_X - _X.max())
        acc += float(e.sum() / e.max())
        acc += hashlib.blake2b(i.to_bytes(8, "little"), digest_size=8).digest()[0]
        acc += sum(j * 0.5 for j in range(20))
    return perf_counter() - t0


class Speed:
    """Reference chunks run between measured calls, in proportion to their time."""

    def __init__(self):
        self.spent = 0.0
        self.chunks = 0

    def keep_up(self, measured_s):
        """Run chunks until they take SHARE of measured_s plus the chunks' own time."""
        while self.spent < measured_s * SHARE / (1.0 - SHARE):
            self.spent += _chunk()
            self.chunks += 1

    def factor(self):
        """How many times slower than the reference machine the run went."""
        return self.spent / self.chunks / REF_CHUNK_S
