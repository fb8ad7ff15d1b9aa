"""Seeded random streams.

Every stochastic consumer (weight init, dropout, shuffling, dataset
split, synthesis) gets its own counter-based stream keyed by
(seed, stream id), so adding draws to one consumer never shifts the
values another sees.  Philox is used because its output is stable
across platforms and numpy versions.
"""

import numpy as np

STREAM_INIT = 0
STREAM_DROPOUT = 1
STREAM_SHUFFLE = 2
STREAM_DATASET = 3
STREAM_SYNTH = 4


# numpy.random loads with this module on purpose: deferred, train()'s peak RSS rose 190 -> 203 MB
def philox_stream(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
