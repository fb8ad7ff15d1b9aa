"""The host's current speed, from a fixed reference kernel.

The benchmark runs on a few vCPUs of a shared host whose per-core speed
drifts by a fifth or more over tens of seconds as neighbours load it, so
wall-clock figures from runs minutes apart are not comparable on their
own.  run.py keeps this module running as a helper process and asks it
for a probe right before and right after each measured operation; the
times of that operation are then scaled to a host on which one kernel
call takes NOMINAL_S[kind] (see run.py).

Each workload has a kernel shaped like its own hot path, since a kernel
unlike it did not track it:

  per_file   cryalert's per-file path: small float32 GEMMs, elementwise
             numpy work, batched real FFTs and interpreted Python.
  training   train(): one batch-64 GEMM of conv2's im2col shape (both
             BLAS threads, 58 MB read) and interpreted Python, as in the
             up-front STFT.

A kernel uses only numpy, never cryalert, so nothing a change to the
package does can move it, and it keeps its own data, so a probe touches
no more memory than it did on the first call.

Usage (run.py does this):  python3 perfbench/hostspeed.py per_file|training
Each line read on stdin asks for one probe; the reply is one line with
the median seconds of PROBE_CALLS kernel calls.  EOF ends the process.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

PROBE_CALLS = 9


def _interpret(n):
    acc = 0
    for i in range(n):
        acc += i * i % 7
    return acc


class PerFileKernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.cols = rng.standard_normal((8192, 288), dtype=np.float32)
        self.weights = rng.standard_normal((288, 32), dtype=np.float32)
        self.stream = rng.standard_normal(2_000_000).astype(np.float32)
        self.frames = rng.standard_normal((120, 512))

    def __call__(self):
        total = 0.0
        for _ in range(4):
            total += float((self.cols @ self.weights).sum())
        for _ in range(4):
            np.maximum(self.stream, 0.1, out=self.stream)
            np.multiply(self.stream, 0.999, out=self.stream)
            total += float(self.stream.sum())
        for _ in range(10):
            total += float(np.abs(np.fft.rfft(self.frames, axis=1)).sum())
        return total + _interpret(30000)


class TrainingKernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.cols = rng.standard_normal((64 * 28 * 28, 288), dtype=np.float32)
        self.weights = rng.standard_normal((288, 64), dtype=np.float32)

    def __call__(self):
        return float((self.cols @ self.weights)[0, 0]) + _interpret(150000)


KERNELS = {"per_file": PerFileKernel, "training": TrainingKernel}
# median kernel-call seconds on the host the benchmark was tuned on
# (2 vCPUs of an x86-64 VM, numpy 2.4 with OpenBLAS 0.3.31, quiet period)
NOMINAL_S = {"per_file": 0.028, "training": 0.037}


def probe(kernel, calls=PROBE_CALLS):
    """Median seconds per kernel call over `calls` calls."""
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv):
    kernel = KERNELS[argv[0]]()
    kernel()  # warm caches and BLAS threads before the first probe
    for _ in sys.stdin:
        sys.stdout.write(f"{probe(kernel)!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
