"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the production code paths: the DFT
oracle is an O(n^2) matrix product, WAV bytes are assembled field by
field, and the streaming-statistics oracle accumulates running sums.
"""

import json
import struct
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from cryalert.cli import main
from cryalert.rng import STREAM_INIT, philox_stream
from cryalert.synth import generate_corpus
from cryalert.tensor_nn import (
    DROPOUT_RATES,
    KERNEL_SIZE,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    Network,
    Normalize,
    Resize,
    _glorot,
)


# ---------------------------------------------------------------------------
# oracles

def dft_direct(x: np.ndarray) -> np.ndarray:
    """O(n^2) DFT via the explicit twiddle matrix; works on (..., n)."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    k = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return x @ w.T


def rel_error(actual, expected) -> float:
    """Sup-norm relative error: max|a - e| / max|e|."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    scale = np.max(np.abs(expected))
    if scale == 0:
        return float(np.max(np.abs(actual)))
    return float(np.max(np.abs(actual - expected)) / scale)


def make_wav_bytes(samples, rate=16000, channels=1, format_code=1, bits=16,
                   extra_chunk=None):
    """Assemble RIFF/WAVE bytes by hand, one field at a time.

    samples: flat iterable of int16 values (interleaved when
    channels > 1).  format_code/bits can be bent to build bad files.
    """
    data = b"".join(struct.pack("<h", int(s)) for s in samples)
    block_align = channels * bits // 8
    byte_rate = rate * block_align
    fmt = struct.pack("<HHIIHH", format_code, channels, rate, byte_rate,
                      block_align, bits)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    if extra_chunk is not None:
        body = extra_chunk
        chunks += b"junk" + struct.pack("<I", len(body)) + body + (b"\x00" if len(body) % 2 else b"")
    chunks += b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def streaming_mean_var(images, chunk=1000):
    """Running-sums mean/variance oracle (population variance)."""
    count = 0
    total = 0.0
    total_sq = 0.0
    for im in images:
        flat = np.asarray(im, dtype=np.float64).ravel()
        for start in range(0, flat.size, chunk):
            part = flat[start:start + chunk]
            count += part.size
            total += float(part.sum())
            total_sq += float((part * part).sum())
    mean = total / count
    return mean, total_sq / count - mean * mean


def conv2d_loops(x, kernel, bias):
    """Six-nested-loop valid cross-correlation oracle."""
    h, w, cin = x.shape
    kh, kw, _, cout = kernel.shape
    out = np.zeros((h - kh + 1, w - kw + 1, cout))
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            for o in range(cout):
                acc = 0.0
                for di in range(kh):
                    for dj in range(kw):
                        for c in range(cin):
                            acc += x[i + di, j + dj, c] * kernel[di, dj, c, o]
                out[i, j, o] = acc + bias[o]
    return out


def maxpool_loops(x):
    """Window-scan max-pool oracle."""
    h, w, c = x.shape
    out = np.zeros((h // 2, w // 2, c))
    for i in range(h // 2):
        for j in range(w // 2):
            for ch in range(c):
                out[i, j, ch] = x[2 * i:2 * i + 2, 2 * j:2 * j + 2, ch].max()
    return out


def read_model_header(path):
    """The JSON header of a .cry file, parsed."""
    data = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", data, 8)
    return json.loads(data[12:12 + header_len])


def rewrite_model_header(src, dst, header):
    """Copy model file src to dst with its JSON header replaced.

    The CRC covers only the parameter blob, so the copy still passes
    the magic, version and checksum checks.
    """
    data = src.read_bytes()
    (header_len,) = struct.unpack_from("<I", data, 8)
    body = json.dumps(header).encode("utf-8")
    dst.write_bytes(data[:8] + struct.pack("<I", len(body)) + body
                    + data[12 + header_len:])
    return dst


def mutated(base: bytes, positions=None):
    """Strategy: base with up to 8 bytes overwritten, then cut at any length.

    positions draws where the edits land; by default any byte of base.
    """
    if positions is None:
        positions = st.integers(0, len(base) - 1)
    edits = st.lists(st.tuples(positions, st.integers(0, 255)), max_size=8)

    def apply(args):
        changes, length = args
        data = bytearray(base)
        for pos, value in changes:
            data[pos] = value
        return bytes(data[:length])

    return st.tuples(edits, st.integers(0, len(base))).map(apply)


def toy_network(class_count=3, seed=33):
    """build_network's stack at reduced widths and in float64, so finite
    differences reach every parameter: an 8x8 input, convs of 2 filters,
    dense 4.  Weights come from the init stream of `seed` in layer order
    (conv1, conv2, dense1, dense2), as build_network draws them."""
    k = KERNEL_SIZE
    rng = philox_stream(seed, STREAM_INIT)

    def weights(*shape):
        return _glorot(rng, shape, np.float64)

    layers = [
        Resize(8, 8),
        Normalize(),
        Conv2D(weights(k, k, 1, 2), input_grad=False),
        Conv2D(weights(k, k, 2, 2)),
        MaxPool2D(),
        Dropout(DROPOUT_RATES[0]),
        Flatten(),
        Dense(weights(2 * 2 * 2, 4)),  # 8x8 -> 6x6 -> 4x4, pooled to 2x2, 2 filters
        Dropout(DROPOUT_RATES[1]),
        Dense(weights(4, class_count), use_relu=False),
    ]
    return Network(layers, class_count, seed, np.float64)


# ---------------------------------------------------------------------------
# session fixtures

@pytest.fixture(scope="session")
def synth_corpus(tmp_path_factory) -> Path:
    """Full synthetic corpus: 200 clips per class, seed 7."""
    root = tmp_path_factory.mktemp("corpus") / "synth"
    generate_corpus(root, per_class=200, seed=7)
    return root


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory) -> Path:
    """Reduced corpus for cheap training runs: 12 clips per class."""
    root = tmp_path_factory.mktemp("corpus_small") / "synth"
    generate_corpus(root, per_class=12, seed=7)
    return root


@pytest.fixture(scope="session")
def trained(synth_corpus, tmp_path_factory):
    """One full default training run through the CLI, shared by tests.

    Returns (exit code, model path, report dict, elapsed seconds).
    """
    out = tmp_path_factory.mktemp("model") / "synth.cry"
    start = time.monotonic()
    rc = main(["train", "--data", str(synth_corpus), "--out", str(out)])
    elapsed = time.monotonic() - start
    report_path = Path(str(out) + ".report.json")
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    return rc, out, report, elapsed
