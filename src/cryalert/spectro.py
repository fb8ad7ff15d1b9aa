"""STFT magnitude spectrograms.

The transform is fixed, as in the TensorFlow audio tutorial: frames of
FRAME_LENGTH samples at FRAME_STEP hops, a periodic Hann window and
zero-padding to FFT_LENGTH, keeping the NUM_BINS non-negative bins.
It is a hand-written windowed DFT taken as one matrix product: the
frames multiply a cached (FRAME_LENGTH, 2 * NUM_BINS) basis that folds
in the window and the padding and yields the real and imaginary parts;
the magnitude is sqrt(re^2 + im^2), squared and summed in place.  A
16000-sample clip comes out as a (124, 129) array.  `clip_images`, the
pipeline's only resize, computes just the 64x64 cells the 32x32 resize
reads and multiplies them by the resize matrices' 64 columns that meet
them: the products skip only zero weights, with C-contiguous operands.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, ShapeError, TooShortError
from .tensor_nn import RESIZE
from .wav_io import DEFAULT_CLIP_SAMPLES, AudioClip, canonical_clip, replace_file

FRAME_LENGTH = 255
FRAME_STEP = 128
FFT_LENGTH = 256
NUM_BINS = FFT_LENGTH // 2 + 1
NUM_FRAMES = 1 + (DEFAULT_CLIP_SAMPLES - FRAME_LENGTH) // FRAME_STEP  # of a canonical clip


@dataclass(frozen=True)
class StftConfig:
    """No fields: the STFT is fixed.  Kept only for the callers of
    save_model, predict and LoadedModel, until they stop passing it."""


@lru_cache(maxsize=4)
def _dft_basis(kept: tuple | None = None) -> np.ndarray:
    """Hann-windowed real-DFT matrix of shape (FRAME_LENGTH, 2 * NUM_BINS).

    With w the periodic Hann window and n = FFT_LENGTH, column k holds
    w[t] cos(theta) and column NUM_BINS + k holds -w[t] sin(theta),
    theta = 2 pi ((t k) mod n) / n, so a frame times this matrix gives
    the real then the imaginary parts of bins 0..n/2 of its windowed,
    zero-padded n-point DFT.  The mod is taken in integers, so every
    angle lies in [0, 2 pi) exactly.  kept, a tuple of bins, slices out
    their real then their imaginary columns, bit for bit.
    """
    if kept is not None:
        basis = _dft_basis()[:, [*kept, *(NUM_BINS + k for k in kept)]]
    else:
        n, bins = FFT_LENGTH, NUM_BINS
        theta = 2.0 * np.pi * (np.outer(np.arange(FRAME_LENGTH), np.arange(bins)) % n) / n
        w = (0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(FRAME_LENGTH) / FRAME_LENGTH))[:, None]
        basis = np.empty((FRAME_LENGTH, 2 * bins))  # filled in place to bound the peak
        np.cos(theta, out=basis[:, :bins])
        np.sin(theta, out=basis[:, bins:])
        basis[:, :bins] *= w
        basis[:, bins:] *= -w
    basis.flags.writeable = False  # shared by every caller of the cache
    return basis


def stft_magnitude(clip, dtype=np.float32, *, cells=None) -> np.ndarray:
    """Magnitude spectrogram of a clip (or bare 1-D sample array).

    Returns a (frames, NUM_BINS) array.  Frames are extracted at
    FRAME_STEP hops, windowed, zero-padded to FFT_LENGTH and
    transformed; bins above FFT_LENGTH/2 are dropped.  cells, a pair
    of frame and bin index tuples, computes only those rows and columns.
    Raises TooShortError if the signal is shorter than one frame.
    """
    samples = clip.samples if isinstance(clip, AudioClip) else np.asarray(clip)
    if len(samples) < FRAME_LENGTH:
        raise TooShortError(f"need at least {FRAME_LENGTH} samples, got {len(samples)}")
    step = samples.strides[0]  # one read-only view of every frame, whatever the stride
    frames = as_strided(samples, (1 + (len(samples) - FRAME_LENGTH) // FRAME_STEP, FRAME_LENGTH),
                        (FRAME_STEP * step, step), writeable=False)
    if cells is not None:
        frames = frames[list(cells[0])]
    basis = _dft_basis(None if cells is None else cells[1])
    # the copy matmul makes of the strided frames, taken in float64 here
    spectrum = frames.astype(np.float64) @ basis
    spectrum *= spectrum
    power = spectrum[:, :basis.shape[1] // 2]
    power += spectrum[:, basis.shape[1] // 2:]
    return np.sqrt(power, out=power).astype(dtype)


@lru_cache(maxsize=8)
def _interp_matrix(n_in: int, n_out: int, dtype=np.float64, kept: tuple | None = None) -> np.ndarray:
    """Read-only row-stochastic (n_out, n_in) matrix of bilinear weights.

    Source coordinates use half-pixel centers, src = (dst + 0.5) * n_in
    / n_out - 0.5, clamped to the valid range; each row holds the <= 2
    nonzero weights of one output sample, computed in float64.  kept, a
    tuple of inputs, slices out their columns as a C-contiguous copy.
    """
    if kept is not None:
        mat = _interp_matrix(n_in, n_out, dtype)[:, list(kept)].copy()  # indexing gives F order
    else:
        dst = np.arange(n_out)
        src = np.clip((dst + 0.5) * (n_in / n_out) - 0.5, 0.0, n_in - 1.0)
        lo = np.floor(src).astype(np.intp)
        hi = np.minimum(lo + 1, n_in - 1)
        frac = src - lo
        mat = np.zeros((n_out, n_in))
        np.add.at(mat, (dst, lo), 1.0 - frac)
        np.add.at(mat, (dst, hi), frac)
        mat = mat.astype(dtype)
    mat.flags.writeable = False  # shared by every caller of the cache
    return mat


@cache
def _kept_cells() -> tuple[tuple, tuple]:
    """The frames and the bins the resize reads: the nonzero columns of its matrices."""
    return tuple(tuple(np.flatnonzero(_interp_matrix(n, size).any(0)).tolist()) for n, size
                 in zip((NUM_FRAMES, NUM_BINS), RESIZE))


def clip_images(clips) -> np.ndarray:
    """The float32 (n, *RESIZE, 1) network input: rows @ stft_magnitude @ cols.T of each clip."""
    clips = list(clips)  # the output is allocated before the first clip is imaged
    cells = _kept_cells()
    rows, cols = (_interp_matrix(n, size, np.float32, kept)
                  for n, size, kept in zip((NUM_FRAMES, NUM_BINS), RESIZE, cells))
    # only the cells rows and cols read are computed, against those columns alone: the
    # products skip only zero weights, with C-contiguous operands, so each sum is unchanged
    images = np.empty((len(clips), *RESIZE, 1), np.float32)
    for image, clip in zip(images, clips):
        image[..., 0] = rows @ stft_magnitude(canonical_clip(clip), cells=cells) @ cols.T
    return images


def _shortest(v) -> str:
    # shortest decimal string that round-trips for the value's dtype
    return np.format_float_positional(v, trim="-")


def export_spectrogram(spec: np.ndarray, path, fmt: str) -> None:
    """Write a (frames, bins) array as 'csv' (raw values) or 'pgm' (8-bit image).

    The PGM mapping is log1p followed by min-max scaling to 0..255,
    with time running down the vertical axis; a constant spectrogram
    maps to all zeros.  Any other rank raises ShapeError.
    """
    if spec.ndim != 2:
        raise ShapeError(f"spectrogram must be 2-D, got shape {spec.shape}")
    if fmt == "csv":
        lines = []
        for row in spec:
            lines.append(",".join(_shortest(v) for v in row))
        replace_file(path, [("\n".join(lines) + "\n").encode("ascii")])
    elif fmt == "pgm":
        logv = np.log1p(spec.astype(np.float64))
        lo, hi = logv.min(), logv.max()
        if hi > lo:
            pixels = np.rint((logv - lo) / (hi - lo) * 255.0).astype(np.uint8)
        else:
            pixels = np.zeros_like(logv, dtype=np.uint8)
        header = f"P5\n{spec.shape[1]} {spec.shape[0]}\n255\n".encode("ascii")
        replace_file(path, [header, pixels.tobytes()])
    else:
        raise ConfigError(f"unknown export format {fmt!r}, want 'csv' or 'pgm'")
