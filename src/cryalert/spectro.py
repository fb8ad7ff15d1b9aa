"""STFT magnitude spectrograms.

The transform is fixed, as in the TensorFlow audio tutorial: frames of
FRAME_LENGTH samples at FRAME_STEP hops, a periodic Hann window and
zero-padding to FFT_LENGTH, keeping the NUM_BINS non-negative bins.
It is a hand-written windowed DFT taken as one matrix product: the
frames multiply a cached (FRAME_LENGTH, 2 * NUM_BINS) basis that folds
in the window and the padding and yields the real and imaginary parts;
the magnitude is sqrt(re^2 + im^2), squared and summed in place.  A
16000-sample clip comes out as a (124, 129) array; `clip_images` resizes
each canonical clip's, one at a time, to the network's 32x32 input: the
pipeline's only resize.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


@cache
def _dft_basis() -> np.ndarray:
    """Hann-windowed real-DFT matrix of shape (FRAME_LENGTH, 2 * NUM_BINS).

    With w the periodic Hann window and n = FFT_LENGTH, column k holds
    w[t] cos(theta) and column NUM_BINS + k holds -w[t] sin(theta),
    theta = 2 pi ((t k) mod n) / n, so a frame times this matrix gives
    the real then the imaginary parts of bins 0..n/2 of its windowed,
    zero-padded n-point DFT.  The mod is taken in integers, so every
    angle lies in [0, 2 pi) exactly.
    """
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


def stft_magnitude(clip, dtype=np.float32) -> np.ndarray:
    """Magnitude spectrogram of a clip (or bare 1-D sample array).

    Returns a (frames, NUM_BINS) array.  Frames are extracted at
    FRAME_STEP hops, windowed, zero-padded to FFT_LENGTH and
    transformed; bins above FFT_LENGTH/2 are dropped.  Raises
    TooShortError if the signal is shorter than one frame.
    """
    samples = clip.samples if isinstance(clip, AudioClip) else np.asarray(clip)
    if len(samples) < FRAME_LENGTH:
        raise TooShortError(f"need at least {FRAME_LENGTH} samples, got {len(samples)}")
    # the copy matmul makes of the strided frames, taken in float64 here
    frames = sliding_window_view(samples, FRAME_LENGTH)[::FRAME_STEP].astype(np.float64)
    spectrum = frames @ _dft_basis()
    spectrum *= spectrum
    power = spectrum[:, :NUM_BINS]
    power += spectrum[:, NUM_BINS:]
    return np.sqrt(power, out=power).astype(dtype)


@lru_cache(maxsize=8)
def _interp_matrix(n_in: int, n_out: int, dtype=np.float64) -> np.ndarray:
    """Read-only row-stochastic (n_out, n_in) matrix of bilinear weights.

    Source coordinates use half-pixel centers, src = (dst + 0.5) * n_in
    / n_out - 0.5, clamped to the valid range; each row holds the <= 2
    nonzero weights of one output sample, computed in float64.
    """
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


def clip_images(clips, dtype=np.float32) -> np.ndarray:
    """The (n, *RESIZE, 1) network input: rows @ stft_magnitude @ cols.T of each canonical_clip."""
    clips = list(clips)  # the output is allocated before the first clip is imaged
    rows, cols = (_interp_matrix(n, size, dtype) for n, size in zip((NUM_FRAMES, NUM_BINS), RESIZE))
    images = np.empty((len(clips), *RESIZE, 1), dtype)
    for image, clip in zip(images, clips):
        image[..., 0] = rows @ stft_magnitude(canonical_clip(clip), dtype) @ cols.T
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
