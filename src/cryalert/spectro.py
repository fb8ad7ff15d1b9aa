"""STFT magnitude spectrograms.

The transform is fixed, as in the TensorFlow audio tutorial: frames of
FRAME_LENGTH samples at FRAME_STEP hops, a periodic Hann window and
zero-padding to FFT_LENGTH, keeping the NUM_BINS non-negative bins.
It is a hand-written windowed DFT taken as one matrix product: the
frames multiply a cached (FRAME_LENGTH, 2 * NUM_BINS) basis that folds
in the window and the padding and yields the real and imaginary parts;
the magnitude is sqrt(re^2 + im^2), squared and summed in place.  A
16000-sample clip comes out as a (124, 129) array; `clip_images` stacks
those of canonical clips as the network's input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ShapeError, TooShortError
from .wav_io import AudioClip, canonical_clip

FRAME_LENGTH = 255
FRAME_STEP = 128
FFT_LENGTH = 256
NUM_BINS = FFT_LENGTH // 2 + 1


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


def clip_images(clips, dtype=np.float32) -> np.ndarray:
    """The (n, frames, NUM_BINS, 1) network input: stft_magnitude of each canonical_clip."""
    mats = [stft_magnitude(canonical_clip(clip), dtype) for clip in clips]
    return np.stack(mats)[..., None]


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
    path = Path(path)
    if fmt == "csv":
        lines = []
        for row in spec:
            lines.append(",".join(_shortest(v) for v in row))
        path.write_text("\n".join(lines) + "\n")
    elif fmt == "pgm":
        logv = np.log1p(spec.astype(np.float64))
        lo, hi = logv.min(), logv.max()
        if hi > lo:
            pixels = np.rint((logv - lo) / (hi - lo) * 255.0).astype(np.uint8)
        else:
            pixels = np.zeros_like(logv, dtype=np.uint8)
        header = f"P5\n{spec.shape[1]} {spec.shape[0]}\n255\n".encode("ascii")
        path.write_bytes(header + pixels.tobytes())
    else:
        raise ConfigError(f"unknown export format {fmt!r}, want 'csv' or 'pgm'")
