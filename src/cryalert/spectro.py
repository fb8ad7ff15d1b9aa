"""STFT magnitude spectrograms.

The transform is a hand-written iterative radix-2 FFT (bit-reversal
permutation, then in-place butterfly stages) applied to Hann-windowed
frames that are zero-padded from frame_length up to fft_length.  The
frames are real, so each is transformed as a half-length complex FFT
and untangled into the non-negative frequency bins, the only ones kept:
a 16000-sample clip under the defaults comes out as a (124, 129)
magnitude array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import ConfigError, ShapeError, SizeError, TooShortError
from .wav_io import AudioClip

WINDOW_KINDS = ("hann", "rectangular")


@dataclass(frozen=True)
class StftConfig:
    frame_length: int = 255
    frame_step: int = 128
    fft_length: int = 256
    window: str = "hann"

    def __post_init__(self):
        if self.frame_length < 1:
            raise ConfigError(f"frame_length must be >= 1, got {self.frame_length}")
        if not 0 < self.frame_step <= self.frame_length:
            raise ConfigError(
                f"frame_step must be in [1, frame_length], got {self.frame_step}"
            )
        n = self.fft_length
        if n < self.frame_length:
            raise ConfigError(f"fft_length {n} shorter than frame_length {self.frame_length}")
        if n < 1 or n & (n - 1):
            raise ConfigError(f"fft_length must be a power of two, got {n}")
        if self.window not in WINDOW_KINDS:
            raise ConfigError(f"unknown window {self.window!r}, want one of {WINDOW_KINDS}")

    @property
    def num_bins(self) -> int:
        return self.fft_length // 2 + 1

    def num_frames(self, num_samples: int) -> int:
        if num_samples < self.frame_length:
            raise TooShortError(
                f"need at least {self.frame_length} samples, got {num_samples}"
            )
        return (num_samples - self.frame_length) // self.frame_step + 1


@dataclass
class Spectrogram:
    """Magnitudes, frames along axis 0 and frequency bins along axis 1."""

    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ShapeError(f"spectrogram must be 2-D, got shape {self.values.shape}")

    @property
    def num_frames(self) -> int:
        return self.values.shape[0]

    @property
    def num_bins(self) -> int:
        return self.values.shape[1]


def window_coefficients(kind: str, n: int) -> np.ndarray:
    """Analysis window of length n: periodic Hann or all-ones."""
    if n < 1:
        raise ConfigError(f"window length must be >= 1, got {n}")
    if kind == "hann":
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    if kind == "rectangular":
        return np.ones(n)
    raise ConfigError(f"unknown window {kind!r}, want one of {WINDOW_KINDS}")


@lru_cache(maxsize=16)
def _bit_reversal(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.intp)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return rev


@lru_cache(maxsize=16)
def _stage_twiddles(n: int) -> tuple:
    """exp(-i pi k / half), k < half, for each butterfly stage half = 1, 2, ..., n/2."""
    stages = []
    half = 1
    while half < n:
        tw = np.exp(-1j * np.pi * np.arange(half) / half)
        tw.flags.writeable = False  # shared by every caller of the cache
        stages.append(tw)
        half *= 2
    return tuple(stages)


def _butterflies(work: np.ndarray) -> np.ndarray:
    """Radix-2 DIT stages, in place, down the columns of an (n, m) array
    whose rows are already in bit-reversed order.

    Transforms run down axis 0 so that every stage, even the first with
    its width-2 blocks, works on contiguous runs of m values.
    """
    n, m = work.shape
    scratch = np.empty((n // 2, m), dtype=work.dtype)
    for tw in _stage_twiddles(n):
        half = len(tw)
        blocks = work.reshape(n // (2 * half), 2 * half, m)
        even = blocks[:, :half]
        odd = blocks[:, half:]
        lower = scratch.reshape(n // (2 * half), half, m)
        np.multiply(odd, tw[:, None], out=odd)
        np.subtract(even, odd, out=lower)
        even += odd
        odd[...] = lower
    return work


def _bit_reversed_columns(rows: np.ndarray) -> np.ndarray:
    """(..., n) rows -> a fresh complex (n, m) array, one row per column,
    with the n samples in bit-reversed order."""
    n = rows.shape[-1]
    cols = rows.reshape(-1, n).T[_bit_reversal(n)]
    return np.ascontiguousarray(cols, dtype=np.complex128)


def fft(x) -> np.ndarray:
    """Radix-2 DIT FFT along the last axis; length must be a power of two."""
    a = np.asarray(x)
    if a.ndim == 0:
        raise SizeError("fft input must have at least one axis")
    n = a.shape[-1]
    if n < 1 or n & (n - 1):
        raise SizeError(f"fft length must be a power of two, got {n}")
    return _butterflies(_bit_reversed_columns(a)).T.reshape(a.shape)


@lru_cache(maxsize=16)
def _untangle_factors(n: int) -> tuple:
    """A[k] = (1 - i W^k) / 2 and B[k] = (1 + i W^k) / 2, W = exp(-2 pi i / n),
    as (n/2 + 1, 1) columns, so that X[k] = A[k] Z[k] + B[k] conj Z[-k]."""
    w = np.exp(-2j * np.pi * np.arange(n // 2 + 1) / n)
    a, b = 0.5 * (1.0 - 1j * w), 0.5 * (1.0 + 1j * w)
    a.flags.writeable = b.flags.writeable = False
    return a[:, None], b[:, None]


def _rfft(frames: np.ndarray) -> np.ndarray:
    """Bins 0..n/2 of the DFT of each real row of an (m, n) array, n even.

    Even samples go in the real part and odd samples in the imaginary
    part of one n/2-point complex FFT Z, which splits into the even and
    odd half-spectra E[k] = (Z[k] + conj Z[-k]) / 2 and
    O[k] = (Z[k] - conj Z[-k]) / 2i, so X[k] = E[k] + exp(-2 pi i k / n) O[k]
    (Sorensen et al. 1987).  Returns an (m, n/2 + 1) array.
    """
    n = frames.shape[-1]
    half = n // 2
    packed = np.ascontiguousarray(frames, dtype=np.float64).view(np.complex128)
    z = _butterflies(_bit_reversed_columns(packed))
    k = np.arange(half + 1)
    a, b = _untangle_factors(n)
    x = z[k % half]
    x *= a
    conj_mirror = np.conj(z[-k % half])
    conj_mirror *= b
    x += conj_mirror
    return x.T


def stft_magnitude(clip, cfg: StftConfig | None = None, dtype=np.float32) -> Spectrogram:
    """Magnitude spectrogram of a clip (or bare 1-D sample array).

    Frames are extracted at frame_step hops, windowed, zero-padded to
    fft_length and transformed; bins above fft_length/2 are dropped.
    Raises TooShortError if the signal is shorter than one frame.
    """
    if cfg is None:
        cfg = StftConfig()
    samples = clip.samples if isinstance(clip, AudioClip) else np.asarray(clip, dtype=np.float64)
    num_frames = cfg.num_frames(len(samples))

    idx = np.arange(num_frames)[:, None] * cfg.frame_step + np.arange(cfg.frame_length)
    frames = samples[idx] * window_coefficients(cfg.window, cfg.frame_length)
    padded = np.zeros((num_frames, cfg.fft_length))
    padded[:, : cfg.frame_length] = frames
    spectrum = _rfft(padded) if cfg.fft_length > 1 else padded
    return Spectrogram(np.abs(spectrum).astype(dtype, order="C"))


def _shortest(v) -> str:
    # shortest decimal string that round-trips for the value's dtype
    return np.format_float_positional(v, trim="-")


def export_spectrogram(spec: Spectrogram, path, fmt: str) -> None:
    """Write a spectrogram as 'csv' (raw values) or 'pgm' (8-bit image).

    The PGM mapping is log1p followed by min-max scaling to 0..255,
    with time running down the vertical axis; a constant spectrogram
    maps to all zeros.
    """
    path = Path(path)
    if fmt == "csv":
        lines = []
        for row in spec.values:
            lines.append(",".join(_shortest(v) for v in row))
        path.write_text("\n".join(lines) + "\n")
    elif fmt == "pgm":
        logv = np.log1p(spec.values.astype(np.float64))
        lo, hi = logv.min(), logv.max()
        if hi > lo:
            pixels = np.rint((logv - lo) / (hi - lo) * 255.0).astype(np.uint8)
        else:
            pixels = np.zeros_like(logv, dtype=np.uint8)
        header = f"P5\n{spec.num_bins} {spec.num_frames}\n255\n".encode("ascii")
        path.write_bytes(header + pixels.tobytes())
    else:
        raise ConfigError(f"unknown export format {fmt!r}, want 'csv' or 'pgm'")
