"""STFT magnitude spectrograms.

The transform is a hand-written windowed DFT computed as one matrix
product: the frames, taken at frame_step hops, multiply a cached
(frame_length, 2 * num_bins) basis that folds in the periodic Hann
window and the zero-padding to fft_length, and yields the real and
imaginary parts of the non-negative frequency bins, the only ones kept;
the magnitude is sqrt(re^2 + im^2), squared and summed in place.
A config sets only the frame length and the hop: fft_length is the
smallest power of two that holds a frame, as in tf.signal.stft.  A
16000-sample clip under the defaults comes out as a (124, 129)
magnitude array; `clip_images` stacks those of canonical clips as the
network's input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ShapeError, TooShortError
from .wav_io import AudioClip, canonical_clip

# the DFT basis holds frame_length * (fft_length + 2) float64 values, at
# most about 34 MB here; frame_length also arrives from model headers
MAX_FFT_LENGTH = 2048


@dataclass(frozen=True)
class StftConfig:
    frame_length: int = 255
    frame_step: int = 128

    def __post_init__(self):
        if not 1 <= self.frame_length <= MAX_FFT_LENGTH:
            raise ConfigError(f"frame_length must be in [1, {MAX_FFT_LENGTH}], got {self.frame_length}")
        if not 0 < self.frame_step <= self.frame_length:
            raise ConfigError(f"frame_step must be in [1, frame_length], got {self.frame_step}")

    @property
    def fft_length(self) -> int:
        """The smallest power of two that holds a frame."""
        return 1 << (self.frame_length - 1).bit_length()

    @property
    def num_bins(self) -> int:
        return self.fft_length // 2 + 1


@lru_cache(maxsize=4)
def _dft_basis(frame_length: int) -> np.ndarray:
    """Hann-windowed real-DFT matrix of shape (frame_length, 2 * num_bins).

    With w the periodic Hann window and n the config's fft_length,
    column k holds w[t] cos(theta) and column num_bins + k holds
    -w[t] sin(theta), theta = 2 pi ((t k) mod n) / n, so a frame times
    this matrix gives the real then the imaginary parts of bins 0..n/2
    of its windowed, zero-padded n-point DFT.  The mod is taken in
    integers, so every angle lies in [0, 2 pi) exactly.
    """
    cfg = StftConfig(frame_length, frame_step=1)
    n, bins = cfg.fft_length, cfg.num_bins
    theta = 2.0 * np.pi * (np.outer(np.arange(frame_length), np.arange(bins)) % n) / n
    w = (0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame_length) / frame_length))[:, None]
    basis = np.empty((frame_length, 2 * bins))  # filled in place to bound the peak
    np.cos(theta, out=basis[:, :bins])
    np.sin(theta, out=basis[:, bins:])
    basis[:, :bins] *= w
    basis[:, bins:] *= -w
    basis.flags.writeable = False  # shared by every caller of the cache
    return basis


def stft_magnitude(clip, cfg: StftConfig | None = None, dtype=np.float32) -> np.ndarray:
    """Magnitude spectrogram of a clip (or bare 1-D sample array).

    Returns a (frames, bins) array.  Frames are extracted at frame_step
    hops, windowed, zero-padded to fft_length and transformed; bins
    above fft_length/2 are dropped.  Raises TooShortError if the signal
    is shorter than one frame.
    """
    if cfg is None:
        cfg = StftConfig()
    samples = clip.samples if isinstance(clip, AudioClip) else np.asarray(clip)
    if len(samples) < cfg.frame_length:
        raise TooShortError(f"need at least {cfg.frame_length} samples, got {len(samples)}")
    # the copy matmul makes of the strided frames, taken in float64 here
    frames = sliding_window_view(samples, cfg.frame_length)[:: cfg.frame_step].astype(np.float64)
    spectrum = frames @ _dft_basis(cfg.frame_length)
    spectrum *= spectrum
    power = spectrum[:, :cfg.num_bins]
    power += spectrum[:, cfg.num_bins:]
    return np.sqrt(power, out=power).astype(dtype)


def clip_images(clips, cfg: StftConfig | None = None, dtype=np.float32) -> np.ndarray:
    """The (n, frames, bins, 1) network input: stft_magnitude of each canonical_clip."""
    mats = [stft_magnitude(canonical_clip(clip), cfg, dtype) for clip in clips]
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
