"""WAV reading/writing, the canonical clip format and dataset assembly.

The parser walks RIFF chunks by hand (struct, little-endian) and
accepts only 16-bit integer PCM.  Samples are exposed as float64 in
[-1, 1]; multi-channel audio is collapsed to mono by averaging each
frame across channels before scaling.  `canonical_clip` owns the one
clip format the model sees in training and prediction: 16 kHz, 1 s.
"""

from __future__ import annotations

import os
import stat
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DatasetError,
    FormatError,
    UnsupportedCodecError,
    UnsupportedDepthError,
    UnsupportedRatioError,
)
from .rng import STREAM_DATASET, philox_stream

# canonical clip format: 1 second at 16 kHz
DEFAULT_SAMPLE_RATE = 16000
DEFAULT_CLIP_SAMPLES = 16000

_PCM_SCALE = 32768.0
_RESAMPLE_TAPS = 127
_CUTOFF_FRACTION = 0.45  # of the target rate


@dataclass
class AudioClip:
    """Mono audio: float64 samples in [-1, 1] plus a sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise FormatError(f"clip samples must be 1-D, got shape {self.samples.shape}")
        if self.sample_rate <= 0:
            raise FormatError(f"sample rate must be positive, got {self.sample_rate}")
        if self.samples.size and np.max(np.abs(self.samples)) > 1.0:
            raise FormatError("clip samples exceed [-1, 1]")

    def __len__(self):
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


def parse_wav(data: bytes) -> AudioClip:
    """Decode a RIFF/WAVE byte string into an AudioClip.

    Raises FormatError on structural problems, UnsupportedCodecError
    for non-PCM format codes and UnsupportedDepthError for bit depths
    other than 16.
    """
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise FormatError("not a RIFF/WAVE stream")

    fmt_body = None
    raw = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8:pos + 8 + size]
        if len(body) < size:
            raise FormatError(f"truncated {chunk_id!r} chunk")
        if chunk_id == b"fmt ":
            fmt_body = body
        elif chunk_id == b"data":
            raw = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt_body is None:
        raise FormatError("missing fmt chunk")
    if raw is None:
        raise FormatError("missing data chunk")
    if len(fmt_body) < 16:
        raise FormatError("fmt chunk too small")

    format_code, channels, rate, _byte_rate, _block_align, bits = struct.unpack_from(
        "<HHIIHH", fmt_body
    )
    if format_code != 1:
        raise UnsupportedCodecError(f"unsupported WAV format code {format_code}, want 1 (PCM)")
    if bits != 16:
        raise UnsupportedDepthError(f"unsupported bit depth {bits}, want 16")
    if channels < 1:
        raise FormatError("channel count must be >= 1")
    if rate <= 0:
        raise FormatError("sample rate must be positive")

    frame_bytes = 2 * channels
    if len(raw) % frame_bytes:
        raise FormatError("data chunk holds a partial sample frame")

    ints = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    mono = ints.reshape(-1, channels).mean(axis=1) / _PCM_SCALE
    return AudioClip(mono, int(rate))


def encode_wav(clip: AudioClip) -> bytes:
    """Encode a clip as mono 16-bit PCM WAV bytes."""
    ints = np.clip(np.rint(clip.samples * _PCM_SCALE), -32768, 32767).astype("<i2")
    data = ints.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(data), b"WAVE",
        b"fmt ", 16, 1, 1, clip.sample_rate, clip.sample_rate * 2, 2, 16,
        b"data", len(data),
    )
    return header + data


@contextmanager
def open_regular(path, error=FormatError):
    """Yield (binary file, size) for a regular file; the open does not block
    on a FIFO, and anything but a regular file raises error("not a regular file")."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    st = os.fstat(fd)
    if not stat.S_ISREG(st.st_mode):
        os.close(fd)
        raise error("not a regular file")
    with open(fd, "rb") as fh:
        yield fh, st.st_size


def load_wav(path) -> AudioClip:
    """Decode a regular WAV file; a FIFO, device or directory is a FormatError."""
    with open_regular(path) as (fh, _size):
        return parse_wav(fh.read())


def write_wav(clip: AudioClip, path) -> None:
    Path(path).write_bytes(encode_wav(clip))


def design_lowpass(rate: int, cutoff_hz: float) -> np.ndarray:
    """Windowed-sinc FIR low-pass of _RESAMPLE_TAPS taps, unit DC gain."""
    k = np.arange(_RESAMPLE_TAPS)
    nu = cutoff_hz / rate  # cycles per input sample
    taps = 2.0 * nu * np.sinc(2.0 * nu * (k - _RESAMPLE_TAPS // 2))
    taps *= 0.5 - 0.5 * np.cos(2.0 * np.pi * k / (_RESAMPLE_TAPS - 1))
    return taps / taps.sum()


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Decimate to target_rate (low-pass filter then take every k-th sample).

    Only integer ratios are supported; anything else raises
    UnsupportedRatioError.  Equal rates return the clip unchanged.
    """
    if target_rate <= 0:
        raise ConfigError(f"target rate must be positive, got {target_rate}")
    if clip.sample_rate == target_rate:
        return clip
    if clip.sample_rate % target_rate:
        raise UnsupportedRatioError(
            f"cannot resample {clip.sample_rate} Hz to {target_rate} Hz: "
            "not an integer decimation"
        )
    factor = clip.sample_rate // target_rate
    taps = design_lowpass(clip.sample_rate, _CUTOFF_FRACTION * target_rate)
    filtered = np.convolve(clip.samples, taps, mode="same")
    out = np.clip(filtered[::factor], -1.0, 1.0)
    return AudioClip(out, target_rate)


def canonical_clip(clip: AudioClip) -> AudioClip:
    """Resample to DEFAULT_SAMPLE_RATE, keep the first DEFAULT_CLIP_SAMPLES
    samples and zero-pad the tail; a canonical clip comes back as is."""
    clip = resample(clip, DEFAULT_SAMPLE_RATE)
    if len(clip) == DEFAULT_CLIP_SAMPLES:
        return clip
    head = clip.samples[:DEFAULT_CLIP_SAMPLES]
    out = np.zeros(DEFAULT_CLIP_SAMPLES)
    out[:len(head)] = head
    return AudioClip(out, DEFAULT_SAMPLE_RATE)


@dataclass
class LabeledDataset:
    """Clips with integer labels plus disjoint train/val/test index lists."""

    items: list  # of (AudioClip, int)
    class_names: list[str]
    splits: dict[str, list[int]] = field(default_factory=dict)

    def subset(self, name: str) -> list:
        return [self.items[i] for i in self.splits[name]]


def load_dataset(
    root,
    split_ratios=(0.8, 0.1, 0.1),
    seed: int = 42,
) -> LabeledDataset:
    """Read a directory-per-class corpus of WAV files.

    Class names are the sorted subdirectory names and double as label
    indices.  Every clip is stored as its canonical_clip.  Items are
    shuffled with the dataset stream of `seed`, then split by ratio with
    floor allocation for val/test and the remainder going to train.
    """
    root = Path(root)
    if len(split_ratios) != 3 or not all(r >= 0 for r in split_ratios):
        raise ConfigError(f"split ratios must be three non-negative numbers, got {split_ratios}")
    if not abs(sum(split_ratios) - 1.0) <= 1e-9:
        raise ConfigError(f"split ratios must sum to 1, got {split_ratios}")
    if not root.is_dir():
        raise DatasetError(f"dataset root {root} is not a directory")

    class_dirs = sorted(d for d in root.iterdir() if d.is_dir())
    if len(class_dirs) < 2:
        raise DatasetError(f"need at least 2 class directories under {root}, found {len(class_dirs)}")

    items = []
    class_names = []
    for label, class_dir in enumerate(class_dirs):
        class_names.append(class_dir.name)
        wavs = sorted(class_dir.glob("*.wav"))
        if not wavs:
            raise DatasetError(f"class directory {class_dir} holds no .wav files")
        for path in wavs:
            try:
                clip = load_wav(path)
            except (FormatError, UnsupportedCodecError, UnsupportedDepthError) as exc:
                raise type(exc)(f"{path}: {exc}") from exc
            items.append((canonical_clip(clip), label))

    order = philox_stream(seed, STREAM_DATASET).permutation(len(items))
    items = [items[i] for i in order]

    n = len(items)
    n_val = int(n * split_ratios[1])
    n_test = int(n * split_ratios[2])
    n_train = n - n_val - n_test
    splits = {
        "train": list(range(n_train)),
        "val": list(range(n_train, n_train + n_val)),
        "test": list(range(n_train + n_val, n)),
    }
    return LabeledDataset(items, class_names, splits)
