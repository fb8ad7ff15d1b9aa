"""WAV reading/writing, the canonical clip format and dataset assembly.

The parser walks RIFF chunks by hand (struct, little-endian) and
accepts only 16-bit integer PCM.  Samples are exposed in [-1, 1];
multi-channel audio is collapsed to mono by averaging each frame across
channels before scaling.  The mean of 1, 2, 4 or 8 channels of 16-bit
samples is exact in float32, so those files decode to float32, any other
channel count to float64.  `resample` is polyphase FIR decimation,
filtering only the outputs it keeps.  `canonical_clip` owns the one clip
format of training and prediction: 16 kHz, 1 s, float32, so a 1 s
16 kHz file decodes straight to a canonical clip.
"""

from __future__ import annotations

import os
import stat
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    CryalertError,
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
    """Mono audio in [-1, 1]: float32 samples are kept, anything else becomes float64."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        x = np.asarray(self.samples)
        self.samples = x if x.dtype == np.float32 else x.astype(np.float64, copy=False)
        if self.samples.ndim != 1:
            raise FormatError(f"clip samples must be 1-D, got shape {self.samples.shape}")
        if self.sample_rate <= 0:
            raise FormatError(f"sample rate must be positive, got {self.sample_rate}")
        if self.samples.size and not np.max(np.abs(self.samples)) <= 1.0:
            raise FormatError("clip samples exceed [-1, 1]")

    def __len__(self):
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


def parse_wav(data: bytes) -> AudioClip:
    """Decode a RIFF/WAVE byte string into an AudioClip of the channels' mean.

    Its samples are float32 for 1, 2, 4 or 8 channels, where that mean
    is exact in float32, and float64 for any other channel count.
    Raises FormatError on structural problems, UnsupportedCodecError
    for non-PCM format codes and UnsupportedDepthError for bit depths
    other than 16.
    """
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise FormatError("not a RIFF/WAVE stream")

    fmt_body = None
    raw = None
    pos = 12
    while pos + 8 <= len(data) and (fmt_body is None or raw is None):  # first data chunk
        chunk_id = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8:pos + 8 + size]
        if len(body) < size:
            raise FormatError(f"truncated {chunk_id!r} chunk")
        if chunk_id == b"fmt ":
            fmt_body = body
        elif chunk_id == b"data" and raw is None:
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

    ints = np.frombuffer(raw, dtype="<i2").reshape(-1, channels)
    exact32 = channels in (1, 2, 4, 8)  # their scale is a power of two
    if channels > 8:  # a header may claim 65535 channels: one reduce, not 65534 adds
        total = ints.sum(axis=1, dtype=np.float64)
    elif channels == 1:
        total = ints[:, 0]
    else:  # one strided add per channel beats a reduce over short rows
        total = ints[:, 0].astype(np.int32 if exact32 else np.float64)
        for column in ints.T[1:]:
            total += column
    # the sums are exact, so this is the frame mean bit for bit; below 2**18
    # and scaled by a power of two, it is exact in float32 too
    mono = np.divide(total, channels * _PCM_SCALE, dtype=np.float32 if exact32 else np.float64)
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


@contextmanager
def naming(path):
    """Lead every CryalertError raised inside with "{path}: ", keeping its type;
    a MemoryError, from a file too large to read, becomes a FormatError."""
    try:
        yield
    except CryalertError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    except MemoryError as exc:
        raise FormatError(f"{path}: too large to read into memory") from exc


def rename_into_place(path, chunks) -> None:
    """Write byte chunks beside path, fsync, rename over path; a failure
    before the rename leaves path as is.  The rename is durable once
    sync_directory has run on path's directory."""
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")  # never *.wav
    try:  # open too: an interrupt can land once it has made tmp
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
            os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)  # not there if open failed or the rename ran
        raise


def sync_directory(directory) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def replace_file(path, chunks) -> None:
    """rename_into_place, then fsync the directory so the rename survives a crash."""
    rename_into_place(path, chunks)
    sync_directory(Path(path).parent)


def load_wav(path) -> AudioClip:
    """Decode a regular WAV file; a FIFO, device or directory is a FormatError."""
    with open_regular(path) as (fh, _size):
        return parse_wav(fh.read())


def write_wav(clip: AudioClip, path) -> None:
    replace_file(path, [encode_wav(clip)])


def design_lowpass(rate: int, cutoff_hz: float) -> np.ndarray:
    """Windowed-sinc FIR low-pass of _RESAMPLE_TAPS taps, unit DC gain."""
    k = np.arange(_RESAMPLE_TAPS)
    nu = cutoff_hz / rate  # cycles per input sample
    taps = 2.0 * nu * np.sinc(2.0 * nu * (k - _RESAMPLE_TAPS // 2))
    taps *= 0.5 - 0.5 * np.cos(2.0 * np.pi * k / (_RESAMPLE_TAPS - 1))
    return taps / taps.sum()


@lru_cache(maxsize=4)
def _polyphase(rate: int, factor: int):
    """Read-only (head, tail): a row of factor * block padded samples times
    head, plus the next row's first taps - factor samples times tail (empty
    once factor >= taps), gives that row's block outputs.  block is the least
    that keeps the tail in one row, so head holds factor * block**2 values:
    at most 2 MB, at the largest factor a 32-bit header rate allows."""
    taps = design_lowpass(rate, _CUTOFF_FRACTION * (rate // factor))[::-1]
    block = max(1, -(-(_RESAMPLE_TAPS - factor) // factor))
    width = factor * block
    weights = np.zeros((width + max(_RESAMPLE_TAPS - factor, 0), block))
    rows = factor * np.arange(block) + np.arange(_RESAMPLE_TAPS)[:, None]
    weights[rows, np.arange(block)] = taps[:, None]
    weights.flags.writeable = False  # shared by every caller of the cache
    return weights[:width], weights[width:]


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Decimate to target_rate: the low-pass output at every k-th sample, ceil(n / k) of them.

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
    head, tail = _polyphase(clip.sample_rate, factor)
    width, block = head.shape
    half = _RESAMPLE_TAPS // 2
    n_out = -(-len(clip) // factor)
    rows = -(-n_out // block)
    # output i is padded[factor * i:][:taps] @ reversed taps, padded[j] = x[j - half]
    padded = np.zeros((rows + (len(tail) > 0)) * width)
    padded[half:][:len(clip)] = clip.samples[:len(padded) - half]
    padded = padded.reshape(-1, width)
    out = padded[:rows] @ head
    if len(tail):
        out += padded[1:, :len(tail)] @ tail
    return AudioClip(np.clip(out.ravel()[:n_out], -1.0, 1.0), target_rate)


def canonical_clip(clip: AudioClip) -> AudioClip:
    """Resample to DEFAULT_SAMPLE_RATE, keep the first DEFAULT_CLIP_SAMPLES samples
    zero-padded, as float32; a canonical clip comes back as is."""
    # output i reads input up to factor * i + taps // 2: the rest of a long clip is never read
    read = clip.sample_rate // DEFAULT_SAMPLE_RATE * DEFAULT_CLIP_SAMPLES + _RESAMPLE_TAPS // 2 + 1
    if len(clip) > read:
        clip = AudioClip(clip.samples[:read], clip.sample_rate)
    clip = resample(clip, DEFAULT_SAMPLE_RATE)
    if len(clip) == DEFAULT_CLIP_SAMPLES and clip.samples.dtype == np.float32:
        return clip
    head = clip.samples[:DEFAULT_CLIP_SAMPLES]
    out = np.zeros(DEFAULT_CLIP_SAMPLES, dtype=np.float32)
    out[:len(head)] = head
    return AudioClip(out, DEFAULT_SAMPLE_RATE)


@dataclass
class LabeledDataset:
    """Canonical clips as the rows of one (n, DEFAULT_CLIP_SAMPLES) float32
    array, their int64 labels, and train/val/test as contiguous row ranges."""

    samples: np.ndarray
    labels: np.ndarray
    class_names: list[str]
    splits: dict[str, range]


def load_dataset(
    root,
    split_ratios=(0.8, 0.1, 0.1),
    seed: int = 42,
) -> LabeledDataset:
    """Read a directory-per-class corpus of WAV files.

    Class names are the sorted subdirectory names and double as label
    indices.  Each canonical_clip goes to its row of one float32 array,
    shuffled with the dataset stream of `seed`; the rows are split by
    ratio with floor allocation for val/test, the remainder to train.
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

    paths, labels = [], []
    for label, class_dir in enumerate(class_dirs):
        wavs = sorted(class_dir.glob("*.wav"))
        if not wavs:
            raise DatasetError(f"class directory {class_dir} holds no .wav files")
        paths += wavs
        labels += [label] * len(wavs)

    n = len(paths)
    order = philox_stream(seed, STREAM_DATASET).permutation(n)
    samples = np.empty((n, DEFAULT_CLIP_SAMPLES), dtype=np.float32)
    # row r holds file order[r], so file i goes to row argsort(order)[i]
    for path, row in zip(paths, np.argsort(order)):
        with naming(path):
            samples[row] = canonical_clip(load_wav(path)).samples

    n_test = int(n * split_ratios[2])
    n_train = n - int(n * split_ratios[1]) - n_test
    splits = {"train": range(n_train), "val": range(n_train, n - n_test),
              "test": range(n - n_test, n)}
    return LabeledDataset(samples, np.array(labels, dtype=np.int64)[order],
                          [d.name for d in class_dirs], splits)
