"""Model persistence, prediction and alert emission.

Model files are a small binary container: magic, format version, a
JSON header (architecture, STFT config, class names, normalization
stats) and the raw little-endian float32 parameter blobs in layer
order, closed by a CRC-32 of the parameter region.  The header holds
nothing derivable: param_shapes gives the shapes, and the STFT config
the input size.  Loading reads only a regular file, reads the magic and
version first, reads no part the file's size cannot hold, and checks
the length, CRC and finiteness before building.

Alerts are single-line JSON events with a fixed key order so
downstream consumers can rely on the schema.
"""

from __future__ import annotations

import json
import logging
import math
import os
import shlex
import struct
import subprocess
import sys
import urllib.error
import urllib.request
import zlib
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from .errors import (
    ConfigError,
    CorruptModelError,
    ModelFileError,
    ModelVersionError,
    NotAModelError,
    TooShortError,
)
from .spectro import StftConfig, clip_images
from .tensor_nn import Network, build_network, param_shapes, softmax
from .wav_io import DEFAULT_CLIP_SAMPLES, DEFAULT_SAMPLE_RATE, AudioClip, open_regular

log = logging.getLogger("cryalert")

MODEL_MAGIC = b"CRYA"
MODEL_VERSION = 1
MAX_HEADER_BYTES = 1 << 20  # a header is a few hundred bytes; more is hostile
DEFAULT_ALERT_CLASSES = ("crying", "screaming")


def _rfc3339(ts: float) -> str:
    return (
        datetime.fromtimestamp(ts, tz=timezone.utc)
        .replace(microsecond=0)
        .isoformat()
        .replace("+00:00", "Z")
    )


def save_model(net: Network, stft_cfg: StftConfig, class_names, path,
               timestamp: float | None = None) -> None:
    """Serialize network + preprocessing config to a model file.

    timestamp (unix seconds) defaults to now; the SOURCE_DATE_EPOCH
    environment variable (whole seconds, as reproducible-builds defines
    it) overrides the default so builds can be made reproducible.
    """
    if len(class_names) != net.class_count:
        raise ConfigError(
            f"{len(class_names)} class names for {net.class_count} outputs"
        )
    if timestamp is None:
        env = os.environ.get("SOURCE_DATE_EPOCH")
        if env and not (env.isascii() and env.isdigit()):
            raise ConfigError(f"SOURCE_DATE_EPOCH must be whole seconds since 1970, got {env!r}")
        timestamp = int(env) if env else datetime.now(tz=timezone.utc).timestamp()
    try:
        created = _rfc3339(timestamp)
    except (OverflowError, OSError, ValueError) as exc:
        raise ConfigError(f"creation time {timestamp} is out of range: {exc}") from exc

    params = net.parameters()
    if not all(np.isfinite(p).all() for p in params):
        raise ConfigError("not saving a network with non-finite parameters")
    mean, variance = net.norm_stats
    header = {
        "architecture": net.arch,
        "stft": {
            "frame_length": stft_cfg.frame_length,
            "frame_step": stft_cfg.frame_step,
            "fft_length": stft_cfg.fft_length,
            "window": stft_cfg.window,
        },
        "class_names": list(class_names),
        "norm_mean": mean,
        "norm_variance": variance,
        "seed": net.seed,
        "created": created,
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    blob = b"".join(np.ascontiguousarray(p, dtype="<f4").tobytes() for p in params)
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<II", MODEL_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        fh.write(blob)
        fh.write(struct.pack("<I", zlib.crc32(blob)))


@dataclass
class LoadedModel:
    network: Network
    stft_config: StftConfig
    class_names: list[str]
    created: str


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_header(header, path) -> None:
    """Raise CorruptModelError unless every field save_model writes is
    present with its type.  Architecture sizes must be positive; other
    ranges are left to param_shapes and the constructors, whose
    ConfigError load_model converts."""
    def need(ok, field):
        if not ok:
            raise CorruptModelError(f"{path}: header field {field} missing or malformed")

    need(isinstance(header, dict), "(top level)")
    arch, stft = header.get("architecture"), header.get("stft")
    need(isinstance(arch, dict), "architecture")
    for key in ("resize", "conv_filters"):
        pair = arch.get(key)
        need(isinstance(pair, list) and len(pair) == 2
             and all(_is_int(v) and v >= 1 for v in pair), f"architecture.{key}")
    need(_is_int(arch.get("dense_units")) and arch["dense_units"] >= 1,
         "architecture.dense_units")
    need(isinstance(stft, dict), "stft")
    for key in ("frame_length", "frame_step", "fft_length"):
        need(_is_int(stft.get(key)), f"stft.{key}")
    need(isinstance(stft.get("window"), str), "stft.window")
    names = header.get("class_names")
    need(isinstance(names, list) and all(isinstance(n, str) for n in names), "class_names")
    need(_is_number(header.get("norm_mean")), "norm_mean")
    need(_is_number(header.get("norm_variance")), "norm_variance")
    need(_is_int(header.get("seed")), "seed")
    need(isinstance(header.get("created"), str), "created")


def load_model(path) -> LoadedModel:
    """Read and verify a model file written by save_model; older files'
    param_shapes, class_count, kernel_size, dropout_rates and input_shape are ignored."""
    with open_regular(path, lambda msg: ModelFileError(f"{path}: {msg}")) as (fh, size):
        data = fh.read(12)
        if len(data) < 12 or data[:4] != MODEL_MAGIC:
            raise NotAModelError(f"{path}: not a model file (bad magic)")
        version, header_len = struct.unpack_from("<II", data, 4)
        if version != MODEL_VERSION:
            raise ModelVersionError(
                f"{path}: format version {version}, this build reads {MODEL_VERSION}"
            )
        header_end = 12 + header_len
        if header_len > MAX_HEADER_BYTES or size < header_end + 4:
            raise CorruptModelError(f"{path}: header length {header_len} does not fit")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorruptModelError(f"{path}: unreadable header: {exc}") from exc
        _check_header(header, path)

        arch, stft, class_names = header["architecture"], header["stft"], header["class_names"]
        layout = {key: arch[key] for key in ("resize", "conv_filters", "dense_units")}
        try:
            stft_cfg = StftConfig(
                frame_length=stft["frame_length"],
                frame_step=stft["frame_step"],
                fft_length=stft["fft_length"],
                window=stft["window"],
            )
            stft_cfg.num_frames(DEFAULT_CLIP_SAMPLES)  # a frame must fit in a clip
            # the file's length bounds what the architecture may claim, so
            # it is checked, with the blob, before build_network allocates
            blob_len = sum(math.prod(s) for s in param_shapes(len(class_names), **layout)) * 4
            if size != header_end + blob_len + 4:
                raise CorruptModelError(
                    f"{path}: expected {header_end + blob_len + 4} bytes, file has {size}"
                )
            data = fh.read(blob_len + 4)
            if len(data) != blob_len + 4:  # the file shrank after it was opened
                raise CorruptModelError(f"{path}: truncated parameters")
            blob = data[:blob_len]
            (crc,) = struct.unpack_from("<I", data, blob_len)
            if zlib.crc32(blob) != crc:
                raise CorruptModelError(f"{path}: parameter checksum mismatch")
            if not np.isfinite(np.frombuffer(blob, dtype="<f4")).all():
                raise CorruptModelError(f"{path}: non-finite parameter value")
            net = build_network(len(class_names), **layout, seed=header["seed"],
                                dtype=np.float32)
            net.set_norm_stats(header["norm_mean"], header["norm_variance"])
        except (ConfigError, TooShortError) as exc:
            raise CorruptModelError(f"{path}: header describes no valid model: {exc}") from exc
    offset = 0
    for p in net.parameters():
        values = np.frombuffer(blob, dtype="<f4", count=p.size, offset=offset)
        p[...] = values.reshape(p.shape)
        offset += 4 * p.size

    return LoadedModel(net, stft_cfg, list(class_names), header["created"])


def predict(net: Network, stft_cfg: StftConfig, clip: AudioClip,
            class_names) -> dict[str, float]:
    """Class probabilities for one clip.

    The image is built by clip_images, exactly as for training.  Clips
    lasting less than one analysis frame at the canonical rate are
    rejected rather than padded: sub-frame audio has no usable content.
    """
    if len(clip) * DEFAULT_SAMPLE_RATE < stft_cfg.frame_length * clip.sample_rate:
        raise TooShortError(
            f"clip has {len(clip)} samples at {clip.sample_rate} Hz, shorter than "
            f"one {stft_cfg.frame_length}-sample frame at {DEFAULT_SAMPLE_RATE} Hz"
        )
    logits, _ = net.forward(clip_images([clip], stft_cfg, net.dtype), train=False)
    probs = softmax(logits[0].astype(np.float64))
    return {name: float(p) for name, p in zip(class_names, probs)}


@dataclass
class AlertEvent:
    timestamp: str
    source: str
    predicted_label: str
    probabilities: dict[str, float]
    alert: bool
    threshold: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), separators=(",", ":"))


def decide_alert(probabilities: dict[str, float], alert_classes, threshold: float,
                 source: str = "", now: float | None = None) -> AlertEvent:
    """Build the alert event for one prediction.

    alert is true iff the argmax class is in alert_classes and its
    probability clears the threshold; probability ties go to the
    earliest class in the mapping's order.
    """
    if not 0.0 < threshold <= 1.0:
        raise ConfigError(f"threshold must be in (0, 1], got {threshold}")
    unknown = [c for c in alert_classes if c not in probabilities]
    if unknown:
        raise ConfigError(
            f"alert classes {unknown} not among model classes {list(probabilities)}"
        )
    names = list(probabilities)
    values = [probabilities[n] for n in names]
    best = int(np.argmax(values))
    predicted = names[best]
    fired = predicted in set(alert_classes) and values[best] >= threshold
    when = _rfc3339(now if now is not None else datetime.now(tz=timezone.utc).timestamp())
    return AlertEvent(when, source, predicted, dict(probabilities), fired, threshold)


class StdoutSink:
    """Writes one line per event to a stream (stdout by default)."""

    def __init__(self, stream=None):
        self.stream = stream if stream is not None else sys.stdout

    def send(self, line: str) -> None:
        self.stream.write(line + "\n")
        self.stream.flush()


class HttpSink:
    """POSTs the JSON line to a URL, with one retry on a connection
    error or an HTTP 5xx; a 4xx means the request itself is refused,
    so it raises at once."""

    def __init__(self, url: str, timeout: float = 2.0):
        self.url = url
        self.timeout = timeout

    def send(self, line: str) -> None:
        request = urllib.request.Request(
            self.url,
            data=line.encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            urllib.request.urlopen(request, timeout=self.timeout).close()
        except OSError as exc:  # URLError and HTTPError are OSErrors
            if isinstance(exc, urllib.error.HTTPError) and exc.code < 500:
                raise
            urllib.request.urlopen(request, timeout=self.timeout).close()


class CommandSink:
    """Pipes the JSON line to a subprocess's stdin."""

    def __init__(self, command: str, timeout: float = 10.0):
        self.argv = shlex.split(command)
        if not self.argv:
            raise ConfigError("alert command is empty")
        self.timeout = timeout

    def send(self, line: str) -> None:
        subprocess.run(
            self.argv,
            input=(line + "\n").encode("utf-8"),
            timeout=self.timeout,
            check=True,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )


def emit_alert(event: AlertEvent, sinks) -> None:
    """Send one event to every sink; a sink failure is logged, never raised."""
    if not sinks:
        raise ConfigError("no alert sinks configured")
    line = event.to_json()
    failures = 0
    for sink in sinks:
        try:
            sink.send(line)
        except Exception as exc:
            failures += 1
            log.warning("alert sink %s failed: %s", type(sink).__name__, exc)
    if failures == len(sinks):
        log.warning("all %d alert sinks failed for %s", failures, event.source)
