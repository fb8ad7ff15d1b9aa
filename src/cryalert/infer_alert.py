"""Model persistence, prediction and alert emission.

Model files are a small binary container: magic, format version, a
JSON header (class names, normalization stats, seed, creation time) and
the raw little-endian float32 parameter blobs in layer order, closed by
a CRC-32 of the parameter region.  The STFT and the network layout are
fixed, so param_shapes gives the shapes from the class count.  Loading
reads only a regular file, magic and version first, never past what its
size holds, and checks that the header holds exactly the fields
save_model writes, then the length, CRC and finiteness, before building.

Alerts are single-line JSON events with a fixed key order so
downstream consumers can rely on the schema.  The modules only the
webhook and command sinks use load when such a sink is built.
"""

from __future__ import annotations

import json
import logging
import math
import os
import struct
import sys
import threading
import time
import urllib.parse
import zlib
from dataclasses import dataclass
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
from .spectro import FRAME_LENGTH, StftConfig, clip_images
from .tensor_nn import Network, build_network, param_shapes, softmax
from .wav_io import DEFAULT_SAMPLE_RATE, AudioClip, naming, open_regular, replace_file

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
    """Serialize a network and its class names (stft_cfg is unread) to a model file.

    timestamp (unix seconds) defaults to now; the SOURCE_DATE_EPOCH
    environment variable (whole seconds, as reproducible-builds defines
    it) overrides the default so builds can be made reproducible.
    """
    if len(class_names) != net.class_count:
        raise ConfigError(
            f"{len(class_names)} class names for {net.class_count} outputs"
        )
    # load_model reads back only these types: refuse to write a file it would refuse
    if not all(isinstance(n, str) for n in class_names):
        raise ConfigError(f"class names must be strings, got {list(class_names)}")
    if len(set(class_names)) != len(class_names):
        raise ConfigError(f"duplicate class names in {list(class_names)}")
    if type(net.seed) is not int:
        raise ConfigError(f"network seed must be an int, got {net.seed!r}")
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
        "class_names": list(class_names),
        "norm_mean": mean,
        "norm_variance": variance,
        "seed": net.seed,
        "created": created,
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    blob = b"".join(np.ascontiguousarray(p, dtype="<f4").tobytes() for p in params)
    replace_file(path, [MODEL_MAGIC, struct.pack("<II", MODEL_VERSION, len(header_bytes)),
                        header_bytes, blob, struct.pack("<I", zlib.crc32(blob))])


@dataclass
class LoadedModel:
    network: Network
    class_names: list[str]
    created: str
    stft_config = StftConfig()  # a class attribute, not read by predict


def _check_header(header) -> None:
    """Raise CorruptModelError unless the header holds exactly the fields
    save_model writes, each with its type.  Ranges are left to param_shapes
    and Normalize, whose ConfigError load_model converts."""
    def need(ok, field):
        if not ok:
            raise CorruptModelError(f"header field {field} missing or malformed")

    need(isinstance(header, dict), "(top level)")
    unknown = sorted(set(header) - {"class_names", "norm_mean", "norm_variance", "seed", "created"})
    if unknown:  # ignoring a field could change predictions silently
        raise CorruptModelError(f"unknown header field {', '.join(unknown)}; retrain")
    names = header.get("class_names")
    need(isinstance(names, list) and all(isinstance(n, str) for n in names)
         and len(set(names)) == len(names), "class_names")
    # json.loads gives exact types, so a bool is neither int nor float here
    need(type(header.get("norm_mean")) in (int, float), "norm_mean")
    need(type(header.get("norm_variance")) in (int, float), "norm_variance")
    need(type(header.get("seed")) is int, "seed")
    need(isinstance(header.get("created"), str), "created")


def load_model(path) -> LoadedModel:
    """Read and verify a model file written by save_model; every error names the path.

    A header field save_model does not write, such as an older version's
    stft or architecture, raises CorruptModelError naming it before
    anything is allocated."""
    with naming(path), open_regular(path, ModelFileError) as (fh, size):
        data = fh.read(12)
        if len(data) < 12 or data[:4] != MODEL_MAGIC:
            raise NotAModelError("not a model file (bad magic)")
        version, header_len = struct.unpack_from("<II", data, 4)
        if version != MODEL_VERSION:
            raise ModelVersionError(f"format version {version}, this build reads {MODEL_VERSION}")
        header_end = 12 + header_len
        if header_len > MAX_HEADER_BYTES or size < header_end + 4:
            raise CorruptModelError(f"header length {header_len} does not fit")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorruptModelError(f"unreadable header: {exc}") from exc
        _check_header(header)

        class_names = header["class_names"]
        try:
            # the length and the blob are checked before build_network allocates
            shapes = param_shapes(len(class_names))
            sizes = [math.prod(s) for s in shapes]
            blob_len = sum(sizes) * 4
            if size != header_end + blob_len + 4:
                raise CorruptModelError(
                    f"expected {header_end + blob_len + 4} bytes, file has {size}")
            region = np.empty(sum(sizes) + 1, "<f4")  # the parameters, then the CRC word
            raw = memoryview(region).cast("B")  # filled by one read, not copied
            if fh.readinto(raw) != blob_len + 4:  # the file shrank after it was opened
                raise CorruptModelError("truncated parameters")
            if zlib.crc32(raw[:blob_len]) != struct.unpack_from("<I", raw, blob_len)[0]:
                raise CorruptModelError("parameter checksum mismatch")
            values = region[:-1].astype(np.float32, copy=False)  # a view unless big-endian
            if not np.isfinite(values).all():
                raise CorruptModelError("non-finite parameter value")
            params = [v.reshape(s) for v, s in zip(np.split(values, np.cumsum(sizes)[:-1]), shapes)]
            net = build_network(len(class_names), seed=header["seed"], params=params)
            net.set_norm_stats(float(header["norm_mean"]), float(header["norm_variance"]))
        except (ConfigError, OverflowError) as exc:  # float() of an int beyond float range
            raise CorruptModelError(f"header describes no valid model: {exc}") from exc
    return LoadedModel(net, list(class_names), header["created"])


def predict(net: Network, stft_cfg: StftConfig, clip: AudioClip,
            class_names) -> dict[str, float]:
    """Class probabilities for one clip.

    The image is built by clip_images, exactly as for training; stft_cfg
    is unread.  Clips lasting less than one frame at the canonical rate
    are rejected rather than padded: sub-frame audio has no usable content.
    """
    if len(clip) * DEFAULT_SAMPLE_RATE < FRAME_LENGTH * clip.sample_rate:
        raise TooShortError(
            f"clip has {len(clip)} samples at {clip.sample_rate} Hz, shorter than "
            f"one {FRAME_LENGTH}-sample frame at {DEFAULT_SAMPLE_RATE} Hz"
        )
    with np.errstate(all="ignore"):  # an overflow shows in the logits, checked below
        logits, _ = net.forward(clip_images([clip]), train=False)
    if not np.isfinite(logits).all():
        raise CorruptModelError("the model gives non-finite outputs for this clip")
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
        return json.dumps(vars(self), separators=(",", ":"))  # asdict's order, no deep copy


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
    """POSTs the JSON line to an http(s) URL, one http.client connection per attempt,
    with one retry on a connection error or an HTTP 5xx.  Any other status outside
    2xx raises HTTPError at once: http.client follows no redirect, so a 3xx fails the
    send instead of moving the alert.  Only the status line and headers are read,
    never the body.  One timeout bounds the whole exchange, both attempts: a timer
    shuts the connection down when it runs out, so a host that trickles its reply
    cannot hold the send past it.  The host is contacted directly; proxy variables
    are not read.  A URL with user info is refused, as http.client would drop it."""

    def __init__(self, url: str, timeout: float = 2.0):
        import http.client
        import urllib.error  # send's, loaded now so the first alert pays no import
        try:
            parts = urllib.parse.urlsplit(url)
            ok = parts.scheme in ("http", "https") and parts.hostname and parts.port != 0
        except ValueError:  # an unclosed [ of an IPv6 host, a port not in 0..65535
            ok = False
        if not ok or parts.username is not None:  # a URL that may hold a password is not echoed
            shown = repr(url) if "@" not in url else "a URL with an @"
            raise ConfigError(f"alert URL must be http(s)://host... with no user@, got {shown}")
        self.url = url
        self.timeout = timeout
        # HTTPSConnection's default context verifies the certificate and host name
        self._connection = (http.client.HTTPSConnection if parts.scheme == "https"
                            else http.client.HTTPConnection)
        self._address = parts.hostname, parts.port or self._connection.default_port
        self._target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")

    def send(self, line: str) -> None:
        import http.client
        import socket
        import urllib.error
        lock, socks, expired = threading.Lock(), [], threading.Event()

        def shut(sock) -> None:
            try:  # the plain socket's shutdown: a blocked read, TLS or not, returns at once
                socket.socket.shutdown(sock, socket.SHUT_RDWR)
            except OSError:  # closed already
                pass

        def expire() -> None:
            with lock:
                expired.set()
                for sock in socks:
                    shut(sock)

        def post(timeout: float) -> None:
            conn = self._connection(*self._address, timeout=timeout)
            try:
                conn.connect()
                with lock:  # a connection made after expire() is shut at once
                    socks.append(conn.sock)
                    if expired.is_set():
                        shut(conn.sock)
                conn.request("POST", self._target, line.encode("utf-8"),
                             {"Content-Type": "application/json"})
                with conn.getresponse() as reply:
                    if not 200 <= reply.status < 300:
                        raise urllib.error.HTTPError(self.url, reply.status, reply.reason,
                                                     reply.headers, None)
            finally:
                conn.close()

        deadline = time.monotonic() + self.timeout
        timer = threading.Timer(self.timeout, expire)
        timer.daemon = True
        timer.start()
        try:
            try:
                post(self.timeout)
            except OSError as exc:  # HTTPError is an OSError
                left = deadline - time.monotonic()
                if left <= 0 or isinstance(exc, urllib.error.HTTPError) and exc.code < 500:
                    raise
                post(left)
        except (OSError, http.client.HTTPException) as exc:
            if expired.is_set():  # whatever the cut-off read raised, the cause is the deadline
                raise TimeoutError(f"no complete reply within {self.timeout:g} s") from exc
            raise
        finally:
            timer.cancel()


class CommandSink:
    """Pipes the JSON line to a subprocess's stdin."""

    def __init__(self, command: str, timeout: float = 10.0):
        import shlex
        import subprocess  # send's, loaded now so the first alert pays no import
        self.argv = shlex.split(command)
        if not self.argv:
            raise ConfigError("alert command is empty")
        self.timeout = timeout

    def send(self, line: str) -> None:
        import subprocess
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
