"""Command-line interface.

Subcommands: train, eval, predict, watch, spectrogram, synth.
Exit codes: 0 on success, 1 for runtime/data problems (one-line
diagnostic on stderr), 2 for usage errors.  train and synth have a
default seed; the CRYALERT_SEED environment variable overrides it and
an explicit --seed flag beats both.  train splits the dataset 0.8/0.1/0.1
with its seed, and eval repeats that split with the seed stored in the
model, so it scores exactly the clips training held out.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import signal
import stat
import sys
import time
from pathlib import Path

from .errors import ConfigError, CryalertError
from .infer_alert import (
    DEFAULT_ALERT_CLASSES,
    CommandSink,
    HttpSink,
    StdoutSink,
    decide_alert,
    emit_alert,
    load_model,
    predict,
    save_model,
)
from .optim_train import TrainConfig, evaluate, split_arrays, train
from .spectro import StftConfig, export_spectrogram, stft_magnitude
from .synth import CLASSES, generate_corpus
from .tensor_nn import build_network
from .wav_io import load_dataset, load_wav, replace_file

log = logging.getLogger("cryalert")


def _resolve_seed(flag_value, default: int) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("CRYALERT_SEED")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"CRYALERT_SEED must be an integer, got {env!r}")
    return default


def _number(cast, ok, want):
    """argparse type: cast the text, keep it if finite and ok(value) (NaN fails ok)."""
    def parse(text):
        value = cast(text)
        # ints are finite, and math.isfinite overflows on a huge one
        if not ((cast is int or math.isfinite(value)) and ok(value)):
            raise argparse.ArgumentTypeError(f"must be {want}, got {text}")
        return value
    parse.__name__ = cast.__name__  # so argparse says "invalid int value"
    return parse


_count = _number(int, lambda v: v >= 1, ">= 1")
_positive = _number(float, lambda v: v > 0, "finite and > 0")
_non_negative = _number(float, lambda v: v >= 0, "finite and >= 0")
_share = _number(float, lambda v: 0 < v <= 1, "in (0, 1]")
# time.sleep overflows on a huge interval; one hour is plenty
_poll_ms = _number(int, lambda v: 1 <= v <= 3_600_000, "in [1, 3600000]")


class DirectoryWatcher:
    """Polling watcher that classifies new WAV files and emits alerts.

    A file is picked up once its size and modification time are
    unchanged across two consecutive polls (so half-written files are
    left alone) and is processed once per (size, mtime): a file deleted
    and written again under the same name is classified again.  A
    positive cooldown suppresses alert-positive emissions for that many
    seconds after the last one.
    """

    def __init__(self, directory, classify, sinks, alert_classes, threshold,
                 cooldown: float = 0.0, clock=time.time):
        self.directory = Path(directory)
        self.classify = classify
        self.sinks = sinks
        self.alert_classes = list(alert_classes)
        self.threshold = threshold
        self.cooldown = cooldown
        self.clock = clock
        self.stop = False
        self._last_seen: dict = {}   # path -> (size, mtime_ns, regular) at the last poll
        self._processed: dict = {}   # path -> that signature when it was classified
        self._last_alert: float | None = None

    def poll_once(self):
        """One scan; returns the events emitted during it.

        A file that classify rejects is logged as a skip and the scan
        goes on: CryalertError and OSError by their message, any other
        Exception by its type as well (its traceback at debug level).
        Non-regular files (FIFOs, device links) are skipped unread.
        """
        seen = {}
        for path in sorted(self.directory.glob("*.wav")):
            try:
                st = path.stat()
            except OSError:
                continue
            seen[path] = (st.st_size, st.st_mtime_ns, stat.S_ISREG(st.st_mode))
        # forget files that are gone, so the map never outgrows the directory
        self._processed = {p: sig for p, sig in self._processed.items() if p in seen}
        emitted = []
        for path, sig in seen.items():
            if self._processed.get(path) == sig or self._last_seen.get(path) != sig:
                continue
            self._processed[path] = sig
            if not sig[2]:
                log.warning("skipping %s: not a regular file", path)
                continue
            try:
                probs = self.classify(path)
            except (CryalertError, OSError) as exc:
                log.warning("skipping %s: %s", path, exc)
                continue
            except Exception as exc:
                log.warning("skipping %s: unexpected %s: %s", path,
                            type(exc).__name__, exc)
                log.debug("traceback for %s", path, exc_info=True)
                continue
            now = self.clock()
            event = decide_alert(probs, self.alert_classes, self.threshold,
                                 source=str(path), now=now)
            if event.alert and self.cooldown > 0 and self._last_alert is not None \
                    and now - self._last_alert < self.cooldown:
                log.info("cooldown: suppressing alert for %s", path)
                continue
            if event.alert:
                self._last_alert = now
            emit_alert(event, self.sinks)
            emitted.append(event)
        self._last_seen = seen
        return emitted

    def run(self, poll_seconds: float) -> None:
        """Poll until stop is set; SIGINT and SIGTERM both set it."""
        previous = {sig: signal.signal(sig, lambda *_: setattr(self, "stop", True))
                    for sig in (signal.SIGINT, signal.SIGTERM)}
        try:
            while not self.stop:
                self.poll_once()
                if self.stop:
                    break
                time.sleep(poll_seconds)
        except KeyboardInterrupt:
            pass
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)


def cmd_train(args) -> int:
    seed = _resolve_seed(args.seed, 42)
    dataset = load_dataset(args.data, seed=seed)
    net = build_network(len(dataset.class_names), seed=seed)
    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch, lr=args.lr,
                      seed=seed, patience=args.patience)
    report = train(net, dataset, cfg)
    # written first, so a run that diverged still shows where
    report_path = Path(str(args.out) + ".report.json")
    replace_file(report_path, [report.to_json().encode()])
    save_model(net, StftConfig(), dataset.class_names, args.out)
    print(report.to_text())
    print(f"model: {args.out}")
    print(f"report: {report_path}")
    return 0


def cmd_eval(args) -> int:
    loaded = load_model(args.model)
    dataset = load_dataset(args.data, seed=loaded.network.seed)
    if loaded.class_names != dataset.class_names:
        raise ConfigError(
            f"model classes {loaded.class_names} do not match dataset classes "
            f"{dataset.class_names}"
        )
    images, labels = split_arrays(dataset, args.split, loaded.network.dtype)
    loss, accuracy, matrix = evaluate(loaded.network, images, labels, dataset.class_names)
    print(f"{args.split} loss: {loss:.4f}")
    print(f"{args.split} accuracy: {accuracy:.4f}")
    if args.confusion:
        print(matrix.to_text())
    return 0


def cmd_predict(args) -> int:
    loaded = load_model(args.model)
    clip = load_wav(args.input)
    probs = predict(loaded.network, loaded.stft_config, clip, loaded.class_names)
    if args.json:
        print(json.dumps(probs))
    else:
        for name, p in sorted(probs.items(), key=lambda kv: -kv[1]):
            print(f"{name}: {p:.4f}")
    return 0


def cmd_watch(args) -> int:
    loaded = load_model(args.model)
    directory = Path(args.dir)
    if not directory.is_dir():
        raise ConfigError(f"watch directory {directory} does not exist")
    alert_classes = [c for c in args.alert_classes.split(",") if c]
    # decide_alert checks this too, but only once a file arrives; a bad
    # --alert-classes must fail at startup
    unknown = [c for c in alert_classes if c not in loaded.class_names]
    if unknown:
        raise ConfigError(
            f"alert classes {unknown} not among model classes {loaded.class_names}"
        )
    sinks = [StdoutSink()]
    if args.alert_url:
        sinks.append(HttpSink(args.alert_url))
    if args.alert_cmd:
        sinks.append(CommandSink(args.alert_cmd))

    def classify(path):
        return predict(loaded.network, loaded.stft_config, load_wav(path),
                       loaded.class_names)

    watcher = DirectoryWatcher(directory, classify, sinks, alert_classes,
                               args.threshold, cooldown=args.cooldown)
    log.info("watching %s (threshold %.2f, alert classes %s)",
             directory, args.threshold, ",".join(alert_classes))
    watcher.run(args.poll_ms / 1000.0)
    return 0


def cmd_spectrogram(args) -> int:
    spec = stft_magnitude(load_wav(args.input))
    export_spectrogram(spec, args.out, Path(args.out).suffix.lstrip(".").lower())
    print(f"{spec.shape[0]} x {spec.shape[1]}")
    return 0


def cmd_synth(args) -> int:
    seed = _resolve_seed(args.seed, 7)
    written = generate_corpus(args.out, per_class=args.per_class, seed=seed)
    print(f"wrote {len(written)} clips across {len(CLASSES)} classes under {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cryalert",
                                     description="audio distress classifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on a directory-per-class corpus")
    p.add_argument("--data", required=True, help="dataset root directory")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--epochs", type=_count, default=10)
    p.add_argument("--batch", type=_count, default=64)
    p.add_argument("--lr", type=_positive, default=1e-4)
    p.add_argument("--seed", type=int, default=None, help="default 42")
    p.add_argument("--patience", type=_count, default=None,
                   help="stop after N epochs without val-loss improvement")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a trained model on a dataset split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test",
                   help="part of the 0.8/0.1/0.1 split train made with the model's seed")
    p.add_argument("--confusion", action="store_true", help="print the confusion matrix")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="classify one WAV file")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--json", action="store_true", help="print a JSON object instead")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("watch", help="watch a directory and alert on distress clips")
    p.add_argument("--model", required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--threshold", type=_share, default=0.5)
    p.add_argument("--alert-classes", default=",".join(DEFAULT_ALERT_CLASSES),
                   help="comma-separated class names that may alert")
    p.add_argument("--alert-url", default=None, help="also POST alerts to this URL")
    p.add_argument("--alert-cmd", default=None, help="also pipe alerts to this command")
    p.add_argument("--cooldown", type=_non_negative, default=0.0,
                   help="seconds to suppress repeat alerts")
    p.add_argument("--poll-ms", type=_poll_ms, default=500)
    p.set_defaults(func=cmd_watch)

    p = sub.add_parser("spectrogram", help="export a spectrogram as .pgm or .csv")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="output path; format from extension")
    p.set_defaults(func=cmd_spectrogram)

    p = sub.add_parser("synth", help="generate the synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--per-class", type=_count, default=200)
    p.add_argument("--seed", type=int, default=None, help="default 7")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "spectrogram":
            fmt = Path(args.out).suffix.lstrip(".").lower()
            if fmt not in ("pgm", "csv"):
                parser.error(f"cannot infer format from {args.out!r}: use .pgm or .csv")
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    except (CryalertError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
