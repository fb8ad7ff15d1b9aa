"""cryalert benchmark: end-to-end metrics per workload, per-layer when traced.

Run from the root of a cryalert checkout (it imports ./src/cryalert):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed makes every input; the program sees only the generated files.
Each measured operation runs in a fresh child process, so its resource
usage is its own.  Workloads:

  train_synth    closed loop: train() with the default hyperparameters
                 (batch 64, lr 1e-4, seed 42) and TRAIN_EPOCHS epochs on
                 the 800-clip, 4-class synthetic corpus, repeated for S s.
  watch_burst    closed batch: the backlog after an outage.  Every file is
                 in place before `cryalert watch --poll-ms POLL_MS` starts;
                 one seeded backlog of BURST_BACKLOG files is served to a
                 fresh watcher again and again for S s.

The watch mix is mostly 16 kHz mono, with fixed shares of 48 kHz mono and
stereo and of invalid files (44.1 kHz, 24-bit, truncated) that must be
skipped.  The watch model is trained once per invocation, before any
timed region.

An open-loop watch_trickle workload (files arriving at about 20/s, alert
latency from each file's due time) was dropped: three workloads left
too little time per run for train_synth's figures to steady.

Host speed.  The benchmark shares a host whose per-core speed drifts by
a fifth or more over tens of seconds.  Each operation (a train() child,
a burst watcher) is bracketed by probes of a fixed numpy kernel shaped
like the workload's hot path (hostspeed.py), and its times are scaled
to a host on which one kernel call takes hostspeed.NOMINAL_S[kind]: a
time t measured while the kernel took k s per call is reported as
t * NOMINAL_S / k (a rate r as r * k / NOMINAL_S).  peak_rss_mb and
accuracy are not scaled.  The report line gives the unscaled figures
too.

End-to-end metrics (--trace 0) carry the same names on every workload:

  metric            train_synth                watch_burst
  setup_s           load_dataset+build_network spawn -> `watching` on stderr
  throughput_per_s  train clips x epochs       resolutions after the first /
                    / train() wall time        (last - first resolution)
  latency_p50_ms,   one training step: its     time from one file's
  latency_p90_ms    train-mode forward to the  resolution to the next's
                    end of its adam_step
  peak_rss_mb       ru_maxrss of the child that did the work
  accuracy          held-out test accuracy     events whose label is the
                                               class the clip was made from

Each figure is the median over the run's operations (train() children,
burst watchers) of that operation's figure, except train_synth's
latencies, which pool the steps of all of the run's train() calls but
the first of each.

A file is resolved when its event line reaches stdout or its skip line
reaches stderr.  The output check: every valid file gets exactly one
event whose predicted_label and alert match an in-process predict +
decide_alert on the same model; every invalid file gets one skip line
and no event; a training run must not fail and must reach test accuracy
0.90.  Anything else counts as a failed operation and the exit code is 1.

With --trace 1 the run makes an untraced pass and a traced pass of S/2 s
each, reports the per-layer metrics of the traced pass (see spans.py)
and checks that every layer predicted to work on the workload was
called and every predicted-idle one was not.

The last stdout line is {"correct", "attempted", "failed", "metrics"};
the line before it is a JSON report with the machine record, the
untraced (and traced) end-to-end figures, scaled and unscaled, each
operation's unscaled throughput, the host speed probes, and the
headline figures under workload-specific names (train_clips_per_s,
train_test_accuracy, watch_files_per_s).
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import hostspeed

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
BUDGET_S = 165.0  # a run must end within 180 s

TRAIN_EPOCHS = 1
TRAIN_SETUPS = 3          # set-up rounds timed in each train() child
POLL_MS = 100
# Input sizes are fixed, never calibrated, so that the seed alone
# decides the inputs.
BURST_BACKLOG = 400       # files per burst watcher, about 3 s of work
ACCURACY_BAR = 0.90

TRAIN, BURST = "train_synth", "watch_burst"
WORKLOADS = (TRAIN, BURST)
ALL, TRAINING, WATCHING = {TRAIN, BURST}, {TRAIN}, {BURST}

END_TO_END = {"setup_s": "s", "throughput_per_s": "1/s", "latency_p50_ms": "ms",
              "latency_p90_ms": "ms", "peak_rss_mb": "MB", "accuracy": "fraction"}
# headline figures under workload-specific names, for the report line
WORKLOAD_NAMES = {
    TRAIN: {"train_clips_per_s": ("throughput_per_s", "clips/s"),
            "train_test_accuracy": ("accuracy", "fraction")},
    BURST: {"watch_files_per_s": ("throughput_per_s", "files/s")},
}

LAYERS = ("resize", "normalize", "conv1", "conv2", "maxpool", "dropout1",
          "dense1", "dropout2", "dense2", "network")


def _span_metrics():
    """(metric, span, unit, self time?, workloads that must call it)."""
    rows = [("wav_io.load_dataset_s", "wav_io.load_dataset", "s", False, TRAINING),
            ("wav_io.parse_wav_ms", "wav_io.parse_wav", "ms", False, ALL),
            ("wav_io.resample_ms", "wav_io.resample", "ms", False, ALL),
            ("spectro.stft_ms", "spectro.stft", "ms", False, ALL)]
    for layer in LAYERS:
        rows.append((f"tensor_nn.{layer}.forward_ms", f"tensor_nn.{layer}.forward",
                     "ms", False, ALL))
        rows.append((f"tensor_nn.{layer}.backward_ms", f"tensor_nn.{layer}.backward",
                     "ms", False, TRAINING))
    for name, unit in (("train_step", "ms"), ("adam_step", "ms"), ("softmax_ce", "ms"),
                       ("evaluate", "s"), ("split_arrays", "s"),
                       ("fit_normalization", "ms")):
        rows.append((f"optim_train.{name}_{unit}", f"optim_train.{name}", unit, False,
                     TRAINING))
    for name in ("load_model", "predict", "decide_alert", "emit_alert"):
        rows.append((f"infer_alert.{name}_ms", f"infer_alert.{name}", "ms", False,
                     WATCHING))
    # poll_once's self time excludes classify, decide_alert and emit_alert
    rows.append(("cli.poll_once_ms", "cli.poll_once", "ms", False, WATCHING))
    rows.append(("cli.scan_ms", "cli.poll_once", "ms", True, WATCHING))
    return rows


SPAN_METRICS = _span_metrics()
# values computed from each call's shapes (GFLOP, MB) or counted at the
# layer boundary, with the counter that must be non-zero where work is due
SHAPE_METRICS = [(f"tensor_nn.{conv}.{way}_{kind}", unit, ALL if way == "forward" else TRAINING)
                 for conv in ("conv1", "conv2") for way in ("forward", "backward")
                 for kind, unit in (("gflop", "GFLOP"), ("im2col_mb", "MB"))]
COUNT_METRICS = [("cli.files_classified", WATCHING), ("cli.files_skipped", WATCHING),
                 ("cli.events_emitted", WATCHING)]
RATIO_METRICS = [("wav_io.resample_useful_ratio", "bench.resample_kept",
                  "bench.resample_computed", WATCHING),
                 ("cli.scan_useful_ratio", "cli.files_classified", "bench.files_listed",
                  WATCHING)]

LIVE = []  # child processes not yet reaped


class Pass(NamedTuple):
    """One untraced or traced measurement of a workload."""

    metrics: dict        # END_TO_END name -> value, scaled to the nominal host
    raw: dict            # the same, as measured
    attempted: int
    failed: int
    ops: list            # raw throughput of each operation


def median(values):
    return float(statistics.median(values)) if values else 0.0


def p90(values):
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = 0.9 * (len(ordered) - 1)  # linear interpolation, as numpy's default
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def machine():
    """Cores, Python, numpy and BLAS; recorded, never changed."""
    import platform

    import numpy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    threads = {k: v for k, v in os.environ.items()
               if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"}
    return {"cores": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_thread_env": threads}


class HostSpeed:
    """The hostspeed.py helper; probe() -> seconds per reference-kernel call."""

    def __init__(self, kind):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "hostspeed.py"), kind],
                                     cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        LIVE.append(self.proc)
        self.nominal_s = hostspeed.NOMINAL_S[kind]
        self.probes = []

    def probe(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("hostspeed helper exited")
        self.probes.append(float(line))
        return self.probes[-1]

    def scale(self, before, after):
        """Factor from measured to nominal-host times, from the probes that
        bracket an operation."""
        return self.nominal_s / ((before + after) / 2.0)

    def close(self, deadline):
        self.proc.stdin.close()
        reap(self.proc, deadline)
        self.proc.stdout.close()


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def reap(proc, deadline):
    """Wait for a child until the deadline, then kill it -> (exit code, rusage)."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline:
            os.kill(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    LIVE.remove(proc)
    return proc.returncode, usage


# ---------------------------------------------------------------------------
# train_synth

def train_pass(corpus, work, seconds, traced, speed, deadline, tag):
    """Run train() children for `seconds` -> (per-op results, trace files)."""
    results, traces = [], []
    start = time.perf_counter()
    longest = 0.0
    last = speed.probe()
    while not results or (time.perf_counter() - start < seconds
                          and time.perf_counter() + 1.5 * longest < deadline):
        out = work / f"train_{tag}_{len(results)}.json"
        log = work / f"train_{tag}_{len(results)}.log"
        argv = [sys.executable, str(HERE / "train_child.py"), str(corpus),
                str(TRAIN_EPOCHS), str(TRAIN_SETUPS), "1" if traced else "0", str(out)]
        began = time.perf_counter()
        with open(log, "wb") as fh:
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                    stdin=subprocess.DEVNULL, stdout=fh, stderr=fh)
        LIVE.append(proc)
        code, usage = reap(proc, deadline)
        longest = max(longest, time.perf_counter() - began)
        now = speed.probe()
        result = json.loads(out.read_text()) if code == 0 and out.exists() else None
        if result is None:
            sys.stderr.write(f"train child failed ({code}):\n{log.read_text()[-2000:]}\n")
        else:
            result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
            result["scale"] = speed.scale(last, now)
            if traced:
                traces.append(str(out) + ".spans")
        results.append(result)
        last = now
    return results, traces


def train_metrics(results):
    ok = [r for r in results if r is not None and r["test_accuracy"] is not None]
    failed = len(results) - len(ok) + sum(r["test_accuracy"] < ACCURACY_BAR for r in ok)
    # the first step of each train() pays one-off start-up (BLAS threads,
    # first use of each layer's buffers) and runs about 1.7x the others;
    # a run of many epochs amortises it, and as 1 step in 10 it would be p90

    def figures(factor):
        steps_ms = [s * 1e3 * factor(r) for r in ok for s in r["step_s"][1:]]
        return {
            "setup_s": median([s * factor(r) for r in ok for s in r["setup_s"]]),
            "throughput_per_s": median([r["train_clips"] * r["epochs_run"]
                                        / (r["train_s"] * factor(r)) for r in ok]),
            "latency_p50_ms": median(steps_ms),
            "latency_p90_ms": p90(steps_ms),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in ok]),
            "accuracy": median([r["test_accuracy"] for r in ok]),
        }

    return Pass(figures(lambda r: r["scale"]), figures(lambda r: 1.0), len(results),
                failed, [r["train_clips"] * r["epochs_run"] / r["train_s"] for r in ok])


# ---------------------------------------------------------------------------
# watch workloads

class Watcher:
    """A `cryalert watch` child whose output lines are stamped on arrival."""

    def __init__(self, argv):
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                     stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE)
        LIVE.append(self.proc)
        self.selector = selectors.DefaultSelector()
        self.partial = {}
        for stream, tag in ((self.proc.stdout, "out"), (self.proc.stderr, "err")):
            os.set_blocking(stream.fileno(), False)
            self.selector.register(stream, selectors.EVENT_READ, tag)
            self.partial[tag] = b""

    def read(self, timeout):
        """Lines arriving within `timeout` s, as (time, "out"|"err", text)."""
        if not self.selector.get_map():
            time.sleep(max(timeout, 0.0))
            return []
        lines = []
        for key, _ in self.selector.select(max(timeout, 0.0)):
            now = time.perf_counter()
            try:
                chunk = os.read(key.fd, 1 << 16)
            except BlockingIOError:
                continue
            if not chunk:
                self.selector.unregister(key.fileobj)
                continue
            *done, self.partial[key.data] = (self.partial[key.data] + chunk).split(b"\n")
            lines += [(now, key.data, raw.decode("utf-8", "replace")) for raw in done]
        return lines

    def wait_ready(self, deadline, outcomes):
        """Read up to the `watching` line; return its arrival time or None."""
        while time.perf_counter() < deadline and self.selector.get_map():
            for stamp, tag, text in self.read(deadline - time.perf_counter()):
                if tag == "err" and "watching " in text:
                    return stamp
                outcomes.take([(stamp, tag, text)])
        return None

    def stop(self, sig, deadline):
        """Signal, read the last lines, reap -> (exit code, rusage, lines)."""
        os.kill(self.proc.pid, sig)  # not yet reaped, so the pid is still ours
        lines = []
        while self.selector.get_map() and time.perf_counter() < deadline:
            lines += self.read(0.1)  # both pipes reach EOF when the child exits
        code, usage = reap(self.proc, deadline)
        self.selector.close()
        self.proc.stdout.close()
        self.proc.stderr.close()
        return code, usage, lines


class Outcomes:
    """Events and skips per file name, with the time each line was read."""

    SKIP = "WARNING skipping "

    def __init__(self):
        self.events, self.skips, self.times, self.anomalies = {}, {}, [], []

    def take(self, lines):
        for stamp, tag, text in lines:
            if tag == "out":
                try:
                    event = json.loads(text)
                    name = Path(event["source"]).name
                    record = (stamp, event["predicted_label"], event["alert"])
                except (ValueError, KeyError, TypeError):
                    self.anomalies.append(text)
                    continue
                self.events.setdefault(name, []).append(record)
                self.times.append(stamp)
            elif text.startswith(self.SKIP):
                name = Path(text[len(self.SKIP):].partition(": ")[0]).name
                self.skips.setdefault(name, []).append(stamp)
                self.times.append(stamp)
            elif "watching " not in text:
                self.anomalies.append(text)

    def resolved(self):
        return len(self.events.keys() | self.skips.keys())


def watch_argv(model, directory, spans=None):
    args = ["watch", "--model", str(model), "--dir", str(directory),
            "--alert-classes", ",".join(inputs.ALERT_CLASSES),
            "--threshold", str(inputs.THRESHOLD),
            "--poll-ms", str(POLL_MS)]
    if spans is None:
        return [sys.executable, "-m", "cryalert.cli"] + args
    return [sys.executable, str(HERE / "watch_traced.py"), str(spans)] + args


def watch_once(files, watch_dir, model, ref, spans, deadline):
    """One watcher over the backlog -> its raw figures and failure count."""
    outcomes = Outcomes()
    watcher = Watcher(watch_argv(model, watch_dir, spans))
    try:
        ready = watcher.wait_ready(deadline, outcomes)
        drain_until = min(deadline, time.perf_counter() + 60.0)
        while (ready is not None and outcomes.resolved() < len(files)
               and time.perf_counter() < drain_until):
            outcomes.take(watcher.read(min(0.5, drain_until - time.perf_counter())))
    finally:
        code, usage, lines = watcher.stop(signal.SIGINT, deadline + 10.0)
    outcomes.take(lines)

    failed = len(outcomes.anomalies) + (code != 0) + (ready is None)
    for text in outcomes.anomalies:
        sys.stderr.write(f"unexpected watch output: {text}\n")
    right = 0
    for name, kind, label in files:
        events, skips = outcomes.events.get(name, []), outcomes.skips.get(name, [])
        if kind in inputs.INVALID:
            ok = len(skips) == 1 and not events
        else:
            ok = len(events) == 1 and not skips and events[0][1:] == ref[name]
            right += ok and events[0][1] == label
        failed += not ok
    times = sorted(outcomes.times)
    valid = sum(kind not in inputs.INVALID for _, kind, _ in files)
    return {
        "setup_s": None if ready is None else ready - watcher.spawned,
        "throughput_per_s": ((len(times) - 1) / (times[-1] - times[0])
                             if len(times) > 1 and times[-1] > times[0] else 0.0),
        "gaps_ms": [(b - a) * 1e3 for a, b in zip(times, times[1:])],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "accuracy": right / valid,
        "failed": failed,
    }


def burst_pass(files, watch_dir, model, ref, seconds, traced, speed, deadline, work):
    """Fresh watchers over the backlog for `seconds` -> (Pass, trace files)."""
    runs, traces = [], []
    start = time.perf_counter()
    longest = 0.0
    last = speed.probe()
    while not runs or (time.perf_counter() - start < seconds
                       and time.perf_counter() + 2.0 * longest < deadline):
        spans = work / f"burst_{len(runs)}.spans" if traced else None
        began = time.perf_counter()
        run = watch_once(files, watch_dir, model, ref, spans, deadline)
        longest = max(longest, time.perf_counter() - began)
        now = speed.probe()
        run["scale"] = speed.scale(last, now)
        last = now
        runs.append(run)
        if traced and spans.exists():
            traces.append(str(spans))

    def figures(factor):
        return {
            "setup_s": median([r["setup_s"] * factor(r) for r in runs
                               if r["setup_s"] is not None]),
            "throughput_per_s": median([r["throughput_per_s"] / factor(r) for r in runs]),
            "latency_p50_ms": median([median(r["gaps_ms"]) * factor(r) for r in runs]),
            "latency_p90_ms": median([p90(r["gaps_ms"]) * factor(r) for r in runs]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in runs]),
            "accuracy": median([r["accuracy"] for r in runs]),
        }

    return Pass(figures(lambda r: r["scale"]), figures(lambda r: 1.0),
                len(files) * len(runs), sum(r["failed"] for r in runs),
                [r["throughput_per_s"] for r in runs]), traces


def run_burst(seed, passes, speed, work, deadline):
    """Make the backlog and the model, then run each (traced, seconds) pass."""
    watch_dir = work / "watch"
    watch_dir.mkdir()
    model = work / "watch.cry"
    inputs.train_watch_model(work / "model_corpus", model)
    files = []
    for name, kind, label, data in inputs.wav_mix(seed, BURST_BACKLOG):
        (watch_dir / name).write_bytes(data)
        files.append((name, kind, label))
    ref = inputs.reference(model, [watch_dir / name for name, kind, _ in files
                                   if kind not in inputs.INVALID])
    inputs.settle(work)

    done, traces = [], []
    for traced, seconds in passes:
        result, found = burst_pass(files, watch_dir, model, ref, seconds, traced, speed,
                                   deadline, work)
        done.append(result)
        traces += found
    return done, traces


# ---------------------------------------------------------------------------
# per-layer metrics

def layer_metrics(workload, traces, overhead_pct):
    """Per-layer metrics from trace files, plus the self-test's complaints."""
    inclusive, self_ms, counts, values = spans.summarize(traces)
    metrics, wrong = {}, []

    def expect(name, active, due_on):
        if active != (workload in due_on):
            wrong.append(f"{name}: {'called' if active else 'not called'}")

    for metric, span, unit, use_self, due_on in SPAN_METRICS:
        samples = (self_ms if use_self else inclusive).get(span, [])
        to_unit = 1e-3 if unit == "s" else 1.0
        samples = [s * to_unit for s in samples]
        metrics[metric] = (median(samples), unit)
        metrics[metric + ".p90"] = (p90(samples), unit)
        metrics[metric + ".calls"] = (len(samples), "count")
        expect(metric, bool(samples), due_on)
    for metric, unit, due_on in SHAPE_METRICS:
        samples = values.get(metric, [])
        metrics[metric] = (median(samples), unit)
        expect(metric, bool(samples), due_on)
    for metric, due_on in COUNT_METRICS:
        metrics[metric] = (counts.get(metric, 0), "count")
        expect(metric, metric in counts, due_on)
    for metric, kept, computed, due_on in RATIO_METRICS:
        denominator = counts.get(computed, 0)
        metrics[metric] = (counts.get(kept, 0) / denominator if denominator else 0.0,
                           "ratio")
        expect(f"{metric} ({computed})", denominator > 0, due_on)
    metrics["bench.tracing_overhead_pct"] = (overhead_pct, "%")
    return metrics, wrong


def declared(kind):
    """Metric names BENCHMARK.json declares for 'end_to_end' or 'per_layer'."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    return {m["name"] for m in json.loads(path.read_text())[kind]}


# ---------------------------------------------------------------------------

def run(args, work):
    deadline = time.perf_counter() + BUDGET_S
    if args.trace:
        passes = [(False, args.seconds / 2.0), (True, args.seconds / 2.0)]
    else:
        passes = [(False, float(args.seconds))]

    speed = HostSpeed("training" if args.workload == TRAIN else "per_file")
    if args.workload == TRAIN:
        corpus = work / "corpus"
        inputs.corpus(corpus, args.seed, per_class=200)
        inputs.settle(work)
        done, traces = [], []
        for traced, seconds in passes:
            results, found = train_pass(corpus, work, seconds, traced, speed, deadline,
                                        "traced" if traced else "plain")
            done.append(train_metrics(results))
            traces += found
    else:
        done, traces = run_burst(args.seed, passes, speed, work, deadline)
    speed.close(deadline)

    attempted = sum(p.attempted for p in done)
    failed = sum(p.failed for p in done)
    plain = done[0].metrics
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "machine": machine(), "end_to_end": plain, "end_to_end_raw": done[0].raw,
              "ops_raw": done[0].ops,
              "host_speed": {"nominal_s": speed.nominal_s, "probes_s": speed.probes},
              "named": {name: {"value": plain[key], "unit": unit}
                        for name, (key, unit) in WORKLOAD_NAMES[args.workload].items()}}
    if args.trace:
        traced = done[1].metrics
        key = "throughput_per_s"
        overhead = (plain[key] / traced[key] - 1.0) * 100.0 if traced[key] else 0.0
        layers, wrong = layer_metrics(args.workload, traces, overhead)
        report["end_to_end_traced"] = traced
        report["end_to_end_traced_raw"] = done[1].raw
        report["self_test"] = wrong or "ok"
        for complaint in wrong:
            sys.stderr.write(f"self-test: {complaint}\n")
        failed += len(wrong)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        kind = "per_layer"
    else:
        metrics = {name: {"value": plain[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        kind = "end_to_end"

    names = declared(kind)
    if names is not None and names != set(metrics):
        sys.stderr.write(f"BENCHMARK.json {kind} names differ from the metrics measured: "
                         f"{sorted(names ^ set(metrics))}\n")
        return 1
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "cryalert" / "__init__.py").is_file():
        sys.stderr.write(f"error: {SRC / 'cryalert'} not found; run from the root of a "
                         "cryalert checkout\n")
        return 2

    sys.path.insert(0, str(SRC))
    global inputs, spans  # both import cryalert, which lives under SRC
    import inputs
    import spans

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        return run(args, work)
    finally:
        for proc in list(LIVE):
            os.kill(proc.pid, signal.SIGKILL)
            reap(proc, 0.0)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
