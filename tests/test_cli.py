import argparse
import io
import json
import logging
import os
import select
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from cryalert.cli import DirectoryWatcher, build_parser, main
from cryalert.errors import FormatError
from cryalert.infer_alert import StdoutSink, save_model
from cryalert.spectro import StftConfig
from cryalert.synth import CLASSES
from cryalert.tensor_nn import build_network

from conftest import make_wav_bytes, read_model_header, rewrite_model_header


class TestSynthCommand:
    def test_writes_corpus(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path / "c"), "--per-class", "2"])
        assert rc == 0
        assert "wrote 8 clips" in capsys.readouterr().out
        for kind in CLASSES:
            assert len(list((tmp_path / "c" / kind).glob("*.wav"))) == 2

    def test_env_seed_used(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CRYALERT_SEED", "21")
        main(["synth", "--out", str(tmp_path / "env"), "--per-class", "1"])
        monkeypatch.delenv("CRYALERT_SEED")
        main(["synth", "--out", str(tmp_path / "flag"), "--per-class", "1", "--seed", "21"])
        main(["synth", "--out", str(tmp_path / "default"), "--per-class", "1"])
        env_bytes = (tmp_path / "env" / "tone" / "tone_0000.wav").read_bytes()
        flag_bytes = (tmp_path / "flag" / "tone" / "tone_0000.wav").read_bytes()
        default_bytes = (tmp_path / "default" / "tone" / "tone_0000.wav").read_bytes()
        assert env_bytes == flag_bytes
        assert env_bytes != default_bytes

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CRYALERT_SEED", "21")
        main(["synth", "--out", str(tmp_path / "a"), "--per-class", "1", "--seed", "5"])
        monkeypatch.delenv("CRYALERT_SEED")
        main(["synth", "--out", str(tmp_path / "b"), "--per-class", "1", "--seed", "5"])
        assert (tmp_path / "a" / "am" / "am_0000.wav").read_bytes() == \
               (tmp_path / "b" / "am" / "am_0000.wav").read_bytes()

    def test_bad_env_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CRYALERT_SEED", "many")
        rc = main(["synth", "--out", str(tmp_path / "x"), "--per-class", "1"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestTrainCommand:
    def test_full_run(self, trained):
        rc, model_path, report, _elapsed = trained
        assert rc == 0
        assert model_path.exists()
        assert report is not None
        assert report["epochs"] == 10
        assert len(report["val_loss"]) == 10

    def test_usage_errors(self, capsys):
        assert main([]) == 2
        assert main(["train"]) == 2  # missing required flags
        train = ["train", "--data", "x", "--out", "y"]
        watch = ["watch", "--model", "m", "--dir", "."]
        for argv in [
            train + ["--lr", "-1"],
            train + ["--epochs", "0"],
            train + ["--split", "1,1"],
            train + ["--lr", "nan"],
            train + ["--lr", "inf"],
            train + ["--split", "0.5,nan,0.5"],
            train + ["--split", "0.5,x,0.5"],
            watch + ["--cooldown", "nan"],
            watch + ["--cooldown", "inf"],
            watch + ["--threshold", "nan"],
            watch + ["--poll-ms", "3600001"],
            watch + ["--poll-ms", "100000000000000000000"],
            watch + ["--poll-ms", "9" * 400],
        ]:
            capsys.readouterr()
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert err.splitlines()[-1].startswith(f"cryalert {argv[0]}: error: argument")

    def test_missing_data_dir(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "m.cry")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestEvalCommand:
    def test_scores_split(self, trained, synth_corpus, capsys):
        _, model_path, _, _ = trained
        rc = main(["eval", "--model", str(model_path), "--data", str(synth_corpus),
                   "--split", "test"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("test loss: ")
        assert lines[1].startswith("test accuracy: ")
        # four-decimal rendering
        assert len(lines[1].split(".")[-1]) == 4

    def test_confusion_flag(self, trained, synth_corpus, capsys):
        _, model_path, _, _ = trained
        rc = main(["eval", "--model", str(model_path), "--data", str(synth_corpus),
                   "--split", "val", "--confusion"])
        out = capsys.readouterr().out
        assert rc == 0
        for kind in CLASSES:
            assert kind in out

    def test_class_mismatch(self, trained, tmp_path, capsys):
        _, model_path, _, _ = trained
        rc = main(["synth", "--out", str(tmp_path / "c"), "--per-class", "1"])
        assert rc == 0
        capsys.readouterr()
        shutil.move(tmp_path / "c" / "tone", tmp_path / "c" / "zway")
        rc = main(["eval", "--model", str(model_path), "--data", str(tmp_path / "c")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "tone" in err and "zway" in err

    def test_missing_model(self, synth_corpus, tmp_path, capsys):
        rc = main(["eval", "--model", str(tmp_path / "no.cry"),
                   "--data", str(synth_corpus)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestPredictCommand:
    def test_table_sorted_descending(self, trained, small_corpus, capsys):
        _, model_path, _, _ = trained
        wav = next((small_corpus / "tone").glob("*.wav"))
        rc = main(["predict", "--model", str(model_path), "--input", str(wav)])
        out = capsys.readouterr().out
        assert rc == 0
        probs = [float(line.split(": ")[1]) for line in out.strip().splitlines()]
        assert len(probs) == 4
        assert probs == sorted(probs, reverse=True)

    def test_json_output(self, trained, small_corpus, capsys):
        _, model_path, _, _ = trained
        wav = next((small_corpus / "am").glob("*.wav"))
        rc = main(["predict", "--model", str(model_path), "--input", str(wav),
                   "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        parsed = json.loads(out)
        assert sorted(parsed) == sorted(CLASSES)
        assert abs(sum(parsed.values()) - 1.0) < 1e-9

    def test_short_input(self, trained, tmp_path, capsys):
        _, model_path, _, _ = trained
        wav = tmp_path / "tiny.wav"
        wav.write_bytes(make_wav_bytes([0] * 100))
        rc = main(["predict", "--model", str(model_path), "--input", str(wav)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_input(self, trained, tmp_path, capsys):
        _, model_path, _, _ = trained
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not audio at all")
        rc = main(["predict", "--model", str(model_path), "--input", str(bad)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def untrained_model(tmp_path_factory):
    """A freshly initialised default model: cheap, and loads like any other."""
    path = tmp_path_factory.mktemp("untrained") / "m.cry"
    save_model(build_network(len(CLASSES), seed=0), StftConfig(), sorted(CLASSES), path)
    return path


class TestCorruptModelHeader:
    @pytest.mark.parametrize("header", [
        {},
        [],
        "model",
        {"architecture": {"class_count": "four"}},
    ], ids=["empty-object", "empty-list", "string", "wrong-types"])
    def test_predict_exits_one_with_one_line(self, untrained_model, small_corpus,
                                             tmp_path, capsys, header):
        bad = rewrite_model_header(untrained_model, tmp_path / "bad.cry", header)
        wav = next((small_corpus / "tone").glob("*.wav"))
        rc = main(["predict", "--model", str(bad), "--input", str(wav)])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error:")

    def test_wrong_typed_field_in_valid_header(self, untrained_model, small_corpus,
                                               tmp_path, capsys):
        header = read_model_header(untrained_model)
        header["param_shapes"][0] = "3x3x1x32"
        bad = rewrite_model_header(untrained_model, tmp_path / "bad.cry", header)
        wav = next((small_corpus / "tone").glob("*.wav"))
        rc = main(["predict", "--model", str(bad), "--input", str(wav)])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.strip().splitlines()) == 1
        assert "param_shapes" in err


    @pytest.mark.parametrize("key, value", [
        ("norm_variance", float("nan")), ("norm_mean", float("inf")),
    ])
    def test_non_finite_norm_stat(self, untrained_model, small_corpus, tmp_path,
                                  capsys, key, value):
        header = read_model_header(untrained_model)
        header[key] = value  # written as NaN / Infinity, which json reads back
        bad = rewrite_model_header(untrained_model, tmp_path / "bad.cry", header)
        wav = next((small_corpus / "tone").glob("*.wav"))
        rc = main(["predict", "--model", str(bad), "--input", str(wav)])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error:") and "describes no valid model" in err


class TestSpectrogramCommand:
    def test_pgm_export(self, small_corpus, tmp_path, capsys):
        wav = next((small_corpus / "chirp").glob("*.wav"))
        out = tmp_path / "spec.pgm"
        rc = main(["spectrogram", "--input", str(wav), "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "124 x 129"
        assert out.read_bytes().startswith(b"P5\n129 124\n255\n")

    def test_csv_export(self, small_corpus, tmp_path):
        wav = next((small_corpus / "noise").glob("*.wav"))
        out = tmp_path / "spec.csv"
        rc = main(["spectrogram", "--input", str(wav), "--out", str(out)])
        assert rc == 0
        grid = np.loadtxt(out, delimiter=",")
        assert grid.shape == (124, 129)

    def test_unknown_extension(self, small_corpus, tmp_path, capsys):
        wav = next((small_corpus / "tone").glob("*.wav"))
        rc = main(["spectrogram", "--input", str(wav),
                   "--out", str(tmp_path / "spec.png")])
        capsys.readouterr()
        assert rc == 2


class TestWatchUsage:
    def test_threshold_validated(self, tmp_path, capsys):
        rc = main(["watch", "--model", "m", "--dir", str(tmp_path),
                   "--threshold", "1.5"])
        capsys.readouterr()
        assert rc == 2

    def test_missing_dir(self, trained, tmp_path, capsys):
        _, model_path, _, _ = trained
        rc = main(["watch", "--model", str(model_path),
                   "--dir", str(tmp_path / "nope")])
        assert rc == 1
        assert "does not exist" in capsys.readouterr().err

    def test_unknown_alert_class(self, trained, tmp_path, capsys):
        _, model_path, _, _ = trained
        rc = main(["watch", "--model", str(model_path), "--dir", str(tmp_path),
                   "--alert-classes", "ghost"])
        assert rc == 1
        assert "ghost" in capsys.readouterr().err


def tone_probs(_path):
    return {"am": 0.02, "chirp": 0.02, "noise": 0.01, "tone": 0.95}


def make_watcher(directory, classify=tone_probs, threshold=0.5, cooldown=0.0,
                 clock=None, alert_classes=("tone",)):
    buf = io.StringIO()
    kwargs = {"cooldown": cooldown}
    if clock is not None:
        kwargs["clock"] = clock
    watcher = DirectoryWatcher(directory, classify, [StdoutSink(buf)],
                               alert_classes, threshold, **kwargs)
    return watcher, buf


def drop_wav(directory, name, samples=None):
    path = directory / name
    path.write_bytes(make_wav_bytes(samples if samples is not None else [0] * 400))
    return path


class TestDirectoryWatcher:
    def test_needs_two_stable_polls(self, tmp_path):
        watcher, buf = make_watcher(tmp_path)
        drop_wav(tmp_path, "one.wav")
        assert watcher.poll_once() == []
        events = watcher.poll_once()
        assert len(events) == 1
        assert events[0].alert is True
        assert events[0].predicted_label == "tone"
        line = buf.getvalue().strip()
        assert json.loads(line)["source"].endswith("one.wav")

    def test_never_processes_twice(self, tmp_path):
        watcher, _ = make_watcher(tmp_path)
        drop_wav(tmp_path, "one.wav")
        watcher.poll_once()
        assert len(watcher.poll_once()) == 1
        assert watcher.poll_once() == []
        assert watcher.poll_once() == []

    def test_growing_file_deferred(self, tmp_path):
        watcher, _ = make_watcher(tmp_path)
        path = drop_wav(tmp_path, "grow.wav", [0] * 100)
        assert watcher.poll_once() == []
        path.write_bytes(make_wav_bytes([0] * 400))  # changed size
        assert watcher.poll_once() == []
        assert len(watcher.poll_once()) == 1

    def test_malformed_file_skipped_and_logged(self, tmp_path, caplog):
        def classify(path):
            raise FormatError(f"{path}: no RIFF header")

        watcher, buf = make_watcher(tmp_path, classify=classify)
        (tmp_path / "bad.wav").write_bytes(b"garbage")
        watcher.poll_once()
        with caplog.at_level(logging.WARNING, logger="cryalert"):
            assert watcher.poll_once() == []
        assert any("skipping" in r.message for r in caplog.records)
        assert buf.getvalue() == ""
        # a failed file is not retried either
        assert watcher.poll_once() == []

    def test_non_alert_events_still_emitted(self, tmp_path):
        watcher, buf = make_watcher(
            tmp_path, classify=lambda p: {"tone": 0.2, "noise": 0.8},
            alert_classes=("tone",))
        drop_wav(tmp_path, "calm.wav")
        watcher.poll_once()
        events = watcher.poll_once()
        assert len(events) == 1
        assert events[0].alert is False
        assert json.loads(buf.getvalue())["alert"] is False

    def test_cooldown_suppresses_repeat_alerts(self, tmp_path):
        fake = [1000.0]
        watcher, buf = make_watcher(tmp_path, cooldown=30.0,
                                    clock=lambda: fake[0])
        drop_wav(tmp_path, "a.wav")
        drop_wav(tmp_path, "b.wav")
        watcher.poll_once()
        events = watcher.poll_once()
        # both files are ready but only the first alert escapes
        assert len(events) == 1
        assert len(buf.getvalue().strip().splitlines()) == 1

        fake[0] += 31.0
        drop_wav(tmp_path, "c.wav")
        watcher.poll_once()
        assert len(watcher.poll_once()) == 1

    def test_zero_cooldown_never_suppresses(self, tmp_path):
        watcher, buf = make_watcher(tmp_path, cooldown=0.0)
        drop_wav(tmp_path, "a.wav")
        drop_wav(tmp_path, "b.wav")
        watcher.poll_once()
        assert len(watcher.poll_once()) == 2
        assert len(buf.getvalue().strip().splitlines()) == 2

    def test_recreated_file_classified_again(self, tmp_path):
        fake = [1000.0]
        watcher, buf = make_watcher(tmp_path, clock=lambda: fake[0])
        path = drop_wav(tmp_path, "one.wav")
        watcher.poll_once()
        assert len(watcher.poll_once()) == 1
        # deleted and written again between two polls, same name and size;
        # the mtime is moved on explicitly, since a filesystem with coarse
        # timestamps could give the new file the old one's
        path.unlink()
        drop_wav(tmp_path, "one.wav")
        stat = path.stat()
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000_000))
        fake[0] += 1.0
        assert watcher.poll_once() == []  # not yet stable
        assert len(watcher.poll_once()) == 1
        assert len(buf.getvalue().strip().splitlines()) == 2

    def test_processed_forgets_files_that_are_gone(self, tmp_path):
        watcher, _ = make_watcher(tmp_path)
        paths = [drop_wav(tmp_path, f"{i}.wav") for i in range(3)]
        watcher.poll_once()
        assert len(watcher.poll_once()) == 3
        for path in paths[:2]:
            path.unlink()
        watcher.poll_once()
        assert list(watcher._processed) == [paths[2]]
        # a file gone while unseen is classified again when it returns
        drop_wav(tmp_path, "0.wav")
        watcher.poll_once()
        assert [e.source for e in watcher.poll_once()] == [str(paths[0])]

    def test_unexpected_classify_error_skipped_and_logged(self, tmp_path, caplog):
        def classify(path):
            if path.name == "a.wav":
                raise ValueError("bad internal state")
            return tone_probs(path)

        watcher, buf = make_watcher(tmp_path, classify=classify)
        drop_wav(tmp_path, "a.wav")
        drop_wav(tmp_path, "b.wav")
        watcher.poll_once()
        with caplog.at_level(logging.WARNING, logger="cryalert"):
            events = watcher.poll_once()
        assert [e.source for e in events] == [str(tmp_path / "b.wav")]
        skips = [r.getMessage() for r in caplog.records if "skipping" in r.getMessage()]
        assert len(skips) == 1
        assert "a.wav" in skips[0] and "ValueError" in skips[0]
        assert len(buf.getvalue().strip().splitlines()) == 1

    def test_special_files_skipped_without_classify(self, tmp_path, caplog):
        # reading a FIFO blocks and reading /dev/zero never ends; the stub
        # only records, so a regression fails here instead of hanging
        os.mkfifo(tmp_path / "fifo.wav")
        (tmp_path / "zero.wav").symlink_to("/dev/zero")
        drop_wav(tmp_path, "real.wav")
        seen = []

        def classify(path):
            seen.append(path.name)
            return tone_probs(path)

        watcher, _ = make_watcher(tmp_path, classify=classify)
        with caplog.at_level(logging.WARNING, logger="cryalert"):
            events = [e for _ in range(3) for e in watcher.poll_once()]
        assert seen == ["real.wav"]
        assert [e.source for e in events] == [str(tmp_path / "real.wav")]
        skips = sorted(r.getMessage() for r in caplog.records)
        assert skips == [f"skipping {tmp_path / name}: not a regular file"
                         for name in ("fifo.wav", "zero.wav")]

    @pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
    def test_interrupt_from_classify_propagates(self, tmp_path, exc):
        def classify(path):
            raise exc()

        watcher, _ = make_watcher(tmp_path, classify=classify)
        drop_wav(tmp_path, "a.wav")
        watcher.poll_once()
        with pytest.raises(exc):
            watcher.poll_once()

    def test_run_exits_on_stop_flag(self, tmp_path):
        watcher, _ = make_watcher(tmp_path)
        timer = threading.Timer(0.3, lambda: setattr(watcher, "stop", True))
        timer.start()
        watcher.run(0.01)  # returns once the flag is seen
        timer.cancel()
        assert watcher.stop


SRC = Path(__file__).resolve().parents[1] / "src"


def _watch_until_signal(model, directory, sig):
    """Run `cryalert watch` in a child, send sig once it has emitted one
    event, and return (exit code, stdout, stderr) with the directory
    written as DIR and the event timestamps blanked."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cryalert.cli", "watch", "--model", str(model),
         "--dir", str(directory), "--poll-ms", "50", "--alert-classes", "tone"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        # the event is written after run() installed its handlers
        ready, _, _ = select.select([proc.stdout], [], [], 60)
        assert ready, "watcher emitted no event within 60 s"
        first = proc.stdout.readline()
        proc.send_signal(sig)
        rest, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    events = [json.loads(line) | {"timestamp": ""} for line in (first + rest).splitlines()]
    return (proc.returncode, json.dumps(events).replace(str(directory), "DIR"),
            err.replace(str(directory), "DIR"))


class TestWatchSignals:
    def test_sigterm_stops_like_sigint(self, untrained_model, tmp_path):
        results = []
        for sig in (signal.SIGINT, signal.SIGTERM):
            directory = tmp_path / sig.name
            directory.mkdir()
            drop_wav(directory, "clip.wav", [0] * 16000)
            results.append(_watch_until_signal(untrained_model, directory, sig))

        code, events, err = results[0]
        assert code == 0
        assert len(json.loads(events)) == 1
        assert "Traceback" not in err
        assert results[1] == results[0]


def _typed_flags():
    """(command, option) for every subcommand flag that parses its value."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(name, action.option_strings[0])
            for name, command in sub.choices.items()
            for action in command._actions if action.type is not None]


class TestNumericFlags:
    def test_walk_finds_the_numeric_flags(self):
        flags = _typed_flags()
        assert {("train", "--lr"), ("watch", "--cooldown"), ("watch", "--poll-ms"),
                ("eval", "--split-ratios"), ("synth", "--seed")} <= set(flags)

    @pytest.mark.parametrize("command, option", _typed_flags(),
                             ids=lambda v: v.lstrip("-"))
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_value_is_usage_error(self, command, option, value, capsys):
        rc = main([command, option, value])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(f"cryalert {command}: error: argument {option}")


class TestMainPlumbing:
    def test_unknown_command(self, capsys):
        rc = main(["frobnicate"])
        capsys.readouterr()
        assert rc == 2

    def test_help_exits_zero(self, capsys):
        rc = main(["--help"])
        capsys.readouterr()
        assert rc == 0


# perfbench/spans.py wraps package functions and layers by name from
# outside the package; run its hooks so a rename or deletion under src/
# fails here and not only in a benchmark run
_INSTRUMENT = """
import json, sys
from pathlib import Path
sys.path[:0] = sys.argv[1:]
import numpy as np
import spans
from cryalert import infer_alert, optim_train, tensor_nn, wav_io
from cryalert.spectro import StftConfig
from cryalert.wav_io import AudioClip
tracer = spans.Tracer()
spans.instrument(tracer)
net = tensor_nn.build_network(3, input_shape=(16, 18, 1), resize=(8, 8),
                              conv_filters=(2, 2), dense_units=4)
logits, cache = net.forward(np.zeros((2, 16, 18, 1), np.float32), train=True)
net.backward(cache, np.zeros_like(logits))
infer_alert.predict(tensor_nn.build_network(3), StftConfig(),
                    AudioClip(np.zeros(48000), 48000), ["a", "b", "c"])
for name, rate in (("a", 48000), ("b", 16000)):
    Path("corpus", name).mkdir(parents=True)
    wav_io.write_wav(AudioClip(np.zeros(rate), rate), Path("corpus", name, "x.wav"))
dataset = wav_io.load_dataset("corpus")
optim_train.split_arrays(dataset, "train", StftConfig(), np.float32)
print(json.dumps([[span[0], span[3]] for span in tracer.spans]))
"""


def _has_ancestor(spans, name, ancestor):
    """Whether some span called name runs inside a span called ancestor."""
    for span_name, parent in spans:
        if span_name != name:
            continue
        while parent >= 0:
            if spans[parent][0] == ancestor:
                return True
            parent = spans[parent][1]
    return False


class TestBenchmarkHooks:
    def test_span_tracer_installs(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", _INSTRUMENT, str(root / "src"), str(root / "perfbench")],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        # predict, load_dataset and split_arrays must reach resample and the
        # STFT through the bindings the tracer replaced, or a benchmark run
        # sees no spans for them
        spans = json.loads(proc.stdout)
        assert {"infer_alert.predict", "wav_io.resample", "spectro.stft"} <= {s[0] for s in spans}
        assert _has_ancestor(spans, "wav_io.resample", "infer_alert.predict")
        assert _has_ancestor(spans, "wav_io.resample", "wav_io.load_dataset")
        assert _has_ancestor(spans, "spectro.stft", "optim_train.split_arrays")
