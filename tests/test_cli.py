import _thread
import argparse
import importlib.util
import io
import json
import logging
import os
import resource
import shutil
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from cryalert import infer_alert
from cryalert.cli import DirectoryWatcher, build_parser, main
from cryalert.errors import CorruptModelError, FormatError
from cryalert.infer_alert import StdoutSink, load_model, save_model
from cryalert.spectro import (
    FRAME_LENGTH,
    FRAME_STEP,
    NUM_BINS,
    StftConfig,
    _dft_basis,
    export_spectrogram,
)
from cryalert.synth import CLASSES, generate_corpus
from cryalert.tensor_nn import build_network
from cryalert.wav_io import load_dataset, load_wav

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
            train + ["--lr", "nan"],
            train + ["--lr", "inf"],
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
        # the split has one owner: train's default ratios and the model's seed
        evaluate = ["eval", "--model", "m", "--data", "x"]
        for argv in [train + ["--split", "0.8,0.1,0.1"], evaluate + ["--seed", "5"],
                     evaluate + ["--split-ratios", "0.8,0.1,0.1"]]:
            capsys.readouterr()
            assert main(argv) == 2, argv
            assert "error: unrecognized arguments: " in capsys.readouterr().err

    def test_divergent_training_saves_no_model(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "m.cry"
        rc = main(["train", "--data", str(small_corpus), "--out", str(out),
                   "--epochs", "1", "--batch", "8", "--lr", "1e30"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.splitlines()[-1].startswith("error:") and "non-finite" in err
        assert not out.exists()

    def test_divergent_training_stops_with_a_report(self, small_corpus, tmp_path):
        # a child, so that numpy's warnings would reach its stderr
        out = tmp_path / "m.cry"
        proc = _bounded_cli(["train", "--data", str(small_corpus), "--out", str(out),
                             "--epochs", "4", "--batch", "8", "--lr", "1e30"])
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "error: not saving a network with non-finite parameters"]
        assert not out.exists()

        def refuse(name):
            raise AssertionError(f"{name} in the report")

        report = json.loads(Path(str(out) + ".report.json").read_text(),
                            parse_constant=refuse)
        assert report["epochs"] == 1 and report["train_loss"] == [None]

    def test_failed_model_write_keeps_the_old_model(self, untrained_model, small_corpus,
                                                    tmp_path):
        # the child may write files of at most 1 MiB, so the 6.5 MB model
        # fails part way; a write in place would leave a truncated file
        out = tmp_path / "m.cry"
        shutil.copyfile(untrained_model, out)

        def small_files():
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
            resource.setrlimit(resource.RLIMIT_FSIZE, (2 ** 20, hard))

        proc = subprocess.run(
            [sys.executable, "-m", "cryalert.cli", "train", "--data", str(small_corpus),
             "--out", str(out), "--epochs", "1", "--batch", "8"],
            env=_child_env(), capture_output=True, text=True, timeout=60,
            preexec_fn=small_files)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
        assert out.read_bytes() == untrained_model.read_bytes()
        kept, before = load_model(out), load_model(untrained_model)
        for p, q in zip(kept.network.parameters(), before.network.parameters()):
            assert p.tobytes() == q.tobytes()
        # the report, written first, fits; no temporary file is left
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.cry", "m.cry.report.json"]

    def test_fifo_in_corpus(self, tmp_path):
        main(["synth", "--out", str(tmp_path / "c"), "--per-class", "1"])
        os.mkfifo(tmp_path / "c" / "tone" / "fifo.wav")
        proc = _bounded_cli(["train", "--data", str(tmp_path / "c"),
                             "--out", str(tmp_path / "m.cry")])
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"error: {tmp_path / 'c' / 'tone' / 'fifo.wav'}: not a regular file"]

    def test_unsupported_rate_in_corpus(self, tmp_path):
        main(["synth", "--out", str(tmp_path / "c"), "--per-class", "1"])
        bad = tmp_path / "c" / "tone" / "cd.wav"
        bad.write_bytes(make_wav_bytes([0] * 4410, rate=44100))
        proc = _bounded_cli(["train", "--data", str(tmp_path / "c"),
                             "--out", str(tmp_path / "m.cry")])
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"error: {bad}: cannot resample 44100 Hz to 16000 Hz: not an integer decimation"]

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

    @pytest.mark.parametrize("train_env, eval_env",
                             [(None, None), ("21", None), (None, "21")],
                             ids=["no-env", "env-at-train", "env-at-eval"])
    def test_scores_what_train_held_out(self, small_corpus, tmp_path, capsys, monkeypatch,
                                        train_env, eval_env):
        # CRYALERT_SEED picks train's seed, which the model stores; eval
        # must split with that seed, or test clips were trained on
        def run(env, *argv):
            if env is None:
                monkeypatch.delenv("CRYALERT_SEED", raising=False)
            else:
                monkeypatch.setenv("CRYALERT_SEED", env)
            assert main(list(argv)) == 0
            return capsys.readouterr().out

        model = tmp_path / "m.cry"
        run(train_env, "train", "--data", str(small_corpus), "--out", str(model),
            "--epochs", "1", "--batch", "8")
        report = json.loads(Path(str(model) + ".report.json").read_text())
        out = run(eval_env, "eval", "--model", str(model), "--data", str(small_corpus),
                  "--split", "test")
        assert out == (f"test loss: {report['test_loss']:.4f}\n"
                       f"test accuracy: {report['test_accuracy']:.4f}\n")

    def test_non_finite_outputs_are_an_error(self, overflowing_model, small_corpus):
        # the model loads, since its weights are finite, but a nan loss and an
        # accuracy taken from NaN logits must not pass for a score, nor print
        # numpy warnings
        proc = _bounded_cli(["eval", "--model", str(overflowing_model),
                             "--data", str(small_corpus)])
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith(f"error: {overflowing_model}: ")
        assert "nan" not in proc.stdout.lower()

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

    def test_endless_model_file(self, small_corpus, tmp_path, capsys):
        # load_model reads only regular files, so /dev/zero is not read
        # until memory runs out
        link = tmp_path / "zero.cry"
        link.symlink_to("/dev/zero")
        wav = next((small_corpus / "tone").glob("*.wav"))
        rc = main(["predict", "--model", str(link), "--input", str(wav)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: {link}: not a regular file\n"

    @pytest.mark.parametrize("kind", ["fifo", "sparse", "huge-header"])
    def test_hostile_model_file(self, small_corpus, tmp_path, kind):
        # a plain open of a FIFO blocks; a sparse file claims more than
        # the child's 1 GiB may read
        model = tmp_path / "m.cry"
        if kind == "fifo":
            os.mkfifo(model)
        else:
            header_len = 100 if kind == "sparse" else 2 ** 32 - 1
            with open(model, "wb") as fh:
                fh.write(b"CRYA" + struct.pack("<II", 1, header_len))
                fh.truncate(3 * 2 ** 29 if kind == "sparse" else 2 ** 32 + 16)
        wav = next((small_corpus / "tone").glob("*.wav"))
        proc = _bounded_cli(["predict", "--model", str(model), "--input", str(wav)])
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith(f"error: {model}: ")

    @pytest.mark.parametrize("kind", ["fifo", "zero"])
    def test_non_regular_input(self, untrained_model, tmp_path, kind):
        # a plain open of a FIFO blocks and /dev/zero never ends
        wav = tmp_path / "x.wav"
        if kind == "fifo":
            os.mkfifo(wav)
        else:
            wav.symlink_to("/dev/zero")
        proc = _bounded_cli(["predict", "--model", str(untrained_model), "--input", str(wav)])
        assert proc.returncode == 1
        assert proc.stderr == f"error: {wav}: not a regular file\n"

    def test_malformed_input(self, trained, tmp_path, capsys):
        _, model_path, _, _ = trained
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not audio at all")
        rc = main(["predict", "--model", str(model_path), "--input", str(bad)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    def test_non_finite_logits_are_an_error(self, overflowing_model, tmp_path):
        # the model loads, since its weights are finite, but it must not print
        # NaN probabilities (not JSON) or numpy warnings
        wav = tone_wav(tmp_path / "tone.wav")
        proc = _bounded_cli(["predict", "--model", str(overflowing_model),
                             "--input", str(wav), "--json"])
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")
        assert "NaN" not in proc.stdout


@pytest.fixture(scope="module")
def untrained_model(tmp_path_factory):
    """A freshly initialised default model: cheap, and loads like any other."""
    path = tmp_path_factory.mktemp("untrained") / "m.cry"
    save_model(build_network(len(CLASSES), seed=0), StftConfig(), sorted(CLASSES), path)
    return path


@pytest.fixture(scope="module")
def overflowing_model(tmp_path_factory):
    """A model whose finite dense2 weights of +-3e38 overflow its logits."""
    net = build_network(len(CLASSES), seed=0)
    weights = net.parameters()[-2]
    weights[...] = np.where(np.arange(weights.size).reshape(weights.shape) % 2, 3e38, -3e38)
    path = tmp_path_factory.mktemp("overflowing") / "m.cry"
    save_model(net, StftConfig(), sorted(CLASSES), path)
    return path


def tone_wav(path):
    """Write 1 s of a 1 kHz tone at 16 kHz, which the overflowing model cannot score."""
    tone = np.rint(8000 * np.sin(2 * np.pi * 1000 * np.arange(16000) / 16000))
    path.write_bytes(make_wav_bytes(tone))
    return path


class TestCorruptModelHeader:
    @pytest.mark.parametrize("header", [
        {},
        [],
        "model",
        {"architecture": {"resize": "four"}},
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
        header["norm_variance"] = "0.5"
        bad = rewrite_model_header(untrained_model, tmp_path / "bad.cry", header)
        wav = next((small_corpus / "tone").glob("*.wav"))
        rc = main(["predict", "--model", str(bad), "--input", str(wav)])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.strip().splitlines()) == 1
        assert "header field norm_variance" in err

    @pytest.mark.parametrize("fields, named", [
        ({"stft": {"frame_length": 255, "frame_step": 128, "fft_length": 256,
                   "window": "hann"}}, "stft"),
        ({"architecture": {"resize": [32, 32], "conv_filters": [32, 64],
                           "dense_units": 128}}, "architecture"),
        ({"param_shapes": [[3, 3, 1, 32], [32]]}, "param_shapes"),
        ({"input_shape": [124, 129, 1]}, "input_shape"),
        ({"notes": "made up"}, "notes"),
        ({"stft": {}, "architecture": {}}, "architecture, stft"),
    ], ids=["stft", "architecture", "param_shapes", "input_shape", "made-up", "two"])
    def test_field_save_model_does_not_write_is_refused(
            self, untrained_model, small_corpus, tmp_path, capsys, monkeypatch, fields, named):
        # older files' stft and architecture hold the fixed values, and
        # still must be retrained: no field is ignored, none half-read
        header = {**read_model_header(untrained_model), **fields}
        bad = rewrite_model_header(untrained_model, tmp_path / "bad.cry", header)
        built = []
        monkeypatch.setattr(infer_alert, "build_network", lambda *a, **k: built.append(a))
        with pytest.raises(CorruptModelError, match=f"unknown header field {named};"):
            load_model(bad)
        wav = next((small_corpus / "tone").glob("*.wav"))
        rc = main(["predict", "--model", str(bad), "--input", str(wav)])
        assert rc == 1 and built == []
        assert capsys.readouterr().err == f"error: {bad}: unknown header field {named}; retrain\n"


    @pytest.mark.parametrize("key, value", [
        ("norm_variance", float("nan")), ("norm_mean", float("inf")),
        # JSON integers too large for a float
        pytest.param("norm_mean", 10 ** 400, id="norm_mean-huge-int"),
        pytest.param("norm_variance", 10 ** 400, id="norm_variance-huge-int"),
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

    @pytest.mark.parametrize("stft", [{"window": "rectangular"}, {"fft_length": 512}],
                             ids=["non-hann-window", "non-derived-fft"])
    def test_older_stft_fields_must_be_derived(self, untrained_model, small_corpus,
                                               tmp_path, capsys, stft):
        header = read_model_header(untrained_model)
        header["stft"] = {"frame_length": 255, "frame_step": 128, "fft_length": 256,
                          "window": "hann", **stft}
        bad = rewrite_model_header(untrained_model, tmp_path / "bad.cry", header)
        wav = next((small_corpus / "tone").glob("*.wav"))
        rc = main(["predict", "--model", str(bad), "--input", str(wav)])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error:") and "unknown header field stft" in err

    @pytest.mark.parametrize("stft", [[255, 128], "hann", None, {"frame_step": 64}],
                             ids=["list", "string", "null", "other-hop"])
    def test_stft_other_than_the_fixed_one(self, untrained_model, small_corpus,
                                           tmp_path, capsys, stft):
        header = read_model_header(untrained_model)
        header["stft"] = stft
        bad = rewrite_model_header(untrained_model, tmp_path / "bad.cry", header)
        wav = next((small_corpus / "tone").glob("*.wav"))
        rc = main(["predict", "--model", str(bad), "--input", str(wav)])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error:") and "unknown header field stft" in err

    @pytest.mark.parametrize("field, value", [("dense_units", 1024), ("resize", [33, 33]),
                                              ("conv_filters", [16, 32])])
    def test_architecture_other_than_the_fixed_one(self, untrained_model, small_corpus,
                                                   tmp_path, capsys, field, value):
        header = read_model_header(untrained_model)
        header["architecture"] = {"resize": [32, 32], "conv_filters": [32, 64],
                                  "dense_units": 128, field: value}
        bad = rewrite_model_header(untrained_model, tmp_path / "bad.cry", header)
        wav = next((small_corpus / "tone").glob("*.wav"))
        rc = main(["predict", "--model", str(bad), "--input", str(wav)])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error:") and "unknown header field architecture" in err


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

    def test_csv_bytes_are_the_full_basis_product(self, small_corpus, tmp_path, capsys):
        # the command writes every frame and bin of the whole file, as the
        # full windowed-DFT product gives them: clip_images' kept cells do
        # not reach it
        wav = tmp_path / "stereo48.wav"
        rng = np.random.default_rng(21)
        wav.write_bytes(make_wav_bytes(rng.integers(-20000, 20000, 2 * 30000), rate=48000,
                                       channels=2))
        for path in (next((small_corpus / "tone").glob("*.wav")), wav):
            x = load_wav(path).samples
            frames = np.lib.stride_tricks.sliding_window_view(x, FRAME_LENGTH)[::FRAME_STEP]
            spectrum = frames @ _dft_basis()
            spec = np.hypot(spectrum[:, :NUM_BINS], spectrum[:, NUM_BINS:]).astype(np.float32)
            export_spectrogram(spec, tmp_path / "want.csv", "csv")
            assert main(["spectrogram", "--input", str(path), "--out",
                         str(tmp_path / "got.csv")]) == 0
            assert capsys.readouterr().out == f"{len(spec)} x {NUM_BINS}\n"
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_unknown_extension(self, small_corpus, tmp_path, capsys):
        wav = next((small_corpus / "tone").glob("*.wav"))
        rc = main(["spectrogram", "--input", str(wav),
                   "--out", str(tmp_path / "spec.png")])
        capsys.readouterr()
        assert rc == 2

    @pytest.mark.parametrize("kind", ["fifo", "directory"])
    def test_non_regular_input_names_the_path(self, tmp_path, kind):
        # a plain open of a FIFO blocks, so the child is bounded
        wav = tmp_path / "x.wav"
        if kind == "fifo":
            os.mkfifo(wav)
        else:
            wav.mkdir()
        proc = _bounded_cli(["spectrogram", "--input", str(wav),
                             "--out", str(tmp_path / "spec.csv")])
        assert proc.returncode == 1
        assert proc.stderr == f"error: {wav}: not a regular file\n"
        assert not (tmp_path / "spec.csv").exists()


def _sparse_wav(path):
    """A 1.5 GiB sparse WAV whose data chunk claims the whole file: more than
    _bounded_cli's 1 GiB child can read."""
    size = 3 * 2 ** 29
    with open(path, "wb") as fh:
        fh.write(make_wav_bytes([])[:-4] + struct.pack("<I", size - 44))
        fh.truncate(size)


def _wide_wav(path):
    """A header claiming 65,535 channels, whose 6 data bytes hold a partial
    frame (make_wav_bytes cannot pack its 131,070-byte block align)."""
    data = make_wav_bytes([0] * 3)
    path.write_bytes(data[:22] + struct.pack("<H", 65535) + data[24:])


_UNUSABLE_INPUTS = {
    "truncated": lambda p: p.write_bytes(make_wav_bytes([0] * 1000)[:-100]),
    "24-bit": lambda p: p.write_bytes(make_wav_bytes([0] * 300, bits=24)),
    "44.1kHz": lambda p: p.write_bytes(make_wav_bytes([0] * 4410, rate=44100)),
    "fifo": os.mkfifo,
    "too-short": lambda p: p.write_bytes(make_wav_bytes([0] * 100)),
    "directory": os.mkdir,
    "65535-channels": _wide_wav,
}


def _reading(command, bad, model, tmp_path):
    """argv for command reading the file bad: as --input, or in a corpus of
    two classes whose second holds only bad."""
    corpus = bad.parent.parent
    (corpus / "a").mkdir(exist_ok=True)
    (corpus / "a" / "good.wav").write_bytes(make_wav_bytes([0] * 1000))
    return {"predict": ["predict", "--model", str(model), "--input", str(bad)],
            "spectrogram": ["spectrogram", "--input", str(bad), "--out", str(tmp_path / "s.csv")],
            "train": ["train", "--data", str(corpus), "--out", str(tmp_path / "m.cry")],
            "eval": ["eval", "--model", str(model), "--data", str(corpus)]}[command]


class TestInputErrorsNameTheFile:
    """A WAV file a command cannot use ends it with exit 1 and one stderr line
    that leads with the file's path, once.  A too-short clip is padded in a
    corpus, and spectrogram takes the STFT at the file's own rate, so those
    cases are no error there."""

    @pytest.mark.parametrize("command, kind", [
        (command, kind)
        for command in ("predict", "spectrogram", "train", "eval")
        for kind in _UNUSABLE_INPUTS
        if not (kind == "too-short" and command in ("train", "eval"))
        and not (kind == "44.1kHz" and command == "spectrogram")])
    def test_one_line_leading_with_the_path(self, untrained_model, tmp_path, capsys,
                                            command, kind):
        # in-process: open_regular never blocks, not even on a FIFO
        bad = tmp_path / "corpus" / "b" / "bad.wav"
        bad.parent.mkdir(parents=True)
        _UNUSABLE_INPUTS[kind](bad)
        argv = _reading(command, bad, untrained_model, tmp_path)
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1, err
        assert err.startswith(f"error: {bad}: ")
        assert err.count(str(bad)) == 1
        assert not (tmp_path / "m.cry").exists() and not (tmp_path / "s.csv").exists()

    def test_model_cut_short(self, untrained_model, tmp_path, capsys):
        # predict --model, cut at every byte of the magic, version, header
        # length and JSON header, and 1-5 bytes short of its end
        data = untrained_model.read_bytes()
        (header_len,) = struct.unpack_from("<I", data, 8)
        wav, cut = tmp_path / "x.wav", tmp_path / "cut.cry"
        wav.write_bytes(make_wav_bytes([0] * 1000))
        capsys.readouterr()
        for length in [*range(12 + header_len), *range(len(data) - 5, len(data))]:
            cut.write_bytes(data[:length])
            assert main(["predict", "--model", str(cut), "--input", str(wav)]) == 1, length
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and err.startswith(f"error: {cut}: "), (length, err)

    @pytest.mark.parametrize("command", ["predict", "spectrogram", "train", "eval"])
    def test_file_too_large_to_read(self, untrained_model, tmp_path, command):
        bad = tmp_path / "corpus" / "b" / "big.wav"
        bad.parent.mkdir(parents=True)
        _sparse_wav(bad)
        proc = _bounded_cli(_reading(command, bad, untrained_model, tmp_path))
        assert proc.returncode == 1
        assert proc.stderr == f"error: {bad}: too large to read into memory\n"

    @pytest.mark.parametrize("command", ["predict", "spectrogram", "train", "eval"])
    def test_device_link(self, untrained_model, tmp_path, command):
        # bounded: a regression that read /dev/zero would never stop
        bad = tmp_path / "corpus" / "b" / "zero.wav"
        bad.parent.mkdir(parents=True)
        bad.symlink_to("/dev/zero")
        proc = _bounded_cli(_reading(command, bad, untrained_model, tmp_path))
        assert proc.returncode == 1
        assert proc.stderr == f"error: {bad}: not a regular file\n"

    def test_watch_skips_each_once(self, untrained_model, tmp_path):
        # every kind, the device link and the sparse file in one directory,
        # through the classify cmd_watch builds; the valid file sorts last,
        # so its event means every other file has been handled
        directory = tmp_path / "in"
        directory.mkdir()
        makers = {**_UNUSABLE_INPUTS, "dev-zero": lambda p: p.symlink_to("/dev/zero"),
                  "sparse": _sparse_wav}
        bad = [directory / f"{kind}.wav" for kind in makers]
        for path, make in zip(bad, makers.values()):
            make(path)
        drop_wav(directory, "zz-valid.wav", [0] * 16000)
        code, out, err, _ = _signalled(
            ["watch", "--model", str(untrained_model), "--dir", str(directory),
             "--poll-ms", "50", "--alert-classes", "tone"],
            signal.SIGINT, lambda pid, out, err: out, tmp_path)
        assert code == 0
        assert [json.loads(line)["source"] for line in out.splitlines()] == [
            str(directory / "zz-valid.wav")]
        skips = [line for line in err.splitlines() if line.startswith("WARNING")]
        assert [line.split(": ")[0] for line in skips] == [
            f"WARNING skipping {path}" for path in sorted(bad)]
        assert not any("unexpected" in line for line in skips), skips
        assert len(err.splitlines()) == 1 + len(bad), err


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

    def test_non_http_alert_url(self, untrained_model, tmp_path):
        # refused at startup: the file in the directory is never classified
        drop_wav(tmp_path, "a.wav")
        proc = _bounded_cli(["watch", "--model", str(untrained_model), "--dir", str(tmp_path),
                             "--alert-classes", "tone", "--alert-url", "file:///x"])
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert len(proc.stderr.strip().splitlines()) == 1
        assert proc.stderr.startswith("error:") and "file:///x" in proc.stderr

    def test_alert_url_with_credentials_refused(self, untrained_model, tmp_path):
        # http.client would post without them: refused at startup, the
        # password unechoed, and the host never contacted
        drop_wav(tmp_path, "a.wav")
        with socket.socket() as server:
            server.bind(("127.0.0.1", 0))
            server.listen(1)
            server.setblocking(False)
            url = f"http://user:pw@127.0.0.1:{server.getsockname()[1]}/hook"
            proc = _bounded_cli(["watch", "--model", str(untrained_model), "--dir",
                                 str(tmp_path), "--alert-classes", "tone", "--alert-url", url])
            with pytest.raises(BlockingIOError):
                server.accept()
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "pw" not in proc.stderr


class TestImportSurface:
    SINK_MODULES = ("http.client", "ssl", "email.parser", "socket", "subprocess", "shlex",
                    "urllib.error")

    def test_sink_modules_load_with_their_sink(self):
        # a watcher with neither a webhook nor a command sink never imports
        # their modules; each sink imports its own when it is built
        code = ("import cryalert.cli, json, sys\n"
                f"modules = {self.SINK_MODULES!r}\n"
                "from cryalert.infer_alert import CommandSink, HttpSink\n"
                "bare = [m for m in modules if m in sys.modules]\n"
                "HttpSink('http://127.0.0.1:9/hook')\n"
                "http = [m for m in modules if m in sys.modules]\n"
                "CommandSink('true')\n"
                "print(json.dumps([bare, http, 'subprocess' in sys.modules]))\n")
        proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        bare, http, command = json.loads(proc.stdout)
        assert bare == []
        assert "http.client" in http and "subprocess" not in http
        assert command is True


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

    def test_non_finite_logits_skipped_and_logged(self, overflowing_model, tmp_path, caplog):
        loaded = load_model(overflowing_model)

        def classify(path):
            return infer_alert.predict(loaded.network, loaded.stft_config, load_wav(path),
                                       loaded.class_names)

        watcher, buf = make_watcher(tmp_path, classify=classify)
        path = tone_wav(tmp_path / "tone.wav")
        watcher.poll_once()
        with caplog.at_level(logging.WARNING, logger="cryalert"):
            assert watcher.poll_once() == []
        assert [r.getMessage().startswith(f"skipping {path}: ") for r in caplog.records] == [True]
        assert buf.getvalue() == ""

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

    def test_cooldown_ends_when_the_clock_steps_back(self, tmp_path):
        # a wall clock stepped back an hour leaves now - last alert
        # negative; the cooldown must not stretch to cover that hour
        fake = [10_000.0]
        watcher, buf = make_watcher(tmp_path, cooldown=30.0, clock=lambda: fake[0])
        drop_wav(tmp_path, "a.wav")
        watcher.poll_once()
        assert len(watcher.poll_once()) == 1
        assert watcher._last_alert == 10_000.0

        fake[0] -= 3600.0
        drop_wav(tmp_path, "b.wav")
        watcher.poll_once()
        events = watcher.poll_once()
        assert [e.alert for e in events] == [True]
        assert watcher._last_alert == 6_400.0

        # from the new last alert the cooldown runs as usual
        fake[0] += 10.0
        drop_wav(tmp_path, "c.wav")
        watcher.poll_once()
        assert watcher.poll_once() == []
        assert len(buf.getvalue().strip().splitlines()) == 2

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

    def test_file_too_large_to_read_skipped_and_logged(self, tmp_path, caplog):
        def classify(path):
            if path.name == "a.wav":
                raise MemoryError
            return tone_probs(path)

        watcher, buf = make_watcher(tmp_path, classify=classify)
        drop_wav(tmp_path, "a.wav")
        drop_wav(tmp_path, "b.wav")
        watcher.poll_once()
        with caplog.at_level(logging.DEBUG, logger="cryalert"):
            events = watcher.poll_once()
        assert [e.source for e in events] == [str(tmp_path / "b.wav")]
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == [f"skipping {tmp_path / 'a.wav'}: too large to read into memory"]
        assert not any("unexpected" in r.getMessage() for r in caplog.records)
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
        # main makes SIGINT and SIGTERM a KeyboardInterrupt; run ends on one
        watcher, _ = make_watcher(tmp_path)
        timer = threading.Timer(0.3, _thread.interrupt_main)
        timer.start()
        watcher.run(0.01)  # returns once interrupted
        timer.join()
        assert not hasattr(watcher, "stop")


SRC = Path(__file__).resolve().parents[1] / "src"


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


def _bounded_cli(argv):
    """Run cryalert in a child with 1 GiB of address space and 60 s, so an
    input that blocks or never ends fails the test instead of stalling it."""
    return subprocess.run([sys.executable, "-m", "cryalert.cli", *argv], env=_child_env(),
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=_cap_memory)


def _catches_sigterm(pid, *_):
    """True once pid catches SIGTERM, which only main's handler does."""
    status = Path(f"/proc/{pid}/status").read_text()
    caught = next(line.split()[1] for line in status.splitlines()
                  if line.startswith("SigCgt:"))
    return int(caught, 16) >> (signal.SIGTERM - 1) & 1


def _signalled(argv, sig, ready, tmp_path, delay=0.0):
    """Run cryalert argv in a child bounded as _bounded_cli's, send sig once
    ready(pid, stdout, stderr) holds and delay seconds more, and return
    (exit code, stdout, stderr, seconds from the signal to the exit)."""
    out_path, err_path = tmp_path / "stdout.txt", tmp_path / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen([sys.executable, "-m", "cryalert.cli", *argv],
                                stdout=out, stderr=err, env=_child_env(),
                                preexec_fn=_cap_memory)
    try:
        deadline = time.monotonic() + 20
        while not ready(proc.pid, out_path.read_text(), err_path.read_text()):
            assert proc.poll() is None, "the command ended before it was ready"
            assert time.monotonic() < deadline, "the command was not ready within 20 s"
            time.sleep(0.005)
        time.sleep(delay)
        proc.send_signal(sig)
        sent = time.monotonic()
        proc.wait(timeout=60)
        return (proc.returncode, out_path.read_text(), err_path.read_text(),
                time.monotonic() - sent)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def _watch_until_signal(model, directory, sig):
    """Run `cryalert watch` in a child, send sig once it has emitted one
    event, and return (exit code, stdout, stderr) with the directory
    written as DIR and the event timestamps blanked."""
    code, out, err, _ = _signalled(
        ["watch", "--model", str(model), "--dir", str(directory), "--poll-ms", "50",
         "--alert-classes", "tone"], sig, lambda pid, out, err: out, directory.parent)
    events = [json.loads(line) | {"timestamp": ""} for line in out.splitlines()]
    return (code, json.dumps(events).replace(str(directory), "DIR"),
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


def _long_wav(path, seconds):
    """seconds of 16 kHz noise, written without a per-sample pack."""
    samples = np.random.default_rng(0).integers(-3000, 3000, seconds * 16000)
    with open(path, "wb") as fh:
        fh.write(make_wav_bytes([])[:-4] + struct.pack("<I", 2 * samples.size))
        fh.write(samples.astype("<i2").tobytes())
    return path


def _signal_id(value):
    return value.name if isinstance(value, signal.Signals) else None


class TestStopping:
    """SIGINT and SIGTERM stop every command at once: watch with exit 0, any
    other with exit 1, stderr exactly "error: interrupted" and no temporary
    file left.  Each signal is sent once main has installed its handlers."""

    @pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM], ids=_signal_id)
    def test_watch_stops_within_its_sleep(self, untrained_model, tmp_path, sig):
        # the first poll of an empty directory follows the "watching" line
        # within milliseconds, so the signal lands in the 60 s sleep
        directory = tmp_path / "in"
        directory.mkdir()
        code, out, err, waited = _signalled(
            ["watch", "--model", str(untrained_model), "--dir", str(directory),
             "--poll-ms", "60000", "--alert-classes", "tone"],
            sig, lambda pid, out, err: "watching" in err, tmp_path, delay=0.2)
        assert code == 0
        assert waited < 5
        assert out == ""
        assert err.splitlines() == [f"INFO watching {directory} (threshold 0.50, "
                                    "alert classes tone)"]

    @pytest.mark.parametrize("sig, files", [
        (signal.SIGINT, 1), (signal.SIGTERM, 1), (signal.SIGINT, 30),
        (signal.SIGTERM, 120), (signal.SIGINT, 200), (signal.SIGTERM, 350)], ids=_signal_id)
    def test_synth(self, tmp_path, sig, files):
        # signalled once that many of the 480 clips are written: in the
        # first, second, third and fourth class, and near the first sync
        out = tmp_path / "corpus"
        code, _, err, _ = _signalled(
            ["synth", "--out", str(out), "--per-class", "120"], sig,
            lambda *_: len(list(out.glob("*/*.wav"))) >= files, tmp_path)
        assert (code, err) == (1, "error: interrupted\n")
        assert list(out.rglob("*.tmp")) == []

    @pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM], ids=_signal_id)
    def test_train(self, small_corpus, tmp_path, sig):
        out = tmp_path / "out"
        out.mkdir()
        code, _, err, _ = _signalled(
            ["train", "--data", str(small_corpus), "--out", str(out / "m.cry"),
             "--epochs", "1000"], sig, _catches_sigterm, tmp_path, delay=0.3)
        assert (code, err) == (1, "error: interrupted\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM], ids=_signal_id)
    def test_spectrogram(self, tmp_path, sig):
        # a minute of audio takes about a second to export as CSV
        wav = _long_wav(tmp_path / "long.wav", 60)
        out = tmp_path / "out"
        out.mkdir()
        code, _, err, _ = _signalled(
            ["spectrogram", "--input", str(wav), "--out", str(out / "s.csv")],
            sig, _catches_sigterm, tmp_path, delay=0.2)
        assert (code, err) == (1, "error: interrupted\n")
        assert list(out.iterdir()) == []


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
                ("watch", "--threshold"), ("synth", "--seed")} <= set(flags)

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
net = tensor_nn.build_network(3)
logits, cache = net.forward(np.zeros((2, 32, 32, 1), np.float32), train=True)
net.backward(cache, np.zeros_like(logits))
infer_alert.save_model(tensor_nn.build_network(3), StftConfig(), ["a", "b", "c"], "m.cry")
model = infer_alert.load_model("m.cry")
infer_alert.predict(model.network, model.stft_config, AudioClip(np.zeros(48000), 48000),
                    model.class_names)
for name, rate in (("a", 48000), ("b", 16000)):
    Path("corpus", name).mkdir(parents=True)
    wav_io.write_wav(AudioClip(np.zeros(rate), rate), Path("corpus", name, "x.wav"))
dataset = wav_io.load_dataset("corpus")
optim_train.split_arrays(dataset, "train")
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
        # load_model builds through the patched build_network, so the loaded
        # network's layers are wrapped too
        assert _has_ancestor(spans, "tensor_nn.resize.forward", "infer_alert.predict")
        assert _has_ancestor(spans, "wav_io.resample", "wav_io.load_dataset")
        # every file decodes through the patched parse_wav, not a private binding
        assert _has_ancestor(spans, "wav_io.parse_wav", "wav_io.load_dataset")
        assert _has_ancestor(spans, "spectro.stft", "optim_train.split_arrays")

    def test_perfbench_train_child_runs(self, tmp_path):
        # train_child.py calls load_dataset, build_network and train itself
        # and reads the train split's size; run it as train_synth does
        corpus = tmp_path / "corpus"
        generate_corpus(corpus, per_class=3, seed=7)
        out = tmp_path / "result.json"
        proc = subprocess.run(
            [sys.executable, str(SRC.parent / "perfbench" / "train_child.py"),
             str(corpus), "1", "1", "0", str(out)],
            cwd=tmp_path, env=_child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(out.read_text())
        assert result["train_clips"] == len(load_dataset(corpus, seed=42).splits["train"])
        assert result["epochs_run"] == 1

    def test_perfbench_inputs_run(self, tmp_path):
        # perfbench/inputs.py calls train, save_model, load_model and predict
        # itself, through infer_alert's names; run it as watch_burst does
        spec = importlib.util.spec_from_file_location(
            "perfbench_inputs", SRC.parent / "perfbench" / "inputs.py")
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        model = tmp_path / "watch.cry"
        inputs.train_watch_model(tmp_path / "corpus", model)
        labels = {}
        for name, kind, label, data in inputs.wav_mix(1, inputs.CYCLE):
            if kind not in inputs.INVALID:
                (tmp_path / name).write_bytes(data)
                labels[name] = label
        ref = inputs.reference(model, [tmp_path / name for name in labels])
        assert sorted(ref) == sorted(labels)
        correct = sum(ref[name][0] == label for name, label in labels.items())
        assert correct >= 0.9 * len(labels)
