"""Acceptance gate: ten end-to-end checks over the whole pipeline.

Each test prints one PASS/FAIL line straight to the terminal (bypassing
capture) so a plain ``pytest -v`` run shows the scoreboard inline.
"""

import io
import json
import re
import time

import numpy as np
import pytest

from cryalert.cli import DirectoryWatcher, main
from cryalert.errors import CorruptModelError
from cryalert.infer_alert import StdoutSink, load_model, predict, save_model
from cryalert.optim_train import AdamState, TrainConfig, adam_step, confusion_matrix, train
from cryalert.rng import philox_stream
from cryalert.spectro import clip_images, stft_magnitude
from cryalert.synth import generate_corpus, synth_clip
from cryalert.tensor_nn import Conv2D, Dense, build_network, softmax_cross_entropy_batch
from cryalert.optim_train import evaluate, split_arrays
from cryalert.wav_io import load_dataset, load_wav, write_wav

from conftest import dft_direct, rel_error, toy_network


def _report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance] criterion {n:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


CHAIN = [
    (32, 32, 1), (32, 32, 1), (30, 30, 32), (28, 28, 64), (14, 14, 64),
    (14, 14, 64), (12544,), (128,), (128,), (4,),
]


def test_criterion_01_shapes(capsys):
    clip = synth_clip("tone", philox_stream(0, 4))
    net = build_network(4, seed=0)
    warm = np.zeros((1, 32, 32, 1), dtype=np.float32)
    net.forward(warm)  # absorb first-touch allocation cost

    spec = stft_magnitude(clip, dtype=np.float32)
    start = time.monotonic()
    image = clip_images([clip])
    logits, _ = net.forward(image)
    elapsed = time.monotonic() - start

    x, shapes = image, []
    for layer in net.layers:
        x = layer.forward(x)[0]
        shapes.append(x.shape[1:])
    ok = (
        spec.shape == (124, 129)
        and shapes == CHAIN
        and logits.shape == (1, 4)
        and elapsed < 1.0
    )
    _report(capsys, 1, ok,
            f"spectrogram {spec.shape}, chain ok, {elapsed:.3f} s")


def test_criterion_02_stft_oracle(capsys):
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(255) / 255.0)
    rng = np.random.default_rng(1234)

    start = time.monotonic()
    worst = 0.0
    for _ in range(50):
        signal = rng.uniform(-1.0, 1.0, 16000)
        got = stft_magnitude(signal, dtype=np.float64)

        frames = np.zeros((124, 256))
        for i in range(124):
            frames[i, :255] = signal[i * 128:i * 128 + 255] * window
        want = np.abs(dft_direct(frames)[:, :129])
        worst = max(worst, rel_error(got, want))
    elapsed = time.monotonic() - start

    ok = worst < 1e-9 and elapsed < 30.0
    _report(capsys, 2, ok, f"worst rel error {worst:.2e}, {elapsed:.1f} s")


def _central_diff(f, x, h=1e-5):
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + h
        hi = f()
        x[idx] = old - h
        lo = f()
        x[idx] = old
        grad[idx] = (hi - lo) / (2 * h)
    return grad


def _worst_rel(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def test_criterion_03_gradients(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(42)
    worst = 0.0

    # conv layer, input, kernel and bias, on a batch of one
    x = rng.normal(size=(1, 6, 6, 2))
    k = rng.normal(size=(3, 3, 2, 3))
    conv = Conv2D(k, use_relu=False)
    conv.bias = b = rng.normal(size=3)
    cot = rng.normal(size=(1, 4, 4, 3))
    dx, (dk, db) = conv.backward(conv.forward(x)[1], cot)

    def conv_loss():
        return float((conv.forward(x)[0] * cot).sum())

    worst = max(worst, _worst_rel(dx, _central_diff(conv_loss, x)))
    worst = max(worst, _worst_rel(dk, _central_diff(conv_loss, k)))
    worst = max(worst, _worst_rel(db, _central_diff(conv_loss, b)))

    # dense layer, on a batch of one
    x2 = rng.normal(size=(1, 8))
    w2 = rng.normal(size=(8, 5))
    dense = Dense(w2, use_relu=False)
    dense.bias = b2 = rng.normal(size=5)
    cot2 = rng.normal(size=(1, 5))
    dx2, (dw2, db2) = dense.backward(dense.forward(x2)[1], cot2)

    def dense_loss():
        return float((dense.forward(x2)[0] * cot2).sum())

    worst = max(worst, _worst_rel(dx2, _central_diff(dense_loss, x2)))
    worst = max(worst, _worst_rel(dw2, _central_diff(dense_loss, w2)))
    worst = max(worst, _worst_rel(db2, _central_diff(dense_loss, b2)))

    # whole network on a reduced toy, every parameter, 64-bit
    net = toy_network()
    image = rng.uniform(0.0, 1.0, (1, 8, 8, 1))
    label = np.array([1])

    def net_loss():
        logits, _ = net.forward(image, train=False)
        return float(softmax_cross_entropy_batch(logits, label)[0][0])

    logits, cache = net.forward(image, train=False)
    _, dlogits = softmax_cross_entropy_batch(logits, label)
    grads = net.backward(cache, dlogits)
    for p, g in zip(net.parameters(), grads):
        worst = max(worst, _worst_rel(g, _central_diff(net_loss, p)))
    elapsed = time.monotonic() - start

    ok = worst < 1e-4 and elapsed < 120.0
    _report(capsys, 3, ok, f"worst rel error {worst:.2e}, {elapsed:.1f} s")


def test_criterion_04_adam(capsys):
    # independently coded textbook reference
    def reference(params, grads, t, ms, vs, lr, b1=0.9, b2=0.999, eps=1e-7):
        t += 1
        out = []
        for i, (p, g) in enumerate(zip(params, grads)):
            ms[i] = b1 * ms[i] + (1 - b1) * g
            vs[i] = b2 * vs[i] + (1 - b2) * g * g
            mhat = ms[i] / (1 - b1**t)
            vhat = vs[i] / (1 - b2**t)
            out.append(p - lr * mhat / (np.sqrt(vhat) + eps))
        return t, out

    rng = np.random.default_rng(0)
    params = [rng.normal(size=(4, 3)), rng.normal(size=7)]
    ref = [p.copy() for p in params]
    ms = [np.zeros_like(p) for p in ref]
    vs = [np.zeros_like(p) for p in ref]
    state = AdamState.for_params(params, lr=3e-3)
    t = 0
    worst = 0.0
    for _ in range(10):
        grads = [rng.normal(size=p.shape) for p in params]
        adam_step(params, grads, state)
        t, ref = reference(ref, grads, t, ms, vs, lr=3e-3)
        step_diff = max(float(np.max(np.abs(a - b))) for a, b in zip(params, ref))
        worst = max(worst, step_diff)

    magnitude_ok = True
    for g in (1e-3, 1.0, 1e3, -1e-3, -1.0, -1e3):
        p = np.zeros(1)
        st = AdamState.for_params([p], lr=1e-4)
        adam_step([p], [np.array([g])], st)
        magnitude_ok &= 0.99e-4 <= abs(p[0]) <= 1e-4

    ok = worst <= 1e-12 and magnitude_ok
    _report(capsys, 4, ok,
            f"trace diff {worst:.2e}, first-step magnitude ok={magnitude_ok}")


def test_criterion_05_synthetic_accuracy(capsys, trained):
    rc, model_path, report, elapsed = trained
    ok = (
        rc == 0
        and model_path.exists()
        and report is not None
        and report["test_accuracy"] >= 0.90
        and report["val_loss"][-1] < report["val_loss"][0]
        and elapsed < 900.0
    )
    detail = (
        f"test accuracy {report['test_accuracy']:.4f}, "
        f"val loss {report['val_loss'][0]:.4f} -> {report['val_loss'][-1]:.4f}, "
        f"{elapsed:.0f} s"
        if report is not None else f"rc={rc}, no report"
    )
    _report(capsys, 5, ok, detail)


def test_criterion_06_overfit(capsys, tmp_path):
    generate_corpus(tmp_path, per_class=3, seed=7)
    dataset = load_dataset(tmp_path, split_ratios=(2.0 / 3.0, 1.0 / 3.0, 0.0), seed=5)
    assert len(dataset.splits["train"]) == 8

    net = build_network(len(dataset.class_names), seed=1)
    cfg = TrainConfig(epochs=200, batch_size=8, lr=1e-3, seed=1)
    start = time.monotonic()
    report = train(net, dataset, cfg)
    elapsed = time.monotonic() - start

    reached = 1.0 in report.train_accuracy
    first = report.train_accuracy.index(1.0) + 1 if reached else -1
    ok = reached and elapsed < 120.0
    _report(capsys, 6, ok,
            f"100% train accuracy at epoch {first}/200, {elapsed:.1f} s")


def test_criterion_07_determinism(capsys, small_corpus, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1735689600")
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.cry"
        rc = main(["train", "--data", str(small_corpus), "--out", str(out),
                   "--epochs", "3", "--seed", "11"])
        assert rc == 0
        blobs.append((out.read_bytes(),
                      (tmp_path / f"{name}.cry.report.json").read_bytes()))
    models_equal = blobs[0][0] == blobs[1][0]
    reports_equal = blobs[0][1] == blobs[1][1]
    ok = models_equal and reports_equal
    _report(capsys, 7, ok,
            f"model bytes equal={models_equal}, report bytes equal={reports_equal}")


def test_criterion_08_confusion_identities(capsys, trained, synth_corpus):
    # synthetic label/prediction pairs
    rng = philox_stream(8, 0)
    true = rng.integers(0, 5, 1000)
    pred = rng.integers(0, 5, 1000)
    names = [f"c{i}" for i in range(5)]
    cm = confusion_matrix(true, pred, names)
    rows_ok = np.array_equal(cm.counts.sum(axis=1), np.bincount(true, minlength=5))
    acc_ok = cm.accuracy == np.trace(cm.counts) / 1000
    diag = confusion_matrix(true, true, names)
    diag_ok = np.array_equal(diag.counts, np.diag(np.bincount(true, minlength=5)))

    # the real model's test-split matrix obeys the same identities
    _, model_path, _, _ = trained
    loaded = load_model(model_path)
    dataset = load_dataset(synth_corpus, seed=42)
    images, labels = split_arrays(dataset, "test")
    loss, accuracy, matrix = evaluate(loaded.network, images, labels,
                                      dataset.class_names)
    real_rows_ok = np.array_equal(
        matrix.counts.sum(axis=1),
        np.bincount(labels, minlength=len(dataset.class_names)))
    real_acc_ok = matrix.accuracy == accuracy == np.trace(matrix.counts) / matrix.total

    ok = rows_ok and acc_ok and diag_ok and real_rows_ok and real_acc_ok
    _report(capsys, 8, ok,
            f"synthetic identities ok, model test matrix total={matrix.total}, "
            f"accuracy={accuracy:.4f}")


def test_criterion_09_persistence(capsys, trained, tmp_path):
    _, model_path, _, _ = trained
    first = load_model(model_path)
    resaved = tmp_path / "resaved.cry"
    save_model(first.network, first.stft_config, first.class_names, resaved)
    second = load_model(resaved)

    rng = philox_stream(9, 0)
    bitwise = True
    for _ in range(10):
        x = rng.uniform(0.0, 1.0, (1, 32, 32, 1)).astype(np.float32)
        a, _ = first.network.forward(x)
        b, _ = second.network.forward(x)
        bitwise &= bool(np.array_equal(a, b))

    data = bytearray(model_path.read_bytes())
    data[len(data) - 500] ^= 0x01  # inside the parameter blob
    corrupt = tmp_path / "corrupt.cry"
    corrupt.write_bytes(bytes(data))
    try:
        load_model(corrupt)
        crc_ok = False
    except CorruptModelError:
        crc_ok = True

    ok = bitwise and crc_ok
    _report(capsys, 9, ok,
            f"logits bitwise equal={bitwise}, corrupt file rejected={crc_ok}")


_EVENT_KEYS = ["timestamp", "source", "predicted_label", "probabilities",
               "alert", "threshold"]
_RFC3339 = re.compile(r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z$")


def _schema_valid(line, class_names):
    if "\n" in line.strip():
        return False
    event = json.loads(line)
    return (
        list(event) == _EVENT_KEYS
        and _RFC3339.match(event["timestamp"]) is not None
        and isinstance(event["alert"], bool)
        and list(event["probabilities"]) == list(class_names)
        and all(0.0 <= v <= 1.0 for v in event["probabilities"].values())
    )


def test_criterion_10_alert_pipeline(capsys, trained, tmp_path):
    _, model_path, _, _ = trained
    loaded = load_model(model_path)
    alert_classes = ("am", "tone")
    distress = ["tone_x.wav", "tone_y.wav", "am_x.wav"]
    calm = ["noise_x.wav", "chirp_x.wav"]

    rng = philox_stream(10, 4)
    clips = {name: synth_clip(name.split("_")[0], rng) for name in distress + calm}

    def classify(path):
        # reparse from disk exactly like the real watch command does
        return predict(loaded.network, loaded.stft_config, load_wav(path),
                       loaded.class_names)

    fired_by_threshold = {}
    schema_ok = True
    exactly_once_ok = True
    calm_quiet_ok = True
    for threshold in (0.3, 0.5, 0.9):
        watch_dir = tmp_path / f"watch_{threshold}"
        watch_dir.mkdir()
        for name, clip in clips.items():
            write_wav(clip, watch_dir / name)
        buf = io.StringIO()
        watcher = DirectoryWatcher(watch_dir, classify, [StdoutSink(buf)],
                                   alert_classes, threshold)
        watcher.poll_once()
        watcher.poll_once()
        watcher.poll_once()  # no duplicates on later polls

        lines = buf.getvalue().strip().splitlines()
        schema_ok &= all(_schema_valid(line, loaded.class_names) for line in lines)
        events = [json.loads(line) for line in lines]
        alerts = [e for e in events if e["alert"]]
        for name in distress:
            count = sum(1 for e in alerts if e["source"].endswith(name))
            if threshold == 0.3:
                exactly_once_ok &= count == 1
        for name in calm:
            calm_quiet_ok &= not any(e["source"].endswith(name) for e in alerts)
        fired_by_threshold[threshold] = {e["source"].rsplit("/", 1)[-1] for e in alerts}

    monotone_ok = (fired_by_threshold[0.9] <= fired_by_threshold[0.5]
                   <= fired_by_threshold[0.3])
    ok = schema_ok and exactly_once_ok and calm_quiet_ok and monotone_ok
    _report(capsys, 10, ok,
            f"fired at 0.3={sorted(fired_by_threshold[0.3])}, "
            f"0.5={len(fired_by_threshold[0.5])}, 0.9={len(fired_by_threshold[0.9])}, "
            f"schema ok={schema_ok}, monotone={monotone_ok}")
