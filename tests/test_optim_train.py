import json
import tracemalloc

import numpy as np
import pytest

from cryalert.errors import ConfigError, DatasetError, ShapeError
from cryalert.optim_train import (
    AdamState,
    ConfusionMatrix,
    TrainConfig,
    TrainReport,
    adam_step,
    confusion_matrix,
    evaluate,
    fit_normalization,
    split_arrays,
    train,
)
from cryalert.spectro import _interp_matrix, clip_images, stft_magnitude
from cryalert.synth import generate_corpus
from cryalert.tensor_nn import RESIZE, build_network, softmax_cross_entropy_batch
from cryalert.wav_io import AudioClip, LabeledDataset, canonical_clip, load_dataset, parse_wav

from conftest import make_wav_bytes, streaming_mean_var


def reference_adam(params, grads, state_t, ms, vs, lr, b1=0.9, b2=0.999, eps=1e-7):
    """Textbook Adam update written independently of the implementation."""
    t = state_t + 1
    new_params, new_ms, new_vs = [], [], []
    for p, g, m, v in zip(params, grads, ms, vs):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        new_params.append(p - lr * mhat / (np.sqrt(vhat) + eps))
        new_ms.append(m)
        new_vs.append(v)
    return t, new_params, new_ms, new_vs


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        p = np.array([1.0, -2.0, 3.0])
        state = AdamState.for_params([p], lr=1e-4)
        before = p.copy()
        adam_step([p], [np.zeros(3)], state)
        assert np.array_equal(p, before)

    def test_first_step_magnitude(self):
        p = np.zeros(1)
        state = AdamState.for_params([p], lr=1e-4)
        adam_step([p], [np.ones(1)], state)
        assert abs(p[0] - (-1e-4 / (1.0 + 1e-7))) < 1e-15

    def test_first_step_bounded_by_lr(self):
        for g in (1e-3, 1.0, 1e3, -1e3):
            p = np.zeros(1)
            state = AdamState.for_params([p], lr=1e-4)
            adam_step([p], [np.array([g])], state)
            assert abs(p[0]) <= 1e-4
            assert abs(p[0]) >= 0.99e-4

    def test_ten_step_trace_matches_reference(self):
        rng = np.random.default_rng(0)
        p = rng.normal(size=(4, 3))
        q = rng.normal(size=7)
        params = [p.copy(), q.copy()]
        state = AdamState.for_params(params, lr=3e-3)

        ref_params = [p.copy(), q.copy()]
        ref_ms = [np.zeros_like(a) for a in ref_params]
        ref_vs = [np.zeros_like(a) for a in ref_params]
        ref_t = 0

        for step in range(10):
            grads = [rng.normal(size=a.shape) for a in params]
            adam_step(params, grads, state)
            ref_t, ref_params, ref_ms, ref_vs = reference_adam(
                ref_params, grads, ref_t, ref_ms, ref_vs, lr=3e-3)
            for got, want in zip(params, ref_params):
                assert np.max(np.abs(got - want)) <= 1e-12

        assert state.t == 10

    def test_second_moment_stays_nonnegative(self):
        rng = np.random.default_rng(1)
        p = rng.normal(size=20)
        state = AdamState.for_params([p], lr=1e-2)
        for _ in range(50):
            adam_step([p], [rng.normal(size=20) * 100], state)
            assert np.all(state.v[0] >= 0)

    def test_gradient_count_mismatch(self):
        p = np.zeros(3)
        state = AdamState.for_params([p])
        with pytest.raises(ShapeError):
            adam_step([p], [np.zeros(3), np.zeros(2)], state)

    def test_gradient_shape_mismatch(self):
        p = np.zeros(3)
        state = AdamState.for_params([p])
        with pytest.raises(ShapeError):
            adam_step([p], [np.zeros(4)], state)

    def test_float32_params_stay_float32(self):
        p = np.zeros(3, dtype=np.float32)
        state = AdamState.for_params([p])
        adam_step([p], [np.ones(3, dtype=np.float32)], state)
        assert p.dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_expression_with_temporaries(self, dtype):
        # the update as one expression per moment, each intermediate a
        # fresh array; the in-place version must round identically.
        # Parameters start at zero so that they stay as small as the
        # steps, whose last-bit differences would otherwise round away
        rng = np.random.default_rng(2)
        params = [np.zeros(s, dtype=dtype) for s in ((5, 4), (7,))]
        state = AdamState.for_params(params, lr=3e-3)
        ref = [p.copy() for p in params]
        ms = [np.zeros_like(p) for p in params]
        vs = [np.zeros_like(p) for p in params]
        for t in range(1, 6):
            grads = [rng.normal(size=p.shape).astype(dtype) for p in params]
            adam_step(params, grads, state)
            for p, g, m, v in zip(ref, grads, ms, vs):
                m *= 0.9
                m += (1.0 - 0.9) * g
                v *= 0.999
                v += (1.0 - 0.999) * (g * g)
                m_hat = m / (1.0 - 0.9 ** t)
                v_hat = v / (1.0 - 0.999 ** t)
                p -= 3e-3 * m_hat / (np.sqrt(v_hat) + 1e-7)
            for got, want in zip(params, ref):
                assert got.dtype == dtype
                assert np.array_equal(got, want)


class TestFitNormalization:
    def test_two_point_example(self):
        mean, var = fit_normalization([np.array([0.0, 2.0])])
        assert mean == 1.0 and var == 1.0

    def test_zeros(self):
        mean, var = fit_normalization([np.zeros((3, 4))])
        assert mean == 0.0 and var == 0.0

    def test_matches_streaming_oracle(self):
        rng = np.random.default_rng(2)
        chunks = [rng.normal(loc=3.0, scale=2.0, size=(5, 7)) for _ in range(4)]
        mean, var = fit_normalization(chunks)
        ref_mean, ref_var = streaming_mean_var(chunks)
        assert abs(mean - ref_mean) < 1e-9
        assert abs(var - ref_var) < 1e-9

    def test_empty_rejected(self):
        with pytest.raises(DatasetError):
            fit_normalization([])
        with pytest.raises(DatasetError):
            fit_normalization([np.zeros((0, 4))])


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.epochs == 10
        assert cfg.batch_size == 64
        assert cfg.lr == 1e-4
        assert cfg.patience is None

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        for lr in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                TrainConfig(lr=lr)
        with pytest.raises(ConfigError):
            TrainConfig(patience=0)


NAMES3 = ["alpha", "beta", "gamma"]


class TestConfusion:
    def test_identities(self):
        true = np.array([0, 0, 1, 1, 2, 2, 2])
        pred = np.array([0, 1, 1, 1, 0, 2, 2])
        cm = confusion_matrix(true, pred, NAMES3)
        assert cm.counts.sum() == 7
        assert np.array_equal(cm.counts.sum(axis=1), [2, 2, 3])
        assert cm.total == 7
        assert cm.accuracy == np.trace(cm.counts) / 7

    def test_all_correct_is_diagonal(self):
        labels = np.array([0, 1, 2, 1, 0])
        cm = confusion_matrix(labels, labels, NAMES3)
        assert np.array_equal(cm.counts, np.diag([2, 2, 1]))
        assert cm.accuracy == 1.0

    def test_all_wrong_has_empty_diagonal(self):
        true = np.array([0, 1, 2])
        pred = np.array([1, 2, 0])
        cm = confusion_matrix(true, pred, NAMES3)
        assert np.trace(cm.counts) == 0
        assert cm.accuracy == 0.0

    def test_to_text_mentions_labels(self):
        cm = ConfusionMatrix(np.array([[2, 0], [1, 3]]), ["quiet", "loud"])
        text = cm.to_text()
        assert "quiet" in text and "loud" in text
        assert "3" in text


@pytest.fixture(scope="module")
def toy_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy_train")
    generate_corpus(root, per_class=3, seed=7)
    ds = load_dataset(root, split_ratios=(2.0 / 3.0, 1.0 / 3.0, 0.0), seed=5)
    return ds


class TestTrain:
    def test_zero_learning_rate_leaves_params(self, toy_setup):
        net = build_network(len(toy_setup.class_names), seed=3)
        before = [p.copy() for p in net.parameters()]
        cfg = TrainConfig(epochs=1, batch_size=4, lr=0.0, seed=3)
        train(net, toy_setup, cfg)
        for p, b in zip(net.parameters(), before):
            assert np.array_equal(p, b)

    def test_same_seed_reproduces_everything(self, toy_setup):
        def run():
            net = build_network(len(toy_setup.class_names), seed=11)
            cfg = TrainConfig(epochs=2, batch_size=4, lr=1e-3, seed=11)
            report = train(net, toy_setup, cfg)
            return net, report

        net_a, rep_a = run()
        net_b, rep_b = run()
        for pa, pb in zip(net_a.parameters(), net_b.parameters()):
            assert np.array_equal(pa, pb)
        assert rep_a.to_dict() == rep_b.to_dict()

    def test_report_shape(self, toy_setup):
        net = build_network(len(toy_setup.class_names), seed=4)
        cfg = TrainConfig(epochs=2, batch_size=4, lr=1e-3, seed=4)
        report = train(net, toy_setup, cfg)
        assert report.epochs_run == 2
        assert len(report.train_loss) == 2
        assert len(report.val_loss) == 2
        assert len(report.train_accuracy) == 2
        assert len(report.val_accuracy) == 2
        assert report.test_loss is None and report.test_accuracy is None
        d = json.loads(report.to_json())
        assert set(d) >= {"train_loss", "val_loss", "train_accuracy",
                          "val_accuracy", "epochs"}
        text = report.to_text()
        assert "epoch" in text
        # four-decimal formatting in the table
        assert any(len(part.split(".")[-1]) == 4
                   for part in text.split() if "." in part)

    def test_non_finite_loss_written_as_null(self):
        report = TrainReport([1.5, float("nan")], [0.5, 0.25], [float("inf"), 2.0],
                             [0.5, 0.5], float("-inf"), 0.25)
        d = report.to_dict()
        assert d["train_loss"] == [1.5, None] and d["val_loss"] == [None, 2.0]
        assert d["test_loss"] is None and d["test_accuracy"] == 0.25

        def refuse(name):
            raise AssertionError(f"{name} in the report")

        assert json.loads(report.to_json(), parse_constant=refuse) == d

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # train silences the overflow
    def test_divergence_stops_training(self, toy_setup):
        net = build_network(len(toy_setup.class_names), seed=3)
        report = train(net, toy_setup, TrainConfig(epochs=3, batch_size=2, lr=1e30, seed=3))
        assert report.epochs_run == 1
        assert len(report.val_loss) == 1
        assert not np.isfinite(report.train_loss[0])

    def test_class_count_mismatch(self, toy_setup):
        net = build_network(len(toy_setup.class_names) + 1, seed=0)
        with pytest.raises(ConfigError):
            train(net, toy_setup, TrainConfig(epochs=1))

    def test_empty_validation_split_rejected(self, tmp_path):
        generate_corpus(tmp_path, per_class=2, seed=9)
        ds = load_dataset(tmp_path, split_ratios=(1.0, 0.0, 0.0), seed=0)
        net = build_network(len(ds.class_names), seed=0)
        with pytest.raises(DatasetError):
            train(net, ds, TrainConfig(epochs=1))

    def test_normalized_stats_near_standard(self, toy_setup):
        net = build_network(len(toy_setup.class_names), seed=6)
        cfg = TrainConfig(epochs=1, batch_size=4, lr=1e-4, seed=6)
        train(net, toy_setup, cfg)
        x, _ = split_arrays(toy_setup, "train", net.dtype)
        normed, _ = net.layers[1].forward(x.astype(np.float64))  # the Normalize layer
        assert abs(normed.mean()) < 1e-6
        assert abs(normed.var() - 1.0) < 1e-3

    def test_evaluate_matches_confusion(self, toy_setup):
        net = build_network(len(toy_setup.class_names), seed=8)
        x, y = split_arrays(toy_setup, "train", net.dtype)
        mean, var = fit_normalization([x])
        net.set_norm_stats(mean, var)
        loss, acc, cm = evaluate(net, x, y)
        assert cm.total == len(y)
        assert cm.accuracy == acc
        assert np.array_equal(cm.counts.sum(axis=1),
                              np.bincount(y, minlength=len(toy_setup.class_names)))
        assert loss > 0.0

    def test_evaluate_empty_rejected(self, toy_setup):
        net = build_network(len(toy_setup.class_names), seed=0)
        with pytest.raises(DatasetError):
            evaluate(net, np.zeros((0, 32, 32, 1), dtype=np.float32),
                     np.zeros(0, dtype=np.int64))


def test_default_train_step_peak_memory():
    # one batch-64 step of the default network: forward, backward, Adam.
    # The conv im2col is formed a few examples at a time and Adam works
    # in its own buffers, so no whole-batch patch matrix (58 MB for
    # conv2) or per-step Adam temporaries are allocated
    net = build_network(4, seed=0)
    params = net.parameters()
    state = AdamState.for_params(params)
    rng = np.random.default_rng(9)
    x = rng.uniform(0.0, 1.0, (64, 32, 32, 1)).astype(np.float32)
    labels = rng.integers(0, 4, 64)
    tracemalloc.start()
    try:
        logits, cache = net.forward(x, train=True)
        _, dlogits = softmax_cross_entropy_batch(logits, labels)
        adam_step(params, net.backward(cache, dlogits / 64), state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


class TestSpectrogramImages:
    def test_shape_and_dtype(self, toy_setup):
        clips = [AudioClip(row, 16000) for row in toy_setup.samples[:3]]
        images = clip_images(clips, np.float32)
        assert images.shape == (3, 32, 32, 1)
        assert images.dtype == np.float32

    def test_equals_resize_layer_of_full_size_stack(self):
        # the image is the bilinear resize rows @ spec @ cols.T of the
        # stacked full-size spectrograms, bit for bit, batched over the
        # stack, for every kind of clip predict sees
        rng = np.random.default_rng(12)
        stereo = rng.integers(-30000, 30000, 2 * 16000)
        clips = [
            AudioClip(rng.uniform(-1, 1, 16000), 16000),
            AudioClip(rng.uniform(-1, 1, 48000).astype(np.float32), 48000),
            parse_wav(make_wav_bytes(stereo, rate=16000, channels=2)),
            AudioClip(rng.uniform(-1, 1, 7000), 16000),
            AudioClip(rng.uniform(-1, 1, 12000), 48000),
        ]
        full = np.stack([stft_magnitude(canonical_clip(c)) for c in clips])
        rows, cols = (_interp_matrix(n, size, np.float32) for n, size in zip(full.shape[1:], RESIZE))
        expected = (rows @ full @ cols.T)[..., None]
        images = clip_images(clips)
        assert images.shape == expected.shape and images.dtype == expected.dtype
        assert np.array_equal(images, expected)

    def test_alone_equals_row_in_batch(self):
        rng = np.random.default_rng(13)
        clips = [AudioClip(rng.uniform(-1, 1, 16000), 16000) for _ in range(17)]
        batch = clip_images(clips)
        for i in (0, 8, 16):
            assert np.array_equal(clip_images([clips[i]])[0], batch[i])

    def test_split_arrays_holds_no_full_size_stack(self):
        # each clip is resized as it is imaged, so imaging 64 rows peaks
        # below one stack of their 124x129 spectrograms (4.1 MB)
        rng = np.random.default_rng(14)
        samples = rng.uniform(-1, 1, (64, 16000)).astype(np.float32)
        ds = LabeledDataset(samples, np.zeros(64, dtype=np.int64), ["a", "b"],
                            {"train": range(64)})
        clip_images([AudioClip(samples[0], 16000)])  # the cached bases come first
        tracemalloc.start()
        try:
            images, _ = split_arrays(ds, "train", np.float32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert images.shape == (64, 32, 32, 1)
        assert peak < 64 * 124 * 129 * 4
