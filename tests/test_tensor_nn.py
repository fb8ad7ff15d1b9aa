import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from cryalert.errors import ConfigError, ConsistencyError, LabelError, ShapeError
from cryalert.rng import STREAM_INIT, philox_stream
from cryalert.spectro import _interp_matrix
from cryalert.tensor_nn import (
    DROPOUT_RATES,
    Conv2D,
    Dense,
    Dropout,
    MaxPool2D,
    Normalize,
    Resize,
    _CONV_BLOCK,
    _glorot,
    _im2col,
    build_network,
    param_shapes,
    softmax,
    softmax_cross_entropy_batch,
)

from conftest import conv2d_loops, maxpool_loops, rel_error, toy_network


def central_diff(f, x, h=1e-6):
    """Elementwise central-difference gradient of scalar f wrt array x."""
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


def grad_close(analytic, numeric, tol=1e-6):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom)) < tol


def glorot(seed, shape, dtype=np.float64):
    """Weights drawn from the init stream of `seed`, as build_network draws them."""
    return _glorot(philox_stream(seed, STREAM_INIT), shape, dtype)


# Layers run on batches; these apply one to a single example as a batch of 1.

def resize(x, out_h, out_w):
    """Bilinear resize of an (h, w, c) image as clip_images applies it,
    rows @ plane @ cols.T for each channel plane."""
    rows = _interp_matrix(x.shape[0], out_h, x.dtype)
    cols = _interp_matrix(x.shape[1], out_w, x.dtype)
    return np.moveaxis(rows @ np.moveaxis(x, -1, 0) @ cols.T, 0, -1)


def conv_layer(kernel, bias):
    """A float64 Conv2D without ReLU that holds the given kernel and bias."""
    layer = Conv2D(kernel, use_relu=False)
    layer.bias = bias
    return layer


def conv(x, kernel, bias):
    return conv_layer(kernel, bias).forward(x[None])[0][0]


def conv_grads(x, kernel, dy):
    """(dx, dkernel, dbias) of a single-example conv."""
    layer = conv_layer(kernel, np.zeros(kernel.shape[-1]))
    _, cache = layer.forward(x[None])
    dx, (dk, db) = layer.backward(cache, dy[None])
    return dx[0], dk, db


def maxpool(x):
    return MaxPool2D().forward(x[None])[0][0]


def maxpool_grad(x, dy):
    layer = MaxPool2D()
    _, cache = layer.forward(x[None])
    return layer.backward(cache, dy[None])[0][0]


def pool_both_modes(layer, x, dy):
    """(y, dx) of a train-mode forward and backward (cache: the route),
    after checking them bit for bit against inference's (cache: x and y)."""
    y, route = layer.forward(x, train=True)
    dx, _ = layer.backward(route, dy)
    infer_y, cache = layer.forward(x)
    assert bitwise_equal(y, infer_y) and bitwise_equal(dx, layer.backward(cache, dy)[0])
    return y, dx


def dense_layer(weights, bias):
    """A Dense without ReLU that holds the given weights and bias."""
    layer = Dense(weights, use_relu=False)
    layer.bias = bias
    return layer


def dense(x, weights, bias):
    return dense_layer(weights, bias).forward(x[None])[0][0]


def dense_grads(x, weights, dy):
    """(dx, dweights, dbias) of a single-vector dense map."""
    layer = dense_layer(weights, np.zeros(weights.shape[1]))
    _, cache = layer.forward(x[None])
    dx, (dw, db) = layer.backward(cache, dy[None])
    return dx[0], dw, db


def softmax_ce(logits, label):
    """(loss, dlogits) for one logit vector."""
    losses, dlogits = softmax_cross_entropy_batch(logits[None], np.array([label]))
    return float(losses[0]), dlogits[0]


class TestResize:
    def test_identity_when_same_size(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 7, 2))
        assert np.array_equal(resize(x, 5, 7), x)

    def test_constant_stays_constant(self):
        x = np.full((11, 4, 1), 3.25)
        y = resize(x, 5, 9)
        assert np.allclose(y, 3.25, rtol=1e-12)

    def test_2x2_to_1x1_average(self):
        x = np.array([[[1.0], [2.0]], [[3.0], [4.0]]])
        assert resize(x, 1, 1)[0, 0, 0] == 2.5

    def test_downsamples_shape(self):
        x = np.zeros((124, 129, 1), dtype=np.float32)
        y = resize(x, 32, 32)
        assert y.shape == (32, 32, 1)
        assert y.dtype == np.float32
        # the matrices live in a shared read-only cache
        rows = _interp_matrix(124, 32, np.dtype(np.float32))
        assert rows is _interp_matrix(124, 32, np.dtype(np.float32))
        assert not rows.flags.writeable

    def test_bad_input_rank(self):
        net = build_network(4, seed=0)
        for shape in ((124, 129), (124,), (1, 1, 124, 129, 1)):
            with pytest.raises(ShapeError):
                net.forward(np.zeros(shape, dtype=np.float32))

    def test_gradient_matches_fd(self):
        # the network's Resize layer only checks the shape: the batch and
        # its gradient pass through
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 4, 5, 1))
        cot = rng.normal(size=(2, 4, 5, 1))
        layer = Resize(4, 5)
        y, cache = layer.forward(x)
        assert y is x and cache is None

        def loss():
            return float((layer.forward(x)[0] * cot).sum())

        dx, _ = layer.backward(cache, cot)
        assert grad_close(dx, central_diff(loss, x))


def tensordot_resize(x, rows, cols):
    """The double-tensordot resize: contract h with rows, then w with cols."""
    t = np.tensordot(rows, x, axes=(1, 1))        # (oh, n, w, c)
    y = np.tensordot(cols, t, axes=(1, 2))        # (ow, oh, n, c)
    return y.transpose(2, 1, 0, 3)


class TestResizeBatch:
    @pytest.mark.parametrize("channels", [1, 3])
    def test_matches_tensordot_formula(self, channels):
        rng = np.random.default_rng(41 + channels)
        x = rng.normal(size=(4, 13, 11, channels))
        rows, cols = _interp_matrix(13, 5), _interp_matrix(11, 7)
        y = np.stack([resize(image, 5, 7) for image in x])
        assert y.shape == (4, 5, 7, channels)
        assert rel_error(y, tensordot_resize(x, rows, cols)) < 1e-12


class TestConv:
    def test_ones_kernel_sums_window(self):
        x = np.ones((5, 5, 1))
        k = np.ones((3, 3, 1, 1))
        y = conv(x, k, np.zeros(1))
        assert y.shape == (3, 3, 1)
        assert np.array_equal(y[..., 0], np.full((3, 3), 9.0))

    def test_delta_kernel_crops(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 7, 1))
        k = np.zeros((3, 3, 1, 1))
        k[1, 1, 0, 0] = 1.0
        y = conv(x, k, np.zeros(1))
        assert np.allclose(y[..., 0], x[1:-1, 1:-1, 0], atol=1e-15)

    def test_bias_added_per_filter(self):
        x = np.zeros((4, 4, 2))
        k = np.zeros((3, 3, 2, 3))
        y = conv(x, k, np.array([1.0, -2.0, 0.5]))
        assert np.array_equal(y[0, 0], [1.0, -2.0, 0.5])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(8, 8, 2))
        k = rng.normal(size=(3, 3, 2, 4))
        b = rng.normal(size=4)
        assert rel_error(conv(x, k, b), conv2d_loops(x, k, b)) < 1e-10

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv(np.zeros((5, 5, 3)), np.zeros((3, 3, 2, 1)), np.zeros(1))

    def test_input_smaller_than_kernel(self):
        with pytest.raises(ShapeError):
            conv(np.zeros((2, 2, 1)), np.zeros((3, 3, 1, 1)), np.zeros(1))

    def test_backward_zero_cotangent(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 5, 2))
        k = rng.normal(size=(3, 3, 2, 2))
        dx, dk, db = conv_grads(x, k, np.zeros((3, 3, 2)))
        assert not dx.any() and not dk.any() and not db.any()

    def test_backward_single_window_kernel_grad_is_input(self):
        # with a 3x3 input and 3x3 kernel the output is 1x1, so dk = x * dy
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 3, 1))
        k = rng.normal(size=(3, 3, 1, 1))
        dy = np.full((1, 1, 1), 2.0)
        _, dk, db = conv_grads(x, k, dy)
        assert np.allclose(dk[..., 0], 2.0 * x, atol=1e-15)
        assert db[0] == 2.0

    def test_backward_matches_fd(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(6, 6, 2))
        k = rng.normal(size=(3, 3, 2, 3))
        b = rng.normal(size=3)
        cot = rng.normal(size=(4, 4, 3))

        def loss():
            return float((conv(x, k, b) * cot).sum())

        dx, dk, db = conv_grads(x, k, cot)
        assert grad_close(dx, central_diff(loss, x))
        assert grad_close(dk, central_diff(loss, k))
        assert grad_close(db, central_diff(loss, b))


class TestConvLayer:
    def test_batch_input_gradient_matches_fd(self):
        rng = np.random.default_rng(43)
        layer = Conv2D(glorot(43, (3, 3, 3, 2)), use_relu=False)
        x = rng.normal(size=(2, 6, 5, 3))
        cot = rng.normal(size=(2, 4, 3, 2))

        def loss():
            return float((layer.forward(x)[0] * cot).sum())

        _, cache = layer.forward(x)
        dx, _ = layer.backward(cache, cot)
        assert grad_close(dx, central_diff(loss, x))

    def test_input_grad_off_returns_none_and_same_param_grads(self):
        rng = np.random.default_rng(44)
        x = rng.normal(size=(2, 6, 6, 2))
        cot = rng.normal(size=(2, 4, 4, 3))
        grads = []
        for input_grad in (True, False):
            layer = Conv2D(glorot(44, (3, 3, 2, 3)), input_grad=input_grad)
            _, cache = layer.forward(x)
            dx, g = layer.backward(cache, cot)
            assert (dx is None) is (not input_grad)
            grads.append(g)
        for a, b in zip(*grads):
            assert np.array_equal(a, b)


class TestBlockedConv:
    """The conv walks the batch in blocks of _CONV_BLOCK examples; batch
    sizes below, just over and past two blocks check the block edges."""

    @pytest.mark.parametrize("n", [1, _CONV_BLOCK + 1, 2 * _CONV_BLOCK + 3])
    @pytest.mark.parametrize("use_relu", [False, True])
    @pytest.mark.parametrize("input_grad", [True, False])
    def test_matches_loop_oracle_and_fd(self, n, use_relu, input_grad):
        rng = np.random.default_rng(48 + n)
        layer = Conv2D(glorot(48, (3, 3, 2, 3)), use_relu=use_relu,
                       input_grad=input_grad)
        layer.bias = rng.normal(size=3)
        x = rng.normal(size=(n, 5, 6, 2))
        cot = rng.normal(size=(n, 3, 4, 3))

        y, cache = layer.forward(x)
        want = np.stack([conv2d_loops(ex, layer.kernel, layer.bias) for ex in x])
        if use_relu:
            want = np.maximum(want, 0.0)
        assert rel_error(y, want) < 1e-10

        def loss():
            return float((layer.forward(x)[0] * cot).sum())

        # h = 1e-5 keeps the rounding of a loss summed over many examples
        # below the tolerance; away from ReLU kinks the loss is linear in
        # each input, so the larger step costs no truncation error
        dx, (dk, db) = layer.backward(cache, cot)
        assert grad_close(dk, central_diff(loss, layer.kernel, h=1e-5))
        assert grad_close(db, central_diff(loss, layer.bias, h=1e-5))
        if not input_grad:
            assert dx is None
            return
        for k in range(n):  # example k's dx depends on its own output only
            def example_loss():
                return float((layer.forward(x)[0][k] * cot[k]).sum())

            assert grad_close(dx[k], central_diff(example_loss, x[k], h=1e-5))

    def test_cache_holds_only_input_and_output(self):
        layer = Conv2D(glorot(49, (3, 3, 2, 3), np.float32))
        x = np.random.default_rng(49).normal(size=(3, 6, 6, 2)).astype(np.float32)
        y, cache = layer.forward(x)
        assert len(cache) == 2
        assert cache[0] is x and cache[1] is y


def im2col_window_view(x, kh, kw):
    """Patch matrix oracle: numpy's sliding-window view, transposed to
    window-major (kh, kw, c) order and copied by the reshape."""
    v = sliding_window_view(x, (kh, kw), axis=(1, 2))  # (n, oh, ow, c, kh, kw)
    return v.transpose(0, 1, 2, 4, 5, 3).reshape(-1, kh * kw * x.shape[3])


class TestIm2col:
    """_im2col builds its window view from x.strides, so inputs that are
    not C-contiguous are checked as well as fresh arrays."""

    @pytest.mark.parametrize("c", [1, 3, 32])
    @pytest.mark.parametrize("n", [1, 3, 5])
    @pytest.mark.parametrize("kh, kw", [(3, 3), (2, 3)])
    def test_bitwise_equal_to_window_view(self, n, c, kh, kw):
        rng = np.random.default_rng(60 + 7 * n + c)
        base = rng.normal(size=(n + 2, 7, 9, 2 * c)).astype(np.float32)  # h != w
        inputs = {
            "contiguous": np.ascontiguousarray(base[:n, :, :, :c]),
            "batch slice": base[1:n + 1, :, :, :c],
            "rows reversed": base[:n, ::-1, :, :c],
            "every other column": base[:n, :, ::2, :c],
            "every other channel": base[:n, :, :, ::2],
        }
        for name, x in inputs.items():
            cols = _im2col(x, kh, kw)
            want = im2col_window_view(x, kh, kw)
            assert cols.flags.c_contiguous and not np.shares_memory(cols, x), name
            assert bitwise_equal(cols, want), name


class TestMaxPool:
    def test_known_window(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])[..., None]
        assert maxpool(x)[0, 0, 0] == 4.0
        # the gradient goes to the winner, row-major position (1, 1)
        dx = maxpool_grad(x, np.ones((1, 1, 1)))
        assert np.array_equal(dx[..., 0], [[0.0, 0.0], [0.0, 1.0]])

    def test_tie_goes_to_first(self):
        x = np.full((2, 2, 1), 7.0)
        assert maxpool(x)[0, 0, 0] == 7.0
        dx = maxpool_grad(x, np.ones((1, 1, 1)))
        assert np.array_equal(dx[..., 0], [[1.0, 0.0], [0.0, 0.0]])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(12, 10, 3))
        assert np.array_equal(maxpool(x), maxpool_loops(x))

    def test_odd_dims_rejected(self):
        with pytest.raises(ShapeError):
            maxpool(np.zeros((5, 4, 1)))

    def test_output_dominates_window(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(8, 8, 2))
        y = maxpool(x)
        for i in range(4):
            for j in range(4):
                for c in range(2):
                    assert y[i, j, c] == x[2*i:2*i+2, 2*j:2*j+2, c].max()

    def test_backward_routes_to_argmax(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])[..., None]
        dx = maxpool_grad(x, np.full((1, 1, 1), 5.0))
        assert np.array_equal(dx[..., 0], [[0.0, 0.0], [0.0, 5.0]])

    def test_backward_matches_fd_on_distinct_values(self):
        rng = np.random.default_rng(9)
        x = rng.permutation(48).astype(np.float64).reshape(6, 4, 2)
        cot = rng.normal(size=(3, 2, 2))

        def loss():
            return float((maxpool(x) * cot).sum())

        dx = maxpool_grad(x, cot)
        assert grad_close(dx, central_diff(loss, x))


class TestMaxPoolLayer:
    """Each oracle checks both caches: a train-mode forward keeps the
    uint8 route, inference keeps (x, y)."""

    def test_batch_matches_loop_oracle_and_ties_go_first(self):
        rng = np.random.default_rng(45)
        # values from {0, 1, 2} make many windows hold a tied max
        x = rng.integers(0, 3, size=(3, 6, 8, 4)).astype(np.float32)
        dy = rng.normal(size=(3, 3, 4, 4)).astype(np.float32)
        y, dx = pool_both_modes(MaxPool2D(), x, dy)
        for i in range(3):
            assert np.array_equal(y[i], maxpool_loops(x[i]))

        expected = np.zeros_like(x)
        ties = 0
        for n, i, j, c in np.ndindex(*y.shape):
            window = x[n, 2 * i:2 * i + 2, 2 * j:2 * j + 2, c].ravel()
            winners = np.flatnonzero(window == window.max())
            ties += len(winners) > 1
            first = int(winners[0])
            expected[n, 2 * i + first // 2, 2 * j + first % 2, c] = dy[n, i, j, c]
        assert ties > 20
        assert np.array_equal(dx, expected)

    def test_layer_and_single_example_agree(self):
        # each example of a batch against a per-example argmax formula
        rng = np.random.default_rng(46)
        x = rng.integers(0, 2, size=(3, 4, 4, 2)).astype(np.float64)
        dy = rng.normal(size=(3, 2, 2, 2))
        layer_y, layer_dx = pool_both_modes(MaxPool2D(), x, dy)
        for n in range(3):
            # (2, 2, c, 4): each 2x2 window flattened in row-major order
            windows = (x[n].reshape(2, 2, 2, 2, 2).transpose(0, 2, 4, 1, 3)
                       .reshape(2, 2, 2, 4))
            assert np.array_equal(layer_y[n], windows.max(axis=-1))
            first = windows.argmax(axis=-1)  # argmax picks the first of a tie
            dx = np.zeros((4, 4, 2))
            for i, j, c in np.ndindex(2, 2, 2):
                w = first[i, j, c]
                dx[2 * i + w // 2, 2 * j + w % 2, c] = dy[n, i, j, c]
            assert np.array_equal(layer_dx[n], dx)


def bitwise_equal(a, b):
    """Same dtype, shape and bytes, so -0.0 and 0.0 differ."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestMaxPoolRelu:
    def test_matches_loop_oracle(self):
        # ReLU of the pooled max; the gradient goes to the first position
        # holding that max, and nowhere when the max is <= 0
        rng = np.random.default_rng(48)
        x = rng.integers(-2, 2, size=(3, 6, 8, 4)).astype(np.float32)
        dy = rng.normal(size=(3, 3, 4, 4)).astype(np.float32)
        y, dx = pool_both_modes(MaxPool2D(use_relu=True), x, dy)

        expected_y = np.zeros_like(y)
        expected_dx = np.zeros_like(x)
        seen = {"tie": 0, "zero": 0, "negative": 0}
        for n, i, j, c in np.ndindex(*y.shape):
            window = [x[n, 2 * i + a, 2 * j + b, c] for a in range(2) for b in range(2)]
            top = max(window)
            expected_y[n, i, j, c] = max(top, 0.0)
            if top < 0:
                seen["negative"] += 1
            elif top == 0:
                seen["zero"] += 1
            else:
                seen["tie"] += window.count(top) > 1
                first = window.index(top)
                expected_dx[n, 2 * i + first // 2, 2 * j + first % 2, c] = dy[n, i, j, c]
        assert min(seen.values()) > 5, seen
        assert np.array_equal(y, expected_y)
        assert np.array_equal(dx, expected_dx)

    @pytest.mark.parametrize("use_relu", [False, True])
    def test_nan_window_gets_no_gradient(self, use_relu):
        x = np.array([[[[1.0], [np.nan]], [[3.0], [2.0]]],
                      [[[1.0], [4.0]], [[3.0], [2.0]]]], dtype=np.float32)
        y, dx = pool_both_modes(MaxPool2D(use_relu=use_relu), x, np.ones((2, 1, 1, 1), np.float32))
        assert np.isnan(y[0, 0, 0, 0]) and y[1, 0, 0, 0] == 4.0
        assert not dx[0].any() and dx[1, 0, 1, 0] == 1.0 and dx[1].sum() == 1.0


class _EveryUint16:
    """An rng stand-in whose integers() yields 0, 1, ..., 65535 in turn."""

    def integers(self, low, high, size, dtype):
        assert (low, high, dtype) == (0, 1 << 16, np.uint16)
        return (np.arange(np.prod(size)) % (1 << 16)).astype(dtype).reshape(size)


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = np.arange(6.0).reshape(1, 6)
        y, _ = Dropout(0.0).forward(x, train=True, rng=np.random.default_rng(0))
        assert y is x

    def test_infer_mode_is_identity_and_consumes_nothing(self):
        rng = philox_stream(1, 0)
        before = rng.bit_generator.state["state"]["counter"].copy()
        x = np.arange(6.0).reshape(1, 6)
        assert Dropout(0.5).forward(x, train=False, rng=rng)[0] is x
        assert np.array_equal(rng.bit_generator.state["state"]["counter"], before)

    def test_bad_rates(self):
        for rate in (-0.1, 1.0, 1.5, float("nan")):
            with pytest.raises(ConfigError):
                Dropout(rate)

    def test_rate_that_would_drop_everything_rejected(self):
        # rates in [1 - 2**-17, 1) round their 16-bit threshold up to
        # 65536, which no uint16 reaches
        for rate in (1 - 2**-17, 1 - 2**-20, np.nextafter(1.0, 0.0)):
            with pytest.raises(ConfigError):
                Dropout(rate)
        layer = Dropout(np.nextafter(1 - 2**-17, 0.0))
        every = _EveryUint16()
        y, _ = layer.forward(np.ones((1, 1 << 16), np.float32), train=True, rng=every)
        assert np.count_nonzero(y) == 1

    @pytest.mark.parametrize("rate", DROPOUT_RATES)
    def test_keep_probability_is_exactly_one_minus_rate(self, rate):
        # fed every 16-bit value once, the layer keeps exactly 1 - rate of them
        layer = Dropout(rate)
        x = np.ones((4, 1 << 14), np.float32)
        y, (keep, scale) = layer.forward(x, train=True, rng=_EveryUint16())
        assert keep.dtype == np.bool_ and keep.shape == x.shape
        assert keep.mean() == 1 - rate
        assert scale == np.float32(1 / (1 - rate))
        assert np.array_equal(y, np.where(keep, np.float32(1 / (1 - rate)), 0))

    def test_train_needs_rng(self):
        with pytest.raises(ConfigError):
            Dropout(0.5).forward(np.zeros((1, 3)), train=True, rng=None)

    def test_survivors_scaled(self):
        x = np.ones((1, 1000))
        y, _ = Dropout(0.25).forward(x, train=True, rng=np.random.default_rng(3))
        kept = y[y != 0]
        assert np.allclose(kept, 1.0 / 0.75)

    def test_mean_preserved(self):
        x = np.ones((1, 100_000))
        y, _ = Dropout(0.5).forward(x, train=True, rng=np.random.default_rng(4))
        assert abs(y.mean() - 1.0) < 0.02

    def test_layer_backward_reuses_mask(self):
        layer = Dropout(0.5)
        x = np.ones((2, 50), dtype=np.float64)
        y, cache = layer.forward(x, train=True, rng=np.random.default_rng(5))
        dx, _ = layer.backward(cache, np.ones_like(x))
        # gradient passes exactly where the activation survived, same scale
        assert np.array_equal(dx, y)

    def test_backward_is_dy_times_mask_times_scale(self):
        layer = Dropout(0.25)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 40)).astype(np.float32)
        dy = rng.normal(size=(3, 40)).astype(np.float32)
        y, cache = layer.forward(x, train=True, rng=philox_stream(6, 0))
        dx, _ = layer.backward(cache, dy)
        # the same stream redraws the mask: a uint16 per element, kept
        # where it is at least round(0.25 * 65536)
        draws = philox_stream(6, 0).integers(0, 1 << 16, x.shape, dtype=np.uint16)
        mask = (draws >= 16384).astype(np.float32)
        scale = np.float32(1.0 / 0.75)
        assert np.array_equal(y, x * mask * scale)
        assert np.array_equal(dx, dy * mask * scale)

    def test_layer_infer_identity(self):
        layer = Dropout(0.5)
        x = np.arange(12.0).reshape(3, 4)
        y, cache = layer.forward(x, train=False)
        assert y is x
        dx, _ = layer.backward(cache, x)
        assert dx is x


class TestDense:
    def test_identity_weights(self):
        y = dense(np.array([1.0, 2.0]), np.eye(2), np.array([10.0, 10.0]))
        assert np.array_equal(y, [11.0, 12.0])

    def test_matches_manual_dot(self):
        rng = np.random.default_rng(10)
        x, w, b = rng.normal(size=6), rng.normal(size=(6, 4)), rng.normal(size=4)
        expected = np.array([x @ w[:, j] + b[j] for j in range(4)])
        assert np.allclose(dense(x, w, b), expected, atol=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            dense(np.zeros(3), np.zeros((4, 2)), np.zeros(2))

    def test_backward_matches_fd(self):
        rng = np.random.default_rng(11)
        x, w, b = rng.normal(size=8), rng.normal(size=(8, 5)), rng.normal(size=5)
        cot = rng.normal(size=5)

        def loss():
            return float((dense(x, w, b) * cot).sum())

        dx, dw, db = dense_grads(x, w, cot)
        assert grad_close(dx, central_diff(loss, x))
        assert grad_close(dw, central_diff(loss, w))
        assert grad_close(db, central_diff(loss, b))
        assert np.array_equal(db, cot)

    def test_fused_relu_matches_oracle_and_fd(self):
        rng = np.random.default_rng(13)
        layer = Dense(glorot(13, (6, 5)))
        layer.bias = rng.normal(size=5)
        x = rng.normal(size=(3, 6))
        cot = rng.normal(size=(3, 5))
        y, cache = layer.forward(x)
        want = np.maximum(x @ layer.weights + layer.bias, 0.0)
        assert np.array_equal(y, want)
        assert 0 < np.count_nonzero(y) < y.size  # both sides of the kink

        def loss():
            return float((layer.forward(x)[0] * cot).sum())

        dx, (dw, db) = layer.backward(cache, cot)
        assert grad_close(dx, central_diff(loss, x))
        assert grad_close(dw, central_diff(loss, layer.weights))
        assert grad_close(db, central_diff(loss, layer.bias))

    def test_backward_sampled_at_production_width(self):
        # spot-check the 12544 -> 128 layer on a random subset of weights
        rng = np.random.default_rng(12)
        x = rng.normal(size=12544)
        w = rng.normal(size=(12544, 128)) * 0.01
        b = np.zeros(128)
        cot = rng.normal(size=128)
        _, dw, _ = dense_grads(x, w, cot)
        layer = dense_layer(w, b)

        def loss():
            return float((layer.forward(x[None])[0][0] * cot).sum())

        h = 1e-6
        for _ in range(60):
            i = rng.integers(12544)
            j = rng.integers(128)
            old = w[i, j]
            w[i, j] = old + h
            hi = loss()
            w[i, j] = old - h
            lo = loss()
            w[i, j] = old
            num = (hi - lo) / (2 * h)
            denom = max(abs(num), abs(dw[i, j]), 1e-8)
            assert abs(num - dw[i, j]) / denom < 1e-4


class TestNormalize:
    def test_layers_pass_missing_gradient_through(self):
        assert Normalize(1.0, 2.0).backward(None, None) == (None, [])
        assert Resize(2, 2).backward(None, None) == (None, [])

    def test_formula(self):
        x = np.array([[0.0, 2.0]])
        y, _ = Normalize(1.0, 1.0).forward(x)
        assert np.allclose(y, (x - 1.0) / np.sqrt(1.0 + 1e-6), atol=1e-15)

    def test_constant_maps_to_zero(self):
        y, _ = Normalize(3.0, 0.0).forward(np.full((1, 5), 3.0))
        assert np.allclose(y, 0.0)

    def test_negative_variance_rejected(self):
        nan, inf = float("nan"), float("inf")
        # a NaN or infinite statistic would make every prediction NaN
        for mean, variance in [(0.0, -1.0), (nan, 1.0), (inf, 1.0), (0.0, nan), (0.0, inf)]:
            with pytest.raises(ConfigError):
                Normalize(mean, variance)

    def test_layer_gradient_is_inverse_scale(self):
        layer = Normalize(mean=2.0, variance=4.0)
        dy = np.ones((1, 2, 2, 1))
        dx, _ = layer.backward(None, dy)
        assert np.allclose(dx, 1.0 / np.sqrt(4.0 + 1e-6), atol=1e-12)


class TestSoftmaxCrossEntropy:
    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(13)
        z = rng.normal(size=(7, 5)) * 10
        assert np.allclose(softmax(z).sum(axis=-1), 1.0, atol=1e-12)

    def test_softmax_shift_invariant(self):
        rng = np.random.default_rng(14)
        z = rng.normal(size=9)
        assert np.allclose(softmax(z), softmax(z + 123.456), atol=1e-12)

    def test_uniform_logits_give_log_c(self):
        loss, dlogits = softmax_ce(np.zeros(4), 0)
        assert abs(loss - np.log(4.0)) < 1e-12
        assert np.allclose(dlogits, [0.25 - 1.0, 0.25, 0.25, 0.25], atol=1e-12)

    def test_saturated_correct_logit(self):
        z = np.zeros(4)
        z[2] = 100.0
        loss, _ = softmax_ce(z, 2)
        assert 0.0 <= loss < 1e-40

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(15)
        z = rng.normal(size=6)
        _, dlogits = softmax_ce(z, 3)
        expected = softmax(z).copy()
        expected[3] -= 1.0
        assert np.allclose(dlogits, expected, atol=1e-12)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(16)
        z = rng.normal(size=5)

        def loss():
            return softmax_ce(z, 1)[0]

        _, dlogits = softmax_ce(z, 1)
        assert grad_close(dlogits, central_diff(loss, z))

    def test_label_out_of_range(self):
        for label in (-1, 4):
            with pytest.raises(LabelError):
                softmax_ce(np.zeros(4), label)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(17)
        z = rng.normal(size=(6, 4))
        labels = np.array([0, 1, 2, 3, 1, 2])
        losses, dlogits = softmax_cross_entropy_batch(z, labels)
        for i in range(6):
            # per row: log-sum-exp minus the label's logit, softmax minus one-hot
            e = np.exp(z[i])
            loss_i = np.log(e.sum()) - z[i, labels[i]]
            d_i = e / e.sum()
            d_i[labels[i]] -= 1.0
            assert abs(losses[i] - loss_i) < 1e-12
            assert np.allclose(dlogits[i], d_i, atol=1e-12)

    def test_batch_label_out_of_range(self):
        with pytest.raises(LabelError):
            softmax_cross_entropy_batch(np.zeros((2, 3)), np.array([0, 3]))


CANONICAL_CHAIN = [
    (32, 32, 1),
    (32, 32, 1),
    (30, 30, 32),
    (28, 28, 64),
    (14, 14, 64),
    (14, 14, 64),
    (12544,),
    (128,),
    (128,),
    (4,),
]


class TestNetwork:
    def test_canonical_shape_chain(self):
        net = build_network(4, seed=0)
        rng = np.random.default_rng(18)
        x = rng.uniform(0, 1, (1, 32, 32, 1)).astype(np.float32)
        logits, _ = net.forward(x)
        assert logits.shape == (1, 4)
        shapes = []
        for layer in net.layers:  # each layer's output shape, batch axis dropped
            x = layer.forward(x)[0]
            shapes.append(x.shape[1:])
        assert shapes == CANONICAL_CHAIN

    def test_parameter_inventory(self):
        net = build_network(4, seed=0)
        params = net.parameters()
        assert [p.shape for p in params] == [
            (3, 3, 1, 32), (32,), (3, 3, 32, 64), (64,),
            (12544, 128), (128,), (128, 4), (4,),
        ]
        assert sum(p.size for p in params) == 1_625_092

    @pytest.mark.parametrize("class_count", [2, 3, 4])
    def test_param_shapes_match_built_network(self, class_count):
        net = build_network(class_count, seed=0)
        assert param_shapes(class_count) == [p.shape for p in net.parameters()]

    def test_dtype_and_class_count_come_from_the_parameters(self):
        toy = toy_network()
        assert toy.dtype == np.float64 and toy.class_count == 3
        assert toy_network(class_count=5).class_count == 5
        net = build_network(4)
        assert net.dtype == np.float32 and net.class_count == 4
        assert net.parameters()[-1] is net.layers[-1].bias

    def test_toy_network_has_build_networks_layout(self):
        # the finite-difference toy differs from the real stack only in its
        # widths, dtype and class count
        def layout(net):
            return [(type(layer), getattr(layer, "use_relu", None),
                     getattr(layer, "input_grad", None), getattr(layer, "rate", None))
                    for layer in net.layers]

        assert layout(toy_network()) == layout(build_network(4))

    @pytest.mark.parametrize("batch", [64, 1])
    def test_relu_after_pool_matches_old_layout_bitwise(self, batch):
        # the old stack, conv2(relu) -> maxpool, built from one network's
        # parameters, gives the same logits and gradients bit for bit.
        # Integer pixels and conv weights, with normalization by exactly 2,
        # keep every conv output exact, so conv2's output has all-negative
        # windows, zero maxima and tied maxima.
        rng = np.random.default_rng(50)
        params = build_network(4, seed=50).parameters()
        for i, (low, high) in enumerate([(-1, 2), (-2, 2), (-1, 2), (-40, 10)]):
            params[i] = rng.integers(low, high, params[i].shape).astype(np.float32)
        net = build_network(4, seed=50, params=params)
        old = build_network(4, seed=50, params=params)
        old.layers[3] = Conv2D(params[2], bias=params[3])
        old.layers[4] = MaxPool2D()
        for n in (net, old):
            n.set_norm_stats(0.0, 0.25 - Normalize.EPS)
        x = rng.integers(0, 3, (batch, 32, 32, 1)).astype(np.float32)
        labels = rng.integers(0, 4, batch)

        def step(n):
            logits, cache = n.forward(x, train=True)
            _, dlogits = softmax_cross_entropy_batch(logits, labels)
            return logits, cache, n.backward(cache, dlogits / batch)

        logits, cache, grads = step(net)
        old_logits, _, old_grads = step(old)
        assert bitwise_equal(logits, old_logits)
        assert len(grads) == len(old_grads) == 8
        for g, old_g in zip(grads, old_grads):
            assert bitwise_equal(g, old_g)

        z = net.layers[3].forward(cache.layer_caches[3][0])[0]  # conv2's output, before its ReLU
        windows = np.stack([z[:, i::2, j::2] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1))])
        top = windows.max(axis=0)
        ties = ((windows == top).sum(axis=0) > 1) & (top > 0)
        assert (top < 0).any() and (top == 0).any() and ties.any()

    def test_train_cache_holds_no_pool_input_or_conv2_output(self):
        # a train-mode forward keeps each layer's input where backward reads
        # it, but neither conv2's output (the pool's input) nor the pooled
        # output: the pool keeps one uint8 route per output instead
        net = build_network(4, seed=51)
        x = np.random.default_rng(51).uniform(0, 1, (64, 32, 32, 1)).astype(np.float32)
        _, cache = net.forward(x, train=True)
        held = {}  # id -> nbytes of each distinct buffer the caches reach
        for layer_cache in cache.layer_caches:
            for a in layer_cache if isinstance(layer_cache, tuple) else (layer_cache,):
                if isinstance(a, np.ndarray):
                    buffer = a if a.base is None else a.base
                    held[id(buffer)] = buffer.nbytes
        conv2_x, conv2_y = cache.layer_caches[3]
        assert conv2_x.nbytes == 64 * 30 * 30 * 32 * 4 and conv2_y is None
        route = cache.layer_caches[4]
        assert route.dtype == np.uint8 and route.shape == (64, 14, 14, 64)
        assert sorted(held.values()) == sorted([
            64 * 32 * 32 * 1 * 4,  # conv1's input
            64 * 30 * 30 * 32 * 4,  # conv1's output, conv2's input
            64 * 14 * 14 * 64,  # the pool's route
            64 * 14 * 14 * 64,  # dropout1's keep mask
            64 * 14 * 14 * 64 * 4,  # dropout1's output, dense1's input
            64 * 128 * 4,  # dense1's output
            64 * 128,  # dropout2's keep mask
            64 * 128 * 4,  # dropout2's output, dense2's input
        ])

    def test_glorot_bounds_and_zero_biases(self):
        net = build_network(4, seed=9)
        conv1, conv2 = net.layers[2], net.layers[3]
        d1, d2 = net.layers[7], net.layers[9]
        for arr, fan_in, fan_out in [
            (conv1.kernel, 9, 9 * 32),
            (conv2.kernel, 9 * 32, 9 * 64),
            (d1.weights, 12544, 128),
            (d2.weights, 128, 4),
        ]:
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.max(np.abs(arr)) <= limit
            assert np.std(arr) > 0
        for b in (conv1.bias, conv2.bias, d1.bias, d2.bias):
            assert not b.any()

    def test_init_reproducible_and_seed_sensitive(self):
        a = build_network(4, seed=5)
        b = build_network(4, seed=5)
        c = build_network(4, seed=6)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa, pb)
        assert not np.array_equal(a.parameters()[0], c.parameters()[0])

    def test_init_draw_order_is_documented(self):
        # conv1, conv2, dense1, dense2 pull from one stream in that order
        net = build_network(4, seed=77)
        rng = philox_stream(77, STREAM_INIT)
        for shape, fan_in, fan_out in [
            ((3, 3, 1, 32), 9, 288),
            ((3, 3, 32, 64), 288, 576),
            ((12544, 128), 12544, 128),
            ((128, 4), 128, 4),
        ]:
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            expected = rng.uniform(-limit, limit, shape).astype(np.float32)
            match = [p for p in net.parameters() if p.shape == shape]
            assert np.array_equal(match[0], expected)

    def test_wrong_input_shape(self):
        # only clip_images' (n, 32, 32, 1) batch is an input, not a full-size
        # (124, 129) spectrogram
        net = build_network(4, seed=0)
        for shape in ((100, 129, 1), (1, 100, 129, 3), (1, 0, 129, 1), (1, 100, 0, 1),
                      (1, 124, 129, 1), (32, 32, 1), (1, 32, 32, 3)):
            with pytest.raises(ShapeError):
                net.forward(np.zeros(shape, dtype=np.float32))

    def test_any_image_size_accepted(self):
        # a spectrogram of any size reaches the network through the
        # bilinear resize clip_images applies; the network sees 32x32 only
        net = build_network(4, seed=3)
        resize_layer = net.layers[0]
        rng = np.random.default_rng(3)
        for shape in ((2, 100, 129, 1), (1, 372, 257, 1), (3, 5, 7, 1)):
            spec = rng.uniform(0, 1, shape).astype(np.float32)
            x = np.stack([resize(image, 32, 32) for image in spec])
            logits, cache = net.forward(x, train=True)
            assert logits.shape == (shape[0], 4)
            grads = net.backward(cache, np.ones_like(logits))
            assert [g.shape for g in grads] == [p.shape for p in net.parameters()]
        # the matrices live in spectro's shared read-only cache, not on the layer
        assert vars(resize_layer) == {"out_h": 32, "out_w": 32}
        rows = _interp_matrix(5, 32, np.dtype(np.float32))
        assert rows is _interp_matrix(5, 32, np.dtype(np.float32))
        assert not rows.flags.writeable

    def test_infer_deterministic_despite_dropout(self):
        net = build_network(4, seed=1)
        x = np.ones((1, 32, 32, 1), dtype=np.float32)
        first, _ = net.forward(x)
        net.forward(np.ones((2, 32, 32, 1), dtype=np.float32), train=True)
        second, _ = net.forward(x)
        assert np.array_equal(first, second)

    def test_train_mode_same_seed_bitwise_gradients(self):
        def run():
            net = build_network(4, seed=21)
            rng = np.random.default_rng(0)
            x = rng.uniform(0, 1, (4, 32, 32, 1)).astype(np.float32)
            labels = np.array([0, 1, 2, 3])
            logits, cache = net.forward(x, train=True)
            _, dlogits = softmax_cross_entropy_batch(logits, labels)
            return net.backward(cache, dlogits / 4)

        for ga, gb in zip(run(), run()):
            assert np.array_equal(ga, gb)

    def test_backward_zero_cotangent_gives_zero_grads(self):
        net = build_network(4, seed=2)
        x = np.ones((2, 32, 32, 1), dtype=np.float32)
        _, cache = net.forward(x)
        grads = net.backward(cache, np.zeros((2, 4), dtype=np.float32))
        assert all(not g.any() for g in grads)

    def test_stale_cache_rejected(self):
        a = build_network(4, seed=0)
        b = build_network(4, seed=0)
        x = np.zeros((1, 32, 32, 1), dtype=np.float32)
        _, cache = a.forward(x)
        with pytest.raises(ConsistencyError):
            b.backward(cache, np.zeros((1, 4), dtype=np.float32))

    def test_mismatched_dlogits_rejected(self):
        net = build_network(4, seed=0)
        _, cache = net.forward(np.zeros((2, 32, 32, 1), dtype=np.float32))
        with pytest.raises(ConsistencyError):
            net.backward(cache, np.zeros((3, 4), dtype=np.float32))
        with pytest.raises(ConsistencyError):
            net.backward(cache, np.zeros((2, 5), dtype=np.float32))

    def test_class_count_below_two_rejected(self):
        with pytest.raises(ConfigError):
            build_network(1)

    def test_norm_stats_plumbing(self):
        net = build_network(4, seed=0)
        assert net.norm_stats == (0.0, 1.0)
        net.set_norm_stats(1.5, 2.0)
        assert net.norm_stats == (1.5, 2.0)
        with pytest.raises(ConfigError):
            net.set_norm_stats(0.0, -1.0)

    def test_first_conv_skips_input_gradient(self):
        net = build_network(4, seed=21)
        conv1, conv2 = net.layers[2], net.layers[3]
        assert not conv1.input_grad and conv2.input_grad
        x = np.random.default_rng(47).uniform(0, 1, (4, 32, 32, 1)).astype(np.float32)
        logits, cache = net.forward(x, train=True)
        _, dlogits = softmax_cross_entropy_batch(logits, np.array([0, 1, 2, 3]))
        dlogits /= 4
        dy = np.ones((4, 30, 30, 32), dtype=np.float32)
        assert conv1.backward(cache.layer_caches[2], dy)[0] is None

        skipped = net.backward(cache, dlogits)
        conv1.input_grad = True  # a stack whose first conv still computes dx
        full = net.backward(cache, dlogits)
        assert len(skipped) == len(full) == len(net.parameters())
        for a, b in zip(skipped, full):
            assert np.array_equal(a, b)

    def test_end_to_end_gradient_reduced_toy(self):
        # reduced widths keep every parameter reachable by finite differences
        net = toy_network()
        rng = np.random.default_rng(34)
        x = rng.uniform(0, 1, (1, 8, 8, 1))
        label = np.array([1])

        def loss():
            logits, _ = net.forward(x, train=False)
            return float(softmax_cross_entropy_batch(logits, label)[0][0])

        logits, cache = net.forward(x, train=False)
        _, dlogits = softmax_cross_entropy_batch(logits, label)
        grads = net.backward(cache, dlogits)
        params = net.parameters()
        assert len(grads) == len(params)
        for p, g in zip(params, grads):
            numeric = central_diff(loss, p, h=1e-5)
            assert grad_close(g, numeric, tol=1e-4), p.shape
