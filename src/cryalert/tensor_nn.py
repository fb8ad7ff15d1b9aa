"""From-scratch CNN: batch-first layers, their kernels and the Network stack.

Tensors are plain numpy ndarrays in row-major order.  Every layer works
on batches, images as (n, height, width, channels) and feature vectors
as (n, features); a single example is a batch of one.  The Network
takes only spectro.clip_images' (n, 32, 32, 1) batch: its first layer,
Resize, checks that shape and passes the batch on unchanged; it stays
in the stack for the benchmark's resize spans.  Every layer implements
forward(x, train, rng) -> (y, cache) and
backward(cache, dy) -> (dx, param_grads); caches are explicit values
rather than layer state, so a Network can serve concurrent inference
without synchronization.  The first conv has no parameter layer before
it, so it returns dx=None, and the parameter-free layers under it pass
that None down.

A layer caches only what its backward reads: a conv or dense layer its
input, and its output only under a fused ReLU; a train-mode dropout its
keep mask; a train-mode max pool one uint8 route per output (the window
position its gradient goes to), so a training step holds neither conv2's
output nor the pooled output.  An inference-mode pool caches its input
and output, from which backward derives the same route.  A conv's im2col
patch matrix is one copy of a strided window view of _CONV_BLOCK
examples, multiplied straight into the output in forward and formed
again from the cached input in backward, so no batch-sized patch matrix
is ever held.

The canonical stack is resize (that input check) -> normalize ->
conv(relu) -> conv -> maxpool(relu) -> dropout -> flatten -> dense(relu)
-> dropout -> dense; conv2's ReLU follows the pool, on 4x fewer elements,
as max and ReLU commute.  The layout is fixed by module constants, and
param_shapes gives the parameter shapes from the class count alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, ConsistencyError, LabelError, ShapeError
from .rng import STREAM_DROPOUT, STREAM_INIT, philox_stream

# the paper's 3x3 kernels, and its dropout after the pool and after dense1
KERNEL_SIZE = 3
DROPOUT_RATES = (0.25, 0.5)
# the TensorFlow audio tutorial's resize, conv widths and dense width
RESIZE = (32, 32)
CONV_FILTERS = (32, 64)
DENSE_UNITS = 128

# ---------------------------------------------------------------------------
# convolution (valid padding, stride 1, NHWC x (kh, kw, cin, cout)), 2x2 max pool

# Examples per im2col block, for every batch size.  A whole batch-64
# im2col of conv2 is a 58 MB buffer that each step would write, read
# and page-fault in again; a few examples' patches stay near cache size.
# In a sweep of 1 to 64 on 2 vCPUs, blocks of 2 and 4 gave the fastest
# batch-64 train step.
_CONV_BLOCK = 4


def _im2col(x, kh, kw):
    # (n, h, w, c) -> (n*oh*ow, kh*kw*c) patches, window-major order, copied
    # once from a read-only (n, oh, ow, kh, kw, c) view of x (valid for any strides)
    (n, h, w, c), (s0, s1, s2, s3) = x.shape, x.strides
    v = as_strided(x, (n, h - kh + 1, w - kw + 1, kh, kw, c), (s0, s1, s2, s1, s2, s3),
                   writeable=False)
    return v.reshape(-1, kh * kw * c)


# 2x2 pool window positions in row-major order; ties go to the first
_POOL_OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis (max subtracted first)."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy_batch(logits: np.ndarray, labels: np.ndarray):
    """Per-example (losses, dlogits) for (n, c) logits and (n,) labels."""
    c = logits.shape[-1]
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise LabelError(f"labels outside [0, {c})")
    m = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - m)
    z = e.sum(axis=-1, keepdims=True)
    rows = np.arange(len(labels))
    losses = np.log(z[:, 0]) + m[:, 0] - logits[rows, labels]
    dlogits = e / z
    dlogits[rows, labels] -= 1.0
    return losses, dlogits


# ---------------------------------------------------------------------------
# layers

class Layer:
    """A layer without parameters; Conv2D and Dense define their own params."""

    def params(self):
        return []


class Resize(Layer):
    """Input stage: passes an (n, out_h, out_w, 1) batch on unchanged, else
    raises ShapeError.  Its name stays in the stack for the resize spans."""

    def __init__(self, out_h, out_w):
        self.out_h, self.out_w = out_h, out_w

    def forward(self, x, train=False, rng=None):
        if x.shape[1:] != (self.out_h, self.out_w, 1):
            raise ShapeError(
                f"expected an (n, {self.out_h}, {self.out_w}, 1) batch, got shape {x.shape}")
        return x, None

    def backward(self, cache, dy):
        return dy, []


class Normalize(Layer):
    """Shift/scale by dataset pixel statistics, (x - mean)/sqrt(var + eps)."""

    EPS = 1e-6

    def __init__(self, mean=0.0, variance=1.0):
        self.set_stats(mean, variance)

    def set_stats(self, mean, variance):
        if not (np.isfinite(mean) and 0 <= variance < np.inf):
            raise ConfigError(f"need a finite mean and variance >= 0, got {mean}, {variance}")
        self.mean = float(mean)
        self.variance = float(variance)

    def forward(self, x, train=False, rng=None):
        inv = x.dtype.type(1.0 / np.sqrt(self.variance + self.EPS))
        return (x - x.dtype.type(self.mean)) * inv, None

    def backward(self, cache, dy):
        if dy is None:
            return None, []
        inv = dy.dtype.type(1.0 / np.sqrt(self.variance + self.EPS))
        return dy * inv, []


class Conv2D:
    """Valid convolution by a (kh, kw, cin, cout) kernel, optional fused ReLU.

    input_grad=False makes backward return dx=None; build_network sets
    it on the first conv, which has no parameter layer before it.
    """

    def __init__(self, kernel, use_relu=True, input_grad=True, bias=None):
        self.kernel = kernel
        self.bias = np.zeros(kernel.shape[-1], kernel.dtype) if bias is None else bias
        self.use_relu = use_relu
        self.input_grad = input_grad

    def params(self):
        return [self.kernel, self.bias]

    def forward(self, x, train=False, rng=None):
        """y = im2col(x) @ kernel + bias (then ReLU), one block of examples
        at a time into a preallocated output."""
        kh, kw, cin, cout = self.kernel.shape
        n, h, w, c = x.shape
        if c != cin:
            raise ShapeError(f"input has {c} channels, kernel expects {cin}")
        if h < kh or w < kw:
            raise ShapeError(f"input {h}x{w} smaller than kernel {kh}x{kw}")
        y = np.empty((n, h - kh + 1, w - kw + 1, cout), dtype=np.result_type(x, self.kernel))
        flat_kernel = self.kernel.reshape(-1, cout)
        for start in range(0, n, _CONV_BLOCK):
            block = slice(start, start + _CONV_BLOCK)
            out = y[block].reshape(-1, cout)
            np.matmul(_im2col(x[block], kh, kw), flat_kernel, out=out)
            out += self.bias
            if self.use_relu:
                np.maximum(out, 0, out=out)
        return y, (x, y if self.use_relu else None)  # only the ReLU reads y

    def backward(self, cache, dy):
        """(dx, [dkernel, dbias]); each block's patches are formed again from x."""
        x, y = cache
        if self.use_relu:
            dy = dy * (y > 0)
        kh, kw, cin, cout = self.kernel.shape
        n, oh, ow, _ = dy.shape
        dkernel = np.zeros((kh * kw * cin, cout), dtype=np.result_type(x, dy))
        part = np.empty_like(dkernel)
        dx = dcols = None
        if self.input_grad:
            dtype = np.result_type(dy, self.kernel)
            dx = np.zeros(x.shape, dtype=dtype)
            dcols = np.empty((min(n, _CONV_BLOCK) * oh * ow, cin), dtype=dtype)
        for start in range(0, n, _CONV_BLOCK):
            block = slice(start, start + _CONV_BLOCK)
            flat_dy = dy[block].reshape(-1, cout)
            np.matmul(_im2col(x[block], kh, kw).T, flat_dy, out=part)
            dkernel += part
            if dx is None:
                continue
            # col2im: the patch gradient dy @ kernel^T, one kernel position at
            # a time (contiguous blocks), added back onto the input pixels that
            # position gathered from
            rows = dcols[:len(flat_dy)]
            dx_block = dx[block]
            for i in range(kh):
                for j in range(kw):
                    np.matmul(flat_dy, self.kernel[i, j].T, out=rows)
                    dx_block[:, i:i + oh, j:j + ow] += rows.reshape(-1, oh, ow, cin)
        dbias = dy.reshape(-1, cout).sum(axis=0)
        return dx, [dkernel.reshape(self.kernel.shape), dbias]


def _pool_route(x, y, use_relu):
    """Per pooled output, the first window position (0-3) that holds the
    max y, or 4 or more where no gradient flows: a NaN, or a max <= 0
    under the fused ReLU.  The route counts the positions before the max."""
    route = np.zeros(y.shape, dtype=np.uint8)
    if use_relu:
        np.multiply(y <= 0, np.uint8(4), out=route)
    pending = np.ones(y.shape, dtype=bool)  # max not found yet
    miss = np.empty(y.shape, dtype=bool)
    for i, j in _POOL_OFFSETS:
        np.not_equal(x[:, i::2, j::2], y, out=miss)
        pending &= miss
        route += pending
    return route


class MaxPool2D(Layer):
    def __init__(self, use_relu=False):
        self.use_relu = use_relu

    def forward(self, x, train=False, rng=None):
        _, h, w, _ = x.shape
        if h % 2 or w % 2:
            raise ShapeError(f"maxpool needs even spatial dims, got {h}x{w}")
        y = x[:, 0::2, 0::2].copy()
        for i, j in _POOL_OFFSETS[1:]:
            np.maximum(y, x[:, i::2, j::2], out=y)
        if self.use_relu:
            np.maximum(y, 0, out=y)
        return y, _pool_route(x, y, self.use_relu) if train else (x, y)

    def backward(self, cache, dy):
        """dy goes to the window position that first holds the pooled max (> 0 if relu)."""
        route = cache if isinstance(cache, np.ndarray) else _pool_route(*cache, self.use_relu)
        n, oh, ow, c = route.shape
        dx = np.empty((n, 2 * oh, 2 * ow, c), dtype=dy.dtype)
        hit = np.empty(route.shape, dtype=bool)
        for k, (i, j) in enumerate(_POOL_OFFSETS):
            np.equal(route, k, out=hit)
            np.multiply(dy, hit, out=dx[:, i::2, j::2])
        return dx, []


class Dropout(Layer):
    """Inverted dropout (Srivastava et al. 2014): drops where a uint16 draw is
    below round(rate * 65536), and scales survivors by 1 / keep probability."""

    def __init__(self, rate):
        if not 0.0 <= rate < 1.0 or round(rate * 65536) == 65536:
            raise ConfigError(f"dropout rate must be in [0, 1 - 2**-17), got {rate}")
        self.rate = rate
        self._cut = round(rate * 65536)

    def forward(self, x, train=False, rng=None):
        if not train or self.rate == 0.0:
            return x, None
        if rng is None:
            raise ConfigError("train-mode dropout needs an rng")
        keep = rng.integers(0, 1 << 16, x.shape, dtype=np.uint16) >= self._cut
        cache = keep, x.dtype.type(65536 / (65536 - self._cut))
        return self.backward(cache, x)[0], cache  # y = x * keep * scale, as backward

    def backward(self, cache, dy):
        if cache is None:
            return dy, []
        keep, scale = cache
        dx = dy * keep
        dx *= scale
        return dx, []


class Flatten(Layer):
    def forward(self, x, train=False, rng=None):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, cache, dy):
        return dy.reshape(cache), []


class Dense:
    """Affine layer of (n_in, n_out) weights with optional fused ReLU."""

    def __init__(self, weights, use_relu=True, bias=None):
        self.weights = weights
        self.bias = np.zeros(weights.shape[1], weights.dtype) if bias is None else bias
        self.use_relu = use_relu

    def params(self):
        return [self.weights, self.bias]

    def forward(self, x, train=False, rng=None):
        if x.shape[-1] != self.weights.shape[0]:
            raise ShapeError(
                f"input width {x.shape[-1]} != weight rows {self.weights.shape[0]}"
            )
        y = x @ self.weights
        y += self.bias
        if self.use_relu:
            np.maximum(y, 0, out=y)
        return y, (x, y if self.use_relu else None)  # only the ReLU reads y

    def backward(self, cache, dy):
        x, y = cache
        if self.use_relu:
            dy = dy * (y > 0)
        dx = dy @ self.weights.T
        return dx, [x.T @ dy, dy.sum(axis=0)]


# ---------------------------------------------------------------------------
# the network

@dataclass
class ForwardCache:
    net: "Network"
    batch_size: int
    layer_caches: list


class Network:
    """Layer stack with seeded init and an owned dropout stream.

    Layers and parameters are plain attributes; the first parameter's
    dtype is the network's, and the last's length (the output bias) its
    class count.  Inference (train=False) never mutates the network, so
    a loaded model can be shared across threads.  Training consumes
    self.dropout_rng in layer order, which makes same-seed runs
    reproduce bit for bit.
    """

    def __init__(self, layers, seed):
        self.layers = layers
        self.seed = seed
        self.dtype = self.parameters()[0].dtype
        self.class_count = len(self.parameters()[-1])
        self.dropout_rng = philox_stream(seed, STREAM_DROPOUT)

    def parameters(self):
        return [p for layer in self.layers for p in layer.params()]

    @property
    def norm_stats(self):
        norm = self.layers[1]
        return norm.mean, norm.variance

    def set_norm_stats(self, mean, variance):
        self.layers[1].set_stats(mean, variance)

    def forward(self, images, train: bool = False):
        """Run the stack on a batch its Resize accepts; returns (logits, cache)
        with cache feeding backward."""
        x = np.asarray(images, dtype=self.dtype)
        caches = []
        for layer in self.layers:
            x, c = layer.forward(x, train=train, rng=self.dropout_rng)
            caches.append(c)
        return x, ForwardCache(self, x.shape[0], caches)

    def backward(self, cache: ForwardCache, dlogits):
        """Gradients for every parameter, aligned with parameters()."""
        if not isinstance(cache, ForwardCache) or cache.net is not self:
            raise ConsistencyError("cache does not belong to this network")
        dy = np.asarray(dlogits, dtype=self.dtype)
        expected = (cache.batch_size, self.class_count)
        if dy.shape != expected:
            raise ConsistencyError(
                f"dlogits shape {dy.shape} does not match cached forward ({expected})"
            )
        grads_per_layer = [None] * len(self.layers)
        for i in range(len(self.layers) - 1, -1, -1):
            dy, g = self.layers[i].backward(cache.layer_caches[i], dy)
            grads_per_layer[i] = g
        return [g for layer_grads in grads_per_layer for g in layer_grads]


def param_shapes(class_count: int) -> list:
    """Shapes of build_network's parameters, in parameters() order.

    Nothing is allocated, so a model file's length can be checked before
    the network is built.
    """
    if class_count < 2:
        raise ConfigError(f"need at least 2 classes, got {class_count}")
    k = KERNEL_SIZE
    f1, f2 = CONV_FILTERS
    h, w = (n - 2 * (k - 1) for n in RESIZE)  # after two valid convs
    flat = (h // 2) * (w // 2) * f2
    return [(k, k, 1, f1), (f1,), (k, k, f1, f2), (f2,),
            (flat, DENSE_UNITS), (DENSE_UNITS,),
            (DENSE_UNITS, class_count), (class_count,)]


def _glorot(rng, shape, dtype):
    """Glorot-uniform (Glorot & Bengio 2010) conv kernel or dense matrix."""
    fan_in = math.prod(shape[:-1])
    fan_out = math.prod(shape[:-2]) * shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape).astype(dtype)


def build_network(class_count: int, seed: int = 0, params=None) -> Network:
    """Assemble the float32 stack with Glorot-uniform weights.

    Weight draws come from the init stream of `seed` in layer order
    (conv1, conv2, dense1, dense2); biases start at zero.  Given params
    (arrays in param_shapes order, as load_model has), nothing is drawn.
    """
    shapes = param_shapes(class_count)
    if params is None:
        rng = philox_stream(seed, STREAM_INIT)
        params = [_glorot(rng, s, np.float32) if len(s) > 1 else np.zeros(s, np.float32)
                  for s in shapes]
    conv1, b1, conv2, b2, dense1, b3, dense2, b4 = params
    layers = [
        Resize(*RESIZE),
        Normalize(),
        Conv2D(conv1, input_grad=False, bias=b1),
        Conv2D(conv2, use_relu=False, bias=b2),
        MaxPool2D(use_relu=True),
        Dropout(DROPOUT_RATES[0]),
        Flatten(),
        Dense(dense1, bias=b3),
        Dropout(DROPOUT_RATES[1]),
        Dense(dense2, use_relu=False, bias=b4),
    ]
    return Network(layers, seed)
