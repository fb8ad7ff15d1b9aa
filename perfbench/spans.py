"""Span tracing of cryalert's layers from outside the package.

`instrument(tracer)` replaces the public functions of wav_io, spectro,
optim_train, infer_alert and cli with timing wrappers in every module
namespace where callers look them up (a function imported with
`from .x import f` is a second binding that must be wrapped too).
tensor_nn layers are wrapped per instance on `net.layers` as each
Network is built, and DirectoryWatcher.poll_once on the class.

Spans are kept in memory as (name, start_ns, end_ns, parent, request)
and written out once, at the end, by `Tracer.dump`.  A span's request
id (a file path or a training step index) is inherited by its children.
"""

from __future__ import annotations

import functools
import json
import time

# tensor_nn layer classes in build_network order -> metric name stem
_LAYER_STEMS = {"Resize": "resize", "Normalize": "normalize", "Conv2D": "conv",
                "MaxPool2D": "maxpool", "Dropout": "dropout", "Dense": "dense"}
_NUMBERED = ("conv", "dropout", "dense")


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start_ns, end_ns, parent index, request]
        self.stack = []      # indices of open spans
        self.counts = {}     # name -> number
        self.values = {}     # name -> per-call values computed from shapes
        self.open_step = None

    def begin(self, name, request=None):
        parent = self.stack[-1] if self.stack else -1
        if request is None and parent >= 0:
            request = self.spans[parent][4]
        self.spans.append([name, time.perf_counter_ns(), 0, parent, request])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index):
        self.spans[index][2] = time.perf_counter_ns()
        # an exception may have skipped inner ends; close down to this span
        while self.stack and self.stack[-1] != index:
            inner = self.stack.pop()
            self.spans[inner][2] = self.spans[index][2]
        if self.stack:
            self.stack.pop()

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def record(self, name, value):
        self.values.setdefault(name, []).append(value)

    def wrap(self, fn, name, request_arg=None):
        """Return fn timed as span `name`; request_arg picks a request id."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            request = str(args[request_arg]) if request_arg is not None else None
            index = tracer.begin(name, request)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)

        return wrapper

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "values": self.values}, fh)


def _patch(tracer, modules, attr, name):
    """Wrap `attr` once and bind the wrapper in every listed module."""
    wrapped = tracer.wrap(getattr(modules[0], attr), name)
    for mod in modules:
        setattr(mod, attr, wrapped)
    return wrapped


def _conv_shapes(dy_shape, kernel_shape):
    n, oh, ow, cout = dy_shape
    kh, kw, cin, _ = kernel_shape
    return n, oh, ow, oh + kh - 1, ow + kw - 1, kh * kw, cin, cout


def instrument_network(tracer, net):
    """Wrap one Network's forward/backward and each layer's, by position."""
    seen = {}
    for layer in net.layers:
        stem = _LAYER_STEMS.get(type(layer).__name__)
        if stem is None:  # Flatten is a reshape; it is not timed
            continue
        seen[stem] = seen.get(stem, 0) + 1
        name = f"tensor_nn.{stem}{seen[stem] if stem in _NUMBERED else ''}"
        layer.forward = tracer.wrap(layer.forward, f"{name}.forward")
        layer.backward = tracer.wrap(layer.backward, f"{name}.backward")
        if stem == "conv":
            _instrument_conv(tracer, layer, name)

    forward = net.forward

    @functools.wraps(forward)
    def net_forward(images, train=False):
        # a training step runs from its train-mode forward to its adam_step
        if train and tracer.open_step is None:
            tracer.count("bench.train_steps")
            tracer.open_step = tracer.begin("optim_train.train_step",
                                            tracer.counts["bench.train_steps"])
        index = tracer.begin("tensor_nn.network.forward")
        try:
            return forward(images, train=train)
        finally:
            tracer.end(index)

    net.forward = net_forward
    net.backward = tracer.wrap(net.backward, "tensor_nn.network.backward")
    return net


def _instrument_conv(tracer, layer, name):
    """Record GFLOP and im2col MB per call, computed from the call's shapes."""
    forward, backward = layer.forward, layer.backward

    def conv_forward(x, train=False, rng=None):
        y, cache = forward(x, train=train, rng=rng)
        n, oh, ow, h, w, k, cin, cout = _conv_shapes(y.shape, layer.kernel.shape)
        tracer.record(f"{name}.forward_gflop", 2.0 * n * oh * ow * k * cin * cout / 1e9)
        tracer.record(f"{name}.forward_im2col_mb",
                      n * oh * ow * k * cin * x.dtype.itemsize / 1e6)
        return y, cache

    def conv_backward(cache, dy):
        dx, grads = backward(cache, dy)
        n, oh, ow, h, w, k, cin, cout = _conv_shapes(dy.shape, layer.kernel.shape)
        flop = 2.0 * n * oh * ow * k * cin * cout  # dkernel
        im2col = 0.0
        if dx is not None:  # dx as a full correlation over the padded dy
            flop += 2.0 * n * h * w * k * cout * cin
            im2col = n * h * w * k * cout * dy.dtype.itemsize / 1e6
        tracer.record(f"{name}.backward_gflop", flop / 1e9)
        tracer.record(f"{name}.backward_im2col_mb", im2col)
        return dx, grads

    layer.forward, layer.backward = conv_forward, conv_backward


def instrument(tracer):
    """Install the wrappers into the imported cryalert modules."""
    from cryalert import cli, infer_alert, optim_train, spectro, tensor_nn, wav_io

    _patch(tracer, [wav_io], "parse_wav", "wav_io.parse_wav")
    _patch(tracer, [wav_io, cli], "load_dataset", "wav_io.load_dataset")
    _patch(tracer, [spectro, infer_alert, optim_train, cli], "stft_magnitude",
           "spectro.stft")

    resample = wav_io.resample

    @functools.wraps(resample)
    def resample_counted(clip, target_rate):
        out = resample(clip, target_rate)
        if out is not clip:  # equal rates return the input untouched
            # np.convolve(mode="same") filters at the input rate, then
            # every factor-th output is kept
            tracer.count("bench.resample_computed", len(clip.samples))
            tracer.count("bench.resample_kept", len(out.samples))
        return out

    timed = tracer.wrap(resample_counted, "wav_io.resample")
    wav_io.resample = infer_alert.resample = timed

    build = tensor_nn.build_network

    @functools.wraps(build)
    def build_instrumented(*args, **kwargs):
        return instrument_network(tracer, build(*args, **kwargs))

    for mod in (tensor_nn, infer_alert, cli):
        mod.build_network = build_instrumented

    _patch(tracer, [tensor_nn, optim_train], "softmax_cross_entropy_batch",
           "optim_train.softmax_ce")
    adam = _patch(tracer, [optim_train], "adam_step", "optim_train.adam_step")

    @functools.wraps(adam)
    def adam_closing_step(*args, **kwargs):
        try:
            return adam(*args, **kwargs)
        finally:
            if tracer.open_step is not None:
                tracer.end(tracer.open_step)
                tracer.open_step = None

    optim_train.adam_step = adam_closing_step
    _patch(tracer, [optim_train, cli], "evaluate", "optim_train.evaluate")
    _patch(tracer, [optim_train, cli], "split_arrays", "optim_train.split_arrays")
    _patch(tracer, [optim_train], "fit_normalization", "optim_train.fit_normalization")
    _patch(tracer, [optim_train, cli], "train", "optim_train.train")

    _patch(tracer, [infer_alert, cli], "load_model", "infer_alert.load_model")
    _patch(tracer, [infer_alert, cli], "predict", "infer_alert.predict")
    _patch(tracer, [infer_alert, cli], "decide_alert", "infer_alert.decide_alert")
    _patch(tracer, [infer_alert, cli], "emit_alert", "infer_alert.emit_alert")
    _instrument_watcher(tracer, cli)


def _instrument_watcher(tracer, cli):
    """Time poll_once; count files listed, classified and skipped per poll."""
    poll_once = cli.DirectoryWatcher.poll_once
    listing_path = type(cli.Path())

    class CountingPath(listing_path):
        def glob(self, pattern, *args, **kwargs):
            found = list(super().glob(pattern, *args, **kwargs))
            tracer.count("bench.files_listed", len(found))
            return iter(found)

    def classify_wrapper(classify):
        timed = tracer.wrap(classify, "cli.classify", request_arg=0)

        @functools.wraps(classify)
        def counted(path):
            try:
                probs = timed(path)
            except Exception:
                tracer.count("cli.files_skipped")
                raise
            tracer.count("cli.files_classified")
            return probs

        counted.__wrapped_by_bench__ = True
        return counted

    @functools.wraps(poll_once)
    def poll_once_traced(self):
        if not isinstance(self.directory, CountingPath):
            self.directory = CountingPath(self.directory)
        if not getattr(self.classify, "__wrapped_by_bench__", False):
            self.classify = classify_wrapper(self.classify)
        index = tracer.begin("cli.poll_once")
        try:
            events = poll_once(self)
        finally:
            tracer.end(index)
        tracer.count("cli.events_emitted", len(events))
        return events

    cli.DirectoryWatcher.poll_once = poll_once_traced


def summarize(paths):
    """Merge dumped traces -> (inclusive ms per call, self ms per call,
    counts, recorded values), each keyed by name."""
    inclusive, self_ms, counts, values = {}, {}, {}, {}
    for path in paths:
        with open(path) as fh:
            trace = json.load(fh)
        spans = trace["spans"]
        covered = [0] * len(spans)
        for _name, start, end, parent, _request in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, _parent, _request) in enumerate(spans):
            inclusive.setdefault(name, []).append((end - start) / 1e6)
            self_ms.setdefault(name, []).append((end - start - covered[i]) / 1e6)
        for name, n in trace["counts"].items():
            counts[name] = counts.get(name, 0) + n
        for name, vals in trace["values"].items():
            values.setdefault(name, []).extend(vals)
    return inclusive, self_ms, counts, values
