"""Adam, the training loop, evaluation and reporting.

Training is fully deterministic for a fixed seed: images are
precomputed once, batch order comes from the shuffle stream, dropout
from the network's own stream, and every reduction runs in a fixed
order.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, DatasetError, ShapeError
from .rng import STREAM_SHUFFLE, philox_stream
from .spectro import clip_images
from .tensor_nn import Network, softmax_cross_entropy_batch
from .wav_io import DEFAULT_SAMPLE_RATE, AudioClip, LabeledDataset

# train()'s default batch: an evaluate() between epochs then allocates
# no array larger than a training step's, so it fits in the memory the
# steps freed instead of mapping more
_EVAL_CHUNK = 64
# Adam's decay rates and stabiliser; only the learning rate is configurable
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-7
_ADAM_CHUNK = 1 << 16  # elements per adam_step pass, so its 14 passes run in L2


@dataclass
class AdamState:
    """First/second moments per parameter plus the shared step counter.

    scratch maps each parameter dtype to two _ADAM_CHUNK-element work
    buffers, kept across steps: fresh ones each step raised peak RSS 10 MB.
    """

    m: list
    v: list
    scratch: dict
    t: int = 0
    lr: float = 1e-4

    @classmethod
    def for_params(cls, params, lr: float = 1e-4) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            scratch={dt: (np.empty(_ADAM_CHUNK, dt), np.empty(_ADAM_CHUNK, dt))
                     for dt in {p.dtype for p in params}},
            lr=lr,
        )


def adam_step(params, grads, state: AdamState):
    """One Adam update, in place on params.

    m and v decay toward the gradient and its square, both are
    bias-corrected by 1/(1 - beta^t), and the step is
    lr * m_hat / (sqrt(v_hat) + eps) with eps added after the sqrt.
    The operations run in place through state.scratch, in the order of
    that expression and _ADAM_CHUNK elements at a time, so with gradients
    in the parameters' dtype the result is bitwise that with temporaries.
    """
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ShapeError(
            f"got {len(grads)} gradients for {len(params)} parameters "
            f"(state holds {len(state.m)})"
        )
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
    state.t += 1
    correct1 = 1.0 - BETA1 ** state.t
    correct2 = 1.0 - BETA2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        # copy=False: an update written through a copy of p, m or v would be lost
        p, m, v = (x.reshape(-1, copy=False) for x in (p, m, v))
        g = g.reshape(-1)
        for start in range(0, p.size, _ADAM_CHUNK):
            p_, g_, m_, v_ = (x[start:start + _ADAM_CHUNK] for x in (p, g, m, v))
            a, b = (s[:p_.size] for s in state.scratch[p.dtype])
            m_ *= BETA1
            m_ += np.multiply(g_, 1.0 - BETA1, out=a)
            v_ *= BETA2
            v_ += np.multiply(np.multiply(g_, g_, out=a), 1.0 - BETA2, out=a)
            np.divide(m_, correct1, out=a)            # m_hat
            np.divide(v_, correct2, out=b)            # v_hat
            a *= state.lr
            np.sqrt(b, out=b)
            b += EPS
            a /= b
            p_ -= a
    return params, state


def fit_normalization(images) -> tuple[float, float]:
    """Mean and population variance over every pixel of an image array.

    Accumulates in float64 regardless of the image dtype.
    """
    x = np.asarray(images, np.float64)
    if x.size == 0:
        raise DatasetError("cannot fit normalization on an empty image set")
    return float(x.mean()), float(x.var())


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 64
    lr: float = 1e-4
    seed: int = 42
    patience: int | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if not 0 <= self.lr < np.inf:
            raise ConfigError(f"learning rate must be finite and >= 0, got {self.lr}")
        if self.patience is not None and self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")


@dataclass
class ConfusionMatrix:
    """Row = true class, column = predicted class."""

    counts: np.ndarray
    class_names: list[str]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def accuracy(self) -> float:
        return float(np.trace(self.counts)) / self.total

    def to_text(self) -> str:
        width = max(len(n) for n in self.class_names)
        width = max(width, len(str(self.counts.max())))
        head = " " * (width + 2) + " ".join(f"{n:>{width}}" for n in self.class_names)
        lines = [head]
        for name, row in zip(self.class_names, self.counts):
            cells = " ".join(f"{int(c):>{width}}" for c in row)
            lines.append(f"{name:>{width}}  {cells}")
        return "\n".join(lines)


def confusion_matrix(true_labels, pred_labels, class_names) -> ConfusionMatrix:
    c = len(class_names)
    counts = np.zeros((c, c), dtype=np.int64)
    np.add.at(counts, (np.asarray(true_labels), np.asarray(pred_labels)), 1)
    return ConfusionMatrix(counts, list(class_names))


@dataclass
class TrainReport:
    """Per-epoch history plus the final held-out result."""

    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    test_loss: float | None = None
    test_accuracy: float | None = None

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)

    def to_dict(self) -> dict:
        """The report as strict JSON values: a non-finite loss becomes None."""
        def finite(v):
            return None if isinstance(v, float) and not math.isfinite(v) else v
        fields = {key: [finite(x) for x in v] if isinstance(v, list) else finite(v)
                  for key, v in asdict(self).items()}
        return {"epochs": self.epochs_run, **fields}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"{'epoch':>5}  {'loss':>8}  {'accuracy':>8}  {'val_loss':>8}  {'val_accuracy':>12}"]
        for i in range(self.epochs_run):
            lines.append(
                f"{i + 1:>5}  {self.train_loss[i]:>8.4f}  {self.train_accuracy[i]:>8.4f}  "
                f"{self.val_loss[i]:>8.4f}  {self.val_accuracy[i]:>12.4f}"
            )
        if self.test_accuracy is not None:
            lines.append(f"test accuracy: {self.test_accuracy:.4f}")
        return "\n".join(lines)


def split_arrays(dataset: LabeledDataset, split: str):
    """(float32 images, labels) of a split; each row is imaged as a zero-copy clip."""
    rows = slice(dataset.splits[split].start, dataset.splits[split].stop)
    clips = (AudioClip(x, DEFAULT_SAMPLE_RATE) for x in dataset.samples[rows])
    return clip_images(clips), dataset.labels[rows]


def evaluate(net: Network, images, labels, class_names=None):
    """Chunked inference pass -> (mean loss, accuracy, ConfusionMatrix)."""
    labels = np.asarray(labels)
    n = len(labels)
    if n == 0:
        raise DatasetError("cannot evaluate on an empty split")
    if class_names is None:
        class_names = [f"class_{i}" for i in range(net.class_count)]
    losses = np.empty(n, dtype=net.dtype)
    preds = np.empty(n, dtype=np.int64)
    for start in range(0, n, _EVAL_CHUNK):
        stop = min(start + _EVAL_CHUNK, n)
        logits, _ = net.forward(images[start:stop], train=False)
        losses[start:stop] = softmax_cross_entropy_batch(logits, labels[start:stop])[0]
        preds[start:stop] = logits.argmax(axis=-1)
    matrix = confusion_matrix(labels, preds, class_names)
    return float(losses.sum()) / n, float((preds == labels).mean()), matrix


def train(
    net: Network,
    dataset: LabeledDataset,
    cfg: TrainConfig | None = None,
) -> TrainReport:
    """Mini-batch Adam training over the dataset's train split.

    The 32x32 images of every split are computed once up front.  Pixel
    statistics are fitted on the train images and stored on the network
    before the first epoch.  Each epoch reshuffles the train
    split from the shuffle stream, runs batched forward/backward in
    train mode, applies Adam, then scores the val split in infer mode.
    Training stops after the first epoch whose mean loss is not finite.
    """
    if cfg is None:
        cfg = TrainConfig()
    if net.class_count != len(dataset.class_names):
        raise ConfigError(
            f"network expects {net.class_count} classes, dataset has "
            f"{len(dataset.class_names)} ({dataset.class_names})"
        )
    if not dataset.splits.get("train"):
        raise DatasetError("train split is empty")
    if not dataset.splits.get("val"):
        raise DatasetError("val split is empty")

    train_x, train_y = split_arrays(dataset, "train")
    val_x, val_y = split_arrays(dataset, "val")

    mean, variance = fit_normalization(train_x)
    net.set_norm_stats(mean, variance)

    params = net.parameters()
    state = AdamState.for_params(params, lr=cfg.lr)
    shuffle_rng = philox_stream(cfg.seed, STREAM_SHUFFLE)
    report = TrainReport()
    best_val = np.inf
    stale = 0

    # a diverging run stops on its non-finite loss, so numpy's warnings add nothing
    with np.errstate(over="ignore", invalid="ignore"):
        for _epoch in range(cfg.epochs):
            order = shuffle_rng.permutation(len(train_y))
            loss_sum = 0.0
            correct = 0
            for start in range(0, len(order), cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                logits, cache = net.forward(train_x[batch], train=True)
                losses, dlogits = softmax_cross_entropy_batch(logits, train_y[batch])
                loss_sum += float(losses.sum())
                correct += int((logits.argmax(axis=-1) == train_y[batch]).sum())
                grads = net.backward(cache, dlogits / len(batch))
                adam_step(params, grads, state)
            report.train_loss.append(loss_sum / len(order))
            report.train_accuracy.append(correct / len(order))

            val_loss, val_acc, _ = evaluate(net, val_x, val_y, dataset.class_names)
            report.val_loss.append(val_loss)
            report.val_accuracy.append(val_acc)

            if not math.isfinite(report.train_loss[-1]):
                break  # diverged: no later epoch can recover
            if cfg.patience is not None:
                if val_loss < best_val:
                    best_val = val_loss
                    stale = 0
                else:
                    stale += 1
                    if stale >= cfg.patience:
                        break

        if dataset.splits.get("test"):
            test_x, test_y = split_arrays(dataset, "test")
            report.test_loss, report.test_accuracy, _ = evaluate(
                net, test_x, test_y, dataset.class_names
            )
    return report

