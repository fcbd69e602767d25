"""Synthetic dataset and a minimal end-to-end training loop.

The dataset is a three-way texture task at 64x64: horizontal stripes,
vertical stripes, and a checkerboard, all with period 8 px, amplitude
plus/minus one, a random per-image phase, and additive Gaussian noise.
Labels are assigned round-robin so classes stay balanced within one.

The loop is deliberately small: cross-entropy, full backward through the
network, and either SGD with momentum 0.9 or a minimal decoupled-weight-decay
adaptive optimizer (bias-corrected first/second moments, betas 0.9/0.999,
eps 1e-8, decay applied directly to parameters and scaled by the learning
rate). These constants are fixed. A step that would write a NaN or
infinite weight raises ``NonFiniteWeights`` instead, and ``train_toy``
reports the step and the parameter's registry name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, TrainingDiverged
from .model import Model
from .tensor import Tensor

STRIPE_PERIOD = 8
IMAGE_SIDE = 64
MAX_SAMPLES = (1 << 30) // (3 * IMAGE_SIDE**2 * 4)  # 21,845: 1 GiB of float32 images
CLASS_NAMES = ("horizontal", "vertical", "checkerboard")
EVAL_BATCH = 64  # images per forward in ``evaluate``


@dataclass
class SynthDataset:
    images: np.ndarray  # (n, 3, 64, 64) float32
    labels: np.ndarray  # (n,) int64

    def __len__(self):
        return len(self.labels)


def make_synth(n: int, noise_sigma: float = 0.1, seed: int = 0) -> SynthDataset:
    """Deterministically generate n labeled pattern images."""
    if n < 3:
        raise ConfigError(f"need at least 3 samples for 3 classes, got {n}")
    if not 0 <= noise_sigma < math.inf:
        raise ConfigError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    if n > MAX_SAMPLES:
        raise ConfigError(f"at most {MAX_SAMPLES} samples fit in 1 GiB of images, got {n}")
    rng = np.random.default_rng(seed)
    half = STRIPE_PERIOD // 2
    coords = np.arange(IMAGE_SIDE)
    images = np.empty((n, 3, IMAGE_SIDE, IMAGE_SIDE), dtype=np.float32)
    labels = np.empty(n, dtype=np.int64)
    for i in range(n):
        label = i % 3
        py, px = rng.integers(0, STRIPE_PERIOD, size=2)
        sy = np.where(((coords + py) // half) % 2 == 0, 1.0, -1.0)
        sx = np.where(((coords + px) // half) % 2 == 0, 1.0, -1.0)
        if label == 0:
            pattern = np.broadcast_to(sy[:, None], (IMAGE_SIDE, IMAGE_SIDE))
        elif label == 1:
            pattern = np.broadcast_to(sx[None, :], (IMAGE_SIDE, IMAGE_SIDE))
        else:
            pattern = sy[:, None] * sx[None, :]
        img = np.broadcast_to(pattern, (3, IMAGE_SIDE, IMAGE_SIDE)).astype(np.float32)
        if noise_sigma:
            with np.errstate(over="ignore"):  # a draw past float32's range becomes inf
                img = img + rng.normal(0.0, noise_sigma, img.shape).astype(np.float32)
        images[i] = img
        labels[i] = label
    if not np.isfinite(images).all():
        raise ConfigError(f"noise_sigma {noise_sigma} makes images past float32's range")
    return SynthDataset(images, labels)


@dataclass
class TrainConfig:
    steps: int = 300
    batch_size: int = 32
    lr: float = 1e-2
    optimizer: str = "adamw-lite"  # or "sgd-momentum"
    weight_decay: float = 0.01
    seed: int = 0
    label_smoothing: float = 0.0

    def __post_init__(self):
        if self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 <= self.lr < math.inf:
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not 0 <= self.label_smoothing < 1:
            raise ConfigError(f"label_smoothing must be in [0, 1), got {self.label_smoothing}")
        if self.optimizer not in ("adamw-lite", "sgd-momentum"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class HistoryRow:
    step: int
    loss: float
    accuracy: float


MOMENTUM = 0.9
BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8


class NonFiniteWeights(TrainingDiverged):
    """An optimizer step would have written NaN or infinite weights."""

    def __init__(self, index: int):
        super().__init__(f"non-finite weights in parameter {index}")
        self.index = index


def _assign(p: Tensor, new: np.ndarray, index: int) -> None:
    """Take ``new`` as the weights of parameter ``index``, if all of it is finite."""
    if not np.isfinite(new).all():
        raise NonFiniteWeights(index)
    p.data = new


class SgdMomentum:
    def __init__(self, params: list[Tensor], lr: float, weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.velocity = [np.zeros_like(p.data) for p in params]

    def step(self):
        """One update; raises ``NonFiniteWeights`` instead of writing NaN or inf."""
        with np.errstate(over="ignore", invalid="ignore"):
            for i, (p, v) in enumerate(zip(self.params, self.velocity)):
                if p.grad is None:
                    continue
                g = p.grad + self.weight_decay * p.data
                v *= MOMENTUM
                v += g
                _assign(p, p.data - self.lr * v, i)


class AdamWLite:
    """Decoupled weight decay plus bias-corrected moment estimates."""

    def __init__(self, params: list[Tensor], lr: float, weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self):
        """One update; raises ``NonFiniteWeights`` instead of writing NaN or inf."""
        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        with np.errstate(over="ignore", invalid="ignore"):
            for i, (p, m, v) in enumerate(zip(self.params, self.m, self.v)):
                if p.grad is None:
                    continue
                g = p.grad
                m *= BETA1
                m += (1.0 - BETA1) * g
                v *= BETA2
                v += (1.0 - BETA2) * (g * g)
                update = (m / c1) / (np.sqrt(v / c2) + EPS)
                _assign(p, p.data - self.lr * (update + self.weight_decay * p.data), i)


def _make_optimizer(model: Model, cfg: TrainConfig):
    params = list(model.parameters().values())
    if cfg.optimizer == "sgd-momentum":
        return SgdMomentum(params, cfg.lr, weight_decay=cfg.weight_decay)
    return AdamWLite(params, cfg.lr, weight_decay=cfg.weight_decay)


def train_toy(model: Model, ds: SynthDataset, cfg: TrainConfig) -> list[HistoryRow]:
    """Run the loop, returning one (step, loss, batch accuracy) row per step."""
    if model.spec.num_classes != len(CLASS_NAMES):
        raise ConfigError(
            f"model head has {model.spec.num_classes} classes, dataset has "
            f"{len(CLASS_NAMES)}"
        )
    if cfg.batch_size > len(ds):
        raise ConfigError(f"batch_size {cfg.batch_size} exceeds the {len(ds)} samples")
    names = list(model.parameters())
    opt = _make_optimizer(model, cfg)
    rng = np.random.default_rng(cfg.seed)
    history: list[HistoryRow] = []
    order = np.array([], dtype=np.int64)
    for step in range(cfg.steps):
        if len(order) < cfg.batch_size:
            order = np.concatenate([order, rng.permutation(len(ds))])
        idx, order = order[: cfg.batch_size], order[cfg.batch_size :]
        batch = Tensor(ds.images[idx])
        labels = ds.labels[idx]

        model.zero_grads()
        logits = model.forward_classify(batch)
        loss = T.cross_entropy(logits, labels, label_smoothing=cfg.label_smoothing)
        loss_val = loss.item()
        if not math.isfinite(loss_val):
            raise TrainingDiverged(f"non-finite loss {loss_val} at step {step}")
        T.backward(loss)
        try:
            opt.step()
        except NonFiniteWeights as exc:
            raise TrainingDiverged(
                f"step {step} would write non-finite weights to {names[exc.index]}"
            ) from None

        acc = float((logits.data.argmax(axis=-1) == labels).mean())
        history.append(HistoryRow(step, loss_val, acc))
    return history


def evaluate(model: Model, ds: SynthDataset) -> float:
    """Argmax-logit accuracy over the dataset, ``EVAL_BATCH`` samples per
    forward; leaves the model untouched.

    Raises ``TrainingDiverged`` if any logit is NaN or infinite, which is
    how a last optimizer step that broke the weights shows; the forwards
    run with numpy's overflow and invalid-value warnings silenced, since
    that check reports them.
    """
    correct = 0
    with T.no_grad(), np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(ds), EVAL_BATCH):
            stop = min(start + EVAL_BATCH, len(ds))
            logits = model.forward_classify(Tensor(ds.images[start:stop])).data
            if not np.isfinite(logits).all():
                raise TrainingDiverged(
                    f"evaluation got non-finite logits for samples {start}..{stop - 1}"
                )
            correct += int((logits.argmax(axis=-1) == ds.labels[start:stop]).sum())
    return correct / len(ds)


def history_csv(history: list[HistoryRow]) -> str:
    lines = ["step,loss,accuracy"]
    lines += [f"{r.step},{r.loss:.6f},{r.accuracy:.4f}" for r in history]
    return "\n".join(lines) + "\n"
