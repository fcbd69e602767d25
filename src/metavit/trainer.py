"""Synthetic dataset and a minimal end-to-end training loop.

The dataset is a three-way texture task at 64x64: horizontal stripes,
vertical stripes, and a checkerboard, all with period 8 px, amplitude
plus/minus one, a random per-image phase, and additive Gaussian noise.
Labels are assigned round-robin so classes stay balanced within one.

The loop is deliberately small: cross-entropy, full backward through the
network, and either SGD with momentum or a minimal decoupled-weight-decay
adaptive optimizer (bias-corrected first/second moments, betas 0.9/0.999,
eps 1e-8, decay applied directly to parameters and scaled by the learning
rate).
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


@dataclass
class SynthDataset:
    images: np.ndarray  # (n, 3, 64, 64) float32
    labels: np.ndarray  # (n,) int64
    noise_sigma: float
    seed: int

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
            img = img + rng.normal(0.0, noise_sigma, img.shape).astype(np.float32)
        images[i] = img
        labels[i] = label
    return SynthDataset(images, labels, noise_sigma, seed)


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


class SgdMomentum:
    def __init__(self, params: list[Tensor], lr: float, momentum: float = 0.9,
                 weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = [np.zeros_like(p.data) for p in params]

    def step(self):
        for p, v in zip(self.params, self.velocity):
            if p.grad is None:
                continue
            g = p.grad + self.weight_decay * p.data
            v *= self.momentum
            v += g
            p.data = p.data - self.lr * v


class AdamWLite:
    """Decoupled weight decay plus bias-corrected moment estimates."""

    def __init__(self, params: list[Tensor], lr: float, weight_decay: float = 0.0,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self):
        self.t += 1
        c1 = 1.0 - self.b1 ** self.t
        c2 = 1.0 - self.b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * (g * g)
            update = (m / c1) / (np.sqrt(v / c2) + self.eps)
            p.data = p.data - self.lr * (update + self.weight_decay * p.data)


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
        opt.step()

        acc = float((logits.data.argmax(axis=-1) == labels).mean())
        history.append(HistoryRow(step, loss_val, acc))
    return history


def evaluate(model: Model, ds: SynthDataset, batch_size: int = 64) -> float:
    """Argmax-logit accuracy over the dataset; leaves the model untouched."""
    correct = 0
    with T.no_grad():
        for start in range(0, len(ds), batch_size):
            stop = min(start + batch_size, len(ds))
            logits = model.forward_classify(Tensor(ds.images[start:stop]))
            correct += int((logits.data.argmax(axis=-1) == ds.labels[start:stop]).sum())
    return correct / len(ds)


def history_csv(history: list[HistoryRow]) -> str:
    lines = ["step,loss,accuracy"]
    lines += [f"{r.step},{r.loss:.6f},{r.accuracy:.4f}" for r in history]
    return "\n".join(lines) + "\n"
