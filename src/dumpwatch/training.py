"""Training loop, evaluation metrics, and the band-subset ablation table.

Training is deterministic for a fixed seed: shuffling comes from one seeded
generator, every numeric op is a plain numpy computation, and the returned
parameters are the snapshot with the lowest validation loss. Wall-clock time
is confined to the report's metadata block so the rest of the report is
byte-stable across identical runs.
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Literal, Sequence

import numpy as np

from . import dataset as ds
from . import numerics, unet
from ._fileio import atomic_write_json, atomic_write_text
from .dataset import Chip, DatasetSplit
from .numerics import AdamState, Tensor
from .unet import ParameterSet, UNetConfig

log = logging.getLogger(__name__)

POS_WEIGHT_CLAMP = (1.0, 100.0)


class TrainingDiverged(RuntimeError):
    """Raised when the training loss stops being finite."""


def iou(pred: np.ndarray, target: np.ndarray) -> float:
    """Intersection over union of two binary masks; empty vs empty is 1.0."""
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    for name, arr in (("pred", pred), ("target", target)):
        if not np.all((arr == 0) | (arr == 1)):
            raise ValueError(f"{name} mask must be binary")
    p = pred.astype(bool)
    t = target.astype(bool)
    union = int((p | t).sum())
    if union == 0:
        return 1.0
    return int((p & t).sum()) / union


def auto_pos_weight(chips: Sequence[Chip]) -> float:
    """Negative/positive pixel ratio over the chips, clamped to [1, 100]."""
    if not chips:
        raise ValueError("auto_pos_weight needs at least one chip")
    pos = sum(int(c.mask.sum()) for c in chips)
    total = sum(c.mask.size for c in chips)
    neg = total - pos
    if pos == 0:
        raise ValueError("no positive pixels: cannot derive pos_weight")
    if neg == 0:
        raise ValueError("no negative pixels: cannot derive pos_weight")
    lo, hi = POS_WEIGHT_CLAMP
    return float(min(max(neg / pos, lo), hi))


@dataclass
class Hyperparams:
    batch_size: int = 16
    max_epochs: int = 30
    learning_rate: float = 1e-3
    pos_weight: float | Literal["auto"] = "auto"
    plateau_patience: int = 5
    plateau_min_delta: float = 1e-4

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size: must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs: must be >= 1, got {self.max_epochs}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate: must be > 0, got {self.learning_rate}")
        if self.pos_weight != "auto" and (isinstance(self.pos_weight, str) or not self.pos_weight > 0):
            raise ValueError(f"pos_weight: must be a number > 0 or 'auto', got {self.pos_weight!r}")
        if self.plateau_patience < 1:
            raise ValueError(f"plateau_patience: must be >= 1, got {self.plateau_patience}")
        if self.plateau_min_delta < 0:
            raise ValueError(f"plateau_min_delta: must be >= 0, got {self.plateau_min_delta}")


class PlateauStopper:
    """Stop after `patience` consecutive epochs without a min_delta improvement."""

    def __init__(self, patience: int, min_delta: float):
        self.patience = patience
        self.min_delta = min_delta
        self.best = float("inf")
        self.stale = 0

    def update(self, loss: float) -> bool:
        if loss < self.best - self.min_delta:
            self.best = loss
            self.stale = 0
        else:
            self.stale += 1
        return self.stale >= self.patience


@dataclass
class Metrics:
    mean_iou: float
    loss: float
    per_chip_iou: list[float] = field(default_factory=list)


@dataclass
class EpochRecord:
    train_loss: float
    val_loss: float
    val_mean_iou: float


@dataclass
class TrainReport:
    epochs: list[EpochRecord]
    stopping_epoch: int
    pos_weight: float
    test: Metrics | None = None
    metadata: dict = field(default_factory=dict)  # wall time, chips/s: non-deterministic

    def save(self, path: str | Path) -> None:
        atomic_write_json(path, asdict(self))


def _batch_tensors(chips: Sequence[Chip], factor: int) -> tuple[Tensor, Tensor, int]:
    """Stack chips into padded input and mask tensors.

    Chips whose side is not divisible by 2**depth are reflect-padded on the
    bottom/right; the caller crops logits back to the original size.
    """
    size = chips[0].size
    x = np.stack([c.samples for c in chips]).astype(np.float32, copy=False)
    y = np.stack([c.mask for c in chips]).astype(np.float32)[:, None]
    pad = (-size) % factor
    if pad:
        x = ds.reflect_pad(x, ((0, pad), (0, pad)))
    return Tensor(x), Tensor(y), size


def _forward_logits(
    params: ParameterSet, config: UNetConfig, chips: Sequence[Chip]
) -> tuple[Tensor, Tensor]:
    xt, yt, size = _batch_tensors(chips, config.pool_factor)
    logits = unet.forward(params, config, xt)
    if logits.data.shape[2] != size:
        logits = numerics.crop_spatial(logits, size, size)
    return logits, yt


def evaluate(
    params: ParameterSet,
    config: UNetConfig,
    chips: Sequence[Chip],
    threshold: float = 0.5,
    pos_weight: float = 1.0,
    batch_size: int = 16,
) -> Metrics:
    """Per-chip loss and IoU at the binarization threshold, then means."""
    if not chips:
        raise ValueError("evaluate needs at least one chip")
    if not (0 < threshold < 1):
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    per_loss: list[float] = []
    per_iou: list[float] = []
    with numerics.no_grad():
        for start in range(0, len(chips), batch_size):
            batch = chips[start : start + batch_size]
            logits, _ = _forward_logits(params, config, batch)
            probs = numerics.sigmoid_values(logits.data)[:, 0]
            for j, chip in enumerate(batch):
                loss = numerics.weighted_bce_with_logits(
                    Tensor(logits.data[j : j + 1]),
                    Tensor(chip.mask[None, None].astype(np.float32)),
                    pos_weight,
                )
                per_loss.append(loss.item())
                per_iou.append(iou((probs[j] >= threshold).astype(np.uint8), chip.mask))
    return Metrics(
        mean_iou=float(np.mean(per_iou)),
        loss=float(np.mean(per_loss)),
        per_chip_iou=[float(v) for v in per_iou],
    )


def _clone_params(params: ParameterSet) -> ParameterSet:
    return {name: Tensor(p.data.copy(), requires_grad=True) for name, p in params.items()}


def train(
    params: ParameterSet,
    config: UNetConfig,
    split: DatasetSplit,
    hyper: Hyperparams,
    seed: int = 0,
) -> tuple[ParameterSet, TrainReport]:
    """Adam + weighted BCE with early stopping on validation loss; ``seed``
    drives the shuffle.

    Returns the parameter snapshot with the lowest validation loss (the
    passed-in set is mutated to its final state) and the per-epoch report.
    With an empty validation list, validation metrics are computed on the
    training chips instead.
    """
    if not split.train:
        raise ValueError("training split is empty")
    val_chips = split.val if split.val else split.train
    pos_weight = (
        auto_pos_weight(split.train)
        if hyper.pos_weight == "auto"
        else float(hyper.pos_weight)
    )
    rng = np.random.default_rng(seed)
    adam = AdamState(learning_rate=hyper.learning_rate)
    stopper = PlateauStopper(hyper.plateau_patience, hyper.plateau_min_delta)
    best_val = float("inf")
    best_params = _clone_params(params)
    records: list[EpochRecord] = []
    chips_per_s: list[float] = []  # per epoch, over its training steps
    started = time.perf_counter()
    epochs_run = 0
    for epoch in range(1, hyper.max_epochs + 1):
        order = rng.permutation(len(split.train))
        loss_sum = 0.0
        epoch_started = time.perf_counter()
        for start in range(0, len(order), hyper.batch_size):
            batch = [split.train[i] for i in order[start : start + hyper.batch_size]]
            logits, targets = _forward_logits(params, config, batch)
            loss = numerics.weighted_bce_with_logits(logits, targets, pos_weight)
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingDiverged(
                    f"non-finite training loss at epoch {epoch}"
                )
            numerics.zero_grads(params)
            loss.backward()
            numerics.adam_step(params, adam)
            loss_sum += value * len(batch)
        chips_per_s.append(len(split.train) / (time.perf_counter() - epoch_started))
        train_loss = loss_sum / len(split.train)
        val = evaluate(
            params,
            config,
            val_chips,
            threshold=0.5,
            pos_weight=pos_weight,
            batch_size=hyper.batch_size,
        )
        records.append(EpochRecord(train_loss, val.loss, val.mean_iou))
        epochs_run = epoch
        log.info(
            "epoch %d: train_loss=%.6f val_loss=%.6f val_iou=%.4f chips/s=%.1f",
            epoch,
            train_loss,
            val.loss,
            val.mean_iou,
            chips_per_s[-1],
        )
        if val.loss < best_val:
            best_val = val.loss
            best_params = _clone_params(params)
        if stopper.update(val.loss):
            log.info("validation plateau reached, stopping at epoch %d", epoch)
            break
    wall = time.perf_counter() - started
    test_metrics = (
        evaluate(best_params, config, split.test, batch_size=hyper.batch_size)
        if split.test
        else None
    )
    report = TrainReport(
        epochs=records,
        stopping_epoch=epochs_run,
        pos_weight=pos_weight,
        test=test_metrics,
        metadata={"wall_time_s": wall, "chips_per_s": chips_per_s},
    )
    return best_params, report


# ---------------------------------------------------------------------------
# ablation table
# ---------------------------------------------------------------------------


@dataclass
class AblationRow:
    label: str
    loss: float
    mean_iou: float


def format_ablation_table(rows: Sequence[AblationRow]) -> str:
    """Aligned text table with one row per band subset."""
    label_width = max(len("band set"), *(len(r.label) for r in rows))
    lines = [f"{'band set':<{label_width}}  {'loss':>8}  {'mean IoU':>8}"]
    for row in rows:
        lines.append(
            f"{row.label:<{label_width}}  {row.loss:>8.4f}  {row.mean_iou:>8.4f}"
        )
    return "\n".join(lines)


def save_ablation(rows: Sequence[AblationRow], path: str | Path) -> None:
    """Write <path>.json (machine) and <path>.txt (aligned table)."""
    base = str(path)
    atomic_write_json(base + ".json", [asdict(r) for r in rows])
    atomic_write_text(base + ".txt", format_ablation_table(rows) + "\n")
