"""AdaDelta optimization, the epoch loop, and metrics.

The optimizer follows Zeiler's published update exactly (rho 0.95,
epsilon 1e-6): decaying averages of squared gradients and squared updates
set a per-entry step size with no learning rate. A 2-D parameter is
updated lazily, row by row: a row whose gradient is all zero changes no
weight, and its only change would be both accumulators decaying by rho.
So a step touches only the rows with a nonzero gradient entry, and an
untouched row's accumulators lag until it is next touched, when the k
missed decays are applied at once as rho^k. In real arithmetic this is
the dense update exactly, and while every row is touched on every step
it is bitwise the dense update. 0-D and 1-D parameters are updated
densely. Training is fully
deterministic for a fixed seed: batch composition derives from the seed
and epoch index, and all parameters live in one ordered registry.

Chunk F1 follows the shared-task convention: a span starts at B-X, or at
an I-X that does not continue a running X span (stray I-X opens a span),
and runs through following I-X tags. Zero spans on both sides count as
F1 = 1.0; zero predicted spans against a non-empty gold set count as 0.0.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import NumericError, Tensor
from .data import TAGGING, Batch, LabeledExample, make_batches
from .model import Cn3Model

RHO_DEFAULT = 0.95
EPS_DEFAULT = 1e-6


class TrainingDiverged(RuntimeError):
    """Training hit non-finite values; the model was reset to the last good state.

    `history` holds the records of the epochs completed before it.
    """

    def __init__(self, message: str, history: Sequence[dict]):
        super().__init__(message)
        self.history = list(history)


@dataclass
class AdaDeltaState:
    """Decaying accumulators, one pair per parameter, keyed by name.

    `sq_grad` and `sq_update` are full-shape arrays. For a 2-D parameter
    each row's accumulators are as of the last step that touched the row
    (`last_step[name]`, per row; `step` counts the steps taken): the
    decays since then are applied when the row is next touched.
    """

    rho: float = RHO_DEFAULT
    eps: float = EPS_DEFAULT
    sq_grad: dict[str, np.ndarray] = field(default_factory=dict)
    sq_update: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0
    last_step: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: Sequence[tuple[str, Tensor]],
                   rho: float = RHO_DEFAULT, eps: float = EPS_DEFAULT,
                   ) -> "AdaDeltaState":
        state = cls(rho=rho, eps=eps)
        for name, t in params:
            state.sq_grad[name] = np.zeros_like(t.data)
            state.sq_update[name] = np.zeros_like(t.data)
            if t.data.ndim == 2:
                state.last_step[name] = np.zeros(t.data.shape[0], np.int64)
        return state


def global_grad_norm(params: Sequence[tuple[str, Tensor]]) -> float:
    total = 0.0
    for _, t in params:
        if t.grad is not None:
            total += float((t.grad * t.grad).sum())
    return math.sqrt(total)


def _touched(name: str, t: Tensor, state: AdaDeltaState):
    """Where a step updates `t`, and the gradient there; None for nowhere.

    All of a 0-D or 1-D parameter, a missing gradient counting as zero.
    Of a 2-D one, the rows whose gradient has a nonzero entry (NaN too);
    when that is every row, the whole array, so the step runs on views.
    """
    if name not in state.last_step:
        return ..., (np.zeros_like(t.data) if t.grad is None else t.grad)
    if t.grad is None:
        return None
    rows = np.flatnonzero(t.grad.any(axis=1))
    if rows.size == t.shape[0]:
        return slice(None), t.grad
    return (rows, t.grad[rows]) if rows.size else None


def adadelta_step(params: Sequence[tuple[str, Tensor]], state: AdaDeltaState,
                  clip_norm: float | None = None) -> None:
    """Apply one update in place; a missing gradient counts as zero.

    Only the touched rows of a 2-D parameter change (see the module
    docstring); their accumulators first catch up on the decays missed.
    """
    updates = []
    for name, t in params:
        if state.sq_grad[name].shape != t.data.shape:
            raise ad.ShapeError(f"optimizer state shape mismatch for {name!r}")
        touched = _touched(name, t, state)
        if touched is None:
            continue
        if not np.all(np.isfinite(touched[1])):
            raise NumericError(f"non-finite gradient in parameter {name!r}")
        updates.append((name, t, *touched))
    scale = 1.0
    if clip_norm is not None:
        norm = global_grad_norm(params)
        if norm > clip_norm:
            scale = clip_norm / norm
    rho, eps = state.rho, state.eps
    state.step += 1
    for name, t, idx, g in updates:
        if scale != 1.0:
            g = g * scale  # a copy: g may be the parameter's own gradient
        lag = 1.0
        if name in state.last_step:
            # rho^(k-1) for the k-1 steps that left these rows untouched
            lag = rho ** (state.step - 1 - state.last_step[name][idx])[:, None]
            state.last_step[name][idx] = state.step
        # In place: eg and ex are views of the accumulators unless idx
        # gathers rows, whose copies are written back at the end.
        eg = state.sq_grad[name][idx]
        eg *= lag * rho
        eg += (1.0 - rho) * g * g
        ex = state.sq_update[name][idx]
        ex *= lag
        delta = np.sqrt(ex + eps)
        delta /= -np.sqrt(eg + eps)
        delta *= g
        ex *= rho
        ex += (1.0 - rho) * delta * delta
        if isinstance(idx, np.ndarray):
            state.sq_grad[name][idx] = eg
            state.sq_update[name][idx] = ex
        t.data[idx] += delta


# ---------------------------------------------------------------------------
# metrics

def extract_chunks(tags: Sequence[str]) -> set[tuple[str, int, int]]:
    """Spans (type, start, end-exclusive) under the shared-task reading."""
    chunks: set[tuple[str, int, int]] = set()
    start, kind = None, None
    for i, tag in enumerate(tags):
        if tag.startswith("B-") or (tag.startswith("I-") and tag[2:] != kind):
            if start is not None:
                chunks.add((kind, start, i))
            start, kind = i, tag[2:]
        elif tag.startswith("I-") and tag[2:] == kind and start is not None:
            continue
        else:
            if start is not None:
                chunks.add((kind, start, i))
            start, kind = None, None
    if start is not None:
        chunks.add((kind, start, len(tags)))
    return chunks


def chunk_f1(gold_seqs: Sequence[Sequence[str]],
             pred_seqs: Sequence[Sequence[str]]) -> float:
    """Micro span F1 over the whole corpus."""
    if len(gold_seqs) != len(pred_seqs):
        raise ValueError("gold and prediction counts differ")
    n_gold = n_pred = n_correct = 0
    for gold, pred in zip(gold_seqs, pred_seqs):
        if len(gold) != len(pred):
            raise ValueError("gold and prediction lengths differ")
        g, p = extract_chunks(gold), extract_chunks(pred)
        n_gold += len(g)
        n_pred += len(p)
        n_correct += len(g & p)
    if n_gold == 0 and n_pred == 0:
        return 1.0
    if n_correct == 0:
        return 0.0
    precision = n_correct / n_pred
    recall = n_correct / n_gold
    return 2 * precision * recall / (precision + recall)


def token_accuracy(gold_seqs: Sequence[Sequence[str]],
                   pred_seqs: Sequence[Sequence[str]]) -> float:
    correct = total = 0
    for gold, pred in zip(gold_seqs, pred_seqs):
        if len(gold) != len(pred):
            raise ValueError("gold and prediction lengths differ")
        correct += sum(g == p for g, p in zip(gold, pred))
        total += len(gold)
    if total == 0:
        raise ValueError("no tokens to score")
    return correct / total


TAG_METRICS = ("token_accuracy", "chunk_f1")
METRICS = ("accuracy",) + TAG_METRICS


def default_metric(task: str) -> str:
    """The metric a task is scored with when none is named."""
    return "token_accuracy" if task == "tag" else "accuracy"


def _require_known_metric(metric: str) -> None:
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")


def check_metric(metric: str, task: str) -> None:
    """Raise ValueError unless `metric` is known and scores `task`."""
    _require_known_metric(metric)
    if (metric in TAG_METRICS) != (task == "tag"):
        raise ValueError(f"metric {metric!r} does not apply to the {task!r} "
                         f"task: the tag task takes {' or '.join(TAG_METRICS)}, "
                         f"the others take accuracy")


def evaluate(model: Cn3Model, examples: Sequence[LabeledExample],
             metric: str = "accuracy") -> float:
    """Score the model's predictions on labelled examples.

    accuracy scores classification and pair examples; the tag metrics
    score tagging examples. The metric must also suit the model's task.
    """
    if not examples:
        raise ValueError("cannot evaluate on an empty data set")
    tagged = metric in TAG_METRICS
    for ex in examples:
        if (ex.kind == TAGGING) != tagged:
            raise ValueError(f"metric {metric!r} does not apply to "
                             f"{ex.kind} examples")
    check_metric(metric, model.cfg.task)
    preds = [model.predict(ex) for ex in examples]
    if metric == "accuracy":
        return sum(p == ex.label for p, ex in zip(preds, examples)) / len(preds)
    golds = [ex.tags for ex in examples]
    if metric == "token_accuracy":
        return token_accuracy(golds, preds)
    return chunk_f1(golds, preds)


# ---------------------------------------------------------------------------
# training loop

@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    patience: int = 0  # 0 means run every epoch
    seed: int = 0
    rho: float = RHO_DEFAULT
    eps: float = EPS_DEFAULT
    clip_norm: float | None = None
    metric: str = "accuracy"

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.patience < 0:
            raise ValueError("epochs and batch_size must be positive, "
                             "patience non-negative")
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"eps must be positive and finite, "
                             f"got {self.eps}")
        if self.clip_norm is not None and not self.clip_norm > 0.0:
            raise ValueError(f"clip_norm must be positive or none, "
                             f"got {self.clip_norm}")
        _require_known_metric(self.metric)


def _epoch_seed(seed: int, epoch: int) -> int:
    return (seed * 1_000_003 + epoch) % (2 ** 63)


def _batch_loss(model: Cn3Model, batch: Batch) -> Tensor:
    losses = [model.loss_for(ex) for ex in batch.examples]
    total = losses[0]
    for extra in losses[1:]:
        total = total + extra
    return ad.scale(total, 1.0 / len(losses))


def train(model: Cn3Model, train_data: Sequence[LabeledExample],
          cfg: TrainConfig,
          dev_data: Sequence[LabeledExample] | None = None,
          ) -> list[dict]:
    """Optimize in place; return one history record per completed epoch.

    A record holds the epoch, its mean training loss, the dev metric (None
    without a dev set), its training wall time in seconds (dev scoring
    excluded), the AdaDelta steps taken and examples per second of that
    wall time.

    With a dev set the best-scoring epoch's parameters win and patience
    counts non-improving epochs; without one the final parameters stand.
    On divergence (a non-finite loss, or a NumericError from the loss or
    the update, which non-finite values usually raise first) the model is
    restored to the end of the last completed epoch and TrainingDiverged
    is raised, carrying the completed epochs' records.
    """
    if not train_data:
        raise ValueError("empty training set")
    params = model.params()
    state = AdaDeltaState.for_params(params, rho=cfg.rho, eps=cfg.eps)
    history: list[dict] = []
    best_metric = -math.inf
    best_snap = None  # set by epoch 0's dev metric, which beats -inf
    last_good = model.snapshot()
    bad_epochs = 0
    for epoch in range(cfg.epochs):
        started = time.monotonic()
        loss_sum = 0.0
        example_count = steps = 0
        for batch in make_batches(train_data, cfg.batch_size,
                                  _epoch_seed(cfg.seed, epoch)):
            try:
                loss = _batch_loss(model, batch)
                if not np.isfinite(loss.data):
                    raise NumericError("non-finite loss")
                ad.zero_grads([t for _, t in params])
                ad.backward(loss)
                adadelta_step(params, state, clip_norm=cfg.clip_norm)
            except NumericError as exc:
                model.restore(last_good)
                raise TrainingDiverged(
                    f"{exc} in epoch {epoch}; restored the last completed "
                    f"epoch's parameters", history) from exc
            loss_sum += float(loss.data) * len(batch.examples)
            example_count += len(batch.examples)
            steps += 1
        wall_time = time.monotonic() - started
        record = {"epoch": epoch,
                  "train_loss": loss_sum / example_count,
                  "dev_metric": None,
                  "wall_time": wall_time,
                  "steps": steps,
                  "examples_per_s": (example_count / wall_time
                                     if wall_time > 0 else None)}
        last_good = model.snapshot()
        if dev_data is not None:
            metric = evaluate(model, dev_data, cfg.metric)
            record["dev_metric"] = metric
            if metric > best_metric:
                best_metric = metric
                best_snap = model.snapshot()
                bad_epochs = 0
            else:
                bad_epochs += 1
        history.append(record)
        if dev_data is not None and cfg.patience > 0 and bad_epochs >= cfg.patience:
            break
    if dev_data is not None:
        model.restore(best_snap)
    return history
