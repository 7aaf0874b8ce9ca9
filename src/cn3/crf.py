"""First-order linear-chain CRF output layer.

The log-potential of a tag sequence is a trainable start score for the
first tag, an emission score per position, and a transition score per
adjacent tag pair. The first position's emission is included alongside
the start vector: without it the first tag would be unscored. All
computation stays in log space. The partition function is one tape node,
``autodiff.crf_log_partition``: its forward pass is the forward algorithm
and its backward pass the forward-backward marginals, so its tape does not
grow with sentence length. Decoding uses max-product with backpointers.

Tag sequences are plain id lists; every op validates length and range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass
class CrfParams:
    """Emission projection, transition table, and start scores."""

    w_emit: Tensor  # [d_h, num_labels]
    b_emit: Tensor  # [num_labels]
    trans: Tensor   # [num_labels, num_labels]; trans[prev][next]
    start: Tensor   # [num_labels]

    def __post_init__(self):
        m = self.num_labels
        if m < 2:
            raise ValueError("need at least two labels")
        if (self.b_emit.shape != (m,) or self.trans.shape != (m, m)
                or self.start.shape != (m,)):
            raise ad.ShapeError("inconsistent CRF parameter shapes")
        for t in (self.w_emit, self.b_emit, self.trans, self.start):
            if not np.all(np.isfinite(t.data)):
                raise ad.NumericError("CRF parameters must be finite")

    @property
    def num_labels(self) -> int:
        return self.w_emit.shape[1]


def init_crf(d_h: int, num_labels: int, rng: np.random.Generator) -> CrfParams:
    return CrfParams(
        w_emit=ad.uniform((d_h, num_labels), -0.1, 0.1, rng),
        b_emit=ad.zeros((num_labels,), requires_grad=True),
        trans=ad.uniform((num_labels, num_labels), -0.1, 0.1, rng),
        start=ad.uniform((num_labels,), -0.1, 0.1, rng),
    )


def _check_tags(y: Sequence[int], n: int, m: int) -> list[int]:
    tags = [int(t) for t in y]
    if len(tags) != n:
        raise ValueError(f"tag sequence length {len(tags)} != sentence length {n}")
    if any(not 0 <= t < m for t in tags):
        raise ValueError(f"tag id outside [0, {m}): {tags}")
    return tags


def emission_scores(H: Tensor, p: CrfParams) -> Tensor:
    """Per-position label scores: row i = H_i @ w_emit + b_emit."""
    return ad.matmul(H, p.w_emit) + p.b_emit


def sequence_score(emit: Tensor, y: Sequence[int], p: CrfParams) -> Tensor:
    """Log-potential of one tag sequence; a scalar on the tape."""
    n, m = emit.shape
    tags = _check_tags(y, n, m)
    emit_picks = ad.take(emit, [i * m + t for i, t in enumerate(tags)])
    # take() yields 1-D; sum_all collapses each pick list to a 0-d scalar
    total = ad.sum_all(emit_picks) + ad.sum_all(ad.take(p.start, [tags[0]]))
    if n > 1:
        trans_picks = ad.take(p.trans, [prev * m + cur
                                        for prev, cur in zip(tags, tags[1:])])
        total = total + ad.sum_all(trans_picks)
    return total


def log_partition(emit: Tensor, p: CrfParams) -> Tensor:
    """log sum over all label sequences of exp(sequence_score), forward DP."""
    return ad.crf_log_partition(emit, p.trans, p.start)


def nll_loss(emit: Tensor, y: Sequence[int], p: CrfParams) -> Tensor:
    """Negative log-probability of the gold sequence; differentiable."""
    return log_partition(emit, p) - sequence_score(emit, y, p)


def viterbi_decode(emit: Tensor, p: CrfParams) -> tuple[list[int], float]:
    """Highest-scoring tag sequence and its score.

    Ties break toward the lower label id at every decision point, so the
    result is deterministic.
    """
    scores = emit.data
    trans = p.trans.data
    n, m = scores.shape
    delta = p.start.data + scores[0]
    back = np.zeros((n, m), dtype=np.intp)
    for i in range(1, n):
        cand = delta[:, None] + trans          # [prev, next]
        best_prev = cand.argmax(axis=0)        # argmax takes the first maximum
        back[i] = best_prev
        delta = cand[best_prev, np.arange(m)] + scores[i]
    last = int(delta.argmax())
    tags = [last]
    for i in range(n - 1, 0, -1):
        last = int(back[i, last])
        tags.append(last)
    tags.reverse()
    return tags, float(delta.max())
