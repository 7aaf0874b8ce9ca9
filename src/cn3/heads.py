"""Task heads over final node states: classify, tag, match.

Classification mean-pools the node states into one [1, d_h] row and
applies an affine map plus log-softmax. Tagging delegates to the CRF
layer. Sentence-pair matching pools each side and classifies the standard
combination [a, b, |a - b|, a * b]; the two encoders share parameters
(siamese). Both class heads return a [1, num_classes] row of log
probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import crf as crf_mod
from .autodiff import Tensor
from .crf import CrfParams


@dataclass
class ClassifierParams:
    w_cls: Tensor  # [d_in, num_classes]
    b_cls: Tensor  # [num_classes]

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("classification needs at least two classes")
        if self.b_cls.shape != (self.num_classes,):
            raise ad.ShapeError("classifier bias shape mismatch")

    @property
    def num_classes(self) -> int:
        return self.w_cls.shape[1]


def init_classifier(d_in: int, num_classes: int,
                    rng: np.random.Generator) -> ClassifierParams:
    return ClassifierParams(
        w_cls=ad.uniform((d_in, num_classes), -0.1, 0.1, rng),
        b_cls=ad.zeros((num_classes,), requires_grad=True),
    )


def _log_probs(features: Tensor, p: ClassifierParams) -> Tensor:
    return ad.log_softmax_row(ad.matmul(features, p.w_cls) + p.b_cls)


def graph_pool_classify(H: Tensor, p: ClassifierParams) -> Tensor:
    """[1, num_classes] log class distribution from the mean of all node states."""
    return _log_probs(ad.mean_rows(H), p)


def pair_classify(H_a: Tensor, H_b: Tensor, p: ClassifierParams) -> Tensor:
    """[1, num_classes] log class distribution for a sentence pair.

    Features are [a, b, |a - b|, a * b] over the two pooled [1, d_h]
    vectors, so the classifier input width must be 4 * d_h. The order of
    the first two blocks makes the head asymmetric in (A, B).
    """
    a = ad.mean_rows(H_a)
    b = ad.mean_rows(H_b)
    return _log_probs(ad.concat_cols([a, b, ad.absval(a - b), a * b]), p)


def node_crf_head(H: Tensor, crf: CrfParams,
                  gold: Sequence[int] | None = None):
    """Train mode (gold given) returns the NLL loss; otherwise decodes."""
    emit = crf_mod.emission_scores(H, crf)
    if gold is not None:
        return crf_mod.nll_loss(emit, gold, crf)
    return crf_mod.viterbi_decode(emit, crf)


def nll_of_class(log_probs: Tensor, label: int) -> Tensor:
    """Scalar negative log-likelihood of one class under a [1, m] log-distribution."""
    classes = log_probs.shape[1]
    if not 0 <= label < classes:
        raise ValueError(f"label {label} outside [0, {classes})")
    pick = ad.take(log_probs, [label])
    return ad.scale(ad.sum_all(pick), -1.0)
