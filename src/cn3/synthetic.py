"""Synthetic corpora for overfit and depth-effect checks, and the fixed
examples and objective of the gradient check.

Two task families:

* keyword classification: the class is decided by which of two marker
  words appears in the sentence;
* first-last pairing: the class says whether a sentence's first and last
  tokens are the same word, with a constant filler between them. A linear
  classifier over mean-pooled embeddings provably cannot exceed 75 percent
  here (the "different" pattern pools to the midpoint of the two "same"
  patterns), which is what makes it a depth probe.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .data import CLASSIFICATION, PAIR, TAGGING, LabeledExample

_FILLERS = ["mira", "tolo", "veku", "sana", "piro", "lemu", "kadi", "rofu"]


def keyword_classification(n: int = 20, seed: int = 0) -> list[LabeledExample]:
    """Balanced two-class set; "alpha" marks one class, "beta" the other."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        marker, label = ("alpha", "pos") if i % 2 == 0 else ("beta", "neg")
        length = int(rng.integers(5, 9))
        tokens = [str(rng.choice(_FILLERS)) for _ in range(length)]
        tokens[int(rng.integers(0, length))] = marker
        out.append(LabeledExample(kind=CLASSIFICATION, tokens=tokens,
                                  label=label))
    return out


def first_last_pairing(n: int = 64, length: int = 20, seed: int = 0,
                       ) -> list[LabeledExample]:
    """Class "match" iff the first and last tokens are the same word.

    Endpoints come from {enda, endb}; everything between is the constant
    filler "mid", so only the long-range endpoint pair carries signal.
    """
    if length < 3:
        raise ValueError("pairing sentences need length >= 3")
    rng = np.random.default_rng(seed)
    endpoints = ["enda", "endb"]
    out = []
    for i in range(n):
        if i % 2 == 0:
            w = endpoints[int(rng.integers(0, 2))]
            first, last, label = w, w, "match"
        else:
            which = int(rng.integers(0, 2))
            first, last = endpoints[which], endpoints[1 - which]
            label = "diff"
        tokens = [first] + ["mid"] * (length - 2) + [last]
        out.append(LabeledExample(kind=CLASSIFICATION, tokens=tokens,
                                  label=label))
    return out


def randomize_params(model, scale: float = 1.0, seed: int = 0) -> None:
    """Re-draw every parameter uniform(-scale, scale) for gradient checks.

    At the training init scale the true gradients of deep attribute paths
    (embedding -> LSTM -> attention score -> softmax) shrink to 1e-9 or
    less, below what float64 central differences can resolve, so a check
    at that point reports arithmetic noise instead of backward
    correctness. Unit-scale parameters keep every structurally nonzero
    gradient well above the noise floor while all activations stay in
    their non-saturated range at the small widths used for checking.
    """
    rng = np.random.default_rng(seed)
    for _, t in model.params():
        t.data[:] = rng.uniform(-scale, scale, t.data.shape)


def gradcheck_objective(model, examples, ridge: float = 0.05):
    """Summed example losses plus a weight-decay term, as a 0-d tensor.

    The ridge gives every parameter coordinate a direct, exactly-linear
    gradient contribution (central differences are exact on quadratics).
    Without it, a handful of recurrent-weight coordinates always end up
    with true gradients near 1e-8 at any fixed draw, and a finite
    difference at step 1e-5 cannot resolve those against float64 rounding
    of a loss of magnitude ~10; the check would then flag arithmetic
    noise, not an incorrect backward rule. A wrong rule still moves the
    large-gradient coordinates of the same tensor far beyond tolerance.
    """
    total = model.loss_for(examples[0])
    for ex in examples[1:]:
        total = ad.add(total, model.loss_for(ex))
    for _, t in model.params():
        total = ad.add(total, ad.scale(ad.sum_all(ad.mul(t, t)), ridge))
    return total


def gradcheck_examples(task: str) -> list[LabeledExample]:
    """Fixed 4-token examples per task, carrying pos tags and edges.

    Several sentences with varied casing and characters, so every
    parameter coordinate (including recurrent weights, whose gradient is
    a product over timesteps) collects contributions from independent
    paths and none lands accidentally near zero at the check point.
    """
    edges = {(1, 0): "det", (2, 3): "prep"}
    pos = ["DT", "NN", "VB", "RB"]
    sents = [["The", "cat", "ran", "off"],
             ["no", "Dog", "sat", "up"],
             ["a", "fox", "Hid", "low"],
             ["my", "pig", "dug", "IN"]]
    if task == "tag":
        tag_rows = [["B-NP", "I-NP", "B-VP", "O"],
                    ["O", "B-NP", "B-VP", "I-VP"],
                    ["B-NP", "I-NP", "O", "B-VP"]]
        return [LabeledExample(kind=TAGGING, tokens=sents[i], tags=tag_rows[i],
                               pos_tags=pos, dep_edges=dict(edges))
                for i in range(3)]
    if task == "match":
        return [LabeledExample(kind=PAIR, tokens=sents[0],
                               tokens_b=["a", "dog", "sat"], label="entail",
                               pos_tags=pos, dep_edges=dict(edges),
                               pos_tags_b=["DT", "NN", "VB"],
                               dep_edges_b={(0, 1): "det"}),
                LabeledExample(kind=PAIR, tokens=sents[1],
                               tokens_b=["The", "Fox", "hid"], label="neutral",
                               pos_tags=pos, pos_tags_b=["DT", "NN", "VB"]),
                LabeledExample(kind=PAIR, tokens=sents[2],
                               tokens_b=["my", "cat", "DUG"], label="entail",
                               pos_tags=pos, pos_tags_b=["DT", "NN", "VB"])]
    return [LabeledExample(kind=CLASSIFICATION, tokens=sents[0], label="yes",
                           pos_tags=pos, dep_edges=dict(edges)),
            LabeledExample(kind=CLASSIFICATION, tokens=sents[1], label="no",
                           pos_tags=pos),
            LabeledExample(kind=CLASSIFICATION, tokens=sents[2], label="yes",
                           pos_tags=pos, dep_edges={(0, 1): "det"}),
            LabeledExample(kind=CLASSIFICATION, tokens=sents[3], label="no",
                           pos_tags=pos)]
