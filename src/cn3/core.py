"""The central mechanism: pairwise scoring, soft adjacency, gated updates.

One layer scores every ordered token pair (i, k) from the current node
states plus static node/edge attributes, normalizes each target's incoming
scores into a distribution over sources, aggregates source states under
that distribution, and blends the aggregate into the node through a
sigmoid gate computed from the current state. Layers stack without
parameter sharing; node and edge attributes are computed once and reused.

The pair scores are evaluated in factored form: the scorer's weight
matrix is linear in each block of the pair's concatenated features, so
each token is projected once as a source and once as a target, and the
relation table once, each through a row block of the weight matrix read
by slice (a view, whose gradient is added back without a scatter);
``autodiff.pair_scores`` then adds the three rows
for every pair, applies tanh and projects onto u, block by block. A
layer's scoring costs O(n*d_cat*d_a + r*d_e*d_a + n^2*d_a) for r
relations, instead of O(n^2*d_cat*d_a), and keeps one [n^2, d_a] array
for the backward pass (none under ``autodiff.no_grad()``).

Orientation conventions, fixed throughout: inside the stack, scores and
attention are target-major, so entry s[k][i] is target k, source i. Each
row is normalized over the sources, and the aggregate is the plain
product alpha @ h; no transposed copy is built. Only the reported trace
(``Cn3Model.trace_for``) is source-major, alpha[i][k], as in the paper.
Relation ids stay source-major: e.ids[i*n + k] is pair (i, k). Weight
matrices are consumed as right operands of row-major matmuls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass
class EdgeAttrs:
    """Edge attributes of a sentence: a relation table and a row id per pair.

    ids[i*n + k] is the table row of ordered pair (i, k), row-major.
    """

    table: Tensor    # [r, d_e]
    ids: np.ndarray  # [n*n] row ids of table


@dataclass
class Cn3LayerParams:
    """One layer's weights: pair scorer and update gate."""

    w_score: Tensor  # [d_cat, d_a] where d_cat = 2*d_h + 2*d_v + d_e
    u: Tensor        # [d_a]
    w_gate: Tensor   # [d_h, d_h]
    b_gate: Tensor   # [d_h]


@dataclass
class Cn3StackParams:
    """A stack of layers plus an optional input projection to d_h."""

    layers: list[Cn3LayerParams]
    input_proj: Tensor | None = None  # [d_h0, d_h], used once before layer 1


@dataclass
class AlphaTrace:
    """Per-layer source-major attention of a sentence, plus its tokens.

    per_layer[l][i][k] is layer l's weight of source i for target k, so each
    column sums to one.
    """

    tokens: list[str]
    per_layer: list[Tensor]


def init_layer(d_h: int, d_v: int, d_e: int, d_a: int,
               rng: np.random.Generator) -> Cn3LayerParams:
    d_cat = 2 * d_h + 2 * d_v + d_e
    return Cn3LayerParams(
        w_score=ad.uniform((d_cat, d_a), -0.1, 0.1, rng),
        u=ad.uniform((d_a,), -0.1, 0.1, rng),
        w_gate=ad.uniform((d_h, d_h), -0.1, 0.1, rng),
        b_gate=ad.zeros((d_h,), requires_grad=True),
    )


def init_stack(d_h0: int, d_h: int, d_v: int, d_e: int, d_a: int, depth: int,
               rng: np.random.Generator) -> Cn3StackParams:
    proj = None
    if d_h0 != d_h:
        proj = ad.uniform((d_h0, d_h), -0.1, 0.1, rng)
    layers = [init_layer(d_h, d_v, d_e, d_a, rng) for _ in range(depth)]
    return Cn3StackParams(layers=layers, input_proj=proj)


def edge_scores(h: Tensor, v: Tensor | None, e: EdgeAttrs,
                p: Cn3LayerParams) -> Tensor:
    """Score every ordered pair: s[k][i] = u . tanh([h_k, h_i, v_i, v_k, e_ik] @ W).

    The result is target-major: row k holds target k's scores over the
    sources. e_ik is row e.ids[i*n + k] of e.table. A None v stands for a
    zero-width attribute block.

    W is linear in each block, so the product is evaluated in factored
    form: a source term [h_i, v_i] @ W_src and a target term
    [h_k, v_k] @ W_tgt, each computed once per token, plus an edge term
    taken from the relation table projected once, e.table @ W_e. Each
    block of W is read by slice (autodiff.slice_rows), a view whose
    gradient is added back in place; the target term is h_k @ W_hk plus
    v_k @ W_vk, since its two blocks are not adjacent. The [n*n, d_cat]
    concatenation is never built; autodiff.pair_scores joins the terms
    pair by pair.
    """
    n, d_h = h.shape
    d_v = 0 if v is None else v.shape[1]
    if v is not None and v.shape[0] != n:
        raise ad.ShapeError(f"v has {v.shape[0]} rows for {n} tokens")
    if e.ids.shape != (n * n,):
        raise ad.ShapeError(f"e has {e.ids.size} pair ids, expected {n * n}")
    d_cat = p.w_score.shape[0]
    if e.table.ndim != 2 or 2 * d_h + 2 * d_v + e.table.shape[1] != d_cat:
        raise ad.ShapeError(f"h {h.shape}, v width {d_v} and relation table "
                            f"{e.table.shape} do not fill the {d_cat} rows "
                            "of w_score")
    # w_score row blocks, in order: h_k, h_i, v_i, v_k, e_ik. These are the
    # first rows of h_i (source term), v_k and e_ik.
    h_i, v_k, e_ik = d_h, 2 * d_h + d_v, 2 * d_h + 2 * d_v
    w = p.w_score
    hv = h if v is None else ad.concat_cols([h, v])           # [n, d_h + d_v]
    src = ad.matmul(hv, ad.slice_rows(w, h_i, v_k))           # [n, d_a]
    tgt = ad.matmul(h, ad.slice_rows(w, 0, h_i))              # [n, d_a]
    if v is not None:
        tgt = tgt + ad.matmul(v, ad.slice_rows(w, v_k, e_ik))
    rel = ad.matmul(e.table, ad.slice_rows(w, e_ik, d_cat))   # [r, d_a]
    return ad.pair_scores(src, tgt, rel, e.ids, p.u)


def normalize_alpha(s: Tensor) -> Tensor:
    """Row-wise softmax: alpha[k] distributes target k's attention over sources."""
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ad.ShapeError(f"score matrix must be square, got {s.shape}")
    return ad.row_softmax(s)


def aggregate(alpha: Tensor, h: Tensor) -> Tensor:
    """Row k of the result is sum_i alpha[k][i] * h[i]."""
    if alpha.shape != (h.shape[0], h.shape[0]):
        raise ad.ShapeError(f"alpha {alpha.shape} does not match h {h.shape}")
    return ad.matmul(alpha, h)


def gated_update(h: Tensor, h_agg: Tensor, p: Cn3LayerParams) -> Tensor:
    """Blend: g = sigmoid(h @ W_gate + b_gate), out = g*h_agg + (1-g)*h.

    The gate reads the current state h, not the aggregate. The blend is
    computed as h + g*(h_agg - h), the same value in three ops.
    """
    if h.shape != h_agg.shape:
        raise ad.ShapeError(f"state {h.shape} and aggregate {h_agg.shape} differ")
    g = ad.sigmoid(ad.matmul(h, p.w_gate) + p.b_gate)
    return h + g * (h_agg - h)


def run_stack(h0: Tensor, v: Tensor | None, e: EdgeAttrs,
              stack: Cn3StackParams) -> tuple[Tensor, list[Tensor]]:
    """Project h0 if configured, then apply every layer; collect each alpha.

    The alphas are target-major, one per layer. A zero-layer stack is
    allowed and returns the (projected) input with no alphas; ablations
    use it as the no-message-passing baseline.
    """
    h = h0 if stack.input_proj is None else ad.matmul(h0, stack.input_proj)
    alphas: list[Tensor] = []
    for layer in stack.layers:
        s = edge_scores(h, v, e, layer)
        alpha = normalize_alpha(s)
        h = gated_update(h, aggregate(alpha, h), layer)
        alphas.append(alpha)
    return h, alphas
