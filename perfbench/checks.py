"""Correctness checks computed apart from the program.

Each check returns a list of failure messages; an empty list means the
output passed. The reference forward pass and the decoder below are plain
numpy written from the model's definition, not from its code: the pair
scorer is factored into per-block products instead of one concatenated
[n*n, d_cat] matrix, so agreement to 1e-9 means two different evaluation
orders meet, not that one routine was run twice.
"""

from __future__ import annotations

import numpy as np

from cn3 import autodiff as ad
from cn3 import embeddings

EMISSION_TOL = 1e-9
ALPHA_TOL = 1e-9
FD_EPS = 1e-5
FD_RTOL = 1e-4
FD_ATOL = 1e-7
HELDOUT_MARGIN = 0.05


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def reference_forward(model, tokens):
    """Emissions and per-layer attention for a model without LSTM or chars.

    Covers the attributes the serving workload enables (position, spell,
    edge relations with no dependency edges, so every pair takes the
    no-edge row); raises on any other configuration.
    """
    cfg = model.cfg
    if cfg.use_lstm or cfg.use_char or cfg.use_pos_tag or cfg.use_dep:
        raise ValueError("reference forward covers position and spell only")
    enc = model.encoder
    n = len(tokens)
    h = enc.word_table.weights.data[
        [model.word_vocab.id_of(t.lower()) for t in tokens]]
    v_parts = []
    if cfg.use_position:
        v_parts.append(enc.position_table.weights.data[:n])
    if cfg.use_spell:
        v_parts.append(enc.spell_table.weights.data[
            [embeddings.spell_id(t) for t in tokens]])
    v = np.concatenate(v_parts, axis=1) if v_parts else np.zeros((n, 0))
    no_edge = enc.rel_table.weights.data[model.rel_vocab.pad_id]
    if model.stack.input_proj is not None:
        h = h @ model.stack.input_proj.data
    d_h, d_v = h.shape[1], v.shape[1]
    alphas = []
    for layer in model.stack.layers:
        w = layer.w_score.data
        # s[i, k] = u . tanh(h_k A + h_i B + v_i C + v_k D + e_ik E)
        a, b = h @ w[:d_h], h @ w[d_h:2 * d_h]
        c = v @ w[2 * d_h:2 * d_h + d_v]
        d = v @ w[2 * d_h + d_v:2 * d_h + 2 * d_v]
        e = no_edge @ w[2 * d_h + 2 * d_v:]
        src = b + c                      # depends on i
        tgt = a + d                      # depends on k
        pre = src[:, None, :] + tgt[None, :, :] + e
        s = np.tanh(pre) @ layer.u.data  # [i, k]
        s = s - s.max(axis=0, keepdims=True)
        alpha = np.exp(s) / np.exp(s).sum(axis=0, keepdims=True)
        agg = alpha.T @ h
        g = _sigmoid(h @ layer.w_gate.data + layer.b_gate.data)
        h = g * agg + (1.0 - g) * h
        alphas.append(alpha)
    emit = h @ model.crf.w_emit.data + model.crf.b_emit.data
    return emit, alphas


def max_product_decode(emit, trans, start) -> list[int]:
    """Best tag path by max-product over explicit per-tag loops."""
    n, m = emit.shape
    score = [start[t] + emit[0, t] for t in range(m)]
    back = []
    for i in range(1, n):
        nxt, ptr = [], []
        for t in range(m):
            best, arg = -np.inf, 0
            for prev in range(m):
                cand = score[prev] + trans[prev, t]
                if cand > best:
                    best, arg = cand, prev
            nxt.append(best + emit[i, t])
            ptr.append(arg)
        score = nxt
        back.append(ptr)
    last = max(range(m), key=lambda t: (score[t], -t))
    path = [last]
    for ptr in reversed(back):
        path.append(ptr[path[-1]])
    return path[::-1]


# ---------------------------------------------------------------------------
# checks over program outputs

def check_emissions(program, reference,
                    tol: float = EMISSION_TOL) -> list[str]:
    program, reference = np.asarray(program), np.asarray(reference)
    if program.shape != reference.shape:
        return [f"emissions have shape {program.shape}, the reference "
                f"{reference.shape}"]
    worst = float(np.max(np.abs(program - reference)))
    if not worst <= tol:
        return [f"emissions differ from the reference by {worst:.3g} > {tol}"]
    return []


def check_alphas(alphas, reference=None, tol: float = ALPHA_TOL) -> list[str]:
    out = []
    for li, alpha in enumerate(alphas):
        sums = alpha.sum(axis=0)
        if np.max(np.abs(sums - 1.0)) > tol:
            out.append(f"layer {li}: attention columns sum to "
                       f"{sums.min():.12f}..{sums.max():.12f}")
        if reference is not None and not np.max(
                np.abs(alpha - reference[li])) <= tol:
            out.append(f"layer {li}: attention differs from the reference")
    return out


def check_decode(predicted: list[str], emit, crf_params, labels) -> list[str]:
    expect = [labels[t] for t in max_product_decode(
        emit, crf_params.trans.data, crf_params.start.data)]
    if list(predicted) != expect:
        bad = next(i for i, (p, e) in enumerate(zip(predicted, expect))
                   if p != e) if len(predicted) == len(expect) else -1
        return [f"decoded tags differ from max-product at position {bad}"]
    return []


def central_differences(objective, params, coords, eps: float = FD_EPS,
                        refinements: int = 2):
    """Numeric gradient at each (tensor index, flat index) coordinate.

    The losses have kinks (max pooling over char windows, for one), and a
    central difference whose interval straddles one mixes the slopes of
    both sides. So each coordinate is differenced at eps and at eps / 10;
    where the two disagree, the step shrinks tenfold again, at most
    `refinements` times, and the value from the finer step is kept. Where
    the loss is smooth the value at eps is returned, as a single central
    difference would give it.
    """
    out = []
    for pi, flat_i in coords:
        flat = params[pi].data.reshape(-1)
        keep = flat[flat_i]

        def diff(h: float) -> float:
            flat[flat_i] = keep + h
            up = objective().item()
            flat[flat_i] = keep - h
            down = objective().item()
            flat[flat_i] = keep
            return (up - down) / (2.0 * h)

        step = eps
        value = diff(step)
        for _ in range(refinements):
            finer = diff(step / 10.0)
            if _agree(value, finer):
                break
            step, value = step / 10.0, finer
        out.append(value)
    return out


def _agree(a: float, b: float, rtol: float = FD_RTOL,
           atol: float = FD_ATOL) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def gradient_coords(grads, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Per tensor, the largest-magnitude and one random nonzero coordinate."""
    coords = []
    for pi, g in enumerate(grads):
        flat = np.abs(g.reshape(-1))
        coords.append((pi, int(flat.argmax())))
        nonzero = np.flatnonzero(flat)
        if nonzero.size:
            coords.append((pi, int(nonzero[rng.integers(0, nonzero.size)])))
    return coords


def analytic_gradients(objective, params) -> list[np.ndarray]:
    ad.zero_grads(params)
    ad.backward(objective())
    return [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
            for p in params]


def check_gradients(names, analytic, numeric, coords,
                    rtol: float = FD_RTOL, atol: float = FD_ATOL) -> list[str]:
    out = []
    for (pi, flat_i), num in zip(coords, numeric):
        ana = analytic[pi].reshape(-1)[flat_i]
        if not _agree(ana, num, rtol, atol):
            out.append(f"{names[pi]}[{flat_i}]: backward {ana:.9g} vs "
                       f"central difference {num:.9g}")
    return out


def check_loss_decreased(first: float, last: float) -> list[str]:
    if not last < first:
        return [f"final training loss {last:.6f} is not below the initial "
                f"{first:.6f}"]
    return []


def check_heldout(score: float, chance: float,
                  margin: float = HELDOUT_MARGIN) -> list[str]:
    if not score > chance + margin:
        return [f"held-out score {score:.4f} is not above chance "
                f"{chance:.4f} by {margin}"]
    return []


def check_equal_predictions(a, b, what: str) -> list[str]:
    bad = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
    if bad or len(a) != len(b):
        return [f"{what}: {len(bad)} of {len(a)} predictions differ"]
    return []
