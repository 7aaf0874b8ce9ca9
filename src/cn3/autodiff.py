"""Dense float64 tensors with reverse-mode automatic differentiation.

Define-by-run: every operation records its parents and a backward closure
on the result tensor, so each forward pass builds a fresh tape (sentence
lengths differ per example and the graph shape follows the data).
``backward`` walks the reachable graph in reverse topological order.

Every backward pass delivers a gradient the same way, through ``_accum``:
each tensor owns one gradient buffer, allocated on first use, and every
contribution is added into it in place. The index ops (``slice_rows``,
``gather_rows``, ``take``, ``max_rows``) share one primitive whose
backward adds the incoming gradient at the index it read from, so nothing
of the parent's size is built besides its one buffer. At a basic slice,
where no index can repeat, the add is a plain ``+=`` into the sliced
view; at any other index it is ``np.add.at``, so repeated indices add up.
``slice_rows``' forward result is a view, not a copy. ``max_rows`` is a
segmented max: one node pools every segment of rows, such as the char
windows of each token of a sentence, and reads each column of a segment
at its first argmax row.

Inside a ``no_grad()`` block no tape is recorded: results have no
parents and require no gradient, so intermediates are freed as soon as
the caller drops them. Predictions and finite differences run there.

Broadcasting is deliberately narrow: binary elementwise ops accept equal
shapes, or a 2-D left operand with a row-vector right operand (bias add,
row-wise gating). Everything else must match exactly.

The ops: elementwise ``add``, ``sub``, ``mul``, ``scale``, ``sigmoid``
and ``absval``; ``matmul``, ``reshape`` and ``concat_cols``; the index
ops above; ``row_softmax``, ``log_softmax_row``, ``mean_rows`` and
``sum_all``; and three fused ops, which put on the tape as one node, with
a hand-written backward pass, what would otherwise take dozens to
hundreds of nodes. ``pair_scores``, the pair scorer, adds a per-source
row, a per-target row and a relation row for every ordered pair, applies
tanh and projects onto a vector, in blocks of source rows; it returns
the scores target-major, one row per target, so that ``row_softmax``
normalizes each target over its sources. ``lstm_scan`` runs one
direction of an LSTM over the rows of a matrix and backpropagates
through time. ``crf_log_partition`` runs a linear-chain CRF's forward
algorithm, and its backward pass delivers the forward-backward
marginals.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

# Byte budget of one block of pair_scores' [rows * n, d] pre-activations,
# small enough that a block's sums, tanh and projection stay in cache. At
# n = 160, d = 100 on a 2-core x86 host, 0.5 to 2 MB timed alike and
# 128 KB about a fifth slower.
PAIR_BLOCK_BYTES = 1 << 19


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NumericError(ValueError):
    """Non-finite values where finite ones are required."""


class Tensor:
    """A dense float64 array plus optional gradient and tape linkage."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False):
        # ascontiguousarray would promote 0-d to shape (1,); keep scalars 0-d.
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 0:
            arr = np.ascontiguousarray(arr)
            if min(arr.shape) == 0:
                raise ShapeError(f"zero-size dimension in shape {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op = "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    # Thin operator sugar; the module-level functions are the real API.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float64), requires_grad)


def uniform(shape, lo: float, hi: float, rng: np.random.Generator,
            requires_grad: bool = True) -> Tensor:
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad)


_GRAD_ENABLED = contextvars.ContextVar("cn3_grad_enabled", default=True)


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Record no tape inside the block; results have no parents or gradient."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def _records(parents: Sequence[Tensor]) -> bool:
    return _GRAD_ENABLED.get() and any(p.requires_grad for p in parents)


def _result(data: np.ndarray, parents: tuple[Tensor, ...], op: str,
            backward: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data)
    out._op = op
    if _records(parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _accum(t: Tensor, g: np.ndarray, at=None) -> None:
    """Add g into t's one gradient buffer; with at, add at that index.

    g broadcasts against t (or against t.grad[at]). A slice cannot repeat
    an index, so it takes a plain in-place add; any other index goes
    through np.add.at, where repeated indices add up.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    if at is None:
        t.grad += g
    elif isinstance(at, slice):
        t.grad[at] += g
    else:
        np.add.at(t.grad, at, g)


def _index(x: Tensor, at, op: str) -> Tensor:
    """x.data[at]; the backward pass adds the gradient back in at at."""
    return _result(x.data[at], (x,), op, lambda g: _accum(x, g, at))


def _topo_order(root: Tensor) -> list[Tensor]:
    # Iterative DFS; LSTM chains exceed the default recursion limit.
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Populate .grad on every requires_grad tensor reachable from a scalar loss."""
    if loss.shape != ():
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    order = _topo_order(loss)
    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# elementwise binaries

def _row_broadcastable(a: Tensor, b: Tensor) -> bool:
    if a.ndim != 2:
        return False
    n = a.shape[1]
    return b.shape == (n,) or b.shape == (1, n)


def _binary_mode(a: Tensor, b: Tensor, op: str) -> str:
    if a.shape == b.shape:
        return "same"
    if _row_broadcastable(a, b):
        return "row"
    raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not match "
                     "(only matrix-with-row-vector broadcast is supported)")


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    return g.sum(axis=0).reshape(shape)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    mode = _binary_mode(a, b, "add")

    def back(g):
        _accum(a, g)
        _accum(b, g if mode == "same" else _reduce_to(g, b.shape))

    return _result(a.data + b.data, (a, b), "add", back)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    mode = _binary_mode(a, b, "sub")

    def back(g):
        _accum(a, g)
        _accum(b, -g if mode == "same" else _reduce_to(-g, b.shape))

    return _result(a.data - b.data, (a, b), "sub", back)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    mode = _binary_mode(a, b, "mul")

    def back(g):
        _accum(a, g * b.data)
        gb = g * a.data
        _accum(b, gb if mode == "same" else _reduce_to(gb, b.shape))

    return _result(a.data * b.data, (a, b), "mul", back)


def scale(x, c: float) -> Tensor:
    x = as_tensor(x)
    c = float(c)

    def back(g):
        _accum(x, c * g)

    return _result(c * x.data, (x,), "scale", back)


# ---------------------------------------------------------------------------
# elementwise unaries

def _sigmoid_stable(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below: exp never overflows
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, ez) / (1.0 + ez)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    y = _sigmoid_stable(x.data)

    def back(g):
        _accum(x, y * (1.0 - y) * g)

    return _result(y, (x,), "sigmoid", back)


def absval(x) -> Tensor:
    # Subgradient 0 at the kink, matching the usual convention.
    x = as_tensor(x)

    def back(g):
        _accum(x, np.sign(x.data) * g)

    return _result(np.abs(x.data), (x,), "abs", back)


# ---------------------------------------------------------------------------
# matmul and structure ops

def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")

    def back(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _result(a.data @ b.data, (a, b), "matmul", back)


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.data.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")

    def back(g):
        _accum(x, g.reshape(x.shape))

    return _result(x.data.reshape(shape), (x,), "reshape", back)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat_cols of nothing")
    if any(p.ndim != 2 for p in parts) or len({p.shape[0] for p in parts}) != 1:
        raise ShapeError(f"concat_cols: bad shapes {[p.shape for p in parts]}")
    widths = [p.shape[1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def back(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accum(p, g[:, lo:hi])

    return _result(np.concatenate([p.data for p in parts], axis=1),
                   tuple(parts), "concat_cols", back)


def slice_rows(x, lo: int, hi: int) -> Tensor:
    """Rows lo..hi-1 of x as a view; backward adds into that slice in place."""
    x = as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"slice_rows expects 2-D, got {x.shape}")
    if lo >= hi:
        raise ShapeError(f"slice_rows with no rows: [{lo}, {hi})")
    if lo < 0 or hi > x.shape[0]:
        raise IndexError(f"row slice [{lo}, {hi}) out of range [0, {x.shape[0]})")
    return _index(x, slice(lo, hi), "slice_rows")


def gather_rows(x, ids: Iterable[int]) -> Tensor:
    """Row gather; backward scatters additively, so repeated ids accumulate."""
    x = as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"gather_rows expects 2-D, got {x.shape}")
    idx = np.asarray(list(ids), dtype=np.intp)
    if idx.size == 0:
        raise ShapeError("gather_rows with no indices")
    if idx.min() < 0 or idx.max() >= x.shape[0]:
        raise IndexError(f"row id out of range [0, {x.shape[0]}): {idx.tolist()}")
    return _index(x, idx, "gather_rows")


def pair_scores(src, tgt, rel, rel_ids, u) -> Tensor:
    """Score every ordered pair (i, k), source i and target k, target-major:

        s[k, i] = u . tanh(src[i] + tgt[k] + rel[rel_ids[i*n + k]])

    src and tgt are [n, d], rel is [r, d] with one row per relation, rel_ids
    holds n*n row ids of rel in source-major pair order, and u is [d]; the
    result is [n, n], row k holding target k's scores over the sources.

    Most pairs share one relation (no edge), so its row is added to tgt
    once and only the pairs with another relation get their own sum. The
    forward pass runs over blocks of source rows of about PAIR_BLOCK_BYTES
    and writes each block's scores into a source-major matrix, returned
    transposed. When a backward pass can follow, the tanh output
    ([n*n, d]) is the one pair array kept; otherwise one block buffer is
    reused and nothing of size n*n*d outlives the call. The backward pass
    turns its gradient back to source-major order once, sums over targets
    for src, over sources for tgt, and adds into rel at each pair's
    relation id.
    """
    src, tgt, rel, u = (as_tensor(t) for t in (src, tgt, rel, u))
    if src.ndim != 2 or tgt.shape != src.shape:
        raise ShapeError(f"pair_scores: src {src.shape} and tgt {tgt.shape} "
                         "must be equal [n, d] matrices")
    n, d = src.shape
    if rel.ndim != 2 or rel.shape[1] != d or u.shape != (d,):
        raise ShapeError(f"pair_scores: rel {rel.shape} and u {u.shape} "
                         f"must have width {d}")
    ids = np.asarray(rel_ids, dtype=np.intp)
    if ids.shape != (n * n,):
        raise ShapeError(f"pair_scores: {ids.shape} relation ids for "
                         f"{n} tokens, expected ({n * n},)")
    if ids.min() < 0 or ids.max() >= rel.shape[0]:
        raise IndexError(f"relation id out of range [0, {rel.shape[0]})")
    parents = (src, tgt, rel, u)
    keep = _records(parents)
    common = int(np.bincount(ids).argmax())
    other = np.flatnonzero(ids != common)
    tgt_common = tgt.data + rel.data[common]
    rows = max(1, PAIR_BLOCK_BYTES // (n * d * 8))
    scores = np.empty((n, n))
    flat_scores = scores.reshape(-1)
    hidden = np.empty((n * n if keep else min(rows, n) * n, d))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        first, last = lo * n, hi * n
        block = hidden[first:last] if keep else hidden[:last - first]
        np.add(src.data[lo:hi, None, :], tgt_common[None, :, :],
               out=block.reshape(hi - lo, n, d))
        pairs = other[np.searchsorted(other, first):np.searchsorted(other, last)]
        if pairs.size:
            block[pairs - first] = (src.data[pairs // n] + tgt.data[pairs % n]
                                    + rel.data[ids[pairs]])
        np.tanh(block, out=block)
        np.dot(block, u.data, out=flat_scores[first:last])

    def back(g):
        g = np.ascontiguousarray(g.T).reshape(-1)
        gu = np.zeros(d)
        gsrc = np.empty((n, d))
        gtgt = np.zeros((n, d))
        buf = np.empty((min(rows, n) * n, d))
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            first, last = lo * n, hi * n
            h, g_block = hidden[first:last], g[first:last]
            gu += g_block @ h
            pre = buf[:last - first]
            np.multiply(h, h, out=pre)
            np.subtract(1.0, pre, out=pre)
            pre *= g_block[:, None]
            pre *= u.data
            pre3 = pre.reshape(hi - lo, n, d)
            pre3.sum(axis=1, out=gsrc[lo:hi])
            gtgt += pre3.sum(axis=0)
        # Per relation: every pair's pre-activation gradient sums to
        # gsrc's column sums; the few pairs off the common relation move
        # theirs to their own row.
        g_common = gsrc.sum(axis=0)
        if other.size:
            h = hidden[other]
            pre = (1.0 - h * h) * g[other, None] * u.data
            _accum(rel, pre, ids[other])
            g_common -= pre.sum(axis=0)
        _accum(rel, g_common, common)
        for t, grad in ((src, gsrc), (tgt, gtgt), (u, gu)):
            _accum(t, grad)

    return _result(scores.T, parents, "pair_scores", back)


def lstm_scan(xs, w_input, w_hidden, bias, reverse: bool = False) -> Tensor:
    """One LSTM direction over the rows of xs: [n, d] -> [n, h].

    Row t of the result is the hidden state after reading rows 0..t of xs
    in order, or rows n-1..t with reverse. The cell (Hochreiter &
    Schmidhuber 1997), with its gates laid out along the columns as
    [i, f, g, o]:

        z = xs[t] @ w_input + bias + h_prev @ w_hidden
        i, f, g, o = sigmoid(z_i), sigmoid(z_f), tanh(z_g), sigmoid(z_o)
        c = f * c_prev + i * g
        h = o * tanh(c)

    with h_prev and c_prev zero before the first step. The input
    projection of all n rows is one product; only h_prev @ w_hidden runs
    per step. For the backward pass the forward keeps the [n, 4h] gate
    activations and the [n, h] cells, their tanh and the outputs. The
    backward pass runs the recurrence back in time into one [n, 4h]
    pre-activation gradient, then gives every operand its gradient with
    one product or sum.
    """
    xs, w_input, w_hidden, bias = (as_tensor(t)
                                   for t in (xs, w_input, w_hidden, bias))
    if xs.ndim != 2:
        raise ShapeError(f"lstm_scan: xs must be an [n, d] matrix, got {xs.shape}")
    n, d = xs.shape
    h = w_hidden.shape[0] if w_hidden.ndim == 2 else -1
    if (w_hidden.shape != (h, 4 * h) or w_input.shape != (d, 4 * h)
            or bias.shape != (4 * h,)):
        raise ShapeError(f"lstm_scan: w_input {w_input.shape}, w_hidden "
                         f"{w_hidden.shape} and bias {bias.shape} must be "
                         f"[{d}, 4h], [h, 4h] and [4h]")
    steps = range(n - 1, -1, -1) if reverse else range(n)
    gates = xs.data @ w_input.data + bias.data  # pre-activations until used
    cells = np.empty((n, h))
    tanh_cells = np.empty((n, h))
    out = np.empty((n, h))
    h_prev, c_prev = np.zeros(h), np.zeros(h)
    for t in steps:
        z = gates[t]
        z += h_prev @ w_hidden.data
        a = _sigmoid_stable(z)
        np.tanh(z[2 * h:3 * h], out=a[2 * h:3 * h])
        gates[t] = a
        c_prev = cells[t] = a[h:2 * h] * c_prev + a[:h] * a[2 * h:3 * h]
        np.tanh(c_prev, out=tanh_cells[t])
        h_prev = out[t] = a[3 * h:] * tanh_cells[t]

    def back(g):
        i, f, cand, o = (gates[:, k * h:(k + 1) * h] for k in range(4))
        # The state each step read: the next row back in reading order.
        h_in, c_in = np.zeros((n, h)), np.zeros((n, h))
        if reverse:
            h_in[:-1], c_in[:-1] = out[1:], cells[1:]
        else:
            h_in[1:], c_in[1:] = out[:-1], cells[:-1]
        # The pre-activation gradient is the step's cell gradient (for i,
        # f, g) or output gradient (for o) times these local factors.
        local = np.concatenate([cand * i * (1.0 - i), c_in * f * (1.0 - f),
                                i * (1.0 - cand * cand),
                                tanh_cells * o * (1.0 - o)], axis=1)
        cell_from_out = o * (1.0 - tanh_cells * tanh_cells)
        dz = np.empty((n, 4 * h))
        dh_next, dc_next = np.zeros(h), np.zeros(h)
        for t in reversed(steps):
            dh = g[t] + dh_next
            dc = dc_next + dh * cell_from_out[t]
            dz[t] = local[t] * np.concatenate([dc, dc, dc, dh])
            dc_next = dc * f[t]
            dh_next = w_hidden.data @ dz[t]
        _accum(xs, dz @ w_input.data.T)
        _accum(w_input, xs.data.T @ dz)
        _accum(w_hidden, h_in.T @ dz)
        _accum(bias, dz.sum(axis=0))

    return _result(out, (xs, w_input, w_hidden, bias), "lstm_scan", back)


def crf_log_partition(emit, trans, start) -> Tensor:
    """log Z of a linear-chain CRF, a 0-d result:

        log sum over y of exp(start[y_0] + sum_i emit[i, y_i]
                              + sum_{i>0} trans[y_{i-1}, y_i])

    with emit [n, m], trans [m, m] indexed [prev, next] and start [m]. The
    forward pass is the forward algorithm in log space; it keeps its
    [n, m] table alpha, the log-sum over the tag prefixes that end at
    position i in tag y. The backward pass delivers the marginals
    (Lafferty et al. 2001): P(y_i = y) to emit[i, y], sum_i P(y_{i-1} = a,
    y_i = b) to trans[a, b] and P(y_0) to start. It runs the backward
    recursion on the marginals themselves rather than on beta: with
    w[i, a, b] = exp(alpha[i, a] + trans[a, b] + emit[i+1, b]
    - alpha[i+1, b]), the share of alpha[i+1, b] that came through tag a,

        P(y_i = a) = sum_b w[i, a, b] P(y_{i+1} = b)

    starting from P(y_{n-1}) = softmax(alpha[n-1]), and the pair marginal
    is w[i, a, b] P(y_{i+1} = b). Every w is a probability, so nothing
    overflows, and all n - 1 of them come from one vectorised expression.
    A non-finite score gives a NaN log Z, so that a diverged model shows
    as a non-finite loss.
    """
    emit, trans, start = (as_tensor(t) for t in (emit, trans, start))
    if emit.ndim != 2:
        raise ShapeError(f"crf_log_partition: emit must be an [n, m] "
                         f"matrix, got {emit.shape}")
    n, m = emit.shape
    if trans.shape != (m, m) or start.shape != (m,):
        raise ShapeError(f"crf_log_partition: trans {trans.shape} and start "
                         f"{start.shape} must be [{m}, {m}] and [{m}]")
    parents = (emit, trans, start)
    alpha = np.full((n, m), np.nan)
    log_z = np.float64(np.nan)
    if all(np.isfinite(t.data).all() for t in parents):
        alpha[0] = start.data + emit.data[0]
        for i in range(1, n):
            # a log-sum-exp over the previous tag, column by column
            alpha[i] = np.logaddexp.reduce(alpha[i - 1][:, None] + trans.data,
                                           axis=0) + emit.data[i]
        log_z = np.logaddexp.reduce(alpha[-1])

    def back(g):
        w = np.exp(alpha[:-1, :, None] + trans.data
                   + (emit.data[1:] - alpha[1:])[:, None, :])
        marg = np.empty((n, m))
        marg[-1] = np.exp(alpha[-1] - log_z)
        for i in range(n - 2, -1, -1):
            np.dot(w[i], marg[i + 1], out=marg[i])
        w *= marg[1:, None, :]
        _accum(emit, g * marg)
        _accum(trans, g * w.sum(axis=0))
        _accum(start, g * marg[0])

    return _result(log_z, parents, "crf_log_partition", back)


def take(x, flat_ids: Iterable[int]) -> Tensor:
    """Pick elements by flat (row-major) index into a 1-D result."""
    x = as_tensor(x)
    if x.ndim == 0:
        raise ShapeError("take from a 0-d tensor")
    idx = np.asarray(list(flat_ids), dtype=np.intp)
    if idx.size == 0:
        raise ShapeError("take with no indices")
    if idx.min() < 0 or idx.max() >= x.data.size:
        raise IndexError(f"flat id out of range [0, {x.data.size}): {idx.tolist()}")
    return _index(x, np.unravel_index(idx, x.shape), "take")


# ---------------------------------------------------------------------------
# softmax and reductions

def row_softmax(x) -> Tensor:
    """Softmax along each row, stabilized by max-subtraction."""
    x = as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"row_softmax expects 2-D, got {x.shape}")
    if not np.all(np.isfinite(x.data)):
        raise NumericError("row_softmax: non-finite input")
    e = np.exp(x.data - x.data.max(axis=1, keepdims=True))
    y = e / e.sum(axis=1, keepdims=True)

    def back(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        _accum(x, y * (g - dot))

    return _result(y, (x,), "row_softmax", back)


def log_softmax_row(x) -> Tensor:
    x = as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"log_softmax_row expects 2-D, got {x.shape}")
    if not np.all(np.isfinite(x.data)):
        raise NumericError("log_softmax_row: non-finite input")
    m = x.data.max(axis=1, keepdims=True)
    shifted = x.data - m
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True)) + m
    y = x.data - lse

    def back(g):
        soft = np.exp(y)
        _accum(x, g - soft * g.sum(axis=1, keepdims=True))

    return _result(y, (x,), "log_softmax_row", back)


def mean_rows(x) -> Tensor:
    """Average over the row index: [m, n] -> [1, n]."""
    x = as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"mean_rows expects 2-D, got {x.shape}")
    m = x.shape[0]

    def back(g):
        _accum(x, g / m)

    return _result(x.data.mean(axis=0, keepdims=True), (x,), "mean_rows", back)


def max_rows(x, starts: Sequence[int]) -> Tensor:
    """Column-wise max over each segment of rows: [n, d] -> [len(starts), d].

    Segment s runs from row starts[s] up to the next start, the last one to
    row n. The gradient flows to each segment's first argmax row, and a NaN
    counts as the max, as with np.argmax.
    """
    x = as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"max_rows expects 2-D, got {x.shape}")
    at = np.asarray(starts, dtype=np.intp)
    n = x.shape[0]
    if (at.ndim != 1 or at.size == 0 or at[0] != 0 or at[-1] >= n
            or np.any(at[1:] <= at[:-1])):
        raise ShapeError(f"max_rows: segment starts {at.tolist()} must rise "
                         f"strictly from 0 and stay below {n}")
    peak = np.maximum.reduceat(x.data, at, axis=0)
    hit = x.data == np.repeat(peak, np.diff(at, append=n), axis=0)
    hit |= np.isnan(x.data)
    first = np.minimum.reduceat(np.where(hit, np.arange(n)[:, None], n), at,
                                axis=0)
    return _index(x, (first, np.arange(x.shape[1])), "max_rows")


def sum_all(x) -> Tensor:
    x = as_tensor(x)

    def back(g):
        _accum(x, g)

    return _result(np.float64(x.data.sum()), (x,), "sum_all", back)


# ---------------------------------------------------------------------------
# gradient checking

def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor],
               eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must rebuild its forward pass from the current parameter values on
    every call. Error is |analytic - numeric| / max(|analytic|, |numeric|, 1e-8)
    maximized over every entry of every parameter. The finite differences
    run under no_grad(), since they need only the loss value.
    """
    if not (0.0 < eps <= 1e-2):
        raise ValueError(f"eps must lie in (0, 1e-2], got {eps}")
    loss = f()
    if loss.shape != ():
        raise ShapeError(f"grad_check needs a scalar function, got shape {loss.shape}")
    zero_grads(params)
    backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params]

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        ga_flat = ga.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            with no_grad():
                flat[i] = keep + eps
                up = f().item()
                flat[i] = keep - eps
                down = f().item()
            flat[i] = keep
            numeric = (up - down) / (2.0 * eps)
            denom = max(abs(ga_flat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(ga_flat[i] - numeric) / denom)
    return worst
