"""Span tracing of the cn3 layers, installed from outside the program.

`Tracer.install` replaces every public function of the cn3 modules (and
the public methods of `Cn3Model`) with a wrapper that records a span:
an id, the id of the enclosing span, the function's name, start and end.
Module globals are patched wherever the function object is bound, so
calls inside a module and names imported from another module go through
the wrapper too. Of `autodiff` only `backward` is wrapped: the tensor ops
run tens of thousands of times per training step, and their cost shows up
as self time of the layer that calls them.

Spans stay in memory and are written out once, at the end of the run.
Counters that need a look at arguments or results (pairs scored, tape
size, gradient bytes, entries updated) are taken by hooks around the same
calls, outside the span's own timing, and only while `counting` is set.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

import numpy as np

from cn3 import (archive, autodiff, core, crf, data, embeddings, encoders,
                 heads, model, training)

LAYERS = (archive, autodiff, core, crf, data, embeddings, encoders, heads,
          model, training)
AUTODIFF_WRAPPED = ("backward",)
MODEL_METHODS = ("sentence_graph", "encode", "loss_for", "predict",
                 "trace_for")


def tape_nodes(root, stop=()) -> list:
    """Tensors reachable from root through the tape, root included.

    Tensors in stop are neither counted nor walked through.
    """
    stop_ids = {id(t) for t in stop}
    seen = {id(root)} | stop_ids
    stack = [root]
    out = []
    while stack:
        node = stack.pop()
        out.append(node)
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return out


def _public_functions(mod):
    names = AUTODIFF_WRAPPED if mod is autodiff else [
        name for name, obj in vars(mod).items()
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__
        and not name.startswith("_")]
    return [(name, getattr(mod, name)) for name in names]


class Tracer:
    """Collects spans and counts; one instance per traced run."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.stack: list[int] = [0]
        self.next_id = 1
        self.op = 0                # id of the current benchmark operation
        self.counting = False      # counters accumulate only while set
        self.counts: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # spans

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = self.stack[-1]
            self.stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans.append((sid, parent, name, start, end, self.op))
        return wrapper

    def install(self) -> None:
        originals = {}
        for mod in LAYERS:
            for name, fn in _public_functions(mod):
                label = f"{mod.__name__.split('.')[-1]}.{name}"
                wrapped = self._hooked(label, self.span(label, fn))
                originals[id(fn)] = (fn, wrapped)
        for mod in LAYERS:
            for name, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, originals[id(obj)][1])
        for name in MODEL_METHODS:
            fn = getattr(model.Cn3Model, name)
            self._restore.append((model.Cn3Model, name, fn))
            setattr(model.Cn3Model, name, self.span(f"model.{name}", fn))

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._restore):
            setattr(owner, name, obj)
        self._restore.clear()

    # ------------------------------------------------------------------
    # counters

    def _hooked(self, label: str, wrapped):
        hook = {"core.edge_scores": self._count_scores,
                "autodiff.backward": self._count_backward,
                "heads.node_crf_head": self._count_decode_tape,
                "embeddings.lookup": self._count_lookup,
                "training.adadelta_step": self._count_update}.get(label)
        if hook is None:
            return wrapped
        return functools.wraps(wrapped)(
            lambda *a, **k: hook(wrapped, *a, **k))

    def _count_scores(self, fn, h, v, e, p):
        out = fn(h, v, e, p)
        if self.counting:
            n = h.shape[0]
            d_cat, d_a = p.w_score.shape
            self.counts["pairs"] += n * n
            self.counts["flops"] += 2 * n * n * d_a * (d_cat + 1)
            self.counts["pair_bytes"] += sum(
                t.data.nbytes for t in tape_nodes(out, stop=(h, v, e))
                if t.ndim == 2 and t.shape[0] == n * n)
        return out

    def _count_backward(self, fn, loss):
        if self.counting:
            self.counts["tape_nodes"] += len(tape_nodes(loss))
        return fn(loss)

    def _count_decode_tape(self, fn, H, crf_params, gold=None):
        # Serving never calls backward: the tape a prediction leaves behind
        # is counted from the final node states it decodes.
        if self.counting and gold is None:
            self.counts["tape_nodes"] += len(tape_nodes(H))
        return fn(H, crf_params, gold=gold)

    def _count_lookup(self, fn, table, ids):
        if self.counting:
            self.counts["lookups"] += 1
        return fn(table, ids)

    def _count_update(self, fn, params, state, *args, **kwargs):
        if not self.counting:
            return fn(params, state, *args, **kwargs)
        before = [(t.data.copy(), state.sq_grad[name].copy(),
                   state.sq_update[name].copy()) for name, t in params]
        self.counts["grad_bytes"] += sum(
            t.grad.nbytes for _, t in params if t.grad is not None)
        out = fn(params, state, *args, **kwargs)
        for (name, t), (d, g2, u2) in zip(params, before):
            self.counts["entries_updated"] += int(np.count_nonzero(
                (t.data != d) | (state.sq_grad[name] != g2)
                | (state.sq_update[name] != u2)))
        self.counts["steps"] += 1
        return out

    # ------------------------------------------------------------------
    # reports

    def self_times(self, ops: set[int]) -> dict[str, tuple[float, float, int]]:
        """Per span name: (inclusive s, self s, calls) over the given ops."""
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _, start, end, _ in self.spans:
            child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
        for sid, _, name, start, end, op in self.spans:
            if op in ops:
                row = out[name]
                row[0] += end - start
                row[1] += end - start - child_time.get(sid, 0.0)
                row[2] += 1
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, op in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "op": op},
                                    separators=(",", ":")) + "\n")
