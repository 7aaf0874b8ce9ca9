"""Layer mechanism tests with scalar-loop and composition oracles."""

import numpy as np
import pytest

from cn3 import autodiff as ad
from cn3.autodiff import NumericError, ShapeError, Tensor
from cn3.core import (Cn3StackParams, EdgeAttrs, aggregate, edge_scores,
                      gated_update, init_layer, init_stack, normalize_alpha,
                      run_stack)


def rng(seed=0):
    return np.random.default_rng(seed)


def constant_edges(n, d_e, value=0.05):
    """Every pair takes the one row of a one-row relation table."""
    return EdgeAttrs(Tensor(np.full((1, d_e), value)),
                     np.zeros(n * n, dtype=np.intp))


def distinct_edges(n, d_e, seed):
    """A relation table of n*n random rows, one per pair: ids = arange(n*n)."""
    return EdgeAttrs(Tensor(rng(seed).normal(size=(n * n, d_e))),
                     np.arange(n * n))


def shared_edges(n, d_e, seed, rows=3):
    """A trainable relation table of a few rows; pairs draw ids at random."""
    r = rng(seed)
    return EdgeAttrs(Tensor(r.normal(size=(rows, d_e)), requires_grad=True),
                     r.integers(0, rows, size=n * n))


def scalar_scores(h, v, e, p):
    """Build each pair's concat vector explicitly; the slow reference.

    e holds one row per ordered pair, row-major.
    """
    n = h.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for k in range(n):
            parts = [h[k], h[i]]
            if v is not None:
                parts += [v[i], v[k]]
            parts.append(e[i * n + k])
            cat = np.concatenate(parts)
            out[i, k] = np.tanh(cat @ p.w_score.data) @ p.u.data
    return out


class TestEdgeScores:
    def test_zero_u_gives_zero_scores(self):
        p = init_layer(3, 2, 2, 4, rng(0))
        p.u.data[...] = 0.0
        h = Tensor(rng(1).normal(size=(3, 3)))
        v = Tensor(rng(2).normal(size=(3, 2)))
        s = edge_scores(h, v, constant_edges(3, 2), p)
        np.testing.assert_array_equal(s.data, np.zeros((3, 3)))

    def test_single_token_single_self_score(self):
        p = init_layer(2, 0, 2, 3, rng(3))
        h = Tensor(rng(4).normal(size=(1, 2)))
        s = edge_scores(h, None, constant_edges(1, 2), p)
        assert s.shape == (1, 1)

    def test_matches_scalar_reimplementation(self):
        p = init_layer(3, 2, 2, 4, rng(5))
        h = Tensor(rng(6).normal(size=(2, 3)))
        v = Tensor(rng(7).normal(size=(2, 2)))
        e = distinct_edges(2, 2, 8)
        got = edge_scores(h, v, e, p).data
        want = scalar_scores(h.data, v.data, e.table.data[e.ids], p)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_matches_scalar_reimplementation_without_v(self):
        p = init_layer(3, 0, 2, 4, rng(9))
        h = Tensor(rng(10).normal(size=(3, 3)))
        e = distinct_edges(3, 2, 11)
        got = edge_scores(h, None, e, p).data
        want = scalar_scores(h.data, None, e.table.data[e.ids], p)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_matches_scalar_reimplementation_distinct_edges(self):
        # Five tokens, and every pair's edge row differs from every other's,
        # so a pair whose row were taken from the wrong (i, k) would show.
        n = 5
        p = init_layer(3, 2, 3, 4, rng(20))
        h = Tensor(rng(21).normal(size=(n, 3)))
        v = Tensor(rng(22).normal(size=(n, 2)))
        e = distinct_edges(n, 3, 23)
        assert len({tuple(row) for row in e.table.data[e.ids]}) == n * n
        got = edge_scores(h, v, e, p).data
        want = scalar_scores(h.data, v.data, e.table.data[e.ids], p)
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("with_v", [True, False])
    def test_gradient_check(self, n, with_v):
        d_v = 2 if with_v else 0
        p = init_layer(3, d_v, 2, 3, rng(24))
        h = Tensor(rng(25).normal(size=(n, 3)), requires_grad=True)
        v = Tensor(rng(26).normal(size=(n, 2)), requires_grad=True) if with_v else None
        e = shared_edges(n, 2, 27)
        w = Tensor(rng(28).normal(size=(n, n)))
        params = [h, e.table, p.w_score, p.u] + ([v] if with_v else [])

        def f():
            return ad.sum_all(edge_scores(h, v, e, p) * w)

        assert ad.grad_check(f, params) < 1e-5

    def test_no_pair_tensor_wider_than_d_a_on_tape(self):
        # The scorer keeps its one [n*n, d_a] array inside pair_scores'
        # backward; no tensor on the tape has a row per pair.
        n, d_h, d_v, d_e, d_a = 6, 8, 5, 2, 3
        p = init_layer(d_h, d_v, d_e, d_a, rng(29))
        h = Tensor(rng(30).normal(size=(n, d_h)), requires_grad=True)
        v = Tensor(rng(31).normal(size=(n, d_v)), requires_grad=True)
        e = shared_edges(n, d_e, 32)
        inputs = {id(t) for t in (h, v, e.table, p.w_score, p.u)}
        out = edge_scores(h, v, e, p)
        seen, stack, walked = {id(out)}, [out], 0
        while stack:
            t = stack.pop()
            walked += 1
            assert not (t.ndim == 2 and t.shape[0] == n * n), t
            for parent in t._parents:
                if id(parent) not in seen | inputs:
                    seen.add(id(parent))
                    stack.append(parent)
        assert walked > 1, "walk found no tape"

    @pytest.mark.parametrize("with_v", [True, False])
    def test_w_score_read_by_slice_not_gather(self, with_v):
        n, d_v = 4, 2 if with_v else 0
        p = init_layer(3, d_v, 2, 3, rng(33))
        h = Tensor(rng(34).normal(size=(n, 3)), requires_grad=True)
        v = Tensor(rng(35).normal(size=(n, 2))) if with_v else None
        out = edge_scores(h, v, shared_edges(n, 2, 36), p)
        readers, seen, stack = [], {id(out)}, [out]
        while stack:
            t = stack.pop()
            if any(parent is p.w_score for parent in t._parents):
                readers.append(t._op)
            for parent in t._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        assert readers == ["slice_rows"] * (4 if with_v else 3)

    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("with_v", [True, False])
    def test_w_score_gradient_matches_gather_reference(self, n, with_v):
        d_h, d_v, d_e = 3, 2 if with_v else 0, 2
        p = init_layer(d_h, d_v, d_e, 3, rng(37))
        h = Tensor(rng(38).normal(size=(n, d_h)), requires_grad=True)
        v = Tensor(rng(39).normal(size=(n, d_v)), requires_grad=True) if with_v else None
        e = shared_edges(n, d_e, 40)
        w = Tensor(rng(41).normal(size=(n, n)))

        def gathered():
            # Reference: the same scorer reading the blocks by row gather.
            rows = np.arange(p.w_score.shape[0])
            src_rows = rows[d_h:2 * d_h + d_v]
            tgt_rows = np.concatenate([rows[:d_h],
                                       rows[2 * d_h + d_v:2 * d_h + 2 * d_v]])
            hv = h if v is None else ad.concat_cols([h, v])
            src = ad.matmul(hv, ad.gather_rows(p.w_score, src_rows))
            tgt = ad.matmul(hv, ad.gather_rows(p.w_score, tgt_rows))
            rel = ad.matmul(e.table, ad.gather_rows(p.w_score, rows[2 * d_h + 2 * d_v:]))
            return ad.pair_scores(src, tgt, rel, e.ids, p.u)

        grads = []
        for scores in (lambda: edge_scores(h, v, e, p), gathered):
            p.w_score.grad = None
            ad.backward(ad.sum_all(scores() * w))
            grads.append(p.w_score.grad)
        np.testing.assert_allclose(grads[0], grads[1], rtol=0, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        p = init_layer(3, 2, 2, 4, rng(12))
        h = Tensor(rng(13).normal(size=(2, 3)))
        v = Tensor(rng(14).normal(size=(3, 2)))
        with pytest.raises(ShapeError):
            edge_scores(h, v, constant_edges(2, 2), p)
        with pytest.raises(ShapeError):
            edge_scores(h, Tensor(rng(15).normal(size=(2, 2))),
                        constant_edges(3, 2), p)


class TestNormalizeAlpha:
    def test_zero_scores_uniform(self):
        a = normalize_alpha(Tensor(np.zeros((3, 3)))).data
        np.testing.assert_allclose(a, np.full((3, 3), 1.0 / 3.0), atol=1e-15)

    def test_columns_sum_to_one(self):
        a = normalize_alpha(Tensor(rng(0).normal(size=(5, 5)))).data
        np.testing.assert_allclose(a.sum(axis=0), np.ones(5), atol=1e-12)

    def test_column_shift_invariance(self):
        s = rng(1).normal(size=(4, 4))
        shifted = s.copy()
        shifted[:, 2] += 7.5
        a = normalize_alpha(Tensor(s)).data
        b = normalize_alpha(Tensor(shifted)).data
        np.testing.assert_allclose(a[:, 2], b[:, 2], atol=1e-12)

    def test_nan_rejected(self):
        s = np.zeros((2, 2))
        s[0, 1] = np.nan
        with pytest.raises(NumericError):
            normalize_alpha(Tensor(s))

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            normalize_alpha(Tensor(np.zeros((2, 3))))


class TestAggregate:
    def test_identity_alpha_returns_h(self):
        h = Tensor(rng(0).normal(size=(4, 3)))
        out = aggregate(Tensor(np.eye(4)), h)
        np.testing.assert_allclose(out.data, h.data, atol=1e-15)

    def test_uniform_alpha_gives_column_means(self):
        h = Tensor(rng(1).normal(size=(4, 3)))
        out = aggregate(Tensor(np.full((4, 4), 0.25)), h)
        for k in range(4):
            np.testing.assert_allclose(out.data[k], h.data.mean(axis=0), atol=1e-12)

    def test_matches_naive_double_loop(self):
        n, d = 5, 3
        alpha = normalize_alpha(Tensor(rng(2).normal(size=(n, n)))).data
        h = rng(3).normal(size=(n, d))
        got = aggregate(Tensor(alpha), Tensor(h)).data
        want = np.zeros((n, d))
        for k in range(n):
            for i in range(n):
                want[k] += alpha[i, k] * h[i]
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestGatedUpdate:
    def test_blend_of_equal_operands_is_identity(self):
        p = init_layer(3, 0, 1, 2, rng(0))
        h = Tensor(rng(1).normal(size=(4, 3)))
        out = gated_update(h, h, p)
        np.testing.assert_allclose(out.data, h.data, atol=1e-12)

    def test_zero_gate_params_average(self):
        p = init_layer(3, 0, 1, 2, rng(2))
        p.w_gate.data[...] = 0.0
        p.b_gate.data[...] = 0.0
        h = Tensor(rng(3).normal(size=(4, 3)))
        h_agg = Tensor(rng(4).normal(size=(4, 3)))
        out = gated_update(h, h_agg, p)
        np.testing.assert_allclose(out.data, (h.data + h_agg.data) / 2, atol=1e-12)

    def test_saturated_gate_returns_aggregate(self):
        p = init_layer(3, 0, 1, 2, rng(5))
        p.w_gate.data[...] = 0.0
        p.b_gate.data[...] = 30.0
        h = Tensor(rng(6).normal(size=(4, 3)))
        h_agg = Tensor(rng(7).normal(size=(4, 3)))
        out = gated_update(h, h_agg, p)
        np.testing.assert_allclose(out.data, h_agg.data, atol=1e-9)

    def test_gate_reads_current_state_not_aggregate(self):
        # Changing only h_agg must leave the gate values fixed, so the output
        # must move linearly in h_agg.
        p = init_layer(2, 0, 1, 2, rng(8))
        h = Tensor(rng(9).normal(size=(3, 2)))
        a1 = Tensor(np.zeros((3, 2)))
        a2 = Tensor(np.ones((3, 2)))
        a3 = Tensor(2 * np.ones((3, 2)))
        o1 = gated_update(h, a1, p).data
        o2 = gated_update(h, a2, p).data
        o3 = gated_update(h, a3, p).data
        np.testing.assert_allclose(o3 - o2, o2 - o1, atol=1e-12)


class TestRunStack:
    def test_single_node_single_layer_fixed_point(self):
        stack = init_stack(3, 3, 0, 2, 2, 1, rng(0))
        h0 = Tensor(rng(1).normal(size=(1, 3)))
        out, trace = run_stack(h0, None, constant_edges(1, 2), stack)
        np.testing.assert_allclose(out.data, h0.data, atol=1e-12)
        np.testing.assert_allclose(trace.per_layer[0].data, [[1.0]], atol=1e-15)

    def test_two_layers_equal_manual_chain(self):
        stack = init_stack(3, 3, 2, 2, 3, 2, rng(2))
        h0 = Tensor(rng(3).normal(size=(4, 3)))
        v = Tensor(rng(4).normal(size=(4, 2)))
        e = constant_edges(4, 2)
        out, trace = run_stack(h0, v, e, stack)
        h = h0
        for layer in stack.layers:
            alpha = normalize_alpha(edge_scores(h, v, e, layer))
            h = gated_update(h, aggregate(alpha, h), layer)
        np.testing.assert_array_equal(out.data, h.data)
        assert len(trace.per_layer) == 2
        assert all(a.shape == (4, 4) for a in trace.per_layer)

    def test_trace_columns_stochastic(self):
        stack = init_stack(3, 3, 0, 2, 3, 3, rng(5))
        h0 = Tensor(rng(6).normal(size=(5, 3)))
        _, trace = run_stack(h0, None, constant_edges(5, 2), stack)
        for alpha in trace.per_layer:
            assert alpha.shape == (5, 5)
            np.testing.assert_allclose(alpha.data.sum(axis=0), 1.0,
                                       rtol=0, atol=1e-9)

    def test_zero_layers_returns_projected_input(self):
        stack = init_stack(4, 3, 0, 2, 3, 0, rng(7))
        h0 = Tensor(rng(8).normal(size=(3, 4)))
        out, trace = run_stack(h0, None, constant_edges(3, 2), stack)
        np.testing.assert_array_equal(out.data, h0.data @ stack.input_proj.data)
        assert trace.per_layer == []

    def test_input_projection_applied_when_sizes_differ(self):
        stack = init_stack(5, 3, 0, 2, 3, 1, rng(9))
        assert stack.input_proj is not None
        h0 = Tensor(rng(10).normal(size=(2, 5)))
        out, _ = run_stack(h0, None, constant_edges(2, 2), stack)
        assert out.shape == (2, 3)

    def test_permutation_equivariance_without_attributes(self):
        # Constant edge rows and no v: the mechanism itself is order-free.
        stack = init_stack(3, 3, 0, 2, 3, 2, rng(11))
        h0 = rng(12).normal(size=(4, 3))
        perm = [2, 0, 3, 1]
        base, _ = run_stack(Tensor(h0), None, constant_edges(4, 2), stack)
        permuted, _ = run_stack(Tensor(h0[perm]), None, constant_edges(4, 2), stack)
        np.testing.assert_allclose(permuted.data, base.data[perm], atol=1e-12)

    def test_single_layer_connects_all_pairs(self):
        stack = init_stack(3, 3, 0, 2, 3, 1, rng(13))
        h0 = rng(14).normal(size=(4, 3))
        e = constant_edges(4, 2)
        base, _ = run_stack(Tensor(h0), None, e, stack)
        for j in range(4):
            bumped = h0.copy()
            bumped[j] += 0.5
            moved, _ = run_stack(Tensor(bumped), None, e, stack)
            for k in range(4):
                assert not np.allclose(moved.data[k], base.data[k], atol=1e-12), \
                    f"perturbing token {j} left token {k} unchanged"

    def test_full_stack_gradient_check(self):
        stack = init_stack(3, 3, 2, 2, 3, 2, rng(15))
        h0 = Tensor(rng(16).normal(size=(4, 3)), requires_grad=True)
        v = Tensor(rng(17).normal(size=(4, 2)), requires_grad=True)
        e = shared_edges(4, 2, 18)
        assert stack.input_proj is None
        params = [h0, v, e.table]
        for layer in stack.layers:
            params += [layer.w_score, layer.u, layer.w_gate, layer.b_gate]

        def f():
            out, _ = run_stack(h0, v, e, stack)
            return ad.sum_all(out * out)

        assert ad.grad_check(f, params) < 1e-4
