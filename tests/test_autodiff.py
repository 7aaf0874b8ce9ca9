"""Tensor op and reverse-mode gradient tests.

Numeric oracles here are independent of the library under test: matmul is
checked against a naive triple loop, softmax against closed forms, and every
gradient against central differences.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cn3 import autodiff as ad
from cn3.autodiff import NumericError, ShapeError, Tensor


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def central_diff(f, x: Tensor, eps: float = 1e-6) -> np.ndarray:
    flat = x.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        up = f().item()
        flat[i] = keep - eps
        down = f().item()
        flat[i] = keep
        grad[i] = (up - down) / (2 * eps)
    return grad.reshape(x.shape)


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor(np.eye(2))
        np.testing.assert_array_equal(ad.matmul(a, eye).data, a.data)

    def test_hand_example(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0], [4.0]])
        assert ad.matmul(a, b).data[0, 0] == 11.0

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 3))
        got = ad.matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, naive_matmul(a, b), atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradients(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)

        def f():
            return ad.sum_all(ad.matmul(a, b))

        loss = f()
        ad.backward(loss)
        np.testing.assert_allclose(a.grad, central_diff(f, a), atol=1e-6)
        np.testing.assert_allclose(b.grad, central_diff(f, b), atol=1e-6)


class TestElementwise:
    def test_add_sub_mul_values(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[10.0, 20.0], [30.0, 40.0]])
        np.testing.assert_array_equal((a + b).data, [[11, 22], [33, 44]])
        np.testing.assert_array_equal((b - a).data, [[9, 18], [27, 36]])
        np.testing.assert_array_equal((a * b).data, [[10, 40], [90, 160]])

    def test_row_vector_broadcast(self):
        m = Tensor(np.ones((3, 2)))
        bias = Tensor([1.0, 2.0])
        np.testing.assert_array_equal((m + bias).data, [[2, 3], [2, 3], [2, 3]])

    def test_row_broadcast_backward_sums_rows(self):
        m = Tensor(np.ones((3, 2)))
        bias = Tensor([1.0, 2.0], requires_grad=True)
        loss = ad.sum_all(m + bias)
        ad.backward(loss)
        np.testing.assert_array_equal(bias.grad, [3.0, 3.0])

    def test_column_broadcast_rejected(self):
        with pytest.raises(ShapeError):
            ad.add(Tensor(np.ones((3, 2))), Tensor(np.ones((3, 1))))

    def test_scalar_vs_matrix_rejected(self):
        with pytest.raises(ShapeError):
            ad.mul(Tensor(np.ones((2, 2))), Tensor(1.0))

    def test_mul_gradient_is_other_operand(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        loss = ad.sum_all(x * x)
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_scale(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        ad.backward(ad.sum_all(ad.scale(x, -2.5)))
        np.testing.assert_array_equal(x.grad, [-2.5, -2.5])


class TestUnaries:
    def test_sigmoid_values(self):
        x = Tensor([0.0, 100.0, -100.0])
        np.testing.assert_allclose(ad.sigmoid(x).data, [0.5, 1.0, 0.0], atol=1e-12)

    def test_sigmoid_saturation(self):
        assert abs(ad.sigmoid(Tensor(50.0)).item() - 1.0) < 1e-12
        assert ad.sigmoid(Tensor(-745.0)).item() >= 0.0  # no overflow warning

    def test_sigmoid_half_at_zero(self):
        assert ad.sigmoid(Tensor(0.0)).item() == 0.5

    def test_sigmoid_bitwise_equals_masked_form(self):
        # The two-branch form sigmoid was computed with before, kept here
        # as the reference: 1/(1+e^-z) where z >= 0, e^z/(1+e^z) below.
        def masked(z):
            out = np.empty_like(z)
            pos = z >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            out[~pos] = ez / (1.0 + ez)
            return out

        tiny = np.finfo(np.float64).smallest_subnormal
        z = np.concatenate([
            np.random.default_rng(0).standard_normal(400) * 6.0,
            [0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 1e-310, -1e-310,
             800.0, -800.0, 36.7, -36.7, 745.0, -745.0, 709.8, -709.8]])
        for x in (z, z.reshape(26, 16), np.float64(-3.5).reshape(())):
            with np.errstate(over="raise", invalid="raise"):
                got = ad._sigmoid_stable(x)
            assert got.shape == x.shape
            assert got.tobytes() == masked(x).tobytes()

    def test_abs_gradient(self):
        x = Tensor([-2.0, 0.0, 3.0], requires_grad=True)
        ad.backward(ad.sum_all(ad.absval(x)))
        np.testing.assert_array_equal(x.grad, [-1.0, 0.0, 1.0])

    def test_sigmoid_gradient_matches_numeric(self):
        x = Tensor(np.linspace(-2, 2, 7), requires_grad=True)

        def f():
            return ad.sum_all(ad.sigmoid(x))

        ad.backward(f())
        np.testing.assert_allclose(x.grad, central_diff(f, x), atol=1e-8)


class TestSoftmax:
    def test_uniform_rows(self):
        y = ad.row_softmax(Tensor(np.zeros((2, 4)))).data
        np.testing.assert_allclose(y, np.full((2, 4), 0.25), atol=1e-15)

    def test_shift_invariance(self):
        x = np.array([[1.0, 2.0, 3.0]])
        a = ad.row_softmax(Tensor(x)).data
        b = ad.row_softmax(Tensor(x + 123.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_large_inputs_analytic(self):
        y = ad.row_softmax(Tensor([[1000.0, 1001.0]])).data
        expected = 1.0 / (1.0 + math.e)
        assert abs(y[0, 0] - expected) < 1e-12
        assert abs(y[0, 1] - (1.0 - expected)) < 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            ad.row_softmax(Tensor([[1.0, np.inf]]))
        with pytest.raises(NumericError):
            ad.log_softmax_row(Tensor([[np.nan, 0.0]]))

    def test_log_softmax_agrees_with_log_of_softmax(self):
        x = Tensor(np.random.default_rng(2).normal(size=(3, 5)))
        np.testing.assert_allclose(ad.log_softmax_row(x).data,
                                   np.log(ad.row_softmax(x).data), atol=1e-12)

    def test_softmax_gradient(self):
        x = Tensor(np.random.default_rng(3).normal(size=(2, 4)), requires_grad=True)
        w = np.random.default_rng(4).normal(size=(2, 4))

        def f():
            return ad.sum_all(ad.row_softmax(x) * Tensor(w))

        ad.backward(f())
        np.testing.assert_allclose(x.grad, central_diff(f, x), atol=1e-7)

    def test_log_softmax_gradient(self):
        x = Tensor(np.random.default_rng(5).normal(size=(2, 3)), requires_grad=True)
        w = np.random.default_rng(6).normal(size=(2, 3))

        def f():
            return ad.sum_all(ad.log_softmax_row(x) * Tensor(w))

        ad.backward(f())
        np.testing.assert_allclose(x.grad, central_diff(f, x), atol=1e-7)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=6), st.floats(-100, 100))
    @settings(max_examples=50, deadline=None)
    def test_property_rows_sum_to_one_and_shift(self, row, shift):
        x = np.array([row])
        a = ad.row_softmax(Tensor(x)).data
        b = ad.row_softmax(Tensor(x + shift)).data
        assert abs(a.sum() - 1.0) < 1e-9
        np.testing.assert_allclose(a, b, atol=1e-9)


class TestReductions:
    def test_mean_sum_max_rows(self):
        x = Tensor([[1.0, 5.0], [3.0, 1.0]])
        np.testing.assert_array_equal(ad.mean_rows(x).data, [2.0, 3.0])
        np.testing.assert_array_equal(ad.max_rows(x).data, [3.0, 5.0])

    def test_mean_rows_shape_is_1d(self):
        assert ad.mean_rows(Tensor(np.ones((4, 3)))).shape == (3,)

    def test_max_rows_gradient_goes_to_argmax(self):
        x = Tensor([[1.0, 5.0], [3.0, 1.0]], requires_grad=True)
        ad.backward(ad.sum_all(ad.max_rows(x)))
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0], [1.0, 0.0]])

    def test_sum_all_gradient(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        ad.backward(ad.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


class TestStructureOps:
    def test_concat_cols_roundtrip(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(2 * np.ones((2, 3)), requires_grad=True)
        cat = ad.concat_cols([a, b])
        assert cat.shape == (2, 5)
        ad.backward(ad.sum_all(cat * Tensor([[0.0, 0.0, 1.0, 1.0, 1.0]] * 2)))
        np.testing.assert_array_equal(a.grad, np.zeros((2, 2)))
        np.testing.assert_array_equal(b.grad, np.ones((2, 3)))

    def test_concat_rows(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(ad.concat_rows([a, b]).data,
                                      [[1, 2], [3, 4], [5, 6]])

    def test_gather_rows_repeated_ids_accumulate(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        g = ad.gather_rows(x, [0, 0, 1])
        ad.backward(ad.sum_all(g))
        np.testing.assert_array_equal(x.grad, [[2.0, 2.0], [1.0, 1.0]])

    def test_gather_rows_out_of_range(self):
        with pytest.raises(IndexError):
            ad.gather_rows(Tensor(np.ones((2, 2))), [2])

    def test_accum_at_slice_bitwise_equals_add_at(self):
        rng = np.random.default_rng(5)
        start = rng.normal(size=(7, 3))
        by_slice = Tensor(np.zeros((7, 3)), requires_grad=True)
        by_add_at = Tensor(np.zeros((7, 3)), requires_grad=True)
        by_slice.grad, by_add_at.grad = start.copy(), start.copy()
        for lo, hi in [(2, 5), (0, 7), (4, 7), (2, 5)]:
            g = rng.normal(size=(hi - lo, 3))
            ad._accum(by_slice, g, slice(lo, hi))
            np.add.at(by_add_at.grad, np.arange(lo, hi), g)
        assert by_slice.grad.tobytes() == by_add_at.grad.tobytes()

    @pytest.mark.parametrize("lo,hi", [(0, 2), (3, 5), (0, 5)])
    def test_slice_rows_gradient(self, lo, hi):
        # A leading block, a trailing block and the full height, read next
        # to an overlapping gather, so both kinds of add meet in one buffer.
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(hi - lo, 3)))
        w2 = Tensor(rng.normal(size=(3, 3)))

        def f():
            return (ad.sum_all(ad.sigmoid(ad.slice_rows(x, lo, hi)) * w)
                    + ad.sum_all(ad.gather_rows(x, [1, 3, 1]) * w2))

        assert ad.grad_check(f, [x]) < 1e-7

    def test_slice_rows_is_a_view_without_tape(self):
        x = Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
        with ad.no_grad():
            s = ad.slice_rows(x, 1, 3)
        np.testing.assert_array_equal(s.data, x.data[1:3])
        assert np.shares_memory(s.data, x.data)
        assert s._parents == ()

    @pytest.mark.parametrize("shape,lo,hi,error", [
        ((4, 2), 2, 2, ShapeError), ((4, 2), 3, 1, ShapeError),
        ((4, 2), -1, 2, IndexError), ((4, 2), 1, 5, IndexError),
        ((4,), 0, 2, ShapeError)])
    def test_slice_rows_rejects_bad_slices(self, shape, lo, hi, error):
        with pytest.raises(error):
            ad.slice_rows(Tensor(np.ones(shape)), lo, hi)

    def test_take_flat_indices(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        t = ad.take(x, [3, 0])
        np.testing.assert_array_equal(t.data, [4.0, 1.0])
        ad.backward(ad.sum_all(ad.reshape(t, (1, 2))))
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0], [0.0, 1.0]])

    def test_take_from_0d_rejected(self):
        with pytest.raises(ShapeError):
            ad.take(Tensor(1.0), [0])

    def test_index_ops_add_into_one_gradient(self):
        # One tensor read by every index op and by a dense op, with repeated
        # and overlapping indices: a backward pass that overwrote its slot
        # instead of adding into it would lose a contribution.
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        weights = [rng.normal(size=s) for s in [(5, 3), (6,), (3,), (4, 3)]]

        def f():
            parts = [ad.gather_rows(x, [0, 2, 0, 3, 0]),
                     ad.take(x, [1, 1, 5, 11, 0, 1]),
                     ad.max_rows(x),
                     ad.sigmoid(x)]
            terms = [ad.sum_all(p * Tensor(w)) for p, w in zip(parts, weights)]
            total = terms[0]
            for term in terms[1:]:
                total = total + term
            return total

        assert ad.grad_check(f, [x]) < 1e-7

    def test_transpose_gradient(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        w = np.random.default_rng(7).normal(size=(3, 2))
        ad.backward(ad.sum_all(ad.transpose(x) * Tensor(w)))
        np.testing.assert_array_equal(x.grad, w.T)

    def test_reshape_size_mismatch(self):
        with pytest.raises(ShapeError):
            ad.reshape(Tensor(np.ones((2, 3))), (4, 2))

    def test_zero_size_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((0, 3)))


def pair_operands(n, d, seed, rels=3, ids="repeated"):
    """src, tgt, rel, u as trainable tensors plus n*n relation ids.

    "repeated" draws each pair's id from `rels` rows, so ids repeat;
    "equal" gives every pair the same id.
    """
    r = np.random.default_rng(seed)
    src, tgt = r.normal(size=(n, d)), r.normal(size=(n, d))
    rel, u = r.normal(size=(rels, d)), r.normal(size=d)
    rel_ids = (r.integers(0, rels, size=n * n) if ids == "repeated"
               else np.full(n * n, rels - 1))
    return ([Tensor(x, requires_grad=True) for x in (src, tgt, rel, u)],
            rel_ids)


def dense_pair_scores(src, tgt, rel, rel_ids, u):
    n, d = src.shape
    pre = src[:, None, :] + tgt[None, :, :] + rel[rel_ids].reshape(n, n, d)
    return np.tanh(pre) @ u


class TestPairScores:
    def test_matches_double_loop(self):
        n, d = 4, 3
        (src, tgt, rel, u), ids = pair_operands(n, d, 0)
        want = np.zeros((n, n))
        for i in range(n):
            for k in range(n):
                pre = src.data[i] + tgt.data[k] + rel.data[ids[i * n + k]]
                want[i, k] = np.tanh(pre) @ u.data
        got = ad.pair_scores(src, tgt, rel, ids, u).data
        assert got.shape == (n, n)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 3])
    def test_gradients_of_all_operands(self, n):
        for ids_kind in ("repeated", "equal"):
            operands, ids = pair_operands(n, 2, n, ids=ids_kind)
            src, tgt, rel, u = operands
            w = Tensor(np.random.default_rng(10 + n).normal(size=(n, n)))

            def f():
                return ad.sum_all(ad.pair_scores(src, tgt, rel, ids, u) * w)

            assert ad.grad_check(f, operands) < 1e-6, ids_kind

    def test_many_blocks_match_dense_formula(self):
        # At n = 200, d = 100 a block holds a few source rows, so the
        # scores come from dozens of blocks; a few pairs take other
        # relations than the common one, in several of the blocks.
        n, d = 200, 100
        assert ad.PAIR_BLOCK_BYTES < 8 * n * n * d // 10
        (src, tgt, rel, u), _ = pair_operands(n, d, 5)
        ids = np.zeros(n * n, dtype=np.intp)
        picks = np.random.default_rng(6).choice(n * n, size=50, replace=False)
        ids[picks] = 1 + picks % 2
        got = ad.pair_scores(src, tgt, rel, ids, u).data
        want = dense_pair_scores(src.data, tgt.data, rel.data, ids, u.data)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_no_grad_scores_bitwise_equal(self):
        n, d = 70, 40
        (src, tgt, rel, u), ids = pair_operands(n, d, 7)
        taped = ad.pair_scores(src, tgt, rel, ids, u)
        with ad.no_grad():
            untaped = ad.pair_scores(src, tgt, rel, ids, u)
        assert taped._parents and not untaped._parents
        assert not untaped.requires_grad
        np.testing.assert_array_equal(taped.data, untaped.data)

    def test_shape_mismatch(self):
        (src, tgt, rel, u), ids = pair_operands(3, 2, 7)
        with pytest.raises(ShapeError):
            ad.pair_scores(src, tgt, rel, ids[:8], u)
        with pytest.raises(ShapeError):
            ad.pair_scores(src, tgt, rel, np.zeros((3, 3), dtype=np.intp), u)
        with pytest.raises(ShapeError):
            ad.pair_scores(src, Tensor(np.ones((2, 2))), rel, ids, u)
        with pytest.raises(ShapeError):
            ad.pair_scores(src, Tensor(np.ones((3, 3))), rel, ids, u)
        with pytest.raises(ShapeError):
            ad.pair_scores(src, tgt, Tensor(np.ones((3, 3))), ids, u)
        with pytest.raises(ShapeError):
            ad.pair_scores(src, tgt, rel, ids, Tensor(np.ones(3)))
        with pytest.raises(IndexError):
            ad.pair_scores(src, tgt, rel, np.full(9, 3), u)


def lstm_operands(n, d, h, seed):
    """Inputs and weights of one LSTM direction, all requiring gradients."""
    r = np.random.default_rng(seed)
    shapes = [(n, d), (d, 4 * h), (h, 4 * h), (4 * h,)]
    return [Tensor(r.normal(scale=0.5, size=s), requires_grad=True)
            for s in shapes]


def stepwise_lstm(xs, w_input, w_hidden, bias, reverse):
    """The LSTM cell one token at a time, gates [i, f, g, o] along columns."""
    n, h = xs.shape[0], w_hidden.shape[0]

    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    state_h, state_c = np.zeros(h), np.zeros(h)
    out = np.zeros((n, h))
    for t in (reversed(range(n)) if reverse else range(n)):
        z = xs[t] @ w_input + state_h @ w_hidden + bias
        i, f = sig(z[:h]), sig(z[h:2 * h])
        g, o = np.tanh(z[2 * h:3 * h]), sig(z[3 * h:])
        state_c = f * state_c + i * g
        state_h = o * np.tanh(state_c)
        out[t] = state_h
    return out


class TestLstmScan:
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_matches_stepwise_reference(self, n, reverse):
        operands = lstm_operands(n, 3, 4, seed=n)
        got = ad.lstm_scan(*operands, reverse=reverse).data
        want = stepwise_lstm(*(t.data for t in operands), reverse)
        assert got.shape == (n, 4)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("n", [1, 3])
    def test_gradients_of_all_operands(self, n, reverse):
        operands = lstm_operands(n, 2, 3, seed=20 + n)
        w = Tensor(np.random.default_rng(30 + n).normal(size=(n, 3)))

        def f():
            return ad.sum_all(ad.lstm_scan(*operands, reverse=reverse) * w)

        assert ad.grad_check(f, operands) < 1e-6

    @pytest.mark.parametrize("reverse", [False, True])
    def test_no_grad_output_bitwise_equal(self, reverse):
        operands = lstm_operands(9, 5, 6, seed=40)
        taped = ad.lstm_scan(*operands, reverse=reverse)
        with ad.no_grad():
            untaped = ad.lstm_scan(*operands, reverse=reverse)
        assert taped._parents and not untaped._parents
        assert not untaped.requires_grad
        np.testing.assert_array_equal(taped.data, untaped.data)

    def test_shape_mismatch(self):
        xs, w_input, w_hidden, bias = lstm_operands(3, 2, 4, seed=50)
        bad = {"w_input": [Tensor(np.ones((3, 16))), Tensor(np.ones((2, 12)))],
               "w_hidden": [Tensor(np.ones((4, 12))), Tensor(np.ones((3, 16))),
                            Tensor(np.ones(16))],
               "bias": [Tensor(np.ones(12)), Tensor(np.ones((1, 16)))]}
        for name, tensors in bad.items():
            for t in tensors:
                args = dict(xs=xs, w_input=w_input, w_hidden=w_hidden,
                            bias=bias)
                args[name] = t
                with pytest.raises(ShapeError):
                    ad.lstm_scan(**args)
        with pytest.raises(ShapeError):
            ad.lstm_scan(Tensor(np.ones(2)), w_input, w_hidden, bias)


def crf_operands(n, m, seed, scale=1.0):
    """emit [n, m], trans [m, m] and start [m], all requiring gradients."""
    r = np.random.default_rng(seed)
    return [Tensor(r.normal(scale=scale, size=s), requires_grad=True)
            for s in ((n, m), (m, m), (m,))]


def chain_log_partition(emit, trans, start):
    """The forward algorithm as a chain of row log-sum-exps, in numpy."""

    def logsumexp(x):
        top = x.max(axis=-1, keepdims=True)
        return (top + np.log(np.exp(x - top).sum(axis=-1, keepdims=True)))[..., 0]

    alpha = start + emit[0]
    for row in emit[1:]:
        # scores[next][prev] = alpha[prev] + trans[prev][next]
        alpha = logsumexp(trans.T + alpha) + row
    return logsumexp(alpha)


class TestCrfLogPartition:
    @pytest.mark.parametrize("m", [2, 5])
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_matches_chain_formula(self, n, m):
        operands = crf_operands(n, m, seed=10 * n + m)
        got = ad.crf_log_partition(*operands)
        assert got.shape == ()
        want = chain_log_partition(*(t.data for t in operands))
        assert abs(got.item() - want) < 1e-12

    @pytest.mark.parametrize("m", [2, 5])
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_gradients_of_all_operands(self, n, m):
        operands = crf_operands(n, m, seed=100 + 10 * n + m)
        assert ad.grad_check(lambda: ad.crf_log_partition(*operands),
                             operands) < 1e-6

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_gradients_are_marginals(self, n):
        # Each position's tag marginals sum to 1, and so do the first
        # position's; the pair marginals sum to 1 per adjacent pair.
        emit, trans, start = crf_operands(n, 4, seed=200 + n)
        ad.backward(ad.crf_log_partition(emit, trans, start))
        np.testing.assert_allclose(emit.grad.sum(axis=1), np.ones(n),
                                   rtol=0, atol=1e-12)
        assert abs(trans.grad.sum() - (n - 1)) < 1e-12
        assert abs(start.grad.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(start.grad, emit.grad[0], rtol=0, atol=0)
        assert np.all(emit.grad >= 0) and np.all(trans.grad >= 0)

    def test_large_scores_give_finite_log_z(self):
        emit, trans, start = crf_operands(6, 3, seed=300, scale=1000.0)
        got = ad.crf_log_partition(emit, trans, start).item()
        assert np.isfinite(got)
        assert abs(got - chain_log_partition(emit.data, trans.data,
                                             start.data)) < 1e-9
        equal = ad.crf_log_partition(Tensor([[1000.0, 1000.0]]),
                                     Tensor(np.zeros((2, 2))),
                                     Tensor(np.zeros(2))).item()
        assert abs(equal - (1000.0 + math.log(2.0))) < 1e-9

    def test_one_position_is_logsumexp(self):
        emit = Tensor([[1.0, 2.0, 0.5]])
        start = Tensor([0.0, -1.0, 3.0])
        trans = Tensor(np.random.default_rng(301).normal(size=(3, 3)))
        got = ad.crf_log_partition(emit, trans, start).item()
        want = math.log(sum(math.exp(s + e) for s, e in
                            zip(start.data, emit.data[0])))
        assert abs(got - want) < 1e-12

    def test_gradient_at_one_position_is_softmax(self):
        emit, trans, start = crf_operands(1, 3, seed=302)
        ad.backward(ad.crf_log_partition(emit, trans, start))
        soft = ad.row_softmax(Tensor([start.data + emit.data[0]])).data
        np.testing.assert_allclose(emit.grad, soft, rtol=0, atol=1e-12)
        np.testing.assert_allclose(start.grad, soft[0], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(trans.grad, np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_gives_nan(self, bad):
        for position in ((0, 0), (3, 1)):
            emit, trans, start = crf_operands(5, 3, seed=303)
            emit.data[position] = bad
            with np.errstate(all="raise"):
                got = ad.crf_log_partition(emit, trans, start)
            assert math.isnan(got.item())

    def test_no_grad_value_bitwise_equal(self):
        operands = crf_operands(9, 5, seed=304)
        taped = ad.crf_log_partition(*operands)
        with ad.no_grad():
            untaped = ad.crf_log_partition(*operands)
        assert taped._parents and not untaped._parents
        assert taped.data.tobytes() == untaped.data.tobytes()

    def test_shape_mismatch(self):
        emit, trans, start = crf_operands(3, 4, seed=305)
        with pytest.raises(ShapeError):
            ad.crf_log_partition(Tensor(np.ones(4)), trans, start)
        with pytest.raises(ShapeError):
            ad.crf_log_partition(emit, Tensor(np.ones((4, 3))), start)
        with pytest.raises(ShapeError):
            ad.crf_log_partition(emit, trans, Tensor(np.ones(3)))


class TestBackwardMachinery:
    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            ad.backward(x + x)

    def test_fanout_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        y = x + x
        ad.backward(ad.sum_all(y))
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_fanout_matches_duplicated_graph(self):
        # z = x*x + x*x through shared x must equal grad of 2*x*x.
        x = Tensor([3.0], requires_grad=True)
        t = x * x
        ad.backward(ad.sum_all(t + t))
        np.testing.assert_allclose(x.grad, [12.0])

    def test_no_grad_leaf_stays_none(self):
        x = Tensor([1.0])
        y = Tensor([2.0], requires_grad=True)
        ad.backward(ad.sum_all(x * y))
        assert x.grad is None
        np.testing.assert_array_equal(y.grad, [1.0])

    def test_no_grad_records_no_tape(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        with ad.no_grad():
            y = ad.sigmoid(x * x)
        assert y._parents == () and not y.requires_grad
        np.testing.assert_array_equal(y.data, 1.0 / (1.0 + np.exp(-x.data * x.data)))
        z = ad.sigmoid(x * x)
        assert z._parents and z.requires_grad

    def test_deep_chain_no_recursion_error(self):
        x = Tensor([[0.1]], requires_grad=True)
        y = x
        for _ in range(3000):
            y = ad.scale(y, 1.0)
        ad.backward(ad.sum_all(y))
        np.testing.assert_allclose(x.grad, [[1.0]])

    def test_composite_graph_vs_finite_difference(self):
        rng = np.random.default_rng(8)
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 3)))

        def f():
            h = ad.sigmoid(ad.matmul(x, w))
            a = ad.row_softmax(h)
            return ad.sum_all(a * h)

        ad.zero_grads([w])
        ad.backward(f())
        np.testing.assert_allclose(w.grad, central_diff(f, w), atol=1e-6)


class TestGradCheck:
    def test_quadratic_is_tight(self):
        x = Tensor([1.0, -2.0, 0.5], requires_grad=True)

        def f():
            return ad.sum_all(x * x)

        assert ad.grad_check(f, [x]) < 1e-9

    def test_eps_validation(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            ad.grad_check(lambda: ad.sum_all(x), [x], eps=0.0)
        with pytest.raises(ValueError):
            ad.grad_check(lambda: ad.sum_all(x), [x], eps=0.1)

    def test_corrupted_backward_is_caught(self, monkeypatch):
        # Negative control: a deliberately wrong sigmoid derivative must trip it.
        def bad_sigmoid(t):
            t = ad.as_tensor(t)
            y = ad._sigmoid_stable(t.data)

            def back(g):
                ad._accum(t, 0.5 * y * (1.0 - y) * g)

            return ad._result(y, (t,), "sigmoid", back)

        monkeypatch.setattr(ad, "sigmoid", bad_sigmoid)
        x = Tensor([0.7, -1.3], requires_grad=True)

        def f():
            return ad.sum_all(ad.sigmoid(x))

        assert ad.grad_check(f, [x]) > 1e-4
