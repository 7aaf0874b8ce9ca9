"""CRF layer tests against brute-force enumeration of all tag sequences."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cn3 import autodiff as ad
from cn3.autodiff import Tensor
from cn3.crf import (CrfParams, emission_scores, init_crf, log_partition,
                     nll_loss, sequence_score, viterbi_decode)


def rng(seed=0):
    return np.random.default_rng(seed)


def make_params(m, d_h=3, seed=0, zero=False):
    p = init_crf(d_h, m, rng(seed))
    if zero:
        for t in (p.w_emit, p.b_emit, p.trans, p.start):
            t.data[...] = 0.0
    return p


def brute_score(emit, tags, trans, start):
    """Independent log-potential: explicit Python sums, no library calls."""
    total = start[tags[0]] + emit[0][tags[0]]
    for i in range(1, len(tags)):
        total += emit[i][tags[i]] + trans[tags[i - 1]][tags[i]]
    return total


def brute_force(emit, trans, start):
    """(log-partition, best tags, best score) by enumerating every sequence."""
    n, m = emit.shape
    scores = []
    best_tags, best = None, -math.inf
    for tags in itertools.product(range(m), repeat=n):
        s = brute_score(emit, tags, trans, start)
        scores.append(s)
        if s > best:  # strict: first (lexicographically smallest) wins ties
            best, best_tags = s, list(tags)
    mx = max(scores)
    log_z = mx + math.log(sum(math.exp(s - mx) for s in scores))
    return log_z, best_tags, best


class TestEmissionScores:
    def test_zero_weight_rows_equal_bias(self):
        p = make_params(3, d_h=2)
        p.w_emit.data[...] = 0.0
        p.b_emit.data[...] = [1.0, -2.0, 0.5]
        out = emission_scores(Tensor(rng(1).normal(size=(4, 2))), p)
        for row in out.data:
            np.testing.assert_array_equal(row, [1.0, -2.0, 0.5])

    def test_hand_arithmetic_2x2(self):
        p = make_params(2, d_h=2, zero=True)
        p.w_emit.data[...] = [[1.0, 0.0], [0.0, 2.0]]
        p.b_emit.data[...] = [0.5, -0.5]
        out = emission_scores(Tensor([[3.0, 4.0]]), p)
        np.testing.assert_array_equal(out.data, [[3.5, 7.5]])

    def test_matches_naive_loop(self):
        p = make_params(3, d_h=4, seed=2)
        H = rng(3).normal(size=(5, 4))
        got = emission_scores(Tensor(H), p).data
        for i in range(5):
            for y in range(3):
                want = H[i] @ p.w_emit.data[:, y] + p.b_emit.data[y]
                assert abs(got[i, y] - want) < 1e-12


class TestSequenceScore:
    def test_single_position(self):
        p = make_params(3, seed=4)
        emit = Tensor(rng(5).normal(size=(1, 3)))
        got = sequence_score(emit, [2], p).item()
        want = p.start.data[2] + emit.data[0, 2]
        assert abs(got - want) < 1e-12

    def test_all_zero_params_score_zero(self):
        p = make_params(2, zero=True)
        emit = Tensor(np.zeros((4, 2)))
        for tags in itertools.product(range(2), repeat=4):
            assert sequence_score(emit, list(tags), p).item() == 0.0

    def test_matches_direct_sum(self):
        p = make_params(2, seed=6)
        emit = Tensor(rng(7).normal(size=(3, 2)))
        for tags in itertools.product(range(2), repeat=3):
            got = sequence_score(emit, list(tags), p).item()
            want = brute_score(emit.data, tags, p.trans.data, p.start.data)
            assert abs(got - want) < 1e-12

    def test_length_mismatch_rejected(self):
        p = make_params(2)
        with pytest.raises(ValueError):
            sequence_score(Tensor(np.zeros((3, 2))), [0, 1], p)

    def test_bad_tag_id_rejected(self):
        p = make_params(2)
        with pytest.raises(ValueError):
            sequence_score(Tensor(np.zeros((2, 2))), [0, 2], p)


class TestLogPartition:
    def test_zero_params_counts_sequences(self):
        p = make_params(3, zero=True)
        got = log_partition(Tensor(np.zeros((2, 3))), p).item()
        assert abs(got - math.log(9)) < 1e-12

    def test_single_position_is_logsumexp(self):
        p = make_params(3, seed=8)
        emit = Tensor(rng(9).normal(size=(1, 3)))
        got = log_partition(emit, p).item()
        z = p.start.data + emit.data[0]
        want = np.log(np.exp(z).sum())
        assert abs(got - want) < 1e-12

    def test_matches_enumeration_81_sequences(self):
        p = make_params(3, seed=10)
        emit = Tensor(rng(11).normal(size=(4, 3)))
        want, _, _ = brute_force(emit.data, p.trans.data, p.start.data)
        assert abs(log_partition(emit, p).item() - want) < 1e-8

    def test_probabilities_sum_to_one(self):
        p = make_params(3, seed=12)
        emit = Tensor(rng(13).normal(size=(3, 3)))
        log_z = log_partition(emit, p).item()
        total = sum(
            math.exp(sequence_score(emit, list(tags), p).item() - log_z)
            for tags in itertools.product(range(3), repeat=3))
        assert abs(total - 1.0) < 1e-8


def tape_ops(out):
    """Ops of the tape nodes behind out, leaves excluded."""
    return [t._op for t in ad._topo_order(out) if t._parents]


class TestTapeSize:
    def test_log_partition_is_one_node(self):
        p = make_params(4, seed=40)
        emit = Tensor(rng(41).normal(size=(12, 4)), requires_grad=True)
        out = log_partition(emit, p)
        assert tape_ops(out) == ["crf_log_partition"]
        assert out._parents == (emit, p.trans, p.start)

    def test_nll_tape_does_not_grow_with_length(self):
        p = make_params(4, seed=42)
        sizes = []
        for n in (3, 30):
            emit = Tensor(rng(n).normal(size=(n, 4)), requires_grad=True)
            tags = list(rng(n + 1).integers(0, 4, size=n))
            sizes.append(len(tape_ops(nll_loss(emit, tags, p))))
        assert sizes[0] == sizes[1]


class TestNllLoss:
    def test_single_label_set_rejected(self):
        # a one-label chain is degenerate: every sequence has probability 1
        with pytest.raises(ValueError, match="two labels"):
            make_params(1, seed=14)

    def test_loss_nonnegative(self):
        for seed in range(5):
            p = make_params(3, seed=seed)
            emit = Tensor(rng(seed + 100).normal(size=(4, 3)))
            tags = list(rng(seed + 200).integers(0, 3, size=4))
            assert nll_loss(emit, tags, p).item() >= 0.0

    def test_emission_row_shift_cancels(self):
        p = make_params(3, seed=16)
        emit = rng(17).normal(size=(4, 3))
        shifted = emit.copy()
        shifted[2] += 11.0
        tags = [0, 2, 1, 1]
        a = nll_loss(Tensor(emit), tags, p).item()
        b = nll_loss(Tensor(shifted), tags, p).item()
        assert abs(a - b) < 1e-10

    def test_gradient_matches_finite_differences(self):
        p = make_params(3, d_h=2, seed=18)
        H = Tensor(rng(19).normal(size=(3, 2)), requires_grad=True)
        tags = [1, 0, 2]
        params = [H, p.w_emit, p.b_emit, p.trans, p.start]

        def f():
            return nll_loss(emission_scores(H, p), tags, p)

        assert ad.grad_check(f, params) < 1e-4

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_emission_gives_non_finite_loss(self, bad):
        # train() reads a non-finite loss as divergence. The gold path
        # avoids the bad score, so only log Z can carry it.
        p = make_params(3, seed=22)
        emit = rng(23).normal(size=(4, 3))
        emit[1, 2] = bad
        assert not np.isfinite(nll_loss(Tensor(emit), [0, 1, 1, 2], p).item())

    def test_gradient_flows_into_all_params(self):
        p = make_params(3, d_h=2, seed=20)
        H = Tensor(rng(21).normal(size=(3, 2)), requires_grad=True)
        ad.backward(nll_loss(emission_scores(H, p), [0, 1, 2], p))
        for t in (H, p.w_emit, p.b_emit, p.trans, p.start):
            assert t.grad is not None and np.any(t.grad != 0)


class TestViterbi:
    def test_factorized_case_is_positionwise_argmax(self):
        p = make_params(3, zero=True)
        emit = rng(22).normal(size=(5, 3))
        tags, _ = viterbi_decode(Tensor(emit), p)
        assert tags == list(emit.argmax(axis=1))

    def test_single_position(self):
        p = make_params(3, seed=23)
        emit = Tensor(rng(24).normal(size=(1, 3)))
        tags, score = viterbi_decode(emit, p)
        z = p.start.data + emit.data[0]
        assert tags == [int(z.argmax())]
        assert abs(score - z.max()) < 1e-12

    def test_matches_brute_force_1024_sequences(self):
        p = make_params(4, seed=25)
        emit = Tensor(rng(26).normal(size=(5, 4)))
        _, want_tags, want_score = brute_force(emit.data, p.trans.data, p.start.data)
        tags, score = viterbi_decode(emit, p)
        assert tags == want_tags
        assert abs(score - want_score) < 1e-9

    def test_ties_break_toward_lower_label(self):
        p = make_params(3, zero=True)
        tags, score = viterbi_decode(Tensor(np.zeros((4, 3))), p)
        assert tags == [0, 0, 0, 0]
        assert score == 0.0

    def test_score_equals_sequence_score_of_decoded_tags(self):
        p = make_params(3, seed=27)
        emit = Tensor(rng(28).normal(size=(4, 3)))
        tags, score = viterbi_decode(emit, p)
        assert abs(score - sequence_score(emit, tags, p).item()) < 1e-9


class TestAgainstBruteForceProperty:
    @given(st.integers(1, 5), st.integers(2, 4), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_partition_and_viterbi(self, n, m, seed):
        p = make_params(m, d_h=2, seed=seed)
        emit = Tensor(rng(seed + 1).normal(size=(n, m)))
        log_z, best_tags, best_score = brute_force(
            emit.data, p.trans.data, p.start.data)
        assert abs(log_partition(emit, p).item() - log_z) < 1e-8
        tags, score = viterbi_decode(emit, p)
        assert tags == best_tags
        assert abs(score - best_score) < 1e-9
