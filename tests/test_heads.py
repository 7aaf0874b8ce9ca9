"""Task head tests: pooling classifier, pair features, CRF delegation."""

import itertools
import math

import numpy as np
import pytest

from cn3 import autodiff as ad
from cn3 import crf as crf_mod
from cn3.autodiff import Tensor
from cn3.crf import init_crf
from cn3.heads import (ClassifierParams, graph_pool_classify, init_classifier,
                       nll_of_class, node_crf_head, pair_classify)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestGraphPoolClassify:
    def test_zero_params_uniform(self):
        p = init_classifier(3, 2, rng(0))
        p.w_cls.data[...] = 0.0
        out = graph_pool_classify(Tensor(rng(1).normal(size=(4, 3))), p)
        np.testing.assert_allclose(out.data, [[math.log(0.5)] * 2], atol=1e-12)

    def test_single_row_pooling_is_identity(self):
        p = init_classifier(3, 2, rng(2))
        h = rng(3).normal(size=(1, 3))
        got = graph_pool_classify(Tensor(h), p).data
        logits = h @ p.w_cls.data + p.b_cls.data
        want = logits - np.log(np.exp(logits).sum())
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_duplicating_rows_changes_nothing(self):
        p = init_classifier(3, 4, rng(4))
        h = rng(5).normal(size=(3, 3))
        a = graph_pool_classify(Tensor(h), p).data
        b = graph_pool_classify(Tensor(np.vstack([h, h])), p).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_row_order_invariance(self):
        p = init_classifier(3, 2, rng(6))
        h = rng(7).normal(size=(4, 3))
        a = graph_pool_classify(Tensor(h), p).data
        b = graph_pool_classify(Tensor(h[::-1].copy()), p).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_log_distribution(self):
        p = init_classifier(3, 5, rng(8))
        out = graph_pool_classify(Tensor(rng(9).normal(size=(2, 3))), p).data
        assert abs(np.log(np.exp(out).sum())) < 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            init_classifier(3, 1, rng(10))

    def test_gradient(self):
        p = init_classifier(2, 3, rng(11))
        h = Tensor(rng(12).normal(size=(3, 2)), requires_grad=True)

        def f():
            return nll_of_class(graph_pool_classify(h, p), 1)

        assert ad.grad_check(f, [h, p.w_cls, p.b_cls]) < 1e-5


class TestPairClassify:
    def test_identical_sides_zero_diff_block(self):
        # With W reading only the |a-b| block, identical inputs give logits 0.
        p = init_classifier(8, 2, rng(0))
        p.w_cls.data[...] = 0.0
        p.w_cls.data[4:6, :] = 5.0  # the abs-diff block for d_h=2
        h = rng(1).normal(size=(3, 2))
        out = pair_classify(Tensor(h), Tensor(h.copy()), p).data
        np.testing.assert_allclose(out.data, [[math.log(0.5)] * 2], atol=1e-12)

    def test_swap_asymmetry_through_first_blocks(self):
        p = init_classifier(8, 2, rng(2))
        a = Tensor(rng(3).normal(size=(2, 2)))
        b = Tensor(rng(4).normal(size=(3, 2)))
        ab = pair_classify(a, b, p).data
        ba = pair_classify(b, a, p).data
        assert not np.allclose(ab, ba)

    def test_swap_symmetric_when_ordered_blocks_ignored(self):
        p = init_classifier(8, 2, rng(5))
        p.w_cls.data[:4, :] = 0.0  # zero the a and b blocks; keep |a-b|, a*b
        a = Tensor(rng(6).normal(size=(2, 2)))
        b = Tensor(rng(7).normal(size=(3, 2)))
        np.testing.assert_allclose(pair_classify(a, b, p).data,
                                   pair_classify(b, a, p).data, atol=1e-12)

    def test_log_distribution(self):
        p = init_classifier(12, 3, rng(8))
        a = Tensor(rng(9).normal(size=(2, 3)))
        b = Tensor(rng(10).normal(size=(4, 3)))
        out = pair_classify(a, b, p).data
        assert abs(np.log(np.exp(out).sum())) < 1e-12

    def test_feature_layout_matches_manual_build(self):
        p = init_classifier(8, 2, rng(11))
        ha = rng(12).normal(size=(2, 2))
        hb = rng(13).normal(size=(3, 2))
        a, b = ha.mean(axis=0), hb.mean(axis=0)
        feats = np.concatenate([a, b, np.abs(a - b), a * b])[None, :]
        logits = feats @ p.w_cls.data + p.b_cls.data
        want = logits - np.log(np.exp(logits).sum())
        got = pair_classify(Tensor(ha), Tensor(hb), p).data
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_gradient(self):
        p = init_classifier(8, 2, rng(14))
        a = Tensor(rng(15).normal(size=(2, 2)), requires_grad=True)
        b = Tensor(rng(16).normal(size=(3, 2)), requires_grad=True)

        def f():
            return nll_of_class(pair_classify(a, b, p), 0)

        assert ad.grad_check(f, [a, b, p.w_cls, p.b_cls]) < 1e-4


class TestNodeCrfHead:
    def test_loss_is_nll_of_gold_over_all_sequences(self):
        # sum of exp(-loss) over every gold choice must be 1
        crf = init_crf(3, 2, rng(0))
        H = Tensor(rng(1).normal(size=(3, 3)))
        total = sum(
            math.exp(-node_crf_head(H, crf, gold=list(seq)).item())
            for seq in itertools.product(range(2), repeat=3))
        assert abs(total - 1.0) < 1e-10

    def test_matches_direct_composition(self):
        crf = init_crf(3, 2, rng(2))
        H = Tensor(rng(3).normal(size=(3, 3)))
        gold = [1, 0, 1]
        want = crf_mod.nll_loss(crf_mod.emission_scores(H, crf), gold, crf)
        got = node_crf_head(H, crf, gold=gold)
        assert abs(got.item() - want.item()) < 1e-15

    def test_decode_matches_brute_force(self):
        crf = init_crf(2, 2, rng(4))
        H = Tensor(rng(5).normal(size=(3, 2)))
        emit = crf_mod.emission_scores(H, crf).data
        best, best_tags = -np.inf, None
        for tags in itertools.product(range(2), repeat=3):
            s = crf.start.data[tags[0]] + emit[0][tags[0]]
            for i in range(1, 3):
                s += emit[i][tags[i]] + crf.trans.data[tags[i - 1]][tags[i]]
            if s > best:
                best, best_tags = s, list(tags)
        tags, score = node_crf_head(H, crf)
        assert tags == best_tags
        assert abs(score - best) < 1e-9


class TestNllOfClass:
    def test_picks_right_entry(self):
        lp = Tensor(np.log([[0.2, 0.3, 0.5]]))
        assert abs(nll_of_class(lp, 1).item() - (-math.log(0.3))) < 1e-12
        assert abs(nll_of_class(lp, 2).item() - (-math.log(0.5))) < 1e-12

    def test_label_out_of_range(self):
        lp = Tensor(np.log([[0.2, 0.3, 0.5]]))
        for label in (3, -1):
            with pytest.raises(ValueError):
                nll_of_class(lp, label)

