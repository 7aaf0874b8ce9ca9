"""Vocabulary construction, table init, GloVe loading, and lookup gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cn3 import autodiff as ad
from cn3 import embeddings as emb
from cn3.embeddings import (GloveParseError, Tensor, Vocabulary, build_vocab,
                            load_glove, lookup, spell_id, table_for)


class TestBuildVocab:
    def test_contains_pad_unk_and_tokens(self):
        v = build_vocab([["a", "b", "a"]], min_count=1)
        assert emb.PAD_TOKEN in v.items and emb.UNK_TOKEN in v.items
        assert "a" in v.index and "b" in v.index

    def test_min_count_drops_rare(self):
        v = build_vocab([["a", "b", "a"]], min_count=2)
        assert v.id_of("b") == v.unk_id
        assert v.id_of("a") != v.unk_id

    def test_first_occurrence_order_stable(self):
        corpus = [["z", "m"], ["a", "z"]]
        v1 = build_vocab(corpus)
        v2 = build_vocab(corpus)
        assert v1.items == v2.items
        assert v1.items.index("z") < v1.items.index("m") < v1.items.index("a")

    def test_pad_and_unk_ids(self):
        v = build_vocab([["x"]])
        assert v.pad_id == 0 and v.unk_id == 1 and v.pad_id != v.unk_id

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_vocab([])

    def test_min_count_validation(self):
        with pytest.raises(ValueError):
            build_vocab([["a"]], min_count=0)

    def test_index_inverts_items(self):
        v = build_vocab([["p", "q", "r"]])
        for i, tok in enumerate(v.items):
            assert v.index[tok] == i

    @given(st.lists(st.lists(st.text(alphabet="abcde", min_size=1, max_size=3),
                             min_size=1, max_size=5), min_size=1, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_property_ids_stable_across_builds(self, corpus):
        v1, v2 = build_vocab(corpus), build_vocab(corpus)
        for sent in corpus:
            assert v1.ids_of(sent) == v2.ids_of(sent)


class TestSpell:
    def test_three_classes(self):
        assert spell_id("Word") == emb.SPELL_UPPER
        assert spell_id("word") == emb.SPELL_LOWER
        assert spell_id("123") == emb.SPELL_OTHER
        assert spell_id("") == emb.SPELL_OTHER


class TestTables:
    def test_init_range(self):
        v = build_vocab([["a", "b"]])
        t = table_for(v, 8, np.random.default_rng(0))
        assert t.weights.data.min() >= -0.1 and t.weights.data.max() <= 0.1
        assert t.rows == len(v) and t.dim == 8

    def test_vocab_size_mismatch_rejected(self):
        v = build_vocab([["a"]])
        with pytest.raises(ValueError):
            emb.EmbeddingTable(Tensor(np.zeros((99, 4))), vocab=v)

    def test_nonfinite_rejected(self):
        w = np.zeros((2, 2))
        w[0, 0] = np.inf
        with pytest.raises(ad.NumericError):
            emb.EmbeddingTable(Tensor(w))

    def test_vocab_requires_reserved_prefix(self):
        with pytest.raises(ValueError):
            Vocabulary(["a", "b"])


class TestLoadGlove:
    def make_vocab(self):
        return build_vocab([["the", "cat"]])

    def test_in_file_row_copied(self, tmp_path):
        p = tmp_path / "vecs.txt"
        p.write_text("the 0.1 0.2\n")
        t = load_glove(p, self.make_vocab(), 2, np.random.default_rng(0))
        np.testing.assert_array_equal(t.weights.data[t.vocab.index["the"]], [0.1, 0.2])

    def test_missing_word_in_init_range(self, tmp_path):
        p = tmp_path / "vecs.txt"
        p.write_text("the 0.5 0.5\n")
        t = load_glove(p, self.make_vocab(), 2, np.random.default_rng(0))
        row = t.weights.data[t.vocab.index["cat"]]
        assert np.all(row >= -0.1) and np.all(row <= 0.1)
        unk = t.weights.data[t.vocab.unk_id]
        assert np.all(unk >= -0.1) and np.all(unk <= 0.1)

    def test_pad_row_zeroed(self, tmp_path):
        p = tmp_path / "vecs.txt"
        p.write_text("the 0.1 0.2\n")
        t = load_glove(p, self.make_vocab(), 2, np.random.default_rng(0))
        np.testing.assert_array_equal(t.weights.data[t.vocab.pad_id], [0.0, 0.0])

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "vecs.txt"
        p.write_text("the 0.1 0.2\ncat 0.3\n")
        with pytest.raises(GloveParseError, match="line 2"):
            load_glove(p, self.make_vocab(), 2, np.random.default_rng(0))

    def test_non_numeric_reports_number(self, tmp_path):
        p = tmp_path / "vecs.txt"
        p.write_text("the oops 0.2\n")
        with pytest.raises(GloveParseError, match="line 1"):
            load_glove(p, self.make_vocab(), 2, np.random.default_rng(0))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_reports_number(self, tmp_path, value):
        p = tmp_path / "vecs.txt"
        p.write_text(f"the 0.1 0.2\ncat 0.3 {value}\n")
        with pytest.raises(GloveParseError, match="line 2: non-finite"):
            load_glove(p, self.make_vocab(), 2, np.random.default_rng(0))

    def test_idempotent_under_fixed_seed(self, tmp_path):
        p = tmp_path / "vecs.txt"
        p.write_text("the 0.1 0.2\n")
        v = self.make_vocab()
        t1 = load_glove(p, v, 2, np.random.default_rng(7))
        t2 = load_glove(p, v, 2, np.random.default_rng(7))
        assert t1.weights.data.tobytes() == t2.weights.data.tobytes()

    def test_words_not_in_vocab_ignored(self, tmp_path):
        p = tmp_path / "vecs.txt"
        p.write_text("zebra 9.0 9.0\nthe 0.1 0.2\n")
        t = load_glove(p, self.make_vocab(), 2, np.random.default_rng(0))
        assert not np.any(t.weights.data == 9.0)


class TestLookup:
    def test_single_row(self):
        v = build_vocab([["a"]])
        t = table_for(v, 4, np.random.default_rng(1))
        out = lookup(t, [0])
        np.testing.assert_array_equal(out.data, t.weights.data[[0]])

    def test_repeated_ids_double_gradient(self):
        v = build_vocab([["a", "b", "c"]])
        t = table_for(v, 3, np.random.default_rng(2))
        once = lookup(t, [2])
        ad.backward(ad.sum_all(once))
        g_once = t.weights.grad[2].copy()
        ad.zero_grads([t.weights])
        twice = lookup(t, [2, 2])
        ad.backward(ad.sum_all(twice))
        np.testing.assert_allclose(t.weights.grad[2], 2 * g_once)

    def test_untouched_rows_get_zero_grad(self):
        v = build_vocab([["a", "b", "c"]])
        t = table_for(v, 3, np.random.default_rng(3))
        ad.backward(ad.sum_all(lookup(t, [2])))
        assert np.all(t.weights.grad[0] == 0) and np.all(t.weights.grad[3] == 0)

    def test_table_gradient_matches_dense_reference(self):
        v = build_vocab([["a", "b", "c", "d", "e"]])
        t = table_for(v, 4, np.random.default_rng(6))
        ids = [3, 5, 3, 2, 3]
        w = np.random.default_rng(7).normal(size=(len(ids), 4))
        ad.backward(ad.sum_all(lookup(t, ids) * Tensor(w)))
        one_hot = np.eye(len(v))[ids]                      # [k, V]
        np.testing.assert_allclose(t.weights.grad, one_hot.T @ w, atol=1e-12)
        untouched = sorted(set(range(len(v))) - set(ids))
        assert np.all(t.weights.grad[untouched] == 0.0)

    def test_frozen_table_gets_no_grad(self):
        v = build_vocab([["a"]])
        t = table_for(v, 2, np.random.default_rng(4), trainable=False)
        y = lookup(t, [1])
        assert not y.requires_grad
        assert t.weights.grad is None

    def test_out_of_range_id(self):
        v = build_vocab([["a"]])
        t = table_for(v, 2, np.random.default_rng(5))
        with pytest.raises(IndexError):
            lookup(t, [len(v)])
