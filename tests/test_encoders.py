"""Attribute encoder tests: positions, char conv pooling, BiLSTM, assembly."""

from dataclasses import replace

import numpy as np
import pytest

from cn3 import autodiff as ad
from cn3 import core
from cn3 import embeddings as emb
from cn3 import encoders as enc
from cn3.autodiff import Tensor
from cn3.embeddings import build_vocab, table_for
from cn3.encoders import (BiLstmParams, SentenceGraph,
                          assemble_edge_attrs, assemble_node_attrs,
                          bilstm_context, encode_chars, encode_positions,
                          init_bilstm, init_char_conv)


def rng(seed=0):
    return np.random.default_rng(seed)


def plain_table(rows, d, seed=0):
    return emb.random_table(rows, d, rng(seed))


def graph(words=(2, 3), chars=((2,), (3,)), spells=(1, 1), tags=None, edges=None):
    return SentenceGraph(word_ids=list(words),
                         char_ids=[list(c) for c in chars],
                         spell_ids=list(spells),
                         pos_tag_ids=list(tags) if tags is not None else None,
                         dep_edges=dict(edges) if edges else {})


class TestSentenceGraph:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            graph(words=(2, 3, 4), chars=((2,), (3,)))

    def test_empty_char_sequence_rejected(self):
        with pytest.raises(ValueError):
            graph(chars=((2,), ()))

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            graph(edges={(0, 5): 2})

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValueError):
            graph(words=(), chars=(), spells=())


class TestPositions:
    def test_first_row_is_table_row_zero(self):
        t = plain_table(8, 4)
        out = encode_positions(1, t)
        np.testing.assert_array_equal(out.data, t.weights.data[[0]])

    def test_distinct_rows(self):
        t = plain_table(8, 4)
        out = encode_positions(3, t).data
        assert not np.array_equal(out[0], out[1])
        assert not np.array_equal(out[1], out[2])

    def test_deterministic(self):
        t = plain_table(8, 4)
        a = encode_positions(5, t).data
        b = encode_positions(5, t).data
        np.testing.assert_array_equal(a, b)

    def test_too_long_mentions_truncation(self):
        t = plain_table(4, 2)
        with pytest.raises(ValueError, match="[Tt]runcat"):
            encode_positions(5, t)


class TestCharConv:
    def setup_method(self):
        self.cvocab = build_vocab([list("abcdef")])
        self.table = table_for(self.cvocab, 3, rng(1))

    def test_width_one_single_char_is_plain_projection(self):
        conv = init_char_conv(1, 3, 4, rng(2))
        cid = self.cvocab.id_of("a")
        out = encode_chars([[cid]], self.table, conv)
        expect = self.table.weights.data[cid] @ conv.weight.data + conv.bias.data
        np.testing.assert_allclose(out.data, [expect], atol=1e-12)

    def test_order_sensitive_when_width_above_one(self):
        conv = init_char_conv(2, 3, 4, rng(3))
        a, b = self.cvocab.id_of("a"), self.cvocab.id_of("b")
        ab = encode_chars([[a, b]], self.table, conv).data
        ba = encode_chars([[b, a]], self.table, conv).data
        assert not np.allclose(ab, ba)

    def test_trailing_padding_does_not_change_pooling(self):
        conv = init_char_conv(3, 3, 4, rng(4))
        ids = [self.cvocab.id_of(c) for c in "abcd"]
        clean = encode_chars([ids], self.table, conv).data
        padded = encode_chars([ids + [self.cvocab.pad_id] * 3], self.table, conv).data
        np.testing.assert_array_equal(clean, padded)

    def test_token_shorter_than_width_uses_padded_window(self):
        conv = init_char_conv(3, 3, 4, rng(5))
        a = self.cvocab.id_of("a")
        out = encode_chars([[a]], self.table, conv)
        window = np.concatenate([self.table.weights.data[a],
                                 self.table.weights.data[self.cvocab.pad_id],
                                 self.table.weights.data[self.cvocab.pad_id]])
        expect = window @ conv.weight.data + conv.bias.data
        np.testing.assert_allclose(out.data, [expect], atol=1e-12)

    def test_multi_token_shape(self):
        conv = init_char_conv(3, 3, 5, rng(6))
        ids = [[self.cvocab.id_of(c) for c in word] for word in ("ab", "cdef", "a")]
        assert encode_chars(ids, self.table, conv).shape == (3, 5)

    def test_gradients_match_finite_differences(self):
        conv = init_char_conv(2, 3, 2, rng(7))
        ids = [[self.cvocab.id_of(c) for c in "abc"], [self.cvocab.id_of("d")]]
        params = [conv.weight, conv.bias, self.table.weights]

        def f():
            out = encode_chars(ids, self.table, conv)
            return ad.sum_all(out * out)

        assert ad.grad_check(f, params) < 1e-6


class TestBiLstm:
    def test_output_shape(self):
        p = init_bilstm(3, 4, rng(0))
        out = bilstm_context(Tensor(rng(1).normal(size=(5, 3))), p)
        assert out.shape == (5, 8)

    def test_single_token(self):
        p = init_bilstm(3, 4, rng(2))
        out = bilstm_context(Tensor(rng(3).normal(size=(1, 3))), p)
        assert out.shape == (1, 8)

    def test_all_zero_weights_give_zero_outputs(self):
        p = init_bilstm(2, 3, rng(4))
        for lp in (p.forward, p.backward):
            for t in (lp.w_input, lp.w_hidden, lp.bias):
                t.data[...] = 0.0
        out = bilstm_context(Tensor(rng(5).normal(size=(4, 2))), p)
        np.testing.assert_array_equal(out.data, np.zeros((4, 6)))

    def test_forward_half_ignores_future_tokens(self):
        p = init_bilstm(2, 3, rng(6))
        xs = rng(7).normal(size=(4, 2))
        base = bilstm_context(Tensor(xs), p).data
        mutated = xs.copy()
        mutated[2] += 5.0
        changed = bilstm_context(Tensor(mutated), p).data
        np.testing.assert_array_equal(base[:2, :3], changed[:2, :3])
        assert not np.allclose(base[2:, :3], changed[2:, :3])

    def test_backward_half_ignores_past_tokens(self):
        p = init_bilstm(2, 3, rng(8))
        xs = rng(9).normal(size=(4, 2))
        base = bilstm_context(Tensor(xs), p).data
        mutated = xs.copy()
        mutated[1] += 5.0
        changed = bilstm_context(Tensor(mutated), p).data
        np.testing.assert_array_equal(base[2:, 3:], changed[2:, 3:])

    def test_gradients_match_finite_differences(self):
        p = init_bilstm(2, 2, rng(10))
        xs = Tensor(rng(11).normal(size=(3, 2)), requires_grad=True)
        params = [xs, p.forward.w_input, p.forward.w_hidden, p.forward.bias,
                  p.backward.w_input, p.backward.w_hidden, p.backward.bias]

        def f():
            out = bilstm_context(xs, p)
            return ad.sum_all(out * out)

        assert ad.grad_check(f, params) < 1e-6

    def test_tape_size_does_not_grow_with_length(self):
        # Each direction is one fused op, so the BiLSTM adds the same
        # tape nodes to a 3-token sentence as to a 30-token one.
        p = init_bilstm(2, 3, rng(12))

        def tape_size(n):
            xs = Tensor(rng(13).normal(size=(n, 2)), requires_grad=True)
            seen, stack = {id(xs)}, [bilstm_context(xs, p)]
            while stack:
                for parent in stack.pop()._parents:
                    if id(parent) not in seen:
                        seen.add(id(parent))
                        stack.append(parent)
            return len(seen)

        assert tape_size(3) == tape_size(30)


def encoder_params(d_word=4, d_pos=20, h=2, d_char=3, d_tag=5, d_spell=2,
                   d_rel=3, seed=0):
    r = rng(seed)
    wvocab = build_vocab([["the", "cat", "sat"]])
    cvocab = build_vocab([list("thecas")])
    tvocab = build_vocab([["DT", "NN", "VB"]])
    rvocab = build_vocab([["nsubj", "det"]])
    return enc.EncoderParams(
        word_table=table_for(wvocab, d_word, r),
        rel_table=table_for(rvocab, d_rel, r),
        position_table=emb.random_table(16, d_pos, r),
        char_table=table_for(cvocab, 3, r),
        char_conv=init_char_conv(3, 3, d_char, r),
        lstm=init_bilstm(d_word, h, r),
        pos_tag_table=table_for(tvocab, d_tag, r),
        spell_table=emb.random_table(emb.SPELL_SIZE, d_spell, r),
    )


# Each attribute's parameter bundles in EncoderParams, in v's column order.
ATTR_BUNDLES = {"position": ("position_table",), "lstm": ("lstm",),
                "char": ("char_table", "char_conv"),
                "pos_tag": ("pos_tag_table",), "spell": ("spell_table",)}


def with_attrs(p, *names):
    """p with the bundles of every attribute not in names set to None."""
    return replace(p, **{bundle: None for attr, bundles in ATTR_BUNDLES.items()
                         if attr not in names for bundle in bundles})


class TestAssembleNodeAttrs:
    def test_all_flags_off_gives_none(self):
        p = with_attrs(encoder_params())
        h0, v = assemble_node_attrs(graph(), p)
        assert h0.shape == (2, 4)
        assert v is None

    def test_position_only_width(self):
        p = with_attrs(encoder_params(d_pos=20), "position")
        _, v = assemble_node_attrs(graph(), p)
        assert v.shape == (2, 20)

    def test_lstm_plus_char_width_is_250(self):
        p = with_attrs(encoder_params(h=100, d_char=50), "lstm", "char")
        _, v = assemble_node_attrs(graph(), p)
        assert v.shape == (2, 250)

    def test_width_always_sums_enabled_parts(self):
        full = encoder_params()
        for flags in range(1, 32):
            names = [attr for bit, attr in enumerate(ATTR_BUNDLES)
                     if flags & (1 << bit)]
            p = with_attrs(full, *names)
            g = graph(tags=(2, 3))
            _, v = assemble_node_attrs(g, p)
            assert v.shape == (2, enc.attr_width(p))

    def test_column_order_is_position_lstm_char_pos_tag_spell(self):
        p = encoder_params()
        g = graph(tags=(2, 3))
        _, v = assemble_node_attrs(g, p)
        blocks = [assemble_node_attrs(g, with_attrs(p, attr))[1].data
                  for attr in ATTR_BUNDLES]
        np.testing.assert_array_equal(v.data, np.concatenate(blocks, axis=1))

    def test_missing_tags_rejected(self):
        p = with_attrs(encoder_params(), "pos_tag")
        with pytest.raises(ValueError, match="tags"):
            assemble_node_attrs(graph(), p)

    def test_h0_is_word_lookup(self):
        p = with_attrs(encoder_params())
        h0, _ = assemble_node_attrs(graph(words=(2, 2)), p)
        np.testing.assert_array_equal(h0.data, p.word_table.weights.data[[2, 2]])

    def test_deterministic(self):
        p = with_attrs(encoder_params(), "position", "spell")
        a = assemble_node_attrs(graph(), p)[1].data
        b = assemble_node_attrs(graph(), p)[1].data
        np.testing.assert_array_equal(a, b)


class TestAssembleEdgeAttrs:
    def test_no_edges_all_rows_equal_no_edge_row(self):
        p = encoder_params()
        e = assemble_edge_attrs(graph(), p.rel_table)
        assert e.table is p.rel_table.weights
        np.testing.assert_array_equal(e.ids, [p.rel_table.vocab.pad_id] * 4)

    def test_symmetric_and_row_major(self):
        p = encoder_params()
        rel = p.rel_table.vocab.id_of("nsubj")
        g = graph(words=(2, 3, 4), chars=((2,), (3,), (4,)), spells=(1, 1, 1),
                  edges={(0, 2): rel})
        e = assemble_edge_attrs(g, p.rel_table)
        n, pad = 3, p.rel_table.vocab.pad_id
        want = np.full(n * n, pad)
        want[0 * n + 2] = want[2 * n + 0] = rel
        np.testing.assert_array_equal(e.ids, want)

    def test_diagonal_is_no_edge_even_if_listed(self):
        p = encoder_params()
        rel = p.rel_table.vocab.id_of("det")
        g = graph(edges={(1, 1): rel})
        e = assemble_edge_attrs(g, p.rel_table)
        assert e.ids[1 * 2 + 1] == p.rel_table.vocab.pad_id

    def test_gradients_flow_to_relation_table(self):
        p = encoder_params()
        rel = p.rel_table.vocab.id_of("nsubj")
        g = graph(edges={(0, 1): rel})
        e = assemble_edge_attrs(g, p.rel_table)
        layer = core.init_layer(2, 0, p.rel_table.dim, 3, rng(5))
        h = Tensor(rng(6).normal(size=(g.n, 2)))
        ad.backward(ad.sum_all(core.edge_scores(h, None, e, layer)))
        assert p.rel_table.weights.grad is not None
        assert np.any(p.rel_table.weights.grad[rel] != 0)
