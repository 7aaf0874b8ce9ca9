"""Full-model integration: construction determinism, losses, predictions."""

import dataclasses

import numpy as np
import pytest

from cn3 import autodiff as ad
from cn3 import crf
from cn3.data import CLASSIFICATION, PAIR, TAGGING, LabeledExample
from cn3.model import Cn3Model, ModelConfig
from cn3.synthetic import (gradcheck_examples, gradcheck_objective,
                           randomize_params)


def tiny_cfg(**overrides):
    base = dict(task="classify", layers=1, d_word=3, d_h=3, d_a=2, d_char=2,
                d_pos=2, d_pos_tag=2, d_spell=2, d_rel=2, lstm_hidden=2,
                max_len=8, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def classify_data():
    return [
        LabeledExample(kind=CLASSIFICATION, tokens=["a", "b", "c"], label="x"),
        LabeledExample(kind=CLASSIFICATION, tokens=["d", "b"], label="y"),
    ]


def tagging_data():
    return [LabeledExample(kind=TAGGING, tokens=["a", "b", "c"],
                           tags=["O", "B-N", "I-N"])]


def dep_tagging_data(n=6):
    """One tagged sentence whose neighbours are joined by dependency edges."""
    words = ["the", "Cat", "sat", "on", "a", "mat"]
    tokens = [words[i % len(words)] for i in range(n)]
    edges = {(i, i + 1): ("det" if i % 2 else "nsubj") for i in range(n - 1)}
    return [LabeledExample(kind=TAGGING, tokens=tokens,
                           tags=["O" if i % 3 else "B-N" for i in range(n)],
                           dep_edges=edges)]


def pair_data():
    return [LabeledExample(kind=PAIR, tokens=["a", "b"], tokens_b=["c"],
                           label="m"),
            LabeledExample(kind=PAIR, tokens=["b"], tokens_b=["a", "c"],
                           label="n")]


class TestConstruction:
    def test_same_seed_same_parameters(self):
        a = Cn3Model(tiny_cfg(use_lstm=True, use_spell=True), classify_data())
        b = Cn3Model(tiny_cfg(use_lstm=True, use_spell=True), classify_data())
        for (na, ta), (nb, tb) in zip(a.params(), b.params()):
            assert na == nb
            assert ta.data.tobytes() == tb.data.tobytes()

    def test_different_seed_differs(self):
        a = Cn3Model(tiny_cfg(), classify_data())
        b = Cn3Model(tiny_cfg(seed=1), classify_data())
        assert any(ta.data.tobytes() != tb.data.tobytes()
                   for (_, ta), (_, tb) in zip(a.params(), b.params()))

    def test_param_names_unique(self):
        m = Cn3Model(tiny_cfg(use_lstm=True, use_char=True, use_position=True,
                              use_pos_tag=True, use_spell=True, use_dep=True),
                     gradcheck_examples("classify"))
        names = [n for n, _ in m.params()]
        assert len(names) == len(set(names))

    def test_word_vocab_is_lowercased(self):
        m = Cn3Model(tiny_cfg(), [LabeledExample(
            kind=CLASSIFICATION, tokens=["Cat", "cat"], label="x"),
            classify_data()[1]])
        assert "cat" in m.word_vocab.index
        assert "Cat" not in m.word_vocab.index

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            Cn3Model(tiny_cfg(), [])

    def test_pos_tag_flag_needs_pos_data(self):
        with pytest.raises(ValueError, match="pos"):
            Cn3Model(tiny_cfg(use_pos_tag=True), classify_data())

    def test_no_projection_when_sizes_match(self):
        m = Cn3Model(tiny_cfg(d_word=3, d_h=3), classify_data())
        assert m.stack.input_proj is None
        m2 = Cn3Model(tiny_cfg(d_word=4, d_h=3), classify_data())
        assert m2.stack.input_proj is not None

    def test_snapshot_restore_round_trip(self):
        m = Cn3Model(tiny_cfg(), classify_data())
        snap = m.snapshot()
        for _, t in m.params():
            t.data += 1.0
        m.restore(snap)
        for name, t in m.params():
            np.testing.assert_array_equal(t.data, snap[name])


class TestForward:
    def test_classify_loss_scalar_and_trainable(self):
        m = Cn3Model(tiny_cfg(), classify_data())
        loss = m.loss_for(classify_data()[0])
        assert loss.shape == ()
        assert loss.item() > 0.0
        ad.backward(loss)
        assert m.classifier.w_cls.grad is not None

    def test_tag_loss_and_predict(self):
        m = Cn3Model(tiny_cfg(task="tag"), tagging_data())
        ex = tagging_data()[0]
        loss = m.loss_for(ex)
        assert loss.item() >= 0.0
        pred = m.predict(ex)
        assert len(pred) == 3
        assert all(t in m.labels for t in pred)

    def test_match_loss_and_predict(self):
        m = Cn3Model(tiny_cfg(task="match"), pair_data())
        loss = m.loss_for(pair_data()[0])
        assert loss.shape == ()
        assert m.predict(pair_data()[0]) in ("m", "n")

    def test_unknown_words_map_to_unk(self):
        m = Cn3Model(tiny_cfg(), classify_data())
        g = m.sentence_graph(["zzz", "a"])
        assert g.word_ids[0] == m.word_vocab.unk_id
        assert g.word_ids[1] != m.word_vocab.unk_id

    def test_sentence_length_cap(self):
        m = Cn3Model(tiny_cfg(max_len=4), classify_data())
        with pytest.raises(ValueError, match="truncate"):
            m.sentence_graph(["a"] * 5)

    def test_unseen_label_rejected(self):
        m = Cn3Model(tiny_cfg(), classify_data())
        bad = LabeledExample(kind=CLASSIFICATION, tokens=["a"], label="nope")
        with pytest.raises(ValueError, match="nope"):
            m.loss_for(bad)

    def test_trace_shape_and_stochastic(self):
        m = Cn3Model(tiny_cfg(layers=2), classify_data())
        trace = m.trace_for(["a", "b", "c"])
        assert len(trace.per_layer) == 2
        assert trace.tokens == ["a", "b", "c"]
        for alpha in trace.per_layer:
            assert alpha.shape == (3, 3)
            np.testing.assert_allclose(alpha.data.sum(axis=0), 1.0,
                                       rtol=0, atol=1e-9)

    def test_trace_is_source_major_transpose_of_encode(self):
        m = Cn3Model(tiny_cfg(layers=2, use_spell=True), classify_data())
        randomize_params(m, seed=4)
        tokens = ["a", "B", "c"]
        trace = m.trace_for(tokens)
        _, alphas = m.encode(m.sentence_graph(tokens))
        assert len(trace.per_layer) == len(alphas) == 2
        for src_major, tgt_major in zip(trace.per_layer, alphas):
            assert not src_major.requires_grad and not src_major._parents
            np.testing.assert_allclose(src_major.data.sum(axis=0), 1.0,
                                       rtol=0, atol=1e-12)
            assert not np.allclose(src_major.data, tgt_major.data)
            assert src_major.data.tobytes() == tgt_major.data.T.tobytes()

    def test_forward_deterministic(self):
        m = Cn3Model(tiny_cfg(use_lstm=True), classify_data())
        ex = classify_data()[0]
        assert m.loss_for(ex).item() == m.loss_for(ex).item()

    def test_predict_leaves_no_tape(self):
        m = Cn3Model(tiny_cfg(task="tag", use_lstm=True, use_char=True,
                              use_dep=True), dep_tagging_data())
        encoded = []
        real = m.encode

        def encode(g):
            out = real(g)
            encoded.append(out[0])
            return out

        m.encode = encode
        m.predict(dep_tagging_data()[0])
        (h,) = encoded
        assert h._parents == () and not h.requires_grad

    def test_no_grad_emissions_bitwise_equal(self):
        # d_a = 64 at 90 tokens puts the pair scorer over several blocks.
        m = Cn3Model(tiny_cfg(task="tag", use_lstm=True, use_char=True,
                              use_dep=True, d_a=64, max_len=128),
                     dep_tagging_data(90))
        ex = dep_tagging_data(90)[0]
        g = m.sentence_graph(ex.tokens, ex.pos_tags, ex.dep_edges)
        taped = crf.emission_scores(m.encode(g)[0], m.crf)
        with ad.no_grad():
            untaped = crf.emission_scores(m.encode(g)[0], m.crf)
        assert taped._parents and not untaped._parents
        np.testing.assert_array_equal(taped.data, untaped.data)

    def test_dep_edges_change_output_only_when_enabled(self):
        ex = LabeledExample(kind=CLASSIFICATION, tokens=["a", "b"], label="x",
                            dep_edges={(0, 1): "det"})
        plain = LabeledExample(kind=CLASSIFICATION, tokens=["a", "b"], label="x")
        off = Cn3Model(tiny_cfg(use_dep=False), [ex, classify_data()[1]])
        assert off.loss_for(ex).item() == off.loss_for(plain).item()
        on = Cn3Model(tiny_cfg(use_dep=True), [ex, classify_data()[1]])
        assert on.loss_for(ex).item() != on.loss_for(plain).item()

    @pytest.mark.parametrize("task", ["classify", "match"])
    def test_predict_is_the_label_of_least_loss(self, task):
        data = gradcheck_examples(task)
        m = Cn3Model(tiny_cfg(task=task, use_char=True, use_dep=True), data)
        randomize_params(m, seed=3)
        for ex in data:
            losses = {label: m.loss_for(dataclasses.replace(ex, label=label))
                      .item() for label in m.labels}
            assert m.predict(ex) == min(losses, key=losses.get)

    def test_tape_size_does_not_depend_on_sentence_length(self):
        # Every step of a model is one tape node, whatever the sentence
        # length: only the config and the layer count set the tape.
        words = ["the", "Cat", "sat", "on", "a", "mat", "by", "Door"]

        def sentence(n, shift=0):
            tokens = [words[(i + shift) % len(words)] for i in range(n)]
            edges = {(i, i + 1): ("det" if i % 2 else "nsubj")
                     for i in range(n - 1)}
            return tokens, edges

        def pair(n):
            (a, ea), (b, eb) = sentence(n), sentence(n, shift=3)
            return LabeledExample(kind=PAIR, tokens=a, tokens_b=b,
                                  label="mn"[n % 2], dep_edges=ea,
                                  dep_edges_b=eb)

        def tagged(n):
            tokens, edges = sentence(n)
            return LabeledExample(kind=TAGGING, tokens=tokens,
                                  tags=["O" if i % 3 else "B-N"
                                        for i in range(n)],
                                  dep_edges=edges)

        flags = dict(use_char=True, use_spell=True, use_dep=True, layers=2,
                     max_len=16)
        cases = [(tiny_cfg(task="match", **flags), pair),
                 (tiny_cfg(task="tag", use_lstm=True, **flags), tagged)]
        for cfg, make in cases:
            m = Cn3Model(cfg, [make(4), make(12), make(5)])
            short, long = (len(ad._topo_order(m.loss_for(make(n))))
                           for n in (4, 12))
            assert short == long, cfg.task


class TestGradients:
    def test_full_variant_grad_check(self):
        cfg = tiny_cfg(task="tag", layers=1, use_lstm=True, use_char=True,
                       use_position=True, use_pos_tag=True, use_spell=True,
                       use_dep=True)
        data = gradcheck_examples("tag")
        m = Cn3Model(cfg, data)
        randomize_params(m)
        err = ad.grad_check(lambda: gradcheck_objective(m, data),
                            [t for _, t in m.params()])
        assert err < 1e-4

    def test_pair_head_grad_check(self):
        cfg = tiny_cfg(task="match", layers=1, use_spell=True)
        data = gradcheck_examples("match")
        m = Cn3Model(cfg, data)
        randomize_params(m)
        err = ad.grad_check(lambda: gradcheck_objective(m, data),
                            [t for _, t in m.params()])
        assert err < 1e-4

    def test_two_layer_grad_check(self):
        cfg = tiny_cfg(task="classify", layers=2)
        data = gradcheck_examples("classify")
        m = Cn3Model(cfg, data)
        randomize_params(m)
        err = ad.grad_check(lambda: gradcheck_objective(m, data),
                            [t for _, t in m.params()])
        assert err < 1e-4

    def test_objective_includes_every_parameter(self):
        m = Cn3Model(tiny_cfg(), classify_data())
        for _, t in m.params():
            t.grad = None
        loss = gradcheck_objective(m, classify_data())
        ad.backward(loss)
        assert all(t.grad is not None and np.any(t.grad != 0.0)
                   for _, t in m.params())
