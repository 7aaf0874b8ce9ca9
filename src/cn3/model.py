"""Full model assembly: vocabularies, parameters, per-task forward passes.

Construction is deterministic: vocabularies come from the training data in
first-occurrence order and every parameter tensor is drawn from one seeded
generator in a fixed sequence, so equal config plus equal data means
bit-identical models. Word lookup is lowercased; the spelling attribute
and the raw characters keep the case signal.

For sentence pairs the two sides share every parameter (one encoder run
per side); pos tags and dependency edges for the second sentence live in
the example's pos_tags_b / dep_edges_b fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from . import core, crf, data, embeddings, encoders, heads
from .autodiff import Tensor

TASKS = ("classify", "tag", "match")


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters; attribute widths default to the published values."""

    task: str = "classify"
    layers: int = 2
    d_word: int = 100
    d_h: int = 100
    d_a: int = 100
    d_char: int = 50
    d_pos: int = 20
    d_pos_tag: int = 20
    d_spell: int = 10
    d_rel: int = 20
    lstm_hidden: int = 100
    char_conv_width: int = 3
    max_len: int = 256
    use_lstm: bool = False
    use_char: bool = False
    use_position: bool = False
    use_pos_tag: bool = False
    use_spell: bool = False
    use_dep: bool = False
    min_count: int = 1
    fine_tune_words: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.layers < 0:
            raise ValueError("layers must be >= 0")
        for name in ("d_word", "d_h", "d_a", "d_char", "d_pos", "d_pos_tag",
                     "d_spell", "d_rel", "lstm_hidden", "char_conv_width",
                     "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


def _collect_sentences(examples: Iterable[data.LabeledExample]):
    for ex in examples:
        yield ex.tokens
        if ex.tokens_b:
            yield ex.tokens_b


class Cn3Model:
    """Vocabularies plus all parameters for one task."""

    def __init__(self, cfg: ModelConfig,
                 train_examples: Sequence[data.LabeledExample],
                 glove_path=None):
        if not train_examples:
            raise ValueError("cannot build a model without training examples")
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)

        lowered = [[t.lower() for t in sent]
                   for sent in _collect_sentences(train_examples)]
        self.word_vocab = embeddings.build_vocab(lowered, cfg.min_count)
        chars = [list(tok) for sent in _collect_sentences(train_examples)
                 for tok in sent]
        self.char_vocab = embeddings.build_vocab(chars)
        pos_corpus = [tags for ex in train_examples
                      for tags in (ex.pos_tags, ex.pos_tags_b) if tags]
        self.pos_tag_vocab = (embeddings.build_vocab(pos_corpus)
                              if pos_corpus else None)
        rels = [sorted(set(edges.values())) for ex in train_examples
                for edges in (ex.dep_edges, ex.dep_edges_b) if edges]
        self.rel_vocab = (embeddings.build_vocab(rels) if rels
                          else embeddings.Vocabulary(
                              [embeddings.PAD_TOKEN, embeddings.UNK_TOKEN]))
        self.labels = data.label_set(train_examples)
        self.label_index = {lab: i for i, lab in enumerate(self.labels)}
        self._init_params(rng, glove_path)

    @classmethod
    def from_parts(cls, cfg: ModelConfig, word_vocab, char_vocab,
                   pos_tag_vocab, rel_vocab, labels: Sequence[str]):
        """Rebuild from stored vocabularies; parameters are freshly drawn.

        Archive loading overwrites the drawn values afterwards; the draw
        only fixes shapes and registry order.
        """
        self = cls.__new__(cls)
        self.cfg = cfg
        self.word_vocab = word_vocab
        self.char_vocab = char_vocab
        self.pos_tag_vocab = pos_tag_vocab
        self.rel_vocab = rel_vocab
        self.labels = list(labels)
        self.label_index = {lab: i for i, lab in enumerate(self.labels)}
        self._init_params(np.random.default_rng(cfg.seed), None)
        return self

    def _init_params(self, rng, glove_path) -> None:
        cfg = self.cfg
        if cfg.use_pos_tag and self.pos_tag_vocab is None:
            raise ValueError("pos-tag attribute enabled but no example "
                             "carries pos tags")

        # Parameter draw order below is part of the archive contract.
        if glove_path is not None:
            word_table = embeddings.load_glove(glove_path, self.word_vocab,
                                               cfg.d_word, rng)
        else:
            word_table = embeddings.table_for(self.word_vocab, cfg.d_word, rng)
        word_table.weights.requires_grad = cfg.fine_tune_words
        self.encoder = encoders.EncoderParams(
            word_table=word_table,
            rel_table=embeddings.table_for(self.rel_vocab, cfg.d_rel, rng),
            position_table=(embeddings.random_table(cfg.max_len, cfg.d_pos, rng)
                            if cfg.use_position else None),
            char_table=(embeddings.table_for(self.char_vocab, cfg.d_char, rng)
                        if cfg.use_char else None),
            char_conv=(encoders.init_char_conv(cfg.char_conv_width, cfg.d_char,
                                               cfg.d_char, rng)
                       if cfg.use_char else None),
            lstm=(encoders.init_bilstm(cfg.d_word, cfg.lstm_hidden, rng)
                  if cfg.use_lstm else None),
            pos_tag_table=(embeddings.table_for(self.pos_tag_vocab,
                                                cfg.d_pos_tag, rng)
                           if cfg.use_pos_tag else None),
            spell_table=(embeddings.random_table(embeddings.SPELL_SIZE,
                                                 cfg.d_spell, rng)
                         if cfg.use_spell else None),
        )
        d_v = encoders.attr_width(self.encoder)
        self.stack = core.init_stack(cfg.d_word, cfg.d_h, d_v, cfg.d_rel,
                                     cfg.d_a, cfg.layers, rng)
        if cfg.task == "tag":
            self.crf = crf.init_crf(cfg.d_h, len(self.labels), rng)
            self.classifier = None
        else:
            d_in = cfg.d_h if cfg.task == "classify" else 4 * cfg.d_h
            self.classifier = heads.init_classifier(d_in, len(self.labels), rng)
            self.crf = None

    # ------------------------------------------------------------------
    # parameter registry

    def params(self) -> list[tuple[str, Tensor]]:
        """Every trainable tensor with a stable dotted name, archive order."""
        out: list[tuple[str, Tensor]] = []
        for group, items in self.param_groups().items():
            out.extend((f"{group}.{name}", t) for name, t in items)
        return out

    def state_tensors(self) -> list[tuple[str, Tensor]]:
        """params() plus frozen tensors the forward pass still needs."""
        out = self.params()
        if not self.cfg.fine_tune_words:
            out = [("tables.word", self.encoder.word_table.weights)] + out
        return out

    def param_groups(self) -> dict[str, list[tuple[str, Tensor]]]:
        enc = self.encoder
        tables: list[tuple[str, Tensor]] = []
        if self.cfg.fine_tune_words:
            tables.append(("word", enc.word_table.weights))
        tables.append(("rel", enc.rel_table.weights))
        for name, table in (("position", enc.position_table),
                            ("char", enc.char_table),
                            ("pos_tag", enc.pos_tag_table),
                            ("spell", enc.spell_table)):
            if table is not None:
                tables.append((name, table.weights))
        groups = {"tables": tables}

        feats: list[tuple[str, Tensor]] = []
        if enc.char_conv is not None:
            feats.append(("char_conv.weight", enc.char_conv.weight))
            feats.append(("char_conv.bias", enc.char_conv.bias))
        if enc.lstm is not None:
            for tag, p in (("fwd", enc.lstm.forward), ("bwd", enc.lstm.backward)):
                feats.append((f"lstm.{tag}.w_input", p.w_input))
                feats.append((f"lstm.{tag}.w_hidden", p.w_hidden))
                feats.append((f"lstm.{tag}.bias", p.bias))
        if feats:
            groups["encoders"] = feats

        stack: list[tuple[str, Tensor]] = []
        if self.stack.input_proj is not None:
            stack.append(("input_proj", self.stack.input_proj))
        for li, layer in enumerate(self.stack.layers):
            stack.append((f"layer{li}.w_score", layer.w_score))
            stack.append((f"layer{li}.u", layer.u))
            stack.append((f"layer{li}.w_gate", layer.w_gate))
            stack.append((f"layer{li}.b_gate", layer.b_gate))
        if stack:
            groups["stack"] = stack

        if self.crf is not None:
            groups["head"] = [("crf.w_emit", self.crf.w_emit),
                              ("crf.b_emit", self.crf.b_emit),
                              ("crf.trans", self.crf.trans),
                              ("crf.start", self.crf.start)]
        else:
            groups["head"] = [("cls.w", self.classifier.w_cls),
                              ("cls.b", self.classifier.b_cls)]
        return groups

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.params()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for name, t in self.params():
            t.data[...] = snap[name]

    # ------------------------------------------------------------------
    # forward passes

    def sentence_graph(self, tokens: Sequence[str],
                       pos_tags: Sequence[str] | None = None,
                       dep_edges: dict[tuple[int, int], str] | None = None,
                       ) -> encoders.SentenceGraph:
        if len(tokens) > self.cfg.max_len:
            raise ValueError(
                f"sentence of {len(tokens)} tokens exceeds max_len "
                f"{self.cfg.max_len}; truncate at ingestion")
        word_ids = [self.word_vocab.id_of(t.lower()) for t in tokens]
        char_ids = [self.char_vocab.ids_of(tok) for tok in tokens]
        spell_ids = [embeddings.spell_id(t) for t in tokens]
        tag_ids = None
        if self.cfg.use_pos_tag:
            if pos_tags is None:
                raise ValueError("pos-tag attribute enabled but sentence "
                                 "has no pos tags")
            tag_ids = self.pos_tag_vocab.ids_of(pos_tags)
        edges: dict[tuple[int, int], int] = {}
        if self.cfg.use_dep and dep_edges:
            edges = {pair: self.rel_vocab.id_of(rel)
                     for pair, rel in dep_edges.items()}
        return encoders.SentenceGraph(word_ids=word_ids, char_ids=char_ids,
                                      spell_ids=spell_ids, pos_tag_ids=tag_ids,
                                      dep_edges=edges)

    def encode(self, g: encoders.SentenceGraph) -> tuple[Tensor, list[Tensor]]:
        """Final node states and each layer's target-major attention."""
        h0, v = encoders.assemble_node_attrs(g, self.encoder)
        e = encoders.assemble_edge_attrs(g, self.encoder.rel_table)
        return core.run_stack(h0, v, e, self.stack)

    def _side(self, tokens: Sequence[str], pos_tags: Sequence[str] | None,
              dep_edges: dict[tuple[int, int], str]) -> Tensor:
        """Final node states of one sentence."""
        return self.encode(self.sentence_graph(tokens, pos_tags, dep_edges))[0]

    def _forward(self, ex: data.LabeledExample) -> Tensor:
        """Final node states (tag) or class log-probabilities (classify, match)."""
        h = self._side(ex.tokens, ex.pos_tags, ex.dep_edges)
        if self.cfg.task == "tag":
            return h
        if self.cfg.task == "classify":
            return heads.graph_pool_classify(h, self.classifier)
        h_b = self._side(ex.tokens_b, ex.pos_tags_b, ex.dep_edges_b)
        return heads.pair_classify(h, h_b, self.classifier)

    def _label_id(self, label: str) -> int:
        if label not in self.label_index:
            raise ValueError(f"label {label!r} never seen in training data")
        return self.label_index[label]

    def loss_for(self, ex: data.LabeledExample) -> Tensor:
        """Scalar training loss for one example."""
        out = self._forward(ex)
        if self.cfg.task == "tag":
            gold = [self._label_id(t) for t in ex.tags]
            return heads.node_crf_head(out, self.crf, gold=gold)
        return heads.nll_of_class(out, self._label_id(ex.label))

    def predict(self, ex: data.LabeledExample):
        """Label string (classify/match) or tag string list (tag).

        Runs under autodiff.no_grad(): a prediction records no tape.
        """
        with ad.no_grad():
            out = self._forward(ex)
            if self.cfg.task == "tag":
                tags, _ = heads.node_crf_head(out, self.crf)
                return [self.labels[t] for t in tags]
        return self.labels[int(np.argmax(out.data))]

    def trace_for(self, tokens: Sequence[str],
                  pos_tags: Sequence[str] | None = None,
                  dep_edges: dict[tuple[int, int], str] | None = None,
                  ) -> core.AlphaTrace:
        """Per-layer source-major attention of one sentence, without a tape."""
        g = self.sentence_graph(tokens, pos_tags, dep_edges)
        with ad.no_grad():
            alphas = self.encode(g)[1]
            return core.AlphaTrace(list(tokens),
                                   [Tensor(a.data.T) for a in alphas])
