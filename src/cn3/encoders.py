"""Node and edge attribute encoders.

Each sentence becomes a graph whose nodes carry the word embedding h0 plus
an attribute vector v built from any of: a position embedding, a BiLSTM
context vector, a max-pooled character convolution, a POS-tag embedding,
and a spelling-class embedding. Edges carry a relation id per ordered
pair into the relation table, symmetric in the pair and falling back to
a learned no-edge row (the table's pad row) for absent pairs and the
diagonal; the scorer projects the table, not the n^2 pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .core import EdgeAttrs
from .embeddings import EmbeddingTable, lookup


@dataclass
class SentenceGraph:
    """One sentence as ids: tokens are nodes, dependency pairs are edges."""

    word_ids: list[int]
    char_ids: list[list[int]]
    spell_ids: list[int]
    pos_tag_ids: list[int] | None = None
    dep_edges: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        n = self.n
        if n == 0:
            raise ValueError("a sentence graph needs at least one token")
        if len(self.char_ids) != n or len(self.spell_ids) != n:
            raise ValueError("char_ids and spell_ids must cover every token")
        if any(len(cs) == 0 for cs in self.char_ids):
            raise ValueError("every token needs at least one character id")
        if self.pos_tag_ids is not None and len(self.pos_tag_ids) != n:
            raise ValueError("pos_tag_ids must cover every token")
        for (i, j) in self.dep_edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"dependency pair ({i}, {j}) outside [0, {n})")

    @property
    def n(self) -> int:
        return len(self.word_ids)


# ---------------------------------------------------------------------------
# parameter bundles

@dataclass
class CharConvParams:
    """Width-w linear convolution over char embeddings, max-pooled over time."""

    width: int
    weight: Tensor  # [width * d_emb, d_out]
    bias: Tensor    # [d_out]


def init_char_conv(width: int, d_emb: int, d_out: int,
                   rng: np.random.Generator) -> CharConvParams:
    return CharConvParams(
        width=width,
        weight=ad.uniform((width * d_emb, d_out), -0.1, 0.1, rng),
        bias=ad.zeros((d_out,), requires_grad=True),
    )


@dataclass
class LstmParams:
    """Single-direction LSTM; gate layout along columns is [i, f, g, o]."""

    w_input: Tensor   # [d_in, 4h]
    w_hidden: Tensor  # [h, 4h]
    bias: Tensor      # [4h]

    @property
    def hidden(self) -> int:
        return self.w_hidden.shape[0]


def init_lstm(d_in: int, hidden: int, rng: np.random.Generator) -> LstmParams:
    bias = np.zeros(4 * hidden)
    bias[hidden:2 * hidden] = 1.0  # forget gate starts open
    return LstmParams(
        w_input=ad.uniform((d_in, 4 * hidden), -0.1, 0.1, rng),
        w_hidden=ad.uniform((hidden, 4 * hidden), -0.1, 0.1, rng),
        bias=Tensor(bias, requires_grad=True),
    )


@dataclass
class BiLstmParams:
    forward: LstmParams
    backward: LstmParams


def init_bilstm(d_in: int, hidden: int, rng: np.random.Generator) -> BiLstmParams:
    return BiLstmParams(init_lstm(d_in, hidden, rng), init_lstm(d_in, hidden, rng))


@dataclass
class EncoderParams:
    """All tables and weights the attribute encoders may draw on."""

    word_table: EmbeddingTable
    rel_table: EmbeddingTable
    position_table: EmbeddingTable | None = None
    char_table: EmbeddingTable | None = None
    char_conv: CharConvParams | None = None
    lstm: BiLstmParams | None = None
    pos_tag_table: EmbeddingTable | None = None
    spell_table: EmbeddingTable | None = None


# ---------------------------------------------------------------------------
# encoders

def encode_positions(n: int, table: EmbeddingTable) -> Tensor:
    """Row i is the embedding of absolute position i."""
    if n > table.rows:
        raise ValueError(
            f"sentence length {n} exceeds the position table ({table.rows} rows); "
            "truncate sentences at ingestion")
    return lookup(table, range(n))


def encode_chars(char_ids: Iterable[Iterable[int]], table: EmbeddingTable,
                 conv: CharConvParams) -> Tensor:
    """Per-token char convolution pooled by max over window positions.

    Trailing pad ids are stripped before windows are formed, so padding a
    token's char sequence never changes its pooled vector; a token shorter
    than the window is extended with pad ids to form one window.
    """
    pad = table.vocab.pad_id if table.vocab is not None else 0
    width = conv.width
    windows: list[list[int]] = []
    starts: list[int] = []
    for cs in char_ids:
        cs = list(cs)
        while len(cs) > 1 and cs[-1] == pad:
            cs.pop()
        if len(cs) < width:
            cs = cs + [pad] * (width - len(cs))
        starts.append(len(windows))
        for j in range(len(cs) - width + 1):
            windows.append(cs[j:j + width])

    flat = [c for w in windows for c in w]
    emb = lookup(table, flat)                                  # [W*width, d_emb]
    stacked = ad.reshape(emb, (len(windows), width * emb.shape[1]))
    conv_out = ad.matmul(stacked, conv.weight) + conv.bias     # [W, d_out]
    return ad.max_rows(conv_out, starts)                       # [n, d_out]


def bilstm_context(word_vecs: Tensor, params: BiLstmParams) -> Tensor:
    """Concatenate left-to-right and right-to-left LSTM states per position."""
    fwd, bwd = params.forward, params.backward
    return ad.concat_cols([
        ad.lstm_scan(word_vecs, fwd.w_input, fwd.w_hidden, fwd.bias),
        ad.lstm_scan(word_vecs, bwd.w_input, bwd.w_hidden, bwd.bias,
                     reverse=True)])


def assemble_node_attrs(g: SentenceGraph,
                        params: EncoderParams) -> tuple[Tensor, Tensor | None]:
    """Return (h0, v): word embeddings and the concatenated attribute vector.

    An attribute rides on v when its parameters are present in params; the
    columns of v run position, lstm, char, pos_tag, spell. v is None when
    no attribute is present; downstream code skips it in concatenations
    rather than carrying a zero-width block.
    """
    h0 = lookup(params.word_table, g.word_ids)
    parts: list[Tensor] = []
    if params.position_table is not None:
        parts.append(encode_positions(g.n, params.position_table))
    if params.lstm is not None:
        parts.append(bilstm_context(h0, params.lstm))
    if params.char_conv is not None:
        parts.append(encode_chars(g.char_ids, params.char_table, params.char_conv))
    if params.pos_tag_table is not None:
        if g.pos_tag_ids is None:
            raise ValueError("pos-tag attribute enabled but sentence has no tags")
        parts.append(lookup(params.pos_tag_table, g.pos_tag_ids))
    if params.spell_table is not None:
        parts.append(lookup(params.spell_table, g.spell_ids))
    if not parts:
        return h0, None
    return h0, (ad.concat_cols(parts) if len(parts) > 1 else parts[0])


def assemble_edge_attrs(g: SentenceGraph, rel_table: EmbeddingTable) -> EdgeAttrs:
    """The relation table and a table row id for every ordered pair.

    Pair (i, j) is at position i*n + j. Pairs match direction-insensitively;
    absent pairs and the diagonal take the relation table's pad row, which
    acts as the learned no-edge vector.
    """
    n = g.n
    no_edge = rel_table.vocab.pad_id if rel_table.vocab is not None else 0
    ids = np.full(n * n, no_edge, dtype=np.intp)
    for (i, j), rel in g.dep_edges.items():
        if i == j:
            continue
        ids[i * n + j] = rel
        ids[j * n + i] = rel
    return EdgeAttrs(rel_table.weights, ids)


def attr_width(params: EncoderParams) -> int:
    """Width of v: the sum of the present encoders' output sizes."""
    total = 0
    if params.position_table is not None:
        total += params.position_table.dim
    if params.lstm is not None:
        total += 2 * params.lstm.forward.hidden
    if params.char_conv is not None:
        total += params.char_conv.weight.shape[1]
    if params.pos_tag_table is not None:
        total += params.pos_tag_table.dim
    if params.spell_table is not None:
        total += params.spell_table.dim
    return total
