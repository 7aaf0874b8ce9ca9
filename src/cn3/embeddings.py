"""Vocabularies and trainable lookup tables.

A vocabulary reserves id 0 for padding and id 1 for unknowns and otherwise
assigns ids in first-occurrence order, so two builds over the same corpus
agree byte for byte. Tables are float64 tensors initialized uniformly in
[-0.1, 0.1]; pretrained vectors in GloVe text format can overwrite the rows
of words the file covers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

INIT_LO = -0.1
INIT_HI = 0.1

# Spelling feature: first letter uppercase / lowercase / anything else.
SPELL_UPPER = 0
SPELL_LOWER = 1
SPELL_OTHER = 2
SPELL_SIZE = 3


def spell_id(token: str) -> int:
    if not token:
        return SPELL_OTHER
    first = token[0]
    if first.isupper():
        return SPELL_UPPER
    if first.islower():
        return SPELL_LOWER
    return SPELL_OTHER


@dataclass
class Vocabulary:
    """Ordered token set with a reserved pad id 0 and unk id 1."""

    items: list[str]
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.index = {tok: i for i, tok in enumerate(self.items)}
        if len(self.index) != len(self.items):
            raise ValueError("duplicate tokens in vocabulary")
        if self.items[:2] != [PAD_TOKEN, UNK_TOKEN]:
            raise ValueError("vocabulary must start with the pad and unk tokens")

    @property
    def pad_id(self) -> int:
        return 0

    @property
    def unk_id(self) -> int:
        return 1

    def __len__(self) -> int:
        return len(self.items)

    def id_of(self, token: str) -> int:
        return self.index.get(token, self.unk_id)

    def ids_of(self, tokens: Iterable[str]) -> list[int]:
        return [self.id_of(t) for t in tokens]


def build_vocab(corpus: Iterable[Sequence[str]],
                min_count: int = 1) -> Vocabulary:
    """Collect tokens seen at least min_count times, in first-occurrence order."""
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    counts: Counter[str] = Counter()
    order: list[str] = []
    seen: set[str] = set()
    empty = True
    for sentence in corpus:
        empty = False
        for tok in sentence:
            counts[tok] += 1
            if tok not in seen:
                seen.add(tok)
                order.append(tok)
    if empty:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    kept = [t for t in order if counts[t] >= min_count]
    return Vocabulary([PAD_TOKEN, UNK_TOKEN] + kept)


@dataclass
class EmbeddingTable:
    """A [rows x d] weight tensor, optionally tied to a vocabulary.

    Position and spelling tables index by plain integers and carry no
    vocabulary; word, char, tag, and relation tables carry one and must
    match its size.
    """

    weights: Tensor
    vocab: Vocabulary | None = None
    trainable: bool = True

    def __post_init__(self):
        if self.weights.ndim != 2:
            raise ad.ShapeError(f"embedding weights must be 2-D, got {self.weights.shape}")
        if self.vocab is not None and len(self.vocab) != self.weights.shape[0]:
            raise ValueError(f"table has {self.weights.shape[0]} rows "
                             f"but vocabulary has {len(self.vocab)} entries")
        if not np.all(np.isfinite(self.weights.data)):
            raise ad.NumericError("embedding weights must be finite")
        self.weights.requires_grad = self.trainable

    @property
    def rows(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


def random_table(rows: int, d: int, rng: np.random.Generator,
                 vocab: Vocabulary | None = None,
                 trainable: bool = True) -> EmbeddingTable:
    w = ad.uniform((rows, d), INIT_LO, INIT_HI, rng, requires_grad=trainable)
    return EmbeddingTable(w, vocab=vocab, trainable=trainable)


def table_for(vocab: Vocabulary, d: int, rng: np.random.Generator,
              trainable: bool = True) -> EmbeddingTable:
    return random_table(len(vocab), d, rng, vocab=vocab, trainable=trainable)


class GloveParseError(ValueError):
    """A pretrained-vector line did not parse; message carries the line number."""


def load_glove(path, vocab: Vocabulary, d: int, rng: np.random.Generator,
               trainable: bool = True) -> EmbeddingTable:
    """Build a word table, overwriting rows found in a GloVe text file.

    The whole table is drawn uniformly in [-0.1, 0.1] first, so words the
    file misses (including the unk token) keep that init and repeated loads
    with the same seed produce identical tables. The pad row is zeroed last.
    """
    weights = rng.uniform(INIT_LO, INIT_HI, size=(len(vocab), d))
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split()
            if not parts:
                continue
            word, values = parts[0], parts[1:]
            if len(values) != d:
                raise GloveParseError(
                    f"line {lineno}: expected {d} floats after the token, "
                    f"got {len(values)}")
            row = vocab.index.get(word)
            if row is None:
                continue
            try:
                vector = np.array(values, dtype=np.float64)
            except ValueError as exc:
                raise GloveParseError(f"line {lineno}: {exc}") from None
            if not np.all(np.isfinite(vector)):
                raise GloveParseError(f"line {lineno}: non-finite value")
            weights[row] = vector
    weights[vocab.pad_id] = 0.0
    return EmbeddingTable(Tensor(weights, requires_grad=trainable),
                          vocab=vocab, trainable=trainable)


def lookup(table: EmbeddingTable, ids: Sequence[int]) -> Tensor:
    """Gather rows by id; gradients scatter back additively per row."""
    return ad.gather_rows(table.weights, ids)
