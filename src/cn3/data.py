"""Corpus ingestion, edge sidecars, and deterministic batching.

All parsers work at the string level; vocabularies and id assignment
happen later in the model. Malformed input always fails with the
offending line number. Batching groups examples after a seeded shuffle
and a stable sort by length; the forward pass runs per example, so no
padding token ever enters a computation (the masking question padding
would raise does not arise).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

CLASSIFICATION = "classification"
TAGGING = "tagging"
PAIR = "pair"

DOCSTART = "-DOCSTART-"


class DataError(ValueError):
    """Malformed input data; the message names the file line when known."""


@dataclass
class LabeledExample:
    kind: str
    tokens: list[str]
    tokens_b: list[str] | None = None
    label: str | None = None
    tags: list[str] | None = None
    pos_tags: list[str] | None = None
    pos_tags_b: list[str] | None = None
    dep_edges: dict[tuple[int, int], str] = field(default_factory=dict)
    dep_edges_b: dict[tuple[int, int], str] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in (CLASSIFICATION, TAGGING, PAIR):
            raise DataError(f"unknown example kind {self.kind!r}")
        if not self.tokens:
            raise DataError("example has no tokens")
        if self.kind == TAGGING:
            if self.tags is None or len(self.tags) != len(self.tokens):
                raise DataError("tagging example needs one tag per token")
        if self.kind == PAIR and not self.tokens_b:
            raise DataError("pair example needs a second sentence")
        if self.kind != PAIR and (self.pos_tags_b or self.dep_edges_b):
            raise DataError("side-B annotations only make sense on pair examples")
        if self.pos_tags is not None and len(self.pos_tags) != len(self.tokens):
            raise DataError("pos_tags must cover every token")
        if self.pos_tags_b is not None and (
                len(self.pos_tags_b) != len(self.tokens_b or [])):
            raise DataError("pos_tags_b must cover every side-B token")
        for (i, j) in self.dep_edges:
            if not (0 <= i < len(self.tokens) and 0 <= j < len(self.tokens)):
                raise DataError(f"dependency pair ({i}, {j}) outside the sentence")
        for (i, j) in self.dep_edges_b:
            n_b = len(self.tokens_b or [])
            if not (0 <= i < n_b and 0 <= j < n_b):
                raise DataError(f"dependency pair ({i}, {j}) outside sentence B")

    @property
    def size(self) -> int:
        return len(self.tokens) + (len(self.tokens_b) if self.tokens_b else 0)


# ---------------------------------------------------------------------------
# tag scheme normalization

def iob1_to_bio(tags: Sequence[str]) -> list[str]:
    """Rewrite chunk-initial I-X tags as B-X.

    Under IOB1 a chunk opens with I-X unless it directly follows a chunk of
    the same type; BIO marks every chunk start with B-X.
    """
    out: list[str] = []
    prev = "O"
    for tag in tags:
        if tag.startswith("I-"):
            kind = tag[2:]
            if prev not in (f"B-{kind}", f"I-{kind}"):
                tag = "B-" + kind
        out.append(tag)
        prev = tag
    return out


# ---------------------------------------------------------------------------
# parsers

def parse_conll(path, token_col: int = 0, tag_col: int = 2,
                pos_col: int | None = None,
                tag_scheme: str = "bio") -> list[LabeledExample]:
    """One tagging example per blank-line-separated sentence.

    Column indices are configurable (chunking files keep the tag in column
    2, NER files in column 3). Lines starting with -DOCSTART- are document
    markers, not tokens. tag_scheme="iob1" converts tags to BIO on the way
    in; "bio" takes them verbatim.
    """
    if tag_scheme not in ("bio", "iob1"):
        raise DataError(f"unknown tag scheme {tag_scheme!r}")
    for name, col in (("token_col", token_col), ("tag_col", tag_col),
                      ("pos_col", pos_col)):
        if col is not None and col < 0:
            raise DataError(f"{name} must be a non-negative column index, "
                            f"got {col}")
    need = max(token_col, tag_col, pos_col if pos_col is not None else 0) + 1
    examples: list[LabeledExample] = []
    tokens: list[str] = []
    tags: list[str] = []
    pos: list[str] = []

    def flush():
        if tokens:
            final = iob1_to_bio(tags) if tag_scheme == "iob1" else list(tags)
            examples.append(LabeledExample(
                kind=TAGGING, tokens=list(tokens), tags=final,
                pos_tags=list(pos) if pos_col is not None else None))
            tokens.clear()
            tags.clear()
            pos.clear()

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                flush()
                continue
            if stripped.startswith(DOCSTART):
                continue
            cols = stripped.split()
            if len(cols) < need:
                raise DataError(f"line {lineno}: {len(cols)} columns, "
                                f"need at least {need}")
            tokens.append(cols[token_col])
            tags.append(cols[tag_col])
            if pos_col is not None:
                pos.append(cols[pos_col])
    flush()
    return examples


def parse_classification_tsv(path) -> list[LabeledExample]:
    """Lines of "label<TAB>text"; text is whitespace-tokenized."""
    examples: list[LabeledExample] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise DataError(f"line {lineno}: expected 'label<TAB>text'")
            label, text = line.split("\t", 1)
            tokens = text.split()
            if not label or not tokens:
                raise DataError(f"line {lineno}: empty label or text")
            examples.append(LabeledExample(kind=CLASSIFICATION, tokens=tokens,
                                           label=label))
    return examples


def parse_pairs(path) -> list[LabeledExample]:
    """Lines of "label<TAB>sentenceA<TAB>sentenceB"."""
    examples: list[LabeledExample] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"line {lineno}: expected 3 tab-separated "
                                f"fields, got {len(parts)}")
            label, text_a, text_b = parts
            tok_a, tok_b = text_a.split(), text_b.split()
            if not label or not tok_a or not tok_b:
                raise DataError(f"line {lineno}: empty label or sentence")
            examples.append(LabeledExample(kind=PAIR, tokens=tok_a,
                                           tokens_b=tok_b, label=label))
    return examples


def parse_edges(path) -> dict[int, dict[tuple[int, int], str]]:
    """Sidecar of "example_id head_index dep_index relation" lines, 0-based.

    A missing file is an empty annotation, not an error. Exact duplicate
    lines collapse; two relations for one pair conflict and fail.
    """
    edges: dict[int, dict[tuple[int, int], str]] = {}
    if not os.path.exists(path):
        return edges
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            parts = stripped.split()
            if len(parts) != 4:
                raise DataError(f"line {lineno}: expected 4 fields, "
                                f"got {len(parts)}")
            try:
                ex_id, head, dep = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:
                raise DataError(f"line {lineno}: non-integer index") from None
            if ex_id < 0 or head < 0 or dep < 0:
                raise DataError(f"line {lineno}: negative index")
            rel = parts[3]
            pair_map = edges.setdefault(ex_id, {})
            if (head, dep) in pair_map and pair_map[(head, dep)] != rel:
                raise DataError(f"line {lineno}: pair ({head}, {dep}) already "
                                f"has relation {pair_map[(head, dep)]!r}")
            pair_map[(head, dep)] = rel
    return edges


def join_edges(examples: Sequence[LabeledExample],
               edges: dict[int, dict[tuple[int, int], str]]) -> None:
    """Attach sidecar edges to examples in place; indices checked here."""
    for ex_id, pair_map in edges.items():
        if not 0 <= ex_id < len(examples):
            raise DataError(f"edge annotation for example {ex_id}, "
                            f"but only {len(examples)} examples exist")
        ex = examples[ex_id]
        n = len(ex.tokens)
        for (head, dep) in pair_map:
            if head >= n or dep >= n:
                raise DataError(f"example {ex_id}: edge ({head}, {dep}) outside "
                                f"its {n} tokens")
        ex.dep_edges.update(pair_map)


def label_set(examples: Iterable[LabeledExample]) -> list[str]:
    """Distinct labels (or tags) in first-occurrence order."""
    seen: list[str] = []
    have: set[str] = set()
    for ex in examples:
        values = ex.tags if ex.kind == TAGGING else [ex.label]
        for v in values:
            if v not in have:
                have.add(v)
                seen.append(v)
    return seen


# ---------------------------------------------------------------------------
# batching

@dataclass
class Batch:
    examples: list[LabeledExample]
    indices: list[int]  # positions in the original example list


def make_batches(examples: Sequence[LabeledExample], batch_size: int,
                 seed: int) -> list[Batch]:
    """Seeded shuffle, stable sort by size, chunk, then shuffle chunk order.

    Sorting groups similar lengths so per-batch cost stays even; the two
    shuffles keep composition and visit order varying by seed while staying
    reproducible.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(examples))
    sizes = np.array([examples[i].size for i in perm])
    by_len = perm[np.argsort(sizes, kind="stable")]
    chunks = [by_len[i:i + batch_size] for i in range(0, len(by_len), batch_size)]
    order = rng.permutation(len(chunks))
    return [Batch(examples=[examples[i] for i in chunks[c]],
                  indices=[int(i) for i in chunks[c]])
            for c in order]
