"""Corpora the tests write to disk or train on.

The serializers produce each input format's canonical text, so
parse(serialize(parse(x))) == parse(x). The case-tagging set is a
learnable tagging task: the tag of every token says whether it starts
uppercase, and casing is tied to disjoint word types so the mapping is
learnable from word identity alone.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from cn3.data import TAGGING, DataError, LabeledExample

_UPPER_TYPES = ["Kala", "Rono", "Tibe", "Musa", "Vedo", "Lira", "Pemo",
                "Saku", "Noli", "Bexa", "Fomi", "Gura"]
_LOWER_TYPES = ["dren", "olpa", "situ", "wemo", "yalo", "cupi", "hode",
                "jevi", "zumi", "aski", "eblo", "ifra"]


def serialize_conll(examples: Sequence[LabeledExample]) -> str:
    has_pos = examples[0].pos_tags is not None if examples else False
    lines: list[str] = []
    for ex in examples:
        if (ex.pos_tags is not None) != has_pos:
            raise DataError("cannot mix examples with and without pos tags")
        for i, tok in enumerate(ex.tokens):
            if has_pos:
                lines.append(f"{tok} {ex.pos_tags[i]} {ex.tags[i]}")
            else:
                lines.append(f"{tok} {ex.tags[i]}")
        lines.append("")
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_classification_tsv(examples: Sequence[LabeledExample]) -> str:
    return "".join(f"{ex.label}\t{' '.join(ex.tokens)}\n" for ex in examples)


def serialize_pairs(examples: Sequence[LabeledExample]) -> str:
    return "".join(
        f"{ex.label}\t{' '.join(ex.tokens)}\t{' '.join(ex.tokens_b)}\n"
        for ex in examples)


def case_tagging(n_train: int = 500, n_test: int = 100, seed: int = 0,
                 ) -> tuple[list[LabeledExample], list[LabeledExample]]:
    """Tag U/L = token starts uppercase; casing follows the word type."""
    rng = np.random.default_rng(seed)

    def sentence() -> LabeledExample:
        length = int(rng.integers(4, 9))
        tokens = []
        for _ in range(length):
            if rng.random() < 0.5:
                tokens.append(str(rng.choice(_UPPER_TYPES)))
            else:
                tokens.append(str(rng.choice(_LOWER_TYPES)))
        tags = ["U" if t[0].isupper() else "L" for t in tokens]
        return LabeledExample(kind=TAGGING, tokens=tokens, tags=tags)

    return ([sentence() for _ in range(n_train)],
            [sentence() for _ in range(n_test)])
