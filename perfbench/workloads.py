"""Seeded input generators for the three benchmark workloads.

Everything a run feeds the program comes from here and depends only on
the seed: word forms, Zipf-distributed token draws, the tag / label rule,
dependency trees. Sentence lengths are stratified over the stated range
and do not depend on the seed, so the amount of work per round is the
same on every seed and only the token content changes; random lengths
would move the timing metrics from seed to seed by the n^2 term alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cn3.data import PAIR, TAGGING, LabeledExample

SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"][:40]
CLASSES = ("O", "NP", "VP", "PP")
CLASS_PATTERN = (0, 0, 0, 1, 1, 1, 2, 2, 3, 3)  # indices into CLASSES
RELATIONS = ("nsubj", "dobj", "amod", "prep", "det")


def word_form(i: int) -> str:
    """Type i as three syllables: distinct for i < 40**3, lowercase."""
    a, rest = divmod(i, 40 * 40)
    b, c = divmod(rest, 40)
    return SYLLABLES[a] + SYLLABLES[b] + SYLLABLES[c]


def stratified_lengths(count: int, lo: int, hi: int) -> list[int]:
    """count lengths spread evenly over [lo, hi], both ends included."""
    if count == 1:
        return [lo]
    return [lo + (hi - lo) * i // (count - 1) for i in range(count)]


def capped_lengths(count: int, lo: int, hi: int,
                   capped_share: float = 0.15) -> list[int]:
    """Stratified lengths with the top capped_share truncated to hi.

    Sentences longer than a model's limit are cut at ingestion, so real
    request lengths pile up at the cap. The pile also puts the 95th
    latency percentile among equal-length requests, where one slow
    moment of a shared machine moves it little.
    """
    stretched = hi + round((hi - lo) * capped_share / (1.0 - capped_share))
    return [min(n, hi) for n in stratified_lengths(count, lo, stretched)]


class Lexicon:
    """A Zipf-weighted word list whose types carry a hidden chunk class."""

    def __init__(self, size: int, rng: np.random.Generator,
                 exponent: float = 1.5, offset: float = 2.0):
        self.size = size
        self.forms = [word_form(i) for i in range(size)]
        # Zipf-Mandelbrot: the offset flattens the head, so that no single
        # type carries a fifth of all tokens and fixes the majority tag.
        ranks = np.arange(1, size + 1, dtype=np.float64)
        weights = (ranks + offset) ** -exponent
        self.cdf = np.cumsum(weights / weights.sum())
        # Every block of ten consecutive ranks holds the classes in the
        # proportions of CLASS_PATTERN, in seeded order, so each class's
        # share of tokens stays near its weight even among the most
        # frequent types and the chance level barely moves with the seed.
        blocks = -(-size // len(CLASS_PATTERN))
        self.word_class = np.concatenate(
            [rng.permutation(CLASS_PATTERN) for _ in range(blocks)])[:size]

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        ids = np.searchsorted(self.cdf, rng.random(n), side="right")
        return np.minimum(ids, self.size - 1)

    def tags_for(self, ids) -> list[str]:
        """The rule: class from the type, B/I from the left neighbour."""
        tags = []
        prev = None
        for i in ids:
            cls = CLASSES[self.word_class[i]]
            if cls == "O":
                tags.append("O")
            else:
                tags.append(("I-" if prev == cls else "B-") + cls)
            prev = cls
        return tags


def _surface(forms: list[str], ids, rng: np.random.Generator,
             capital_share: float) -> list[str]:
    caps = rng.random(len(ids)) < capital_share
    return [forms[i].capitalize() if up else forms[i]
            for i, up in zip(ids, caps)]


def tag_sentence(lex: Lexicon, rng: np.random.Generator, n: int,
                 capital_share: float = 0.0) -> LabeledExample:
    ids = lex.draw(rng, n)
    return LabeledExample(kind=TAGGING,
                          tokens=_surface(lex.forms, ids, rng, capital_share),
                          tags=lex.tags_for(ids))


def majority_share(examples) -> float:
    """Chance level of a tagging rule: the most frequent gold tag's share."""
    counts: dict[str, int] = {}
    for ex in examples:
        for t in ex.tags:
            counts[t] = counts.get(t, 0) + 1
    return max(counts.values()) / sum(counts.values())


@dataclass
class TagTrainInputs:
    vocab_corpus: list[LabeledExample]  # builds the model's vocabularies
    train: list[LabeledExample]         # one timed round (epoch)
    heldout: list[LabeledExample]


def tag_train_inputs(seed: int, vocab_types: int = 24000, n_train: int = 72,
                     n_heldout: int = 150, lo: int = 10, hi: int = 40,
                     ) -> TagTrainInputs:
    """Zipf tagging corpus whose vocabulary holds every one of vocab_types.

    The training set is n_train sentences of stratified length; the
    vocabulary corpus adds the rest of the lexicon as further sentences
    of the same rule, so the word table has exactly vocab_types + 2 rows
    on every seed. The held-out set is n_heldout sentences of the same
    stratified lengths.
    """
    rng = np.random.default_rng(seed)
    lex = Lexicon(vocab_types, rng)
    train = [tag_sentence(lex, rng, n)
             for n in stratified_lengths(n_train, lo, hi)]
    heldout = [tag_sentence(lex, rng, n)
               for n in stratified_lengths(n_heldout, lo, hi)]
    seen = {tok.lower() for ex in train for tok in ex.tokens}
    rest = [i for i in range(vocab_types) if lex.forms[i] not in seen]
    tail = [LabeledExample(kind=TAGGING,
                           tokens=[lex.forms[i] for i in rest[k:k + hi]],
                           tags=lex.tags_for(rest[k:k + hi]))
            for k in range(0, len(rest), hi)]
    return TagTrainInputs(vocab_corpus=train + tail, train=train,
                          heldout=heldout)


@dataclass
class InferInputs:
    fit: list[LabeledExample]     # short sentences the served model is fit on
    served: list[LabeledExample]  # one round of requests, long sentences


def infer_inputs(seed: int, vocab_types: int = 3000, n_fit: int = 96,
                 n_served: int = 40, lo: int = 40, hi: int = 160,
                 ) -> InferInputs:
    rng = np.random.default_rng(seed)
    # A flatter head than training's: the served model is fit on 96 short
    # sentences, and at 1.5 its token accuracy hangs on how the few
    # dominant types happened to be learned, which moves with the seed.
    lex = Lexicon(vocab_types, rng, exponent=1.3)
    fit = [tag_sentence(lex, rng, n, capital_share=0.2)
           for n in stratified_lengths(n_fit, 6, 14)]
    served = [tag_sentence(lex, rng, n, capital_share=0.2)
              for n in capped_lengths(n_served, lo, hi)]
    order = rng.permutation(n_served)
    return InferInputs(fit=fit, served=[served[i] for i in order])


def _dep_tree(rng: np.random.Generator, n: int) -> dict[tuple[int, int], str]:
    edges = {}
    for dep in range(1, n):
        head = int(rng.integers(0, dep))
        edges[(head, dep)] = RELATIONS[int(rng.integers(0, len(RELATIONS)))]
    return edges


MARKERS = ("Yes", "No")


@dataclass
class MatchInputs:
    train: list[LabeledExample]
    heldout: list[LabeledExample]


def match_inputs(seed: int, vocab_types: int = 300, n_train: int = 128,
                 n_heldout: int = 40, lo: int = 4, hi: int = 16,
                 ) -> MatchInputs:
    """Sentence pairs labelled "same" iff both sides carry the same marker.

    Each side holds exactly one marker word from MARKERS at a random
    position among Zipf filler; labels alternate, so chance is one half.
    """
    rng = np.random.default_rng(seed)
    lex = Lexicon(vocab_types, rng)

    def side(n: int, marker: str):
        tokens = _surface(lex.forms, lex.draw(rng, n - 1), rng, 0.2)
        tokens.insert(int(rng.integers(0, n)), marker)
        return tokens, _dep_tree(rng, n)

    def pairs(count: int) -> list[LabeledExample]:
        len_a = stratified_lengths(count, lo, hi)
        len_b = len_a[::-1]
        out = []
        for k in range(count):
            m_a = int(rng.integers(0, 2))
            same = k % 2 == 0
            m_b = m_a if same else 1 - m_a
            tok_a, dep_a = side(len_a[k], MARKERS[m_a])
            tok_b, dep_b = side(len_b[k], MARKERS[m_b])
            out.append(LabeledExample(kind=PAIR, tokens=tok_a, tokens_b=tok_b,
                                      label="same" if same else "diff",
                                      dep_edges=dep_a, dep_edges_b=dep_b))
        return out

    return MatchInputs(train=pairs(n_train), heldout=pairs(n_heldout))
