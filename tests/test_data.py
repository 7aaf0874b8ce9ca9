"""Parser, serializer, and batching tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cn3.data import (PAIR, TAGGING, Batch, DataError, LabeledExample,
                      iob1_to_bio, join_edges, label_set, make_batches,
                      parse_classification_tsv, parse_conll, parse_edges,
                      parse_pairs)
from corpora import (serialize_classification_tsv, serialize_conll,
                     serialize_pairs)

CONLL_SAMPLE = """He PRP B-NP
runs VBZ B-VP

"""


class TestParseConll:
    def test_basic_two_token_sentence(self, tmp_path):
        p = tmp_path / "f.conll"
        p.write_text(CONLL_SAMPLE)
        ex = parse_conll(p, token_col=0, tag_col=2)
        assert len(ex) == 1
        assert ex[0].tokens == ["He", "runs"]
        assert ex[0].tags == ["B-NP", "B-VP"]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "f.conll"
        p.write_text("")
        assert parse_conll(p) == []

    def test_trailing_blank_lines_ignored(self, tmp_path):
        a = tmp_path / "a.conll"
        b = tmp_path / "b.conll"
        a.write_text(CONLL_SAMPLE)
        b.write_text(CONLL_SAMPLE + "\n\n\n")
        assert parse_conll(a) == parse_conll(b)

    def test_docstart_skipped(self, tmp_path):
        p = tmp_path / "f.conll"
        p.write_text("-DOCSTART- -X- O O\n\n" + CONLL_SAMPLE)
        ex = parse_conll(p)
        assert len(ex) == 1 and ex[0].tokens == ["He", "runs"]

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "f.conll"
        p.write_text("He PRP B-NP\nruns VBZ\n")
        with pytest.raises(DataError, match="line 2"):
            parse_conll(p, token_col=0, tag_col=2)

    def test_configurable_columns(self, tmp_path):
        p = tmp_path / "f.conll"
        p.write_text("U.N. NNP I-NP I-ORG\nofficial NN I-NP O\n\n")
        ex = parse_conll(p, token_col=0, tag_col=3)
        assert ex[0].tags == ["I-ORG", "O"]

    def test_pos_column_capture(self, tmp_path):
        p = tmp_path / "f.conll"
        p.write_text(CONLL_SAMPLE)
        ex = parse_conll(p, token_col=0, tag_col=2, pos_col=1)
        assert ex[0].pos_tags == ["PRP", "VBZ"]

    @pytest.mark.parametrize("cols", [
        {"token_col": -1}, {"tag_col": -1}, {"pos_col": -3}])
    def test_negative_column_rejected(self, tmp_path, cols):
        # a negative index would count from the end of the row: with
        # token_col = -1 every token would silently be its tag
        p = tmp_path / "f.conll"
        p.write_text(CONLL_SAMPLE)
        name = next(iter(cols))
        with pytest.raises(DataError, match=name):
            parse_conll(p, **cols)

    def test_iob1_conversion_at_ingestion(self, tmp_path):
        p = tmp_path / "f.conll"
        p.write_text("a X I-NP\nb X I-NP\nc X O\nd X I-VP\n\n")
        ex = parse_conll(p, tag_scheme="iob1")
        assert ex[0].tags == ["B-NP", "I-NP", "O", "B-VP"]


class TestIob1ToBio:
    def test_chunk_starts_become_b(self):
        assert iob1_to_bio(["I-NP", "I-NP"]) == ["B-NP", "I-NP"]

    def test_adjacent_same_type_chunks_keep_b(self):
        assert iob1_to_bio(["I-NP", "B-NP"]) == ["B-NP", "B-NP"]

    def test_type_change_opens_chunk(self):
        assert iob1_to_bio(["I-NP", "I-VP"]) == ["B-NP", "B-VP"]

    def test_o_tags_untouched(self):
        assert iob1_to_bio(["O", "I-NP", "O"]) == ["O", "B-NP", "O"]


class TestParseClassification:
    def test_basic_line(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("1\tgood movie\n")
        ex = parse_classification_tsv(p)
        assert ex[0].label == "1" and ex[0].tokens == ["good", "movie"]

    def test_duplicate_labels_one_class(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("pos\tgood\npos\tgreat\nneg\tbad\n")
        assert label_set(parse_classification_tsv(p)) == ["pos", "neg"]

    def test_missing_tab_reports_line(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("1\tok\nno tab here\n")
        with pytest.raises(DataError, match="line 2"):
            parse_classification_tsv(p)

    def test_empty_text_rejected(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("1\t\n")
        with pytest.raises(DataError, match="line 1"):
            parse_classification_tsv(p)


class TestParsePairs:
    def test_basic_line(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("entails\ta cat sits\tthe cat sat\n")
        ex = parse_pairs(p)
        assert ex[0].kind == PAIR
        assert ex[0].tokens == ["a", "cat", "sits"]
        assert ex[0].tokens_b == ["the", "cat", "sat"]

    def test_wrong_field_count(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("label\tonly one sentence\n")
        with pytest.raises(DataError, match="line 1"):
            parse_pairs(p)

    def test_empty_side_rejected(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("label\ta b\t\n")
        with pytest.raises(DataError, match="line 1"):
            parse_pairs(p)


class TestParseEdges:
    def test_basic_edge(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("0 1 0 det\n")
        assert parse_edges(p) == {0: {(1, 0): "det"}}

    def test_missing_file_empty_map(self, tmp_path):
        assert parse_edges(tmp_path / "absent.txt") == {}

    def test_duplicates_collapse(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("0 1 0 det\n0 1 0 det\n")
        assert parse_edges(p) == {0: {(1, 0): "det"}}

    def test_conflicting_relation_rejected(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("0 1 0 det\n0 1 0 nsubj\n")
        with pytest.raises(DataError, match="line 2"):
            parse_edges(p)

    def test_bad_field_count(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("0 1 det\n")
        with pytest.raises(DataError, match="line 1"):
            parse_edges(p)

    def test_join_validates_indices(self, tmp_path):
        ex = [LabeledExample(kind=TAGGING, tokens=["a", "b"], tags=["O", "O"])]
        join_edges(ex, {0: {(1, 0): "det"}})
        assert ex[0].dep_edges == {(1, 0): "det"}
        with pytest.raises(DataError, match="outside"):
            join_edges(ex, {0: {(5, 0): "det"}})
        with pytest.raises(DataError, match="only 1 examples"):
            join_edges(ex, {3: {(0, 1): "det"}})


class TestSerializers:
    def test_conll_round_trip(self, tmp_path):
        src = tmp_path / "src.conll"
        src.write_text(CONLL_SAMPLE + "It PRP B-NP\nworks VBZ B-VP\n\n")
        parsed = parse_conll(src, pos_col=1)
        out = tmp_path / "out.conll"
        out.write_text(serialize_conll(parsed))
        assert parse_conll(out, pos_col=1) == parsed

    def test_conll_round_trip_without_pos(self, tmp_path):
        src = tmp_path / "src.conll"
        src.write_text("He B-NP\nruns B-VP\n\n")
        parsed = parse_conll(src, token_col=0, tag_col=1)
        out = tmp_path / "out.conll"
        out.write_text(serialize_conll(parsed))
        assert parse_conll(out, token_col=0, tag_col=1) == parsed

    def test_classification_round_trip(self, tmp_path):
        src = tmp_path / "src.tsv"
        src.write_text("1\tgood movie\n0\tbad one\n")
        parsed = parse_classification_tsv(src)
        out = tmp_path / "out.tsv"
        out.write_text(serialize_classification_tsv(parsed))
        assert parse_classification_tsv(out) == parsed

    def test_pairs_round_trip(self, tmp_path):
        src = tmp_path / "src.tsv"
        src.write_text("yes\ta b\tc d\nno\te\tf g h\n")
        parsed = parse_pairs(src)
        out = tmp_path / "out.tsv"
        out.write_text(serialize_pairs(parsed))
        assert parse_pairs(out) == parsed


def toy_examples(n):
    return [LabeledExample(kind=TAGGING, tokens=["w"] * ((i % 4) + 1),
                           tags=["O"] * ((i % 4) + 1), label=None)
            for i in range(n)]


class TestMakeBatches:
    def test_batch_size_one_is_permutation(self):
        ex = toy_examples(7)
        batches = make_batches(ex, 1, seed=3)
        assert all(len(b.examples) == 1 for b in batches)
        assert sorted(i for b in batches for i in b.indices) == list(range(7))

    def test_same_seed_identical(self):
        ex = toy_examples(11)
        a = make_batches(ex, 3, seed=5)
        b = make_batches(ex, 3, seed=5)
        assert [x.indices for x in a] == [x.indices for x in b]

    def test_different_seed_differs(self):
        ex = toy_examples(20)
        a = make_batches(ex, 3, seed=5)
        b = make_batches(ex, 3, seed=6)
        assert [x.indices for x in a] != [x.indices for x in b]

    def test_union_is_input_multiset(self):
        ex = toy_examples(10)
        batches = make_batches(ex, 4, seed=0)
        got = sorted(i for b in batches for i in b.indices)
        assert got == list(range(10))

    def test_batches_group_similar_lengths(self):
        ex = toy_examples(40)
        for b in make_batches(ex, 4, seed=1):
            lengths = [len(e.tokens) for e in b.examples]
            assert max(lengths) - min(lengths) <= 1

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            make_batches(toy_examples(3), 0, seed=0)

    @given(st.integers(1, 30), st.integers(1, 8), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_property_cover_and_determinism(self, n, bs, seed):
        ex = toy_examples(n)
        batches = make_batches(ex, bs, seed)
        assert sorted(i for b in batches for i in b.indices) == list(range(n))
        again = make_batches(ex, bs, seed)
        assert [b.indices for b in batches] == [b.indices for b in again]


class TestLabeledExampleValidation:
    def test_tag_length_mismatch(self):
        with pytest.raises(DataError):
            LabeledExample(kind=TAGGING, tokens=["a", "b"], tags=["O"])

    def test_edge_out_of_range(self):
        with pytest.raises(DataError):
            LabeledExample(kind=TAGGING, tokens=["a"], tags=["O"],
                           dep_edges={(0, 3): "det"})

    def test_pair_needs_second_sentence(self):
        with pytest.raises(DataError):
            LabeledExample(kind=PAIR, tokens=["a"], label="x")
