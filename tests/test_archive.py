"""Archive round-trips, byte determinism, and corruption errors."""

import json
import struct

import numpy as np
import pytest

from cn3.archive import (ArchiveError, FORMAT_VERSION, MAGIC, load_archive,
                         save_archive)
from cn3.cli import entry
from cn3.data import CLASSIFICATION, TAGGING, LabeledExample
from cn3.model import Cn3Model, ModelConfig
from cn3.synthetic import keyword_classification
from corpora import case_tagging


def small_model(task="classify", **overrides):
    base = dict(task=task, layers=1, d_word=4, d_h=4, d_a=3, d_char=3,
                d_pos=2, d_pos_tag=2, d_spell=2, d_rel=2, lstm_hidden=3,
                max_len=16, seed=1)
    base.update(overrides)
    cfg = ModelConfig(**base)
    if task == "tag":
        data = case_tagging(n_train=6, n_test=1, seed=0)[0]
    else:
        data = keyword_classification(n=6, seed=0)
    return Cn3Model(cfg, data), data


class TestRoundTrip:
    def test_forward_outputs_bitwise_equal(self, tmp_path):
        m, data = small_model(use_lstm=True, use_spell=True, use_char=True)
        path = tmp_path / "m.cn3"
        save_archive(m, str(path))
        loaded = load_archive(str(path))
        for ex in data:
            assert loaded.loss_for(ex).item() == m.loss_for(ex).item()
            assert loaded.predict(ex) == m.predict(ex)

    def test_tag_task_round_trip(self, tmp_path):
        m, data = small_model(task="tag", use_spell=True)
        path = tmp_path / "m.cn3"
        save_archive(m, str(path))
        loaded = load_archive(str(path))
        assert loaded.labels == m.labels
        assert loaded.predict(data[0]) == m.predict(data[0])

    def test_vocab_and_config_survive(self, tmp_path):
        m, _ = small_model()
        path = tmp_path / "m.cn3"
        save_archive(m, str(path))
        loaded = load_archive(str(path))
        assert loaded.cfg == m.cfg
        assert loaded.word_vocab.items == m.word_vocab.items
        assert loaded.char_vocab.items == m.char_vocab.items

    def test_frozen_word_table_survives(self, tmp_path):
        m, data = small_model(fine_tune_words=False)
        assert "tables.word" not in dict(m.params())
        path = tmp_path / "m.cn3"
        save_archive(m, str(path))
        loaded = load_archive(str(path))
        np.testing.assert_array_equal(loaded.encoder.word_table.weights.data,
                                      m.encoder.word_table.weights.data)
        assert loaded.loss_for(data[0]).item() == m.loss_for(data[0]).item()

    def test_mutation_then_save_round_trips(self, tmp_path):
        m, data = small_model()
        for _, t in m.params():
            t.data += 0.25
        path = tmp_path / "m.cn3"
        save_archive(m, str(path))
        loaded = load_archive(str(path))
        assert loaded.loss_for(data[0]).item() == m.loss_for(data[0]).item()


class TestDeterminism:
    def test_same_model_same_bytes(self, tmp_path):
        m1, _ = small_model(use_lstm=True)
        m2, _ = small_model(use_lstm=True)
        p1, p2 = tmp_path / "a.cn3", tmp_path / "b.cn3"
        save_archive(m1, str(p1))
        save_archive(m2, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seed_different_bytes(self, tmp_path):
        m1, _ = small_model(seed=1)
        m2, _ = small_model(seed=2)
        p1, p2 = tmp_path / "a.cn3", tmp_path / "b.cn3"
        save_archive(m1, str(p1))
        save_archive(m2, str(p2))
        assert p1.read_bytes() != p2.read_bytes()


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.cn3"
        p.write_bytes(b"NOTANARCHIVE" + b"\x00" * 32)
        with pytest.raises(ArchiveError, match="magic"):
            load_archive(str(p))

    def test_truncated_tensor_block(self, tmp_path):
        m, _ = small_model()
        p = tmp_path / "m.cn3"
        save_archive(m, str(p))
        blob = p.read_bytes()
        p.write_bytes(blob[:-16])
        with pytest.raises(ArchiveError, match="truncated"):
            load_archive(str(p))

    def test_trailing_garbage(self, tmp_path):
        m, _ = small_model()
        p = tmp_path / "m.cn3"
        save_archive(m, str(p))
        p.write_bytes(p.read_bytes() + b"\x00" * 8)
        with pytest.raises(ArchiveError, match="trailing"):
            load_archive(str(p))

    def test_version_mismatch(self, tmp_path):
        m, _ = small_model()
        p = tmp_path / "m.cn3"
        save_archive(m, str(p))
        blob = bytearray(p.read_bytes())
        # bump the version digit inside the JSON header
        idx = blob.find(b'"version":' + str(FORMAT_VERSION).encode())
        assert idx > 0
        blob[idx + len(b'"version":')] = ord("9")
        p.write_bytes(bytes(blob))
        with pytest.raises(ArchiveError, match="version"):
            load_archive(str(p))

    def test_magic_prefix_present(self, tmp_path):
        m, _ = small_model()
        p = tmp_path / "m.cn3"
        save_archive(m, str(p))
        assert p.read_bytes().startswith(MAGIC)


def rewrite_header(path, edit):
    """Apply edit to the archive's parsed header and write it back in place."""
    blob = path.read_bytes()
    start = len(MAGIC) + 8
    (length,) = struct.unpack_from("<Q", blob, len(MAGIC))
    header = edit(json.loads(blob[start:start + length]))
    new = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(MAGIC + struct.pack("<Q", len(new)) + new
                     + blob[start + length:])


def without(*keys):
    def edit(header):
        node = header
        for k in keys[:-1]:
            node = node[k]
        del node[keys[-1]]
        return header
    return edit


def setting(*keys, value):
    def edit(header):
        node = header
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = value
        return header
    return edit


BAD_HEADERS = {
    "no_vocabs": (without("vocabs"), "vocabs"),
    "no_config": (without("config"), "config"),
    "no_labels": (without("labels"), "labels"),
    "no_tensors": (without("tensors"), "tensors"),
    "unknown_config_key": (setting("config", "use_lstm2", value=True),
                           "unknown key 'use_lstm2'"),
    "config_wrong_type": (setting("config", "layers", value="two"), "layers"),
    "config_bool_for_int": (setting("config", "d_h", value=True), "d_h"),
    "config_bad_value": (setting("config", "task", value="parse"), "task"),
    "vocabs_not_object": (setting("vocabs", value=[]), "vocabs"),
    "no_word_vocab": (without("vocabs", "word"), "word"),
    "char_vocab_not_strings": (setting("vocabs", "char", value=[1, 2]), "char"),
    "labels_not_strings": (setting("labels", value="yes"), "labels"),
    "tensor_entry_malformed": (setting("tensors", value=[{"name": 3}]),
                               "tensor entry"),
    "header_not_object": (lambda h: [h], "JSON object"),
}

# Archives whose tensor bytes hold a NaN: the model overrides and the
# poisoned tensor, which the error must name.
NON_FINITE = {
    "nan_in_crf_trans": (dict(task="tag", layers=0), "head.crf.trans"),
    "nan_in_layer_u": (dict(), "stack.layer0.u"),
}


def write_bad_archive(tmp_path, case):
    """Save a small model broken as `case` says; return path and message."""
    p = tmp_path / "m.cn3"
    if case in NON_FINITE:
        overrides, name = NON_FINITE[case]
        m, _ = small_model(**overrides)
        dict(m.params())[name].data.flat[0] = np.nan
        save_archive(m, str(p))
        return p, f"non-finite values in tensor {name}"
    edit, message = BAD_HEADERS[case]
    m, _ = small_model()
    save_archive(m, str(p))
    rewrite_header(p, edit)
    return p, message


class TestMalformedHeader:
    @pytest.mark.parametrize("case", sorted(BAD_HEADERS) + sorted(NON_FINITE))
    def test_load_raises_archive_error(self, tmp_path, case):
        p, message = write_bad_archive(tmp_path, case)
        with pytest.raises(ArchiveError, match=message):
            load_archive(str(p))

    def test_rewrite_without_edit_still_loads(self, tmp_path):
        m, data = small_model()
        p = tmp_path / "m.cn3"
        save_archive(m, str(p))
        rewrite_header(p, lambda h: h)
        assert load_archive(str(p)).loss_for(data[0]).item() == \
            m.loss_for(data[0]).item()

    @pytest.mark.parametrize("case", ["no_vocabs", "unknown_config_key",
                                      *sorted(NON_FINITE)])
    def test_eval_exits_2_with_error_line(self, tmp_path, capsys, case):
        p, _ = write_bad_archive(tmp_path, case)
        data = tmp_path / "d.tsv"
        data.write_text("yes\ta b\n")
        assert entry(["eval", "--archive", str(p), "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
