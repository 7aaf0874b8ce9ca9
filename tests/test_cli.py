"""End-to-end command-line runs, in process via entry()."""

import json
import math

import numpy as np
import pytest

from cn3 import autodiff as ad
from cn3 import core
from cn3 import training as tr
from cn3.cli import entry, trace_to_dot, trace_to_json
from cn3.synthetic import keyword_classification
from corpora import case_tagging, serialize_classification_tsv, serialize_conll


def write_classify_setup(tmp_path, **extra):
    """Config plus train/dev TSVs for the keyword toy; returns config path."""
    (tmp_path / "train.tsv").write_text(
        serialize_classification_tsv(keyword_classification(n=12, seed=0)))
    (tmp_path / "dev.tsv").write_text(
        serialize_classification_tsv(keyword_classification(n=6, seed=1)))
    lines = {
        "task": "classify",
        "train_path": "train.tsv",
        "dev_path": "dev.tsv",
        "archive_path": "model.cn3",
        "history_path": "history.jsonl",
        "layers": 1,
        "d_word": 8, "d_h": 8, "d_a": 6,
        "epochs": 3,
        "batch_size": 4,
        "seed": 0,
    }
    lines.update(extra)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return cfg


class TestTrain:
    def test_writes_archive_and_history(self, tmp_path, capsys):
        cfg = write_classify_setup(tmp_path)
        assert entry(["train", "--config", str(cfg)]) == 0
        assert (tmp_path / "model.cn3").exists()
        rows = [json.loads(line) for line in
                (tmp_path / "history.jsonl").read_text().splitlines()]
        assert len(rows) == 3
        assert {"epoch", "train_loss", "dev_metric", "wall_time"} <= rows[0].keys()
        assert "saved archive" in capsys.readouterr().out

    def test_missing_train_path_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("task = classify\ntrain_path = nowhere.tsv\n")
        assert entry(["train", "--config", str(cfg)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["archive_path", "history_path"])
    def test_output_in_missing_directory_exits_2_before_training(
            self, tmp_path, capsys, monkeypatch, key):
        runs = []
        real_train = tr.train

        def counting_train(*args, **kwargs):
            runs.append(1)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(tr, "train", counting_train)
        cfg = write_classify_setup(tmp_path, **{key: "missing/out"})
        assert entry(["train", "--config", str(cfg)]) == 2
        assert runs == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
        assert not (tmp_path / "history.jsonl").exists()

    def test_same_seed_byte_identical_archives(self, tmp_path):
        cfg_a = write_classify_setup(tmp_path, archive_path="a.cn3")
        assert entry(["train", "--config", str(cfg_a)]) == 0
        cfg_b = write_classify_setup(tmp_path, archive_path="b.cn3")
        assert entry(["train", "--config", str(cfg_b)]) == 0
        assert ((tmp_path / "a.cn3").read_bytes()
                == (tmp_path / "b.cn3").read_bytes())

    def test_seed_flag_changes_archive(self, tmp_path):
        cfg_a = write_classify_setup(tmp_path, archive_path="a.cn3")
        assert entry(["train", "--config", str(cfg_a)]) == 0
        cfg_b = write_classify_setup(tmp_path, archive_path="b.cn3")
        assert entry(["train", "--config", str(cfg_b), "--seed", "5"]) == 0
        assert ((tmp_path / "a.cn3").read_bytes()
                != (tmp_path / "b.cn3").read_bytes())

    def test_env_seed_beats_flag(self, tmp_path, monkeypatch):
        cfg_a = write_classify_setup(tmp_path, archive_path="a.cn3")
        assert entry(["train", "--config", str(cfg_a)]) == 0
        monkeypatch.setenv("CN3_SEED", "0")
        cfg_b = write_classify_setup(tmp_path, archive_path="b.cn3")
        assert entry(["train", "--config", str(cfg_b), "--seed", "5"]) == 0
        assert ((tmp_path / "a.cn3").read_bytes()
                == (tmp_path / "b.cn3").read_bytes())

    def test_divergence_exits_3(self, tmp_path, capsys, monkeypatch):
        from cn3 import cli as cli_mod

        def blow_up(model, data, cfg, dev_data=None):
            raise cli_mod.tr.TrainingDiverged("non-finite loss in epoch 0",
                                              [])

        monkeypatch.setattr(cli_mod.tr, "train", blow_up)
        cfg = write_classify_setup(tmp_path)
        assert entry(["train", "--config", str(cfg)]) == 3
        assert "non-finite" in capsys.readouterr().err

    def test_numeric_error_in_training_exits_3(self, tmp_path, capsys,
                                               monkeypatch):
        # A weight poisoned after the first step: the next batch raises
        # NumericError inside train(), which must surface as divergence.
        from cn3 import training

        real = training.adadelta_step

        def poisoned_step(params, state, clip_norm=None):
            real(params, state, clip_norm=clip_norm)
            dict(params)["stack.layer0.u"].data[0] = np.inf

        monkeypatch.setattr(training, "adadelta_step", poisoned_step)
        cfg = write_classify_setup(tmp_path)
        assert entry(["train", "--config", str(cfg)]) == 3
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "model.cn3").exists()

    def test_nan_emission_weight_exits_3(self, tmp_path, capsys, monkeypatch):
        # A step that leaves a NaN CRF emission weight: the next batch's
        # loss is non-finite, which ends the run as diverged.
        from cn3 import training

        real = training.adadelta_step

        def poisoned_step(params, state, clip_norm=None):
            real(params, state, clip_norm=clip_norm)
            dict(params)["head.crf.w_emit"].data[0, 0] = np.nan

        monkeypatch.setattr(training, "adadelta_step", poisoned_step)
        train, _ = case_tagging(n_train=8, n_test=2, seed=0)
        (tmp_path / "train.conll").write_text(serialize_conll(train))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("task = tag\ntrain_path = train.conll\n"
                       "tag_col = 1\nlayers = 1\n"
                       "d_word = 6\nd_h = 6\nd_a = 4\n"
                       "epochs = 2\nbatch_size = 4\nmetric = token_accuracy\n")
        assert entry(["train", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "non-finite loss" in err and "Traceback" not in err
        assert not (tmp_path / "model.cn3").exists()

    def test_divergence_keeps_completed_history(self, tmp_path, monkeypatch):
        # 12 examples in batches of 4: the fourth step is epoch 1's first.
        # The weight it poisons breaks epoch 1's second batch.
        from cn3 import training

        real = training.adadelta_step
        steps = []

        def poisoned_step(params, state, clip_norm=None):
            real(params, state, clip_norm=clip_norm)
            steps.append(None)
            if len(steps) == 4:
                dict(params)["stack.layer0.u"].data[0] = np.inf

        monkeypatch.setattr(training, "adadelta_step", poisoned_step)
        cfg = write_classify_setup(tmp_path)
        assert entry(["train", "--config", str(cfg)]) == 3
        rows = [json.loads(line) for line in
                (tmp_path / "history.jsonl").read_text().splitlines()]
        assert [row["epoch"] for row in rows] == [0]
        assert len(steps) == 4

    def test_tagging_train_runs(self, tmp_path):
        train, _ = case_tagging(n_train=8, n_test=2, seed=0)
        (tmp_path / "train.conll").write_text(serialize_conll(train))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("task = tag\ntrain_path = train.conll\n"
                       "tag_col = 1\nlayers = 1\n"
                       "d_word = 6\nd_h = 6\nd_a = 4\n"
                       "epochs = 2\nbatch_size = 4\nmetric = token_accuracy\n")
        assert entry(["train", "--config", str(cfg)]) == 0
        assert (tmp_path / "model.cn3").exists()

    @pytest.mark.parametrize("key,value", [
        ("clip_norm", -1), ("rho", 1.5), ("eps", 0), ("eps", math.inf)])
    def test_nonsensical_optimizer_exits_2(self, tmp_path, capsys, key, value):
        cfg = write_classify_setup(tmp_path, **{key: value})
        assert entry(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
        assert not (tmp_path / "model.cn3").exists()

    def test_negative_column_exits_2(self, tmp_path, capsys):
        train, _ = case_tagging(n_train=4, n_test=1, seed=0)
        (tmp_path / "train.conll").write_text(serialize_conll(train))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("task = tag\ntrain_path = train.conll\n"
                       "token_col = -1\ntag_col = 1\nlayers = 1\n"
                       "d_word = 6\nd_h = 6\nd_a = 4\n"
                       "epochs = 1\nmetric = token_accuracy\n")
        assert entry(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "token_col" in err[0]
        assert not (tmp_path / "model.cn3").exists()

    def test_tagging_dev_set_scored_by_token_accuracy(self, tmp_path):
        # with no metric key a tag run must still score its dev set; an
        # accuracy score of 0.0 every epoch would keep epoch 0's weights
        train, dev = case_tagging(n_train=24, n_test=8, seed=0)
        (tmp_path / "train.conll").write_text(serialize_conll(train))
        (tmp_path / "dev.conll").write_text(serialize_conll(dev))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("task = tag\ntrain_path = train.conll\n"
                       "dev_path = dev.conll\ntag_col = 1\nlayers = 1\n"
                       "d_word = 6\nd_h = 6\nd_a = 4\n"
                       "epochs = 2\nbatch_size = 8\n")
        assert entry(["train", "--config", str(cfg)]) == 0
        rows = [json.loads(line) for line in
                (tmp_path / "history.jsonl").read_text().splitlines()]
        assert all(row["dev_metric"] > 0.0 for row in rows)


class TestEval:
    def test_prints_metric_line(self, tmp_path, capsys):
        cfg = write_classify_setup(tmp_path)
        assert entry(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        rc = entry(["eval", "--archive", str(tmp_path / "model.cn3"),
                    "--data", str(tmp_path / "train.tsv")])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("metric=")
        float(out.split("=", 1)[1])

    def test_same_archive_same_output(self, tmp_path, capsys):
        cfg = write_classify_setup(tmp_path)
        assert entry(["train", "--config", str(cfg)]) == 0
        args = ["eval", "--archive", str(tmp_path / "model.cn3"),
                "--data", str(tmp_path / "train.tsv")]
        capsys.readouterr()
        assert entry(args) == 0
        first = capsys.readouterr().out
        assert entry(args) == 0
        assert capsys.readouterr().out == first

    def test_metric_task_mismatch_exits_2(self, tmp_path, capsys):
        cfg = write_classify_setup(tmp_path)
        assert entry(["train", "--config", str(cfg)]) == 0
        rc = entry(["eval", "--archive", str(tmp_path / "model.cn3"),
                    "--data", str(tmp_path / "train.tsv"),
                    "--metric", "chunk_f1"])
        assert rc == 2
        assert "does not apply" in capsys.readouterr().err

    def test_unreadable_archive_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cn3"
        bad.write_bytes(b"garbage")
        rc = entry(["eval", "--archive", str(bad),
                    "--data", str(bad)])
        assert rc == 2


class TestExportStructure:
    def setup_archive(self, tmp_path, layers=2):
        cfg = write_classify_setup(tmp_path, layers=layers)
        assert entry(["train", "--config", str(cfg)]) == 0
        return str(tmp_path / "model.cn3")

    def test_json_trace_shape(self, tmp_path):
        arch = self.setup_archive(tmp_path)
        (tmp_path / "sent.txt").write_text("alpha mira tolo\n")
        out = tmp_path / "trace.json"
        rc = entry(["export-structure", "--archive", arch,
                    "--data", str(tmp_path / "sent.txt"),
                    "--format", "json", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["tokens"] == ["alpha", "mira", "tolo"]
        assert len(payload["layers"]) == 2
        for layer in payload["layers"]:
            mat = np.array(layer)
            assert mat.shape == (3, 3)
            np.testing.assert_allclose(mat.sum(axis=0), 1.0, atol=1e-6)

    def test_single_token_sentence_unit_matrices(self, tmp_path):
        arch = self.setup_archive(tmp_path, layers=2)
        (tmp_path / "sent.txt").write_text("alpha\n")
        out = tmp_path / "trace.json"
        rc = entry(["export-structure", "--archive", arch,
                    "--data", str(tmp_path / "sent.txt"),
                    "--format", "json", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["layers"] == [[[1.0]], [[1.0]]]

    def test_dot_threshold_prunes_all_edges(self, tmp_path):
        arch = self.setup_archive(tmp_path)
        (tmp_path / "sent.txt").write_text("alpha mira tolo\n")
        out = tmp_path / "trace.dot"
        rc = entry(["export-structure", "--archive", arch,
                    "--data", str(tmp_path / "sent.txt"),
                    "--format", "dot", "--threshold", "1.1",
                    "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.count("digraph") == 2
        assert "->" not in text
        assert '[label="alpha"]' in text

    def test_dot_default_threshold_keeps_edges(self, tmp_path):
        arch = self.setup_archive(tmp_path)
        (tmp_path / "sent.txt").write_text("alpha mira tolo\n")
        out = tmp_path / "trace.dot"
        rc = entry(["export-structure", "--archive", arch,
                    "--data", str(tmp_path / "sent.txt"),
                    "--format", "dot", "--out", str(out)])
        assert rc == 0
        # columns sum to 1 over 3 rows, so some α must clear 0.05
        assert "->" in out.read_text()

    def test_multiple_sentences_rejected(self, tmp_path, capsys):
        arch = self.setup_archive(tmp_path)
        (tmp_path / "sent.txt").write_text("alpha mira\nbeta tolo\n")
        rc = entry(["export-structure", "--archive", arch,
                    "--data", str(tmp_path / "sent.txt"),
                    "--out", str(tmp_path / "t.json")])
        assert rc == 2
        assert "exactly one sentence" in capsys.readouterr().err


class TestGradCheck:
    def gc_config(self, tmp_path, **extra):
        (tmp_path / "train.tsv").write_text(
            serialize_classification_tsv(keyword_classification(n=4, seed=0)))
        lines = {"task": "classify", "lstm": "true"}
        lines.update(extra)
        cfg = tmp_path / "gc.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        return cfg

    def test_fresh_model_passes(self, tmp_path, capsys):
        cfg = self.gc_config(tmp_path)
        assert entry(["grad-check", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "tables: max_rel_err=" in out
        assert "FAIL" not in out

    def test_crf_head_passes(self, tmp_path, capsys):
        cfg = self.gc_config(tmp_path, task="tag", metric="token_accuracy")
        assert entry(["grad-check", "--config", str(cfg)]) == 0
        assert "head: max_rel_err=" in capsys.readouterr().out

    def test_corrupted_backward_exits_1(self, tmp_path, capsys, monkeypatch):
        def bad_sigmoid(t):
            t = ad.as_tensor(t)
            y = ad._sigmoid_stable(t.data)

            def back(g):
                ad._accum(t, 0.5 * y * (1.0 - y) * g)

            return ad._result(y, (t,), "sigmoid", back)

        # core calls through the ad namespace, so this poisons the gate
        # that blends each layer's aggregate into the node states
        monkeypatch.setattr(core.ad, "sigmoid", bad_sigmoid)
        cfg = self.gc_config(tmp_path)
        assert entry(["grad-check", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "failed for" in captured.err


class TestTraceSerializers:
    def make_trace(self):
        alpha = ad.as_tensor([[0.9, 0.2], [0.1, 0.8]])
        return core.AlphaTrace(tokens=["a", "b"], per_layer=[alpha])

    def test_json_round_trip_exact_enough(self):
        trace = self.make_trace()
        payload = json.loads(trace_to_json(trace))
        np.testing.assert_allclose(payload["layers"][0],
                                   [[0.9, 0.2], [0.1, 0.8]], atol=1e-12)

    def test_dot_lists_only_edges_over_threshold(self):
        text = trace_to_dot(self.make_trace(), threshold=0.5)
        assert "n0 -> n0" in text
        assert "n1 -> n1" in text
        assert "n1 -> n0" not in text
        assert "n0 -> n1" not in text

    def test_dot_escapes_quotes(self):
        alpha = ad.as_tensor([[1.0]])
        trace = core.AlphaTrace(tokens=['sa"id'], per_layer=[alpha])
        assert '\\"' in trace_to_dot(trace, 0.05)
