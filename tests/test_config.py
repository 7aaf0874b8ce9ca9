"""Run-config parsing: key=value files, path resolution, seed precedence."""

from dataclasses import fields

import pytest

from cn3.config import ConfigError, RunConfig, parse_config, resolve_seed
from cn3.model import ModelConfig
from cn3.training import TrainConfig


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestParsing:
    def test_types_and_comments(self, tmp_path):
        path = write_cfg(tmp_path, """
# experiment settings
task = classify
layers = 3          # depth
d_word = 12
rho = 0.9
lstm = true
fine_tune_words = no
clip_norm = 5.0

pos_col = none
""")
        cfg = parse_config(path)
        assert cfg.model.task == "classify"
        assert cfg.model.layers == 3
        assert cfg.model.d_word == 12
        assert cfg.train.rho == 0.9
        assert cfg.model.use_lstm is True
        assert cfg.model.fine_tune_words is False
        assert cfg.train.clip_norm == 5.0
        assert cfg.pos_col is None

    def test_defaults_survive_empty_file(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "# nothing here\n"))
        assert cfg.model == RunConfig().model == ModelConfig()
        assert cfg.train == RunConfig().train == TrainConfig()
        assert cfg.model.task == "classify"
        assert cfg.train.metric == "accuracy"

    def test_tag_task_defaults_to_token_accuracy(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "task = tag\n"))
        assert cfg.train.metric == "token_accuracy"

    def test_unknown_key_names_line(self, tmp_path):
        path = write_cfg(tmp_path, "task = classify\nlayrs = 2\n")
        with pytest.raises(ConfigError, match=r"line 2: unknown key 'layrs'"):
            parse_config(path)

    @pytest.mark.parametrize("key", ["use_lstm", "test_path"])
    def test_field_names_behind_short_keys_and_test_path_are_unknown(
            self, tmp_path, key):
        path = write_cfg(tmp_path, f"{key} = true\n")
        with pytest.raises(ConfigError, match=f"line 1: unknown key '{key}'"):
            parse_config(path)

    def test_duplicate_key_names_both_lines(self, tmp_path):
        path = write_cfg(tmp_path, "layers = 1\n\nlayers = 2\n")
        with pytest.raises(ConfigError, match=r"line 3: duplicate.*line 1"):
            parse_config(path)

    def test_bad_int_names_line(self, tmp_path):
        path = write_cfg(tmp_path, "epochs = soon\n")
        with pytest.raises(ConfigError, match=r"line 1: cannot parse epochs"):
            parse_config(path)

    def test_bad_bool_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "lstm = maybe\n")
        with pytest.raises(ConfigError, match="cannot parse lstm"):
            parse_config(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "task classify\n")
        with pytest.raises(ConfigError, match="expected key = value"):
            parse_config(path)

    def test_none_rejected_for_required_int(self, tmp_path):
        path = write_cfg(tmp_path, "layers = none\n")
        with pytest.raises(ConfigError, match="cannot be none"):
            parse_config(path)


class TestPathResolution:
    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "train.tsv").write_text("yes\thello there\n")
        (tmp_path / "runs").mkdir()
        path = write_cfg(tmp_path / "runs",
                         "train_path = ../data/train.tsv\n")
        cfg = parse_config(path)
        assert cfg.train_path == str(tmp_path / "data" / "train.tsv")

    def test_output_defaults_resolve_too(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "task = classify\n"))
        assert cfg.archive_path == str(tmp_path / "model.cn3")
        assert cfg.history_path == str(tmp_path / "history.jsonl")

    def test_absolute_path_kept(self, tmp_path):
        data = tmp_path / "train.tsv"
        data.write_text("yes\thello\n")
        path = write_cfg(tmp_path, f"train_path = {data}\n")
        assert parse_config(path).train_path == str(data)

    def test_missing_input_path_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "train_path = nowhere.tsv\n")
        with pytest.raises(ConfigError, match="train_path does not exist"):
            parse_config(path)


class TestValidate:
    def test_bad_task(self, tmp_path):
        with pytest.raises(ConfigError, match="task"):
            parse_config(write_cfg(tmp_path, "task = translate\n"))

    def test_bad_metric(self, tmp_path):
        with pytest.raises(ConfigError, match="metric"):
            parse_config(write_cfg(tmp_path, "metric = bleu\n"))

    def test_tag_metric_needs_tag_task(self):
        with pytest.raises(ConfigError, match="tag task"):
            RunConfig(model=ModelConfig(task="classify"),
                      train=TrainConfig(metric="chunk_f1")).validate()
        RunConfig(model=ModelConfig(task="tag"),
                  train=TrainConfig(metric="chunk_f1")).validate()

    def test_tag_task_rejects_accuracy(self, tmp_path):
        with pytest.raises(ConfigError, match="does not apply to the 'tag'"):
            RunConfig(model=ModelConfig(task="tag"),
                      train=TrainConfig(metric="accuracy")).validate()
        with pytest.raises(ConfigError, match="does not apply to the 'tag'"):
            parse_config(write_cfg(tmp_path, "task = tag\nmetric = accuracy\n"))

    def test_model_range_errors_become_config_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_cfg(tmp_path, "layers = -1\n"))
        with pytest.raises(ConfigError):
            parse_config(write_cfg(tmp_path, "epochs = 0\n"))


def model_flags(**flags):
    """RunConfig whose model has the named use_* flags set."""
    return RunConfig(model=ModelConfig(**{f"use_{name}": on
                                          for name, on in flags.items()}))


class TestVariantLabel:
    @pytest.mark.parametrize("flags,label", [
        ({}, "bare"),
        ({"lstm": True}, "lstm"),
        ({"lstm": True, "pos_tag": True}, "lstm+pos"),
        ({"lstm": True, "char": True}, "lstm+char"),
        ({"lstm": True, "dep": True}, "lstm+dep"),
        ({"lstm": True, "char": True, "spell": True}, "lstm+char+spell"),
    ])
    def test_named_variants(self, flags, label):
        assert model_flags(**flags).variant_label() == label

    def test_unnamed_combination_is_custom(self):
        assert model_flags(char=True).variant_label() == "custom"
        assert model_flags(lstm=True, spell=True).variant_label() == "custom"

    def test_position_forces_custom(self):
        assert model_flags(lstm=True, position=True).variant_label() == "custom"


# A non-default value for every field, under the config key that sets it.
FLAG_KEYS = {"use_lstm": "lstm", "use_char": "char", "use_pos_tag": "pos",
             "use_dep": "dep", "use_spell": "spell", "use_position": "position"}
STRING_VALUES = {"task": "tag", "metric": "chunk_f1"}


def changed_value(f):
    if f.name in STRING_VALUES:
        return STRING_VALUES[f.name]
    if f.default is None:
        return 2.5
    if isinstance(f.default, bool):
        return not f.default
    if isinstance(f.default, int):
        return f.default + 1
    return f.default / 2


class TestDerivedConfigs:
    def test_flags_map_to_model_config(self, tmp_path):
        cfg = parse_config(write_cfg(
            tmp_path, "lstm = true\npos = true\ndep = true\n"
                      "d_h = 40\nlayers = 1\n"))
        mc = cfg.model
        assert mc.use_lstm and mc.use_pos_tag and mc.use_dep
        assert not (mc.use_char or mc.use_spell or mc.use_position)
        assert mc.d_h == 40 and mc.layers == 1

    def test_train_config_carries_optimizer_settings(self, tmp_path):
        tc = parse_config(write_cfg(
            tmp_path, "epochs = 7\nbatch_size = 3\nrho = 0.8\n"
                      "patience = 2\nclip_norm = 9.0\n")).train
        assert (tc.epochs, tc.batch_size, tc.rho, tc.patience,
                tc.clip_norm) == (7, 3, 0.8, 2, 9.0)

    def test_every_model_and_train_field_has_a_key(self, tmp_path):
        model = {f.name: changed_value(f) for f in fields(ModelConfig)}
        train = {f.name: changed_value(f) for f in fields(TrainConfig)}
        assert model["seed"] == train["seed"]
        keys = {FLAG_KEYS.get(name, name): value
                for name, value in {**model, **train}.items()}
        text = "".join(f"{key} = {value}\n" for key, value in keys.items())
        cfg = parse_config(write_cfg(tmp_path, text))
        assert cfg.model == ModelConfig(**model)
        assert cfg.train == TrainConfig(**train)
        assert cfg.model != ModelConfig() and cfg.train != TrainConfig()


def seeded(seed):
    return RunConfig(model=ModelConfig(seed=seed), train=TrainConfig(seed=seed))


def seeds(cfg):
    return cfg.model.seed, cfg.train.seed


class TestResolveSeed:
    def test_config_seed_is_default(self, monkeypatch):
        monkeypatch.delenv("CN3_SEED", raising=False)
        assert seeds(resolve_seed(seeded(4))) == (4, 4)

    def test_cli_flag_beats_config(self, monkeypatch):
        monkeypatch.delenv("CN3_SEED", raising=False)
        assert seeds(resolve_seed(seeded(4), cli_seed=9)) == (9, 9)

    def test_env_beats_flag(self, monkeypatch):
        monkeypatch.setenv("CN3_SEED", "123")
        assert seeds(resolve_seed(seeded(4), cli_seed=9)) == (123, 123)

    def test_bad_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv("CN3_SEED", "twelve")
        with pytest.raises(ConfigError, match="CN3_SEED"):
            resolve_seed(RunConfig())

    def test_file_seed_sets_both_seeds(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CN3_SEED", raising=False)
        cfg = parse_config(write_cfg(tmp_path, "seed = 7\n"))
        assert seeds(resolve_seed(cfg)) == (7, 7)
