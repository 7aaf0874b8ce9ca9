"""Run configuration: flat key=value files driving training and evaluation.

Files hold one `key = value` per line with `#` comments. Every key names a
field of ModelConfig, TrainConfig or RunConfig, except that the attribute
flags go by the short names in _FLAG_KEYS; `seed`, a field of both
ModelConfig and TrainConfig, sets both. Relative paths are resolved
against the config file's own directory so a config can travel with its
data. Unknown and duplicate keys are hard errors with line numbers;
silently ignored settings corrupt experiment bookkeeping.
"""

import os
import typing
from dataclasses import dataclass, field, replace
from typing import Optional

from .model import ModelConfig
from .training import TrainConfig, check_metric, default_metric


class ConfigError(ValueError):
    """Bad configuration; the message names the offending key or line."""


# Config key of each ModelConfig attribute flag; variant names use them too.
_FLAG_KEYS = {"lstm": "use_lstm", "char": "use_char", "pos": "use_pos_tag",
              "dep": "use_dep", "spell": "use_spell",
              "position": "use_position"}

# Model variants are named by the attribute set riding on the node/edge
# vectors. Anything else is reported as "custom".
_NAMED_VARIANTS = {
    frozenset(): "bare",
    frozenset({"lstm"}): "lstm",
    frozenset({"lstm", "pos"}): "lstm+pos",
    frozenset({"lstm", "char"}): "lstm+char",
    frozenset({"lstm", "dep"}): "lstm+dep",
    frozenset({"lstm", "char", "spell"}): "lstm+char+spell",
}


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    # data paths (resolved relative to the config file)
    train_path: Optional[str] = None
    dev_path: Optional[str] = None
    glove_path: Optional[str] = None
    edges_path: Optional[str] = None
    archive_path: str = "model.cn3"
    history_path: str = "history.jsonl"

    # tagging file layout
    token_col: int = 0
    tag_col: int = 2
    pos_col: Optional[int] = None
    tag_scheme: str = "bio"

    def variant_label(self) -> str:
        on = {key for key, name in _FLAG_KEYS.items()
              if getattr(self.model, name)}
        return _NAMED_VARIANTS.get(frozenset(on), "custom")

    def validate(self) -> None:
        """Check that the metric scores the task, that inputs exist and
        that outputs have a directory to go to, before any training runs."""
        try:
            check_metric(self.train.metric, self.model.task)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for name in _INPUT_PATHS:
            path = getattr(self, name)
            if path is not None and not os.path.exists(path):
                raise ConfigError(f"{name} does not exist: {path}")
        for name in _OUTPUT_PATHS:
            path = getattr(self, name)
            if not os.path.isdir(os.path.dirname(path) or os.curdir):
                raise ConfigError(f"{name} is in a directory that does not "
                                  f"exist: {path}")


_BOOL_WORDS = {"true": True, "yes": True, "1": True,
               "false": False, "no": False, "0": False}

_INPUT_PATHS = ("train_path", "dev_path", "glove_path", "edges_path")
_OUTPUT_PATHS = ("archive_path", "history_path")
_PATH_FIELDS = _INPUT_PATHS + _OUTPUT_PATHS


def _key_table() -> dict[str, tuple[type, list[tuple[str, str]]]]:
    """Config key -> (value type, [(section, field name), ...])."""
    flag_key = {name: key for key, name in _FLAG_KEYS.items()}
    table: dict[str, tuple[type, list[tuple[str, str]]]] = {}
    for section, cls in (("model", ModelConfig), ("train", TrainConfig),
                         ("run", RunConfig)):
        for name, tp in typing.get_type_hints(cls).items():
            if cls is RunConfig and name in ("model", "train"):
                continue
            key = flag_key.get(name, name)
            table.setdefault(key, (tp, []))[1].append((section, name))
    return table


_KEYS = _key_table()


def _convert(key: str, raw: str, target_type, lineno: int):
    optional = type(None) in typing.get_args(target_type)
    base = typing.get_args(target_type)[0] if optional else target_type
    if base is str:
        return raw
    if raw.lower() == "none":
        if optional:
            return None
        raise ConfigError(f"line {lineno}: {key} cannot be none")
    try:
        if base is bool:
            return _BOOL_WORDS[raw.lower()]
        if base in (int, float):
            return base(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"line {lineno}: cannot parse {key} value {raw!r}")
    raise ConfigError(f"line {lineno}: unsupported key {key!r}")


def parse_config(path: str) -> RunConfig:
    """Read a key=value file into a validated RunConfig."""
    seen: dict[str, int] = {}
    values: dict[str, dict[str, object]] = {"model": {}, "train": {},
                                            "run": {}}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"line {lineno}: expected key = value, "
                                  f"got {text!r}")
            key, _, raw = text.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in _KEYS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in seen:
                raise ConfigError(f"line {lineno}: duplicate key {key!r} "
                                  f"(first set on line {seen[key]})")
            seen[key] = lineno
            target_type, targets = _KEYS[key]
            value = _convert(key, raw, target_type, lineno)
            for section, name in targets:
                values[section][name] = value

    try:
        model = ModelConfig(**values["model"])
        values["train"].setdefault("metric", default_metric(model.task))
        train = TrainConfig(**values["train"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # All paths, defaulted ones included, resolve relative to the config file.
    base = os.path.dirname(os.path.abspath(path))
    cfg = RunConfig(model=model, train=train, **values["run"])
    resolved = {name: os.path.normpath(os.path.join(base, getattr(cfg, name)))
                for name in _PATH_FIELDS if getattr(cfg, name) is not None}
    cfg = replace(cfg, **resolved)
    cfg.validate()
    return cfg


def resolve_seed(cfg: RunConfig, cli_seed: Optional[int] = None) -> RunConfig:
    """Apply seed precedence: CN3_SEED env var, then --seed, then config."""
    seed = cli_seed
    env = os.environ.get("CN3_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(f"CN3_SEED must be an integer, got {env!r}")
    if seed is None:
        return cfg
    return replace(cfg, model=replace(cfg.model, seed=seed),
                   train=replace(cfg.train, seed=seed))
