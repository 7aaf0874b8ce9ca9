"""Command-line surface: train, eval, export-structure, grad-check.

Exit codes: 0 success, 1 failed gradient check, 2 bad configuration or
input, 3 training divergence (the completed epochs' history is still
written). The CN3_SEED environment variable beats the --seed flag, which
beats the seed in the config file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import autodiff as ad
from . import data as data_io
from . import training as tr
from .archive import ArchiveError, load_archive, save_archive
from .config import ConfigError, RunConfig, parse_config, resolve_seed
from .core import AlphaTrace
from .model import Cn3Model
from .synthetic import (gradcheck_examples, gradcheck_objective,
                        randomize_params)

GRADCHECK_TOL = 1e-4
DOT_THRESHOLD_DEFAULT = 0.05


def load_examples(cfg: RunConfig, path: str) -> list[data_io.LabeledExample]:
    """Parse one data file in the layout the config describes."""
    if cfg.model.task == "tag":
        examples = data_io.parse_conll(path, token_col=cfg.token_col,
                                       tag_col=cfg.tag_col,
                                       pos_col=cfg.pos_col,
                                       tag_scheme=cfg.tag_scheme)
    elif cfg.model.task == "match":
        examples = data_io.parse_pairs(path)
    else:
        examples = data_io.parse_classification_tsv(path)
    if cfg.edges_path is not None:
        data_io.join_edges(examples, data_io.parse_edges(cfg.edges_path))
    return examples


# ---------------------------------------------------------------------------
# trace serialization

def trace_to_json(trace: AlphaTrace) -> str:
    payload = {"tokens": trace.tokens,
               "layers": [alpha.data.tolist() for alpha in trace.per_layer]}
    return json.dumps(payload, indent=2)


def trace_to_dot(trace: AlphaTrace, threshold: float) -> str:
    """One digraph per layer; α_ik edges below the threshold are omitted."""
    lines: list[str] = []
    n = len(trace.tokens)
    for li, alpha in enumerate(trace.per_layer):
        lines.append(f"digraph layer{li} {{")
        lines.append("  rankdir=LR;")
        for i, tok in enumerate(trace.tokens):
            safe = tok.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  n{i} [label="{safe}"];')
        for i in range(n):
            for k in range(n):
                w = float(alpha.data[i, k])
                if w >= threshold:
                    lines.append(f'  n{i} -> n{k} [weight={w:.6f}, '
                                 f'label="{w:.2f}"];')
        lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands

def _write_history(path: str, history: list[dict]) -> None:
    """One JSON object per completed epoch, one per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in history:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def cmd_train(args) -> int:
    cfg = resolve_seed(parse_config(args.config), args.seed)
    if cfg.train_path is None:
        raise ConfigError("train_path is required to train")
    train_data = load_examples(cfg, cfg.train_path)
    dev_data = (load_examples(cfg, cfg.dev_path)
                if cfg.dev_path is not None else None)
    model = Cn3Model(cfg.model, train_data, glove_path=cfg.glove_path)
    print(f"variant={cfg.variant_label()} task={cfg.model.task} "
          f"examples={len(train_data)}")
    try:
        history = tr.train(model, train_data, cfg.train, dev_data=dev_data)
    except tr.TrainingDiverged as exc:
        _write_history(cfg.history_path, exc.history)
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _write_history(cfg.history_path, history)
    save_archive(model, cfg.archive_path)
    print(f"saved archive to {cfg.archive_path} "
          f"({len(history)} epochs, history in {cfg.history_path})")
    return 0


def cmd_eval(args) -> int:
    model = load_archive(args.archive)
    task = model.cfg.task
    layout = (parse_config(args.config) if args.config
              else RunConfig(model=model.cfg))
    if layout.model.task != task:
        raise ConfigError(f"config task {layout.model.task!r} does not match "
                          f"archived task {task!r}")
    metric = args.metric or tr.default_metric(task)
    tr.check_metric(metric, task)
    examples = load_examples(layout, args.data)
    value = tr.evaluate(model, examples, metric)
    print(f"metric={value}")
    return 0


def cmd_export_structure(args) -> int:
    model = load_archive(args.archive)
    with open(args.data, "r", encoding="utf-8") as fh:
        sentences = [line.split() for line in fh if line.strip()]
    if len(sentences) != 1:
        raise ConfigError(f"expected exactly one sentence in {args.data}, "
                          f"found {len(sentences)}")
    if model.cfg.use_pos_tag:
        raise ConfigError("this model needs pos tags; plain sentence export "
                          "is only available for variants without them")
    trace = model.trace_for(sentences[0])
    if args.format == "json":
        text = trace_to_json(trace)
    else:
        text = trace_to_dot(trace, args.threshold)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.format} trace ({len(trace.per_layer)} layers) "
          f"to {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    """Check analytic gradients for the configured variant at small widths.

    The check verifies backward rules, which do not depend on layer
    widths, so it always runs on a small model regardless of the sizes in
    the config; full-size finite differences would take hours.
    """
    cfg = parse_config(args.config)
    small = dataclasses.replace(
        cfg.model, layers=max(1, min(cfg.model.layers, 2)), d_word=3, d_h=3,
        d_a=2, d_char=2, d_pos=2, d_pos_tag=2, d_spell=2, d_rel=2,
        lstm_hidden=2, max_len=8, min_count=1, fine_tune_words=True)
    examples = gradcheck_examples(small.task)
    model = Cn3Model(small, examples)
    randomize_params(model, seed=small.seed)
    print(f"variant={cfg.variant_label()} task={small.task}")
    failed: list[str] = []
    for group, items in model.param_groups().items():
        err = ad.grad_check(lambda: gradcheck_objective(model, examples),
                            [t for _, t in items])
        status = "ok" if err < GRADCHECK_TOL else "FAIL"
        print(f"{group}: max_rel_err={err:.3e} {status}")
        if err >= GRADCHECK_TOL:
            failed.append(group)
    if failed:
        print(f"gradient check failed for: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cn3",
        description="Train and inspect contextualized non-local models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a config file")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, default=None,
                         help="override the config seed (CN3_SEED beats this)")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate an archived model")
    p_eval.add_argument("--archive", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--metric", default=None,
                        choices=list(tr.METRICS))
    p_eval.add_argument("--config", default=None,
                        help="optional config for the data file layout")
    p_eval.set_defaults(func=cmd_eval)

    p_export = sub.add_parser("export-structure",
                              help="dump learned attention matrices")
    p_export.add_argument("--archive", required=True)
    p_export.add_argument("--data", required=True,
                          help="text file holding one sentence")
    p_export.add_argument("--format", choices=["json", "dot"], default="json")
    p_export.add_argument("--threshold", type=float,
                          default=DOT_THRESHOLD_DEFAULT,
                          help="minimum α_ik for a DOT edge")
    p_export.add_argument("--out", required=True)
    p_export.set_defaults(func=cmd_export_structure)

    p_gc = sub.add_parser("grad-check",
                          help="finite-difference check of all gradients")
    p_gc.add_argument("--config", required=True)
    p_gc.set_defaults(func=cmd_gradcheck)
    return parser


def entry(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ArchiveError, data_io.DataError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(entry())


if __name__ == "__main__":
    main()
