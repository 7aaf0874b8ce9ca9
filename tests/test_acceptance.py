"""Shipping checks: one test per acceptance requirement, tolerances pinned.

Each test prints a single summary line (visible with -s or -rA) naming
the requirement and the measured margin. Benchmarks at corpus scale are
out of reach for a test suite, so these are property and capability
checks on synthetic data with fixed seeds.
"""

import io
import itertools
import json
import re
import time
from contextlib import redirect_stdout

import numpy as np

from cn3 import autodiff as ad
from cn3 import crf
from cn3.cli import entry, trace_to_json
from cn3.data import CLASSIFICATION, LabeledExample, parse_conll
from cn3.model import Cn3Model, ModelConfig
from cn3.synthetic import (first_last_pairing, keyword_classification,
                           randomize_params)
from cn3.training import TrainConfig, chunk_f1, evaluate, train
from corpora import case_tagging, serialize_classification_tsv


def test_c1_gradient_integrity(tmp_path, capsys):
    """grad-check passes every named variant and head; < 1e-4, < 2 min."""
    variants = [("lstm",), ("lstm", "char"), ("lstm", "pos"),
                ("lstm", "dep"), ("lstm", "spell"),
                ("lstm", "char", "spell")]
    tasks = ("classify", "tag", "match")
    start = time.perf_counter()
    worst = 0.0
    for task, flags in itertools.product(tasks, variants):
        lines = [f"task = {task}"] + [f"{f} = true" for f in flags]
        if task == "tag":
            lines.append("metric = token_accuracy")
        cfg = tmp_path / "gc.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = entry(["grad-check", "--config", str(cfg)])
        assert rc == 0, f"{task}/{'+'.join(flags)}:\n{buf.getvalue()}"
        errs = [float(m) for m in
                re.findall(r"max_rel_err=(\S+)", buf.getvalue())]
        assert errs and max(errs) < 1e-4
        worst = max(worst, max(errs))
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"PASS 1 gradient integrity: 18 variant/head cells, worst "
          f"rel err {worst:.2e} < 1e-4, {elapsed:.0f}s < 120s")


def test_c2_crf_matches_brute_force():
    """Forward log-partition and viterbi vs. path enumeration; < 30 s."""
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    worst_lp = worst_score = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(2, 5))
        emit = ad.Tensor(rng.normal(size=(n, m)))
        p = crf.CrfParams(w_emit=ad.Tensor(rng.normal(size=(3, m))),
                          b_emit=ad.Tensor(rng.normal(size=(m,))),
                          trans=ad.Tensor(rng.normal(size=(m, m))),
                          start=ad.Tensor(rng.normal(size=(m,))))
        scored = []
        for y in itertools.product(range(m), repeat=n):
            s = p.start.data[y[0]] + emit.data[0, y[0]]
            for i in range(1, n):
                s += p.trans.data[y[i - 1], y[i]] + emit.data[i, y[i]]
            scored.append((s, list(y)))
        brute_lp = np.logaddexp.reduce(np.array([s for s, _ in scored]))
        worst_lp = max(worst_lp, abs(
            crf.log_partition(emit, p).data.item() - brute_lp))
        best_score, best_tags = max(scored, key=lambda t: t[0])
        tags, score = crf.viterbi_decode(emit, p)
        assert tags == best_tags
        worst_score = max(worst_score, abs(score - best_score))
    elapsed = time.perf_counter() - start
    assert worst_lp < 1e-8
    assert worst_score < 1e-9
    assert elapsed < 30.0
    print(f"PASS 2 crf oracle: 200 instances, log-partition err "
          f"{worst_lp:.1e} < 1e-8, viterbi score err {worst_score:.1e} "
          f"< 1e-9, {elapsed:.1f}s < 30s")


def test_c3_attention_columns_normalized():
    """Alpha columns sum to 1: 1e-9 in memory, 1e-6 after JSON."""
    sentences = [["the", "cat", "sat", "on", "the", "mat"],
                 ["dogs", "bark"],
                 ["one", "long", "noun", "phrase", "never", "ends", "here"]]
    data = [LabeledExample(kind=CLASSIFICATION, tokens=s,
                           label="a" if i % 2 else "b")
            for i, s in enumerate(sentences)]
    worst_mem = worst_json = 0.0
    for layers in (1, 2, 3):
        cfg = ModelConfig(task="classify", layers=layers, d_word=6,
                          d_h=6, d_a=4, seed=layers)
        model = Cn3Model(cfg, data)
        randomize_params(model, scale=1.0, seed=layers)
        for sent in sentences:
            trace = model.trace_for(sent)
            assert len(trace.per_layer) == layers
            for alpha in trace.per_layer:
                assert alpha.shape == (len(sent), len(sent))
                worst_mem = max(worst_mem, np.abs(
                    alpha.data.sum(axis=0) - 1.0).max())
            decoded = json.loads(trace_to_json(trace))
            for layer in decoded["layers"]:
                sums = np.array(layer).sum(axis=0)
                worst_json = max(worst_json, np.abs(sums - 1.0).max())
    assert worst_mem < 1e-9
    assert worst_json < 1e-6
    print(f"PASS 3 attention normalization: column sum err {worst_mem:.1e} "
          f"< 1e-9 in memory, {worst_json:.1e} < 1e-6 after JSON, L in 1..3")


class _WidthThreeConv:
    """Local-contrast baseline: one zero-padded width-3 conv layer."""

    def __init__(self, d_in: int, d_out: int, rng):
        self.w = rng.normal(size=(3 * d_in, d_out))

    def forward(self, x: np.ndarray) -> np.ndarray:
        pad = np.zeros((1, x.shape[1]))
        padded = np.vstack([pad, x, pad])
        rows = [np.tanh(padded[i:i + 3].reshape(-1) @ self.w)
                for i in range(x.shape[0])]
        return np.stack(rows)


def test_c4_every_token_pair_interacts():
    """One layer connects all 100 (j,k) pairs; a conv cannot pass dist 1."""
    tokens = ["alpha", "bravo", "carol", "delta", "echo",
              "fox", "golf", "hotel", "india", "julia"]
    data = [LabeledExample(kind=CLASSIFICATION, tokens=tokens, label="a"),
            LabeledExample(kind=CLASSIFICATION, tokens=tokens[::-1],
                           label="b")]
    cfg = ModelConfig(task="classify", layers=1, d_word=6, d_h=6, d_a=4,
                      seed=3)
    model = Cn3Model(cfg, data)
    g = model.sentence_graph(tokens)
    base = model.encode(g)[0].data.copy()
    table = model.encoder.word_table.weights.data
    eps = 1e-4
    sens = np.zeros((10, 10))
    for j, tok in enumerate(tokens):
        row = model.word_vocab.id_of(tok)
        table[row, 0] += eps
        sens[j] = np.abs(model.encode(g)[0].data - base).max(axis=1)
        table[row, 0] -= eps
    assert np.all(sens > 0.0), f"dead pairs: {np.argwhere(sens == 0.0)}"

    rng = np.random.default_rng(0)
    x = rng.normal(size=(10, 6))
    conv = _WidthThreeConv(6, 6, rng)
    base_conv = conv.forward(x)
    conv_sens = np.zeros((10, 10))
    for j in range(10):
        bumped = x.copy()
        bumped[j, 0] += eps
        conv_sens[j] = np.abs(conv.forward(bumped) - base_conv).max(axis=1)
    far = np.abs(np.subtract.outer(range(10), range(10))) > 1
    assert np.all(conv_sens[far] == 0.0)
    assert np.all(conv_sens[~far] > 0.0)
    print(f"PASS 4 non-local reachability: min pair sensitivity "
          f"{sens.min():.1e} > 0 across all 100 pairs; conv baseline dead "
          f"beyond distance 1")


def test_c5_keyword_toy_reaches_full_train_accuracy():
    """20-example keyword task hits 100% train accuracy; < 1 min."""
    data = keyword_classification(n=20, seed=0)
    cfg = ModelConfig(task="classify", layers=2, d_word=16, d_h=16,
                      d_a=16, seed=0)
    model = Cn3Model(cfg, data)
    start = time.perf_counter()
    history = train(model, data, TrainConfig(epochs=200, batch_size=4,
                                             seed=0))
    elapsed = time.perf_counter() - start
    acc = evaluate(model, data, "accuracy")
    assert len(history) <= 200
    assert acc == 1.0
    assert elapsed < 60.0
    print(f"PASS 5 toy overfit: train accuracy {acc:.2f} within "
          f"{len(history)} epochs, {elapsed:.0f}s < 60s")


def test_c6_case_tagging_generalizes():
    """LSTM+spell tagger >= 99% test token accuracy in <= 30 epochs, < 3 min."""
    train_set, test_set = case_tagging(n_train=500, n_test=100, seed=0)
    cfg = ModelConfig(task="tag", layers=1, d_word=8, d_h=8, d_a=6,
                      lstm_hidden=8, d_spell=6, use_lstm=True,
                      use_spell=True, seed=0)
    model = Cn3Model(cfg, train_set)
    start = time.perf_counter()
    train(model, train_set, TrainConfig(epochs=10, batch_size=32, seed=0,
                                        metric="token_accuracy"))
    elapsed = time.perf_counter() - start
    acc = evaluate(model, test_set, "token_accuracy")
    assert acc >= 0.99
    assert elapsed < 180.0
    print(f"PASS 6 tagging learnability: test token accuracy {acc:.3f} "
          f">= 0.99 after 10 epochs, {elapsed:.0f}s < 180s")


def test_c7_depth_beats_flat_on_long_range_pairing():
    """L=2 (no LSTM) beats L=0 by >= 15 points on first/last matching."""
    data = first_last_pairing(n=24, length=20, seed=0)

    def mean_accuracy(layers: int) -> float:
        scores = []
        for seed in (0, 1, 2):
            cfg = ModelConfig(task="classify", layers=layers, d_word=8,
                              d_h=8, d_a=8, seed=seed)
            model = Cn3Model(cfg, data)
            train(model, data, TrainConfig(epochs=800, batch_size=4,
                                           seed=seed))
            scores.append(evaluate(model, data, "accuracy"))
        return sum(scores) / len(scores)

    flat = mean_accuracy(0)
    deep = mean_accuracy(2)
    gap = (deep - flat) * 100
    assert gap >= 15.0, f"L=2 {deep:.3f} vs L=0 {flat:.3f}"
    print(f"PASS 7 depth effect: L=2 {deep:.3f} vs L=0 {flat:.3f}, "
          f"gap {gap:.1f} points >= 15, mean of 3 seeds")


def test_c8_identical_runs_give_identical_archives(tmp_path):
    """Same config and seed twice: byte-identical archives."""
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        (d / "train.tsv").write_text(serialize_classification_tsv(
            keyword_classification(n=12, seed=0)))
        (d / "run.cfg").write_text(
            "task = classify\ntrain_path = train.tsv\nlayers = 1\n"
            "d_word = 8\nd_h = 8\nd_a = 6\nepochs = 3\nbatch_size = 4\n"
            "seed = 7\n")
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert entry(["train", "--config", str(d / "run.cfg")]) == 0
    blob_a = (tmp_path / "a" / "model.cn3").read_bytes()
    blob_b = (tmp_path / "b" / "model.cn3").read_bytes()
    assert blob_a == blob_b
    print(f"PASS 8 determinism: two runs, archives byte-identical "
          f"({len(blob_a)} bytes)")


def test_c9_conll_counts_and_hand_scored_f1(tmp_path):
    """Parser reproduces constructed counts; F1 matches hand arithmetic."""
    # 50 sentences, lengths cycling 3..7: 10 * (3+4+5+6+7) = 250 tokens.
    # Tags B-NP, I-NP * (len-2), O per sentence: 50 B-NP, 150 I-NP, 50 O.
    lines = ["-DOCSTART- -X- O", ""]
    for i in range(50):
        length = 3 + i % 5
        tags = ["B-NP"] + ["I-NP"] * (length - 2) + ["O"]
        for j, tag in enumerate(tags):
            lines.append(f"tok{j} X {tag}")
        lines.append("")
    path = tmp_path / "fixture.conll"
    path.write_text("\n".join(lines))

    examples = parse_conll(str(path), token_col=0, tag_col=2)
    assert len(examples) == 50
    assert sum(len(ex.tokens) for ex in examples) == 250
    counts = {"B-NP": 0, "I-NP": 0, "O": 0}
    for ex in examples:
        for tag in ex.tags:
            counts[tag] += 1
    assert counts == {"B-NP": 50, "I-NP": 150, "O": 50}
    assert examples[0].tokens == ["tok0", "tok1", "tok2"]
    assert examples[1].tags == ["B-NP", "I-NP", "I-NP", "O"]

    # Gold spans: NP(0,2) VP(3,4) | NP(0,1) PP(2,4). Predicted spans:
    # NP(0,2) PP(3,4) | NP(0,2) PP(2,4). Matches: NP(0,2) and PP(2,4),
    # so precision = recall = 2/4 and F1 = 0.5 exactly.
    gold = [["B-NP", "I-NP", "O", "B-VP"], ["B-NP", "O", "B-PP", "I-PP"]]
    pred = [["B-NP", "I-NP", "O", "B-PP"], ["B-NP", "I-NP", "B-PP", "I-PP"]]
    assert chunk_f1(gold, pred) == 0.5

    # One chunk predicted, one of two gold chunks hit: precision 1,
    # recall 1/2, F1 = 2 * 0.5 / 1.5 = 2/3.
    gold2 = [["B-A", "I-A", "B-B", "O"]]
    pred2 = [["B-A", "I-A", "O", "O"]]
    assert chunk_f1(gold2, pred2) == 2 / 3
    print("PASS 9 format fidelity: 50 sentences, 250 tokens, tag counts "
          "exact; hand-scored F1 values 0.5 and 2/3 reproduced exactly")
