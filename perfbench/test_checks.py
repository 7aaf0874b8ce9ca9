"""The benchmark's own checks must reject wrong outputs.

Run from the repository root:  python3 -m pytest perfbench/test_checks.py

Each test feeds a check one correct output, which must pass, and one
output with a single planted fault, which must fail: a swapped tag in a
decoded sequence, a perturbed gradient coordinate, a tampered emission
row or attention column, a held-out score at chance.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from cn3 import crf  # noqa: E402
from cn3.model import Cn3Model, ModelConfig  # noqa: E402

SMALL = dict(d_word=8, d_h=8, d_a=8, d_pos=4, d_spell=3, d_rel=4,
             lstm_hidden=5, layers=2)


def _sentences(seed=0, count=6, lo=3, hi=9):
    rng = np.random.default_rng(seed)
    lex = workloads.Lexicon(60, rng, exponent=1.0)
    return [workloads.tag_sentence(lex, rng, n, capital_share=0.3)
            for n in workloads.stratified_lengths(count, lo, hi)]


@pytest.fixture(scope="module")
def served():
    sents = _sentences()
    model = Cn3Model(ModelConfig(task="tag", use_position=True,
                                 use_spell=True, seed=3, **SMALL), sents)
    rng = np.random.default_rng(5)
    for _, t in model.params():   # unit scale: distinct, non-flat outputs
        t.data[...] = rng.uniform(-1.0, 1.0, t.data.shape)
    return model, sents


def _program_emissions(model, tokens):
    g = model.sentence_graph(tokens)
    return crf.emission_scores(model.encode(g)[0], model.crf).data


def test_reference_emissions_match_and_a_tampered_row_fails(served):
    model, sents = served
    for ex in sents:
        program = _program_emissions(model, ex.tokens)
        reference, _ = checks.reference_forward(model, ex.tokens)
        assert checks.check_emissions(program, reference) == []
        tampered = program.copy()
        tampered[len(ex.tokens) // 2] += 1e-6
        assert checks.check_emissions(tampered, reference)


def test_attention_columns_and_a_tampered_column_fails(served):
    model, sents = served
    ex = sents[-1]
    alphas = [a.data for a in model.trace_for(ex.tokens).per_layer]
    _, reference = checks.reference_forward(model, ex.tokens)
    assert checks.check_alphas(alphas, reference) == []
    tampered = [a.copy() for a in alphas]
    tampered[1][0, 2] += 1e-3
    assert checks.check_alphas(tampered)
    assert checks.check_alphas(tampered, reference)


def test_decoder_agrees_and_a_swapped_tag_fails(served):
    model, sents = served
    for ex in sents:
        predicted = model.predict(ex)
        reference, _ = checks.reference_forward(model, ex.tokens)
        assert checks.check_decode(predicted, reference, model.crf,
                                   model.labels) == []
    ex, predicted = next((ex, p) for ex, p in
                         ((ex, model.predict(ex)) for ex in sents)
                         if len(set(p)) > 1)
    reference, _ = checks.reference_forward(model, ex.tokens)
    j = next(j for j in range(1, len(predicted))
             if predicted[j] != predicted[0])
    swapped = list(predicted)
    swapped[0], swapped[j] = swapped[j], swapped[0]
    assert checks.check_decode(swapped, reference, model.crf, model.labels)


def test_gradients_match_and_a_perturbed_coordinate_fails():
    sents = _sentences(seed=1, count=3, lo=3, hi=5)
    model = Cn3Model(ModelConfig(task="tag", use_lstm=True, seed=2, **SMALL),
                     sents)
    params = [t for _, t in model.params()]
    names = [name for name, _ in model.params()]

    def objective():
        total = model.loss_for(sents[0])
        for ex in sents[1:]:
            total = total + model.loss_for(ex)
        return total

    analytic = checks.analytic_gradients(objective, params)
    coords = checks.gradient_coords(analytic, np.random.default_rng(0))
    numeric = checks.central_differences(objective, params, coords)
    assert checks.check_gradients(names, analytic, numeric, coords) == []
    pi, flat_i = coords[0]
    perturbed = [g.copy() for g in analytic]
    perturbed[pi].reshape(-1)[flat_i] *= 1.001
    failures = checks.check_gradients(names, perturbed, numeric, coords)
    assert len(failures) == 1 and names[pi] in failures[0]


def test_central_difference_steps_off_a_kink():
    # f(x) = max(3x, x + 1e-5) has slope 1 at 0 and a kink at 5e-6,
    # inside the default step: one difference at 1e-5 reads 1.5.
    class Param:
        data = np.zeros(1)

    p = Param()
    objective = lambda: np.float64(max(3 * p.data[0],  # noqa: E731
                                       p.data[0] + 1e-5))
    assert checks.central_differences(objective, [p], [(0, 0)],
                                      refinements=0) == [pytest.approx(1.5)]
    numeric = checks.central_differences(objective, [p], [(0, 0)])
    assert checks.check_gradients(["x"], [np.ones(1)], numeric, [(0, 0)]) == []
    assert checks.check_gradients(["x"], [np.full(1, 1.001)], numeric,
                                  [(0, 0)])
    assert p.data[0] == 0.0


def test_heldout_at_chance_fails():
    sents = _sentences(seed=2, count=20)
    chance = workloads.majority_share(sents)
    assert checks.check_heldout(chance, chance)
    assert checks.check_heldout(chance + checks.HELDOUT_MARGIN, chance)
    assert checks.check_heldout(chance + 0.2, chance) == []


def test_loss_that_did_not_fall_fails():
    assert checks.check_loss_decreased(2.0, 1.0) == []
    assert checks.check_loss_decreased(2.0, 2.0)


def test_archive_mismatch_is_reported():
    assert checks.check_equal_predictions(["a", "b"], ["a", "b"], "x") == []
    assert checks.check_equal_predictions(["a", "b"], ["a", "c"], "x")


def test_inputs_repeat_for_a_seed_and_change_with_it():
    a = workloads.match_inputs(4, n_train=6, n_heldout=4)
    b = workloads.match_inputs(4, n_train=6, n_heldout=4)
    c = workloads.match_inputs(5, n_train=6, n_heldout=4)
    assert [ex.tokens for ex in a.train] == [ex.tokens for ex in b.train]
    assert [ex.tokens for ex in a.train] != [ex.tokens for ex in c.train]
    assert ([len(ex.tokens) for ex in a.train]
            == [len(ex.tokens) for ex in c.train])
    tag = workloads.tag_train_inputs(4, vocab_types=500, n_train=8,
                                     n_heldout=4)
    words = {t.lower() for ex in tag.vocab_corpus for t in ex.tokens}
    assert len(words) == 500
