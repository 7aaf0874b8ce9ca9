"""Optimizer, metrics, and training-loop behaviour."""

import math

import numpy as np
import pytest

from cn3 import autodiff as ad
from cn3 import training as tr
from cn3.autodiff import NumericError, Tensor
from cn3.data import CLASSIFICATION, LabeledExample
from cn3.model import Cn3Model, ModelConfig
from cn3.synthetic import keyword_classification
from corpora import case_tagging


def named(t):
    return [("x", t)]


class TestAdaDelta:
    def test_zero_grad_leaves_value_decays_accumulators(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        st = tr.AdaDeltaState.for_params(named(x))
        st.sq_grad["x"][:] = 4.0
        x.grad = np.zeros(2)
        tr.adadelta_step(named(x), st)
        np.testing.assert_array_equal(x.data, [1.0, 2.0])
        np.testing.assert_allclose(st.sq_grad["x"], 0.95 * 4.0)

    def test_first_step_closed_form(self):
        # fresh accumulators: dx = -g * sqrt(eps) / sqrt((1-rho) g^2 + eps)
        g = 3.0
        x = Tensor([0.0], requires_grad=True)
        x.grad = np.array([g])
        st = tr.AdaDeltaState.for_params(named(x))
        tr.adadelta_step(named(x), st)
        expected = -g * math.sqrt(st.eps) / math.sqrt((1 - st.rho) * g * g + st.eps)
        np.testing.assert_allclose(x.data, [expected], rtol=1e-12)

    def test_descends_quadratic(self):
        x = Tensor([5.0], requires_grad=True)
        st = tr.AdaDeltaState.for_params(named(x))
        values = []
        for _ in range(100):
            x.grad = 2.0 * x.data.copy()
            tr.adadelta_step(named(x), st)
            values.append(float(x.data[0] ** 2))
        assert values[-1] < 25.0
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_nan_grad_names_parameter(self):
        x = Tensor([1.0], requires_grad=True)
        x.grad = np.array([float("nan")])
        st = tr.AdaDeltaState.for_params(named(x))
        with pytest.raises(NumericError, match="x"):
            tr.adadelta_step(named(x), st)

    def test_missing_grad_treated_as_zero(self):
        x = Tensor([1.0], requires_grad=True)
        x.grad = None
        st = tr.AdaDeltaState.for_params(named(x))
        tr.adadelta_step(named(x), st)
        np.testing.assert_array_equal(x.data, [1.0])

    def test_state_shapes_mirror_params(self):
        a = Tensor(np.zeros((2, 3)), requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)
        st = tr.AdaDeltaState.for_params([("a", a), ("b", b)])
        assert st.sq_grad["a"].shape == (2, 3)
        assert st.sq_update["b"].shape == (4,)

    def test_clip_rescales_large_gradients(self):
        x = Tensor([0.0], requires_grad=True)
        y = Tensor([0.0], requires_grad=True)
        x.grad = np.array([30.0])
        y.grad = np.array([40.0])  # global norm 50, clip to 5: scale 0.1
        st = tr.AdaDeltaState.for_params([("x", x), ("y", y)])
        tr.adadelta_step([("x", x), ("y", y)], st, clip_norm=5.0)
        np.testing.assert_allclose(st.sq_grad["x"], 0.05 * 3.0 ** 2)
        np.testing.assert_allclose(st.sq_grad["y"], 0.05 * 4.0 ** 2)

    def test_global_grad_norm(self):
        x = Tensor([0.0], requires_grad=True)
        y = Tensor([0.0], requires_grad=True)
        x.grad = np.array([3.0])
        y.grad = np.array([4.0])
        assert tr.global_grad_norm([("x", x), ("y", y)]) == pytest.approx(5.0)


class TestChunks:
    def test_simple_spans(self):
        tags = ["B-NP", "I-NP", "O", "B-VP"]
        assert tr.extract_chunks(tags) == {("NP", 0, 2), ("VP", 3, 4)}

    def test_adjacent_chunks_same_type(self):
        tags = ["B-NP", "B-NP", "I-NP"]
        assert tr.extract_chunks(tags) == {("NP", 0, 1), ("NP", 1, 3)}

    def test_stray_inside_starts_chunk(self):
        # conlleval convention: I-X with no running X chunk opens one
        assert tr.extract_chunks(["O", "I-NP", "I-NP"]) == {("NP", 1, 3)}

    def test_type_change_inside(self):
        assert tr.extract_chunks(["B-NP", "I-VP"]) == {("NP", 0, 1), ("VP", 1, 2)}

    def test_all_outside(self):
        assert tr.extract_chunks(["O", "O"]) == set()

    def test_chunk_f1_exact_match(self):
        gold = [["B-NP", "I-NP", "O"]]
        assert tr.chunk_f1(gold, gold) == 1.0

    def test_partial_span_scores_zero(self):
        gold = [["B-NP", "I-NP", "O"]]
        pred = [["B-NP", "O", "O"]]
        assert tr.chunk_f1(gold, pred) == 0.0
        assert tr.token_accuracy(gold, pred) == pytest.approx(2 / 3)

    def test_micro_average_over_corpus(self):
        gold = [["B-NP", "O"], ["B-VP", "O"]]
        pred = [["B-NP", "O"], ["O", "O"]]
        # precision 1/1, recall 1/2 -> F1 = 2/3
        assert tr.chunk_f1(gold, pred) == pytest.approx(2 / 3)

    def test_no_chunks_anywhere_is_perfect(self):
        assert tr.chunk_f1([["O", "O"]], [["O", "O"]]) == 1.0

    def test_missed_all_chunks_is_zero(self):
        assert tr.chunk_f1([["B-NP"]], [["O"]]) == 0.0

    def test_token_accuracy_length_mismatch(self):
        with pytest.raises(ValueError):
            tr.token_accuracy([["O", "O"]], [["O"]])


class _StubModel:
    """Minimal train()-compatible model with a scripted dev metric."""

    def __init__(self, metric_by_epoch):
        self.x = Tensor([1.0], requires_grad=True)
        self.metric_by_epoch = metric_by_epoch
        self.eval_calls = 0

    def params(self):
        return [("x", self.x)]

    def snapshot(self):
        return {"x": self.x.data.copy()}

    def restore(self, snap):
        self.x.data[:] = snap["x"]

    def loss_for(self, ex):
        return ad.sum_all(ad.mul(self.x, self.x))

    def predict(self, ex):
        metric = self.metric_by_epoch[min(self.eval_calls // 100,
                                          len(self.metric_by_epoch) - 1)]
        raise AssertionError("predict unused; evaluate is patched in tests")


def balanced_examples(n):
    return [LabeledExample(kind=CLASSIFICATION, tokens=["t"],
                           label="a" if i % 2 else "b") for i in range(n)]


class TestEvaluate:
    def test_classification_accuracy_counts(self):
        m = Cn3Model(ModelConfig(task="classify", layers=0, d_word=3, d_h=3,
                                 d_a=2, seed=0),
                     keyword_classification(n=4, seed=0))
        data = keyword_classification(n=4, seed=0)
        acc = tr.evaluate(m, data, "accuracy")
        hits = sum(m.predict(ex) == ex.label for ex in data)
        assert acc == pytest.approx(hits / 4)

    def test_classification_empty_rejected(self):
        m = Cn3Model(ModelConfig(task="classify", layers=0, d_word=3, d_h=3,
                                 d_a=2, seed=0),
                     keyword_classification(n=4, seed=0))
        with pytest.raises(ValueError):
            tr.evaluate(m, [], "accuracy")

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="metric"):
            tr.TrainConfig(metric="bleu")
        data = keyword_classification(n=4, seed=0)
        m = Cn3Model(ModelConfig(task="classify", layers=0, d_word=3, d_h=3,
                                 d_a=2, seed=0), data)
        with pytest.raises(ValueError, match="metric must be one of"):
            tr.evaluate(m, data, "bleu")

    def test_metric_must_fit_the_examples(self):
        tagged, _ = case_tagging(n_train=4, n_test=1, seed=0)
        m = Cn3Model(ModelConfig(task="tag", layers=0, d_word=3, d_h=3,
                                 d_a=2, seed=0), tagged)
        with pytest.raises(ValueError, match="does not apply to tagging"):
            tr.evaluate(m, tagged, "accuracy")
        labelled = keyword_classification(n=4, seed=0)
        with pytest.raises(ValueError, match="does not apply to classification"):
            tr.evaluate(m, labelled, "token_accuracy")
        # examples and metric agree, but a tag model cannot be scored by
        # accuracy: comparing tag lists with labels would read 0.0
        with pytest.raises(ValueError, match="does not apply to the 'tag'"):
            tr.evaluate(m, labelled, "accuracy")


def poison_after_first_step(monkeypatch):
    """Make every AdaDelta step leave layer 0's u[0] infinite."""
    real = tr.adadelta_step

    def step(params, state, clip_norm=None):
        real(params, state, clip_norm=clip_norm)
        dict(params)["stack.layer0.u"].data[0] = np.inf

    monkeypatch.setattr(tr, "adadelta_step", step)


def dense_adadelta_step(params, sq_grad, sq_update, clip_norm=None):
    """Reference: Zeiler's update on every entry of every parameter."""
    rho, eps = tr.RHO_DEFAULT, tr.EPS_DEFAULT
    scale = 1.0
    if clip_norm is not None:
        norm = tr.global_grad_norm(params)
        if norm > clip_norm:
            scale = clip_norm / norm
    for name, t in params:
        g = np.zeros_like(t.data) if t.grad is None else t.grad * scale
        eg, ex = sq_grad[name], sq_update[name]
        eg *= rho
        eg += (1.0 - rho) * g * g
        delta = -np.sqrt(ex + eps) / np.sqrt(eg + eps) * g
        ex *= rho
        ex += (1.0 - rho) * delta * delta
        t.data += delta


def table_params(seed=0):
    """A 30-row table, a 2-D weight and a bias, as (name, Tensor) pairs."""
    rng = np.random.default_rng(seed)
    return [("emb.table", Tensor(rng.standard_normal((30, 4)), requires_grad=True)),
            ("layer.w", Tensor(rng.standard_normal((3, 5)), requires_grad=True)),
            ("layer.b", Tensor(rng.standard_normal(5), requires_grad=True))]


def lookup_grads(params, ids, rng, gain=1.0):
    """Gradients as a lookup of `ids` leaves them: rows summed, repeats added."""
    (_, table), (_, w), (_, b) = params
    table.grad = np.zeros_like(table.data)
    np.add.at(table.grad, ids, gain * rng.standard_normal((len(ids), 4)))
    w.grad = gain * rng.standard_normal(w.data.shape)
    b.grad = gain * rng.standard_normal(b.data.shape)


class TestLazyAdaDelta:
    @pytest.mark.parametrize("clip_norm", [None, 20.0])
    def test_matches_dense_reference(self, clip_norm):
        lazy, dense = table_params(), table_params()
        st = tr.AdaDeltaState.for_params(lazy)
        sq_grad = {n: np.zeros_like(t.data) for n, t in dense}
        sq_update = {n: np.zeros_like(t.data) for n, t in dense}
        rng = np.random.default_rng(1)
        for step in range(61):
            if step == 60:
                ids = np.arange(30)  # the last step touches every row
            elif step < 3:
                ids = rng.integers(0, 30, 12)
            else:
                # rows 20-29 stay untouched from step 3 until the last step
                ids = rng.integers(0, 20, 8)
                ids[:3] = ids[3]  # a repeated id
            gain = 10.0 if step % 7 == 0 else 1.0  # steps a clip of 20 acts on
            for params in (lazy, dense):
                lookup_grads(params, ids, np.random.default_rng([step, 2]),
                             gain)
                if step == 30:  # an all-zero step
                    for _, t in params:
                        t.grad = np.zeros_like(t.data)
            tr.adadelta_step(lazy, st, clip_norm=clip_norm)
            dense_adadelta_step(dense, sq_grad, sq_update, clip_norm=clip_norm)
            for (name, a), (_, b) in zip(lazy, dense):
                np.testing.assert_allclose(a.data, b.data, rtol=1e-12,
                                           atol=0, err_msg=name)
        for name, _ in lazy:
            np.testing.assert_allclose(st.sq_grad[name], sq_grad[name],
                                       rtol=1e-12, atol=0, err_msg=name)
            np.testing.assert_allclose(st.sq_update[name], sq_update[name],
                                       rtol=1e-12, atol=0, err_msg=name)
        assert st.step == 61

    def test_every_row_touched_is_bitwise_dense(self):
        lazy, dense = table_params(), table_params()
        st = tr.AdaDeltaState.for_params(lazy)
        sq_grad = {n: np.zeros_like(t.data) for n, t in dense}
        sq_update = {n: np.zeros_like(t.data) for n, t in dense}
        for step in range(20):
            for params in (lazy, dense):
                rng = np.random.default_rng(step)
                for _, t in params:
                    t.grad = rng.standard_normal(t.data.shape)
            # Every row of both 2-D parameters is touched, so the step
            # runs on the whole arrays, not on gathered rows.
            for name, t in lazy[:2]:
                assert tr._touched(name, t, st)[0] == slice(None)
            tr.adadelta_step(lazy, st, clip_norm=3.0)
            dense_adadelta_step(dense, sq_grad, sq_update, clip_norm=3.0)
        for (name, a), (_, b) in zip(lazy, dense):
            assert a.data.tobytes() == b.data.tobytes()
            assert st.sq_grad[name].tobytes() == sq_grad[name].tobytes()
            assert st.sq_update[name].tobytes() == sq_update[name].tobytes()

    def test_untouched_rows_bitwise_unchanged(self):
        params = table_params()
        st = tr.AdaDeltaState.for_params(params)
        rng = np.random.default_rng(3)
        for _ in range(5):
            lookup_grads(params, rng.integers(0, 30, 40), rng)
            tr.adadelta_step(params, st)
        table = params[0][1]
        before = [table.data.copy(), st.sq_grad["emb.table"].copy(),
                  st.sq_update["emb.table"].copy()]
        lookup_grads(params, np.array([1, 3, 3]), rng)
        tr.adadelta_step(params, st)
        after = [table.data, st.sq_grad["emb.table"], st.sq_update["emb.table"]]
        untouched = np.setdiff1d(np.arange(30), [1, 3])
        for old, new in zip(before, after):
            assert old[untouched].tobytes() == new[untouched].tobytes()
            assert not np.array_equal(old[[1, 3]], new[[1, 3]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_table_row_names_parameter(self, bad):
        params = table_params()
        st = tr.AdaDeltaState.for_params(params)
        lookup_grads(params, np.array([2, 5]), np.random.default_rng(4))
        params[0][1].grad[7, 1] = bad
        before = [t.data.copy() for _, t in params]
        with pytest.raises(NumericError, match="emb.table"):
            tr.adadelta_step(params, st)
        assert all(b.tobytes() == t.data.tobytes()
                   for b, (_, t) in zip(before, params))

    def test_state_keeps_full_shape_arrays_by_name(self):
        # perfbench's tracer reads sq_grad / sq_update by parameter name at
        # the parameter's shape to count the entries a step changes.
        params = table_params() + [("s", Tensor(1.5, requires_grad=True))]
        st = tr.AdaDeltaState.for_params(params)
        rng = np.random.default_rng(5)
        for _ in range(3):
            lookup_grads(params[:3], np.array([0, 4]), rng)
            params[3][1].grad = np.array(0.5)
            tr.adadelta_step(params, st)
        names = [name for name, _ in params]
        for acc in (st.sq_grad, st.sq_update):
            assert list(acc) == names
            for name, t in params:
                assert acc[name].shape == t.data.shape
                assert acc[name].dtype == np.float64


def tiny_train_cfg(**overrides):
    base = dict(epochs=2, batch_size=2, seed=0)
    base.update(overrides)
    return tr.TrainConfig(**base)


class TestTrainLoop:
    def test_history_one_row_per_epoch(self):
        data = keyword_classification(n=6, seed=0)
        m = Cn3Model(ModelConfig(task="classify", layers=1, d_word=4, d_h=4,
                                 d_a=3, seed=0), data)
        hist = tr.train(m, data, tiny_train_cfg(epochs=3))
        assert len(hist) == 3
        assert [h["epoch"] for h in hist] == [0, 1, 2]
        assert all(np.isfinite(h["train_loss"]) for h in hist)
        assert all(h["dev_metric"] is None for h in hist)
        assert all(h["wall_time"] >= 0.0 for h in hist)

    def test_history_counts_steps_and_throughput(self):
        data = keyword_classification(n=7, seed=0)
        m = Cn3Model(ModelConfig(task="classify", layers=1, d_word=4, d_h=4,
                                 d_a=3, seed=0), data)
        hist = tr.train(m, data, tiny_train_cfg(epochs=2, batch_size=3),
                        dev_data=data)
        for h in hist:
            assert h["steps"] == 3  # 7 examples in batches of 3
            assert h["examples_per_s"] == pytest.approx(7 / h["wall_time"])

    def test_training_is_bit_deterministic(self):
        def run():
            data = keyword_classification(n=6, seed=0)
            m = Cn3Model(ModelConfig(task="classify", layers=1, d_word=4,
                                     d_h=4, d_a=3, seed=0), data)
            tr.train(m, data, tiny_train_cfg(epochs=2))
            return m.snapshot()

        a, b = run(), run()
        assert all(a[k].tobytes() == b[k].tobytes() for k in a)

    def test_loss_mostly_decreases_on_repeated_batch(self):
        data = keyword_classification(n=4, seed=0)
        m = Cn3Model(ModelConfig(task="classify", layers=1, d_word=4, d_h=4,
                                 d_a=3, seed=0), data)
        hist = tr.train(m, data, tiny_train_cfg(epochs=50, batch_size=4))
        losses = [h["train_loss"] for h in hist]
        increases = sum(b > a for a, b in zip(losses, losses[1:]))
        assert increases <= 3
        assert losses[-1] < losses[0]

    def test_divergence_restores_and_raises(self):
        data = keyword_classification(n=4, seed=0)
        m = Cn3Model(ModelConfig(task="classify", layers=1, d_word=4, d_h=4,
                                 d_a=3, seed=0), data)
        before = m.snapshot()
        real = m.loss_for

        def poisoned(ex):
            out = real(ex)
            out.data = np.array(float("nan"))
            return out

        m.loss_for = poisoned
        with pytest.raises(tr.TrainingDiverged):
            tr.train(m, data, tiny_train_cfg(epochs=2))
        after = m.snapshot()
        assert all(before[k].tobytes() == after[k].tobytes() for k in before)

    def test_nan_emission_weight_diverges(self):
        # A NaN CRF weight makes one emission column NaN at every position;
        # the CRF loss must come out non-finite, so that train() stops
        # before any step.
        tagged, _ = case_tagging(n_train=4, n_test=1, seed=0)
        m = Cn3Model(ModelConfig(task="tag", layers=1, d_word=4, d_h=4,
                                 d_a=3, seed=0), tagged)
        m.crf.w_emit.data[0, 0] = np.nan
        before = m.snapshot()
        with pytest.raises(tr.TrainingDiverged, match="non-finite loss") as err:
            tr.train(m, tagged, tiny_train_cfg(metric="token_accuracy"))
        assert err.value.history == []
        after = m.snapshot()
        assert all(before[k].tobytes() == after[k].tobytes() for k in before)

    def test_numeric_error_restores_and_raises(self, monkeypatch):
        # A weight poisoned after the first step makes the next batch's
        # softmax raise NumericError; train() must treat that as divergence.
        data = keyword_classification(n=4, seed=0)
        m = Cn3Model(ModelConfig(task="classify", layers=1, d_word=4, d_h=4,
                                 d_a=3, seed=0), data)
        before = m.snapshot()
        poison_after_first_step(monkeypatch)
        with pytest.raises(tr.TrainingDiverged, match="non-finite"):
            tr.train(m, data, tiny_train_cfg(epochs=2))
        after = m.snapshot()
        assert all(before[k].tobytes() == after[k].tobytes() for k in before)

    def test_dev_selection_restores_best(self):
        data = keyword_classification(n=10, seed=0)
        m = Cn3Model(ModelConfig(task="classify", layers=1, d_word=4, d_h=4,
                                 d_a=3, seed=0), data)
        hist = tr.train(m, data, tiny_train_cfg(epochs=5), dev_data=data)
        best = max(h["dev_metric"] for h in hist)
        assert tr.evaluate(m, data, "accuracy") == pytest.approx(best)

    def test_patience_stops_early(self, monkeypatch):
        scripted = iter([0.9, 0.5, 0.5, 0.5, 0.5, 0.5])
        monkeypatch.setattr(tr, "evaluate",
                            lambda model, examples, metric: next(scripted))
        stub = _StubModel([])
        dev = balanced_examples(2)
        hist = tr.train(stub, balanced_examples(4),
                        tiny_train_cfg(epochs=6, patience=2), dev_data=dev)
        # epoch 0 improves; epochs 1-2 do not -> stop after epoch 2
        assert len(hist) == 3

    def test_patience_zero_runs_all_epochs(self, monkeypatch):
        monkeypatch.setattr(tr, "evaluate",
                            lambda model, examples, metric: 0.5)
        stub = _StubModel([])
        hist = tr.train(stub, balanced_examples(4),
                        tiny_train_cfg(epochs=4, patience=0),
                        dev_data=balanced_examples(2))
        assert len(hist) == 4

    def test_epoch_seed_varies_batch_order(self):
        seeds = {tr._epoch_seed(7, e) for e in range(10)}
        assert len(seeds) == 10

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            tr.TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            tr.TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            tr.TrainConfig(patience=-1)

    @pytest.mark.parametrize("field,value", [
        ("clip_norm", -1.0), ("clip_norm", 0.0), ("clip_norm", math.nan),
        ("rho", 0.0), ("rho", 1.0), ("rho", 1.5), ("rho", math.nan),
        ("eps", 0.0), ("eps", -1e-6), ("eps", math.nan)])
    def test_nonsensical_optimizer_rejected(self, field, value):
        # a negative clip_norm flips the update's sign: training climbs the loss
        with pytest.raises(ValueError, match=field):
            tr.TrainConfig(**{field: value})

    def test_sensible_optimizer_accepted(self):
        cfg = tr.TrainConfig(clip_norm=5.0, rho=0.5, eps=1e-8)
        assert (cfg.clip_norm, cfg.rho, cfg.eps) == (5.0, 0.5, 1e-8)
        assert tr.TrainConfig(clip_norm=None).clip_norm is None
