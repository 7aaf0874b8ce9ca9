#!/usr/bin/env python3
"""CN3 benchmark: tagging training, long-sentence serving, pair matching.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload train_tag_lstm --seed 1 \\
        --seconds 30 --trace 0

One process runs one workload. It makes its inputs from --seed, times
whole rounds of the workload for about --seconds seconds, checks the program's
outputs against computations made in this directory, and prints one JSON
object as its last line: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
same workload runs with every cn3 layer wrapped in spans (see tracer.py)
and the metrics are per layer; spans and the per-layer summary are
written under .perfbench_out/ in the current directory.
"""

import os

# Fixed before numpy loads. An inherited thread count makes the timings
# depend on the caller's environment, and with two BLAS threads on a
# shared two-core machine runs spread about three times wider than with
# one (see README.md).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import time  # noqa: E402

T0 = time.perf_counter()


def _since_process_start() -> float:
    """Seconds from this process's start until T0, read from /proc.

    Covers the interpreter's own start-up, which no clock inside the
    program can see; 0 where /proc is not available.
    """
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        since = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    since -= time.perf_counter() - T0
    return since if 0.0 <= since < 10.0 else 0.0


START_OFFSET = _since_process_start()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "cn3" / "__init__.py").is_file():
    sys.exit(f"perfbench: no cn3 sources under {SRC}; run from a checkout "
             "of the repository")
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from cn3 import archive, crf, data, training  # noqa: E402
from cn3.model import Cn3Model, ModelConfig  # noqa: E402
from tracer import Tracer  # noqa: E402

OUT_DIR = Path(".perfbench_out")
MIN_ROUNDS = 3          # per-request quartiles need a few serving rounds
MIN_SAMPLES = 200       # served latencies: p95 keeps ten samples beyond it
BATCH_SIZE = 8
BATCH_SEED = 0          # TrainConfig.seed: batch make-up is seed-independent
CHECK_SAMPLE = 4        # sentences compared layer by layer with a reference
FIT_EPOCHS = 5          # set-up training of the served model
COUNTED_REQUESTS = 8    # serving requests in a traced run's counted scope

END_TO_END = (("setup_s", "s"), ("examples_per_s", "examples/s"),
              ("latency_ms_p50", "ms"), ("latency_ms_p95", "ms"),
              ("heldout_score", "fraction"), ("peak_rss_mb", "MB"))

# name -> (unit, span name, how): "incl" is inclusive ms per example,
# "self" the layer's self ms per example, "call" ms per call.
SPAN_METRICS = {
    "core.run_stack_ms": ("ms", "core.run_stack", "incl"),
    "encoders.bilstm_ms": ("ms", "encoders.bilstm_context", "incl"),
    "encoders.chars_ms": ("ms", "encoders.encode_chars", "incl"),
    "encoders.edge_attrs_ms": ("ms", "encoders.assemble_edge_attrs", "incl"),
    "model.sentence_graph_ms": ("ms", "model.sentence_graph", "incl"),
    "autodiff.backward_ms": ("ms", "autodiff.backward", "incl"),
    "training.adadelta_step_ms": ("ms", "training.adadelta_step", "incl"),
    "crf.log_partition_ms": ("ms", "crf.log_partition", "incl"),
    "crf.viterbi_ms": ("ms", "crf.viterbi_decode", "incl"),
    "data.make_batches_ms": ("ms", "data.make_batches", "incl"),
    "heads.ms": ("ms", "heads", "self"),
    "encoders.self_ms": ("ms", "encoders", "self"),
    "embeddings.self_ms": ("ms", "embeddings", "self"),
    "model.self_ms": ("ms", "model", "self"),
    "crf.self_ms": ("ms", "crf", "self"),
    "archive.save_ms": ("ms", "archive.save_archive", "call"),
    "archive.load_ms": ("ms", "archive.load_archive", "call"),
}
COUNT_METRICS = {
    "core.pairs_scored": "count",
    "core.score_flops": "count",
    "core.pair_tensor_bytes": "bytes",
    "embeddings.lookup_calls": "count",
    "autodiff.tape_nodes_per_example": "count",
    "autodiff.grad_bytes_per_step": "bytes",
    "training.entries_updated_per_step": "count",
    "archive.bytes": "bytes",
    "traced_examples_per_s": "examples/s",
}

# Op ids for spans outside the timed operations.
SETUP, AFTER = -1, -2


class Bench:
    """State of one run: timing, counters, failures and the optional tracer."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 tracer: Tracer | None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, float] = {}
        self.setup_s = 0.0
        self.op = 0
        self.op_examples = 0       # examples in timed operations
        self.count_examples = 0    # examples in the counted scope
        self.count_inputs: list[tuple] = []  # (tokens, pos, edges) counted
        self.archive_path = OUT_DIR / f"{workload}.cn3"

    # -- phases --------------------------------------------------------

    def start_timing(self) -> None:
        """End of set-up: collect garbage, freeze survivors, note the time."""
        gc.collect()
        gc.freeze()
        self.setup_s = START_OFFSET + time.perf_counter() - T0

    def start_op(self, examples: int, counted_inputs=None) -> None:
        self.op += 1
        self.op_examples += examples
        counting = counted_inputs is not None
        if counting:
            self.count_examples += examples
            self.count_inputs.extend(counted_inputs)
        if self.tracer is not None:
            self.tracer.op = self.op
            self.tracer.counting = counting

    def pause(self, op: int) -> None:
        if self.tracer is not None:
            self.tracer.op = op
            self.tracer.counting = False

    def check(self, messages: list[str]) -> None:
        self.failures.extend(messages)

    # -- serving -------------------------------------------------------

    def serve(self, model, examples, counted: int = 0):
        """Predict one example at a time: one client, closed loop.

        Returns the predictions and each request's latency. The first
        `counted` requests are in a traced run's counted scope. A request
        that raises is counted as failed and has neither.
        """
        out, latencies = [], []
        for k, ex in enumerate(examples):
            self.start_op(1, sides(ex) if k < counted else None)
            self.attempted += 1
            started = time.perf_counter()
            try:
                out.append(model.predict(ex))
                latencies.append(time.perf_counter() - started)
            except Exception:  # a failed request is counted, not fatal
                traceback.print_exc()
                self.failed += 1
                out.append(None)
                latencies.append(None)
        return out, latencies

    def archive_round_trip(self, model) -> Cn3Model:
        """Save the model with archive, load it back, return the copy."""
        OUT_DIR.mkdir(exist_ok=True)
        archive.save_archive(model, str(self.archive_path))
        loaded = archive.load_archive(str(self.archive_path))
        self.archive_bytes = self.archive_path.stat().st_size
        return loaded

    # -- reporting -----------------------------------------------------

    def report_end_to_end(self, examples_per_s: float, latencies_ms,
                          heldout_score: float) -> None:
        self.metrics.update({
            "setup_s": self.setup_s,
            "examples_per_s": examples_per_s,
            "latency_ms_p50": statistics.median(latencies_ms),
            "latency_ms_p95": statistics.quantiles(latencies_ms, n=20)[18],
            "heldout_score": heldout_score,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        self.samples = len(latencies_ms)

    def report_layers(self, model) -> None:
        tr = self.tracer
        tr.uninstall()
        timed = set(range(1, self.op + 1))
        per_name = tr.self_times(timed)
        examples = max(self.op_examples, 1)
        every = tr.self_times({op for op in range(SETUP, AFTER - 1, -1)}
                              | timed)
        out = {}
        for name, (unit, span, how) in SPAN_METRICS.items():
            if how == "incl":
                total = per_name.get(span, (0.0, 0.0, 0))[0]
                out[name] = 1000.0 * total / examples
            elif how == "self":
                total = sum(row[1] for key, row in per_name.items()
                            if key.split(".")[0] == span)
                out[name] = 1000.0 * total / examples
            else:
                incl, _, calls = every.get(span, (0.0, 0.0, 0))
                out[name] = 1000.0 * incl / calls if calls else 0.0
        c = tr.counts
        counted = max(self.count_examples, 1)
        steps = c.get("steps", 0)
        out.update({
            "core.pairs_scored": c.get("pairs", 0),
            "core.score_flops": c.get("flops", 0),
            "core.pair_tensor_bytes": c.get("pair_bytes", 0),
            "embeddings.lookup_calls": c.get("lookups", 0) / counted,
            "autodiff.tape_nodes_per_example": (c.get("tape_nodes", 0)
                                                / counted),
            "autodiff.grad_bytes_per_step": (c.get("grad_bytes", 0) / steps
                                             if steps else 0),
            "training.entries_updated_per_step": (
                c.get("entries_updated", 0) / steps if steps else 0),
            "archive.bytes": getattr(self, "archive_bytes", 0),
            "traced_examples_per_s": self.metrics["examples_per_s"],
        })
        # The count must equal the attention shapes trace_for returns.
        expected = sum(
            alpha.shape[0] * alpha.shape[1]
            for tokens, pos, edges in self.count_inputs
            for alpha in model.trace_for(tokens, pos, edges).per_layer)
        if expected != out["core.pairs_scored"]:
            self.check([f"core.pairs_scored {out['core.pairs_scored']} != "
                        f"{expected} summed from trace_for"])
        OUT_DIR.mkdir(exist_ok=True)
        tr.write(OUT_DIR / f"spans-{self.workload}.jsonl")
        with open(OUT_DIR / f"layers-{self.workload}.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"seed": self.seed, "spans": len(tr.spans),
                       "metrics": out}, fh, indent=1, sort_keys=True)
        self.metrics = out

    def result(self) -> dict:
        units = (dict(END_TO_END) if self.tracer is None else
                 {**{k: v[0] for k, v in SPAN_METRICS.items()},
                  **COUNT_METRICS})
        return {"correct": not self.failures, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": self.metrics[name], "unit": unit}
                            for name, unit in units.items()}}


def sustained(seconds: list[float]) -> float:
    """The upper quartile of one operation's times over a run's rounds.

    The host's cores switch between a slow and a fast state for seconds
    to minutes at a time, and the fast state's share of a run varies
    from none to two thirds (README.md, Steadiness). A median reads
    whichever state held half the run; the upper quartile reads the slow
    state unless it held less than a quarter, and a stall of one round
    still moves it little.
    """
    return statistics.quantiles(seconds, n=4, method="inclusive")[2]


def time_left(round_s: list[float], seconds: float) -> bool:
    """Whether another whole round ends nearer to --seconds than stopping."""
    return sum(round_s) + (round_s[-1] / 2 if round_s else 0.0) < seconds


def sides(ex: data.LabeledExample):
    """The sentences of an example as trace_for arguments."""
    out = [(ex.tokens, ex.pos_tags, ex.dep_edges)]
    if ex.tokens_b:
        out.append((ex.tokens_b, ex.pos_tags_b, ex.dep_edges_b))
    return out


class StepClock:
    """Times each step of training.train's own loop from outside it.

    While entered, the make_batches that training.train iterates hands its
    batches out one at a time, and the time from one hand-out to the next
    is one step of train() as the program runs it: batch loss, backward,
    AdaDelta. Each hand-out also opens a benchmark operation, so a traced
    run files spans and counts under steps; the first epoch is the
    counted scope.
    """

    def __init__(self, bench: Bench):
        self.bench = bench
        # Per epoch, per step: (tokens in the batch, examples, seconds).
        self.epochs: list[list[tuple[int, int, float]]] = []

    def __enter__(self) -> "StepClock":
        self.original = training.make_batches
        training.make_batches = self.batches
        return self

    def __exit__(self, *exc) -> None:
        training.make_batches = self.original

    def batches(self, examples, batch_size: int, seed: int):
        counting = not self.epochs
        steps = []
        self.epochs.append(steps)
        self.bench.start_op(0, [] if counting else None)  # make_batches' op
        for batch in self.original(examples, batch_size, seed):
            self.bench.start_op(len(batch.examples),
                                [side for ex in batch.examples
                                 for side in sides(ex)] if counting else None)
            started = time.perf_counter()
            yield batch
            steps.append((sum(ex.size for ex in batch.examples),
                          len(batch.examples), time.perf_counter() - started))
            self.bench.attempted += len(batch.examples)
        self.bench.pause(AFTER)

    def step_ms(self) -> list[float]:
        return [1000.0 * t for steps in self.epochs for _, _, t in steps]

    def examples_per_s(self) -> float:
        """An epoch's examples over its sustained duration.

        make_batches sorts by length before it cuts batches, so every
        epoch has the same batches by size, in another order. The k-th
        smallest batch of each epoch fills slot k, and the slots'
        sustained times (see sustained) sum to one epoch.
        """
        slots = zip(*(sorted(steps) for steps in self.epochs))
        epoch_s = sum(sustained([t for _, _, t in slot]) for slot in slots)
        return sum(n for _, n, _ in self.epochs[0]) / epoch_s


# ---------------------------------------------------------------------------
# shared checks

def gradient_check(bench: Bench, model, examples) -> None:
    params = [t for _, t in model.params()]
    names = [name for name, _ in model.params()]
    batch = data.Batch(examples=list(examples),
                       indices=list(range(len(examples))))
    objective = lambda: training._batch_loss(model, batch)  # noqa: E731
    analytic = checks.analytic_gradients(objective, params)
    coords = checks.gradient_coords(analytic,
                                    np.random.default_rng(bench.seed))
    numeric = checks.central_differences(objective, params, coords)
    bench.check(checks.check_gradients(names, analytic, numeric, coords))
    groups = {name.split(".")[0] for name in names}
    if groups != set(model.param_groups()):
        bench.check([f"gradient check covered groups {sorted(groups)}"])


# ---------------------------------------------------------------------------
# workloads

def run_training(bench: Bench, model, train_set, heldout, epochs: int,
                 metric: str, chance: float) -> None:
    """Rounds of training.train, each `epochs` epochs, for --seconds.

    Throughput and step latency come from the steps of train()'s own loop
    (StepClock). heldout_score is training.evaluate on the held-out set
    after the first round: a fixed amount of training.
    """
    cfg = training.TrainConfig(epochs=epochs, batch_size=BATCH_SIZE,
                               seed=BATCH_SEED, metric=metric)
    bench.start_timing()
    histories, round_s = [], []
    with StepClock(bench) as clock:
        while not round_s or time_left(round_s, bench.seconds):
            started = time.perf_counter()
            histories.append(training.train(model, train_set, cfg))
            round_s.append(time.perf_counter() - started)
            if len(histories) == 1:
                held_score = training.evaluate(model, heldout, metric)
    bench.report_end_to_end(clock.examples_per_s(), clock.step_ms(),
                            held_score)

    losses = [record["train_loss"] for record in histories[0]]
    bench.check(checks.check_loss_decreased(losses[0], losses[-1]))
    bench.check(checks.check_heldout(held_score, chance))
    loaded = bench.archive_round_trip(model)
    if bench.tracer is not None:
        bench.report_layers(model)
    sample = heldout[:CHECK_SAMPLE]
    bench.check(checks.check_equal_predictions(
        [model.predict(ex) for ex in sample],
        [loaded.predict(ex) for ex in sample], "archive round trip"))
    gradient_check(bench, model,
                   sorted(train_set, key=lambda ex: ex.size)[:2])


def train_tag_lstm(bench: Bench) -> None:
    """CRF tagging training, lstm variant, published widths, 24k-word table."""
    bench.pause(SETUP)
    inputs = workloads.tag_train_inputs(bench.seed)
    model = Cn3Model(ModelConfig(task="tag", use_lstm=True),
                     inputs.vocab_corpus)
    run_training(bench, model, inputs.train, inputs.heldout, epochs=5,
                 metric="token_accuracy",
                 chance=workloads.majority_share(inputs.heldout))


def train_match_char(bench: Bench) -> None:
    """Pair matching with char, spell and dep attributes; small vocabulary."""
    bench.pause(SETUP)
    inputs = workloads.match_inputs(bench.seed)
    model = Cn3Model(ModelConfig(task="match", use_char=True, use_spell=True,
                                 use_dep=True), inputs.train)
    run_training(bench, model, inputs.train, inputs.heldout, epochs=8,
                 metric="accuracy", chance=0.5)


def infer_tag_long(bench: Bench) -> None:
    """Serve 40-160 token sentences from an archive-loaded tagging model."""
    bench.pause(SETUP)
    inputs = workloads.infer_inputs(bench.seed)
    fitted = Cn3Model(ModelConfig(task="tag", use_position=True,
                                  use_spell=True), inputs.fit)
    fit = training.train(fitted, inputs.fit, training.TrainConfig(
        epochs=FIT_EPOCHS, batch_size=BATCH_SIZE, seed=BATCH_SEED))
    model = bench.archive_round_trip(fitted)
    served = inputs.served

    bench.start_timing()
    rounds: list[list] = []       # predictions, one list per round
    latencies: list[list] = []    # seconds per request, one list per round
    round_s: list[float] = []
    while (time_left(round_s, bench.seconds)
           or len(rounds) < MIN_ROUNDS
           or len(rounds) * len(served) < MIN_SAMPLES):
        started = time.perf_counter()
        predicted, took = bench.serve(
            model, served, counted=0 if rounds else COUNTED_REQUESTS)
        round_s.append(time.perf_counter() - started)
        rounds.append(predicted)
        latencies.append(took)
    bench.pause(AFTER)
    # Every round serves the same requests, so each request has a
    # sustained time over the rounds; together they make one round.
    per_request = [sustained([t for t in col if t is not None])
                   for col in zip(*latencies)
                   if sum(t is not None for t in col) > 1]
    first = rounds[0]
    score = token_accuracy([ex.tags for ex in served], first)
    bench.report_end_to_end(
        len(per_request) / sum(per_request),
        [1000.0 * t for took in latencies for t in took if t is not None],
        score)
    if bench.tracer is not None:
        bench.report_layers(model)

    for r in rounds[1:]:
        bench.check(checks.check_equal_predictions(first, r, "repeated round"))
    chance = workloads.majority_share(served)
    bench.check(checks.check_heldout(score, chance))
    bench.check(checks.check_loss_decreased(fit[0]["train_loss"],
                                            fit[-1]["train_loss"]))
    by_len = sorted(range(len(served)), key=lambda i: len(served[i].tokens))
    sample = [by_len[0], by_len[1], by_len[len(by_len) // 2], by_len[-1]]
    for i, ex in enumerate(served):
        if first[i] is None:
            continue
        emit, ref_alphas = checks.reference_forward(model, ex.tokens)
        bench.check(checks.check_decode(first[i], emit, model.crf,
                                        model.labels))
        if i in sample:
            g = model.sentence_graph(ex.tokens)
            program = crf.emission_scores(model.encode(g)[0], model.crf).data
            bench.check(checks.check_emissions(program, emit))
            alphas = [a.data for a in model.trace_for(ex.tokens).per_layer]
            bench.check(checks.check_alphas(alphas, ref_alphas))
    short = [served[i] for i in by_len[:CHECK_SAMPLE]]
    bench.check(checks.check_equal_predictions(
        [fitted.predict(ex) for ex in short],
        [model.predict(ex) for ex in short], "archive round trip"))


def token_accuracy(gold, predicted) -> float:
    """Token accuracy that scores a failed request (None) as all wrong."""
    pairs = [(g, p) for gs, ps in zip(gold, predicted)
             for g, p in zip(gs, ps or [None] * len(gs))]
    return sum(g == p for g, p in pairs) / len(pairs)


WORKLOADS = {"train_tag_lstm": train_tag_lstm,
             "infer_tag_long": infer_tag_long,
             "train_match_char": train_match_char}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    bench = Bench(args.workload, args.seed, args.seconds, tracer)
    WORKLOADS[args.workload](bench)
    for message in bench.failures:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print(f"{args.workload}: {bench.attempted} operations, "
          f"{bench.samples} latency samples", file=sys.stderr)
    print(json.dumps(bench.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
