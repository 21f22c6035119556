"""Time-bounded measurement of one workload through the ``fbsplit`` CLI.

The CLI runs in this process: ``fbsplit.cli.main`` is called with the
workload's argument list, its table output captured.  Each repetition
writes into a fresh output directory that is checked and then deleted (see
NOTES.md for why output is never rewritten in place).

An untraced run reports the end-to-end metrics.  A traced run alternates
untraced and traced repetitions of the same command and reports the
per-layer metrics from the traced ones.
"""

import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import fbsplit
from fbsplit import cli
from fbsplit.bench import ExperimentConfig

import gate
from tracer import ROOT, STEP_SPANS, Tracer, instrument

# share of the run spent sampling set-up before the timed commands
SETUP_SHARE = 0.15
SETUP_MIN_SAMPLES = 5
SETUP_MAX_SAMPLES = 400
# fewest repetitions of the command: two, so byte identity is checked
MIN_REPS = 2
# a traced run must spend at least this share of its wall time inside the
# spans of named layers (see layer_metrics)
MIN_COVERAGE = 0.9

PRODUCT_METHODS = ("pd", "flag", "ffb", "ffb_xi", "fbs", "fast_km", "crifba",
                   "lorenz_pock", "moudafi_oliny", "relaxed_inertial")


@dataclass
class Metric:
    value: float
    unit: str
    samples: int


@dataclass
class Rep:
    wall: float
    traced: bool
    outcome: gate.Outcome


@dataclass
class Result:
    metrics: dict
    reps: list
    notes: list = field(default_factory=list)   # consistency failures

    @property
    def attempted(self):
        return len(self.reps)

    @property
    def failed(self):
        return sum(not r.outcome.ok for r in self.reps)

    @property
    def correct(self):
        return self.failed == 0 and not self.notes


class Runner:
    """Runs repetitions of one workload at one seed under ``work_dir``."""

    def __init__(self, workload, seed, work_dir, expected_rows=None):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.expected_rows = expected_rows
        self.reps = []
        self._digest = None
        self.config_path = None
        contents = workload.config_file()
        if contents is not None:
            self.config_path = work_dir / "config.json"
            self.config_path.write_text(json.dumps(contents))

    def setup_sample(self):
        """Seconds to build every run's problem, step sizes and initial
        state, as ``compare`` does once per method."""
        m, p, n = self.workload.size
        total = 0.0
        for spec in self.workload.method_specs():
            config = ExperimentConfig(m=m, p=p, n=n, seed=self.seed, iters=1,
                                      checkpoints=[], **spec)
            t0 = time.perf_counter()
            fbsplit.bench.run_experiment(config)
            total += time.perf_counter() - t0
        return total

    def rep(self, tracer=None):
        out_dir = self.work_dir / f"rep{len(self.reps) + 1}"
        argv = self.workload.argv(self.seed, out_dir, self.config_path)
        sink = io.StringIO()
        with contextlib.ExitStack() as stack:
            main = cli.main
            if tracer is not None:
                stack.enter_context(instrument(tracer, fbsplit))
                main = tracer.wrap(ROOT, cli.main)
            stack.enter_context(contextlib.redirect_stdout(sink))
            t0 = time.perf_counter()
            try:
                code = main(argv)
            except Exception:  # a crash is a failed repetition, not a crash of the benchmark
                traceback.print_exc(file=sys.stderr)
                code = None
            wall = time.perf_counter() - t0
        outcome = gate.check(self.workload, out_dir, code, self.expected_rows)
        if self._digest is None:
            self._digest = outcome.digest
        elif outcome.digest != self._digest:
            outcome.problems.append("output differs from repetition 1")
        shutil.rmtree(out_dir, ignore_errors=True)
        for problem in outcome.problems:
            print(f"rep {len(self.reps) + 1}: {problem}", file=sys.stderr)
        rep = Rep(wall=wall, traced=tracer is not None, outcome=outcome)
        self.reps.append(rep)
        return rep


def measure(runner, seconds):
    """End-to-end metrics within about ``seconds`` of wall time."""
    start = time.perf_counter()
    setup = []
    while len(setup) < SETUP_MAX_SAMPLES and (
            len(setup) < SETUP_MIN_SAMPLES
            or time.perf_counter() - start < SETUP_SHARE * seconds):
        setup.append(runner.setup_sample())
    deadline = start + seconds
    while True:
        rep = runner.rep()
        if len(runner.reps) >= MIN_REPS and time.perf_counter() + rep.wall > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ips = [r.outcome.iterations / r.wall for r in runner.reps]
    n = len(runner.reps)
    passed = sum(r.outcome.ok for r in runner.reps)
    metrics = {
        "iters_per_s": Metric(statistics.median(ips), "1/s", len(ips)),
        "setup_s": Metric(statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": Metric(peak_rss_mb, "MB", 1),
        "pass_frac": Metric(passed / n, "frac", n),
    }
    return Result(metrics=metrics, reps=runner.reps)


def measure_traced(runner, seconds):
    """Per-layer metrics: untraced and traced repetitions alternate until
    about ``seconds`` have passed; at least one of each."""
    deadline = time.perf_counter() + seconds
    tracer = Tracer()
    while True:
        plain = runner.rep()
        traced = runner.rep(tracer)
        if time.perf_counter() + plain.wall + traced.wall > deadline:
            break
    traced_reps = [r for r in runner.reps if r.traced]
    plain_reps = [r for r in runner.reps if not r.traced]
    metrics, notes = layer_metrics(tracer, traced_reps, plain_reps)
    return Result(metrics=metrics, reps=runner.reps, notes=notes)


def layer_metrics(tracer, traced_reps, plain_reps):
    """Per-layer metrics from the tracer's spans over ``traced_reps``.

    Times per call are in us; ``.s`` metrics and counts are per command.
    ``calls_per_iter`` counts every call (set-up, steps and checkpoints) per
    solver iteration; ``products_per_iter.<method>`` counts only the
    products made inside that method's steps.
    """
    n = len(traced_reps)
    iters = sum(r.outcome.iterations for r in traced_reps)
    sel = tracer.select
    metrics = {}

    def per_call(key, name, self_time=False):
        node = sel(name)
        ns = node.self_ns if self_time else node.total_ns
        metrics[key] = Metric(ns / node.calls / 1e3 if node.calls else 0.0,
                              "us", node.calls)

    def per_command_s(key, ns, calls):
        metrics[key] = Metric(ns / n / 1e9, "s", calls)

    def calls_per_iter(name):
        node = sel(name)
        metrics[f"{name}.calls_per_iter"] = Metric(node.calls / iters if iters else 0.0,
                                                   "count", node.calls)

    per_call("linalg.apply.us", "linalg.apply")
    per_call("linalg.adjoint_apply.us", "linalg.adjoint_apply")
    for method in PRODUCT_METHODS:
        calls = products = 0
        for name in STEP_SPANS:
            node = sel(name, method)
            calls += node.calls
            products += node.products
        metrics[f"linalg.products_per_iter.{method}"] = Metric(
            products / calls if calls else 0.0, "count", calls)
    norm = sel("linalg.operator_norm")
    per_command_s("linalg.operator_norm.s", norm.total_ns, norm.calls)
    metrics["linalg.operator_norm.products"] = Metric(norm.products / n, "count", norm.calls)

    # self times: the products of the gradient, the projection and the
    # build (its operator norm) are linalg's
    per_call("operators.gradient.us", "operators.gradient", self_time=True)
    calls_per_iter("operators.gradient")
    per_call("operators.prox_l1.us", "operators.prox_l1")
    calls_per_iter("operators.prox_l1")
    per_call("operators.project.us", "operators.project", self_time=True)
    calls_per_iter("operators.project")
    build = sel("operators.build")
    per_command_s("operators.build.s", build.self_ns, build.calls)

    for name in ("primal_dual.pd_step", "primal_dual.flag_step", "ffb.step",
                 "baselines.step"):
        per_call(f"{name}.self_us", name, self_time=True)
    per_call("primal_dual.certificate_residual.us", "primal_dual.certificate_residual")
    per_call("ffb.residual.us", "ffb.residual")

    measure_node = sel("bench.measure")
    per_call("bench.measure.us", "bench.measure")
    metrics["bench.measure.products"] = Metric(
        measure_node.products / measure_node.calls if measure_node.calls else 0.0,
        "count", measure_node.calls)
    metrics["bench.checkpoints"] = Metric(measure_node.calls / n, "count",
                                          measure_node.calls)
    loop = sel("bench.run")
    per_command_s("bench.loop.self_s", loop.self_ns, loop.calls)
    emit = sel("bench.emit")
    per_command_s("bench.emit.s", emit.total_ns, emit.calls)
    metrics["bench.emit.bytes"] = Metric(
        sum(r.outcome.bytes for r in traced_reps) / n, "bytes", n)
    gen = sel("bench.generate_problem")
    per_command_s("bench.generate_problem.s", gen.total_ns, gen.calls)
    root = sel(ROOT)
    per_command_s("cli.self_s", root.self_ns, root.calls)

    traced_wall = statistics.median(r.wall for r in traced_reps)
    plain_wall = statistics.median(r.wall for r in plain_reps)
    metrics["trace.overhead_frac"] = Metric(traced_wall / plain_wall - 1.0, "frac", n)
    # Code that no span wraps counts as its caller's self time.  Below the
    # driver loop that caller is a named layer; above it, it is the loop
    # (bench.run) or the CLI (the root span), which are glue.  So coverage is
    # the share of the wall time, measured outside the root span, spent in
    # spans below the root other than the loop's own code.
    coverage = (root.child_ns - loop.self_ns) / 1e9 / sum(r.wall for r in traced_reps)
    metrics["trace.coverage"] = Metric(coverage, "frac", n)
    notes = []
    if coverage < MIN_COVERAGE:
        notes.append(f"named layers cover {coverage:.4f} of the traced wall time, "
                     f"below {MIN_COVERAGE}")
    return metrics, notes
