"""Span tracing around the public functions of each fbsplit module.

Nothing under ``src/`` is edited: :func:`instrument` replaces module
attributes and class methods with timing wrappers for the duration of a
``with`` block and restores the originals afterwards.  Spans are aggregated
in memory by (name, parent name, method) so that runs of 10^5 iterations
keep a bounded footprint.

Counts ride along with the spans: every ``LinearMap.apply`` and
``LinearMap.adjoint_apply`` call is one matrix product, and
``AffineConstraint.project`` adds one more for its raw pseudo-inverse
product.  A span's product count includes those of its children.
"""

import contextlib
import functools
import time
from dataclasses import dataclass

ROOT = "cli"
STEP_SPANS = (
    "primal_dual.pd_step",
    "primal_dual.flag_step",
    "ffb.step",
    "baselines.step",
)


@dataclass
class Node:
    calls: int = 0
    total_ns: int = 0
    child_ns: int = 0
    products: int = 0

    @property
    def self_ns(self):
        return self.total_ns - self.child_ns


class Tracer:
    """Collects aggregated spans; one instance per traced benchmark run."""

    def __init__(self):
        self.nodes = {}
        # open spans, innermost last: [name, child_ns, products]
        self._stack = []
        self.method = ""

    def wrap(self, name, fn, products=0):
        """Return ``fn`` wrapped in a span called ``name`` that itself counts
        ``products`` matrix products."""
        stack = self._stack
        nodes = self.nodes
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            key = (name, parent, self.method)
            frame = [name, 0, products]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                node = nodes.get(key)
                if node is None:
                    node = nodes[key] = Node()
                node.calls += 1
                node.total_ns += dt
                node.child_ns += frame[1]
                node.products += frame[2]
                if stack:
                    stack[-1][1] += dt
                    stack[-1][2] += frame[2]

        return traced

    def select(self, name, method=None):
        """Sum of the nodes called ``name`` (optionally for one method)."""
        out = Node()
        for (n, _parent, m), node in self.nodes.items():
            if n == name and (method is None or m == method):
                out.calls += node.calls
                out.total_ns += node.total_ns
                out.child_ns += node.child_ns
                out.products += node.products
        return out


def _targets(fbsplit):
    """(owner, attribute, span name, products) for every wrapped boundary.

    ``bench`` imports the solver functions by name, so those are replaced in
    ``bench``'s namespace, where its experiment code looks them up.
    """
    bench, linalg, operators, primal_dual = (
        fbsplit.bench, fbsplit.linalg, fbsplit.operators, fbsplit.primal_dual)
    return [
        (linalg.LinearMap, "apply", "linalg.apply", 1),
        (linalg.LinearMap, "adjoint_apply", "linalg.adjoint_apply", 1),
        (operators, "operator_norm", "linalg.operator_norm", 0),
        (primal_dual, "operator_norm", "linalg.operator_norm", 0),
        (operators, "prox_l1", "operators.prox_l1", 0),
        (operators.QuadraticTerm, "gradient", "operators.gradient", 0),
        (operators.AffineConstraint, "project", "operators.project", 1),
        (operators.AffineConstraint, "__init__", "operators.build", 0),
        (bench, "quadratic_term", "operators.build", 0),
        (bench, "pd_default_steps", "primal_dual.params", 0),
        (bench, "flag_default_params", "primal_dual.params", 0),
        (bench, "pd_init", "primal_dual.init", 0),
        (bench, "flag_init", "primal_dual.init", 0),
        (bench, "pd_step", "primal_dual.pd_step", 0),
        (bench, "flag_step", "primal_dual.flag_step", 0),
        (bench, "certificate_residual", "primal_dual.certificate_residual", 0),
        (bench, "ffb_init", "ffb.init", 0),
        (bench, "ffb_step_y", "ffb.step", 0),
        (bench, "ffb_step_xi", "ffb.step", 0),
        (bench, "tangent_residual", "ffb.residual", 0),
        (bench, "fixed_point_residual", "ffb.residual", 0),
        (bench, "baseline_init", "baselines.init", 0),
        (bench, "baseline_step", "baselines.step", 0),
        (bench, "generate_problem", "bench.generate_problem", 0),
        (bench, "emit", "bench.emit", 0),
        # _PdDriver and _InclusionDriver are private, but their measure
        # method is the checkpoint boundary the bench layer is judged by
        (bench._PdDriver, "measure", "bench.measure", 0),
        (bench._InclusionDriver, "measure", "bench.measure", 0),
    ]


@contextlib.contextmanager
def instrument(tracer, fbsplit):
    """Install the tracer's wrappers on ``fbsplit`` for the ``with`` body."""
    saved = []
    try:
        for owner, attr, name, products in _targets(fbsplit):
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, products))
        run = fbsplit.bench.run_experiment
        saved.append((fbsplit.bench, "run_experiment", run))
        traced_run = tracer.wrap("bench.run", run)

        def run_experiment(config, *args, **kwargs):
            tracer.method = config.method
            return traced_run(config, *args, **kwargs)

        fbsplit.bench.run_experiment = run_experiment
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        tracer.method = ""
