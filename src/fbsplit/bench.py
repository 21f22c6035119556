"""Experiment generation, execution, metric logging, and rate-slope fitting.

Problems are random l1 + least-squares instances with a consistent linear
constraint:

    min ||x||_1 + 0.5*||Bx - c||^2   subject to  Ax = b,

with A (m x n), B (p x n), c drawn i.i.d. standard normal from numpy's
PCG64 generator (``default_rng(seed)``) and b = A x_feas for one more
standard-normal draw x_feas scaled by 1/sqrt(n), so the constraint is
feasible by construction while the entries of b stay standard normal.
Draw order is A, B, c, x_feas; seeds are therefore portable across any
implementation using the same generator.

Every run is a pure function of its config: timings are recorded only when
explicitly requested, so emitted CSV files are byte-identical across
invocations of the same config.
"""

import dataclasses
import hashlib
import json
import math
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .baselines import VARIANTS, BaselineMethod, baseline_init, baseline_step
from .errors import ConfigurationError, DivergenceError
from .ffb import (
    FfbParams,
    ffb_init,
    ffb_step_xi,
    ffb_step_y,
    fixed_point_residual,
    tangent_residual,
)
from .linalg import LinearMap
from .operators import (
    AffineConstraint,
    GradientMap,
    InclusionProblem,
    L1Subdifferential,
    quadratic_term,
)
from .primal_dual import (
    PdProblem,
    certificate_residual,
    flag_default_params,
    flag_init,
    flag_step,
    lagrangian_gap,
    pd_default_steps,
    pd_init,
    pd_step,
    pd_step_alternative,
)

__all__ = [
    "CSV_HEADER",
    "METHODS",
    "IterationRecord",
    "ExperimentConfig",
    "RunResult",
    "RateFit",
    "generate_problem",
    "as_inclusion",
    "save_problem",
    "load_problem",
    "problem_fingerprint",
    "default_checkpoints",
    "run_experiment",
    "fit_rate_slope",
    "reference_solution",
    "inclusion_reference",
    "emit",
    "read_records_csv",
    "read_records_json",
    "records_equal",
]

# the computed columns of a record, in CSV order between k and ns
_QUANTITIES = ("velocity", "rtan", "rfix", "objective", "feasibility", "gap")
CSV_HEADER = ",".join(("k",) + _QUANTITIES + ("ns",))

# primal-dual methods run on the PdProblem; the rest on its inclusion form
_PD_METHODS = ("pd", "pd_alt", "flag")
_FFB_METHODS = ("ffb", "ffb_xi")
METHODS = _FFB_METHODS + tuple(VARIANTS) + _PD_METHODS


@dataclass
class IterationRecord:
    """One metric row; NaN marks quantities a method does not define."""

    k: int
    velocity: float
    rtan: float
    rfix: float
    objective: float
    feasibility: float
    gap: float
    ns: int = 0
    dual_velocity: Optional[float] = None


@dataclass
class ExperimentConfig:
    """One run: a method, a problem, a budget, and output options.

    The problem is either generated from (m, p, n, seed) or loaded from
    ``problem_file``.  ``reference`` optionally points to a saved reference
    solution used for the gap column.
    """

    method: str = "ffb"
    m: int = 20
    p: int = 50
    n: int = 100
    seed: int = 0
    iters: int = 1000
    alpha: float = 5.0
    gamma: Optional[float] = None
    tau: Optional[float] = None
    sigma: Optional[float] = None
    s: Optional[float] = None
    rho: Optional[float] = None
    r: Optional[float] = None
    theta: Optional[float] = None
    checkpoints: Optional[list] = None
    problem_file: Optional[str] = None
    reference: Optional[str] = None
    timing: bool = False
    out: Optional[str] = None
    format: str = "csv"

    def validate(self):
        if self.method not in METHODS:
            raise ConfigurationError(
                f"unknown method {self.method!r}; choose from {', '.join(METHODS)}"
            )
        if self.iters < 1:
            raise ConfigurationError("iteration budget must be >= 1")
        if self.format not in ("csv", "json"):
            raise ConfigurationError(f"format must be csv or json, got {self.format!r}")
        if self.problem_file is None:
            if min(self.m, self.p, self.n) < 1:
                raise ConfigurationError("problem dimensions must be positive")
        return self


@dataclass
class RunResult:
    records: list
    diverged: bool = False
    method: str = ""
    config: Optional[ExperimentConfig] = None


@dataclass
class RateFit:
    slope: float
    intercept: float
    r2: float
    k_window: tuple
    points: int


def generate_problem(m, p, n, seed):
    """Random consistent instance; deterministic in (m, p, n, seed)."""
    if min(m, p, n) < 1:
        raise ConfigurationError("problem dimensions must be positive")
    rng = np.random.default_rng(seed)
    a_mat = rng.standard_normal((m, n))
    b_mat = rng.standard_normal((p, n))
    c = rng.standard_normal(p)
    # unit-variance scaling keeps b marginally standard normal
    x_feas = rng.standard_normal(n) / math.sqrt(n)
    return _l1_least_squares(a_mat, a_mat @ x_feas, b_mat, c)


def _l1_least_squares(a_mat, b, b_mat, c):
    """min ||x||_1 + 0.5*||Bx - c||^2 subject to Ax = b."""
    return PdProblem(
        f_prox=L1Subdifferential(),
        f_value=lambda x: float(np.sum(np.abs(x))),
        h=quadratic_term(LinearMap(b_mat), c),
        A=LinearMap(a_mat),
        b=b,
    )


def as_inclusion(problem: PdProblem):
    """Inclusion form of the smooth part: M the constraint normal cone,
    C the gradient of h.  The nonsmooth f is dropped; zeros minimize h over
    the constraint set."""
    M = AffineConstraint(problem.A, problem.b)
    return InclusionProblem(M, GradientMap(problem.h))


def save_problem(problem: PdProblem, path):
    np.savez(
        path,
        A=problem.A.matrix,
        b=problem.b,
        B=problem.h.B.matrix,
        c=problem.h.c,
    )


def load_problem(path):
    data = np.load(path)
    return _l1_least_squares(data["A"], data["b"], data["B"], data["c"])


def problem_fingerprint(problem: PdProblem):
    digest = hashlib.sha256()
    arrays = [problem.A.matrix, problem.b]
    if hasattr(problem.h, "B"):
        arrays += [problem.h.B.matrix, problem.h.c]
    else:
        digest.update(type(problem.h).__name__.encode())
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()[:16]


def default_checkpoints(iters, per_decade=50):
    """Log-spaced iteration indices, about ``per_decade`` per decade,
    always containing 1 and ``iters``."""
    if iters < 1:
        raise ConfigurationError("iters must be >= 1")
    exponents = np.arange(0.0, math.log10(iters) + 1e-12, 1.0 / per_decade)
    ks = np.unique(np.rint(10.0**exponents).astype(int))
    ks = ks[(ks >= 1) & (ks <= iters)]
    if ks.size == 0 or ks[-1] != iters:
        ks = np.append(ks, iters)
    return [int(k) for k in ks]


class _Reference:
    """Saddle-point reference used for the gap column, with the final
    feasibility of the run that produced it and whether that converged."""

    def __init__(self, x_star, lam_star, objective, feasibility, converged):
        self.x_star = x_star
        self.lam_star = lam_star
        self.objective = objective
        self.feasibility = feasibility
        self.converged = converged


def _build_problem(config: ExperimentConfig):
    if config.problem_file is not None:
        return load_problem(config.problem_file)
    return generate_problem(config.m, config.p, config.n, config.seed)


def _load_reference(path):
    data = np.load(path)
    return _Reference(data["x_star"], data["lam_star"], float(data["objective"]),
                      float(data["feasibility"]), bool(data["converged"]))


def _params_from(defaults, config, *fields):
    """``defaults`` with each of ``fields`` that ``config`` sets replaced."""
    return dataclasses.replace(defaults, **{
        name: getattr(config, name) for name in fields
        if getattr(config, name) is not None
    })


class _InclusionDriver:
    """Uniform init/step/measure wrapper over the inclusion-form methods."""

    def __init__(self, config, problem):
        self.pd = problem if isinstance(problem, PdProblem) else None
        if self.pd is not None:
            problem = as_inclusion(problem)
        self.problem = problem
        self.method_name = config.method
        if config.method in _FFB_METHODS:
            params = _params_from(FfbParams(), config, "alpha", "gamma").resolve(problem.beta)
            step = ffb_step_y if config.method == "ffb" else ffb_step_xi
            self.gamma = params.gamma
            self.init = lambda: ffb_init(problem, params)
            self.step = lambda state: step(state, problem, params)
        else:
            method = _params_from(BaselineMethod(config.method), config,
                                  "gamma", "alpha", "s", "rho").resolve(problem)
            self.gamma = method.gamma
            self.init = lambda: baseline_init(method, problem)
            self.step = lambda state: baseline_step(method, state, problem)

    def measure(self, state, reference):
        rtan = (
            tangent_residual(state, self.problem)
            if self.method_name in _FFB_METHODS
            else math.nan
        )
        objective = float(self.pd.h.value(state.z)) if self.pd else math.nan
        feasibility = self.pd.feasibility(state.z) if self.pd else math.nan
        return IterationRecord(
            k=state.k,
            velocity=float(np.linalg.norm(state.z - state.z_prev)),
            rtan=rtan,
            rfix=fixed_point_residual(state.z, self.problem, self.gamma),
            objective=objective,
            feasibility=feasibility,
            gap=math.nan,
            ns=0,
        )


class _PdDriver:
    def __init__(self, config, problem: PdProblem):
        self.problem = problem
        self.method_name = config.method
        if config.method == "flag":
            params = _params_from(flag_default_params(problem), config,
                                  "tau", "r", "theta").validate()
            init, step = flag_init, flag_step
        else:
            params = _params_from(pd_default_steps(config.alpha, problem), config,
                                  "tau", "sigma").validate(problem)
            init = pd_init
            step = pd_step_alternative if config.method == "pd_alt" else pd_step
        self.init = lambda: init(problem, params)
        self.step = lambda state: step(state, problem, params)

    def measure(self, state, reference):
        gap = math.nan
        if reference is not None:
            gap = lagrangian_gap(
                state.x, state.lam, reference.x_star, reference.lam_star, self.problem
            )
        if self.method_name == "flag":
            rtan = math.nan
        else:
            rtan = certificate_residual(state, self.problem)
        return IterationRecord(
            k=state.k,
            velocity=float(np.linalg.norm(state.x - state.x_prev)),
            rtan=rtan,
            rfix=math.nan,
            objective=self.problem.objective(state.x),
            feasibility=self.problem.feasibility(state.x),
            gap=gap,
            ns=0,
            dual_velocity=float(np.linalg.norm(state.lam - state.lam_prev)),
        )


def _driver(config, problem):
    if config.method in _PD_METHODS:
        if not isinstance(problem, PdProblem):
            raise ConfigurationError(
                f"method {config.method!r} needs a constrained problem instance"
            )
        return _PdDriver(config, problem)
    return _InclusionDriver(config, problem)


def run_experiment(config: ExperimentConfig, problem=None, reference=None):
    """Execute one configured run and return its records.

    ``problem`` and ``reference`` override the config-derived ones (useful
    for in-process experiments).  Divergence yields the records gathered so
    far with the ``diverged`` flag set instead of an exception.
    """
    config.validate()
    if problem is None:
        problem = _build_problem(config)
    if reference is None and config.reference is not None:
        reference = _load_reference(config.reference)
    driver = _driver(config, problem)
    checkpoints = set(
        config.checkpoints if config.checkpoints is not None
        else default_checkpoints(config.iters)
    )
    records = []
    diverged = False
    t0 = time.perf_counter_ns() if config.timing else 0

    def record(state):
        rec = driver.measure(state, reference)
        # norms can overflow to inf on huge but still finite states; such a
        # row marks divergence rather than data (NaN stays: it flags
        # quantities a method does not define)
        computed = (rec.velocity, rec.rfix, rec.objective, rec.feasibility)
        if any(math.isinf(v) for v in computed):
            raise DivergenceError(f"non-finite metrics at k={state.k}", state=state)
        rec.ns = (time.perf_counter_ns() - t0) if config.timing else 0
        records.append(rec)

    try:
        state = driver.init()
        if state.k in checkpoints:
            record(state)
        while state.k < config.iters:
            state = driver.step(state)
            if state.k in checkpoints:
                record(state)
    except DivergenceError:
        diverged = True
    return RunResult(records=records, diverged=diverged,
                     method=config.method, config=config)


def fit_rate_slope(records, quantity, k_min=1, k_max=None):
    """Least-squares slope of log(quantity) vs log(k) over k >= k_min.

    Rows with nonpositive or non-finite values are excluded; fewer than 10
    usable rows is an error.
    """
    ks, vals = [], []
    for rec in records:
        v = getattr(rec, quantity)
        if rec.k < k_min or (k_max is not None and rec.k > k_max):
            continue
        if v is None or not math.isfinite(v) or v <= 0:
            continue
        ks.append(rec.k)
        vals.append(v)
    if len(ks) < 10:
        raise ValueError(
            f"need >= 10 usable records for {quantity!r} with k >= {k_min}, got {len(ks)}"
        )
    x = np.log(np.asarray(ks, dtype=float))
    y = np.log(np.asarray(vals, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        r2=r2,
        k_window=(min(ks), max(ks)),
        points=len(ks),
    )


def reference_solution(problem: PdProblem, budget=1_000_000, alpha=5.0,
                       cache_dir=None, feas_tol=1e-8):
    """(x*, lam*, objective*) from a long primal-dual run, cached by problem hash.

    The reference carries a ``converged`` flag that is False when the
    final feasibility exceeds ``feas_tol``; the cache stores it along with
    the feasibility.  An unconverged reference, computed or cached, is
    returned with a RuntimeWarning.
    """
    if budget < 100_000:
        raise ConfigurationError("reference budget must be at least 1e5 iterations")
    cache_path = None
    if cache_dir is not None:
        cache_dir = Path(cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        key = f"{problem_fingerprint(problem)}_a{alpha:g}_b{budget}"
        cache_path = cache_dir / f"reference_{key}.npz"
    if cache_path is not None and cache_path.exists():
        ref = _load_reference(cache_path)
    else:
        params = pd_default_steps(alpha, problem)
        state = pd_init(problem, params)
        while state.k < budget:
            state = pd_step(state, problem, params)
        feas = problem.feasibility(state.x)
        ref = _Reference(state.x, state.lam, problem.objective(state.x),
                         feas, feas <= feas_tol)
        if cache_path is not None:
            tmp = cache_path.with_suffix(".tmp.npz")
            np.savez(tmp, x_star=ref.x_star, lam_star=ref.lam_star,
                     objective=ref.objective, feasibility=feas,
                     converged=ref.converged)
            tmp.replace(cache_path)
    if not ref.converged:
        warnings.warn(
            f"reference did not converge: final feasibility {ref.feasibility:.3e}",
            RuntimeWarning, stacklevel=2,
        )
    return ref


def inclusion_reference(problem: InclusionProblem, budget=200_000, params=None):
    """Approximate zero of M + C from a long fast forward-backward run."""
    params = (params or FfbParams()).resolve(problem.beta)
    state = ffb_init(problem, params)
    while state.k < budget:
        state = ffb_step_y(state, problem, params)
    return state.z


def _format_value(v):
    if v is None:
        return "nan"
    return repr(float(v))


def emit(records, fmt, out):
    """Write records to ``out`` plus one two-column plot file per quantity.

    CSV uses the fixed header and full-precision floats so parsing returns
    the records exactly.  Returns the list of written paths.
    """
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt == "csv":
        lines = [CSV_HEADER]
        for r in records:
            lines.append(
                ",".join(
                    [str(r.k)]
                    + [_format_value(getattr(r, q)) for q in _QUANTITIES]
                    + [str(r.ns)]
                )
            )
        _atomic_write(out, "\n".join(lines) + "\n")
        written.append(out)
    elif fmt == "json":
        payload = [dataclasses.asdict(r) for r in records]
        _atomic_write(out, json.dumps(payload, indent=1) + "\n")
        written.append(out)
    else:
        raise ConfigurationError(f"format must be csv or json, got {fmt!r}")
    quantities = list(_QUANTITIES)
    if any(r.dual_velocity is not None for r in records):
        quantities.append("dual_velocity")
    for q in quantities:
        rows = [
            f"{r.k} {_format_value(getattr(r, q))}"
            for r in records
            if getattr(r, q) is not None
        ]
        path = out.with_suffix(f".{q}.dat")
        _atomic_write(path, "\n".join(rows) + ("\n" if rows else ""))
        written.append(path)
    return written


def _atomic_write(path, text):
    tmp = Path(str(path) + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def read_records_csv(path):
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header in {path}")
    records = []
    for line in lines[1:]:
        k, *values, ns = line.split(",")
        records.append(IterationRecord(
            k=int(k), ns=int(ns), **dict(zip(_QUANTITIES, map(float, values)))))
    return records


def read_records_json(path):
    payload = json.loads(Path(path).read_text())
    return [IterationRecord(**row) for row in payload]


def _floats_equal(a, b):
    if a is None or b is None:
        return a is None and b is None
    if math.isnan(a) and math.isnan(b):
        return True
    return a == b


def records_equal(lhs, rhs, ignore_dual=False):
    """Exact equality with NaN == NaN; dual velocities optionally ignored
    (the fixed CSV schema does not carry them)."""
    if len(lhs) != len(rhs):
        return False
    for a, b in zip(lhs, rhs):
        if a.k != b.k or a.ns != b.ns:
            return False
        for name in _QUANTITIES:
            if not _floats_equal(getattr(a, name), getattr(b, name)):
                return False
        if not ignore_dual and not _floats_equal(a.dual_velocity, b.dual_velocity):
            return False
    return True
