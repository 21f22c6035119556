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

import contextlib
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

from .baselines import (
    C_CARRIED,
    FB_CARRIED,
    VARIANTS,
    BaselineMethod,
    baseline_init,
    baseline_step,
)
from .errors import ConfigurationError, DivergenceError
from .ffb import (
    FfbParams,
    _forward_backward,
    ffb_init,
    ffb_step_xi,
    ffb_step_y,
    fixed_point_residual,
    tangent_residual,
)
from .linalg import LinearMap, norm
from .operators import (
    AffineConstraint,
    GradientMap,
    InclusionProblem,
    L1Subdifferential,
    quadratic_term,
)
from .primal_dual import (
    PdParams,
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
# runs of these methods that differ only in _ROW_FIELDS advance in lockstep
_LOCKSTEP_METHODS = ("pd", "pd_alt")
_ROW_FIELDS = ("alpha", "tau", "sigma", "out")
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
        return self


@dataclass
class RunResult:
    """The records of one run; a run that diverged says at which ``k``
    (its last finite state, 0 before k=1) and why."""

    records: list
    diverged: bool = False
    diverged_at: Optional[int] = None
    reason: Optional[str] = None


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
        f=L1Subdifferential(),
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


def _load_arrays(path, *names):
    """The arrays ``names`` of the ``.npz`` file at ``path``."""
    data = np.load(path)
    missing = [name for name in names if name not in data]
    if missing:
        raise ValueError(f"{path} lacks the arrays {', '.join(missing)}")
    return [data[name] for name in names]


def load_problem(path):
    return _l1_least_squares(*_load_arrays(path, "A", "b", "B", "c"))


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


def default_checkpoints(iters):
    """Log-spaced iteration indices, about 50 per decade, always containing
    1 and ``iters``."""
    if iters < 1:
        raise ConfigurationError("iters must be >= 1")
    exponents = np.arange(0.0, math.log10(iters) + 1e-12, 1.0 / 50)
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
    x_star, lam_star, objective, feasibility, converged = _load_arrays(
        path, "x_star", "lam_star", "objective", "feasibility", "converged")
    return _Reference(x_star, lam_star, float(objective), float(feasibility),
                      bool(converged))


def _params_from(defaults, config, *fields):
    """``defaults`` with each of ``fields`` that ``config`` sets replaced."""
    return dataclasses.replace(defaults, **{
        name: getattr(config, name) for name in fields
        if getattr(config, name) is not None
    })


def _lockstep_key(config):
    """What ``config`` shares with the runs it can advance with in lockstep,
    as text: every field but alpha, tau, sigma and out.  None for a method
    that steps one vector at a time."""
    if config.method not in _LOCKSTEP_METHODS:
        return None
    return repr(dataclasses.replace(config, **dict.fromkeys(_ROW_FIELDS)))


def _rows(obj, index):
    """A state or parameter block with each array field indexed by
    ``index``: one row (a view) or a list of rows."""
    return dataclasses.replace(obj, **{
        f.name: getattr(obj, f.name)[index] for f in dataclasses.fields(obj)
        if isinstance(getattr(obj, f.name), np.ndarray)
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
                                  "gamma", "alpha").resolve(problem)
            self.gamma = method.gamma
            self.init = lambda: baseline_init(method, problem)
            self.step = lambda state: baseline_step(method, state, problem)

    def measure(self, state, reference):
        z, method = state.z, self.method_name
        rtan = tangent_residual(state) if method in _FFB_METHODS else math.nan
        # rfix = ||z_k - FB(z_k)|| from the images of z_k that the state carries
        if method in FB_CARRIED:
            rfix = norm(z - state.fb)
        elif method in _FFB_METHODS or method in C_CARRIED:
            rfix = norm(z - _forward_backward(self.problem, self.gamma, z, state.c))
        else:
            rfix = fixed_point_residual(z, self.problem, self.gamma)
        objective = float(self.pd.h.value(z)) if self.pd else math.nan
        feasibility = self.pd.feasibility(z) if self.pd else math.nan
        return IterationRecord(
            k=state.k,
            velocity=norm(z - state.z_prev),
            rtan=rtan,
            rfix=rfix,
            objective=objective,
            feasibility=feasibility,
            gap=math.nan,
            ns=0,
        )


class _PdDriver:
    """Init/step/measure over one primal-dual run, or over a lockstep group
    of ``pd``/``pd_alt`` runs whose states are the rows of one block."""

    def __init__(self, configs, problem: PdProblem):
        config = configs[0]
        if not isinstance(problem, PdProblem):
            raise ConfigurationError(
                f"method {config.method!r} needs a constrained problem instance"
            )
        self.problem = problem
        self.method_name = config.method
        if config.method == "flag":
            self.params = _params_from(flag_default_params(problem), config, "tau").validate()
            self._init, self._step = flag_init, flag_step
        else:
            # pd_init validates them, once per run
            rows = [_params_from(pd_default_steps(c.alpha, problem), c, "tau", "sigma")
                    for c in configs]
            if len(rows) == 1:
                self.params = rows[0]
            else:  # a block takes each parameter as a (K, 1) column, a row per run
                columns = np.array([dataclasses.astuple(r) for r in rows]).T[..., None]
                self.params = PdParams(*columns)
            self._init = pd_init
            self._step = pd_step_alternative if config.method == "pd_alt" else pd_step

    # methods rather than lambdas over self: a driver in a reference cycle
    # would keep its problem alive until the cycle collector ran
    def init(self):
        return self._init(self.problem, self.params)

    def step(self, state):
        return self._step(state, self.problem, self.params)

    def keep(self, state, rows):
        """The block ``state`` (None before k=1) cut to ``rows``; the step
        sizes follow."""
        self.params = _rows(self.params, rows)
        return None if state is None else _rows(state, rows)

    def measure(self, state, reference, row=None):
        """The record of ``state``, or of its run ``row`` when ``state`` is
        a lockstep block."""
        if row is not None:
            state = _rows(state, row)
        gap = math.nan
        if reference is not None:
            gap = lagrangian_gap(
                state.x, state.lam, reference.x_star, reference.lam_star, self.problem
            )
        if self.method_name == "flag":
            rtan = math.nan
            feasibility = self.problem.feasibility(state.x)
        else:  # from the images of x_k that the state carries
            rtan = certificate_residual(state, self.problem)
            feasibility = norm(state.ax - self.problem.b)
        return IterationRecord(
            k=state.k,
            velocity=norm(state.x - state.x_prev),
            rtan=rtan,
            rfix=math.nan,
            objective=self.problem.objective(state.x),
            feasibility=feasibility,
            gap=gap,
            ns=0,
            dual_velocity=norm(state.lam - state.lam_prev),
        )


def run_experiment(config: ExperimentConfig, problem=None, reference=None,
                   lockstep=None):
    """Execute one configured run and return its records.

    ``problem`` and ``reference`` override the config-derived ones (useful
    for in-process experiments).  Divergence yields the records gathered so
    far, with ``diverged``, the iteration and the reason set, instead of an
    exception.

    ``lockstep`` lists further ``pd`` or ``pd_alt`` configs that differ
    from ``config`` only in alpha, tau, sigma and out; all of them then
    advance as the rows of one block on one problem, and the list of their
    results, ``config``'s first, is returned.  Each result equals its solo
    run's bit for bit, also when another row diverges; ``ns`` under
    ``timing`` counts from the start of the group.
    """
    configs = [config, *(lockstep or ())]
    for c in configs:
        c.validate()
    if lockstep:
        key = _lockstep_key(config)
        if key is None or any(_lockstep_key(c) != key for c in lockstep):
            raise ConfigurationError(
                "lockstep runs must share a method in "
                f"{_LOCKSTEP_METHODS} and differ only in {', '.join(_ROW_FIELDS)}"
            )
    if problem is None:
        problem = _build_problem(config)
    if reference is None and config.reference is not None:
        reference = _load_reference(config.reference)
    if config.method in _PD_METHODS:
        driver = _PdDriver(configs, problem)
    else:
        driver = _InclusionDriver(config, problem)
    block = len(configs) > 1
    checkpoints = set(
        config.checkpoints if config.checkpoints is not None
        else default_checkpoints(config.iters)
    )
    results = [RunResult(records=[]) for _ in configs]
    live = list(range(len(configs)))  # the config of each row of the state
    t0 = time.perf_counter_ns() if config.timing else 0

    def retire(state, rows, k, reason):
        """``state`` without ``rows``, whose runs diverged at ``k``."""
        for row in rows:
            result = results[live[row]]
            result.diverged, result.diverged_at, result.reason = True, k, reason
        keep = [row for row in range(len(live)) if row not in rows]
        live[:] = [live[row] for row in keep]
        return driver.keep(state, keep) if live else None

    def record(state):
        """Append each row's record; return the rows whose metrics overflowed."""
        overflowed = []
        for row, i in enumerate(live):
            rec = (driver.measure(state, reference, row) if block
                   else driver.measure(state, reference))
            # norms can overflow to inf on huge but still finite states; such
            # a row marks divergence rather than data (NaN stays: it flags
            # quantities a method does not define)
            if any(map(math.isinf, (rec.velocity, rec.rfix, rec.objective, rec.feasibility))):
                overflowed.append(row)
                continue
            if config.timing:
                rec.ns = time.perf_counter_ns() - t0
            results[i].records.append(rec)
        return overflowed

    state = None
    # overflow on the way to divergence is reported as divergence, so numpy's
    # floating-point warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        while live and (state is None or state.k < config.iters):
            try:
                state = driver.init() if state is None else driver.step(state)
            except DivergenceError as exc:
                # the rows left are stepped again from the last finite state
                rows = range(len(live)) if exc.rows is None else exc.rows
                state = retire(state, rows, exc.k, exc.reason)
                continue
            if state.k in checkpoints:
                overflowed = record(state)
                if overflowed:
                    state = retire(state, overflowed, state.k, "non-finite metrics")
    return results if lockstep is not None else results[0]


def fit_rate_slope(records, quantity, k_min=1):
    """Least-squares slope of log(quantity) vs log(k) over k >= k_min.

    Rows with nonpositive or non-finite values are excluded; fewer than 10
    usable rows is an error.
    """
    ks, vals = [], []
    for rec in records:
        v = getattr(rec, quantity)
        if rec.k < k_min or v is None or not math.isfinite(v) or v <= 0:
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


def inclusion_reference(problem: InclusionProblem, budget=200_000):
    """Approximate zero of M + C from a long fast forward-backward run."""
    params = FfbParams().resolve(problem.beta)
    state = ffb_init(problem, params)
    while state.k < budget:
        state = ffb_step_y(state, problem, params)
    return state.z


def emit(records, fmt, out):
    """Write records to ``out`` plus one two-column plot file per quantity.

    CSV uses the fixed header and full-precision floats so parsing returns
    the records exactly.  Each value is formatted once, and each CSV row and
    plot-file line is written as its record is read; every file is written
    under a temporary name and renamed into place once all are complete.
    Returns the list of written paths.
    """
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if fmt not in ("csv", "json"):
        raise ConfigurationError(f"format must be csv or json, got {fmt!r}")
    columns = len(_QUANTITIES)  # of a CSV row, between k and ns
    quantities = _QUANTITIES
    if any(r.dual_velocity is not None for r in records):
        quantities += ("dual_velocity",)
    paths = [out] + [out.with_suffix(f".{q}.dat") for q in quantities]
    temps = [Path(f"{path}.tmp") for path in paths]
    with contextlib.ExitStack() as stack:
        main, *plots = [stack.enter_context(open(t, "w")) for t in temps]
        if fmt == "json":
            payload = [dataclasses.asdict(r) for r in records]
            main.write(json.dumps(payload, indent=1) + "\n")
        else:
            main.write(CSV_HEADER + "\n")
        for r in records:
            k = str(r.k)
            values = [getattr(r, q) for q in quantities]
            texts = ["nan" if v is None else repr(float(v)) for v in values]
            if fmt == "csv":
                main.write(f"{k},{','.join(texts[:columns])},{r.ns}\n")
            for plot, v, text in zip(plots, values, texts):
                if v is not None:
                    plot.write(f"{k} {text}\n")
    for temp, path in zip(temps, paths):
        temp.replace(path)
    return paths


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
