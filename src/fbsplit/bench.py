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
import operator
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
    _PROX_ONLY,
    BaselineMethod,
    baseline_init,
    baseline_step,
)
from .errors import ConfigurationError, DivergenceError
from .ffb import (
    FfbParams,
    _check_alpha,
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
    "STEP_FIELDS",
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
# the step fields each method reads, in METHODS order; a run refuses the rest.
# Every instance here has C = grad h != 0, so the C = 0 baselines are left out
STEP_FIELDS = {
    **dict.fromkeys(_FFB_METHODS, ("alpha", "gamma")),
    **{v: ("alpha", "gamma") if v == "fast_km" else ("gamma",)
       for v in VARIANTS if v not in _PROX_ONLY},
    "pd": ("alpha", "tau", "sigma"),
    "pd_alt": ("alpha", "tau", "sigma"),
    "flag": ("tau",),
}
METHODS = tuple(STEP_FIELDS)
_BLOCK_FLOATS = 2**16  # of checkpoint states, measured together
_EMIT_ROWS = 512  # records that emit formats and writes together


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
    alpha: Optional[float] = None
    gamma: Optional[float] = None
    tau: Optional[float] = None
    sigma: Optional[float] = None
    checkpoints: Optional[list] = None
    problem_file: Optional[str] = None
    reference: Optional[str] = None
    timing: bool = False
    out: Optional[str] = None
    format: str = "csv"

    def __post_init__(self):
        # a method that reads alpha runs at 5 unless given one
        if self.alpha is None and "alpha" in STEP_FIELDS.get(self.method, ()):
            self.alpha = 5.0

    def validate(self):
        if self.method not in METHODS:
            raise ConfigurationError(
                f"unknown method {self.method!r}; choose from {', '.join(METHODS)}"
            )
        reads = STEP_FIELDS[self.method]
        for name in ("alpha", "gamma", "tau", "sigma"):
            if getattr(self, name) is not None and name not in reads:
                raise ConfigurationError(
                    f"{self.method} takes no {name}; it reads only {', '.join(reads)}")
        if self.alpha is not None:
            _check_alpha(self.alpha)
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


@dataclass
class _Reference:
    """Saddle-point reference used for the gap column, with the final
    feasibility of the run that produced it and whether that converged."""

    x_star: np.ndarray
    lam_star: np.ndarray
    objective: float
    feasibility: float
    converged: bool


def _build_problem(config: ExperimentConfig):
    if config.problem_file is not None:
        return load_problem(config.problem_file)
    return generate_problem(config.m, config.p, config.n, config.seed)


def _load_reference(path):
    x_star, lam_star, objective, feasibility, converged = _load_arrays(
        path, "x_star", "lam_star", "objective", "feasibility", "converged")
    return _Reference(x_star, lam_star, float(objective), float(feasibility),
                      bool(converged))


def _params_from(defaults, config):
    """``defaults`` with each step field that ``config`` sets replaced."""
    return dataclasses.replace(defaults, **{
        name: getattr(config, name) for name in STEP_FIELDS[config.method]
        if getattr(config, name) is not None
    })


def _lockstep_key(config):
    """What ``config`` shares with the runs it can advance with in lockstep,
    as text: every field but its method's step fields and out.  None for a
    method that steps one vector at a time: all but pd and pd_alt, the two
    that read sigma."""
    fields = STEP_FIELDS[config.method]
    if "sigma" not in fields:
        return None
    return repr(dataclasses.replace(config, out=None, **dict.fromkeys(fields)))


class _Stacked:
    """The checkpoint ``states`` of a run as one state, a row (or a block of
    rows) per state; each field is stacked when it is first read."""

    def __init__(self, states):
        self.states = states

    def __getattr__(self, name):
        arrays = [getattr(s, name) for s in self.states]
        value = np.concatenate(arrays).reshape(len(arrays), *arrays[0].shape)
        setattr(self, name, value)
        return value


def _records(states, dual_velocity=None, **columns):
    """Each run's records at the checkpoint ``states`` from its metric
    ``columns`` (a value per state and lockstep row, or one for all), up to
    its first checkpoint whose norms overflowed on a huge but finite state,
    a divergence (NaN stays: it flags quantities a method does not define)."""
    # a (runs, states) table per column, or one value that every record shares
    table = [np.reshape(c, (len(states), -1)).T if np.ndim(c) else c
             for c in [columns[q] for q in _QUANTITIES] + [0, dual_velocity]]  # ns is 0
    velocity, _, rfix, objective, feasibility = table[:5]
    overflow = np.isinf(velocity) | np.isinf(rfix) | np.isinf(objective) | np.isinf(feasibility)
    runs = []
    for row, bad in enumerate(overflow):
        end = int(bad.argmax()) if bad.any() else len(states)
        values = [c[row, :end].tolist() if np.ndim(c) else [c] * end for c in table]
        runs.append(list(map(IterationRecord, [s.k for s in states[:end]], *values)))
    return runs


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
            params = _params_from(FfbParams(), config).resolve(problem.beta)
            step = ffb_step_y if config.method == "ffb" else ffb_step_xi
            self.gamma = params.gamma
            self.init = lambda: ffb_init(problem, params)
            self.step = lambda state: step(state, problem, params)
        else:
            method = _params_from(BaselineMethod(config.method), config).resolve(problem)
            self.gamma = method.gamma
            self.init = lambda: baseline_init(method, problem)
            self.step = lambda state: baseline_step(method, state, problem)

    def measure(self, states, reference):
        """The records of the checkpoint ``states``, from one stacked
        product per operator for all of them."""
        s, method, pd = _Stacked(states), self.method_name, self.pd
        z = s.z
        # rfix = ||z_k - FB(z_k)|| from the images of z_k that the state carries
        if method in FB_CARRIED:
            rfix = norm(z - s.fb)
        elif method in _FFB_METHODS or method in C_CARRIED:
            rfix = norm(z - _forward_backward(self.problem, self.gamma, z, s.c))
        else:
            rfix = fixed_point_residual(z, self.problem, self.gamma)
        return _records(
            states, velocity=norm(z - s.z_prev),
            rtan=tangent_residual(s) if method in _FFB_METHODS else math.nan, rfix=rfix,
            objective=pd.h.value(z) if pd else math.nan,
            feasibility=pd.feasibility(z) if pd else math.nan, gap=math.nan)


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
            self.params = _params_from(flag_default_params(problem), config).validate()
            self._init, self._step = flag_init, flag_step
        else:
            # pd_init validates them, once per run
            rows = [_params_from(pd_default_steps(c.alpha, problem), c) for c in configs]
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

    def measure(self, states, reference):
        """The records of the checkpoint ``states``, a list per run of a
        lockstep block, from one stacked product per operator."""
        s, problem, ref = _Stacked(states), self.problem, reference
        gap = math.nan if ref is None else lagrangian_gap(s.x, s.lam, ref.x_star,
                                                          ref.lam_star, problem)
        if self.method_name == "flag":
            rtan, feasibility = math.nan, problem.feasibility(s.x)
        else:  # from the images of x_k that the state carries
            rtan, feasibility = certificate_residual(s, problem), norm(s.ax - problem.b)
        return _records(
            states, velocity=norm(s.x - s.x_prev), rtan=rtan, rfix=math.nan,
            objective=problem.objective(s.x), feasibility=feasibility, gap=gap,
            dual_velocity=norm(s.lam - s.lam_prev))


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

    Checkpoint states are measured in blocks, bit for bit as one at a time,
    by ``flush``; ``ns`` is stamped when a checkpoint is reached.
    """
    configs = [config, *(lockstep or ())]
    for c in configs:
        c.validate()
    if lockstep:
        key = _lockstep_key(config)
        if key is None or any(_lockstep_key(c) != key for c in lockstep):
            raise ConfigurationError(
                "lockstep runs must share pd or pd_alt and differ only in "
                "alpha, tau, sigma and out"
            )
    if problem is None:
        problem = _build_problem(config)
    if reference is None and config.reference is not None:
        reference = _load_reference(config.reference)
    if config.method in _PD_METHODS:
        driver = _PdDriver(configs, problem)
    else:
        driver = _InclusionDriver(config, problem)
    checkpoints = set(
        config.checkpoints if config.checkpoints is not None
        else default_checkpoints(config.iters)
    )
    results = [RunResult(records=[]) for _ in configs]
    live = list(range(len(configs)))  # the config of each row of the state
    pending, stamps = [], []  # the checkpoint states not yet measured, and their ns
    t0 = time.perf_counter_ns() if config.timing else 0

    def retire(state, ids, k, reason):
        """``state`` without the rows of the runs ``ids`` (if still in it), diverged at ``k``."""
        for i in set(live).intersection(ids):
            results[i].diverged, results[i].diverged_at, results[i].reason = True, k, reason
        keep = [row for row, i in enumerate(live) if i not in ids]
        live[:] = [live[row] for row in keep]
        return driver.keep(state, keep) if live else None

    def flush(state):
        """Record the pending checkpoints, due once they hold about
        ``_BLOCK_FLOATS`` floats, before a run leaves and at the end; return
        ``state`` without the rows whose metrics overflowed."""
        if not pending:
            return state
        for i, records in zip(list(live), driver.measure(pending, reference)):
            for rec, ns in zip(records, stamps):
                rec.ns = ns
            results[i].records += records
            if len(records) < len(pending):
                state = retire(state, [i], pending[len(records)].k, "non-finite metrics")
        pending.clear()
        stamps.clear()
        return state

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
                ids = [live[row] for row in rows]
                state = retire(flush(state), ids, exc.k, exc.reason)
                continue
            if state.k in checkpoints:
                pending.append(state)
                if config.timing:
                    stamps.append(time.perf_counter_ns() - t0)
                if len(pending) == 1:  # a block of states holds about _BLOCK_FLOATS
                    width = _BLOCK_FLOATS // sum(
                        a.size for a in vars(state).values() if isinstance(a, np.ndarray))
                if len(pending) >= width:
                    state = flush(state)
        flush(state)
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
    the records exactly.  Rows are streamed in chunks of ``_EMIT_ROWS``:
    each value of a chunk is formatted once, and each file gets one write
    per chunk.  Every file is written under a temporary name and renamed
    into place once all are complete.  Returns the list of written paths.
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
        fields = operator.attrgetter("k", "ns", *quantities)
        for start in range(0, len(records), _EMIT_ROWS):
            ks, ns, *values = zip(*map(fields, records[start:start + _EMIT_ROWS]))
            ks = list(map(str, ks))
            texts = [["nan" if v is None else repr(float(v)) for v in column]
                     for column in values]
            if fmt == "csv":
                rows = zip(ks, *texts[:columns], map(str, ns))
                main.write("\n".join(map(",".join, rows)) + "\n")
            for plot, column, text in zip(plots, values, texts):
                plot.write("".join([f"{k} {t}\n" for k, v, t in zip(ks, column, text)
                                    if v is not None]))
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
