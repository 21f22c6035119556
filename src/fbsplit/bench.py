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
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import groupby, repeat
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
from .operators import InclusionProblem, L1Subdifferential, quadratic_term
from .primal_dual import (
    FlagParams,
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
    "Records",
    "ExperimentConfig",
    "RunResult",
    "RateFit",
    "generate_problem",
    "save_problem",
    "load_problem",
    "problem_fingerprint",
    "default_checkpoints",
    "run_experiment",
    "run_grid",
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
_INCLUSION_BUDGET = 200_000  # iterations of inclusion_reference
_EMIT_ROWS = 512  # records that emit formats and writes together


@dataclass(slots=True)
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


_FIELDS = tuple(f.name for f in dataclasses.fields(IterationRecord))


class Records(Sequence):
    """The records of one run as columns, an attribute per field of
    :class:`IterationRecord`: ``k`` is an int64 array, and each other field
    an array (float64, ``ns`` int64) or one value that every record shares,
    such as the NaN of a quantity the method does not define.  An index or
    an iteration hands out new ``IterationRecord`` objects of Python ints
    and floats, so changing one changes nothing here; a slice is a
    ``Records`` of views."""

    __slots__ = _FIELDS

    def __init__(self, *columns):
        for name, column in zip(_FIELDS, columns):
            setattr(self, name, column)

    @classmethod
    def join(cls, blocks):
        """The blocks of one run as one ``Records`` of compact arrays."""
        if not blocks:
            return _NO_RECORDS
        return cls(*[np.concatenate(c) if isinstance(c[0], np.ndarray) else c[0]
                     for c in zip(*[b._columns() for b in blocks])])

    def _columns(self, names=_FIELDS):
        return [getattr(self, name) for name in names]

    def _lists(self, start, stop, names=_FIELDS):
        """The columns ``names`` of records ``start:stop`` as lists of Python values."""
        rows = len(self.k[start:stop])
        return [c[start:stop].tolist() if isinstance(c, np.ndarray) else [c] * rows
                for c in self._columns(names)]

    def __len__(self):
        return len(self.k)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Records(*[c[index] if isinstance(c, np.ndarray) else c
                             for c in self._columns()])
        return IterationRecord(*[c.item(index) if isinstance(c, np.ndarray) else c
                                 for c in self._columns()])


_NO_RECORDS = Records(np.empty(0, np.int64), *[math.nan] * 6, 0, None)


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
        # a list may reach past iters, which a flag can lower; [] records nothing
        if self.checkpoints and not 1 <= min(self.checkpoints) <= self.iters:
            raise ConfigurationError(
                f"the first checkpoint must lie in 1..{self.iters}, got {min(self.checkpoints)}")
        if self.format not in ("csv", "json"):
            raise ConfigurationError(f"format must be csv or json, got {self.format!r}")
        return self

    def build_problem(self):
        """The instance: loaded from ``problem_file`` if set, else generated."""
        if self.problem_file is not None:
            return load_problem(self.problem_file)
        return generate_problem(self.m, self.p, self.n, self.seed)


@dataclass
class RunResult:
    """The records of one run, a :class:`Records` that hands out copies; a
    run that diverged says at which ``k`` (its last finite state, 0 before
    k=1) and why."""

    records: Sequence
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


def _load_reference(path, problem: PdProblem):
    """The reference saved at ``path``, refused unless it is sized for ``problem``
    and saved with its fingerprint."""
    x_star, lam_star, objective, feasibility, converged = _load_arrays(
        path, "x_star", "lam_star", "objective", "feasibility", "converged")
    if x_star.shape != (problem.n,) or lam_star.shape != (problem.m,):
        raise ConfigurationError(
            f"{path} holds a reference of n={x_star.size}, m={lam_star.size}; "
            f"the instance has n={problem.n}, m={problem.m}")
    with np.load(path) as data:
        saved = str(data["fingerprint"]) if "fingerprint" in data else None
    fingerprint = problem_fingerprint(problem)
    if saved != fingerprint:
        raise ConfigurationError(
            f"{path} was saved with instance fingerprint {saved}; "
            f"this instance's is {fingerprint}")
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
    """Each run's :class:`Records` block, of views, at the checkpoint ``states``
    from its metric ``columns`` (a value per state and lockstep row, or one for
    all), up to its first checkpoint whose norms overflowed on a huge but finite
    state, a divergence (NaN stays: it flags quantities a method does not define)."""
    ks = np.array([s.k for s in states], np.int64)
    # a (runs, states) table per column, or one value that every record shares
    table = [np.reshape(c, (len(states), -1)).T if np.ndim(c) else c
             for c in [columns[q] for q in _QUANTITIES] + [0, dual_velocity]]  # ns is 0
    velocity, _, rfix, objective, feasibility = table[:5]
    overflow = np.isinf(velocity) | np.isinf(rfix) | np.isinf(objective) | np.isinf(feasibility)
    runs = []
    for row, bad in enumerate(overflow):
        end = int(bad.argmax()) if bad.any() else len(states)
        runs.append(Records(ks[:end], *[c[row, :end] if np.ndim(c) else c for c in table]))
    return runs


def _rows(obj, index):
    """A state or parameter block with each array field indexed by
    ``index``: one row (a view) or a list of rows."""
    return dataclasses.replace(obj, **{
        f.name: getattr(obj, f.name)[index] for f in dataclasses.fields(obj)
        if isinstance(getattr(obj, f.name), np.ndarray)
    })


class _Driver:
    """Init and step by the family's ``_init(problem, params)`` and ``_step(state,
    problem, params)``, read from this module when a driver is built, so a function
    replaced here is the one called.  Methods, not lambdas over self: a driver in a
    reference cycle would keep its problem alive until the cycle collector ran."""

    def init(self):
        return self._init(self.problem, self.params)

    def step(self, state):
        return self._step(state, self.problem, self.params)


class _InclusionDriver(_Driver):
    """Init/step/measure over one inclusion-form run."""

    def __init__(self, config, problem):
        self.pd = problem if isinstance(problem, PdProblem) else None
        problem = self.problem = problem.inclusion if self.pd else problem
        self.method_name = config.method
        if config.method in _FFB_METHODS:
            self.params = _params_from(FfbParams(), config).resolve(problem.beta)
            self._init = ffb_init
            self._step = ffb_step_y if config.method == "ffb" else ffb_step_xi
        else:
            self.params = _params_from(BaselineMethod(config.method), config).resolve(problem)
            self._init, self._step = baseline_init, baseline_step

    def measure(self, states, reference):
        """The :class:`Records` block of the checkpoint ``states`` (in a
        list of one), from one stacked product per operator for all of them."""
        s, method, pd, gamma = _Stacked(states), self.method_name, self.pd, self.params.gamma
        z = s.z
        # rfix = ||z_k - FB(z_k)|| from the images of z_k that the state carries
        if method in FB_CARRIED:
            rfix = norm(z - s.fb)
        elif method in _FFB_METHODS or method in C_CARRIED:
            rfix = norm(z - _forward_backward(self.problem, gamma, z, s.c))
        else:
            rfix = fixed_point_residual(z, self.problem, gamma)
        return _records(
            states, velocity=norm(z - s.z_prev),
            rtan=tangent_residual(s) if method in _FFB_METHODS else math.nan, rfix=rfix,
            objective=pd.h.value(z) if pd else math.nan,
            feasibility=pd.feasibility(z) if pd else math.nan, gap=math.nan)


class _PdDriver(_Driver):
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
            params = flag_default_params(problem) if config.tau is None else FlagParams(config.tau)
            self.params = params.validate()
            self._init, self._step = flag_init, flag_step
        else:
            # pd_init validates them, once per run; defaults only for a step left unset
            rows = [_params_from(pd_default_steps(c.alpha, problem), c) if None in (c.tau, c.sigma)
                    else PdParams(c.alpha, c.tau, c.sigma) for c in configs]
            if len(rows) == 1:
                self.params = rows[0]
            else:  # a block takes each parameter as a (K, 1) column, a row per run
                columns = np.array([dataclasses.astuple(r) for r in rows]).T[..., None]
                self.params = PdParams(*columns)
            self._init = pd_init
            self._step = pd_step_alternative if config.method == "pd_alt" else pd_step

    def keep(self, state, rows):
        """The block ``state`` (None before k=1) cut to ``rows``; the step
        sizes follow."""
        self.params = _rows(self.params, rows)
        return None if state is None else _rows(state, rows)

    def measure(self, states, reference):
        """The :class:`Records` blocks of the checkpoint ``states``, one per
        run of a lockstep block, from one stacked product per operator."""
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


def _driver(configs, problem):
    """The driver of one run, or of a lockstep group of pd or pd_alt runs."""
    if configs[0].method in _PD_METHODS:
        return _PdDriver(configs, problem)
    return _InclusionDriver(configs[0], problem)


def run_experiment(config: ExperimentConfig, problem=None, reference=None,
                   lockstep=None):
    """Execute one configured run and return its result, whose records are
    a :class:`Records`: a record read from them is a copy.

    ``problem`` and ``reference`` override the config-derived ones (useful
    for in-process experiments).  Divergence yields the records gathered so
    far, with ``diverged``, the iteration and the reason set, instead of an
    exception.

    ``lockstep`` lists further ``pd`` or ``pd_alt`` configs that differ
    from ``config`` only in alpha, tau, sigma and out; all of them then
    advance as the rows of one block on one problem, and the list of their
    results, ``config``'s first, is returned.  Each result equals its solo
    run's bit for bit, also when another row diverges; ``ns`` under
    ``timing`` counts from the start of the group.  :func:`run_grid` forms
    such groups from a grid of configs and runs them.

    Checkpoint states are measured in blocks, bit for bit as one at a time,
    by ``flush``, and each run's blocks are joined once at the end; ``ns``
    is stamped when a checkpoint is reached.
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
        problem = config.build_problem()
    if reference is None and config.reference is not None:
        reference = _load_reference(config.reference, problem)
    driver = _driver(configs, problem)
    # the checkpoints in increasing order, each once, and none that no state
    # reaches (such as 2.5); due is the next one
    ahead = (k for k, _ in groupby(sorted(
        config.checkpoints if config.checkpoints is not None
        else default_checkpoints(config.iters))) if k % 1 == 0)
    due = next(ahead, None)
    results = [RunResult(records=_NO_RECORDS) for _ in configs]
    blocks = [[] for _ in configs]  # each run's measured Records blocks
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
        for i, block in zip(list(live), driver.measure(pending, reference)):
            if stamps:
                block.ns = np.array(stamps[:len(block)], np.int64)
            blocks[i].append(block)
            if len(block) < len(pending):
                state = retire(state, [i], pending[len(block)].k, "non-finite metrics")
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
            if state.k == due:
                due = next(ahead, None)
                pending.append(state)
                if config.timing:
                    stamps.append(time.perf_counter_ns() - t0)
                if len(pending) == 1:  # a block of states holds about _BLOCK_FLOATS
                    width = _BLOCK_FLOATS // sum(
                        a.size for a in vars(state).values() if isinstance(a, np.ndarray))
                if len(pending) >= width:
                    state = flush(state)
        flush(state)
    for result, run in zip(results, blocks):
        result.records = Records.join(run)
    return results if lockstep is not None else results[0]


def run_grid(configs, jobs=1):
    """Build the instance and reference of ``configs[0]`` and check every run's
    steps against it, so a refused grid runs nothing; the iterator returned runs
    the lockstep groups (see :func:`run_experiment`) in turn or in ``jobs``
    processes, and yields each group's (config, result) pairs as it finishes.
    It lets go of a group's results once it has yielded the last of them, before
    the next group runs, so a caller that keeps no pair holds one group's records
    at a time."""
    if jobs < 1:
        raise ConfigurationError(f"jobs must be at least 1, got {jobs}")
    problem = configs[0].build_problem()
    reference = (None if configs[0].reference is None
                 else _load_reference(configs[0].reference, problem))
    groups = {}  # a config no other can join forms a group of its own
    for i, config in enumerate(configs):
        # a run's driver resolves its steps and checks them; pd_init checks pd's and pd_alt's
        driver = _driver([config.validate()], problem)
        if config.method in ("pd", "pd_alt"):
            driver.params.validate(problem)
        key = _lockstep_key(config)
        groups.setdefault(i if key is None else key, []).append(config)

    def run_groups():
        firsts, rests = [g[0] for g in groups.values()], [g[1:] for g in groups.values()]
        with contextlib.ExitStack() as stack:
            if jobs == 1:
                results = map(run_experiment, firsts, repeat(problem), repeat(reference), rests)
            else:  # each worker is sent the instance and the reference once
                from concurrent.futures import ProcessPoolExecutor  # 1.9 MB of RSS, so only here

                pool = ProcessPoolExecutor(jobs, initializer=_share, initargs=(problem, reference))
                results = stack.enter_context(pool).map(_run_shared, firsts, rests)
            # not zip(groups, results): its reused tuple would keep the finished
            # group's results alive while map runs the next group
            for group in groups.values():
                yield from zip(group, next(results))

    return run_groups()


_shared = {}  # the instance and reference a worker process was sent, by _share


def _share(problem, reference):
    _shared.update(problem=problem, reference=reference)


def _run_shared(config, lockstep):
    return run_experiment(config, _shared["problem"], _shared["reference"], lockstep)


def fit_rate_slope(records, quantity, k_min=1):
    """Least-squares slope of log(quantity) vs log(k) over k >= k_min.

    Rows of ``records``, a :class:`Records`, whose k is below 1 or whose
    value is nonpositive, non-finite or None are excluded; fewer than 10
    usable rows, or usable rows that share one k, is an error.
    """
    ks = records.k
    # a shared value stands for every row, and None reads as NaN
    vals = np.broadcast_to(np.asarray(getattr(records, quantity), np.float64), ks.shape)
    usable = (ks >= max(k_min, 1)) & np.isfinite(vals) & (vals > 0)
    ks, vals = ks[usable], vals[usable]
    if len(ks) < 10:
        raise ValueError(
            f"need >= 10 usable records for {quantity!r} with k >= {k_min}, got {len(ks)}")
    if ks.min() == ks.max():
        raise ValueError(f"the {len(ks)} usable records for {quantity!r} all have k = {ks[0]}")
    x, y = np.log(ks), np.log(vals)
    slope, intercept = np.polyfit(x, y, 1)
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateFit(slope=float(slope), intercept=float(intercept), r2=r2,
                   k_window=(int(ks.min()), int(ks.max())), points=len(ks))


def reference_solution(problem: PdProblem, budget=1_000_000, alpha=5.0,
                       cache_dir=None, feas_tol=1e-8):
    """(x*, lam*, objective*) from a long primal-dual run, cached by problem hash.

    The reference carries a ``converged`` flag that is False when the
    final feasibility exceeds ``feas_tol``; the cache stores it along with
    the feasibility and the instance's fingerprint.  An unconverged
    reference, computed or cached, is returned with a RuntimeWarning.
    """
    if budget < 100_000:
        raise ConfigurationError("reference budget must be at least 1e5 iterations")
    cache_path = None
    if cache_dir is not None:
        cache_dir = Path(cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        fingerprint = problem_fingerprint(problem)
        key = f"{fingerprint}_a{alpha:g}_b{budget}"
        cache_path = cache_dir / f"reference_{key}.npz"
    if cache_path is not None and cache_path.exists():
        ref = _load_reference(cache_path, problem)
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
                     converged=ref.converged, fingerprint=fingerprint)
            tmp.replace(cache_path)
    if not ref.converged:
        warnings.warn(
            f"reference did not converge: final feasibility {ref.feasibility:.3e}",
            RuntimeWarning, stacklevel=2,
        )
    return ref


def inclusion_reference(problem: InclusionProblem):
    """Approximate zero of M + C from ``_INCLUSION_BUDGET`` ffb iterations."""
    params = FfbParams().resolve(problem.beta)
    state = ffb_init(problem, params)
    while state.k < _INCLUSION_BUDGET:
        state = ffb_step_y(state, problem, params)
    return state.z


def emit(records, fmt, out):
    """Write ``records``, a :class:`Records`, to ``out`` plus one two-column
    plot file per quantity; an unknown ``fmt`` is refused before any is made.

    CSV uses the fixed header and full-precision floats so parsing returns
    the records exactly.  Rows are streamed in chunks of ``_EMIT_ROWS``, each
    taken from column slices: each value of a chunk is formatted once, and
    each file gets one write per chunk.  Every file is written under a
    temporary name and renamed into place once all are complete; if a write
    or a rename fails, the temporary files left are removed.  Returns the
    list of written paths.
    """
    if fmt not in ("csv", "json"):
        raise ConfigurationError(f"format must be csv or json, got {fmt!r}")
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    quantities = _QUANTITIES
    if len(records) and records.dual_velocity is not None:
        quantities += ("dual_velocity",)
    paths = [out] + [out.with_suffix(f".{q}.dat") for q in quantities]
    temps = [Path(f"{path}.tmp") for path in paths]
    try:
        with contextlib.ExitStack() as stack:
            main, *plots = [stack.enter_context(open(t, "w")) for t in temps]
            if fmt == "json":
                data = [dict(zip(_FIELDS, row)) for row in zip(*records._lists(0, len(records)))]
                main.write(json.dumps(data, indent=1) + "\n")
            else:
                main.write(CSV_HEADER + "\n")
            for i in range(0, len(records), _EMIT_ROWS):
                ks, ns, *values = records._lists(i, i + _EMIT_ROWS, ("k", "ns", *quantities))
                ks = list(map(str, ks))
                texts = [[repr(float(v)) for v in column] for column in values]
                if fmt == "csv":
                    rows = zip(ks, *texts[:len(_QUANTITIES)], map(str, ns))
                    main.write("\n".join(map(",".join, rows)) + "\n")
                for plot, text in zip(plots, texts):
                    plot.write("".join([f"{k} {t}\n" for k, t in zip(ks, text)]))
        for temp, path in zip(temps, paths):
            temp.replace(path)
    except BaseException:
        for temp in temps:
            temp.unlink(missing_ok=True)
        raise
    return paths


def _int64_columns(path, *columns):
    """Each of ``columns`` as an int64 array; a value past int64 is refused, naming ``path``."""
    try:
        return [np.array(c, np.int64) for c in columns]
    except OverflowError as exc:
        raise ValueError(f"{path} has a k or ns past int64: {exc}") from None


def read_records_csv(path):
    """An :func:`emit` CSV file as :class:`Records` without dual velocity; a
    row whose field count is not the header's, or a k or ns past int64, is refused."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header in {path}")
    rows = [line.split(",") for line in lines[1:]]
    for line, row in enumerate(rows, 2):
        if len(row) != len(_FIELDS) - 1:
            raise ValueError(f"{path} line {line} has {len(row)} fields, not {len(_FIELDS) - 1}")
    k, *values, ns = zip(*rows) if rows else [()] * (len(_FIELDS) - 1)
    k, ns = _int64_columns(path, k, ns)
    return Records(k, *[np.array(v, np.float64) for v in values], ns, None)


def read_records_json(path):
    """An :func:`emit` JSON file as :class:`Records`, dual velocity None if all
    null; a k or ns past int64 is refused."""
    rows = json.loads(Path(path).read_text())
    k, *values, ns, dual = [[row[name] for row in rows] for name in _FIELDS]
    k, ns = _int64_columns(path, k, ns)
    return Records(k, *[np.array(v, np.float64) for v in values], ns,
                   None if all(v is None for v in dual) else np.array(dual, np.float64))


def records_equal(lhs, rhs, ignore_dual=False):
    """Exact equality of :class:`Records` columns, a shared value equal to a column of
    it, NaN to NaN and None only to None; ``ignore_dual`` skips the dual velocity CSV lacks."""
    names = _FIELDS[:-1] if ignore_dual else _FIELDS
    if len(lhs) != len(rhs):
        return False
    for a, b in zip(lhs._columns(names), rhs._columns(names)):
        # None broadcasts to an object column, equal only to None's; k and ns hold no NaN
        a, b = np.broadcast_to(a, len(lhs)), np.broadcast_to(b, len(lhs))
        if not np.array_equal(a, b, equal_nan=a.dtype.kind == b.dtype.kind == "f"):
            return False
    return True
