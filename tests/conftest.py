"""Shared fixtures.  The heavy runs (reference solutions, 1e4-iteration
trajectories) are session-scoped so the acceptance and module tests reuse
them."""

import time
from dataclasses import dataclass

import pytest

from fbsplit.bench import (
    ExperimentConfig,
    generate_problem,
    inclusion_reference,
    reference_solution,
    run_experiment,
)
from fbsplit.diagnostics import admissible_eta_interval, default_epsilon, energy_trajectory
from fbsplit.ffb import FfbParams

BENCH_SEED = 1
ALPHA = 5.0


@dataclass
class TimedResult:
    value: object
    seconds: float


def _timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return TimedResult(value, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def bench_problem():
    """The (m, p, n) = (20, 50, 100) instance used across the suite."""
    return generate_problem(20, 50, 100, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def bench_inclusion(bench_problem):
    return bench_problem.inclusion


@pytest.fixture(scope="session")
def ffb_params(bench_inclusion):
    return FfbParams(alpha=ALPHA).resolve(bench_inclusion.beta)


@pytest.fixture(scope="session")
def ffb_run(bench_problem):
    """10^4-iteration fast forward-backward run on the benchmark instance."""
    return _timed(lambda: run_experiment(
        ExperimentConfig(method="ffb", alpha=ALPHA, iters=10_000),
        problem=bench_problem,
    ))


@pytest.fixture(scope="session")
def pd_reference(bench_problem, tmp_path_factory):
    """10^6-iteration reference saddle point for the benchmark instance."""
    cache = tmp_path_factory.mktemp("refcache")
    return _timed(lambda: reference_solution(
        bench_problem, budget=1_000_000, alpha=ALPHA, cache_dir=cache,
    ))


@pytest.fixture(scope="session")
def pd_run(bench_problem, pd_reference):
    """10^4-iteration primal-dual run with the gap column filled in."""
    return _timed(lambda: run_experiment(
        ExperimentConfig(method="pd", alpha=ALPHA, iters=10_000),
        problem=bench_problem,
        reference=pd_reference.value,
    ))


@pytest.fixture(scope="session")
def inclusion_z_star(bench_inclusion):
    """Long-run zero of the inclusion form, for energy diagnostics."""
    return inclusion_reference(bench_inclusion)


@pytest.fixture(scope="session")
def lyapunov_run(bench_inclusion, ffb_params, inclusion_z_star):
    """E and F values at every k of a 10^4-iteration run, with the eta
    midpoint and default epsilon."""
    lo, hi = admissible_eta_interval(ALPHA)
    eta = 0.5 * (lo + hi)
    eps = default_epsilon(ALPHA)
    E, F = energy_trajectory(
        bench_inclusion, ffb_params, inclusion_z_star, eta, eps, iters=10_000
    )
    return {"E": E, "F": F, "eta": eta, "epsilon": eps}


def by_k(records):
    return {r.k: r for r in records}
