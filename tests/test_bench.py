import math

import numpy as np
import pytest

from fbsplit.bench import (
    CSV_HEADER,
    METHODS,
    ExperimentConfig,
    IterationRecord,
    as_inclusion,
    default_checkpoints,
    emit,
    fit_rate_slope,
    generate_problem,
    load_problem,
    problem_fingerprint,
    read_records_csv,
    read_records_json,
    records_equal,
    reference_solution,
    run_experiment,
    save_problem,
)
from fbsplit.errors import ConfigurationError
from fbsplit.linalg import identity
from fbsplit.operators import (
    CocoerciveMap,
    InclusionProblem,
    L1Subdifferential,
    ZeroOperator,
    ZeroSmoothTerm,
)
from fbsplit.primal_dual import PdProblem


def test_generate_problem_deterministic():
    p1 = generate_problem(4, 6, 9, seed=5)
    p2 = generate_problem(4, 6, 9, seed=5)
    np.testing.assert_array_equal(p1.A.matrix, p2.A.matrix)
    np.testing.assert_array_equal(p1.b, p2.b)
    np.testing.assert_array_equal(p1.h.B.matrix, p2.h.B.matrix)
    np.testing.assert_array_equal(p1.h.c, p2.h.c)
    assert p1.h.beta == p2.h.beta
    p3 = generate_problem(4, 6, 9, seed=6)
    assert not np.array_equal(p1.A.matrix, p3.A.matrix)


def test_generate_problem_dimensions_and_feasibility():
    prob = generate_problem(100, 500, 1000, seed=0)
    assert prob.A.matrix.shape == (100, 1000)
    assert prob.h.B.matrix.shape == (500, 1000)
    assert prob.h.c.shape == (500,)
    # least-squares oracle: the constraint is consistent
    x_ls, *_ = np.linalg.lstsq(prob.A.matrix, prob.b, rcond=None)
    assert np.linalg.norm(prob.A.matrix @ x_ls - prob.b) <= 1e-10 * max(1.0, np.linalg.norm(prob.b))


def test_as_inclusion_dimensions(bench_problem):
    incl = as_inclusion(bench_problem)
    assert incl.dim == bench_problem.n
    assert incl.beta == bench_problem.h.beta


def test_problem_save_load_roundtrip(tmp_path):
    prob = generate_problem(3, 4, 6, seed=9)
    path = tmp_path / "prob.npz"
    save_problem(prob, path)
    loaded = load_problem(path)
    np.testing.assert_array_equal(loaded.A.matrix, prob.A.matrix)
    np.testing.assert_array_equal(loaded.b, prob.b)
    assert problem_fingerprint(loaded) == problem_fingerprint(prob)


def test_default_checkpoints():
    assert default_checkpoints(1) == [1]
    cps = default_checkpoints(10_000)
    assert cps[0] == 1 and cps[-1] == 10_000
    assert {100, 1000, 10_000} <= set(cps)
    assert cps == sorted(set(cps))


def test_run_experiment_budget_one():
    config = ExperimentConfig(method="ffb", m=3, p=4, n=6, seed=2, iters=1)
    result = run_experiment(config)
    assert len(result.records) == 1
    assert result.records[0].k == 1
    assert not result.diverged


def test_run_experiment_deterministic():
    config = ExperimentConfig(method="pd", m=3, p=4, n=6, seed=2, iters=200)
    r1 = run_experiment(config)
    r2 = run_experiment(config)
    assert records_equal(r1.records, r2.records)


def test_method_registry_smoke(bench_problem):
    # every registered method runs on the benchmark instance, except the
    # pure proximal-point schemes, which reject its nonzero forward map
    for method in METHODS:
        config = ExperimentConfig(method=method, iters=50)
        if method in ("appm", "inertial_ppm"):
            with pytest.raises(ConfigurationError):
                run_experiment(config, problem=bench_problem)
            continue
        result = run_experiment(config, problem=bench_problem)
        assert not result.diverged
        last = result.records[-1]
        assert last.k == 50
        assert math.isfinite(last.velocity)


def test_pd_alternative_form_through_harness(bench_problem):
    main = run_experiment(ExperimentConfig(method="pd", iters=300), problem=bench_problem)
    alt = run_experiment(ExperimentConfig(method="pd_alt", iters=300), problem=bench_problem)
    for a, b in zip(main.records, alt.records):
        assert a.k == b.k
        assert a.objective == pytest.approx(b.objective, rel=1e-9, abs=1e-12)
        assert a.feasibility == pytest.approx(b.feasibility, rel=1e-9, abs=1e-12)


def test_run_experiment_from_problem_file(tmp_path):
    prob = generate_problem(3, 4, 6, seed=21)
    path = tmp_path / "prob.npz"
    save_problem(prob, path)
    config = ExperimentConfig(method="ffb", problem_file=str(path), iters=80)
    from_file = run_experiment(config)
    direct = run_experiment(ExperimentConfig(method="ffb", iters=80), problem=prob)
    assert records_equal(from_file.records, direct.records)


def test_run_experiment_rejects_bad_config():
    with pytest.raises(ConfigurationError):
        run_experiment(ExperimentConfig(method="nope", iters=10))
    with pytest.raises(ConfigurationError):
        run_experiment(ExperimentConfig(method="ffb", iters=0))
    with pytest.raises(ConfigurationError):
        run_experiment(ExperimentConfig(method="ffb", alpha=1.5, m=3, p=4, n=6, iters=5))


class _LyingMap(CocoerciveMap):
    beta = 1.0
    dim = 2

    def apply(self, v):
        return -np.asarray(v, dtype=float) - 1.0


def test_run_experiment_divergence_flag():
    problem = InclusionProblem(ZeroOperator(), _LyingMap())
    config = ExperimentConfig(method="fbs", gamma=1.0, iters=5000)
    result = run_experiment(config, problem=problem)
    assert result.diverged
    assert result.records  # partial records preserved
    assert all(math.isfinite(r.velocity) for r in result.records)


def test_divergence_between_checkpoints_is_reported():
    # an oversized FLAG step overflows first inside the prox argument; the
    # run reports divergence with the finite records gathered so far
    for checkpoints, kept in (([5000], []), ([1, 10, 5000], [1, 10])):
        config = ExperimentConfig(method="flag", tau=100.0, m=3, p=4, n=6,
                                  iters=5000, checkpoints=checkpoints)
        result = run_experiment(config)
        assert result.diverged
        assert [r.k for r in result.records] == kept
        for r in result.records:
            assert all(math.isfinite(v) for v in (r.velocity, r.objective, r.feasibility))


def test_fit_rate_slope_synthetic():
    ks = default_checkpoints(10_000)
    recs = [IterationRecord(k=k, velocity=1.0 / k, rtan=1.0 / math.sqrt(k),
                            rfix=math.nan, objective=0.0, feasibility=0.0,
                            gap=math.nan) for k in ks]
    assert fit_rate_slope(recs, "velocity").slope == pytest.approx(-1.0, abs=1e-6)
    assert fit_rate_slope(recs, "rtan").slope == pytest.approx(-0.5, abs=1e-6)
    fit = fit_rate_slope(recs, "velocity", k_min=100)
    assert fit.k_window[0] >= 100


def test_fit_rate_slope_excludes_nonpositive_and_needs_ten():
    recs = [IterationRecord(k=k, velocity=0.0, rtan=1.0 / k, rfix=math.nan,
                            objective=0.0, feasibility=0.0, gap=math.nan)
            for k in range(1, 30)]
    with pytest.raises(ValueError):
        fit_rate_slope(recs, "velocity")  # all zero -> no usable rows
    with pytest.raises(ValueError):
        fit_rate_slope(recs[:5], "rtan")


def _scalar_kkt_problem():
    """min |x| subject to x = 1: x* = 1, lam* = -1, objective 1."""
    return PdProblem(
        f_prox=L1Subdifferential(),
        f_value=lambda x: float(np.sum(np.abs(x))),
        h=ZeroSmoothTerm(1),
        A=identity(1),
        b=np.array([1.0]),
    )


def test_reference_solution_scalar_kkt(tmp_path):
    prob = _scalar_kkt_problem()
    ref = reference_solution(prob, budget=100_000, alpha=5.0, cache_dir=tmp_path)
    assert ref.x_star[0] == pytest.approx(1.0, abs=1e-4)
    assert ref.lam_star[0] == pytest.approx(-1.0, abs=1e-3)
    assert ref.objective == pytest.approx(1.0, abs=1e-4)
    assert prob.feasibility(ref.x_star) <= 1e-4
    # second call hits the cache and returns identical values
    again = reference_solution(prob, budget=100_000, alpha=5.0, cache_dir=tmp_path)
    np.testing.assert_array_equal(again.x_star, ref.x_star)
    np.testing.assert_array_equal(again.lam_star, ref.lam_star)
    files = list(tmp_path.glob("reference_*.npz"))
    assert len(files) == 1


def test_reference_solution_warns_when_not_converged(tmp_path):
    prob = _scalar_kkt_problem()
    # no feasibility meets a negative tolerance
    with pytest.warns(RuntimeWarning, match="did not converge"):
        ref = reference_solution(prob, budget=100_000, alpha=5.0,
                                 cache_dir=tmp_path, feas_tol=-1.0)
    assert not ref.converged
    assert ref.feasibility == prob.feasibility(ref.x_star)
    # the cached entry keeps its flag and warns again
    with pytest.warns(RuntimeWarning, match="did not converge"):
        again = reference_solution(prob, budget=100_000, alpha=5.0, cache_dir=tmp_path)
    assert not again.converged
    assert again.feasibility == ref.feasibility
    np.testing.assert_array_equal(again.x_star, ref.x_star)


def test_reference_solution_budget_floor():
    prob = generate_problem(2, 3, 4, seed=0)
    with pytest.raises(ConfigurationError):
        reference_solution(prob, budget=10)


def test_reference_solution_feasibility(bench_problem, pd_reference):
    assert bench_problem.feasibility(pd_reference.value.x_star) <= 1e-8


def test_timing_flag_records_wall_clock():
    config = ExperimentConfig(method="ffb", m=3, p=4, n=6, seed=2, iters=100,
                              timing=True)
    records = run_experiment(config).records
    ns = [r.ns for r in records]
    assert ns == sorted(ns)
    assert ns[-1] > 0
    # and stays zero without the flag
    config_plain = ExperimentConfig(method="ffb", m=3, p=4, n=6, seed=2, iters=100)
    assert all(r.ns == 0 for r in run_experiment(config_plain).records)


def _sample_records():
    return [
        IterationRecord(k=1, velocity=0.5, rtan=1.0, rfix=0.1, objective=2.0,
                        feasibility=0.3, gap=math.nan, ns=0),
        IterationRecord(k=10, velocity=0.05, rtan=0.1, rfix=0.01, objective=1.5,
                        feasibility=0.03, gap=0.7, ns=0),
    ]


def test_emit_csv_roundtrip(tmp_path):
    records = _sample_records()
    out = tmp_path / "run.csv"
    written = emit(records, "csv", out)
    text = out.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    parsed = read_records_csv(out)
    assert records_equal(parsed, records, ignore_dual=True)
    # plot-data companions load as two-column numeric text
    dat = np.loadtxt(out.with_suffix(".velocity.dat"))
    np.testing.assert_allclose(dat, [[1, 0.5], [10, 0.05]])
    assert set(written) >= {out, out.with_suffix(".velocity.dat")}


def test_emit_json_roundtrip(tmp_path):
    records = _sample_records()
    records[0].dual_velocity = 0.25
    out = tmp_path / "run.json"
    emit(records, "json", out)
    parsed = read_records_json(out)
    assert records_equal(parsed, records)


def test_emit_empty_records(tmp_path):
    out = tmp_path / "empty.csv"
    emit([], "csv", out)
    assert out.read_text() == CSV_HEADER + "\n"
    assert read_records_csv(out) == []


def test_read_records_csv_rejects_foreign_file(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_records_csv(path)
