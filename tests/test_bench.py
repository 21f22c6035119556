import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest

from fbsplit import bench
from fbsplit.bench import (
    CSV_HEADER,
    METHODS,
    STEP_FIELDS,
    ExperimentConfig,
    IterationRecord,
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
from fbsplit.diagnostics import monotonicity_certificate
from fbsplit.errors import ConfigurationError
from fbsplit.ffb import FfbParams, ffb_init, ffb_step_y, fixed_point_residual
from fbsplit.linalg import LinearMap, identity, inner
from fbsplit.operators import (
    AffineConstraint,
    CocoerciveMap,
    InclusionProblem,
    L1Subdifferential,
    ZeroOperator,
    ZeroSmoothTerm,
)
from fbsplit.primal_dual import (
    PdParams,
    PdProblem,
    objective_bounds,
    pd_default_steps,
    pd_init,
    pd_step,
    pd_zeta,
)


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
    incl = bench_problem.inclusion
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


def test_problem_pickles():
    # compare --jobs sends each instance to its worker processes pickled
    prob = generate_problem(3, 4, 6, seed=2)
    copy = pickle.loads(pickle.dumps(prob))
    assert problem_fingerprint(copy) == problem_fingerprint(prob)
    x = np.random.default_rng(0).standard_normal(6)
    assert copy.objective(x) == prob.objective(x)


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
    # every registered method runs on the benchmark instance
    for method in METHODS:
        config = ExperimentConfig(method=method, iters=50)
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


@pytest.mark.parametrize("field", ["alpha", "gamma", "tau", "sigma"])
@pytest.mark.parametrize("method", METHODS)
def test_validate_refuses_exactly_the_step_fields_a_method_does_not_read(method, field):
    config = ExperimentConfig(method=method, **{field: 3.0})
    if field in STEP_FIELDS[method]:
        assert config.validate() is config
    else:
        with pytest.raises(ConfigurationError, match=f"^{method} takes no {field};"):
            config.validate()


def test_alpha_defaults_to_five_for_the_methods_that_read_it():
    # filled in when the config is made, so an unvalidated config has it too
    for method in METHODS:
        expected = 5.0 if "alpha" in STEP_FIELDS[method] else None
        assert ExperimentConfig(method=method).alpha == expected, method


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


def test_divergence_raises_no_floating_point_warnings():
    # the run reports its divergence itself; numpy's overflow warnings on the
    # way there would only repeat it
    config = ExperimentConfig(method="flag", tau=100.0, m=3, p=4, n=6, iters=5000,
                              checkpoints=[1, 10, 5000])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = run_experiment(config)
    assert result.diverged
    assert result.reason == "non-finite iterate"
    assert result.diverged_at > 10


@pytest.mark.parametrize("every_iteration", [True, False], ids=["every", "default"])
def test_overflowed_metrics_end_the_run(every_iteration):
    # z_k = 2 z_{k-1} + 1 grows like 2^k from z_0 = 0 and stays finite up to
    # k = 1023, but rfix = ||z_k + 1|| squares 2^k, so its norm overflows
    # first at k = 512: the run ends at the first checkpoint from there on
    problem = InclusionProblem(ZeroOperator(), _LyingMap())
    checkpoints = list(range(1, 5001)) if every_iteration else default_checkpoints(5000)
    config = ExperimentConfig(method="fbs", gamma=1.0, iters=5000,
                              checkpoints=checkpoints if every_iteration else None)
    result = run_experiment(config, problem=problem)
    assert result.diverged and result.reason == "non-finite metrics"
    assert result.diverged_at == min(k for k in checkpoints if k >= 512)
    assert [r.k for r in result.records] == [k for k in checkpoints if k < 512]
    for r in result.records:  # z_k - z_{k-1} = 2^(k-1) (1, 1), z_k + 1 = 2^k (1, 1)
        assert (r.velocity, r.rfix) == (math.sqrt(2) * 2.0**(r.k - 1), math.sqrt(2) * 2.0**r.k)


class _ScalesRowOnce(L1Subdifferential):
    """Soft thresholding that scales row 1 of a block of rows by 1e200 at
    its ``calls``-th application, and only then."""

    def __init__(self, calls):
        self.calls = calls

    def resolvent(self, gamma, v):
        out = super().resolvent(gamma, v)
        self.calls -= 1
        if self.calls == 0 and out.ndim == 2 and len(out) > 1:
            out[1] *= 1e200
        return out


@pytest.mark.parametrize("size,iters,call", [((3, 4, 6), 60, 30), ((20, 50, 100), 400, 300)],
                         ids=["one-block", "mid-block"])
def test_lockstep_row_with_overflowed_metrics_leaves_the_other_rows(size, iters, call):
    prob = generate_problem(*size, seed=2)
    scaled = PdProblem(_ScalesRowOnce(call), prob.h, prob.A, prob.b)
    configs = [ExperimentConfig(method="pd", alpha=a, iters=iters,
                                checkpoints=list(range(1, iters + 1))) for a in (3.0, 5.0)]
    first, second = run_experiment(configs[0], problem=scaled, lockstep=configs[1:])
    solo = [run_experiment(c, problem=prob) for c in configs]
    # the call-th resolvent call makes x_call, whose velocity overflows
    assert (second.diverged, second.diverged_at) == (True, call)
    assert second.reason == "non-finite metrics"
    assert records_equal(second.records, solo[1].records[:call - 1])
    assert not first.diverged
    assert records_equal(first.records, solo[0].records)


class _RowBlowsUp(L1Subdifferential):
    """Soft thresholding that sends row 1 of a block of rows to infinity from
    its ``calls``-th application on."""

    def __init__(self, calls):
        self.calls = calls

    def resolvent(self, gamma, v):
        out = super().resolvent(gamma, v)
        self.calls -= 1
        if self.calls <= 0 and out.ndim == 2 and len(out) > 1:
            out[1] = np.inf
        return out


@pytest.mark.parametrize("method", ["pd", "pd_alt"])
def test_lockstep_row_divergence_leaves_the_other_rows(tmp_path, method):
    prob = generate_problem(3, 4, 6, seed=2)
    blows_up = PdProblem(_RowBlowsUp(30), prob.h, prob.A, prob.b)
    configs = [ExperimentConfig(method=method, alpha=a, m=3, p=4, n=6, seed=2, iters=60,
                                checkpoints=list(range(1, 61)), out=str(tmp_path / f"{a}"))
               for a in (3.0, 5.0)]
    first, second = run_experiment(configs[0], problem=blows_up, lockstep=configs[1:])
    solo = [run_experiment(c, problem=prob) for c in configs]
    # the 30th resolvent call makes x_30, so the last finite state is k=29
    assert (second.diverged, second.diverged_at) == (True, 29)
    assert second.reason == "non-finite iterate"
    assert records_equal(second.records, solo[1].records[:29])
    assert not first.diverged
    assert records_equal(first.records, solo[0].records)
    emit(first.records, "csv", tmp_path / "group.csv")
    emit(solo[0].records, "csv", tmp_path / "solo.csv")
    for suffix in (".csv", ".velocity.dat", ".dual_velocity.dat", ".objective.dat"):
        group_file, solo_file = ((tmp_path / f"{name}.csv").with_suffix(suffix)
                                 for name in ("group", "solo"))
        assert group_file.read_bytes() == solo_file.read_bytes()


def test_lockstep_row_divergence_mid_block_leaves_the_other_rows():
    # checkpoints at every iteration of (20, 50, 100) fill several blocks,
    # and the row leaves inside one of them
    prob = generate_problem(20, 50, 100, seed=2)
    blows_up = PdProblem(_RowBlowsUp(300), prob.h, prob.A, prob.b)
    configs = [ExperimentConfig(method="pd", alpha=a, iters=400,
                                checkpoints=list(range(1, 401))) for a in (3.0, 5.0)]
    first, second = run_experiment(configs[0], problem=blows_up, lockstep=configs[1:])
    solo = [run_experiment(c, problem=prob) for c in configs]
    assert (second.diverged, second.diverged_at) == (True, 299)
    assert second.reason == "non-finite iterate"
    assert records_equal(second.records, solo[1].records[:299])
    assert not first.diverged
    assert records_equal(first.records, solo[0].records)


def test_lockstep_needs_runs_that_differ_only_in_step_parameters():
    base = ExperimentConfig(method="pd", m=3, p=4, n=6, iters=5)
    for other in (ExperimentConfig(method="pd", m=3, p=4, n=6, iters=6),
                  ExperimentConfig(method="pd_alt", m=3, p=4, n=6, iters=5)):
        with pytest.raises(ConfigurationError):
            run_experiment(base, lockstep=[other])
    flag = ExperimentConfig(method="flag", m=3, p=4, n=6, iters=5)
    with pytest.raises(ConfigurationError):
        run_experiment(flag, lockstep=[flag])
    [only] = run_experiment(base, lockstep=[])
    assert records_equal(only.records, run_experiment(base).records)


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
        f=L1Subdifferential(),
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


def test_emit_golden_bytes(tmp_path):
    # NaN columns, a roundoff-sized and a huge value, dual velocities absent,
    # present with a gap, and the json format
    records = [
        IterationRecord(k=1, velocity=0.5, rtan=math.nan, rfix=0.1, objective=2.0,
                        feasibility=0.3, gap=math.nan, ns=0),
        IterationRecord(k=2, velocity=1e-20, rtan=math.nan, rfix=1 / 3, objective=-1.25,
                        feasibility=0.0, gap=math.nan, ns=7),
        IterationRecord(k=10, velocity=0.05, rtan=math.nan, rfix=0.01, objective=1.5e300,
                        feasibility=0.03, gap=0.7, ns=12),
    ]
    csv = (
        "k,velocity,rtan,rfix,objective,feasibility,gap,ns\n"
        "1,0.5,nan,0.1,2.0,0.3,nan,0\n"
        "2,1e-20,nan,0.3333333333333333,-1.25,0.0,nan,7\n"
        "10,0.05,nan,0.01,1.5e+300,0.03,0.7,12\n"
    )
    plots = {
        "velocity": "1 0.5\n2 1e-20\n10 0.05\n",
        "rtan": "1 nan\n2 nan\n10 nan\n",
        "rfix": "1 0.1\n2 0.3333333333333333\n10 0.01\n",
        "objective": "1 2.0\n2 -1.25\n10 1.5e+300\n",
        "feasibility": "1 0.3\n2 0.0\n10 0.03\n",
        "gap": "1 nan\n2 nan\n10 0.7\n",
    }

    def check(out, main, plots):
        written = emit(records, out.suffix[1:], out)
        assert written == [out] + [out.with_suffix(f".{q}.dat") for q in plots]
        assert out.read_bytes() == main.encode()
        for q, text in plots.items():
            assert out.with_suffix(f".{q}.dat").read_bytes() == text.encode(), q

    check(tmp_path / "a.csv", csv, plots)
    records[0].dual_velocity, records[2].dual_velocity = 0.25, 0.125
    with_dual = {**plots, "dual_velocity": "1 0.25\n10 0.125\n"}
    check(tmp_path / "b.csv", csv, with_dual)
    entries = [
        ("1", "0.5", "NaN", "0.1", "2.0", "0.3", "NaN", "0", "0.25"),
        ("2", "1e-20", "NaN", "0.3333333333333333", "-1.25", "0.0", "NaN", "7", "null"),
        ("10", "0.05", "NaN", "0.01", "1.5e+300", "0.03", "0.7", "12", "0.125"),
    ]
    fields = ("k", "velocity", "rtan", "rfix", "objective", "feasibility", "gap", "ns",
              "dual_velocity")
    json_text = "[\n" + ",\n".join(
        " {\n" + ",\n".join(f'  "{f}": {v}' for f, v in zip(fields, e)) + "\n }"
        for e in entries) + "\n]\n"
    check(tmp_path / "c.json", json_text, with_dual)
    assert not list(tmp_path.glob("*.tmp"))


# every-iteration checkpoints on a small instance, for the image checks below
_DENSE = dict(m=4, p=6, n=10, seed=3, iters=40, checkpoints=list(range(1, 41)))
_INCLUSION_METHODS = ("ffb", "ffb_xi", "fbs", "fast_km", "crifba", "lorenz_pock",
                      "moudafi_oliny", "relaxed_inertial")


def _fresh_record(state, problem, runner):
    """The checkpoint record of ``state``, with C, FB, grad h and A applied
    afresh rather than read from the state."""
    if isinstance(runner, bench._PdDriver):
        x = state.x
        top = state.w + problem.h.gradient(x)
        bottom = problem.b - problem.A.apply(x)
        return IterationRecord(
            k=state.k, velocity=float(np.linalg.norm(x - state.x_prev)),
            rtan=float(math.hypot(np.linalg.norm(top), np.linalg.norm(bottom))),
            rfix=math.nan, objective=problem.objective(x),
            feasibility=float(np.linalg.norm(problem.A.apply(x) - problem.b)), gap=math.nan,
            dual_velocity=float(np.linalg.norm(state.lam - state.lam_prev)))
    z, inclusion = state.z, runner.problem
    rtan = math.nan
    if runner.method_name in ("ffb", "ffb_xi"):
        rtan = float(np.linalg.norm(state.xi + inclusion.C.apply(z)))
    return IterationRecord(
        k=state.k, velocity=float(np.linalg.norm(z - state.z_prev)), rtan=rtan,
        rfix=fixed_point_residual(z, inclusion, runner.gamma),
        objective=float(problem.h.value(z)),
        feasibility=float(np.linalg.norm(problem.A.apply(z) - problem.b)), gap=math.nan)


def _fresh_records(config, problem):
    """The records of a run of ``config``, each recomputed from its state."""
    if config.method in ("pd", "pd_alt"):
        runner = bench._PdDriver([config], problem)
    else:
        runner = bench._InclusionDriver(config, problem)
    state = runner.init()
    records = [_fresh_record(state, problem, runner)]
    while state.k < config.iters:
        state = runner.step(state)
        records.append(_fresh_record(state, problem, runner))
    return records


@pytest.mark.parametrize("method", _INCLUSION_METHODS + ("pd", "pd_alt"))
def test_checkpoints_equal_a_recomputation_from_scratch(method):
    # a state whose carried image is stale, or taken from the wrong
    # iterate, gives a record that differs from the recomputed one
    config = ExperimentConfig(method=method, **_DENSE)
    problem = generate_problem(4, 6, 10, seed=3)
    assert records_equal(run_experiment(config, problem=problem).records,
                         _fresh_records(config, problem))


@pytest.mark.parametrize("method", ["pd", "pd_alt"])
def test_lockstep_checkpoints_equal_a_recomputation_from_scratch(method):
    # the rows of a block read the block's carried images
    configs = [ExperimentConfig(method=method, alpha=alpha, **_DENSE) for alpha in (5.0, 10.0)]
    problem = generate_problem(4, 6, 10, seed=3)
    results = run_experiment(configs[0], problem=problem, lockstep=configs[1:])
    for config, result in zip(configs, results):
        assert records_equal(result.records, _fresh_records(config, problem))


def _count_measure_calls(monkeypatch, runner):
    calls = []
    measure = runner.measure

    def counted(self, states, reference):
        calls.append(len(states))
        return measure(self, states, reference)

    monkeypatch.setattr(runner, "measure", counted)
    return calls


# every-iteration checkpoints on (20, 50, 100), enough states for several blocks
_BLOCKS = dict(m=20, p=50, n=100, seed=3, iters=700, checkpoints=list(range(1, 701)))


@pytest.mark.parametrize("method", _INCLUSION_METHODS + ("pd", "pd_alt"))
def test_checkpoints_across_blocks_equal_a_recomputation_from_scratch(monkeypatch, method):
    config = ExperimentConfig(method=method, **_BLOCKS)
    problem = generate_problem(20, 50, 100, seed=3)
    runner = bench._PdDriver if method in ("pd", "pd_alt") else bench._InclusionDriver
    blocks = _count_measure_calls(monkeypatch, runner)
    records = run_experiment(config, problem=problem).records
    assert len(blocks) >= 3 and sum(blocks) == 700
    assert records_equal(records, _fresh_records(config, problem))


@pytest.mark.parametrize("method", ["pd", "pd_alt"])
def test_lockstep_checkpoints_across_blocks_equal_a_recomputation_from_scratch(monkeypatch,
                                                                              method):
    configs = [ExperimentConfig(method=method, alpha=alpha, **_BLOCKS) for alpha in (5.0, 10.0)]
    problem = generate_problem(20, 50, 100, seed=3)
    blocks = _count_measure_calls(monkeypatch, bench._PdDriver)
    results = run_experiment(configs[0], problem=problem, lockstep=configs[1:])
    assert len(blocks) >= 3 and sum(blocks) == 700
    for config, result in zip(configs, results):
        assert records_equal(result.records, _fresh_records(config, problem))


class _ProductCounter:
    """Counts matrix products as the benchmark's tracer does: one per
    LinearMap application, plus one for a projection's pseudo-inverse."""

    def __init__(self, monkeypatch):
        self.count = 0
        for owner, name, own in ((LinearMap, "apply", 1), (LinearMap, "adjoint_apply", 1),
                                 (AffineConstraint, "project", 1)):
            monkeypatch.setattr(owner, name, self._counted(getattr(owner, name), own))

    def _counted(self, fn, own):
        def counted(*args):
            self.count += own
            return fn(*args)
        return counted

    def per_call(self, monkeypatch, owner, name):
        """The products made by each call of ``owner.name``, as a list
        that fills as it is called."""
        calls = []
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            before = self.count
            out = fn(*args, **kwargs)
            calls.append(self.count - before)
            return out

        monkeypatch.setattr(owner, name, counted)
        return calls


@pytest.mark.parametrize("method,measure_products,step_name,step_products", [
    ("ffb", 4, "ffb_step_y", 4),
    ("ffb_xi", 4, "ffb_step_xi", 4),
    ("fbs", 2, "baseline_step", 4),
    ("fast_km", 2, "baseline_step", 4),
    ("moudafi_oliny", 4, "baseline_step", 4),
    ("crifba", 6, "baseline_step", 4),
    ("lorenz_pock", 6, "baseline_step", 4),
    ("relaxed_inertial", 6, "baseline_step", 4),
    ("pd", 1, "pd_step", 6),
    ("pd_alt", 1, "pd_step_alternative", 7),
])
def test_checkpoint_and_step_products(monkeypatch, method, measure_products, step_name,
                                      step_products):
    counter = _ProductCounter(monkeypatch)
    runner = bench._PdDriver if method in ("pd", "pd_alt") else bench._InclusionDriver
    measures = counter.per_call(monkeypatch, runner, "measure")
    steps = counter.per_call(monkeypatch, bench, step_name)
    # a measure call makes one stacked product per operator, whether its
    # block holds all 40 checkpoint states or one
    for block_floats in (bench._BLOCK_FLOATS, 1):
        monkeypatch.setattr(bench, "_BLOCK_FLOATS", block_floats)
        measures.clear()
        steps.clear()
        run_experiment(ExperimentConfig(method=method, **_DENSE))
        assert 1 <= len(measures) <= 40 and max(measures) <= measure_products
        assert steps == [step_products] * 39


def test_certificates_read_the_images_the_state_carries(monkeypatch):
    rng = np.random.default_rng(4)
    problem = generate_problem(3, 4, 6, seed=2)
    params = pd_default_steps(5.0, problem)
    state = pd_step(pd_init(problem, params), problem, params)
    incl = problem.inclusion
    ffb_params = FfbParams().resolve(incl.beta)
    z_state = ffb_step_y(ffb_init(incl, ffb_params), incl, ffb_params)
    x_star, lam_star, z_star = rng.standard_normal(6), rng.standard_normal(3), rng.standard_normal(6)
    # each value as its formula gives it when it recomputes the images
    A, b = problem.A, problem.b
    r, lam_norm = problem.feasibility(state.x), float(np.linalg.norm(lam_star))
    cross = inner(state.x - x_star, state.w + problem.h.gradient(state.x)) + inner(
        state.lam - lam_star, b - A.apply(state.x))
    bounds = (-lam_norm * r, problem.objective(state.x) - problem.objective(x_star),
              lam_norm * r + cross)
    zeta = (-A.apply(state.v) + state.dual_extrap / params.sigma + A.apply(state.x)
            - state.lam / params.sigma)
    monotonicity = inner(z_state.z - z_star, z_state.xi + incl.C.apply(z_state.z))
    counter = _ProductCounter(monkeypatch)
    # recomputing took 6, 2 and 2 products; the two objective values need 2
    for value, expected, products in (
            (lambda: objective_bounds(state, problem, x_star, lam_star), bounds, 2),
            (lambda: pd_zeta(state, problem, params), zeta, 1),
            (lambda: monotonicity_certificate(z_state, z_star, incl), monotonicity, 0)):
        before = counter.count
        assert np.array_equal(value(), expected)
        assert counter.count - before == products


def test_pd_params_validated_once_per_run(monkeypatch):
    rows = []
    validate = PdParams.validate

    def counted(self, problem):
        if not np.ndim(self.tau):  # a block validates each of its rows
            rows.append(self.alpha)
        return validate(self, problem)

    monkeypatch.setattr(PdParams, "validate", counted)
    config = ExperimentConfig(method="pd", m=3, p=4, n=6, seed=2, iters=20)
    run_experiment(config)
    assert rows == [5.0]
    rows.clear()
    run_experiment(config, lockstep=[dataclasses.replace(config, alpha=a) for a in (3.0, 10.0)])
    assert rows == [5.0, 3.0, 10.0]
    # a step size outside the admissible range is still refused
    with pytest.raises(ConfigurationError, match="tau"):
        run_experiment(dataclasses.replace(config, tau=100.0, sigma=100.0))
