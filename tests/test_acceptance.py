"""Acceptance suite.

Each test checks one release criterion at its pinned tolerance and prints a
PASS/FAIL line (visible with ``pytest -s`` or in failure output).  The large
comparison run (criterion 9) honors FBSPLIT_FULL=1 for the million-iteration
protocol instead of its default 1e5 budget.

Two criteria are red by measurement, not by defect of the implementation:

* Criterion 4: on a consistent quadratic-over-affine instance the plain
  forward-backward iteration is projected gradient descent on a quadratic
  and converges linearly, reaching machine precision long before k = 1e4,
  while the momentum method's residual decays at its guaranteed sublinear
  rate.  The asserted "plain method trails by a factor >= 3" cannot
  materialize on this instance class.

* Criterion 9: the objective-agreement clause needs k >~ 2.5e5 before the
  slowest method settles to four significant figures, while the
  feasibility-pattern clause is a transient that inverts near k ~ 2e5 when
  the momentum method's faster-decaying feasibility crosses below the
  averaging method's.  No single horizon satisfies both; the test runs the
  stated 1e5 budget and reports every clause.
"""

import itertools
import math
import os
import time

import numpy as np

from conftest import ALPHA, by_k
from fbsplit.bench import (
    ExperimentConfig,
    fit_rate_slope,
    generate_problem,
    run_experiment,
)
from fbsplit.diagnostics import (
    admissible_eta_interval,
    perturbed_decrease_check,
)
from fbsplit.ffb import ffb_init, ffb_step_xi, ffb_step_y
from fbsplit.linalg import LinearMap
from fbsplit.operators import (
    AffineConstraint,
    GradientMap,
    InclusionProblem,
    quadratic_term,
)
from fbsplit.primal_dual import certificate_subgradient, pd_init, pd_step, pd_zeta
from fbsplit.primal_dual import pd_default_steps
from fbsplit import cli


def report(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_01_formulation_equivalence():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((10, 50))
    problem = InclusionProblem(
        AffineConstraint(LinearMap(a), a @ rng.standard_normal(50)),
        GradientMap(quadratic_term(LinearMap(rng.standard_normal((30, 50))),
                                   rng.standard_normal(30))),
    )
    from fbsplit.ffb import FfbParams

    params = FfbParams(alpha=ALPHA).resolve(problem.beta)
    t0 = time.perf_counter()
    s_y = ffb_init(problem, params)
    s_x = ffb_init(problem, params)
    worst = 0.0
    for _ in range(999):
        s_y = ffb_step_y(s_y, problem, params)
        s_x = ffb_step_xi(s_x, problem, params)
        worst = max(worst, np.linalg.norm(s_y.z - s_x.z) / max(1.0, np.linalg.norm(s_y.z)))
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-10 and elapsed < 1.0,
           f"max rel deviation {worst:.2e} over 1e3 iterations in {elapsed:.2f}s")


def test_criterion_02_residual_inequality(ffb_run, ffb_params, bench_problem):
    gamma = ffb_params.gamma
    xi_form = run_experiment(
        ExperimentConfig(method="ffb_xi", alpha=ALPHA, iters=2000),
        problem=bench_problem,
    )
    worst = -math.inf
    count = 0
    for rec in ffb_run.value.records + xi_form.records:
        bound = gamma * rec.rtan
        worst = max(worst, (rec.rfix - bound) / max(bound, 1e-300))
        count += 1
    report(2, worst <= 1e-12,
           f"worst relative slack {worst:.2e} over {count} logged iterates, both forms")


def test_criterion_03_little_o_rates(ffb_run):
    records = ffb_run.value.records
    slope_v = fit_rate_slope(records, "velocity", k_min=1000).slope
    slope_t = fit_rate_slope(records, "rtan", k_min=1000).slope
    recs = by_k(records)
    ratio = (10_000 * recs[10_000].rtan) / (100 * recs[100].rtan)
    ok = slope_v <= -1.0 and slope_t <= -1.0 and ratio < 0.1
    ok = ok and ffb_run.seconds < 30.0
    report(3, ok, f"slopes velocity {slope_v:.2f}, rtan {slope_t:.2f}; "
                  f"k*rtan ratio {ratio:.4f}; runtime {ffb_run.seconds:.1f}s")


def test_criterion_04_classical_contrast(bench_problem, ffb_run, ffb_params):
    # plain forward-backward at the same step size; see the module docstring
    # for why this is red on this instance class
    fbs = run_experiment(
        ExperimentConfig(method="fbs", gamma=ffb_params.gamma, iters=10_000),
        problem=bench_problem,
    )
    rfix_fbs = by_k(fbs.records)[10_000].rfix
    rfix_ffb = by_k(ffb_run.value.records)[10_000].rfix
    ratio = rfix_fbs / max(rfix_ffb, 1e-300)
    report(4, ratio >= 3.0,
           f"fbs/ffb fixed-point residual ratio {ratio:.3e} at k=1e4 "
           f"(fbs {rfix_fbs:.3e}, ffb {rfix_ffb:.3e})")


def test_criterion_05_primal_dual_rates(pd_run, pd_reference):
    ref = pd_reference.value
    recs = by_k(pd_run.value.records)
    quantities = {
        "k*feasibility": lambda r: r.k * r.feasibility,
        "k*|obj-obj*|": lambda r: r.k * abs(r.objective - ref.objective),
        "k*velocity": lambda r: r.k * r.velocity,
        "k*dual_velocity": lambda r: r.k * r.dual_velocity,
    }
    ratios = {}
    ok = True
    for name, get in quantities.items():
        ratios[name] = get(recs[100]) / max(get(recs[10_000]), 1e-300)
        ok = ok and ratios[name] >= 5.0
    total_time = pd_run.seconds + pd_reference.seconds
    ok = ok and total_time < 120.0
    report(5, ok, "improvement factors " +
           ", ".join(f"{n} {v:.1f}" for n, v in ratios.items()) +
           f"; runtime {total_time:.0f}s incl. reference")


def test_criterion_06_certificates(bench_problem):
    params = pd_default_steps(ALPHA, bench_problem)
    state = pd_init(bench_problem, params)
    checkpoints = set(np.linspace(50, 2000, 20, dtype=int))
    rng = np.random.default_rng(2024)
    zeta_scale = max(1.0, float(np.linalg.norm(bench_problem.b)))
    worst_zeta = 0.0
    worst_slack = -math.inf
    while state.k < 2000:
        state = pd_step(state, bench_problem, params)
        if state.k in checkpoints:
            zeta = pd_zeta(state, bench_problem, params)
            target = bench_problem.b - bench_problem.A.apply(state.x)
            worst_zeta = max(worst_zeta, float(np.linalg.norm(zeta - target)) / zeta_scale)
            g = certificate_subgradient(state, bench_problem)
            fx = bench_problem.f_value(state.x)
            scale = max(1.0, float(np.linalg.norm(g)))
            for _ in range(100):
                u = rng.standard_normal(bench_problem.n) * 2.0
                slack = fx + float(np.dot(g, u - state.x)) - bench_problem.f_value(u)
                worst_slack = max(worst_slack, slack / scale)
    ok = worst_zeta <= 1e-13 and worst_slack <= 1e-8
    report(6, ok, f"zeta deviation {worst_zeta:.2e}; "
                  f"subgradient slack {worst_slack:.2e} over 20x100 checks")


def test_criterion_07_lyapunov_suite(lyapunov_run, bench_inclusion, ffb_params,
                                     inclusion_z_star):
    eta = lyapunov_run["eta"]
    F = lyapunov_run["F"]
    E = lyapunov_run["E"]
    alpha = ffb_params.alpha
    const = eta * (alpha - 1.0) * (1.0 - 8.0 * eta / (5.0 * alpha - 2.0))
    state = ffb_init(bench_inclusion, ffb_params)
    violations = []
    for i in range(len(F)):
        dist2 = float(np.dot(state.z - inclusion_z_star, state.z - inclusion_z_star))
        lower = max(0.0, const * dist2)
        if F[i] < lower - 1e-9 * max(1.0, abs(F[i])):
            violations.append(i + 1)
        if i + 1 < len(F):
            state = ffb_step_y(state, bench_inclusion, ffb_params)
    k0 = violations[-1] + 1 if violations else 1
    rep = perturbed_decrease_check(F, alpha, eta)
    gap = abs(E[-1] - F[-1])
    ok_a = k0 < 1000
    ok_b = rep.holds
    ok_c = gap < 0.01 * max(1.0, F[-1])
    report(7, ok_a and ok_b and ok_c,
           f"K0={k0}; decrease stable from k={rep.k_stable} "
           f"({len(rep.violations)} early violations); |E-F| at k=1e4 {gap:.2e}")


def test_criterion_08_eta_interval_correctness():
    ok = True
    details = []
    for alpha in (3.0, 5.0, 10.0, 100.0):
        lo, hi = admissible_eta_interval(alpha)
        mid = 0.5 * (lo + hi)
        zeta = mid + 1.0 - alpha
        quad = (4.0 * zeta**2
                + (alpha - 2.0) * (7.0 * alpha - 6.0) * zeta / (2.0 * (alpha - 1.0))
                + (alpha + 2.0) ** 2 * (alpha - 2.0) ** 2 / (16.0 * (alpha - 1.0) ** 2))
        ok = ok and lo < hi and 0.0 < lo and hi <= (5.0 * alpha - 2.0) / 8.0 and quad < 0.0
        details.append(f"alpha={alpha:g}: ({lo:.4f}, {hi:.4f}), quad {quad:.3g}")
    report(8, ok, "; ".join(details))


def _round_sig(value, digits=4):
    if value == 0.0:
        return 0.0
    from decimal import Decimal

    exponent = math.floor(math.log10(abs(value)))
    quantum = Decimal(1).scaleb(exponent - digits + 1)
    return float(Decimal(repr(value)).quantize(quantum))


def test_criterion_09_comparison_pattern():
    full = os.environ.get("FBSPLIT_FULL") == "1"
    iters = 1_000_000 if full else 100_000
    t0 = time.perf_counter()
    problem = generate_problem(100, 500, 1000, seed=1)
    runs = {}
    for tag, config in [
        ("pd5", ExperimentConfig(method="pd", alpha=5.0, iters=iters)),
        ("pd10", ExperimentConfig(method="pd", alpha=10.0, iters=iters)),
        ("flag", ExperimentConfig(method="flag", iters=iters)),
    ]:
        runs[tag] = by_k(run_experiment(config, problem=problem).records)[iters]
    elapsed = time.perf_counter() - t0
    objs = {t: runs[t].objective for t in runs}
    four_digits = all(
        _round_sig(objs[a]) == _round_sig(objs[b])
        for a, b in itertools.combinations(objs, 2)
    )
    velocity_order = runs["pd10"].velocity < runs["pd5"].velocity < runs["flag"].velocity
    feas_pattern = runs["flag"].feasibility < runs["pd5"].feasibility
    ok = four_digits and velocity_order and feas_pattern and elapsed < 900.0
    report(9, ok,
           f"iters={iters}; objectives " +
           ", ".join(f"{t} {v:.6f}" for t, v in objs.items()) +
           f"; 4-sig-fig agreement {four_digits}; velocity order {velocity_order}; "
           f"feasibility pattern {feas_pattern}; runtime {elapsed:.0f}s")


def test_criterion_10_compare_determinism(tmp_path):
    args = ["compare", "--methods", "pd:5,flag", "--m", "5", "--p", "8",
            "--n", "12", "--seed", "3", "--iters", "500"]
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    identical = names == sorted(p.name for p in out2.iterdir()) and all(
        (out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names
    )
    report(10, identical, f"{len(names)} emitted files byte-identical")
