import ast
import dataclasses
import itertools
import json
import math
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from fbsplit import bench, cli, operators
from fbsplit.bench import CSV_HEADER, RunResult
from fbsplit.primal_dual import PdProblem


def test_solve_writes_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = cli.main([
        "solve", "--method", "ffb", "--alpha", "5",
        "--m", "3", "--p", "4", "--n", "6", "--seed", "2",
        "--iters", "50", "--out", str(out),
    ])
    assert code == 0
    assert out.read_text().splitlines()[0] == CSV_HEADER
    assert "ffb k=50" in capsys.readouterr().out


def test_solve_json_format(tmp_path):
    out = tmp_path / "run.json"
    code = cli.main([
        "solve", "--method", "pd", "--m", "3", "--p", "4", "--n", "6",
        "--seed", "2", "--iters", "40", "--format", "json", "--out", str(out),
    ])
    assert code == 0
    records = bench.read_records_json(out)
    assert records[-1].k == 40
    assert records[-1].dual_velocity is not None


def test_solve_from_problem_file(tmp_path):
    prob_path = tmp_path / "prob.npz"
    bench.save_problem(bench.generate_problem(3, 4, 6, seed=8), prob_path)
    out = tmp_path / "run.csv"
    code = cli.main([
        "solve", "--method", "fbs", "--problem-file", str(prob_path),
        "--iters", "30", "--out", str(out),
    ])
    assert code == 0
    assert bench.read_records_csv(out)[-1].k == 30


def test_solve_unknown_method_is_config_error(capsys):
    code = cli.main(["solve", "--method", "warp", "--iters", "5"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_solve_step_size_violation_is_config_error(tmp_path, capsys):
    code = cli.main([
        "solve", "--method", "ffb", "--gamma", "1e9",
        "--m", "3", "--p", "4", "--n", "6", "--iters", "5",
    ])
    assert code == 2


def test_solve_divergence_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(
        cli.bench, "run_experiment",
        lambda config, problem=None, reference=None: RunResult(records=[], diverged=True),
    )
    code = cli.main(["solve", "--method", "fbs", "--m", "3", "--p", "4",
                     "--n", "6", "--iters", "5"])
    assert code == 3


def test_compare_divergence_before_first_checkpoint_exit_code(monkeypatch, tmp_path):
    def diverged(config, problem=None, reference=None, lockstep=None):
        # run_experiment's contract: a list of results when given lockstep runs
        results = [RunResult(records=[], diverged=True) for _ in [config, *(lockstep or ())]]
        return results if lockstep is not None else results[0]

    monkeypatch.setattr(cli.bench, "run_experiment", diverged)
    code = cli.main(["compare", "--methods", "pd:3,flag", "--m", "3", "--p", "4",
                     "--n", "6", "--iters", "5", "--out", str(tmp_path)])
    assert code == 3


def test_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "method": "pd", "m": 3, "p": 4, "n": 6, "seed": 1, "iters": 40,
        "out": str(tmp_path / "a.csv"), "format": "csv",
    }))
    code = cli.main(["solve", "--config", str(cfg), "--iters", "60"])
    assert code == 0
    recs = bench.read_records_csv(tmp_path / "a.csv")
    assert recs[-1].k == 60  # CLI flag wins over the file value


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "pd", "bogus": 1}))
    assert cli.main(["solve", "--config", str(cfg)]) == 2


def test_compare_writes_per_method_files(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = cli.main([
        "compare", "--methods", "pd:3,flag",
        "--m", "3", "--p", "4", "--n", "6", "--seed", "2",
        "--iters", "60", "--out", str(out),
    ])
    assert code == 0
    assert (out / "pd_a3.csv").exists()
    assert (out / "flag.csv").exists()
    table = capsys.readouterr().out
    assert "pd_a3" in table and "flag" in table


def test_compare_parallel_jobs_match_serial(tmp_path):
    args = ["compare", "--methods", "pd:3,flag", "--m", "3", "--p", "4",
            "--n", "6", "--seed", "2", "--iters", "60"]
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert cli.main(args + ["--out", str(serial)]) == 0
    assert cli.main(args + ["--out", str(parallel), "--jobs", "2"]) == 0
    for path in sorted(serial.iterdir()):
        assert (parallel / path.name).read_bytes() == path.read_bytes()


def test_importing_the_cli_leaves_the_process_pool_unimported():
    # the pool costs every process 1.9 MB of RSS; only --jobs > 1 may import it
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import fbsplit.cli; "
            "print('concurrent.futures' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"


def test_compare_byte_identical_across_invocations(tmp_path):
    args = ["compare", "--methods", "pd:3,flag", "--m", "3", "--p", "4",
            "--n", "6", "--seed", "2", "--iters", "60"]
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_rates_reports_slopes(tmp_path, capsys):
    out = tmp_path / "run.csv"
    cli.main(["solve", "--method", "ffb", "--m", "4", "--p", "8", "--n", "16",
              "--seed", "3", "--iters", "2000", "--out", str(out)])
    code = cli.main(["rates", str(out), "--quantities", "velocity,rtan",
                     "--kmin", "10"])
    assert code == 0
    table = capsys.readouterr().out
    assert "velocity" in table and "rtan" in table


@pytest.mark.slow
def test_reference_subcommand(tmp_path, capsys):
    prob_path = tmp_path / "prob.npz"
    prob = bench.generate_problem(1, 2, 2, seed=4)
    bench.save_problem(prob, prob_path)
    # 1e5 iterations leave this instance short of the 1e-8 feasibility
    with pytest.warns(RuntimeWarning, match="did not converge"):
        code = cli.main([
            "reference", "--problem-file", str(prob_path),
            "--iters", "100000", "--out", str(tmp_path / "cache"),
        ])
    assert code == 0
    assert "reference objective" in capsys.readouterr().out
    assert list((tmp_path / "cache").glob("reference_*.npz"))


def test_reference_given_iters_below_floor_is_config_error(tmp_path, capsys):
    prob_path = tmp_path / "prob.npz"
    bench.save_problem(bench.generate_problem(1, 2, 2, seed=4), prob_path)
    cache = tmp_path / "cache"
    common = ["--problem-file", str(prob_path), "--out", str(cache)]
    code = cli.main(["reference", "--iters", "50000"] + common)
    assert code == cli.EXIT_CONFIG
    assert "at least 1e5" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"iters": 50000}))
    code = cli.main(["reference", "--config", str(cfg)] + common)
    assert code == cli.EXIT_CONFIG
    assert not list(cache.glob("reference_*.npz"))


def test_compare_methods_from_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "methods": [{"method": "ffb"}, {"method": "fbs"}, {"method": "fast_km", "alpha": 3}],
        "checkpoints": [1, 2, 5, 20],
    }))
    common = ["--config", str(cfg), "--m", "3", "--p", "4", "--n", "6",
              "--seed", "2", "--iters", "20"]
    out = tmp_path / "file"
    assert cli.main(["compare"] + common + ["--out", str(out)]) == 0
    stems = sorted({p.name.split(".")[0] for p in out.iterdir()})
    assert stems == ["fast_km_a3", "fbs", "ffb_a5"]
    for stem in stems:
        assert [r.k for r in bench.read_records_csv(out / f"{stem}.csv")] == [1, 2, 5, 20]
        assert (out / f"{stem}.velocity.dat").exists()
    override = tmp_path / "override"
    assert cli.main(["compare"] + common + ["--methods", "pd:3",
                                            "--out", str(override)]) == 0
    assert sorted(p.name for p in override.glob("*.csv")) == ["pd_a3.csv"]


@pytest.mark.parametrize("flag", [["--tau", "1"], ["--method", "flag"], ["--timing"]])
def test_reference_rejects_flags_it_does_not_read(flag):
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["reference", "--m", "1", "--p", "2", "--n", "2"] + flag)
    assert exc_info.value.code == 2


@pytest.mark.parametrize("key,value", [
    ("tau", 0.001), ("sigma", 0.001), ("checkpoints", [10]), ("format", "json"),
    ("timing", True), ("reference", "ref.npz"), ("method", "pd"),
])
def test_reference_config_refuses_a_field_it_has_no_flag_for(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    cache = tmp_path / "cache"
    code = cli.main(["reference", "--config", str(cfg), "--m", "3", "--p", "4", "--n", "6",
                     "--iters", "100000", "--out", str(cache)])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        f"configuration error: reference takes no config keys [{key!r}]")
    assert not list(cache.glob("reference_*.npz"))


@pytest.mark.parametrize("command", ["solve", "compare", "reference"])
def test_config_file_sets_the_fields_its_subcommand_has_flags_for(tmp_path, capsys, command):
    # the dests of the subcommand's own flags; checkpoints has no flag
    subcommands = next(a.choices for a in cli.build_parser()._actions if a.dest == "command")
    flags = {action.dest for action in subcommands[command]._actions}
    fields = set(cli._CONFIG_TYPES)
    expected = fields & flags | ({"checkpoints"} if command != "reference" else set())
    if command == "solve":
        assert expected == fields  # so a field added without a flag shows here
    # every field at a value of its type; iters 0 stops an accepted file before a run
    values = {**dataclasses.asdict(bench.ExperimentConfig(method="pd")),
              "iters": 0, "out": str(tmp_path / "out")}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    assert cli.main([command, "--config", str(cfg)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    prefix = f"configuration error: {command} takes no config keys "
    refused = set(ast.literal_eval(err[len(prefix):].strip())) if err.startswith(prefix) else set()
    assert fields - refused == expected
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["solve", "--method", "appm"],
                                  ["compare", "--methods", "inertial_ppm"]])
def test_the_c_zero_baselines_are_not_cli_methods(tmp_path, capsys, argv):
    # both need C = 0, and every instance the CLI builds has C = grad h
    out = tmp_path / "out"
    code = cli.main(argv + ["--m", "3", "--p", "4", "--n", "6", "--iters", "5",
                            "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: unknown method {argv[2]!r}; choose from ")
    choices = err.split("choose from ", 1)[1].strip().split(", ")
    assert choices == list(bench.METHODS)
    assert "appm" not in choices and "inertial_ppm" not in choices
    assert not out.exists()


_SWEEP = ["--m", "5", "--p", "8", "--n", "12", "--seed", "1", "--iters", "300"]


@pytest.mark.parametrize("method,jobs", [("pd", 1), ("pd", 2), ("pd_alt", 1)])
def test_compare_lockstep_group_matches_solo_runs(tmp_path, method, jobs):
    # the four same-method specs run as one block of rows; every file must
    # equal the one a separate solve writes
    solo, group = tmp_path / "solo", tmp_path / "group"
    for alpha in ("3", "5", "10", "20"):
        assert cli.main(["solve", "--method", method, "--alpha", alpha, *_SWEEP,
                         "--out", str(solo / f"{method}_a{alpha}.csv")]) == 0
    tokens = ",".join(f"{method}:{a}" for a in (3, 5, 10, 20))
    assert cli.main(["compare", "--methods", tokens, *_SWEEP, "--jobs", str(jobs),
                     "--out", str(group)]) == 0
    names = sorted(p.name for p in solo.iterdir())
    assert names == sorted(p.name for p in group.iterdir())
    for name in names:
        assert (group / name).read_bytes() == (solo / name).read_bytes(), name


def test_compare_runs_same_method_specs_in_one_group(monkeypatch, tmp_path, capsys):
    calls = []
    run = bench.run_experiment

    def spy(config, problem=None, reference=None, lockstep=None):
        calls.append([config.out] + [c.out for c in lockstep or ()])
        return run(config, problem, reference, lockstep)

    monkeypatch.setattr(cli.bench, "run_experiment", spy)
    assert cli.main(["compare", "--methods", "pd:3,flag,pd:5,pd_alt:3,pd_alt:5",
                     "--m", "3", "--p", "4", "--n", "6", "--iters", "20",
                     "--out", str(tmp_path)]) == 0
    stems = [[Path(out).stem for out in call] for call in calls]
    assert stems == [["pd_a3", "pd_a5"], ["flag"], ["pd_alt_a3", "pd_alt_a5"]]
    rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == ["pd_a3", "flag", "pd_a5", "pd_alt_a3", "pd_alt_a5"]


def test_compare_names_the_run_that_diverged(tmp_path, capsys):
    # flag with an oversized step diverges before its only checkpoint, so it
    # prints no row; stderr says which run diverged and where
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"checkpoints": [50], "methods": [
        {"method": "pd"}, {"method": "flag", "tau": 100}]}))
    code = cli.main(["compare", "--config", str(cfg), "--m", "3", "--p", "4",
                     "--n", "6", "--iters", "50", "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_DIVERGED
    captured = capsys.readouterr()
    table = captured.out.splitlines()
    assert table[0].split() == ["method", "k", "velocity", "objective", "feasibility"]
    assert [line.split()[:2] for line in table[1:]] == [["pd_a5", "50"]]
    assert captured.err.startswith("flag diverged at k=")


def test_solve_names_the_divergence_iteration(capsys):
    code = cli.main(["solve", "--method", "flag", "--tau", "100", "--m", "3",
                     "--p", "4", "--n", "6", "--iters", "50"])
    assert code == cli.EXIT_DIVERGED
    assert "run diverged at k=" in capsys.readouterr().err


def test_compare_builds_each_problem_once(monkeypatch, tmp_path):
    # pd:5 and pd:10 run as one lockstep group and flag as another, on one
    # problem; every file equals the one a separate solve writes
    solo, group = tmp_path / "solo", tmp_path / "group"
    for method, alpha, stem in (("pd", ["--alpha", "5"], "pd_a5"),
                                ("pd", ["--alpha", "10"], "pd_a10"), ("flag", [], "flag")):
        assert cli.main(["solve", "--method", method, *alpha, *_SWEEP,
                         "--out", str(solo / f"{stem}.csv")]) == 0
    calls = []
    generate = bench.generate_problem

    def spy(*args):
        calls.append(args)
        return generate(*args)

    monkeypatch.setattr(bench, "generate_problem", spy)
    assert cli.main(["compare", "--methods", "pd:5,pd:10,flag", *_SWEEP,
                     "--out", str(group)]) == 0
    assert calls == [(5, 8, 12, 1)]
    names = sorted(p.name for p in solo.iterdir())
    assert names == sorted(p.name for p in group.iterdir())
    for name in names:
        assert (group / name).read_bytes() == (solo / name).read_bytes(), name


def test_compare_builds_each_problem_once_also_with_jobs(monkeypatch, tmp_path):
    # the calling process builds the instance; the workers get it pickled
    calls = []
    generate = bench.generate_problem

    def spy(*args):
        calls.append(args)
        return generate(*args)

    monkeypatch.setattr(bench, "generate_problem", spy)
    assert cli.main(["compare", "--methods", "pd:5,pd:10,flag", *_SWEEP,
                     "--jobs", "2", "--out", str(tmp_path)]) == 0
    assert calls == [(5, 8, 12, 1)]


def test_compare_writes_each_group_before_the_next_runs(monkeypatch, tmp_path):
    events = []
    run, emit = bench.run_experiment, bench.emit

    def run_spy(config, problem=None, reference=None, lockstep=None):
        events.append(("run", Path(config.out).stem))
        return run(config, problem, reference, lockstep)

    def emit_spy(records, fmt, out):
        events.append(("emit", Path(out).stem))
        return emit(records, fmt, out)

    monkeypatch.setattr(cli.bench, "run_experiment", run_spy)
    monkeypatch.setattr(cli.bench, "emit", emit_spy)
    assert cli.main(["compare", "--methods", "pd:5,pd:10,flag", *_SWEEP,
                     "--out", str(tmp_path)]) == 0
    assert events == [("run", "pd_a5"), ("emit", "pd_a5"), ("emit", "pd_a10"),
                      ("run", "flag"), ("emit", "flag")]


def _compare_with_config(tmp_path, values, *extra):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    return cli.main(["compare", "--config", str(cfg), "--m", "3", "--p", "4", "--n", "6",
                     "--iters", "5", *extra, "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("key,value", [
    ("iters", 20), ("seed", 3), ("format", "json"), ("out", "elsewhere"),
    ("checkpoints", [1, 2]),
], ids=["iters", "seed", "format", "out", "checkpoints"])
def test_compare_method_spec_sets_only_method_and_steps(tmp_path, capsys, key, value):
    code = _compare_with_config(tmp_path, {"methods": [{"method": "pd", key: value}]})
    assert code == cli.EXIT_CONFIG
    assert (f"configuration error: a method spec sets only method, alpha, gamma, tau, "
            f"sigma; got [{key!r}]") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_compare_refuses_a_config_file_method(tmp_path, capsys):
    # each spec sets its run's method, so the file may not
    code = _compare_with_config(tmp_path, {"method": "pd", "methods": [{"alpha": 3}]})
    assert code == cli.EXIT_CONFIG
    assert "configuration error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("method", ["pd", "pd_alt", "flag"])
def test_solve_refuses_gamma_for_a_primal_dual_method(tmp_path, capsys, method):
    # the primal-dual methods step by tau and sigma and never read gamma
    code = cli.main(["solve", "--method", method, "--gamma", "0.1", "--m", "3", "--p", "4",
                     "--n", "6", "--iters", "5", "--out", str(tmp_path / "run.csv")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"configuration error: {method} takes no gamma")
    assert not (tmp_path / "run.csv").exists()


def test_compare_refuses_gamma_in_a_primal_dual_spec(tmp_path, capsys):
    methods = [{"method": "pd", "alpha": 5}, {"method": "pd", "alpha": 10, "gamma": 0.1}]
    code = _compare_with_config(tmp_path, {"methods": methods})
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: pd takes no gamma")
    assert not (tmp_path / "out").exists()


def test_solve_refuses_a_step_field_the_method_does_not_read(tmp_path, capsys):
    code = cli.main(["solve", "--method", "flag", "--sigma", "5", "--m", "3", "--p", "4",
                     "--n", "6", "--iters", "5", "--out", str(tmp_path / "run.csv")])
    assert code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: flag takes no sigma")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_compare_step_flag_must_be_read_by_every_spec(tmp_path, capsys):
    # --alpha applies to every spec, and flag reads no alpha
    code = _compare_with_config(tmp_path, {}, "--alpha", "3", "--methods", "pd,flag")
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: flag takes no alpha")
    assert not (tmp_path / "out").exists()


def test_compare_refuses_a_bad_alpha_before_writing(tmp_path, capsys):
    # pd:1 is refused while the specs are read, before flag runs and writes
    code = _compare_with_config(tmp_path, {}, "--methods", "flag,pd:1")
    assert code == cli.EXIT_CONFIG
    assert "alpha must exceed 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("methods,bound", [
    ([{"method": "flag"}, {"method": "pd", "tau": 100}], "tau*sigma*||A||^2"),
    ([{"method": "pd"}, {"method": "fbs", "gamma": 100}], "outside (0, 2*beta)"),
], ids=["pd-tau", "fbs-gamma"])
def test_compare_refuses_a_step_beyond_its_bound_before_writing(tmp_path, capsys, methods,
                                                               bound, jobs):
    # the bound needs the instance's norms; it is checked before the first
    # group runs, so the group in front of the refused run writes nothing
    code = _compare_with_config(tmp_path, {"methods": methods}, "--iters", "20",
                                "--jobs", jobs)
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and bound in err
    assert not (tmp_path / "out").exists()


def test_compare_refuses_a_missing_reference_before_writing(tmp_path, capsys):
    code = _compare_with_config(tmp_path, {}, "--methods", "flag,pd:3",
                                "--reference", str(tmp_path / "missing.npz"))
    assert code == cli.EXIT_CONFIG
    assert "missing.npz" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_a_reference_of_another_size_is_refused_before_writing(tmp_path, capsys, command):
    # the arrays a (3, 4, 6) reference solve saves, given to a (4, 5, 7) instance
    ref = tmp_path / "reference_3x4x6.npz"
    np.savez(ref, x_star=np.zeros(6), lam_star=np.zeros(3), objective=1.0,
             feasibility=0.0, converged=True)
    out = tmp_path / "C"
    argv = (["compare", "--methods", "ffb,pd", "--out", str(out)] if command == "compare"
            else ["solve", "--method", "pd", "--out", str(out / "pd.csv")])
    code = cli.main(argv + ["--m", "4", "--p", "5", "--n", "7", "--seed", "2", "--iters", "50",
                            "--reference", str(ref)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and str(ref) in err
    assert not out.exists()


@pytest.mark.slow
@pytest.mark.filterwarnings("ignore:reference did not converge:RuntimeWarning")
def test_a_reference_of_another_instance_is_refused_before_writing(tmp_path, capsys):
    size = ["--m", "3", "--p", "4", "--n", "6"]
    assert cli.main(["reference", *size, "--seed", "1", "--iters", "100000",
                     "--out", str(tmp_path / "cache")]) == 0
    ref, = (tmp_path / "cache").glob("reference_*.npz")
    # the same arrays without the fingerprint, as an older reference solve saved them
    unmarked = tmp_path / "unmarked.npz"
    with np.load(ref) as data:
        np.savez(unmarked, **{name: data[name] for name in data if name != "fingerprint"})
    compare = ["compare", "--methods", "pd:5", *size, "--iters", "50"]
    assert cli.main(compare + ["--seed", "1", "--reference", str(ref),
                               "--out", str(tmp_path / "own")]) == 0
    assert min(r.gap for r in bench.read_records_csv(tmp_path / "own" / "pd_a5.csv")) >= 0
    capsys.readouterr()
    for seed, path in [("9", ref), ("1", unmarked)]:
        out = tmp_path / f"seed{seed}_{path.stem}"
        code = cli.main(compare + ["--seed", seed, "--reference", str(path), "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and str(path) in err
        assert not out.exists()


def test_compare_holds_one_groups_results_at_a_time(monkeypatch, tmp_path):
    # a weak reference to each result run_experiment returned, and how many of
    # them were alive as each call started
    run, returned, alive = bench.run_experiment, [], []

    def spy(config, problem=None, reference=None, lockstep=None):
        alive.append(sum(ref() is not None for ref in returned))
        results = run(config, problem, reference, lockstep)
        returned.extend(map(weakref.ref, results if lockstep is not None else [results]))
        return results

    monkeypatch.setattr(cli.bench, "run_experiment", spy)
    assert cli.main(["compare", "--methods", "ffb,fbs,pd:3,flag", *_SWEEP,
                     "--out", str(tmp_path)]) == 0
    assert alive == [0, 0, 0, 0]


def test_compare_sends_the_instance_to_each_worker_once(monkeypatch, tmp_path):
    # four groups, two workers: the instance is pickled at most once per worker
    pickles = []

    def getstate(self):
        pickles.append(self)
        return self.__dict__

    monkeypatch.setattr(PdProblem, "__getstate__", getstate, raising=False)
    assert cli.main(["compare", "--methods", "ffb,fbs,pd,flag", *_SWEEP, "--jobs", "2",
                     "--out", str(tmp_path)]) == 0
    assert len(pickles) <= 2
    assert len(list(tmp_path.glob("*.csv"))) == 4


def test_compare_refuses_an_out_path_it_cannot_create_before_running(monkeypatch, tmp_path,
                                                                     capsys):
    calls = []
    monkeypatch.setattr(cli.bench, "run_experiment", lambda *args, **kwargs: calls.append(args))
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = cli.main(["compare", "--methods", "pd:3,flag", "--m", "3", "--p", "4", "--n", "6",
                     "--iters", "5", "--out", str(blocker / "sub")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error:")
    assert calls == []


def test_compare_builds_one_inclusion_form_per_instance(monkeypatch, tmp_path):
    # the eight inclusion-form methods share the instance's projection
    builds = []
    init = operators.AffineConstraint.__init__

    def spy(self, *args):
        builds.append(args)
        init(self, *args)

    monkeypatch.setattr(operators.AffineConstraint, "__init__", spy)
    methods = "ffb,ffb_xi,fbs,fast_km,crifba,lorenz_pock,moudafi_oliny,relaxed_inertial"
    assert cli.main(["compare", "--methods", methods, "--m", "3", "--p", "4", "--n", "6",
                     "--iters", "20", "--out", str(tmp_path)]) == 0
    assert len(builds) == 1
    assert len(list(tmp_path.glob("*.csv"))) == 8


_README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_step_field_table_matches_the_code():
    lines = _README.read_text().splitlines()
    start = lines.index("| method | step fields |") + 2
    table = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
        methods, fields = (cell.strip() for cell in line.strip("|").split("|"))
        for method in methods.split(", "):
            table[method.strip("`")] = tuple(f.strip("`") for f in fields.split(", "))
    assert table == bench.STEP_FIELDS


def test_readme_library_example_runs(capsys):
    section = _README.read_text().split("## Library use", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, str(_README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 1 and math.isfinite(float(printed[0]))


@pytest.mark.parametrize("values,extra", [
    ({}, ["--methods", "pd:5,pd:5"]),
    ({"methods": [{"method": "pd", "tau": 0.01}, {"method": "pd", "tau": 0.02}]}, []),
], ids=["tokens", "taus"])
def test_compare_refuses_two_specs_writing_one_file(tmp_path, capsys, values, extra):
    code = _compare_with_config(tmp_path, values, *extra)
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error:" in err and "pd_a5.csv" in err
    assert not (tmp_path / "out").exists()


def test_rates_refuses_a_quantity_that_is_not_a_column(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert cli.main(["solve", "--method", "pd", "--m", "3", "--p", "4", "--n", "6",
                     "--iters", "20", "--out", str(out)]) == 0
    capsys.readouterr()
    code = cli.main(["rates", str(out), "--quantities", "velocity,bogus"])
    assert code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error:")
    assert "velocity, rtan, rfix, objective, feasibility, gap" in captured.err


def test_config_file_holding_an_array_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([{"method": "pd"}]))
    assert cli.main(["solve", "--config", str(cfg)]) == cli.EXIT_CONFIG
    assert "configuration error: a config file holds one JSON object" in capsys.readouterr().err


def test_config_file_format_outside_csv_and_json_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "xml"}))
    out = tmp_path / "run.xml"
    code = cli.main(["solve", "--config", str(cfg), "--method", "pd", "--m", "3", "--p", "4",
                     "--n", "6", "--iters", "5", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "format must be csv or json, got 'xml'" in capsys.readouterr().err
    assert not out.exists()


def test_solve_refuses_a_negative_tau(capsys):
    code = cli.main(["solve", "--method", "pd", "--tau", "-1", "--m", "3", "--p", "4",
                     "--n", "6", "--iters", "5"])
    assert code == cli.EXIT_CONFIG
    assert "tau and sigma must be positive" in capsys.readouterr().err


def test_rates_reports_a_file_too_short_to_fit(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert cli.main(["solve", "--method", "pd", "--m", "3", "--p", "4", "--n", "6",
                     "--iters", "5", "--out", str(out)]) == 0
    assert len(bench.read_records_csv(out)) == 5
    capsys.readouterr()
    assert cli.main(["rates", str(out), "--quantities", "velocity"]) == cli.EXIT_OK
    assert "unusable (need >= 10 usable records for 'velocity'" in capsys.readouterr().out


def test_rates_refuses_a_file_with_a_row_of_another_field_count(tmp_path, capsys):
    out = tmp_path / "run.csv"
    out.write_text(f"{bench.CSV_HEADER}\n1,0.5,nan,0.1,2.0,0.3,nan,0,99\n")
    assert cli.main(["rates", str(out), "--quantities", "velocity"]) == cli.EXIT_CONFIG
    assert f"{out} line 2 has 9 fields, not 8" in capsys.readouterr().err


def test_rates_refuses_a_file_with_an_integer_past_int64(tmp_path, capsys):
    out = tmp_path / "run.csv"
    out.write_text(f"{bench.CSV_HEADER}\n1,0.5,nan,0.1,2.0,0.3,nan,99999999999999999999\n")
    assert cli.main(["rates", str(out), "--quantities", "velocity"]) == cli.EXIT_CONFIG
    assert f"{out} has a k or ns past int64" in capsys.readouterr().err


@pytest.mark.parametrize("flag,given,missing", [
    ("--problem-file", "reference", "A, b, B, c"),
    ("--reference", "problem", "x_star, lam_star, objective, feasibility, converged"),
], ids=["problem-file", "reference"])
def test_npz_without_the_expected_arrays_is_an_error(tmp_path, capsys, flag, given, missing):
    # a reference cache file where a problem file belongs, and the other way round
    files = {"problem": tmp_path / "problem.npz", "reference": tmp_path / "reference.npz"}
    bench.save_problem(bench.generate_problem(3, 4, 6, seed=1), files["problem"])
    np.savez(files["reference"], x_star=np.zeros(6), lam_star=np.zeros(3), objective=1.0,
             feasibility=0.0, converged=True)
    code = cli.main(["solve", "--method", "pd", "--m", "3", "--p", "4", "--n", "6",
                     "--iters", "5", flag, str(files[given])])
    assert code == cli.EXIT_CONFIG
    assert f"{files[given]} lacks the arrays {missing}" in capsys.readouterr().err


@pytest.mark.parametrize("command,values", [
    ("compare", {"checkpoints": 5}),
    ("compare", {"methods": "pd"}),
    ("solve", {"iters": "100"}),
    ("solve", {"m": "3"}),
    ("solve", {"alpha": "5"}),
    ("compare", {"checkpoints": [1, True]}),
    ("compare", {"checkpoints": [1, 2.5]}),
])
def test_config_value_of_wrong_type_is_config_error(tmp_path, capsys, command, values):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 3, "p": 4, "n": 6, "iters": 5, **values}))
    code = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert "configuration error:" in capsys.readouterr().err


def _run_with_checkpoints(tmp_path, command, checkpoints):
    """``command`` at --iters 100 with the file's ``checkpoints``: solve
    writes run.csv, and compare the directory out with pd_a5.csv."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"checkpoints": checkpoints}))
    out, steps = {"solve": ("run.csv", ["--method", "pd"]),
                  "compare": ("out", ["--methods", "pd:5"])}[command]
    return cli.main([command, "--config", str(cfg), *steps, "--m", "3", "--p", "4",
                     "--n", "6", "--iters", "100", "--out", str(tmp_path / out)])


@pytest.mark.parametrize("command", ["solve", "compare"])
@pytest.mark.parametrize("checkpoints", [[0, 500], [-3, 50], [500], [101, 200]])
def test_unreachable_checkpoints_are_config_error(tmp_path, capsys, command, checkpoints):
    # a run would spend its budget and write a header-only file
    assert _run_with_checkpoints(tmp_path, command, checkpoints) == cli.EXIT_CONFIG
    assert ("configuration error: the first checkpoint must lie in 1..100"
            in capsys.readouterr().err)
    assert not (tmp_path / "run.csv").exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_checkpoints_may_reach_past_iters(tmp_path, command):
    # --iters wins over the file, so the file's list may outrun the budget
    assert _run_with_checkpoints(tmp_path, command, [50, 500]) == cli.EXIT_OK
    csv = tmp_path / ("run.csv" if command == "solve" else "out/pd_a5.csv")
    assert [r.k for r in bench.read_records_csv(csv)] == [50]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_compare_rejects_jobs_below_one(tmp_path, capsys, jobs):
    code = cli.main(["compare", "--methods", "pd:5", "--m", "3", "--p", "4", "--n", "6",
                     "--iters", "5", "--jobs", jobs, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert "configuration error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_emit_removes_its_temporary_files_when_a_rename_fails(tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()  # the CSV cannot replace a directory
    code = cli.main(["solve", "--method", "ffb", "--m", "3", "--p", "4", "--n", "6",
                     "--iters", "10", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "Is a directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]


def _zero_instance(tmp_path):
    """An instance file with A = 0 and B = 0, so ||A|| = 0 and beta = +inf,
    where the default step rules would divide by 0."""
    path = tmp_path / "zero.npz"
    np.savez(path, A=np.zeros((2, 4)), b=np.zeros(2), B=np.zeros((3, 4)), c=np.ones(3))
    return str(path)


@pytest.mark.parametrize("argv,steps", [
    (["solve", "--method", "pd"], "tau and sigma"),
    (["solve", "--method", "pd_alt", "--tau", "0.5"], "tau and sigma"),
    (["solve", "--method", "flag"], "tau"),
    (["compare", "--methods", "flag,pd:5"], "tau"),
    (["reference"], "tau and sigma"),
], ids=["pd", "pd_alt-one-step", "flag", "compare", "reference"])
def test_no_default_step_on_an_instance_with_a_and_b_zero(tmp_path, capsys, argv, steps):
    code = cli.main([*argv, "--problem-file", _zero_instance(tmp_path),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"configuration error: {steps} must be given explicitly when ||A|| = 0 "
        "and h has unbounded cocoercivity modulus\n")


@pytest.mark.parametrize("argv", [
    ["solve", "--method", "pd", "--tau", "0.5", "--sigma", "0.5"],
    ["solve", "--method", "flag", "--tau", "0.5"],
    ["compare", "--methods", "pd_alt:3,pd:5", "--tau", "0.5", "--sigma", "0.5"],
], ids=["pd", "flag", "compare"])
def test_given_steps_run_on_an_instance_with_a_and_b_zero(tmp_path, argv):
    code = cli.main([*argv, "--problem-file", _zero_instance(tmp_path), "--iters", "20",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_OK


@pytest.mark.parametrize("values,extra,refusal", [
    ({}, ["--methods", ""], "unknown method ''"),  # the one token "" names no method
    ({"methods": []}, [], "methods must be a non-empty list of objects, got []"),
], ids=["flag", "config-file"])
def test_compare_refuses_an_empty_method_list_before_writing(tmp_path, capsys, values, extra,
                                                             refusal):
    code = _compare_with_config(tmp_path, values, *extra)
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"configuration error: {refusal}")
    assert not (tmp_path / "out").exists()
