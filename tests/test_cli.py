import json

import pytest

from fbsplit import bench, cli
from fbsplit.bench import CSV_HEADER, RunResult


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
    monkeypatch.setattr(
        cli.bench, "run_experiment",
        lambda config, problem=None, reference=None: RunResult(records=[], diverged=True),
    )
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


def test_reference_subcommand(tmp_path, capsys):
    prob_path = tmp_path / "prob.npz"
    prob = bench.generate_problem(1, 2, 2, seed=4)
    bench.save_problem(prob, prob_path)
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
