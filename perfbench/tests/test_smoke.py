"""Smoke test of the benchmark at reduced iteration counts.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
SMALL = {name: dataclasses.replace(w, iters=150) for name, w in WORKLOADS.items()}


@pytest.fixture
def fbsplit(monkeypatch):
    for var in run.BLAS_ENV:
        monkeypatch.setenv(var, "1")
    package = run.import_package()
    assert package is not None
    return package


def _bench(capsys, tmp_path, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)],
                    workloads=SMALL, expected_path=tmp_path / "none.json")
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    table = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[3].isdigit():
            table[parts[0]] = (parts[2], int(parts[3]))
    return json.loads(lines[-1]), table


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_printed_with_unit_and_samples(fbsplit, capsys, tmp_path,
                                                    workload, trace):
    result, table = _bench(capsys, tmp_path, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert table[name][0] == unit
        assert table[name][1] >= 0
        assert isinstance(result["metrics"][name]["value"], (int, float))
    if trace:
        metrics = result["metrics"]
        import harness

        assert metrics["trace.coverage"]["value"] >= harness.MIN_COVERAGE
        if workload == "compare-large":
            assert metrics["linalg.products_per_iter.pd"]["value"] == 6
            assert metrics["linalg.products_per_iter.flag"]["value"] == 8
        if workload == "inclusion-dense":
            assert metrics["linalg.products_per_iter.ffb"]["value"] == 4
    else:
        assert result["metrics"]["setup_s"]["value"] > 0
        assert table["setup_s"][1] >= 5


def test_truncated_csv_counts_as_failed(fbsplit, monkeypatch, capsys, tmp_path):
    emit = fbsplit.bench.emit

    def truncating_emit(records, fmt, out):
        written = emit(records, fmt, out)
        if Path(out).name == "flag.csv":
            text = Path(out).read_text()
            Path(out).write_text(text[: len(text) // 2])
        return written

    monkeypatch.setattr(fbsplit.bench, "emit", truncating_emit)
    result, _table = _bench(capsys, tmp_path, "compare-large", 0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["pass_frac"]["value"] == 0.0


def test_time_outside_named_layers_fails_the_traced_run(fbsplit, monkeypatch, capsys,
                                                       tmp_path):
    import time

    import harness

    checkpoints = fbsplit.bench.default_checkpoints

    def slow_checkpoints(iters, *args, **kwargs):
        time.sleep(0.05)   # unwrapped work in the driver loop's own code
        return checkpoints(iters, *args, **kwargs)

    monkeypatch.setattr(fbsplit.bench, "default_checkpoints", slow_checkpoints)
    result, _table = _bench(capsys, tmp_path, "sweep-small", 1)
    assert result["failed"] == 0
    assert result["metrics"]["trace.coverage"]["value"] < harness.MIN_COVERAGE
    assert result["correct"] is False


def test_committed_rows_catch_a_wrong_trajectory(fbsplit, tmp_path):
    import gate
    from fbsplit import cli

    workload = SMALL["sweep-small"]
    out = tmp_path / "out"
    assert cli.main(workload.argv(3, out)) == 0
    rows = gate.check(workload, out, 0).last_rows
    assert gate.check(workload, out, 0, expected_rows=rows).ok
    shifted = {stem: dict(row, objective=row["objective"] * (1 + 1e-6))
               for stem, row in rows.items()}
    assert not gate.check(workload, out, 0, expected_rows=shifted).ok


def test_objective_at_roundoff_admits_reassociation():
    import gate

    want = {"k": 20000, "objective": 1.7e-30, "feasibility": 8.8e-16}
    problems = []
    gate._compare_rows("fbs", dict(want, objective=5.2e-30, feasibility=1.2e-15),
                       want, problems)
    assert problems == []
    above_roundoff = dict(want, objective=1.3e-11)
    gate._compare_rows("ffb", dict(above_roundoff, objective=1.3e-11 * (1 + 1e-6)),
                       above_roundoff, problems)
    assert len(problems) == 1
