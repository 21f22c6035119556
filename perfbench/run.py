"""Benchmark of the ``fbsplit`` CLI: one workload per invocation.

    python3 perfbench/run.py --workload compare-large --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  Every metric is
printed on its own line with its unit and sample count, preceded by a
machine fingerprint; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status: 0 when the measurement ran (whether or not the output passed
the gate), 2 when the checkout cannot be benchmarked.
"""

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"
EXPECTED = HERE / "expected.json"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads():
    """Pin BLAS to one thread per usable core, through this process's own
    environment only; must run before numpy is imported."""
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def import_package():
    """Import ``fbsplit`` from this checkout's ``src/``, or return None."""
    src = ROOT / "src"
    if not (src / "fbsplit" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    try:
        import fbsplit
    except ImportError:
        return None
    if Path(fbsplit.__file__).resolve().parent.parent != src.resolve():
        return None
    return fbsplit


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def remove_work_dir(work_dir):
    """Delete ``work_dir`` and, once empty, the output root above it."""
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        OUT_ROOT.rmdir()
    except OSError:  # another run still has its directory there
        pass


def fingerprint(blas_threads):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "commit": _git_commit(),
    }


def _format(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result, fp):
    """Print the fingerprint, one line per metric, and the result line."""
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    print(f"{'metric':<40} {'value':>14} {'unit':<6} samples")
    for name, metric in result.metrics.items():
        print(f"{name:<40} {_format(metric.value):>14} {metric.unit:<6} {metric.samples}")
    print("repetitions (wall s, t = traced): " + " ".join(
        f"{r.wall:.4f}{'t' if r.traced else ''}" for r in result.reps))
    for note in result.notes:
        print(f"note: {note}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": m.value, "unit": m.unit}
                    for name, m in result.metrics.items()},
    }))


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None, workloads=None, expected_path=EXPECTED):
    from workloads import WORKLOADS

    workloads = workloads or WORKLOADS
    args = parse_args(argv, sorted(workloads))
    blas_threads = pin_blas_threads()
    fbsplit = import_package()
    if fbsplit is None:
        print(f"error: no importable fbsplit package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    import harness

    workload = workloads[args.workload]
    expected = json.loads(expected_path.read_text()) if expected_path.is_file() else {}
    expected_rows = expected.get(workload.name, {}).get(str(args.seed))
    work_dir = OUT_ROOT / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        runner = harness.Runner(workload, args.seed, work_dir, expected_rows)
        if args.trace:
            result = harness.measure_traced(runner, args.seconds)
        else:
            result = harness.measure(runner, args.seconds)
    finally:
        remove_work_dir(work_dir)
    report(result, fingerprint(blas_threads))
    return 0


if __name__ == "__main__":
    sys.exit(main())
