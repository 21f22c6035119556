"""Correctness gate for one repetition of a workload.

A repetition fails when any of these holds:

* the command's exit code is not 0 (``compare`` exits 3 on divergence), or
  it raised;
* an expected CSV is missing, its header is wrong, or its rows are not
  exactly the expected checkpoint set (a diverged run stops early);
* a column the method computes holds a non-finite value, or ``ns`` is not 0
  (timing is off, so output must not depend on the clock);
* on a seed with committed last rows, the final objective or feasibility
  leaves the tolerance below.

Byte identity between repetitions is checked by the caller from
:attr:`Outcome.digest`.
"""

import hashlib
import math
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path

import numpy as np

CSV_HEADER = "k,velocity,rtan,rfix,objective,feasibility,gap,ns"
_COLUMN = {name: i for i, name in enumerate(CSV_HEADER.split(","))}

# the columns each method computes; the others read NaN by design
_FFB_COLUMNS = ("velocity", "rtan", "rfix", "objective", "feasibility")
_BASELINE_COLUMNS = ("velocity", "rfix", "objective", "feasibility")
DEFINED = {"pd": ("velocity", "rtan", "objective", "feasibility"),
           "flag": ("velocity", "objective", "feasibility"),
           "ffb": _FFB_COLUMNS, "ffb_xi": _FFB_COLUMNS}

# Loose enough for the last-digit drift that reassociated arithmetic (cached
# linear images, batched columns) accumulates over 1e5 steps, tight enough
# that a wrong coefficient in a step, which moves an o(1/k) trajectory at
# the 1e-5 level by 2e4 iterations, is caught.  The three-sequence form
# pd_alt, the same iteration in other arithmetic, ends within 3e-11 of pd in
# objective and 6e-7 in feasibility at seed 1.  Feasibility is a residual
# norm that cancels, so it gets a looser share and an absolute floor for
# runs that reach the roundoff floor: there pd_alt and pd differ by 5e-11
# at a feasibility of 5e-11 (pd:20 after 1e5 steps).  The objective's
# absolute floor is for runs whose objective 0.5*||Bz - c||^2 sits at
# roundoff (about 1e-30 for fbs and the baselines on the inclusion form):
# there any reassociation changes it by a factor of order 1.  The floor
# admits any residual ||Bz - c|| below about 1e-10, 1e5 times roundoff.  The
# smallest objective above roundoff, about 1e-11 (ffb, fast_km), keeps a
# tolerance of 1e-18 from its relative share, which the floor barely widens.
OBJECTIVE_RTOL = 1e-7
OBJECTIVE_ATOL = 1e-20
FEASIBILITY_RTOL = 1e-3
FEASIBILITY_ATOL = 1e-9


@dataclass
class Outcome:
    problems: list = field(default_factory=list)
    iterations: int = 0
    digest: str = ""
    bytes: int = 0
    last_rows: dict = field(default_factory=dict)   # stem -> {k, objective, feasibility}

    @property
    def ok(self):
        return not self.problems


def expected_checkpoints(workload):
    """The checkpoint set a correct run emits, derived here rather than taken
    from the program: every k, or about 50 log-spaced k per decade always
    containing 1 and ``iters``."""
    iters = workload.iters
    if workload.every_iteration:
        return list(range(1, iters + 1))
    exponents = np.arange(0.0, math.log10(iters) + 1e-12, 1.0 / 50)
    ks = {int(k) for k in np.rint(10.0**exponents) if 1 <= k <= iters}
    ks.add(iters)
    return sorted(ks)


def _check_csv(path, columns, checkpoints, problems):
    """Check one CSV; return its last row's values or None."""
    idx = [_COLUMN[c] for c in columns]
    last = None
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            problems.append(f"{path.name}: header {header!r}")
            return None
        for row, (k, line) in enumerate(zip_longest(checkpoints, fh), start=2):
            if k is None or line is None:
                problems.append(f"{path.name}: {'extra' if k is None else 'missing'} "
                                f"rows from line {row}")
                return None
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(_COLUMN) or parts[0] != str(k):
                problems.append(f"{path.name}: line {row} is not checkpoint k={k}")
                return None
            if parts[-1] != "0":
                problems.append(f"{path.name}: line {row} carries a timing")
                return None
            try:
                values = [float(parts[i]) for i in idx]
            except ValueError:
                problems.append(f"{path.name}: line {row} does not parse")
                return None
            if not all(math.isfinite(v) for v in values):
                problems.append(f"{path.name}: non-finite value at k={k}")
                return None
            last = parts
    if last is None:
        problems.append(f"{path.name}: no rows")
        return None
    return {"k": int(last[0]),
            "objective": float(last[_COLUMN["objective"]]),
            "feasibility": float(last[_COLUMN["feasibility"]])}


def _digest(out_dir):
    h = hashlib.sha256()
    size = 0
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0")
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                h.update(chunk)
                size += len(chunk)
        h.update(b"\0")
    return h.hexdigest(), size


def _compare_rows(stem, got, want, problems):
    obj, feas = got["objective"], got["feasibility"]
    if got["k"] != want["k"] or not abs(obj - want["objective"]) <= (
            OBJECTIVE_RTOL * abs(want["objective"]) + OBJECTIVE_ATOL):
        problems.append(f"{stem}: objective {obj!r} at k={got['k']}, "
                        f"expected {want['objective']!r} at k={want['k']}")
    if not abs(feas - want["feasibility"]) <= (
            FEASIBILITY_RTOL * abs(want["feasibility"]) + FEASIBILITY_ATOL):
        problems.append(f"{stem}: feasibility {feas!r}, "
                        f"expected {want['feasibility']!r}")


def check(workload, out_dir, exit_code, expected_rows=None):
    """Gate one repetition's output directory; see the module docstring."""
    out_dir = Path(out_dir)
    outcome = Outcome()
    if exit_code != 0:
        outcome.problems.append(f"exit code {exit_code}")
    checkpoints = expected_checkpoints(workload)
    for stem, method in workload.methods.items():
        path = out_dir / f"{stem}.csv"
        if not path.is_file():
            outcome.problems.append(f"{path.name}: missing")
            continue
        columns = DEFINED.get(method, _BASELINE_COLUMNS)
        last = _check_csv(path, columns, checkpoints, outcome.problems)
        if last is None:
            continue
        outcome.last_rows[stem] = last
        outcome.iterations += last["k"]
        if expected_rows is not None:
            _compare_rows(stem, last, expected_rows[stem], outcome.problems)
    if out_dir.is_dir():
        outcome.digest, outcome.bytes = _digest(out_dir)
    return outcome
