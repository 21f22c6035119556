"""The benchmark's workloads, each one ``fbsplit compare`` command.

Every workload is closed loop with one caller: the next command starts only
after the previous one has returned.  ``--jobs`` stays at 1.  The seed is
the only input that varies between runs of a workload.

Why these three:

* ``compare-large`` is the criterion-9 comparison shortened to 2e4
  iterations.  At (100, 500, 1000) the matrix products dominate a step, so
  it is where fewer or cheaper products (cached linear images, the exact
  operator norm) should show.
* ``sweep-small`` is an alpha sweep at (20, 50, 100), the per-step path of
  the 1e6-iteration reference solve.  Python overhead dominates a step, and
  its four same-method runs are where batched lockstep runs should show.
  Cached images should barely move it.
* ``inclusion-dense`` is the only workload on the inclusion form
  (projection, ``ffb``, the baselines) and, with a checkpoint at every
  iteration, the only one where checkpoint measurement and ``emit`` make up
  most of the time.  The primal-dual module does no work here.
"""

from dataclasses import dataclass

# Seed 1 is the instance the tier-1 tests use; seed 7 is held out for
# confirming claims on an instance that no change was written against.
TIER1_SEED = 1
HELD_OUT_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    size: tuple      # (m, p, n)
    runs: tuple      # (method, alpha or None, output stem) per compare run
    iters: int
    every_iteration: bool = False   # checkpoint at every k, via --config

    @property
    def methods(self):
        return {stem: method for method, _alpha, stem in self.runs}

    def method_specs(self):
        specs = []
        for method, alpha, _stem in self.runs:
            spec = {"method": method}
            if alpha is not None:
                spec["alpha"] = alpha
            specs.append(spec)
        return specs

    def config_file(self):
        """Contents of the ``--config`` file, or None when the methods go on
        the command line."""
        if not self.every_iteration:
            return None
        return {"methods": self.method_specs(),
                "checkpoints": list(range(1, self.iters + 1))}

    def argv(self, seed, out_dir, config_path=None):
        m, p, n = self.size
        args = ["compare"]
        if config_path is not None:
            args += ["--config", str(config_path)]
        else:
            tokens = [method if alpha is None else f"{method}:{alpha:g}"
                      for method, alpha, _stem in self.runs]
            args += ["--methods", ",".join(tokens)]
        return args + ["--m", str(m), "--p", str(p), "--n", str(n),
                       "--seed", str(seed), "--iters", str(self.iters),
                       "--out", str(out_dir)]


_INCLUSION = ("ffb", "ffb_xi", "fbs", "fast_km", "crifba", "lorenz_pock",
              "moudafi_oliny", "relaxed_inertial")
_ALPHA_TAGGED = ("ffb", "ffb_xi", "fast_km")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="compare-large",
            size=(100, 500, 1000),
            runs=(("pd", 5.0, "pd_a5"), ("pd", 10.0, "pd_a10"), ("flag", None, "flag")),
            iters=20_000,
        ),
        Workload(
            name="sweep-small",
            size=(20, 50, 100),
            runs=tuple(("pd", a, f"pd_a{a:g}") for a in (3.0, 5.0, 10.0, 20.0)),
            iters=100_000,
        ),
        Workload(
            name="inclusion-dense",
            size=(20, 50, 100),
            runs=tuple((m, None, f"{m}_a5" if m in _ALPHA_TAGGED else m)
                       for m in _INCLUSION),
            iters=20_000,
            every_iteration=True,
        ),
    )
}
