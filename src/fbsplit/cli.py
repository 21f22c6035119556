"""Command-line interface: solve, compare, rates, reference.

Exit codes: 0 success, 2 configuration error, 3 divergence.
"""

import argparse
import dataclasses
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import bench
from .bench import ExperimentConfig, METHODS
from .errors import ConfigurationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def _add_common(parser):
    """The flags of every subcommand that builds a problem."""
    parser.add_argument("--alpha", type=float, default=None)
    parser.add_argument("--m", type=int, default=None)
    parser.add_argument("--p", type=int, default=None)
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--iters", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--problem-file", dest="problem_file", default=None)


def _add_run_options(parser):
    """The flags of the subcommands that run methods and emit records."""
    parser.add_argument("--gamma", type=float, default=None)
    parser.add_argument("--tau", type=float, default=None)
    parser.add_argument("--sigma", type=float, default=None)
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--reference", default=None,
                        help="saved reference solution (.npz) for the gap column")
    parser.add_argument("--timing", action="store_true", default=None,
                        help="record wall-clock ns (makes output nondeterministic)")


def _file_values(args):
    """The fields of the ``--config`` file, if one is given."""
    return json.loads(Path(args.config).read_text()) if args.config else {}


def _config_from(args, values, overrides=None):
    """``values`` overlaid with the flags that are set, then ``overrides``."""
    for name in _CONFIG_FIELDS:
        cli_val = getattr(args, name, None)
        if cli_val is not None:
            values[name] = cli_val
    if overrides:
        values.update(overrides)
    unknown = set(values) - _CONFIG_FIELDS
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**values).validate()


def _parse_method_token(token):
    """'pd:10' -> ('pd', {'alpha': 10.0}); bare names pass through."""
    name, _, arg = token.partition(":")
    overrides = {"method": name}
    if arg:
        overrides["alpha"] = float(arg)
    return overrides


def _run_one(config):
    result = bench.run_experiment(config)
    if config.out:
        bench.emit(result.records, config.format, config.out)
    return result


def cmd_solve(args):
    config = _config_from(args, _file_values(args))
    result = _run_one(config)
    if result.records:
        last = result.records[-1]
        print(
            f"{config.method} k={last.k} velocity={last.velocity:.6e} "
            f"objective={last.objective:.10g} feasibility={last.feasibility:.6e}"
        )
    if result.diverged:
        print("run diverged; partial records written", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_compare(args):
    values = _file_values(args)
    method_specs = values.pop("methods", None)
    base = _config_from(args, values, overrides={"method": "ffb"})
    if args.methods:
        method_specs = [_parse_method_token(t) for t in args.methods.split(",")]
    if not method_specs:
        method_specs = [
            {"method": "pd", "alpha": 5.0},
            {"method": "pd", "alpha": 10.0},
            {"method": "flag"},
        ]
    out_dir = Path(base.out) if base.out else Path("compare_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    configs = []
    for spec in method_specs:
        unknown = set(spec) - _CONFIG_FIELDS
        if unknown:
            raise ConfigurationError(f"unknown method spec keys: {sorted(unknown)}")
        values = dataclasses.asdict(base)
        values.update(spec)
        alpha = values.get("alpha")
        tag = f"{values['method']}"
        if values["method"] in ("pd", "pd_alt", "ffb", "ffb_xi", "fast_km") and alpha:
            tag += f"_a{alpha:g}"
        values["out"] = str(out_dir / f"{tag}.{base.format}")
        configs.append(ExperimentConfig(**values).validate())
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_run_one, configs))
    else:
        results = [_run_one(c) for c in configs]
    diverged = False
    print(f"{'method':<12} {'k':>8} {'velocity':>13} {'objective':>16} {'feasibility':>13}")
    for config, result in zip(configs, results):
        diverged = diverged or result.diverged
        if not result.records:
            continue
        last = result.records[-1]
        name = Path(config.out).stem
        print(f"{name:<12} {last.k:>8} {last.velocity:>13.6e} "
              f"{last.objective:>16.10g} {last.feasibility:>13.6e}")
    return EXIT_DIVERGED if diverged else EXIT_OK


def cmd_rates(args):
    paths = args.files
    print(f"{'file':<32} {'quantity':<13} {'slope':>9} {'r2':>7} {'points':>7}")
    for path in paths:
        records = bench.read_records_csv(path)
        for quantity in args.quantities.split(","):
            try:
                fit = bench.fit_rate_slope(records, quantity, k_min=args.kmin)
            except ValueError as exc:
                print(f"{Path(path).name:<32} {quantity:<13} unusable ({exc})")
                continue
            print(f"{Path(path).name:<32} {quantity:<13} {fit.slope:>9.4f} "
                  f"{fit.r2:>7.4f} {fit.points:>7}")
    return EXIT_OK


def cmd_reference(args):
    # an iteration count given by flag or config file goes through unchanged,
    # so one below the reference floor is refused rather than replaced
    config = _config_from(args, {"iters": 1_000_000, **_file_values(args)},
                          overrides={"method": "pd"})
    problem = bench._build_problem(config)
    cache_dir = config.out or "refcache"
    ref = bench.reference_solution(problem, budget=config.iters, alpha=config.alpha,
                                   cache_dir=cache_dir)
    print(f"reference objective {ref.objective:.12g} cached in {cache_dir}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fbsplit",
        description="Splitting-method benchmark harness for constrained "
                    "nonsmooth least-squares instances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one method on one problem")
    _add_common(p_solve)
    _add_run_options(p_solve)
    p_solve.add_argument("--method", default=None,
                         help=f"one of: {', '.join(METHODS)}")
    p_solve.set_defaults(func=cmd_solve)

    p_cmp = sub.add_parser("compare", help="run a grid of methods on one problem")
    _add_common(p_cmp)
    _add_run_options(p_cmp)
    p_cmp.add_argument("--methods", default=None,
                       help="comma list of method tokens, e.g. pd:5,pd:10,flag")
    p_cmp.add_argument("--jobs", type=int, default=1)
    p_cmp.set_defaults(func=cmd_compare)

    p_rates = sub.add_parser("rates", help="slope report from stored CSV records")
    p_rates.add_argument("files", nargs="+")
    p_rates.add_argument("--quantities", default="velocity,rtan,rfix,feasibility")
    p_rates.add_argument("--kmin", type=int, default=1)
    p_rates.set_defaults(func=cmd_rates)

    p_ref = sub.add_parser("reference", help="build or refresh a reference solution")
    _add_common(p_ref)
    p_ref.set_defaults(func=cmd_reference)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
