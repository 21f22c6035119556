"""Command-line interface: solve, compare, rates, reference.

Exit codes: 0 success, 2 configuration error, 3 divergence.
"""

import argparse
import dataclasses
import functools
import json
import sys
import typing
from pathlib import Path

from . import bench
from .bench import ExperimentConfig, METHODS
from .errors import ConfigurationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3

# each field's type, followed by NoneType if the field is optional
_CONFIG_TYPES = {name: typing.get_args(kind) or (kind,)
                 for name, kind in typing.get_type_hints(ExperimentConfig).items()}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string",
               bool: "true or false", list: "a list of integers"}
# the fields a compare method spec may set; the rest are the command's
_SPEC_FIELDS = ("method", "alpha", "gamma", "tau", "sigma")


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
    parser.set_defaults(checkpoints=None)  # a field only a config file sets
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
    if not args.config:
        return {}
    values = json.loads(Path(args.config).read_text())
    if not isinstance(values, dict):
        raise ConfigurationError("a config file holds one JSON object")
    return values


def _accepts(kind, value):
    """Whether a config field of type ``kind`` takes ``value``: an int
    serves for a float, and only a bool for a bool."""
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    if kind is list:
        return isinstance(value, list) and all(type(k) is int for k in value)
    return isinstance(value, kind)


def _config_from(args, values, overrides=None):
    """``values`` overlaid with the flags that are set, then ``overrides``;
    each key of ``values`` needs a flag here, and each value its field's type."""
    refused = values.keys() - (_CONFIG_TYPES.keys() & vars(args).keys())
    if refused:
        raise ConfigurationError(f"{args.command} takes no config keys {sorted(refused)}")
    for name in _CONFIG_TYPES:
        cli_val = getattr(args, name, None)
        if cli_val is not None:
            values[name] = cli_val
    if overrides:
        values.update(overrides)
    for name, value in values.items():
        kind, *optional = _CONFIG_TYPES[name]
        if not (value is None and optional or _accepts(kind, value)):
            raise ConfigurationError(
                f"config key {name!r} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return ExperimentConfig(**values).validate()


def _parse_method_token(token):
    """'pd:10' -> {'method': 'pd', 'alpha': 10.0}; 'flag' -> {'method': 'flag'}."""
    name, _, arg = token.partition(":")
    return {"method": name, "alpha": float(arg)} if arg else {"method": name}


def cmd_solve(args):
    config = _config_from(args, _file_values(args))
    result = bench.run_experiment(config)
    if config.out:
        bench.emit(result.records, config.format, config.out)
    if result.records:
        last = result.records[-1]
        print(
            f"{config.method} k={last.k} velocity={last.velocity:.6e} "
            f"objective={last.objective:.10g} feasibility={last.feasibility:.6e}"
        )
    if result.diverged:
        print(f"run diverged at k={result.diverged_at}: {result.reason}; "
              "partial records written", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_compare(args):
    values = _file_values(args)
    method_specs = values.pop("methods", None)
    if not (method_specs is None or isinstance(method_specs, list) and method_specs
            and all(isinstance(spec, dict) for spec in method_specs)):
        raise ConfigurationError(
            f"methods must be a non-empty list of objects, got {method_specs!r}")
    if args.methods is not None or method_specs is None:
        tokens = "pd:5,pd:10,flag" if args.methods is None else args.methods
        method_specs = [_parse_method_token(t) for t in tokens.split(",")]
    configs = []
    for spec in method_specs:
        unknown = set(spec) - set(_SPEC_FIELDS)
        if unknown:
            raise ConfigurationError(f"a method spec sets only {', '.join(_SPEC_FIELDS)}; "
                                     f"got {sorted(unknown)}")
        # a shallow copy: the specs share the file's checkpoint list
        config = _config_from(args, dict(values), overrides=spec)
        out_dir = Path(config.out or "compare_out")  # set for the whole command
        tag = config.method if config.alpha is None else f"{config.method}_a{config.alpha:g}"
        config.out = str(out_dir / f"{tag}.{config.format}")
        if any(config.out == other.out for other in configs):
            raise ConfigurationError(f"two method specs would write {config.out}")
        configs.append(config)
    grid = bench.run_grid(configs, args.jobs)  # refuses a bad run before any runs
    out_dir.mkdir(parents=True, exist_ok=True)
    # by output file, in spec order; no two specs share a file
    results = dict.fromkeys(config.out for config in configs)
    for config, result in grid:
        bench.emit(result.records, config.format, config.out)
        # the table needs only the last record, as a copy: a view would keep
        # the run's columns alive
        results[config.out] = dataclasses.replace(result, records=list(result.records[-1:]))
        del result  # free the records before the next group runs
    diverged = False
    print(f"{'method':<12} {'k':>8} {'velocity':>13} {'objective':>16} {'feasibility':>13}")
    for out, result in results.items():
        name = Path(out).stem
        if result.diverged:
            diverged = True
            print(f"{name} diverged at k={result.diverged_at}: {result.reason}",
                  file=sys.stderr)
        if not result.records:
            continue
        last = result.records[-1]
        print(f"{name:<12} {last.k:>8} {last.velocity:>13.6e} "
              f"{last.objective:>16.10g} {last.feasibility:>13.6e}")
    return EXIT_DIVERGED if diverged else EXIT_OK


def cmd_rates(args):
    quantities = args.quantities.split(",")
    unknown = [q for q in quantities if q not in bench._QUANTITIES]
    if unknown:
        raise ConfigurationError(f"unknown quantities {unknown}; choose from "
                                 f"{', '.join(bench._QUANTITIES)}")
    print(f"{'file':<32} {'quantity':<13} {'slope':>9} {'r2':>7} {'points':>7}")
    for path in args.files:
        records = bench.read_records_csv(path)
        for quantity in quantities:
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
    problem = config.build_problem()
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


@functools.cache
def _parser():
    """The parser, built once per process: building it takes about ten
    times as long as parsing, a cost in-process callers would pay on every
    command."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
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
