"""Command-line front end: runs, sweeps, bound tables, and ML queries.

Configs are JSON objects with a `schema_version` field and sections for the
problem, the flow law, initial conditions, integration options, and output
paths (documented in the README).  Trajectory CSVs carry 9-significant-digit
values and are byte-deterministic for identical configs.

Exit codes: 0 success, 2 usage/config/domain error or an unwritable output
path, 3 simulation failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys

from .flows import (
    _LAW_KEYS,
    ConditionNotMetError,
    FlowLaw,
    InsufficientConstantsError,
    SingularityError,
    _law_from,
    bound_finite_time,
    bound_fixed_time_fractional,
    bound_fixed_time_second_order,
)
from .problems import quadratic_problem, zakharov_problem
from .sim import DivergenceError, SimOptions, applicable_bound, integrate, sweep
from .special import (
    MLSpec,
    ZeroQuery,
    ZeroSearchError,
    ml_eval,
    ml_first_positive_zero,
)

SCHEMA_VERSION = 1

_TABLE_EXPONENTS = (1.7, 1.5, 1.3, 1.1, 1.05)

_TOP_LEVEL_KEYS = {"schema_version", "problem", "flow", "initial", "variations", "sim", "output"}


class ConfigError(ValueError):
    """A config file is unreadable, malformed, or fails validation."""


def _section(obj, what: str, allowed, required=()) -> dict:
    """`obj` when it is a JSON object with only `allowed` keys and every `required` one."""
    if not isinstance(obj, dict):
        raise ConfigError("%s must be a JSON object" % what)
    unknown = obj.keys() - allowed
    if unknown:
        raise ConfigError("unknown keys in %s: %s" % (what, ", ".join(sorted(unknown))))
    missing = [key for key in required if key not in obj]
    if missing:
        raise ConfigError("%s needs %s" % (what, " and ".join(missing)))
    return obj


def _load_config(path: str) -> dict:
    try:
        with open(path, "r") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc))
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError("%s is not valid JSON: %s" % (path, exc))
    _section(cfg, "config", _TOP_LEVEL_KEYS)
    version = cfg.get("schema_version")
    # the int itself: JSON true and 1.0 compare equal to 1
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigError(
            "config must declare schema_version %d, got %r" % (SCHEMA_VERSION, version)
        )
    return cfg


def _build_problem(cfg: dict):
    section = _section(
        cfg.get("problem"), "problem section", {"name", "matrix", "dimension"}, ("name",)
    )
    name = section["name"]
    if name == "quadratic":
        param, factory = "matrix", quadratic_problem
    elif name == "zakharov":
        param, factory = "dimension", zakharov_problem
    else:
        raise ConfigError("unknown problem name %r (choose quadratic or zakharov)" % (name,))
    _section(section, "%s problem" % name, {"name", param}, (param,))
    try:
        return factory(section[param])
    except (ValueError, TypeError) as exc:
        raise ConfigError("invalid problem parameters: %s" % exc)


def _build_flow(cfg: dict) -> FlowLaw:
    section = _section(cfg.get("flow"), "flow section", _LAW_KEYS, ("variant", "rho", "alpha"))
    try:
        return _law_from(section)
    except (ValueError, TypeError) as exc:
        raise ConfigError("invalid flow law: %s" % exc)


def _build_sim(cfg: dict, args) -> SimOptions:
    section = _section(
        cfg.get("sim", {}), "sim section", {"step", "horizon", "eps_x", "eps_g", "record_stride"}
    )
    kwargs = dict(section)
    if getattr(args, "step", None) is not None:
        kwargs["step"] = args.step
    if getattr(args, "horizon", None) is not None:
        kwargs["horizon"] = args.horizon
    try:
        return SimOptions(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError("invalid sim options: %s" % exc)


def _output_paths(cfg: dict, args, default_prefix: str):
    section = _section(cfg.get("output", {}), "output section", {"directory", "prefix"})
    directory = section.get("directory", ".")
    if getattr(args, "out", None) is not None:
        directory = args.out
    prefix = section.get("prefix", default_prefix)
    for key, value in (("directory", directory), ("prefix", prefix)):
        if not isinstance(value, str) or not value:
            raise ConfigError("output %s must be a non-empty string" % key)
    return directory, prefix


def _fmt(value: float) -> str:
    return "%.9g" % value


def _write_text(directory: str, name: str, text: str) -> str:
    """Write `text` to the file `name` in `directory`, creating it; returns the path.

    An unwritable path (say, a directory that is an existing file) raises
    ConfigError naming it, so the command exits with code 2.
    """
    path = os.path.join(directory, name)
    try:
        os.makedirs(directory, exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError("cannot write %s: %s" % (path, exc))
    return path


def _trajectory_csv(traj) -> str:
    n = traj.states.shape[1]
    lines = ["t," + ",".join("x_%d" % (i + 1) for i in range(n)) + ",theta,V"]
    for i in range(len(traj.times)):
        cells = [_fmt(traj.times[i])]
        cells.extend(_fmt(v) for v in traj.states[i])
        cells.append(_fmt(traj.gains[i]) if traj.gains is not None else "")
        cells.append(_fmt(traj.lyapunov[i]) if traj.lyapunov is not None else "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _sanitize(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", label).strip("_") or "run"


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    problem = _build_problem(cfg)
    law = _build_flow(cfg)
    opts = _build_sim(cfg, args)
    x0 = cfg.get("initial")
    if x0 is None:
        raise ConfigError("run needs an initial section (a state vector)")
    directory, prefix = _output_paths(cfg, args, "run")

    try:
        traj = integrate(law, problem, x0, opts)
    except (ValueError, TypeError) as exc:
        raise ConfigError("invalid initial state: %s" % exc)

    bound_payload = None
    bound_error = None
    try:
        report = applicable_bound(law, problem, x0)
        if traj.convergence_time is not None:
            report = report.with_observed(traj.convergence_time)
        bound_payload = dataclasses.asdict(report)
    except (InsufficientConstantsError, ConditionNotMetError, ZeroSearchError) as exc:
        bound_error = str(exc)

    csv_path = _write_text(directory, prefix + ".csv", _trajectory_csv(traj))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg,
        "converged": traj.convergence_time is not None,
        "convergence_time": traj.convergence_time,
        "final_state": [float(v) for v in traj.final_state],
        "final_gain": float(traj.gains[-1]) if traj.gains is not None else None,
        "diagnostics": dict(traj.diagnostics),
        "bound": bound_payload,
        "bound_error": bound_error,
    }
    report = json.dumps(payload, indent=2) + "\n"
    report_path = _write_text(directory, prefix + "_report.json", report)

    if traj.convergence_time is not None:
        line = "converged at t=%s" % _fmt(traj.convergence_time)
    else:
        line = "no convergence before t=%s" % _fmt(opts.horizon)
    if bound_payload is not None:
        line += "  bound=%s (%s)" % (_fmt(bound_payload["bound"]), bound_payload["rule"])
    print(line)
    print("wrote %s and %s" % (csv_path, report_path))
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    problem = _build_problem(cfg)
    law = _build_flow(cfg)
    opts = _build_sim(cfg, args)
    variations = cfg.get("variations")
    if not isinstance(variations, list) or not all(isinstance(v, dict) for v in variations):
        raise ConfigError("sweep needs a variations list of objects")
    directory, prefix = _output_paths(cfg, args, "sweep")

    entries = sweep(law, problem, variations, opts, x0=cfg.get("initial"))

    summary_lines = ["label,convergence_time,bound,status"]
    for i, entry in enumerate(entries):
        if entry.trajectory is not None:
            name = "%s_%02d_%s.csv" % (prefix, i, _sanitize(entry.label))
            _write_text(directory, name, _trajectory_csv(entry.trajectory))
        if entry.error is not None:
            status = "error: " + entry.error.replace("\n", " ")
        elif entry.trajectory.convergence_time is None:
            status = "no_detection"
        else:
            status = "ok"
        ct = entry.trajectory.convergence_time if entry.trajectory is not None else None
        cells = [
            '"%s"' % entry.label.replace('"', "'"),
            _fmt(ct) if ct is not None else "",
            _fmt(entry.bound.bound) if entry.bound is not None else "",
            '"%s"' % status.replace('"', "'"),
        ]
        summary_lines.append(",".join(cells))
        print("%-24s %-12s %s" % (entry.label, _fmt(ct) if ct is not None else "-", status))
    summary_path = _write_text(directory, prefix + "_summary.csv", "\n".join(summary_lines) + "\n")
    print("wrote %s" % summary_path)

    if entries and all(e.error is not None for e in entries):
        return 3
    return 0


def _fold_kind(raw: str) -> str:
    """A zero kind as typed, with case and a `form` suffix folded away."""
    key = raw.strip().lower()
    return key[: -len("form")] if key.endswith("form") else key


def cmd_ml(args) -> int:
    if args.ml_command == "eval":
        value = ml_eval(MLSpec(args.alpha, args.beta), args.z, tol=args.tol)
        print("%.12g" % value)
        return 0
    if args.ml_command == "zero":
        query = ZeroQuery(alpha=args.alpha, rho=args.rho, kind=_fold_kind(args.kind))
        zero = ml_first_positive_zero(query, tol=args.tol)
        print("%.9g" % zero)
        return 0
    # table: first positive zeros of the standard form at unit rate
    print("alpha  first_zero")
    for a in _TABLE_EXPONENTS:
        query = ZeroQuery(alpha=a, rho=1.0, kind="standard")
        zero = ml_first_positive_zero(query, tol=1e-6)
        print("%-6.4g %.6f" % (a, zero))
    return 0


def cmd_bounds(args) -> int:
    L, mu, rho, alpha, d, beta = (
        args.lipschitz, args.strong_convexity, args.rho, args.alpha, args.distance, args.beta
    )
    # (rule, the flags it still needs, its bound) in print order; at alpha = 2
    # the general finite-time rule is the alpha-2 rule and has no row of its own
    no_distance = "--distance" if d is None else None
    rules = (
        ("finite_time_alpha2", no_distance, lambda: bound_finite_time(L, rho, 2.0, d)),
        (
            "finite_time_general",
            no_distance,
            None if alpha == 2.0 else lambda: bound_finite_time(L, rho, alpha, d, mu),
        ),
        (
            "fixed_time_second_order",
            "--strong-convexity" if mu is None else None,
            lambda: bound_fixed_time_second_order(L, mu, rho, alpha, lam=args.lam or 0.0),
        ),
        (
            "fixed_time_fractional",
            "--strong-convexity and --beta" if mu is None or beta is None else None,
            lambda: bound_fixed_time_fractional(L, mu, rho, alpha, beta),
        ),
    )
    applicable = 0
    for rule, missing, compute in rules:
        if missing:
            print("%-24s inapplicable: needs %s" % (rule, missing))
        elif compute is not None:
            try:
                report = compute()
            except (ValueError, ZeroSearchError) as exc:
                print("%-24s inapplicable: %s" % (rule, exc))
                continue
            applicable += 1
            line = "%-24s bound=%s" % (rule, _fmt(report.bound))
            if report.extras:
                line += "  [%s]" % ", ".join(
                    "%s=%s" % (k, _fmt(v)) for k, v in sorted(report.extras.items())
                )
            print(line)
    if applicable == 0:
        print("no applicable convergence-time guarantee for these constants", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradflows",
        description="Finite- and fixed-time gradient-flow experiments",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed",
        type=int,
        default=None,
        help="accepted for interface stability; every computation is deterministic",
    )
    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--config", required=True, help="path to a JSON config")
    io.add_argument("--out", default=None, help="output directory (overrides the config)")
    io.add_argument("--step", type=float, default=None, help="override the integration step")
    io.add_argument("--horizon", type=float, default=None, help="override the time horizon")

    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[common, io], help="one trajectory from a config")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser(
        "sweep", parents=[common, io], help="a family of trajectories from a config"
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_ml = sub.add_parser("ml", parents=[common], help="special-function queries")
    mlsub = p_ml.add_subparsers(dest="ml_command", required=True)
    p_eval = mlsub.add_parser("eval", parents=[common], help="evaluate the two-parameter series")
    p_eval.add_argument("--alpha", type=float, required=True)
    p_eval.add_argument("--beta", type=float, default=1.0)
    p_eval.add_argument("--z", type=float, required=True)
    p_eval.add_argument("--tol", type=float, default=1e-9)
    p_eval.set_defaults(func=cmd_ml)
    p_zero = mlsub.add_parser("zero", parents=[common], help="first positive zero")
    p_zero.add_argument("--alpha", type=float, required=True)
    p_zero.add_argument("--rho", type=float, default=1.0)
    p_zero.add_argument("--kind", default="standard", help="standard or kernel")
    p_zero.add_argument("--tol", type=float, default=1e-6)
    p_zero.set_defaults(func=cmd_ml)
    p_table = mlsub.add_parser("table", parents=[common], help="reference zero table at unit rate")
    p_table.set_defaults(func=cmd_ml)

    p_bounds = sub.add_parser(
        "bounds", parents=[common], help="evaluate every applicable guarantee"
    )
    p_bounds.add_argument("--lipschitz", type=float, required=True)
    p_bounds.add_argument("--strong-convexity", type=float, default=None)
    p_bounds.add_argument("--rho", type=float, required=True)
    p_bounds.add_argument("--alpha", type=float, required=True)
    p_bounds.add_argument("--lam", type=float, default=None)
    p_bounds.add_argument("--beta", type=float, default=None)
    p_bounds.add_argument("--distance", type=float, default=None)
    p_bounds.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (DivergenceError, SingularityError) as exc:
        print("simulation failed: %s" % exc, file=sys.stderr)
        return 3
    except (ValueError, ZeroSearchError, OverflowError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
