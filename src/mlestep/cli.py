"""Command-line interface: simulate | estimate | kde | mc.

Every output file embeds the configuration that produced it, so runs can be
reproduced from the files alone. The default output directory is taken from
the MLESTEP_OUTDIR environment variable, falling back to the current
directory. ``--log-level INFO`` prints the package's log records (such as
domain projections) on standard error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .density import _check_bandwidth, kde, write_density_csv
from .errors import MlestepError
from .fisher import FISHER_METHODS
from .mc import mc_config_from_dict, run_study, write_report_csv, write_report_json
from .models import builtin_model_names, get_model
from .process import (
    PRELIMINARY_KINDS,
    PROCESS_KINDS,
    Pipeline,
    path_to_json_dict,
    write_path_csv,
)
from .simulate import (
    _read_json,
    _write_json,
    read_trajectory_json,
    simulate,
    write_trajectory_csv,
    write_trajectory_json,
)


def _resolve_out(args, default_name: str) -> Path:
    base = Path(args.outdir or os.environ.get("MLESTEP_OUTDIR") or ".")
    out = Path(args.out) if args.out else base / default_name
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


# the flags that fix a simulated chain, by argparse dest
_CHAIN_FLAGS = ("model", "theta", "n", "seed", "burn_in", "x_init")


def _load_or_simulate(args):
    """Trajectory from --input, or simulated inline from the model flags."""
    if getattr(args, "input", None):
        given = [f"--{name.replace('_', '-')}" for name in _CHAIN_FLAGS
                 if getattr(args, name) is not None]
        if given:
            raise MlestepError(
                f"--input fixes the chain; it cannot be combined with {', '.join(given)}"
            )
        traj = read_trajectory_json(args.input)
        model = get_model(traj.model_name)
        return traj, model
    if args.model is None or args.theta is None or args.n is None:
        raise MlestepError("provide --input, or --model/--theta/--n to simulate inline")
    model = get_model(args.model)
    chain = {name: getattr(args, name) for name in ("seed", "burn_in", "x_init")
             if getattr(args, name) is not None}
    traj = simulate(model, np.asarray(args.theta, dtype=float), args.n, **chain)
    return traj, model


def _add_sim_flags(sub, require_model: bool) -> None:
    """The chain flags. --seed, --burn-in and --x-init default to None, which
    takes simulate's default, so that one given beside --input is refused."""
    sub.add_argument("--model", required=require_model, choices=builtin_model_names())
    sub.add_argument("--theta", type=float, nargs="+", required=require_model,
                     help="true parameter value(s)")
    sub.add_argument("--n", type=int, required=require_model,
                     help="number of transitions to simulate")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--burn-in", dest="burn_in", type=int)
    sub.add_argument("--x-init", dest="x_init", type=float)


def cmd_simulate(args) -> int:
    traj, _ = _load_or_simulate(args)
    out = _resolve_out(args, f"trajectory_{traj.model_name}_{traj.seed}.{args.format}")
    if args.format == "csv":
        write_trajectory_csv(traj, out)
    else:
        write_trajectory_json(traj, out)
    print(json.dumps({"written": str(out), "config": traj.meta()}))
    return 0


def cmd_estimate(args) -> int:
    pipeline = Pipeline(
        args.delta, args.preliminary, args.process, args.fisher, args.stride, args.grid_points
    )
    traj, model = _load_or_simulate(args)
    config = {"trajectory": traj.meta(), "n": traj.n, **asdict(pipeline)}
    prelim, path = pipeline.run(traj, model)

    out_csv = _resolve_out(args, f"path_{args.process}.csv")
    write_path_csv(path, out_csv, config=config)
    summary = {
        "preliminary": prelim.to_json_dict() if prelim is not None else None,
        "N": int(path.N),
        "terminal": path.terminal.tolist(),
        "path": path_to_json_dict(path),
        "config": config,
    }
    out_json = out_csv.with_suffix(".summary.json")
    _write_json(out_json, summary)
    print(json.dumps({"written": [str(out_csv), str(out_json)], "N": int(path.N),
                      "terminal": path.terminal.tolist()}))
    return 0


def cmd_kde(args) -> int:
    if args.bandwidth is not None:
        # refused before a chain is read or simulated
        _check_bandwidth(args.bandwidth)
    traj, _ = _load_or_simulate(args)
    est = kde(traj, bandwidth=args.bandwidth)
    config = {"trajectory": traj.meta(), "grid_points": est.grid.size}
    out = _resolve_out(args, "density.csv")
    write_density_csv(est, out, config=config)
    print(json.dumps({"written": str(out), "bandwidth": est.bandwidth, "rows": est.grid.size}))
    return 0


def cmd_mc(args) -> int:
    cfg = mc_config_from_dict(_read_json(args.config, "study config"))
    report = run_study(cfg, workers=args.workers)
    out_json = _resolve_out(args, "mc_report.json")
    write_report_json(report, out_json)
    out_csv = out_json.with_suffix(".csv")
    write_report_csv(report, out_csv)
    print(json.dumps({
        "written": [str(out_json), str(out_csv)],
        "replications_used": report.replications_used,
        "empirical_covariance": report.empirical_covariance.tolist(),
    }))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlestep",
        description="Estimator processes for nonlinear AR(1) Markov sequences",
    )
    parser.add_argument("--log-level", dest="log_level", type=str.upper, default="WARNING",
                        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                        help="print mlestep log records at this level and above on stderr")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--outdir", default=None,
                        help="output directory (default: $MLESTEP_OUTDIR or .)")
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="simulate a trajectory to a file",
                              parents=[common])
    _add_sim_flags(sim, require_model=True)
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    sim.add_argument("--out", default=None)
    sim.set_defaults(func=cmd_simulate)

    est = commands.add_parser("estimate", help="run an estimation pipeline",
                              parents=[common])
    _add_sim_flags(est, require_model=False)
    est.add_argument("--input", default=None, help="trajectory JSON file")
    est.add_argument("--delta", type=float, default=0.75,
                     help="learning interval exponent: N ~ n**delta")
    est.add_argument("--preliminary", choices=tuple(PRELIMINARY_KINDS), default=Pipeline.preliminary)
    # "none" writes no path
    est.add_argument("--process", choices=tuple(k for k in PROCESS_KINDS if k != "none"),
                     default=Pipeline.process)
    est.add_argument("--fisher", choices=FISHER_METHODS, default=Pipeline.fisher_method)
    est.add_argument("--stride", type=int, default=Pipeline.stride)
    est.add_argument("--grid-points", dest="grid_points", type=int, default=Pipeline.grid_points)
    est.add_argument("--out", default=None)
    est.set_defaults(func=cmd_estimate)

    den = commands.add_parser("kde", help="estimate the invariant density",
                              parents=[common])
    _add_sim_flags(den, require_model=False)
    den.add_argument("--input", default=None, help="trajectory JSON file")
    den.add_argument("--bandwidth", type=float, default=None)
    den.add_argument("--out", default=None)
    den.set_defaults(func=cmd_kde)

    mc = commands.add_parser("mc", help="run a Monte Carlo study from a config file",
                             parents=[common])
    mc.add_argument("--config", required=True, help="study config JSON file")
    mc.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                    help="worker processes (default: the CPU count, here %(default)s); "
                         "a study starts no more processes than it has seed blocks")
    mc.add_argument("--out", default=None)
    mc.set_defaults(func=cmd_mc)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # the handler lives for this call only, so repeated calls in one process
    # do not stack handlers
    logger = logging.getLogger("mlestep")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    level = logger.level
    logger.setLevel(args.log_level)
    logger.addHandler(handler)
    try:
        return args.func(args)
    except (MlestepError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
