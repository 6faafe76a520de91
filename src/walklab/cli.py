"""Command-line interface.

Subcommands expose the analytic laws (dist), derived constants
(constants), the admissible-region boundary (boundary), the exact
finite-horizon oracles (oracle), the simulation engine (simulate) and
the verification suite (verify).  Every run that writes files also
writes a JSON manifest with the resolved parameters, seed, version and
wall-clock, sufficient to replay the run bit-exactly.

Exit codes: 0 success, 1 validation or usage error, 2 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__, boundary, closedform, montecarlo, oracle, verify
from .errors import BudgetError, DomainError, ValidationError
from .model import make_params

__all__ = ["main", "build_parser"]


def _fmt(x):
    """Floats rendered with 12 significant digits; other values as-is."""
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, dict):
        return {k: _fmt(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_fmt(v) for v in x]
    return x


def _default_seed() -> int:
    seed = os.environ.get("WALKLAB_SEED", "0")
    try:
        return int(seed)
    except ValueError:
        raise ValidationError(f"WALKLAB_SEED must be an integer, got {seed!r}") from None


def _write_outputs(args, payload: dict, csv_rows=None, csv_header=None) -> None:
    """Emit the primary output and, when writing files, a run manifest."""
    as_csv = getattr(args, "format", "json") == "csv" and csv_rows is not None
    if as_csv:
        lines = [",".join(csv_header)]
        lines += [",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row)
                  for row in csv_rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(_fmt(payload), indent=2) + "\n"

    if args.out is None:
        sys.stdout.write(text)
        return
    with open(args.out, "w") as fh:
        fh.write(text)
    manifest = {
        "command": " ".join(sys.argv[1:]),
        "parameters": _fmt(
            {k: v for k, v in vars(args).items()
             if k != "func" and not k.startswith("_")}
        ),
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "wall_clock_seconds": _fmt(time.perf_counter() - args._start),
        "outputs": [args.out],
    }
    with open(args.out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out} (+ manifest)")


def cmd_constants(args) -> int:
    params = make_params(args.p)
    pts = boundary.extremal_points(params)
    payload = {
        "p": params.p,
        "q": params.q,
        "h": params.h,
        "gamma0": params.gamma0,
        "lambda0": params.lambda0,
        "kappa0": params.kappa0,
        "beta": params.beta,
        "wlimit": params.wlimit,
        "theta": {str(z): params.theta(z) for z in range(1, 6)},
        "extremal_points": {
            name: {"x": pt.x, "y": pt.y} for name, pt in pts.items()
        },
    }
    _write_outputs(args, payload)
    return 0


def _dist_table(args):
    params = make_params(args.p)
    law = args.law
    if law == "first-return":
        support = list(range(1, args.kmax + 1))
        mass = [closedform.first_return_pmf(params, n) for n in support]
        tail, _, _ = closedform.return_tail(params, 2 * args.kmax + 2)
        rows = [(2 * n, m) for n, m in zip(support, mass)]
        return rows, ("steps", "mass"), tail
    if law == "local-time":
        t = closedform.local_time_pmf(params, args.z, args.kmax)
    elif law == "two-point":
        t = closedform.two_point_occupation_pmf(params, args.z, args.side, args.kmax)
    elif law == "sphere":
        t = closedform.sphere_occupation_pmf(params, args.kmax)
    elif law == "ball":
        t = closedform.ball_occupation_pmf(params, args.kmax)
    elif law == "excursion":
        finite, infinite = closedform.excursion_visits_pmf(params, args.z, args.kmax)
        rows = [("finite", int(k), m) for k, m in zip(finite.support, finite.mass)]
        rows += [("infinite", int(k), m) for k, m in zip(infinite.support, infinite.mass)]
        return rows, ("branch", "visits", "mass"), finite.tail_bound + infinite.tail_bound
    elif law == "center-sphere-joint":
        rows = []
        for big_l in range(1, args.kmax + 1):
            for big_k in range(0, big_l + 1):
                try:
                    rows.append(
                        (big_l, big_k,
                         closedform.center_sphere_joint_pmf(
                             params, args.start, big_k, big_l))
                    )
                except ValidationError:
                    continue
        return rows, ("sphere_visits", "center_visits", "mass"), None
    else:  # pragma: no cover - argparse restricts choices
        raise ValidationError(f"unknown law {law!r}")
    rows = [(int(k), m) for k, m in zip(t.support, t.mass)]
    return rows, ("count", "mass"), t.tail_bound


def cmd_dist(args) -> int:
    if args.law in ("local-time", "two-point", "excursion") and args.z is None:
        raise ValidationError(f"law {args.law!r} requires --z")
    rows, header, tail = _dist_table(args)
    payload = {
        "law": args.law,
        "p": args.p,
        "columns": list(header),
        "rows": rows,
        "tail_bound": tail,
    }
    _write_outputs(args, payload, csv_rows=rows, csv_header=header)
    return 0


def cmd_boundary(args) -> int:
    params = make_params(args.p)
    rows = boundary.boundary_polyline(params, args.gridsize)
    for name, pt in boundary.extremal_points(params).items():
        rows.append((pt.x, pt.y, f"extremal:{name}"))
    payload = {
        "p": args.p,
        "columns": ["x", "y", "branch"],
        "rows": rows,
        "weight_limit": boundary.weight_limit(params).wlimit,
    }
    _write_outputs(args, payload, csv_rows=rows, csv_header=("x", "y", "branch"))
    return 0


def cmd_oracle(args) -> int:
    params = make_params(args.p)
    functionals = [oracle.local_time(s, args.cap) for s in args.sites]
    if args.mode == "enum":
        law = oracle.enumerate_paths(params, args.n, functionals)
    elif args.mode == "dp":
        law = oracle.dp_law(params, args.n, functionals)
    else:
        law = oracle.infinite_law(params, functionals, args.eps)
    payload = {
        "p": args.p,
        "mode": args.mode,
        "sites": args.sites,
        "cap": args.cap,
        "horizon": law.horizon,
        "certificate": law.certificate,
        "overflow_mass": law.overflow_mass,
        "table": law.table.tolist(),
    }
    _write_outputs(args, payload)
    return 0


def cmd_simulate(args) -> int:
    params = make_params(args.p)
    config = montecarlo.SimConfig(
        params=params, n=args.n, replicas=args.replicas, seed=args.seed
    )
    if args.replicas == 1:
        payload = montecarlo.path_report(config).to_dict()
    else:
        payload = montecarlo.ensemble(config, args.statistic).to_dict()
    payload["seed"] = args.seed
    _write_outputs(args, payload)
    return 0


def cmd_verify(args) -> int:
    results = verify.run_suite(p=args.p, level=args.level, seed=args.seed)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.number:2d} {r.name} ({r.seconds:.1f}s)")
        print(f"        measured: {r.measured}")
        print(f"        expected: {r.expected}")
    payload = {
        "p": args.p,
        "level": args.level,
        "seed": args.seed,
        "results": [r.to_dict() for r in results],
        "all_passed": all(r.passed for r in results),
    }
    if args.out is not None:
        _write_outputs(args, payload)
    return 0 if payload["all_passed"] else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walklab",
        description="Local-time and occupation statistics of the "
        "upward-biased nearest-neighbor walk on the integers.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--config",
        default=None,
        help="JSON file supplying default values for any flag (flags win)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp, seed=False):
        sp.add_argument("--p", type=float, default=0.75, help="up-step probability")
        sp.add_argument("--out", default=None, help="output file (manifest written alongside)")
        if seed:
            sp.add_argument(
                "--seed", type=int, default=_default_seed(),
                help="RNG seed (default: WALKLAB_SEED env var or 0)",
            )

    sp = sub.add_parser("constants", help="derived constants as JSON")
    common(sp)
    sp.set_defaults(func=cmd_constants)

    sp = sub.add_parser("dist", help="closed-form distribution tables")
    sp.add_argument(
        "law",
        choices=["first-return", "local-time", "two-point",
                 "center-sphere-joint", "sphere", "ball", "excursion"],
    )
    common(sp)
    sp.add_argument("--z", type=int, default=None, help="site (law-dependent)")
    sp.add_argument("--side", choices=["pos", "neg"], default="pos")
    sp.add_argument("--start", type=int, choices=[0, 1, -1], default=0)
    sp.add_argument("--kmax", type=int, default=30, help="last listed outcome")
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.set_defaults(func=cmd_dist)

    sp = sub.add_parser("boundary", help="admissible-region boundary polyline")
    common(sp)
    sp.add_argument("--gridsize", type=int, default=200)
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.set_defaults(func=cmd_boundary)

    sp = sub.add_parser("oracle", help="exact finite/infinite-horizon laws")
    common(sp)
    sp.add_argument("--mode", choices=["dp", "enum", "infinite"], default="dp")
    sp.add_argument("--n", type=int, default=200, help="horizon (dp/enum modes)")
    sp.add_argument("--sites", type=int, nargs="+", default=[0])
    sp.add_argument("--cap", type=int, default=20, help="counter pooling cap")
    sp.add_argument("--eps", type=float, default=1e-9, help="infinite-mode certificate")
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("simulate", help="single-path report or replica ensemble")
    common(sp, seed=True)
    sp.add_argument("--n", type=int, default=10**6,
                    help="path horizon in steps (>= 2; ensembles ignore it)")
    sp.add_argument("--replicas", type=int, default=1)
    sp.add_argument(
        "--statistic", default="local_time:0",
        help="ensemble statistic (exact infinite-time counts; --n is ignored): "
        "local_time:Z, sphere_occupation, ball_occupation, two_point_pos:Z, "
        "two_point_neg:Z, no_return",
    )
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("verify", help="run the built-in verification suite")
    common(sp, seed=True)
    sp.add_argument("--level", choices=sorted(verify.LEVELS), default="desk")
    sp.set_defaults(func=cmd_verify)

    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Load --config defaults; explicit flags take precedence by
    construction (argparse parses flags after defaults are set)."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if known.config is not None:
        with open(known.config) as fh:
            defaults = json.load(fh)
        if not isinstance(defaults, dict):
            raise ValidationError(f"config {known.config} must hold a JSON object")
        for action in parser._subparsers._group_actions[0].choices.values():
            action.set_defaults(**{
                k: v for k, v in defaults.items()
                if any(a.dest == k for a in action._actions)
            })


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = build_parser()
        _apply_config(parser, argv)
        args = parser.parse_args(argv)
        args._start = time.perf_counter()
        return args.func(args)
    except (ValidationError, DomainError, BudgetError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # exit code 2 is reserved for verification failures; argparse
        # usage errors map to 1
        if exc.code not in (0, None):
            return 1
        return 0


if __name__ == "__main__":
    sys.exit(main())
