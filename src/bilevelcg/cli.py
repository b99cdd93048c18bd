"""Command-line entry point: run experiment families, verification suites,
and declarative suite files, emitting trace CSVs and summary JSONs."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .core import SolverConfig
from .harness import CONFIG_KEYS, INSTANCE_OPTIONS, SOLVERS, SuiteError, config_to_dict, run_experiment


def _solver_list(text: str) -> list[str]:
    """The solver names of a comma-separated list; naming none is a usage
    error."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        raise argparse.ArgumentTypeError(f"no solver named in {text!r}")
    return names


def _add_common(sub: argparse.ArgumentParser) -> None:
    # One flag per config key, with the kind and default SolverConfig gives.
    defaults = config_to_dict(SolverConfig())
    for key, kind in CONFIG_KEYS.items():
        sub.add_argument("--" + key.replace("_", "-"), type=kind, default=defaults[key],
                         help="harmonic:c | constant:g | inv-sqrt:c0" if key == "schedule" else None)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", default="runs", help="output directory")
    sub.add_argument("--record-timing", action="store_true",
                     help="keep wall-clock columns (breaks byte-identical reruns)")
    sub.add_argument("--solvers", type=_solver_list, default="cg-bio",
                     help="comma-separated: " + ",".join(SOLVERS))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bilevelcg",
        description="Projection-free solvers for simple bilevel optimization",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("toy", "analytic two-variable instance"),
        ("regression", "over-parameterized regression (synthetic or CSV)"),
        ("fair", "fair logistic classification (synthetic or CSV)"),
        ("dict", "bilevel dictionary learning (synthetic)"),
    ):
        sub = subs.add_parser(name, help=help_text)
        _add_common(sub)
        if name in ("regression", "fair"):
            sub.add_argument("--n", type=int, default=None, help="synthetic sample count")
            sub.add_argument("--d", type=int, default=None, help="synthetic feature count")
            sub.add_argument("--csv", default=None, help="dataset CSV path")
            sub.add_argument("--target", default=None, help="target column name")
        if name == "fair":
            sub.add_argument("--sensitive", default=None, help="sensitive column name")
        if name in ("regression", "fair", "dict"):
            sub.add_argument("--l1-radius", type=float, default=None)

    ver = subs.add_parser("verify", help="run the invariant verification suites")
    ver.add_argument("--group", action="append", default=None,
                     help="cuts|descent|convex-rates|nonconvex-rates|transfer|oracles|gradients "
                          "(repeatable; default all)")

    suite = subs.add_parser("suite", help="execute a declarative JSON suite file")
    suite.add_argument("path", help="JSON list of cells {instance, solver, config, seed}")
    suite.add_argument("--out", default="runs")
    suite.add_argument("--jobs", type=int, default=None,
                       help="processes running cells, this one included (default: the usable CPUs)")
    suite.add_argument("--record-timing", action="store_true")
    return parser


def _family_cells(args) -> list[dict]:
    config = {key: getattr(args, key) for key in CONFIG_KEYS}
    # The family's options that the command line sets.
    options = {key: getattr(args, key) for key in INSTANCE_OPTIONS[args.command]
               if getattr(args, key, None) is not None}
    return [
        {
            "instance": args.command,
            "solver": solver,
            "config": config,
            "seed": args.seed,
            "options": options,
        }
        for solver in args.solvers
    ]


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    if args.command == "verify":
        from .checks import verify

        try:
            ok, results = verify(args.group)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for label, passed, detail in results:
            print(f"{'PASS' if passed else 'FAIL'}  {label}  ({detail})")
        return 0 if ok else 1

    if args.command == "suite":
        try:
            with open(args.path, encoding="utf-8") as fh:
                cells = json.load(fh)
            if not isinstance(cells, list):
                raise ValueError(f"expected a JSON list of cells, got {type(cells).__name__}")
        except (OSError, ValueError) as exc:
            print(f"error: {args.path}: {exc}", file=sys.stderr)
            return 2
    else:
        cells = _family_cells(args)
    try:
        summaries = run_experiment(cells, args.out, jobs=getattr(args, "jobs", None),
                                   record_timing=args.record_timing)
    except SuiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed = False
    for summary in summaries:
        reason = summary.get("stop_reason", "")
        if reason.startswith("error"):
            failed = True
        start = ""
        if "certified" in summary:
            verdict = "certified" if summary["certified"] else "NOT certified"
            start = f"; start {verdict}, certificate {summary['init_certificate']}"
        print(
            f"{summary.get('instance')}/{summary.get('solver')}: {reason} "
            f"after {summary.get('iterations')} iterations "
            f"(f-gap {summary.get('final_f_gap')}, g-gap {summary.get('final_g_gap')}{start})"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
