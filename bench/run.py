"""bilevelcg benchmark.

Usage, from the root of a checkout:

    python3 bench/run.py --workload regression-cut --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Workloads and metrics are listed in BENCHMARK.json at the repository root.
A run builds the workload's inputs from ``--seed``, measures for about
``--seconds`` seconds (at least one solve), checks every output, prints a
human-readable report, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  ``--workload all`` runs each workload in its own process, one after
another, and prints every metric of every workload with a verdict.

The package is imported from ``src/`` of the checkout this file sits in;
without it the run fails.  BLAS runs one thread, so runs are comparable
across machines and never exceed the processor count.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("regression-cut", "dictionary", "reference", "baselines-suite")
BLAS_THREADS = "1"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description="bilevelcg benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Measure one workload in this process; returns the printed result plus
    a ``report`` with the environment, failures and n/a metrics."""
    import runner

    spec = _spec()
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    env = runner.environment(seed)
    if env["blas_threads"] > env["nproc"]:
        raise RuntimeError(f"BLAS uses {env['blas_threads']} threads on {env['nproc']} processors")
    workdir = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    try:
        workload = runner.make_workload(name, seed, workdir, smoke=smoke)
        measured, tally = (runner.measure_traced if trace else runner.measure)(workload, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in listed}
    report = {
        "workload": name,
        "trace": int(trace),
        "environment": env,
        "failed_share": tally.failed / tally.attempted,
        "failures": [f"{op}: {why}" for op, why in tally.failures],
        "values": tally.values,
    }
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "report": report,
    }


def _print_result(result: dict) -> None:
    report = result.pop("report")
    env = report["environment"]
    print(f"workload {report['workload']}  seed {env['seed']}  trace {report['trace']}")
    print("environment " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, metric in result["metrics"].items():
        print(f"  {name:<42} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_share':<42} {report['failed_share']:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    for gap in ("final_f_gap", "final_g_gap"):
        values = report["values"].get(gap)
        print(f"  {gap:<42} " + (f"{values[-1]:.6g}" if values else "n/a"))
    for failure in report["failures"]:
        print("  FAILED " + failure.splitlines()[-1])
    print("verdict " + ("correct" if result["correct"] else "INCORRECT"))
    print("report " + json.dumps(report, default=float))
    print(json.dumps(result))


def _run_all(args) -> int:
    """Each workload in a child process of its own, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(child.stdout, end="")
        if child.returncode != 0:
            print(f"workload {name} exited with status {child.returncode}", file=sys.stderr)
            status = 1
        elif not json.loads(child.stdout.splitlines()[-1])["correct"]:
            status = 1
    print("verdict " + ("all workloads correct" if status == 0 else "FAILED"))
    return status


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "bilevelcg", "__init__.py")):
        print(f"error: no bilevelcg package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    # Before numpy loads: BLAS reads its thread count once, at load time.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)
    import bilevelcg

    if os.path.dirname(os.path.abspath(bilevelcg.__file__)) != os.path.join(SRC, "bilevelcg"):
        print(f"error: bilevelcg imported from {bilevelcg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
