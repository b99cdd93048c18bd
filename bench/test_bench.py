"""Smoke test of the benchmark: every workload, at a tiny budget, emits every
metric BENCHMARK.json names with its unit, and the seed drives the inputs.

    python3 -m pytest bench/test_bench.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import runner  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(name, trace, capsys):
    result = run.run_workload(name, seed=1, seconds=0.01, trace=trace, smoke=True)
    spans.check_untraced()  # the traced run put the package's functions back
    run._print_result(result)
    printed = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(printed["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert printed["metrics"][m["name"]]["unit"] == m["unit"]
        assert math.isfinite(printed["metrics"][m["name"]]["value"])
    assert printed["correct"] and printed["failed"] == 0 and printed["attempted"] >= 1


def _fingerprint(name, seed, workdir):
    workload = runner.make_workload(name, seed, workdir, smoke=True)
    if name == "reference":
        # The seed reorders the training samples of one fixed instance.
        return workload.data().train_idx.tolist()
    if name == "baselines-suite":
        cell = workload.setup()[0]
        from bilevelcg import harness

        inputs = harness.build_instance(cell["instance"], seed=cell["seed"], options=cell["options"])[0]
    else:
        inputs = workload.setup()
    instance = getattr(inputs, "bilevel", inputs)
    x = np.linspace(-1.0, 1.0, instance.dimension) / instance.dimension
    return [instance.upper.value(x), instance.lower.value(x)]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_seed_drives_the_inputs(name, tmp_path):
    first = _fingerprint(name, 1, str(tmp_path))
    assert _fingerprint(name, 1, str(tmp_path)) == first
    assert _fingerprint(name, 2, str(tmp_path)) != first


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "reference", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert "correct" not in child.stdout
