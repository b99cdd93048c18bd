import json
import pathlib
import re

import numpy as np
import pytest

from bilevelcg.cli import main


class TestUsage:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["bogus"]) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["toy", "--no-such-flag"]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0

    def test_unknown_verify_group_exits_2(self, capsys):
        assert main(["verify", "--group", "nonsense"]) == 2


class TestToyCommand:
    def test_writes_trace_and_summary(self, tmp_path, capsys):
        code = main(["toy", "--out", str(tmp_path), "--eps-f", "1e-5", "--eps-g", "1e-5"])
        assert code == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["000_toy_cg-bio_seed0.csv", "000_toy_cg-bio_seed0.json"]
        summary = json.loads((tmp_path / names[1]).read_text())
        assert summary["stop_reason"] == "criterion_met"
        assert summary["iterations"] <= 40

    def test_same_argv_and_seed_byte_identical(self, tmp_path, capsys):
        args = ["toy", "--eps-f", "1e-5", "--eps-g", "1e-5", "--seed", "0"]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(d1)]) == 0
        assert main(args + ["--out", str(d2)]) == 0
        for name in ("000_toy_cg-bio_seed0.csv", "000_toy_cg-bio_seed0.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    @pytest.mark.parametrize("solvers", [",", "", " , "])
    def test_no_solver_exits_2_before_any_cell_runs(self, tmp_path, capsys, solvers):
        out = tmp_path / "runs"
        assert main(["toy", "--solvers", solvers, "--out", str(out)]) == 2
        assert "no solver named" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("schedule", ["inv-sqrt:nan", "inv-sqrt:inf"])
    def test_non_finite_schedule_exits_2_before_any_cell_runs(self, tmp_path, capsys, schedule):
        out = tmp_path / "runs"
        assert main(["toy", "--schedule", schedule, "--out", str(out)]) == 2
        assert "cell 0: " in capsys.readouterr().err
        assert not out.exists()

    def test_multiple_solvers(self, tmp_path, capsys):
        code = main([
            "toy", "--out", str(tmp_path), "--solvers", "cg-bio,dbgd", "--max-iters", "50",
        ])
        assert code == 0
        stems = {p.stem for p in tmp_path.glob("*.json")}
        assert stems == {"000_toy_cg-bio_seed0", "001_toy_dbgd_seed0"}


class TestRegressionCommand:
    def test_synthetic_run(self, tmp_path, capsys):
        code = main([
            "regression", "--out", str(tmp_path), "--n", "30", "--d", "40",
            "--eps-g", "1e-3", "--max-iters", "100",
        ])
        assert code == 0
        assert len(list(tmp_path.glob("*.csv"))) == 1

    @pytest.mark.parametrize("radius", ["nan", "inf", "0", "-1"])
    def test_bad_l1_radius_exits_2_before_any_cell_runs(self, tmp_path, capsys, radius):
        out = tmp_path / "runs"
        assert main(["regression", "--n", "30", "--d", "40", "--l1-radius", radius, "--out", str(out)]) == 2
        assert "options.l1_radius must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_without_target_exits_2_before_any_cell_runs(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("a,y\n" + "".join(f"{i},{2 * i}\n" for i in range(5)), encoding="utf-8")
        out = tmp_path / "runs"
        assert main(["regression", "--csv", str(data), "--out", str(out)]) == 2
        assert "options.csv needs options.target" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_command(self, tmp_path, capsys):
        code = main([
            "regression", "--n", "100", "--d", "150", "--solvers", "cg-bio,big-sam,dbgd",
            "--out", str(tmp_path),
        ])
        assert code == 0
        summary = json.loads((tmp_path / "000_regression_cg-bio_seed0.json").read_text())
        assert not summary["stop_reason"].startswith("error")

    def test_csv_ingestion(self, tmp_path, capsys):
        rows = "\n".join(f"{i},{i * 2 + 1},{3 * i}" for i in range(40))
        data = tmp_path / "data.csv"
        data.write_text("a,b,y\n" + rows + "\n", encoding="utf-8")
        code = main([
            "regression", "--out", str(tmp_path / "runs"), "--csv", str(data),
            "--target", "y", "--solvers", "big-sam", "--max-iters", "20",
        ])
        assert code == 0


def _write_csv(path, header, columns):
    rows = zip(*(np.asarray(col).tolist() for col in columns))
    path.write_text(",".join(header) + "\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows))
    return path


def _assert_certified_start(summary):
    assert not summary["stop_reason"].startswith("error")
    # The FW gap at the start may round a little below zero.
    assert summary["certified"] is True and abs(summary["init_certificate"]) <= 5e-6  # eps_g / 2


class TestReadmeCsvCommands:
    """The README's own-data commands with the default cg-bio solver."""

    def test_regression_csv(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        a, b, c = rng.standard_normal((3, 40))
        y = 0.5 * a - 0.2 * b + 0.1 * rng.standard_normal(40)
        data = _write_csv(tmp_path / "data.csv", ["a", "b", "c", "y"], [a, b, c, y])
        out = tmp_path / "runs"
        assert main(["regression", "--csv", str(data), "--target", "y", "--out", str(out)]) == 0
        _assert_certified_start(json.loads((out / "000_regression_cg-bio_seed0.json").read_text()))

    def test_fair_csv(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((2, 60))
        s = (rng.random(60) < 0.5).astype(float)
        y = (a + 0.5 * s + 0.5 * rng.standard_normal(60) > 0).astype(float)
        data = _write_csv(tmp_path / "data.csv", ["a", "b", "s", "y"], [a, b, s, y])
        out = tmp_path / "runs"
        code = main(["fair", "--csv", str(data), "--target", "y", "--sensitive", "s", "--out", str(out)])
        assert code == 0
        _assert_certified_start(json.loads((out / "000_fair_cg-bio_seed0.json").read_text()))


class TestReadmeSuiteExample:
    """The README's suite.json example runs as written."""

    def test_suite_example_runs_every_cell(self, tmp_path, capsys):
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
        assert len(blocks) == 1
        suite = tmp_path / "suite.json"
        suite.write_text(blocks[0], encoding="utf-8")
        cells = json.loads(blocks[0])
        out = tmp_path / "runs"
        assert main(["suite", str(suite), "--out", str(out)]) == 0
        summaries = sorted(out.glob("*.json"))
        assert len(summaries) == len(cells) == 2
        for path in summaries:
            assert not json.loads(path.read_text())["stop_reason"].startswith("error")


class TestFairCommand:
    def test_summary_and_output_report_the_certified_start(self, tmp_path, capsys):
        assert main(["fair", "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "000_fair_cg-bio_seed0.json").read_text())
        assert summary["certified"] is True
        assert 0.0 <= summary["init_certificate"] <= 5e-6  # eps_g / 2
        assert summary["stop_reason"] in ("criterion_met", "budget_exhausted")
        assert "start certified, certificate" in capsys.readouterr().out


class TestDictCommand:
    def test_readme_command(self, tmp_path, capsys):
        assert main(["dict", "--eps-g", "1e-3", "--max-iters", "1000", "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "000_dict_cg-bio_seed0.json").read_text())
        assert summary["certified"] is True
        assert summary["stop_reason"] in ("criterion_met", "budget_exhausted")


class TestVerifyCommand:
    def test_single_group_passes(self, capsys):
        assert main(["verify", "--group", "transfer"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert lines and all(l.startswith("PASS") for l in lines)


class TestSuiteCommand:
    def test_runs_cells_with_jobs(self, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps([
            {"instance": "toy", "solver": "cg-bio",
             "config": {"eps_f": 1e-5, "eps_g": 1e-5}, "seed": 0},
            {"instance": "toy", "solver": "dbgd",
             "config": {"max_iters": 30}, "seed": 1},
        ]))
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(["suite", str(suite), "--out", str(serial), "--jobs", "1"]) == 0
        assert main(["suite", str(suite), "--out", str(parallel), "--jobs", "2"]) == 0
        names = sorted(p.name for p in serial.iterdir())
        assert len(names) == 4 and names == sorted(p.name for p in parallel.iterdir())
        for name in names:
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_1_exits_2_before_any_cell_runs(self, tmp_path, capsys, jobs):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps([{"instance": "toy", "solver": "cg-bio"}] * 2))
        out = tmp_path / "runs"
        assert main(["suite", str(suite), "--out", str(out), "--jobs", jobs]) == 2
        assert f"jobs must be an int >= 1 or None, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_cell_exits_2_naming_it(self, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps([
            {"instance": "toy", "solver": "cg-bio", "config": {}, "seed": 0},
            {"instance": "toy", "solver": "cg-bio", "config": {"schedule": "constant:2"}},
        ]))
        out = tmp_path / "runs"
        assert main(["suite", str(suite), "--out", str(out)]) == 2
        assert "cell 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", [
        {"instance": "toy", "solver": "dbgd", "solver_options": {"alpha": float("nan")}},
        {"instance": "toy", "solver": "dbgd", "solver_options": {"g_hat": float("inf")}},
        {"instance": "toy", "solver": "big-sam", "solver_options": {"gamma": -1.0}},
        {"instance": "toy", "solver": "mng", "solver_options": {"M": float("nan")}},
        {"instance": "toy", "solver": "a-irg", "solver_options": {"gamma0": float("nan")}},
        {"instance": "toy", "solver": "cg-bio", "config": {"eps_g": float("inf")}},
    ])
    def test_non_finite_or_negative_value_exits_2_naming_the_cell(self, tmp_path, capsys, bad):
        # json writes NaN and Infinity, and Python's json reads them back.
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps([{"instance": "toy", "solver": "cg-bio"}, bad]))
        out = tmp_path / "runs"
        assert main(["suite", str(suite), "--out", str(out)]) == 2
        assert "error: cell 1: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("content, reason", [
        (None, "No such file"),
        ('{"instance": "toy"', "Expecting"),
        ('{"instance": "toy", "solver": "cg-bio"}', "expected a JSON list"),
    ])
    def test_bad_suite_file_exits_2(self, tmp_path, capsys, content, reason):
        suite = tmp_path / "suite.json"
        if content is not None:
            suite.write_text(content)
        assert main(["suite", str(suite), "--out", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {suite}: ") and reason in err
        assert not (tmp_path / "runs").exists()

    def test_failed_cell_exits_1(self, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps([
            # The toy lower level is linear: MNG has no default M.
            {"instance": "toy", "solver": "mng", "config": {}, "seed": 0},
        ]))
        assert main(["suite", str(suite), "--out", str(tmp_path / "runs")]) == 1
