import json
import os
import subprocess
import sys

import numpy as np
import pytest

import rai
from rai.cli import (EXIT_BUDGET, EXIT_DEGENERATE, EXIT_OK, EXIT_PARSE,
                     ParseFailure, _read_table, main)
from rai.engine import RaiConfig, run_rai
from rai.kernel import standardize

from conftest import ols_r2, random_raw


def write_table(path, header, matrix, delim=","):
    lines = [delim.join(header)]
    for row in np.atleast_2d(matrix):
        lines.append(delim.join(f"{v:.12g}" for v in row))
    path.write_text("\n".join(lines) + "\n")


def signal_file(tmp_path, seed=0, n=120, noise=0.3):
    """Columns a..d plus response y = 2a - b + noise."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = 2.0 * X[:, 0] - X[:, 1] + noise * rng.normal(size=n)
    path = tmp_path / "data.csv"
    write_table(path, ["a", "b", "c", "d", "y"], np.column_stack([X, y]))
    return path, X, y


def orthogonal_file(tmp_path, seed=3, n=48, p=4):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, p))
    Q, _ = np.linalg.qr(M - M.mean(axis=0))
    y = 3.0 * Q[:, 0] + 1.5 * Q[:, 1] + 0.05 * rng.normal(size=n)
    path = tmp_path / "orth.csv"
    write_table(path, ["a", "b", "c", "d", "y"], np.column_stack([Q, y]))
    return path


class TestReadTable:

    def test_comma_and_tab_agree(self, tmp_path):
        data = np.arange(12.0).reshape(4, 3)
        pc = tmp_path / "c.csv"
        pt = tmp_path / "t.tsv"
        write_table(pc, ["x", "y", "z"], data)
        write_table(pt, ["x", "y", "z"], data, delim="\t")
        hc, dc = _read_table(str(pc))
        ht, dt = _read_table(str(pt))
        assert hc == ht == ["x", "y", "z"]
        assert np.array_equal(dc, dt)

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("a,b\n1,2\n\n   \n3,4\n")
        _, data = _read_table(str(path))
        assert data.shape == (2, 2)

    def test_field_count_error_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n1,2,3\n")
        with pytest.raises(ParseFailure, match=":3:"):
            _read_table(str(path))

    def test_non_numeric_error_names_line(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("a,b\n1,2\n1,oops\n")
        with pytest.raises(ParseFailure, match=":3:"):
            _read_table(str(path))

    def test_empty_and_headeronly_files_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ParseFailure, match="empty"):
            _read_table(str(empty))
        bare = tmp_path / "bare.csv"
        bare.write_text("a,b\n")
        with pytest.raises(ParseFailure, match="no data rows"):
            _read_table(str(bare))

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("a,b\n1,2\n1,inf\n")
        with pytest.raises(ParseFailure, match="non-finite"):
            _read_table(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ParseFailure, match="cannot read"):
            _read_table(str(tmp_path / "nope.csv"))

    def test_byte_order_mark_skipped(self, tmp_path, capsys):
        path, _, _ = signal_file(tmp_path)
        plain = path.read_bytes()
        path.write_bytes(b"\xef\xbb\xbf" + plain)
        header, _ = _read_table(str(path))
        assert header == ["a", "b", "c", "d", "y"]
        # the first column is also the response column a BOM used to hide
        code = main(["select", str(path), "--response", "a"])
        assert code == EXIT_OK
        assert "selection report" in capsys.readouterr().out

    def test_duplicate_names_exit_two(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("a,b,a,c,b,y\n1,2,3,4,5,6\n2,3,4,5,6,8\n")
        with pytest.raises(ParseFailure, match="duplicate column names: a, b"):
            _read_table(str(path))
        code = main(["select", str(path), "--response", "y"])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "a, b" in err


class TestSelect:

    def test_response_copy_of_column_gives_perfect_model(self, tmp_path,
                                                         capsys):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(90, 3))
        path = tmp_path / "copy.csv"
        write_table(path, ["a", "b", "c", "y"],
                    np.column_stack([X, X[:, 0]]))
        out = tmp_path / "report.json"
        code = main(["select", str(path), "--response", "y",
                     "--json", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert [s["term"] for s in report["selected"]] == ["a"]
        np.testing.assert_allclose(report["selected"][0]["coefficient"],
                                   1.0, atol=1e-8)
        np.testing.assert_allclose(report["intercept"], 0.0, atol=1e-8)
        np.testing.assert_allclose(report["r_squared"], 1.0, atol=1e-10)
        stdout = capsys.readouterr().out
        assert "selected terms: 1" in stdout
        assert "r_squared: 1" in stdout

    def test_pure_noise_gives_empty_model_and_exit_zero(self, tmp_path,
                                                        capsys):
        rng = np.random.default_rng(7)
        path = tmp_path / "noise.csv"
        write_table(path, ["a", "b", "c", "y"], rng.normal(size=(60, 4)))
        out = tmp_path / "report.json"
        code = main(["select", str(path), "--response", "y",
                     "--json", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["selected"] == []
        assert report["termination"] == "wealth_exhausted"
        assert report["wealth"]["final"] < 0.25

    def test_coefficients_reproduce_fitted_values(self, tmp_path):
        path, X, y = signal_file(tmp_path, seed=5)
        out = tmp_path / "report.json"
        assert main(["select", str(path), "--response", "y",
                     "--json", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["selected"], "expected a nonempty model"
        cols = {"a": X[:, 0], "b": X[:, 1], "c": X[:, 2], "d": X[:, 3]}
        yhat = np.full(len(y), report["intercept"])
        for entry in report["selected"]:
            col = np.ones(len(y))
            for factor in entry["term"].split("*"):
                name, _, power = factor.partition("^")
                col = col * cols[name] ** int(power or 1)
            yhat += entry["coefficient"] * col
        # reported model must reproduce the engine's fit on raw scale
        dataset = standardize(X, y, ["a", "b", "c", "d"])
        state, _ = run_rai(dataset, RaiConfig())
        engine_yhat = (dataset.response_mean + dataset.response_scale
                       * (dataset.response - state.residual))
        np.testing.assert_allclose(yhat, engine_yhat, atol=1e-8)
        selected_cols = np.column_stack(
            [cols[e["term"]] for e in report["selected"]])
        np.testing.assert_allclose(report["r_squared"],
                                   ols_r2(selected_cols, y), atol=1e-8)

    def test_report_sidecar_is_deterministic(self, tmp_path):
        path, _, _ = signal_file(tmp_path, seed=9)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        main(["select", str(path), "--response", "y", "--json", str(out_a)])
        main(["select", str(path), "--response", "y", "--json", str(out_b)])
        a = json.loads(out_a.read_text())
        b = json.loads(out_b.read_text())
        a.pop("elapsed_s")
        b.pop("elapsed_s")
        assert a == b

    def test_trace_file_matches_report(self, tmp_path):
        path, _, _ = signal_file(tmp_path, seed=2)
        out = tmp_path / "report.json"
        trace_path = tmp_path / "trace.jsonl"
        assert main(["select", str(path), "--response", "y",
                     "--json", str(out), "--trace", str(trace_path)]) == 0
        report = json.loads(out.read_text())
        records = [json.loads(line)
                   for line in trace_path.read_text().splitlines()]
        kinds = {r["kind"] for r in records}
        assert kinds <= {"test", "skip", "end"}
        assert records[-1]["kind"] == "end"
        assert records[-1]["passes"] == report["passes"]
        assert records[-1]["termination"] == report["termination"]
        tests = [r for r in records if r["kind"] == "test"]
        assert len(tests) == report["tests"]
        rejections = sum(r["decision"] == "rejected" for r in tests)
        assert rejections == report["rejections"]
        spent = sum(r["alpha"] for r in tests) + sum(
            r["alpha_charged"] for r in records if r["kind"] == "skip")
        np.testing.assert_allclose(spent, report["wealth"]["spent"],
                                   rtol=1e-10)

    def test_constant_response_exits_three(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        write_table(path, ["a", "y"],
                    np.column_stack([np.arange(20.0), np.ones(20)]))
        assert main(["select", str(path), "--response", "y"]) \
            == EXIT_DEGENERATE
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["select", str(tmp_path / "gone.csv"),
                     "--response", "y"]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_response_exits_two(self, tmp_path):
        path, _, _ = signal_file(tmp_path)
        assert main(["select", str(path), "--response", "zz"]) == EXIT_PARSE

    def test_response_only_file_exits_two(self, tmp_path):
        path = tmp_path / "only.csv"
        path.write_text("y\n1\n2\n3\n")
        assert main(["select", str(path), "--response", "y"]) == EXIT_PARSE

    def test_unknown_flag_exits_two(self, tmp_path):
        path, _, _ = signal_file(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["select", str(path), "--response", "y", "--bogus"])
        assert exc.value.code == 2

    def test_seed_flag_removed(self, tmp_path):
        # the engine draws no random numbers, so select takes no seed
        path, _, _ = signal_file(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["select", str(path), "--response", "y", "--seed", "1"])
        assert exc.value.code == 2
        out = tmp_path / "report.json"
        assert main(["select", str(path), "--response", "y",
                     "--json", str(out)]) == EXIT_OK
        assert "seed" not in json.loads(out.read_text())["config"]

    def test_interactions_flag_reaches_config(self, tmp_path):
        rng = np.random.default_rng(4)
        X = rng.normal(loc=1.5, size=(300, 4))
        y = (X[:, 0] + X[:, 1] + 2.0 * X[:, 0] * X[:, 1]
             + 0.1 * rng.normal(size=300))
        path = tmp_path / "prod.csv"
        write_table(path, ["a", "b", "c", "d", "y"], np.column_stack([X, y]))
        out = tmp_path / "report.json"
        assert main(["select", str(path), "--response", "y",
                     "--interactions", "--json", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert "a*b" in [s["term"] for s in report["selected"]]
        assert report["config"]["interactions"] is True


class TestVersion:

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == rai.__version__


class TestSimulateCmd:

    def run_global_null(self, tmp_path, capsys, name):
        out = tmp_path / name
        code = main(["simulate", "--scenario", "global_null", "--n", "80",
                     "--p", "6", "--reps", "2", "--seed", "3",
                     "--method", "rai", "--out", str(out)])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        body = [line for line in stdout.splitlines()
                if str(tmp_path) not in line]
        return out.read_bytes(), body

    def test_same_flags_give_identical_files(self, tmp_path, capsys):
        bytes_a, body_a = self.run_global_null(tmp_path, capsys, "a.jsonl")
        bytes_b, body_b = self.run_global_null(tmp_path, capsys, "b.jsonl")
        assert bytes_a == bytes_b
        assert body_a == body_b

    @pytest.mark.parametrize("method, n, p", [("rai_interactions", 1000, 30),
                                              ("stepwise_aic", 600, 40)])
    def test_output_independent_of_blas_threads(self, tmp_path, method, n, p):
        # the products the screen caches are large enough for OpenBLAS to
        # split over threads; decisions and residuals must not notice
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.jsonl"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "rai", "simulate", "--scenario",
                 "four_interactions", "--n", str(n), "--p", str(p),
                 "--reps", "2", "--seed", "5", "--method", method,
                 "--out", str(out)],
                env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_null_mfdr_stays_controlled(self, capsys):
        code = main(["simulate", "--scenario", "global_null", "--n", "60",
                     "--p", "8", "--reps", "200", "--seed", "0"])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        line = next(l for l in stdout.splitlines()
                    if l.startswith("mfdr_estimate"))
        assert float(line.split()[-1]) <= 0.25

    def test_recovery_column_present(self, capsys):
        code = main(["simulate", "--scenario", "single_interaction",
                     "--n", "150", "--p", "6", "--reps", "2", "--seed", "1",
                     "--method", "rai_interactions"])
        assert code == EXIT_OK
        assert "recovery_rate" in capsys.readouterr().out

    def test_unknown_scenario_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scenario", "volcano", "--n", "50",
                  "--p", "5", "--reps", "1"])
        assert exc.value.code == 2

    def test_inconsistent_spec_exits_two(self, capsys):
        code = main(["simulate", "--scenario", "four_interactions",
                     "--n", "50", "--p", "5", "--reps", "1"])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err.startswith("error:")


class TestDiagnose:

    def test_orthogonal_toy_reports_gamma_one(self, tmp_path, capsys):
        path = orthogonal_file(tmp_path)
        out = tmp_path / "diag.json"
        code = main(["diagnose", str(path), "--response", "y", "--k", "2",
                     "--json", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["selected"], "expected a nonempty marginal model"
        np.testing.assert_allclose(report["gamma"], 1.0, atol=1e-8)
        assert report["bound_holds"] is True
        assert report["bound"] == max(report["bound_additive"],
                                      report["bound_multiplicative"])
        assert report["r_squared"] >= report["bound"] - 1e-10
        assert report["best_subset_r_squared"] \
            >= report["stepwise_r_squared"] - 1e-10
        assert "gamma" in capsys.readouterr().out

    def test_random_instance_inequality_verified(self, tmp_path):
        X, y = random_raw(31, 80, 10)
        path = tmp_path / "rand.csv"
        write_table(path, [f"x{j}" for j in range(10)] + ["y"],
                    np.column_stack([X, y]))
        out = tmp_path / "diag.json"
        assert main(["diagnose", str(path), "--response", "y", "--k", "2",
                     "--json", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["bound_holds"] is True
        assert report["bound_slack"] >= -1e-10

    def test_empty_model_reports_vacuous_bound(self, tmp_path):
        rng = np.random.default_rng(11)
        path = tmp_path / "noise.csv"
        write_table(path, ["a", "b", "c", "y"], rng.normal(size=(50, 4)))
        out = tmp_path / "diag.json"
        assert main(["diagnose", str(path), "--response", "y",
                     "--json", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["selected"] == []
        assert report["gamma"] is None
        assert report["bound"] == 0.0
        assert report["bound_holds"] is True

    def test_budget_exhaustion_exits_four(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.setenv("RAI_ENUM_BUDGET", "1")
        path = orthogonal_file(tmp_path)
        assert main(["diagnose", str(path), "--response", "y",
                     "--k", "3"]) == EXIT_BUDGET
        assert capsys.readouterr().err.startswith("error:")


class TestEntryPoint:

    def test_module_invocation(self, tmp_path):
        proc = subprocess.run([sys.executable, "-m", "rai", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == rai.__version__

    def test_console_script_select(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 2))
        path = tmp_path / "tiny.csv"
        write_table(path, ["a", "b", "y"],
                    np.column_stack([X, X[:, 0]]))
        proc = subprocess.run(
            [sys.executable, "-m", "rai", "select", str(path),
             "--response", "y"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "selection report" in proc.stdout
        assert "Traceback" not in proc.stderr
