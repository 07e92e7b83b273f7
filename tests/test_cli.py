import json
import os
import subprocess
import sys
import tracemalloc
import warnings

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


def product_file(tmp_path):
    """A planted x1*x2 product, a +-1 column (x11) whose square is
    constant and a 0/1 column (x12) whose square is itself, so a search
    with interactions meets collinear and constant monomials."""
    rng = np.random.default_rng(20151)
    n = 300
    X = rng.normal(1.0, 1.0, size=(n, 12))
    X[:, 10] = rng.choice([-1.0, 1.0], n)
    X[:, 11] = rng.integers(0, 2, n)
    y = (X[:, 0] + X[:, 1] + 1.5 * X[:, 0] * X[:, 1] + 0.8 * X[:, 10]
         + 0.8 * X[:, 11] + rng.normal(size=n))
    path = tmp_path / "product.csv"
    write_table(path, [f"x{j + 1}" for j in range(12)] + ["y"],
                np.column_stack([X, y]))
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

    @pytest.mark.parametrize("header,column", [
        (",a,b,c,y", 1), ("a, ,b,c,y", 2), ("a,b,c,y,", 5)])
    def test_unnamed_column_exits_two_naming_it(self, tmp_path, capsys,
                                                header, column):
        # a pandas `to_csv` file: the index column has no name, and must
        # not be taken as a predictor
        rng = np.random.default_rng(2)
        X = rng.normal(size=(200, 5))
        X[:, 0] = np.arange(200)
        X[:, 4] = X[:, 1] + 0.5 * rng.normal(size=200)
        path = tmp_path / "indexed.csv"
        write_table(path, header.split(","), X)
        code = main(["select", str(path), "--response", "y"])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"error: {path}: column {column} has no name\n")


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

    def test_trace_skips_are_the_files_skip_records(self, tmp_path):
        """`trace.skips` holds each skip as the dict the trace file
        writes, with the same keys in the same order, less "kind"."""
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 5))
        y = X[:, 0] + X[:, 1]
        path = tmp_path / "skips.csv"
        np.savetxt(path, np.column_stack([X, y]), delimiter=",",
                   fmt="%.17g", comments="",
                   header="X1,X2,X3,X4,X5,y")
        trace_path = tmp_path / "trace.jsonl"
        assert main(["select", str(path), "--response", "y",
                     "--trace", str(trace_path)]) == EXIT_OK
        written = [rec for line in trace_path.read_text().splitlines()
                   if (rec := json.loads(line)).pop("kind") == "skip"]
        _, trace = run_rai(standardize(X, y))
        assert written
        assert [list(rec.items()) for rec in trace.skips] == [
            list(rec.items()) for rec in written]

    def test_trace_terms_carry_the_header_names(self, tmp_path):
        # the trace names terms as --json and stdout do; the constant
        # column k is dropped, so the header's names are not the
        # dataset's column indices shifted by one
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 3))
        y = X @ [1.5, -1.0, 1.0] + 0.3 * rng.normal(size=40)
        path = tmp_path / "abc.csv"
        write_table(path, ["a", "k", "b", "c", "y"],
                    np.column_stack([X[:, 0], np.ones(40), X[:, 1:], y]))
        out, trace_path = tmp_path / "report.json", tmp_path / "trace.jsonl"
        with pytest.warns(UserWarning, match="dropped constant columns: k"):
            assert main(["select", str(path), "--response", "y",
                         "--interactions", "--json", str(out),
                         "--trace", str(trace_path)]) == EXIT_OK
        tests = [rec for line in trace_path.read_text().splitlines()
                 if (rec := json.loads(line))["kind"] == "test"]
        factors = {factor.split("^")[0] for rec in tests
                   for factor in rec["term"].split("*")}
        assert factors == {"a", "b", "c"}
        assert [rec["term"] for rec in tests
                if rec["decision"] == "rejected"] == [
            term["term"] for term in json.loads(out.read_text())["selected"]]

    def test_trace_file_audits_exactly(self, tmp_path):
        """Each test record obeys the ledger's rules on its own: a
        charged test spends alpha from wealth that covers it before the
        strict compare, a rejection earns the payout back, and a test
        dropped without a charge spends nothing and has no |t|."""
        path = product_file(tmp_path)
        out, trace_path = tmp_path / "report.json", tmp_path / "trace.jsonl"
        assert main(["select", str(path), "--response", "y",
                     "--interactions", "--json", str(out),
                     "--trace", str(trace_path)]) == EXIT_OK
        payout = json.loads(out.read_text())["config"]["payout"]
        records = [json.loads(line)
                   for line in trace_path.read_text().splitlines()]
        tests = [r for r in records if r["kind"] == "test"]
        assert {r["decision"] for r in tests} == {
            "rejected", "not_rejected", "removed_collinear", "halted_wealth"}
        assert any(r["kind"] == "skip" for r in records)
        for rec in tests:
            before, after = rec["wealth_before"], rec["wealth_after"]
            if rec["decision"] in ("rejected", "not_rejected"):
                assert rec["alpha"] <= before, rec
                want = before - rec["alpha"]
                if rec["decision"] == "rejected":
                    want += payout
                assert after == want, rec
                assert (rec["decision"] == "rejected") == (
                    rec["t_abs"] > rec["tlvl"]), rec
            else:
                assert after == before, rec
                assert rec["t_abs"] is None, rec
            assert after >= 0.0, rec

    def test_design_is_held_once(self, tmp_path, capsys):
        """Without --interactions the CLI holds one n x p copy of the
        design: the traced peak of a whole select stays below 1.5 times
        the design's bytes, with the response in a middle column, which
        the reader must take out of its block without a second one."""
        n, p = 10000, 200
        rng = np.random.default_rng(23)
        X = rng.normal(size=(n, p))
        y = X[:, :5].sum(axis=1) + rng.normal(size=n)
        path = tmp_path / "tall.csv"
        np.savetxt(path, np.column_stack([X[:, :100], y, X[:, 100:]]),
                   delimiter=",", fmt="%.9g", comments="",
                   header=",".join([f"x{j}" for j in range(100)] + ["y"]
                                   + [f"x{j}" for j in range(100, p)]))
        tracemalloc.start()
        try:
            code = main(["select", str(path), "--response", "y"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert all(f"\n  x{j} " in out for j in range(5))
        assert peak < 1.5 * n * p * 8, peak / (n * p * 8)

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

    @pytest.mark.parametrize("flag", ["--wealth", "--payout"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_wealth_flags_exit_two(self, tmp_path, capsys, flag,
                                              value):
        path, _, _ = signal_file(tmp_path)
        assert main(["select", str(path), "--response", "y", flag,
                     value]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["select", "diagnose"])
    @pytest.mark.parametrize("flag,value,message", [
        ("--max-passes", "0",
         "max_passes (--max-passes) must be at least 1, got 0"),
        ("--wealth", "0",
         "initial_wealth (--wealth) must be positive and finite, got 0.0"),
        ("--wealth", "-1",
         "initial_wealth (--wealth) must be positive and finite, got -1.0"),
        ("--wealth", "nan",
         "initial_wealth (--wealth) must be positive and finite, got nan"),
        ("--payout", "nan",
         "payout (--payout) must be non-negative and finite, got nan"),
        # an account that could overflow to inf would never overdraw
        ("--wealth", "1e308",
         "initial_wealth (--wealth) must be at most 1e+300, got 1e+308"),
        ("--payout", "1e308",
         "payout (--payout) must be at most 1e+300, got 1e+308")])
    def test_bad_config_flag_exits_two_before_reading_input(
            self, tmp_path, capsys, command, flag, value, message):
        # the input file is missing, so a run that read it first would
        # name the file, not the flag
        assert main([command, str(tmp_path / "none.csv"), "--response",
                     "y", flag, value]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("flags", [[], ["--interactions"]])
    def test_largest_account_writes_strict_json(self, tmp_path, flags):
        # at the cap every rejection earns 1e300, and the wealth over an
        # early pass's alpha is inf; no warning, no Infinity in the files
        path, _, _ = signal_file(tmp_path, n=200)
        report, trace = tmp_path / "w.json", tmp_path / "w.jsonl"

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["select", str(path), "--response", "y", "--wealth",
                         "1e300", "--payout", "1e300", *flags, "--json",
                         str(report), "--trace", str(trace)]) == EXIT_OK
        wealth = json.loads(report.read_text(),
                            parse_constant=refuse)["wealth"]
        assert wealth["initial"] == 1e300 and wealth["final"] > 1e300
        for line in trace.read_text().splitlines():
            json.loads(line, parse_constant=refuse)

    @pytest.mark.parametrize("order", ["-1", "0", "1"])
    def test_max_order_below_two_exits_two(self, tmp_path, capsys, order):
        # an order below 2 admits no interaction, so the search would
        # silently do nothing
        path, _, _ = signal_file(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["select", str(path), "--response", "y", "--interactions",
                  "--max-order", order])
        assert exc.value.code == 2
        assert "--max-order: must be at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize("spelling", ["out.json", "./out.json"])
    def test_same_json_and_trace_path_exits_two_before_reading_input(
            self, tmp_path, capsys, spelling):
        # the trace would overwrite the report; the input file is
        # missing, so a run that read it first would name the file
        out = tmp_path / "out.json"
        trace = f"{tmp_path}/{spelling}"
        assert main(["select", str(tmp_path / "none.csv"), "--response",
                     "y", "--json", str(out), "--trace", trace]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"error: --json and --trace both name {trace}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        ("select", "--json"), ("select", "--trace"), ("diagnose", "--json")])
    def test_output_naming_the_input_exits_two_before_reading_it(
            self, tmp_path, capsys, monkeypatch, command, flag):
        # the report would overwrite the data; the input is named by its
        # path and the output relative to it, so both are resolved
        path, _, _ = signal_file(tmp_path)
        data = path.read_bytes()
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(rai.cli, "_read_design", lambda *args: (
            pytest.fail("the input was read")))
        assert main([command, str(path), "--response", "y",
                     flag, path.name]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"error: the input and {flag} both name {path.name}\n")
        assert path.read_bytes() == data

    @pytest.mark.parametrize("command, flag", [
        ("select", "--json"), ("select", "--trace"), ("diagnose", "--json")])
    def test_output_hard_linked_to_the_input_exits_two_before_reading_it(
            self, tmp_path, capsys, monkeypatch, command, flag):
        # another name of the input's file resolves to a different path,
        # so only the file's device and inode tell them apart
        path, _, _ = signal_file(tmp_path)
        data = path.read_bytes()
        link = tmp_path / "link.json"
        os.link(path, link)
        monkeypatch.setattr(rai.cli, "_read_design", lambda *args: (
            pytest.fail("the input was read")))
        assert main([command, str(path), "--response", "y",
                     flag, str(link)]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"error: the input and {flag} both name {link}\n")
        assert path.read_bytes() == data

    def test_hard_linked_json_and_trace_exit_two_before_reading_input(
            self, tmp_path, capsys):
        out, trace = tmp_path / "out.json", tmp_path / "trace.jsonl"
        out.write_text("kept\n")
        os.link(out, trace)
        assert main(["select", str(tmp_path / "none.csv"), "--response",
                     "y", "--json", str(out), "--trace", str(trace)]) \
            == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"error: --json and --trace both name {trace}\n")
        assert out.read_text() == "kept\n"

    def test_max_order_without_interactions_exits_two(self, tmp_path,
                                                      capsys):
        # no product is generated, so the order would be ignored
        path, _, _ = signal_file(tmp_path)
        assert main(["select", str(path), "--response", "y",
                     "--max-order", "3"]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert "--max-order" in err[0] and "--interactions" in err[0]

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


class TestUnwritableOutput:

    @staticmethod
    def forbid_work(monkeypatch):
        """Make reading the input or running a study fail loudly."""
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the output check")
        monkeypatch.setattr(rai.cli, "_read_design", forbidden)
        monkeypatch.setattr(rai.cli, "run_experiment", forbidden)

    @pytest.mark.parametrize("target", ["missing_dir", "directory"])
    @pytest.mark.parametrize("command,flag", [
        ("select", "--json"), ("select", "--trace"),
        ("diagnose", "--json"), ("simulate", "--out")])
    def test_exits_two_naming_the_path(self, tmp_path, capsys, monkeypatch,
                                       command, flag, target):
        data, _, _ = signal_file(tmp_path)
        bad = (tmp_path / "absent" / "out" if target == "missing_dir"
               else tmp_path)
        argv = {"select": ["select", str(data), "--response", "y"],
                "diagnose": ["diagnose", str(data), "--response", "y"],
                "simulate": ["simulate", "--scenario", "global_null",
                             "--n", "40", "--p", "5", "--reps", "1"]}
        files = sorted(tmp_path.rglob("*"))
        self.forbid_work(monkeypatch)
        assert main([*argv[command], flag, str(bad)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: cannot write {bad}: [Errno "), err
        assert sorted(tmp_path.rglob("*")) == files

    def test_simulate_missing_directory(self, tmp_path, capsys, monkeypatch):
        self.forbid_work(monkeypatch)
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--scenario", "global_null", "--n", "40",
                     "--p", "5", "--reps", "1",
                     "--out", "missing/x.jsonl"]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            "error: cannot write missing/x.jsonl: [Errno 2] No such file "
            "or directory: 'missing/x.jsonl'\n")
        assert list(tmp_path.iterdir()) == []

    def test_check_writes_nothing(self, tmp_path, capsys):
        # a writable --json beside an unwritable --trace is not created,
        # and an existing --json keeps its bytes when the input is bad
        data, _, _ = signal_file(tmp_path)
        report = tmp_path / "report.json"
        assert main(["select", str(data), "--response", "y", "--json",
                     str(report), "--trace",
                     str(tmp_path / "absent" / "t.jsonl")]) == EXIT_PARSE
        assert not report.exists()
        report.write_text("kept\n")
        assert main(["select", str(tmp_path / "none.csv"), "--response",
                     "y", "--json", str(report)]) == EXIT_PARSE
        assert report.read_text() == "kept\n"
        assert "cannot read" in capsys.readouterr().err


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

    @pytest.mark.parametrize("flag,value,message", [
        ("--n", "2", "n (--n) must be at least 3, got 2"),
        ("--reps", "0", "replications (--reps) must be at least 1, got 0"),
        ("--seed", "-1", "base_seed (--seed) must be non-negative, got -1")])
    def test_bad_size_or_seed_exits_two_naming_it(self, capsys, flag, value,
                                                 message):
        argv = {"--n": "50", "--reps": "1", "--seed": "0", flag: value}
        code = main(["simulate", "--scenario", "global_null", "--p", "5",
                     *(item for pair in argv.items() for item in pair)])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_too_few_rows_for_the_true_model_exits_two(self, tmp_path,
                                                       capsys):
        # at n = 5 the four true terms and the intercept leave no
        # residual degree of freedom for their t-statistics
        out = tmp_path / "rows.jsonl"
        code = main(["simulate", "--scenario", "four_interactions",
                     "--n", "5", "--p", "10", "--reps", "2",
                     "--out", str(out)])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == (
            "error: n (--n) must be at least 6, got 5\n")
        assert not out.exists()

    def test_inconsistent_spec_exits_two(self, capsys):
        code = main(["simulate", "--scenario", "four_interactions",
                     "--n", "50", "--p", "5", "--reps", "1"])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("flags,message", [
        (["--p", "9", "--scenario", "four_interactions"],
         "p (--p) must be at least 10 for scenario four_interactions, "
         "got 9"),
        (["--target-r2", "1.5"],
         "target_r2 (--target-r2) must lie in (0, 1), got 1.5"),
        (["--target-r2", "nan"],
         "target_r2 (--target-r2) must lie in (0, 1), got nan")])
    def test_bad_spec_exits_two_naming_field_flag_and_value(
            self, capsys, flags, message):
        argv = ["simulate", "--scenario", "global_null", "--n", "50",
                "--p", "5", "--reps", "1"]
        assert main(argv + flags) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {message}\n"


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

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_k_below_one_exits_two_with_one_message(self, tmp_path, capsys,
                                                    k):
        path = orthogonal_file(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["diagnose", str(path), "--response", "y", "--k", k])
        assert exc.value.code == 2
        assert f"--k: must be at least 1, got {k}" in capsys.readouterr().err

    def test_budget_exhaustion_exits_four(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.setenv("RAI_ENUM_BUDGET", "1")
        path = orthogonal_file(tmp_path)
        assert main(["diagnose", str(path), "--response", "y",
                     "--k", "3"]) == EXIT_BUDGET
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("budget", ["abc", "1.5", "-5", "0"])
    def test_bad_budget_variable_exits_two_naming_it(
            self, tmp_path, capsys, monkeypatch, budget):
        # a budget below 1 would fail every enumeration as exceeded
        monkeypatch.setenv("RAI_ENUM_BUDGET", budget)
        path = orthogonal_file(tmp_path)
        assert main(["diagnose", str(path), "--response", "y"]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            "error: RAI_ENUM_BUDGET must be an integer of at least 1, "
            f"got {budget!r}\n")

    def test_bad_budget_variable_is_read_before_the_input(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RAI_ENUM_BUDGET", "abc")
        assert main(["diagnose", str(tmp_path / "missing.csv"),
                     "--response", "y"]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            "error: RAI_ENUM_BUDGET must be an integer of at least 1, "
            "got 'abc'\n")


class TestEntryPoint:

    def test_module_invocation(self, tmp_path):
        proc = subprocess.run([sys.executable, "-m", "rai", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == rai.__version__

    def test_no_cli_path_loads_scipy(self, tmp_path):
        # scipy is a test dependency only; importing it would cost every
        # rai process most of its start-up time
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 3))
        path = tmp_path / "tiny.csv"
        write_table(path, ["a", "b", "c", "y"],
                    np.column_stack([X, X[:, 0] + rng.normal(size=40)]))
        script = """
import sys
import rai, rai.cli
from rai.cli import main
try:
    main(["--version"])
except SystemExit as exc:
    assert exc.code == 0
assert main(["select", sys.argv[1], "--response", "y"]) == 0
assert main(["simulate", "--scenario", "four_interactions", "--n", "60",
             "--p", "10", "--reps", "1"]) == 0
print(sorted(m for m in sys.modules
             if m == "scipy" or m.startswith("scipy.")))
"""
        src = os.path.dirname(os.path.dirname(rai.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script, str(path)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]"

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_is_no_error(self, tmp_path, unbuffered):
        """A reader that leaves early (`rai select ... | head -1`) gets
        exit 0, nothing on stderr, and every output file."""
        path, _, _ = signal_file(tmp_path)
        read_end, write_end = os.pipe()
        os.close(read_end)      # closed before rai writes anything
        src = os.path.dirname(os.path.dirname(rai.__file__))
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        report, trace = tmp_path / "r.json", tmp_path / "t.jsonl"
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "rai", "select", str(path),
                 "--response", "y", "--json", str(report),
                 "--trace", str(trace)],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert json.loads(report.read_text())["selected"]
        assert trace.read_text().splitlines()[-1].startswith('{"kind": "end"')

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
