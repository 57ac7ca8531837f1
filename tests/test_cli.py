"""End-to-end command-line behaviour, JSON output, and exit codes."""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields

import pytest
from hypothesis import given

import helpers
from readme_cli import COMMANDS, README, readme_example

from monocanon import BenchReport
from monocanon.cli import (
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    EXIT_VIOLATION,
    main,
)


@pytest.fixture
def write(tmp_path):
    def _write(text, name="ideal.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


TWO_VARS = "ring x, y;\nI = x^4, x^3*y^7;\n"
QUOTIENT = "ring x, y;\nI = x^4, y^10, x^2*y^7;\nJ = x^20, y^30;\n"
MAXIMAL = "ring x, y;\nI = x, y;\n"
RESIDUE = "ring x, y;\nI = 1;\nJ = x, y;\n"
HUGE = "ring x, y;\nI = x^10000000*y^10000000;\n"
# 470 variables at the exponent cap: a box of 2^14570 cells, a count of 4,387
# digits, more than Python converts to a string
WIDEST = "ring {};\nI = {};\n".format(
    ", ".join(f"x{i}" for i in range(470)),
    "*".join(f"x{i}^2147483647" for i in range(470)))


class TestCanon:
    def test_plain_output(self, write, capsys):
        assert main(["canon", write(TWO_VARS)]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "(x^2, x*y)"
        assert "type x: (3, 4)" in out
        assert "type y: (7,)" in out

    def test_quotient_keeps_the_denominator_visible(self, write, capsys):
        assert main(["canon", write(QUOTIENT)]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "(x^2, x*y, y^2) / (x^3, y^3)"

    def test_idempotent_on_canonical_input(self, write, capsys):
        assert main(["canon", write("ring x, y;\nI = x^2, x*y;\n")]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == "(x^2, x*y)"

    def test_json(self, write, capsys):
        assert main(["canon", "--json", write(TWO_VARS)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["canonical"] == "(x^2, x*y)"
        assert payload["types"] == {"x": [3, 4], "y": [7]}
        assert payload["canonical_gens"]["I"] == ["x^2", "x*y"]


class TestType:
    def test_plain(self, write, capsys):
        assert main(["type", write(TWO_VARS)]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out == ["type x: (3, 4)", "type y: (7,)"]


class TestDepth:
    def test_residue_field(self, write, capsys):
        assert main(["depth", write(RESIDUE)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == "depth = 0"

    def test_no_canon_agrees(self, write, capsys):
        path = write(TWO_VARS)
        assert main(["depth", path]) == EXIT_OK
        first = capsys.readouterr().out.splitlines()[0]
        assert main(["depth", "--no-canon", path]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == first

    def test_prime_field_flag(self, write, capsys):
        assert main(["depth", "--field", "p32003", write(MAXIMAL)]) == EXIT_OK
        payload = capsys.readouterr().out.splitlines()
        assert payload[0] == "depth = 1"

    def test_bad_field_flag(self, write, capsys):
        assert main(["depth", "--field", "p15", write(MAXIMAL)]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_field_past_the_primality_bound(self, write, capsys):
        # a strong pseudoprime to the bases 2..37, 399165290221 * 798330580441
        args = ["depth", "--field", "p318665857834031151167461", write(MAXIMAL)]
        assert main(args) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "too large" in err

    def test_trace_lines_on_stderr(self, write, capsys):
        assert main(["depth", "--trace", write("ring x, y;\nI = 1;\nJ = x*y;\n")]) == EXIT_OK
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.err.splitlines()]
        assert {"multidegree": [1, 1], "present": 3, "h": [0, 1, 0]} in records

    def test_box_cap_exit_code(self, write, capsys):
        assert main(["depth", "--no-canon", write(HUGE)]) == EXIT_RESOURCE
        assert "resource limit" in capsys.readouterr().err

    def test_json(self, write, capsys):
        assert main(["depth", "--json", write(MAXIMAL)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 1
        assert payload["field"] == "Q"
        assert payload["canonicalized"] is True


class TestSdepth:
    def test_plain_with_certificate(self, write, capsys):
        assert main(["sdepth", write(MAXIMAL)]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "sdepth = 1"
        assert "decomposition:" in out
        assert "  x * K[x]" in out
        assert "  y * K[y]" in out
        assert "  x*y * K[x, y]" in out

    def test_no_canon_drops_the_note(self, write, capsys):
        path = write(MAXIMAL)
        assert main(["sdepth", path]) == EXIT_OK
        noted = capsys.readouterr().out
        assert "computed on canonical form" in noted
        assert main(["sdepth", "--no-canon", path]) == EXIT_OK
        assert "computed on canonical form" not in capsys.readouterr().out

    def test_json_intervals(self, write, capsys):
        assert main(["sdepth", "--json", write(MAXIMAL)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 1
        assert [[1, 0], [1, 0]] in payload["intervals"]
        assert payload["stanley_spaces"] == ["x * K[x]", "y * K[y]", "x*y * K[x, y]"]

    def test_box_cap_exit_code(self, write, capsys):
        assert main(["sdepth", "--no-canon", write(HUGE)]) == EXIT_RESOURCE
        assert "resource limit" in capsys.readouterr().err

    def test_unverified_certificate_exit_code(self, write, capsys, monkeypatch):
        monkeypatch.setattr("monocanon.bench.verify_decomposition",
                            lambda *args, **kwargs: False)
        assert main(["sdepth", write(MAXIMAL)]) == EXIT_VIOLATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "invariance violation: certificate for sdepth = 1 failed verification\n"
        )

    def test_out_of_memory_exit_code(self, write, capsys, monkeypatch):
        def exhausts(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("monocanon.bench.sdepth", exhausts)
        assert main(["sdepth", write(MAXIMAL)]) == EXIT_RESOURCE
        assert capsys.readouterr() == ("", "resource limit: out of memory\n")


class TestBoxCap:
    @pytest.mark.parametrize("command, box", [
        (["sdepth", "--no-canon"], "characteristic"),
        (["depth", "--no-canon"], "Koszul"),
        (["bench"], "characteristic"),
    ])
    def test_a_count_too_long_to_print_gives_a_power_of_two(self, command, box, write,
                                                            capsys):
        assert main([*command, write(WIDEST)]) == EXIT_RESOURCE
        assert capsys.readouterr() == ("", (
            f"resource limit: {box} box has at least 2^14570 cells, "
            "over the cap of 100000000\n"))


class TestCheck:
    def test_file_pass(self, write, capsys):
        assert main(["check", write(QUOTIENT)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("PASS")
        assert "depth=" in out and "sdepth=" in out

    def test_random_suite(self, write, capsys):
        assert main(["check", "--random", "2", "3", "4", "99"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert all(line.startswith("PASS random[") for line in lines)

    def test_random_json(self, capsys):
        assert main(["check", "--json", "--random", "2", "2", "2", "7"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert [r["status"] for r in payload["results"]] == ["PASS", "PASS"]

    def test_requires_exactly_one_source(self, write, capsys):
        assert main(["check"]) == EXIT_USAGE
        assert main(["check", write(MAXIMAL), "--random", "2", "2", "1", "1"]) == EXIT_USAGE

    def test_rejects_bad_random_parameters(self, capsys):
        assert main(["check", "--random", "0", "2", "1", "1"]) == EXIT_USAGE

    def test_violation_exit_code(self, write, capsys, monkeypatch):
        from monocanon.invariance import FAIL, CheckRecord

        monkeypatch.setattr(
            "monocanon.cli.check_factor",
            lambda label, F, rng, **limits: CheckRecord(label, FAIL, reason="forced"),
        )
        assert main(["check", write(MAXIMAL)]) == EXIT_VIOLATION
        assert "FAIL" in capsys.readouterr().out

    def test_unverified_certificate_exit_code(self, write, capsys, monkeypatch):
        monkeypatch.setattr("monocanon.invariance.verify_decomposition",
                            lambda *args, **kwargs: False)
        path = write(MAXIMAL)
        assert main(["check", path]) == EXIT_VIOLATION
        assert capsys.readouterr().out == (
            f"FAIL {path}: sdepth certificate of form 'input' failed verification\n"
        )

    def test_leaves_out_a_shift_past_the_exponent_cap(self, write, capsys):
        # shifting x^(2^31 - 1) up by one would leave the exponent cap; the
        # other forms are checked, and the input's Koszul box is over the cap
        path = write("ring x;\nI = x^2147483647;\n")
        assert main(["check", path]) == EXIT_OK
        assert capsys.readouterr().out == (
            f"SKIPPED {path}: Koszul box has 2147483648 cells, "
            "over the cap of 100000000\n")


class TestReadmeTranscript:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_output_matches_the_readme(self, command, tmp_path, monkeypatch, capsys):
        problem, outputs = readme_example(README.read_text(encoding="utf-8"))
        (tmp_path / "problem.ideal").write_text(problem, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main([command, "problem.ideal"]) == EXIT_OK
        assert capsys.readouterr().out == outputs[f"{command} problem.ideal"]


class TestBench:
    def test_report_lines(self, write, capsys):
        assert main(["bench", write(TWO_VARS), "--repeat", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "canonical form:  (x^2, x*y)" in out
        assert "sdepth: raw=" in out
        assert "depth: raw=" in out
        assert "speedup" in out

    def test_json_round_trip(self, write, capsys):
        assert main(["bench", "--json", write(TWO_VARS)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload.pop("command") == "bench"
        assert set(payload) == {f.name for f in fields(BenchReport)}
        assert payload["raw_box_volume"] == 40
        assert payload["canonical_box_volume"] == 6
        assert set(payload["metrics"]) == {"sdepth", "depth"}
        for m in payload["metrics"].values():
            assert set(m) == {"raw", "canonical", "speedup", "speedup_is_lower_bound"}
            assert set(m["raw"]) == set(m["canonical"]) == {"value", "millis", "timed_out"}
            assert m["raw"]["value"] == m["canonical"]["value"]

    def test_rejects_zero_repeats(self, write, capsys):
        assert main(["bench", write(TWO_VARS), "--repeat", "0"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.strip() == "error: repeat must be at least 1, got 0"

    @pytest.mark.parametrize("timeout", ["-1", "0", "nan", "inf"])
    def test_rejects_a_timeout_that_is_not_positive_and_finite(self, write, capsys,
                                                              timeout):
        assert main(["bench", write(TWO_VARS), "--timeout", timeout]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.strip() == (
            f"error: timeout must be a positive number of seconds, got {float(timeout)}"
        )

    def test_unverified_certificate_exit_code(self, write, capsys, monkeypatch):
        monkeypatch.setattr("monocanon.bench.verify_decomposition",
                            lambda *args, **kwargs: False)
        assert main(["bench", write(TWO_VARS)]) == EXIT_VIOLATION
        assert capsys.readouterr() == (
            "", "invariance violation: certificate for sdepth = 1 failed verification\n")

    def test_a_box_over_the_cap_is_a_resource_limit_not_a_timeout(self, write, capsys):
        # the raw box has 20001^2 cells and is refused at once; the canonical
        # box has 9
        text = "ring x, y;\nI = x^20000*y, x*y^20000;\n"
        assert main(["bench", write(text)]) == EXIT_RESOURCE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "resource limit: characteristic box has 400040001 cells, "
            "over the cap of 100000000\n"
        )


class TestTimeout:
    @pytest.mark.parametrize("command", ["depth", "sdepth", "check"])
    def test_a_passed_deadline_is_a_resource_limit(self, command, write, capsys,
                                                   monkeypatch):
        # the deadline is patched into the past, so no timing is involved
        monkeypatch.setattr("monocanon.cli.deadline_from_timeout",
                            lambda seconds: time.monotonic() - 1.0)
        assert main([command, write(QUOTIENT), "--timeout", "60"]) == EXIT_RESOURCE
        assert capsys.readouterr() == ("", "resource limit: wall-clock deadline exceeded\n")

    def test_check_stops_drawing_random_factors_at_the_deadline(self, capsys):
        # drawing all 300,000 factors takes far longer than the timeout
        start = time.monotonic()
        args = ["check", "--random", "1", "1", "300000", "1", "--timeout", "0.2"]
        assert main(args) == EXIT_RESOURCE
        assert time.monotonic() - start < 5.0
        assert capsys.readouterr() == ("", "resource limit: wall-clock deadline exceeded\n")

    @pytest.mark.parametrize("command", ["depth", "sdepth", "check"])
    def test_a_generous_timeout_changes_nothing(self, command, write, capsys):
        path = write(QUOTIENT)
        assert main([command, path]) == EXIT_OK
        plain = capsys.readouterr()
        assert main([command, path, "--timeout", "60"]) == EXIT_OK
        assert capsys.readouterr() == plain

    @pytest.mark.parametrize("command", ["depth", "sdepth", "check"])
    @pytest.mark.parametrize("timeout", ["-1", "0", "nan", "inf"])
    def test_rejects_a_timeout_that_is_not_positive_and_finite(self, command, timeout,
                                                              write, capsys):
        assert main([command, write(QUOTIENT), "--timeout", timeout]) == EXIT_USAGE
        assert capsys.readouterr() == ("", (
            f"error: timeout must be a positive number of seconds, got {float(timeout)}\n"))


class TestNodeBudget:
    @pytest.mark.parametrize("command", ["sdepth", "check"])
    def test_an_exceeded_budget_is_a_resource_limit(self, command, write, capsys):
        # (x, y) needs two nodes at d=1
        assert main([command, write(MAXIMAL), "--node-budget", "1"]) == EXIT_RESOURCE
        assert capsys.readouterr() == (
            "", "resource limit: partition search exceeded 1 nodes at d=1\n")

    def test_check_stops_at_the_first_search_over_budget(self, capsys):
        args = ["check", "--random", "3", "3", "5", "1", "--node-budget", "1"]
        assert main(args) == EXIT_RESOURCE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("resource limit: partition search exceeded 1 nodes at d=")

    @pytest.mark.parametrize("command", ["sdepth", "check"])
    def test_a_sufficient_budget_changes_nothing(self, command, write, capsys):
        path = write(MAXIMAL)
        assert main([command, path]) == EXIT_OK
        plain = capsys.readouterr()
        assert main([command, path, "--node-budget", "2"]) == EXIT_OK
        assert capsys.readouterr() == plain

    @pytest.mark.parametrize("command", ["sdepth", "check"])
    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_rejects_a_budget_below_one(self, command, budget, write, capsys):
        assert main([command, write(MAXIMAL), "--node-budget", budget]) == EXIT_USAGE
        assert capsys.readouterr() == (
            "", f"error: node budget must be a positive integer, got {budget}\n")

    @pytest.mark.parametrize("command", ["sdepth", "check"])
    @pytest.mark.parametrize("budget", ["x", "1.5", ""])
    def test_rejects_a_budget_that_is_not_an_integer(self, command, budget, write,
                                                     capsys):
        assert main([command, write(MAXIMAL), "--node-budget", budget]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: argument --node-budget: invalid int value")


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_unknown_flag(self, write, capsys):
        assert main(["canon", "--wat", write(MAXIMAL)]) == EXIT_USAGE

    def test_missing_file(self, capsys):
        assert main(["canon", "/no/such/file"]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_parse_error_position(self, write, capsys):
        assert main(["canon", write("ring x;\nI = x^;\n")]) == EXIT_USAGE
        assert "line 2" in capsys.readouterr().err

    @given(text=helpers.near_valid_texts())
    def test_near_valid_texts_exit_cleanly(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fuzz") / "ideal.txt"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["depth", str(path)])
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_RESOURCE)
        assert "Traceback" not in err.getvalue()
