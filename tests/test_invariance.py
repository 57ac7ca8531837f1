"""Invariance checking records, random instance generation, and the bench harness."""

import importlib
import random
from types import SimpleNamespace

import pytest

from helpers import fac
from monocanon import invariance
from monocanon import (
    FAIL,
    PASS,
    SKIPPED,
    InvarianceViolation,
    build_forms,
    canonicalize,
    check_factor,
    check_forms,
    divides,
    random_factor,
    random_ideal,
    run_bench,
)
from monocanon.bench import _measure
from monocanon.canonical import shift_transform
from monocanon.cli import main


def count_calls(monkeypatch, *names, module="monocanon.invariance"):
    """Wrap the named functions of module to count their calls."""
    module = importlib.import_module(module)
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return counts


class TestDuplicateForms:
    def test_equal_forms_are_computed_once(self, monkeypatch):
        # x-degrees of F top out at 4, so shifting at k = 5 moves nothing
        F = fac("x, y", "x^4, x^3*y^7")
        forms = {"input": F, "canonical": canonicalize(F),
                 "shift(v=0,k=5)": shift_transform(F, 0, 5)}
        assert forms["shift(v=0,k=5)"].I.gens == F.I.gens
        assert forms["canonical"].I.gens != F.I.gens
        counts = count_calls(monkeypatch, "depth", "sdepth", "verify_decomposition")
        shared = count_calls(monkeypatch, "_element_set")
        inner = count_calls(monkeypatch, "_element_set", module="monocanon.sdepth")
        rec = check_forms("dup", forms)
        # one search, on the canonical form; the input verifies its lift; the
        # canonical form has the input's rank coding, so one Koszul scan
        assert counts == {"depth": 1, "sdepth": 1, "verify_decomposition": 2}
        # the input's element set serves its verification, its reach test and
        # the poset whose root Hilbert test refutes level 2; the canonical
        # form's poset and verification build their own
        assert shared == {"_element_set": 1}
        assert inner == {"_element_set": 2}
        assert rec.status == PASS
        assert list(rec.depth_values) == list(rec.sdepth_values) == list(forms)
        assert rec.depth_values["shift(v=0,k=5)"] == rec.depth_values["input"]
        assert rec.line() == "PASS dup: depth=1 sdepth=1 on 3 forms"

    def test_check_output_is_unchanged(self, monkeypatch, capsys):
        # five of the thirty forms repeat an earlier form of their factor,
        # and each factor's forms share one canonical form, searched once;
        # the lines were printed before repeated forms were skipped; all
        # forms of a factor share one rank coding, so one Koszul scan each
        counts = count_calls(monkeypatch, "depth", "sdepth")
        assert main(["check", "--random", "2", "3", "10", "5"]) == 0
        assert counts == {"depth": 10, "sdepth": 10}
        values = [1, 1, 2, 1, 0, 0, 0, 1, 1, 1]
        assert capsys.readouterr().out == "".join(
            f"PASS random[{i}]: depth={v} sdepth={v} on 3 forms\n"
            for i, v in enumerate(values))


class TestLiftedCertificates:
    """check_forms settles a form that is not canonical from its canonical
    form's search: the lifted certificate must verify on the form, and the
    next level must be refuted on it, by its element set or by a search of
    its own poset."""

    def test_a_lift_that_does_not_verify_fails(self, monkeypatch):
        # the canonical form of F is (x^2, x*y); (x^2, y) fits the same box
        # [0, (2, 1)] but has other elements, so its lifted certificate
        # misses some of F's
        F = fac("x, y", "x^4, x^3*y^7")
        monkeypatch.setattr("monocanon.invariance.canonicalize",
                            lambda G: fac("x, y", "x^2, y"))
        rec = check_forms("wrong", {"input": F})
        assert rec.status == FAIL
        assert rec.line() == (
            "FAIL wrong: sdepth certificate of form 'input' failed verification")

    def test_a_level_only_the_fallback_search_finds_fails(self, monkeypatch):
        # (x)/(x^2) has the one element x, like the canonical form (x) of
        # (x^3), but in the box [0, 2] its rho is 0, so its certificate sits
        # at level 0.  It lifts to [x^3, x^3], which verifies on (x^3) at
        # level 0, and neither the reach test nor exists_partition's root
        # Hilbert test refutes level 1, which is feasible: only the search of
        # (x^3)'s own poset finds it
        F, W = fac("x", "x^3"), fac("x", "x", "x^2")
        monkeypatch.setattr("monocanon.invariance.canonicalize", lambda G: W)
        counts = count_calls(monkeypatch, "root_refutation", "exists_partition",
                             "sdepth", "depth")
        inner = count_calls(monkeypatch, "_element_set", module="monocanon.sdepth")
        rec = check_forms("wrong", {"input": F, "canonical": W})
        assert rec.status == FAIL
        assert rec.sdepth_values == {"input": 1, "canonical": 0}
        # W is not a presentation of F, so depth differs as well
        assert rec.depth_values == {"input": 1, "canonical": 0}
        # W for the input, F itself after the fallback, W as a form of its
        # own; W's rank coding is not F's, so each form gets its own scan
        assert counts == {"root_refutation": 1, "exists_partition": 1, "sdepth": 3,
                          "depth": 2}
        # the fallback's poset reuses the input's element set, built once in
        # check_forms; the three searches' posets and W's verification build
        # their own
        assert inner == {"_element_set": 4}

    def test_a_form_over_the_koszul_box_cap_is_skipped(self, monkeypatch):
        # (x^3) fits the cap of 4 cells, its shift (x^4) does not; the shift
        # has the input's rank coding, already scanned, but its own box cap
        # is checked before the memo is read
        F = fac("x", "x^3")
        forms = {"input": F, "canonical": canonicalize(F),
                 "shift(v=0,k=1)": shift_transform(F, 0, 1)}
        assert forms["shift(v=0,k=1)"].I.gens == ((4,),)
        counts = count_calls(monkeypatch, "depth")
        rec = check_forms("capped", forms, box_cap=4)
        assert rec.status == SKIPPED
        assert rec.reason == "Koszul box has 5 cells, over the cap of 4"
        assert rec.depth_values == {"input": 1, "canonical": 1}
        assert counts == {"depth": 1}

    def test_a_form_past_the_deadline_is_skipped(self, monkeypatch):
        # the clock passes the deadline once the canonical form is verified,
        # so the input, whose rank coding is already in the memo, must still
        # check the deadline itself
        from monocanon import limits
        clock = [0.0]
        monkeypatch.setattr(limits, "time", SimpleNamespace(monotonic=lambda: clock[0]))
        real = invariance.verify_decomposition

        def verify_then_pass_the_deadline(*args, **kwargs):
            verified = real(*args, **kwargs)
            clock[0] = 2.0
            return verified

        monkeypatch.setattr(invariance, "verify_decomposition", verify_then_pass_the_deadline)
        counts = count_calls(monkeypatch, "depth")
        F = fac("x", "x^3")
        rec = check_forms("late", {"canonical": canonicalize(F), "input": F}, deadline=1.0)
        assert rec.status == SKIPPED
        assert rec.reason == "wall-clock deadline exceeded"
        assert rec.depth_values == rec.sdepth_values == {"canonical": 1}
        assert counts == {"depth": 1}

    def test_one_rank_coding_per_form_and_per_scan(self, monkeypatch):
        # three distinct forms with one rank coding: one coding each to key
        # the memo, and one more inside the single Koszul scan
        F = fac("x", "x^3")
        forms = {"input": F, "canonical": canonicalize(F),
                 "shift(v=0,k=1)": shift_transform(F, 0, 1)}
        keys = count_calls(monkeypatch, "_rank_coding")
        scans = count_calls(monkeypatch, "_rank_coding", module="monocanon.koszul")
        assert check_forms("codings", forms).status == PASS
        assert keys["_rank_coding"] + scans["_rank_coding"] == 4

    def test_a_certificate_that_does_not_lift_fails(self, monkeypatch):
        # the canonical box of F is [0, (2, 1)]; (x^3, y^2) has the box
        # [0, (3, 2)], so its certificate leaves F's and cannot be lifted
        monkeypatch.setattr("monocanon.invariance.canonicalize",
                            lambda G: fac("x, y", "x^3, y^2"))
        rec = check_forms("wrong", {"input": fac("x, y", "x^4, x^3*y^7")})
        assert rec.status == FAIL
        assert rec.line() == (
            "FAIL wrong: sdepth certificate of form 'input' failed verification")

    def test_the_fallback_search_alone_gives_the_same_output(self, monkeypatch, capsys):
        # with the element-set refutation switched off, every form that is
        # not canonical is settled by a search of its own poset at s + 1
        counts = count_calls(monkeypatch, "exists_partition")
        monkeypatch.setattr("monocanon.invariance.root_refutation",
                            lambda *args, **kwargs: None)
        assert main(["check", "--random", "2", "3", "10", "5"]) == 0
        assert counts["exists_partition"] > 0
        values = [1, 1, 2, 1, 0, 0, 0, 1, 1, 1]
        assert capsys.readouterr().out == "".join(
            f"PASS random[{i}]: depth={v} sdepth={v} on 3 forms\n"
            for i, v in enumerate(values))


class TestRandomGen:
    def test_deterministic(self):
        a = random_factor(random.Random(7), 3, 4)
        b = random_factor(random.Random(7), 3, 4)
        assert a == b

    def test_respects_bounds(self):
        rng = random.Random(1)
        for _ in range(50):
            I = random_ideal(rng, 3, 4)
            assert 1 <= len(I.gens) <= 5
            assert all(0 <= e <= 4 for m in I.gens for e in m)

    def test_denominator_inside_and_bounded(self):
        rng = random.Random(2)
        for _ in range(50):
            F = random_factor(rng, 3, 4)
            assert F.I.contains_ideal(F.J)
            assert all(e <= 4 for m in F.J.gens for e in m)
            for m in F.J.gens:
                assert any(divides(g, m) for g in F.I.gens)


class TestCheckForms:
    def test_pass_on_honest_forms(self):
        rec = check_factor("probe", fac("x, y", "x^4, x^3*y^7"), random.Random(3))
        assert rec.status == PASS
        assert rec.line().startswith("PASS probe: depth=")
        assert len(rec.depth_values) == 3  # input, canonical, one shift
        assert len(set(rec.depth_values.values())) == 1
        assert len(set(rec.sdepth_values.values())) == 1

    def test_build_forms_shape(self):
        forms = build_forms(fac("x, y", "x^2"), random.Random(5))
        assert set(forms)  # non-empty
        assert "input" in forms and "canonical" in forms
        assert any(name.startswith("shift(") for name in forms)

    def test_corrupted_pair_fails(self):
        # a deliberately wrong "canonical" partner: different module entirely
        forms = {
            "input": fac("x, y", "x, y"),
            "canonical": fac("x, y", "x"),
        }
        rec = check_forms("bad", forms)
        assert rec.status == FAIL
        assert "differs" in rec.reason
        assert rec.line().startswith("FAIL bad:")

    def test_a_certificate_that_fails_verification_is_a_failure(self, monkeypatch):
        monkeypatch.setattr("monocanon.invariance.verify_decomposition",
                            lambda *args, **kwargs: False)
        rec = check_forms("probe", {"input": fac("x, y", "x^2, x*y")})
        assert rec.status == FAIL
        assert rec.line() == (
            "FAIL probe: sdepth certificate of form 'input' failed verification"
        )

    def test_budget_exhaustion_is_skipped_not_passed(self):
        rec = check_forms("tight", {"input": fac("x, y, z", "x, y, z")},
                          node_budget=0)
        assert rec.status == SKIPPED
        assert "0 nodes" in rec.reason


class TestBench:
    def test_report_shape_and_invariants(self):
        F = fac("x, y", "x^4, x^3*y^7")
        report = run_bench(F, ("x", "y"), label="probe", repeat=2)
        assert report.raw_box_volume == 40
        assert report.canonical_box_volume == 6
        assert report.box_ratio == pytest.approx(40 / 6)
        assert set(report.metrics) == {"sdepth", "depth"}
        for metric in report.metrics.values():
            assert metric.raw.value == metric.canonical.value
            assert not metric.raw.timed_out
            assert metric.speedup is not None
            assert not metric.speedup_is_lower_bound

    @pytest.mark.parametrize("timeout", [-1.0, 0.0, float("nan"), float("inf")])
    def test_rejects_a_timeout_that_is_not_positive_and_finite(self, timeout):
        with pytest.raises(ValueError, match="timeout must be a positive number"):
            run_bench(fac("x, y", "x^2, x*y"), ("x", "y"), timeout=timeout)

    def test_no_speedup_when_the_canonical_side_times_out(self, monkeypatch):
        from monocanon import bench
        from monocanon.limits import TimeLimitError

        def times_out(*args, **kwargs):
            raise TimeLimitError("wall-clock deadline exceeded")

        monkeypatch.setattr(bench, "sdepth", times_out)
        monkeypatch.setattr(bench, "depth", times_out)
        report = run_bench(fac("x, y", "x^2, x*y"), ("x", "y"), timeout=1.0)
        for metric in report.metrics.values():
            assert metric.canonical.timed_out
            assert metric.speedup is None

    def test_measure_rejects_unstable_values(self):
        results = iter([1, 2])

        def flaky(deadline):
            return next(results)

        with pytest.raises(InvarianceViolation, match="disagreed"):
            _measure(flaky, repeat=2, timeout=None)

    def test_measure_records_timeout_as_lower_bound(self):
        from monocanon.limits import TimeLimitError

        def never(deadline):
            raise TimeLimitError("synthetic")

        timing = _measure(never, repeat=3, timeout=0.001)
        assert timing.timed_out
        assert timing.value is None

    def test_measure_raises_a_limit_that_is_not_a_timeout(self):
        from monocanon.limits import BoxCapError

        def refused(deadline):
            raise BoxCapError("synthetic")

        with pytest.raises(BoxCapError, match="synthetic"):
            _measure(refused, repeat=3, timeout=1.0)
