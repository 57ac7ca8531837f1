"""End-to-end acceptance gate.

One test per criterion.  Each leaves a PASS or FAIL line in the terminal
summary so a full run reads as a checklist; random suites are seeded, so
every run checks the same instances.  Stated time bounds are asserted;
the invariance suite's bound is a soft target and is only reported.
"""

import random
import time
from contextlib import contextmanager

import pytest

import conftest
import oracle
from helpers import fac
from monocanon import (
    Factor,
    FactorError,
    MonomialIdeal,
    PASS,
    PrimeField,
    applicable_gaps,
    build_forms,
    canonicalize,
    canonicalize_ideal,
    check_forms,
    collapse_gap_step,
    depth,
    format_factor,
    format_ideal,
    random_factor,
    random_ideal,
    run_bench,
    sdepth,
    verify_decomposition,
)

SEED = 20260813


@contextmanager
def criterion(num, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException as exc:
        conftest.record_acceptance(
            f"ACCEPTANCE {num} FAIL {label} [{type(exc).__name__}]"
        )
        raise
    elapsed = time.perf_counter() - start
    conftest.record_acceptance(f"ACCEPTANCE {num} PASS {label} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def invariance_suite():
    """200 seeded random factors (n <= 3, exponents <= 5), each checked on the
    input, its canonical form, every applicable single gap collapse, and one
    random shift.  Shared by criteria 3, 4, and 8."""
    rng = random.Random(SEED)
    rows = []
    for i in range(200):
        F = random_factor(rng, rng.randint(1, 3), 5)
        forms = build_forms(F, rng)
        for v, j in applicable_gaps(F):
            forms[f"collapse(v={v},j={j})"] = collapse_gap_step(F, v, j)
        rows.append((F, forms, check_forms(f"factor[{i}]", forms)))
    return rows


def test_criterion_1_golden_canonical_forms():
    with criterion(1, "golden canonical forms"):
        start = time.perf_counter()
        xy = ("x", "y")
        xyz = ("x", "y", "z")

        C = canonicalize(fac("x, y", "x^4, x^3*y^7"))
        assert format_factor(C, xy) == "(x^2, x*y)"

        C = canonicalize(
            fac(
                "x, y, z",
                "x^10*y^5, x^4*y*z^7, y^3*z^7",
                "x^10*y^20*z^2, x^3*y^4*z^13, x^9*y^2*z^7",
            )
        )
        assert format_factor(C, xyz) == (
            "(x^2*y*z^2, y^3*z^2, x^4*y^5) / (x^3*y^2*z^2, x*y^4*z^3, x^4*y^6*z)"
        )

        F = fac("x, y", "x^4, y^10, x^2*y^7", "x^20, y^30")
        assert format_factor(canonicalize(F), xy) == "(x^2, x*y, y^2) / (x^3, y^3)"
        I1 = canonicalize_ideal(F.I)
        J1 = canonicalize_ideal(F.J)
        assert format_ideal(I1, xy) == "(x^2, x*y, y^2)"
        assert format_ideal(J1, xy) == "(x, y)"
        with pytest.raises(FactorError):
            Factor(I1, J1)  # the separately canonicalized pair is no longer nested

        C = canonicalize(fac("x, y, z", "x^100*y*z, x^50*y*z^50, x^50*y^50*z"))
        assert format_factor(C, xyz) == "(x^2*y*z, x*y^2*z, x*y*z^2)"

        assert time.perf_counter() - start < 1.0


def test_criterion_2_idempotence_and_squarefree_fixed_points():
    with criterion(2, "canonicalize is idempotent and fixes squarefree ideals"):
        start = time.perf_counter()
        rng = random.Random(SEED + 2)
        for _ in range(500):
            I = random_ideal(rng, rng.randint(1, 4), 9)
            C = canonicalize_ideal(I)
            assert canonicalize_ideal(C) == C
            squarefree = MonomialIdeal(
                I.n, [tuple(min(e, 1) for e in m) for m in I.gens]
            )
            assert canonicalize_ideal(squarefree) == squarefree
        assert time.perf_counter() - start < 10.0


def test_criterion_3_depth_and_sdepth_invariance(invariance_suite):
    with criterion(3, "depth and sdepth equal across canonical, collapse, and shift forms"):
        assert len(invariance_suite) >= 200
        failures = [rec.line() for _, _, rec in invariance_suite if rec.status != PASS]
        assert failures == []
        # the suite really exercises gap collapses, not just canonical + shift
        assert sum(len(forms) > 3 for _, forms, _ in invariance_suite) > 50


def test_criterion_4_stanley_predicate_transfer(invariance_suite):
    with criterion(4, "sdepth >= depth agrees between input and canonical form"):
        for _, _, rec in invariance_suite:
            assert rec.status == PASS
            before = rec.sdepth_values["input"] >= rec.depth_values["input"]
            after = rec.sdepth_values["canonical"] >= rec.depth_values["canonical"]
            assert before == after


def test_criterion_5_oracle_equivalence_and_box_padding():
    with criterion(5, "sdepth matches exhaustive oracle; depth stable under box padding"):
        start = time.perf_counter()
        rng = random.Random(SEED + 5)
        for _ in range(50):
            F = random_factor(rng, rng.randint(1, 3), 3)
            assert sdepth(F)[0] == oracle.oracle_sdepth(F)
            assert depth(F) == oracle.oracle_depth(F, pad=1)
        assert time.perf_counter() - start < 300.0


def test_criterion_6_known_values():
    with criterion(6, "known depth and sdepth values"):
        start = time.perf_counter()
        assert sdepth(fac("x", "x"))[0] == 1
        assert sdepth(fac("x, y", "x, y"))[0] == 1
        assert sdepth(fac("x, y, z", "x, y, z"))[0] == 2
        assert depth(fac("x, y", "1", "x, y")) == 0
        assert depth(fac("x, y", "1", "x*y")) == 1
        assert depth(fac("x, y", "x, y")) == 1
        for n in range(1, 5):
            ring = ", ".join(f"x{i}" for i in range(1, n + 1))
            assert depth(fac(ring, "1")) == n
        # pairwise-coprime generators form a regular sequence: depth n - c
        rng = random.Random(SEED + 6)
        for _ in range(20):
            n = rng.randint(2, 4)
            c = rng.randint(1, n)
            variables = list(range(n))
            rng.shuffle(variables)
            gens = []
            for block in (variables[i::c] for i in range(c)):
                m = [0] * n
                for v in block:
                    m[v] = rng.randint(1, 3)
                gens.append(tuple(m))
            F = Factor(MonomialIdeal(n, [(0,) * n]), MonomialIdeal(n, gens))
            assert depth(F) == n - c
        assert time.perf_counter() - start < 60.0


def test_criterion_7_speedup_reproduction():
    with criterion(7, "canonicalization speedup on the wide-exponent benchmark"):
        F = fac("x, y, z", "x^100*y*z, x^50*y*z^50, x^50*y^50*z")
        report = run_bench(
            F, ("x", "y", "z"), label="wide-exponent benchmark",
            repeat=1, timeout=300.0,
        )
        assert report.raw_box_volume == 262701
        assert report.canonical_box_volume == 27
        assert report.box_ratio >= 9000

        sd = report.metrics["sdepth"]
        assert sd.canonical.value == 2
        assert not sd.canonical.timed_out
        assert sd.speedup is not None and sd.speedup >= 100
        if sd.raw.timed_out:
            assert sd.speedup_is_lower_bound
        else:
            assert sd.raw.value == sd.canonical.value

        dp = report.metrics["depth"]
        assert dp.raw.value == dp.canonical.value == 1
        conftest.record_acceptance(
            f"  criterion 7 detail: sdepth raw {sd.raw.millis:.0f} ms"
            f"{' (timeout)' if sd.raw.timed_out else ''}"
            f" vs canonical {sd.canonical.millis:.2f} ms,"
            f" speedup {'>=' if sd.speedup_is_lower_bound else '='} {sd.speedup:.0f}x"
        )


def test_criterion_8_certificate_and_homology_soundness(invariance_suite):
    with criterion(8, "certificates verify; boundary and rigidity checks hold"):
        # check_forms verifies every certificate it computes; a bad one FAILs
        assert all(rec.status == PASS for _, _, rec in invariance_suite)
        # a fresh end-to-end pass with both fields exercises the built-in
        # boundary-composition and rigidity assertions on every depth run
        rng = random.Random(SEED + 8)
        for _ in range(40):
            F = random_factor(rng, rng.randint(1, 3), 4)
            d, cert = sdepth(F)
            assert verify_decomposition(F, cert, d)
            assert depth(F) == depth(F, PrimeField(32003))
