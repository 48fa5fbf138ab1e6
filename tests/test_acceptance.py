"""The acceptance gate: one test per criterion, each printing a
PASS/FAIL line (run with -s to see them live).

Criterion 8 is the floating-point cross-check of the exact rational
lvalue_closed_form against the Cesaro-averaged Gauss-sum series.
"""

import random
import time

from cyclelift.cli import DEFAULT_SEED
from cyclelift.sweeps import (
    sweep_chart_consistency,
    sweep_local_compare,
    sweep_r_formula,
    sweep_rho,
)
from cyclelift.numth import INFINITY, factorize, hilbert_symbol, is_prime
from cyclelift.qseries import ShimuraParams, lvalue_numeric_scaled
from cyclelift.quadfield import (
    auxiliary_split_prime,
    chi_k,
    lvalue_closed_form,
    make_field,
    optimal_embedding_count,
    rho_divisor_sum,
)
from cyclelift.identity import fiber_count, verify_main_theorem, verify_remark_identity
from oracles import class_number_by_ideals, hilbert_bruteforce

DELTAS = (-2, -6, -10, -14, -22, -26)
INERT_GRID = ((3, -10), (5, -2))  # the inert pairs of {3,5} x {-2,-10}


def report(n, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n:2d} ({name}): {status} {detail}")
    assert ok, f"criterion {n} ({name}) failed: {detail}"


class TestAcceptance:
    def test_01_rho_identity(self):
        t0 = time.perf_counter()
        rep = sweep_rho(DELTAS, 5000)
        elapsed = time.perf_counter() - t0
        report(
            1,
            "rho-identity",
            rep.ok and elapsed < 5.0,
            f"checked={rep.checked} mismatches={len(rep.mismatches)} time={elapsed:.2f}s",
        )

    def test_02_class_numbers(self):
        t0 = time.perf_counter()
        bad = []
        for delta in DELTAS:
            forms = make_field(delta).class_number
            ideals = class_number_by_ideals(delta)
            if forms != ideals:
                bad.append((delta, forms, ideals))
        elapsed = time.perf_counter() - t0
        report(
            2,
            "class-numbers",
            not bad and elapsed < 5.0,
            f"deltas={len(DELTAS)} mismatches={bad} time={elapsed:.2f}s",
        )

    def test_03_r_formula(self):
        rng = random.Random(DEFAULT_SEED)
        t0 = time.perf_counter()
        total_vectors = 0
        total_checked = 0
        mismatches = 0
        for (p, delta), count in zip(INERT_GRID, (40, 12)):
            rep = sweep_r_formula(p, delta, count, 6, rng)
            total_vectors += count
            total_checked += rep.checked
            mismatches += len(rep.mismatches)
        elapsed = time.perf_counter() - t0
        report(
            3,
            "r-formula",
            mismatches == 0 and total_vectors >= 50 and elapsed < 60.0,
            f"vectors={total_vectors} lattice-checks={total_checked} "
            f"mismatches={mismatches} time={elapsed:.1f}s",
        )

    def test_04_cycle_comparison(self):
        rng = random.Random(DEFAULT_SEED)
        mismatches = 0
        checked = 0
        for p, delta in INERT_GRID:
            rep = sweep_local_compare(p, delta, 4, rng)
            checked += rep.checked
            mismatches += len(rep.mismatches)
        report(
            4,
            "cycle-comparison",
            mismatches == 0,
            f"checked={checked} mismatches={mismatches}",
        )

    def test_05_chart_consistency(self):
        rng = random.Random(DEFAULT_SEED)
        mismatches = 0
        checked = 0
        for (p, delta), count in zip(INERT_GRID, (10, 6)):
            rep = sweep_chart_consistency(p, delta, count, 6, rng)
            checked += rep.checked
            mismatches += len(rep.mismatches)
        report(
            5,
            "chart-consistency",
            mismatches == 0,
            f"checked={checked} mismatches={mismatches}",
        )

    def test_06_main_theorem(self):
        t0 = time.perf_counter()
        bad = []
        for delta, db in ((-2, 35), (-10, 51), (-2, 65)):
            rep = verify_main_theorem(make_field(delta), db, 300)
            if not rep.ok:
                bad.append((delta, db, len(rep.mismatches)))
        elapsed = time.perf_counter() - t0
        report(
            6,
            "main-theorem",
            not bad and elapsed < 10.0,
            f"grids=3 mmax=300 mismatches={bad} time={elapsed:.2f}s",
        )

    def test_07_remark_identity(self):
        bad = []
        for delta, db in ((-2, 35), (-10, 51), (-2, 65)):
            field = make_field(delta)
            classes = optimal_embedding_count(field, db)
            rep = verify_remark_identity(field, db, 200, classes)
            if not rep.ok:
                bad.append((delta, db, len(rep.mismatches)))
        report(7, "remark-identity", not bad, f"grids=3 mmax=200 mismatches={bad}")

    def test_08_constant_term_cross_check(self):
        # The Cesaro-averaged series (-1.99980 at 10^5 terms) against the
        # exact rational (i/2pi) L(1, check chi_t) = -2 that both
        # constant terms consume.
        field = make_field(-2)
        exact = lvalue_closed_form(field, 35)
        params = ShimuraParams(kappa=3, level_N=35, t=2)
        value = lvalue_numeric_scaled(params, 10**5)
        rel = abs(value.real - float(exact)) / abs(float(exact))
        report(
            8,
            "constant-term-cross-check",
            rel < 1e-4,
            f"numeric={value.real:.6f} closed_form={float(exact):.6f} rel={rel:.2e}",
        )

    def test_09_auxiliary_prime(self):
        failures = []
        checked = 0
        for delta in (-2, -10):
            field = make_field(delta)
            for p in range(3, 51, 2):
                if not is_prime(p) or chi_k(field, p) != -1:
                    continue
                q = auxiliary_split_prime(field, p)
                checked += 1
                a = -p * q
                places = {2, p, q} | set(factorize(-delta).primes)
                profile_ok = chi_k(field, q) == 1
                if hilbert_symbol(a, delta, INFINITY) != -1:
                    profile_ok = False
                if hilbert_bruteforce(a, delta, "infinity") != -1:
                    profile_ok = False
                for ell in sorted(places):
                    expected = -1 if ell == p else 1
                    if hilbert_symbol(a, delta, ell) != expected:
                        profile_ok = False
                    if hilbert_bruteforce(a, delta, ell) != expected:
                        profile_ok = False
                if not profile_ok:
                    failures.append((delta, p, q))
        report(
            9,
            "auxiliary-prime",
            checked > 0 and not failures,
            f"cases={checked} failures={failures}",
        )

    def test_10_fiber_count(self):
        field = make_field(-2)
        cases = 0
        bad = 0
        zero_cases = 0
        value_cases = 0
        for c in (1, 2, 3):
            for nu_p in (1, 5):
                for nu_away in (1, 7):
                    den = c * 2 * nu_p * nu_away
                    for k in (1, 2, 3, 6, 9):
                        # integral argument: oracle via the divisor sum
                        expected = field.unit_order * rho_divisor_sum(field, k)
                        if fiber_count(field, den * k, c, nu_p, nu_away) != expected:
                            bad += 1
                        value_cases += 1
                        cases += 1
                    # non-integral argument: the fiber is empty
                    if fiber_count(field, den + 1, c, nu_p, nu_away) != 0:
                        bad += 1
                    zero_cases += 1
                    cases += 1
        report(
            10,
            "fiber-count",
            bad == 0 and cases >= 50 and zero_cases >= 10 and value_cases >= 40,
            f"cases={cases} value-cases={value_cases} "
            f"non-integral-zeros={zero_cases} mismatches={bad}",
        )
