"""Acceptance suite: one test per criterion, exact integer equality only.

Each test prints a single pass/fail line (visible with `pytest -s` or on
failure) and enforces the criterion's runtime budget.  Criterion 11 drives
the CLI end to end.

Run with:  pytest tests/test_acceptance.py -v -s
"""
import random
import subprocess
import sys
import time

from paracount.selftest import (
    FULL,
    check_backedge_identity,
    check_bp,
    check_cnf_counters,
    check_det_cross,
    check_hom_correspondence,
    check_involution,
    check_mc_local,
    check_pdet_clow_vs_direct,
    check_reductions,
    check_walk_counters,
)

SEED = 7


def _run(number: int, description: str, budget_s: float, prop) -> None:
    rng = random.Random(f"{SEED}:acceptance:{number}")
    started = time.monotonic()
    failures = prop(rng, FULL)
    elapsed = time.monotonic() - started
    status = "PASS" if not failures and elapsed < budget_s else "FAIL"
    print(f"criterion {number:2d} {status}  {description} ({elapsed:.1f}s / {budget_s:.0f}s)")
    assert not failures, failures[:5]
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s"


def test_criterion_01_clow_expansion_identity():
    # >= 500 random 0/1 matrices, n <= 5, every 0 <= k <= n, exact equality.
    assert FULL.clow_matrices >= 500
    _run(1, "clow expansion equals direct definition", 60, check_pdet_clow_vs_direct)


def test_criterion_02_involution_suite():
    # every enumerated k-clow sequence with n <= 4, k <= 4
    _run(2, "involution: self-inverse, fixed points, sign flips", 30, check_involution)


def test_criterion_03_determinant_cross_check():
    assert FULL.det_matrices >= 200
    _run(3, "sum of pdet over k equals the determinant", 30, check_det_cross)


def test_criterion_04_back_edge_identity():
    assert FULL.backedge_dags >= 200
    _run(4, "back-edge reduction sign identity", 30, check_backedge_identity)


def test_criterion_05_walk_counter_coherence():
    assert FULL.walk_instances >= 300
    _run(5, "walk counters equal enumeration oracles", 30, check_walk_counters)


def test_criterion_06_cnf_counters():
    assert FULL.cnf_instances >= 200
    _run(6, "CNF counters equal enumerate-then-filter", 30, check_cnf_counters)


def test_criterion_07_locality_algorithm():
    assert FULL.mc_formulas >= 200
    _run(7, "locality sweep equals brute-force counting", 60, check_mc_local)


def test_criterion_08_parsimony_suite():
    assert FULL.parsimony_instances >= 100
    _run(8, "reductions preserve counts and parameter bounds", 60, check_reductions)


def test_criterion_09_hom_correspondence():
    assert FULL.hom_targets >= 100
    _run(9, "walk/hom bijection materialises with equal cardinality", 30,
         check_hom_correspondence)


def test_criterion_10_bp_suite():
    assert FULL.bp_programs >= 300
    _run(10, "fast counting equals y-enumeration; stagger preserves", 30, check_bp)


def test_criterion_11_full_selftest_via_cli():
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "paracount.cli", "selftest", "--seed", str(SEED),
         "--scale", "full"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    elapsed = time.monotonic() - started
    status = "PASS" if proc.returncode == 0 and elapsed < 300 else "FAIL"
    print(f"criterion 11 {status}  selftest --scale full exits 0 ({elapsed:.1f}s / 300s)")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 300
    assert proc.stdout.count("PASS") == 10
