"""End-to-end acceptance gate: thirteen checks, one per headline guarantee.
Each prints a PASS line (visible under -s) after its assertions hold."""

from __future__ import annotations

import random
import time
from unittest import mock

import pytest
from test_symbolic import PREFIX_BOUNDS, PREFIX_PAIRS, SPORADIC_PAIRS

from qlab import _backend
from qlab import (
    InitialCondition,
    NConstraint,
    abc_profile,
    behavior_tree,
    congruence_check,
    evaluate,
    is_exceptional,
    predict_sequence,
    qc_pattern_check,
    qt_pattern_check,
    symbolic_extend,
    tree_locate,
    verify_against_bruteforce,
)

SEED = 20260814


def test_01_death_length_law():
    start = time.perf_counter()
    for n in range(14, 21):
        seq = evaluate(InitialCondition.identity(n), n + 40)
        assert seq.status.kind == "died" and len(seq.terms) == n + 32, n
    for n in range(21, 201):
        seq = evaluate(InitialCondition.identity(n), n + 40)
        assert seq.status.kind == "died" and len(seq.terms) == n + 28, n
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS: plain <1..N> dies after N+32 (N=14..20) / N+28 (N=21..200) terms, {elapsed:.2f}s")


def test_02_spot_values():
    for n, index, value in ((8, 420, 430), (11, 199, 206), (12, 69, 77)):
        seq = evaluate(InitialCondition.identity(n), 10**6, mode="exact")
        assert seq.status.kind == "died", n
        assert seq.term(index) == value, n
    print("PASS: Q_8(420)=430, Q_11(199)=206, Q_12(69)=77, all three die")


def test_03_symbolic_prefix_tables():
    prefix = symbolic_extend("plain", NConstraint(14), 28)
    assert [(t.a, t.b) for t in prefix.terms] == PREFIX_PAIRS
    assert [t.min_valid_N for t in prefix.terms] == PREFIX_BOUNDS
    assert max(t.min_valid_N for t in prefix.terms) == 13
    assert prefix.stop_reason.kind == "completed"

    window = symbolic_extend("plain", NConstraint(14, 20), 33)
    assert [(t.a, t.b) for t in window.terms[28:32]] == [(0, 27), (0, 24), (0, 12), (2, 19)]
    assert window.stop_reason.kind == "symbolic_death"
    assert window.stop_reason.index == 33
    assert str(window.stop_reason.expr) == "-N+14"
    print("PASS: 28 symbolic offsets with bounds (max 13); 14..20 window adds 4 then dies at 33")


def test_04_sporadic_terms():
    prefix = symbolic_extend("zero_extended", NConstraint(35), 34)
    sporadic = [(t.a, t.b) for t in prefix.terms[28:34]]
    assert sporadic == SPORADIC_PAIRS
    print("PASS: zero-extended offsets 29..34 are N+6, 24, 32, 2N+4, 3, 32")


@pytest.mark.usefixtures("fastest_backend")
def test_05_oracle_equivalence_sweep():
    start = time.perf_counter()
    checked = 0
    for n in range(35, 501):
        if is_exceptional(n):
            continue
        report = verify_against_bruteforce(n, 200_000)
        assert report.first_mismatch is None, (n, report.first_mismatch)
        assert report.terminal_agreement, (n, report.predicted_status, report.actual_status)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 444
    assert elapsed < 600.0
    print(f"PASS: predictions match brute force for all {checked} non-exceptional N in 35..500, {elapsed:.1f}s")


def test_06_classification_zero_tails():
    for n in (121, 126, 182):
        profile = abc_profile(n)
        assert profile.classification == 0, n
        a_j = profile.a[-1]
        predicted = predict_sequence(n, a_j + 161)
        actual = evaluate(
            InitialCondition.identity(n, zero_extended=True), a_j + 161, mode="exact"
        )
        assert predicted.term(a_j + 160) == 0, n
        assert actual.term(a_j + 160) == 0, n
        assert str(predicted.status) == str(actual.status) == f"ended at {a_j + 161}", n
        assert list(actual.terms[-158:]) == list(predicted.terms[-158:]), n
    print("PASS: classification-0 tails for N=121/126/182 end in 0 at A_j+160, Ended(A_j+161)")


def test_07_rst_interleaving():
    report = qt_pattern_check((), 9, 6, 20_000)
    assert report.first_mismatch is None
    assert report.matched_through == 5 * 20_000 + 4
    short = qt_pattern_check((), 8, 6, 12)
    assert short.first_mismatch is not None
    assert short.first_mismatch[0] == 53 <= 60
    assert short.matched_through == 52
    print(f"PASS: (5R,5S,9T,4,5R) holds for k<=20000; lam=8 breaks at index {short.first_mismatch[0]}")


def test_08_qc_persistence_randomized():
    # lam+mu >= K+8 is what the block-1 mod-3 reference actually needs;
    # the boundary sum K+7 has a hand-checked counterexample (see test_rst)
    rng = random.Random(SEED)
    for _ in range(50):
        k = rng.randint(0, 40)
        prefix = tuple(rng.randint(-50, 900) for _ in range(k))
        lam = k + 6 + rng.randint(0, 60)
        mu = rng.randint(k + 8 - lam, 60)
        nu = max(0, ((k + 4 - lam) % 5) - 1)
        report = qc_pattern_check(prefix, mu, lam)
        assert report.first_mismatch is None, (k, lam, mu, report.first_mismatch)
        assert report.matched_through == lam + nu, (k, lam, mu)
    print("PASS: 50 randomized (K, lam, mu) runs hold exactly through lam+nu")


def test_09_congruences_randomized():
    rng = random.Random(SEED)
    checked = 0
    while checked < 1000:
        n = rng.randint(0, 10**6)
        profile = abc_profile(n)
        if profile.j is None or profile.j > 4:
            continue
        for multiplier in (1, 2, 3):
            assert congruence_check(n, multiplier), (n, multiplier)
        checked += 1
    print("PASS: descent congruences hold for 1000 random N <= 10^6, multipliers 1..3")


def test_10_behavior_tree_labels():
    root = behavior_tree(3)
    level1 = root.children
    assert {d: level1[d].leaf_type for d in (0, 1, 3, 4)} == {0: 4, 1: 0, 3: 2, 4: 3}
    assert level1[2].kind == "internal"
    level2 = level1[2].children
    assert {d: level2[d].leaf_type for d in (0, 1, 2, 4)} == {0: 2, 1: 0, 2: 3, 4: 4}
    assert level2[3].kind == "internal"
    level3 = level2[3].children
    assert {d: level3[d].leaf_type for d in (0, 1, 2, 3)} == {0: 4, 1: 2, 2: 0, 3: 3}
    assert level3[4].kind == "truncated"
    assert tree_locate(42) == ("132", 2)
    print("PASS: tree levels 1..3 carry the published labels; N=42 sits at leaf 132 of type 2")


@pytest.mark.usefixtures("fastest_backend")
def test_11_longevity_substitutes():
    seq = evaluate(InitialCondition((1, 1)), 10**7)
    assert seq.status.is_alive and len(seq.terms) == 10**7
    for n in (4, 5, 6, 7, 9, 10, 13):
        seq = evaluate(InitialCondition.identity(n), 10**6)
        assert seq.status.is_alive, n
    print("PASS: <1,1> alive through 10^7 terms; <1..N> alive through 10^6 for N in {4,5,6,7,9,10,13}")


@pytest.mark.usefixtures("fastest_backend")
def test_12_oracle_sweep_to_3000():
    # past the 35..500 sweep: every non-exceptional N in 501..3000 through
    # 20000 terms; a mismatch here is a finding, never a new exception
    start = time.perf_counter()
    checked = 0
    for n in range(501, 3001):
        if is_exceptional(n):
            continue
        report = verify_against_bruteforce(n, 20_000)
        assert report.first_mismatch is None, (n, report.first_mismatch)
        assert report.terminal_agreement, (n, report.predicted_status, report.actual_status)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 2500
    print(f"PASS: predictions match brute force for all {checked} non-exceptional N in 501..3000 through 20000 terms, {elapsed:.1f}s")


def test_13_oracle_full_length(compiled_kernel):
    # every finite depth-2 run in 35..3000, through its end index and five
    # terms past it; a mismatch here is a finding, never a new exception
    start = time.perf_counter()
    checked = terms = 0
    with mock.patch.object(_backend, "_kernel", compiled_kernel):
        for n in range(35, 3001):
            profile = abc_profile(n)
            if is_exceptional(n) or profile.j != 2 or profile.classification == 2:
                continue
            end = profile.a[-1] + {0: 161, 3: 5, 4: 15}[profile.classification]
            report = verify_against_bruteforce(n, end + 5)
            assert report.first_mismatch is None, (n, report.first_mismatch)
            assert report.terminal_agreement, (n, report.predicted_status, report.actual_status)
            assert report.matched_through == end - 1, n
            assert str(report.actual_status) == f"ended at {end}", n
            checked += 1
            terms += end - 1
    elapsed = time.perf_counter() - start
    assert checked == 353
    print(f"PASS: all {checked} finite depth-2 N in 35..3000 match brute force to their ends, {terms:.2e} terms in {elapsed:.1f}s")
