"""Structure-predictor tests: the base-5 descent profile, the predicted
terms, brute-force cross-checks, and the classification tree."""

from __future__ import annotations

import mmap
import random
import tracemalloc
from array import array
from itertools import islice
from types import SimpleNamespace
from typing import Iterator
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_engine import _declined_where_raised, _outcome as _answer, constants, forms, is_int64_view, range_prefixes
from test_symbolic import PREFIX_PAIRS, SPORADIC_PAIRS

from qlab import (
    DivisibilityError,
    PredictionReport,
    QlabError,
    ValidationError,
    abc_profile,
    behavior_tree,
    congruence_check,
    is_exceptional,
    predict_sequence,
    tree_locate,
    verify_against_bruteforce,
)
from qlab import _backend, _fallback, predictor
from qlab._fallback import (
    INT64_MAX,
    INT64_MIN,
    TILE_BLOCKS,
    TILE_CHUNK,
    TILE_LITERAL,
    _first_difference,
    materialise,
)
from qlab.engine import InitialCondition, SequenceStatus, _check, _status_of, evaluate
from qlab.predictor import StructureProfile, _exact5, predicted_tiles
from qlab.rst import _tables, rst_compute


# The (c, d, f) rows of the terms that close a level m of the descent with
# C_m = c, as predictor stored them before _closing derived them, frozen here
# as the reference: row i is the term at A_m + C'_m + 1 + i, equal to
# c*x_m + d*A_m + f.  Rows 1 are the bridge to chunk m+1, rows 2 the head of
# the R/S/T blocks, and rows 0, 3 and 4 end the run.
CLOSINGS = (
    ((0, 0, 6), (0, 0, 7), (0, 0, 8), (0, 0, 8), (0, 0, 10), (1, 0, 3),
     (0, 0, 5), (0, 0, 8), (0, 0, 14), (0, 0, 10), (0, 0, 11), (0, 0, 13),
     (0, 1, 7), (0, 0, 15), (0, 1, 10), (0, 0, 14), (0, 0, 17), (0, 0, 14),
     (0, 0, 17), (1, 0, 11), (0, 0, 8), (0, 0, 15), (0, 1, 18), (0, 0, 22),
     (0, 0, 17), (0, 0, 22), (0, 0, 20), (1, 0, 11), (0, 0, 14), (0, 0, 14),
     (0, 0, 34), (1, 0, 14), (0, 0, 5), (0, 0, 14), (0, 0, 22), (0, 0, 30),
     (0, 1, 15), (0, 0, 33), (1, 0, 29), (0, 0, 5), (0, 0, 30), (0, 1, 28),
     (0, 1, 24), (0, 0, 40), (0, 0, 33), (1, 1, 10), (0, 0, 15), (0, 0, 5),
     (0, 0, 54), (0, 0, 36), (0, 1, 15), (0, 0, 53), (0, 1, 40), (0, 0, 22),
     (0, 0, 22), (0, 0, 28), (0, 0, 36), (0, 0, 29), (0, 1, 32), (0, 0, 64),
     (0, 0, 36), (1, 0, 22), (0, 0, 20), (0, 0, 40), (0, 0, 50), (0, 0, 36),
     (0, 0, 51), (1, 0, 31), (0, 0, 14), (0, 0, 28), (0, 1, 60), (0, 0, 54),
     (0, 0, 32), (1, 1, 39), (0, 1, 24), (0, 0, 54), (0, 1, 73), (0, 0, 29),
     (0, 0, 44), (0, 1, 45), (0, 1, 53), (0, 0, 70), (0, 1, 39), (0, 0, 62),
     (0, 1, 66), (0, 0, 44), (0, 1, 47), (0, 0, 83), (1, 0, 47), (0, 0, 5),
     (0, 0, 44), (0, 1, 52), (0, 0, 97), (0, 0, 49), (2, 1, 10), (0, 0, 15),
     (0, 0, 70), (1, 1, 50), (0, 0, 14), (0, 0, 44), (0, 1, 83), (0, 0, 50),
     (0, 1, 62), (0, 0, 66), (1, 0, 74), (0, 0, 5), (0, 0, 50), (0, 1, 91),
     (0, 1, 52), (0, 0, 81), (0, 0, 75), (0, 1, 49), (0, 0, 99), (0, 1, 77),
     (0, 0, 54), (1, 0, 63), (0, 0, 20), (1, 1, 50), (0, 0, 14), (0, 0, 5),
     (1, 0, 113), (0, 0, 20), (0, 1, 62), (0, 0, 130), (0, 1, 65), (0, 0, 66),
     (0, 0, 100), (2, 0, 33), (0, 0, 14), (1, 0, 63), (0, 0, 20), (0, 1, 49),
     (0, 0, 185), (0, 0, 92), (0, 2, 24), (0, 0, 40), (0, 0, 70), (2, 1, 81),
     (0, 0, 14), (0, 0, 66), (0, 1, 124), (0, 0, 74), (0, 0, 35), (0, 1, 80),
     (0, 0, 148), (1, 0, 68), (0, 0, 5), (0, 0, 35), (0, 2, 157), (0, 0, 54),
     (0, 0, 70), (1, 1, 120), (0, 1, 39), (0, 0, 117), (0, 0, 151), (1, 0, 39),
     (1, 0, 3), (0, 0, 0)),
    ((0, 0, 5), (0, 0, 8), (1, 1, 0), (0, 0, 3), (0, 0, 8)),
    ((0, 0, 4), (1, 0, 2), (0, 0, 5), (0, 0, 5)),
    ((0, 0, 6), (0, 1, 5), (1, 0, 0), (0, 0, 0)),
    ((0, 0, 7), (0, 1, 5), (0, 0, 4), (0, 1, 2), (0, 0, 13), (1, 0, 7),
     (0, 0, 5), (0, 0, 4), (0, 1, 15), (1, 0, 7), (0, 0, 0)),
)


def _c_prime(c: int) -> int:
    """C'_m for C_m = c, as abc_profile stated it before _closing derived it."""
    return max(0, ((3 - c) % 5) - 1)


def _descent(n: int, depth: int) -> tuple[tuple, tuple, tuple]:
    """(a, b, c) of N's descent through at most ``depth`` levels, as
    abc_profile ran it before it carried x_m, frozen here as the reference:
    a[i] is A_i, b[i-1] is B_i = A_i - A_{i-1} with B_1 = -11N - 22, and
    c[i-1] is C_i.  The descent is resolved where c[-1] != 1."""
    a, b, c = [n - 2, 2 * n + 4], [-11 * n - 22], [(n - 1) % 5]
    while c[-1] == 1 and len(c) < depth:
        i = len(c)
        nxt = a[i] * _exact5(a[i] - a[i - 1] + 2) + b[i - 1]
        a.append(nxt)
        b.append(nxt - a[i])
        c.append((nxt + 2 * (i + 1) + 1) % 5)
    return tuple(a), tuple(b), tuple(c)


def _rows(tile: tuple) -> tuple[int, ...]:
    """The values of a literal tile: its forms c*x + d*y + f, row by row."""
    _, length, (x, y), (c, d, f) = tile
    return tuple(c[i] * x + d[i] * y + f[i] for i in range(length))


def _evaluated(tiles) -> tuple:
    """The tiles with each literal's forms evaluated into a literal of
    constants, as _per_class_tiles builds it."""
    return tuple(constants(_rows(tile)) if tile[0] == TILE_LITERAL else tile for tile in tiles)


def test_closings_are_derived():
    for c in range(5):
        c_prime, columns, reach = predictor._closing(c)[:3]
        assert all(column.readonly and column.format == "q" for column in columns)
        assert tuple(zip(*columns)) == CLOSINGS[c], c
        assert c_prime == _c_prime(c), c
    # the class-0 closing reads Q(118), the one cutoff of is_exceptional
    assert tuple(predictor._closing(c)[2][-1] for c in range(5)) == (118, 3, 2, 1, 7)


def test_prefix_is_derived_from_the_identity():
    """The runner's rows from the identity are the 34 frozen terms of the
    prefix, and what it assumes holds from N = 30: each sign is d*N + f >= 0,
    and the identity terms it reads, back to Q(N + back) and up to
    Q(reach[-1]), lie in 1..N."""
    c_prime, columns, reach, signs, back = predictor._closing(None)
    assert all(column.readonly and column.format == "q" for column in columns)
    assert tuple(zip(*columns)) == tuple((0, a, b) for a, b in PREFIX_PAIRS + SPORADIC_PAIRS)
    assert c_prime == 0
    assert all(c == 0 and d > 0 for c, d, _ in signs)
    least = max(-(f // d) for _, d, f in signs)
    assert least == 30 <= 35
    assert 1 - back <= least and reach[-1] <= least


def test_closings_record_their_assumptions():
    # the largest bound on x_m - A_m each closing assumes, and how far back
    # into chunk m it reads: class 0 needs x_m - A_m >= 157 and chunk m
    # back to A_m - 49
    closings = [predictor._closing(c) for c in range(5)]
    assert (1, -1, -157) in closings[0][3]
    # every index of chunk m it reads is >= 1: A_m + back - 1 >= 0
    assert all((0, 1, back - 1) in signs for *_, signs, back in closings)
    bounds = tuple(max(-f for p, q, f in closing[3] if (p, q) == (1, -1)) for closing in closings)
    assert bounds == (157, 1, 2, 4, 7)
    assert tuple(back for *_, back in closings) == (-49, -6, -7, -8, -9)


def test_every_sign_holds_past_the_exceptions():
    # for every non-exceptional N in 35..2000, at (0, N) and at (x_m, A_m)
    # for each level m: every sign holds and Q(reach[-1]) is an identity term
    for n in (n for n in range(35, 2001) if not is_exceptional(n)):
        profile = abc_profile(n)
        for x, a, c in ((0, n, None), *zip(profile.x, profile.a[1:], profile.c)):
            _, _, reach, signs, _ = predictor._closing(c)
            assert all(p * x + q * a + r >= 0 for p, q, r in signs), (n, c)
            assert reach[-1] <= n, (n, c)


@pytest.mark.parametrize("n", [2601, 38, 37, 47, 132, 52])
def test_literal_tiles_hold_the_cached_columns(n):
    """No N builds a row: each literal of a prediction holds the columns of
    _closing(None) or _closing(C_m) themselves, read at (0, N) or (x_m, A_m)."""
    profile = abc_profile(n)
    literals = [tile for tile in predicted_tiles(profile, 10**5) if tile[0] == TILE_LITERAL]
    assert len(literals) == 1 + profile.j
    head, *closings = literals
    assert head[2] == (0, n) and head[3] is predictor._closing(None)[1]
    assert all(column.readonly for column in head[3])  # shared by every N
    for m, (_, _, (_, a_m), columns) in enumerate(closings, 1):
        assert a_m == profile.a[m] and columns is predictor._closing(profile.c[m - 1])[1]


def test_profile_42():
    # hand-run of the descent: A_1=88, C_1=41%5=1, x_1 = 88*(42+4-1)/5 - 484 = 308;
    # A_2 = 88+308 = 396, C_2 = (308+3)%5 = 1, x_2 = 396*(308-1-2)/5 + 308 = 24464;
    # A_3 = 396+24464 = 24860, C_3 = (24464+3)%5 = 2,
    # x_3 = 24860*(24464-2-2)/5 + 24464 = 121639584
    p = abc_profile(42)
    assert p.n_value == 42
    assert p.a == (40, 88, 396, 24860)
    assert p.x == (308, 24464, 121639584)
    assert p.c == (1, 1, 2)
    assert p.j == 3
    assert p.classification == 2
    print("✓ N=42 descent: j=3, classification 2")


def test_profiles_class_zero():
    # x_1 = 246*(121+4-0)/5 - 1353 = 4797
    p = abc_profile(121)
    assert p.a == (119, 246)
    assert p.x == (4797,)
    assert p.c == (0,)
    assert (p.j, p.classification) == (1, 0)

    p = abc_profile(126)
    assert p.a[1] == 256
    assert (p.j, p.classification) == (1, 0)

    # 182 needs one more level: x_1 = 368*(182+4-1)/5 - 2024 = 11592,
    # A_2 = 368+11592 = 11960, C_2 = (11592+3)%5 = 0,
    # x_2 = 11960*(11592-0-2)/5 + 11592 = 27734872
    p = abc_profile(182)
    assert p.a == (180, 368, 11960)
    assert p.x == (11592, 27734872)
    assert p.c == (1, 0)
    assert (p.j, p.classification) == (2, 0)


def test_profiles_small_values():
    # the descent is defined for every N >= 0, exceptional or not
    # x_1 = 4*(0+4-4)/5 - 22 = -22
    p = abc_profile(0)
    assert p.a == (-2, 4)
    assert p.x == (-22,)
    assert (p.c, p.j, p.classification) == ((4,), 1, 4)

    # N=2: x_1 = 8*(2+4-1)/5 - 44 = -36, A_2 = 8-36 = -28,
    # C_2 = (-36+3) mod 5 = 2, x_2 = -28*(-36-2-2)/5 - 36 = 188
    p = abc_profile(2)
    assert p.a == (0, 8, -28)
    assert p.x == (-36, 188)
    assert (p.c, p.j, p.classification) == ((1, 2), 2, 2)

    # x_1 = 80*(38+4-2)/5 - 440 = 200
    p = abc_profile(38)
    assert p.a == (36, 80)
    assert p.x == (200,)
    assert (p.c, p.j, p.classification) == ((2,), 1, 2)


# N through 5999 and past 10^6, 10^15 and 10^30, each under the depth caps
# 1, 2, 3 and 16
_PROFILE_GRID = [
    (n, depth)
    for n in (*range(6000), *(base + k for base in (10**6, 10**15, 10**30) for k in range(200)))
    for depth in (1, 2, 3, 16)
]


def test_profile_agrees_with_the_frozen_descent():
    for n, depth in _PROFILE_GRID:
        p = abc_profile(n, depth)
        a, b, c = _descent(n, depth)
        assert (p.a, p.c) == (a, c), (n, depth)
        assert (p.j, p.classification) == ((len(c), c[-1]) if c[-1] != 1 else (None, None))
        # x_m is B_{m+1} at each level the descent passes, and at the last
        # level the point predicted_tiles computed from A, B and C before
        # the profile held it
        assert p.x[:-1] == b[1:], (n, depth)
        assert p.x[-1] == a[-1] * _exact5(a[-1] - a[-2] - c[-1] - 2) + b[-1], (n, depth)


def test_profile_depth_cap():
    # 42 needs three levels; a cap of 2 leaves it unresolved
    p = abc_profile(42, max_depth=2)
    assert p.c == (1, 1)
    assert p.j is None and p.classification is None
    assert abc_profile(42, max_depth=3).j == 3


def test_abc_profile_validation():
    with pytest.raises(ValidationError):
        abc_profile(-1)
    with pytest.raises(ValidationError):
        abc_profile(42, max_depth=0)


@pytest.mark.parametrize("value", [42.0, 37.5, True, "42"])
@pytest.mark.parametrize("call", [
    lambda v: abc_profile(v),
    lambda v: abc_profile(42, max_depth=v),
    lambda v: is_exceptional(v),
    lambda v: tree_locate(v),
    lambda v: behavior_tree(v),
    lambda v: congruence_check(42, v),
    lambda v: predict_sequence(v, 100),
    lambda v: predict_sequence(42, v),
    lambda v: verify_against_bruteforce(v, 100),
    lambda v: verify_against_bruteforce(42, v),
])
def test_predictor_reads_integers_only(call, value):
    # a float, bool or str is refused, never truncated or compared as is
    with pytest.raises(ValidationError, match="is not an integer"):
        call(value)


def test_exceptional_set():
    assert all(is_exceptional(n) for n in range(2, 35))
    assert is_exceptional(36) and is_exceptional(111)  # 1 mod 5, below 118
    assert not is_exceptional(121)  # 1 mod 5 but past the cutoff
    for n in (57, 67, 82, 107, 117):
        assert is_exceptional(n)
        # the five stragglers all carry a deeper classification-0 descent
        assert abc_profile(n).classification == 0
    assert not any(is_exceptional(n) for n in (35, 37, 38, 40, 42, 118, 500))
    count = sum(1 for n in range(35, 501) if not is_exceptional(n))
    assert count == 444
    print("✓ 444 non-exceptional N in 35..500")


def _old_exception_rule(n: int) -> bool:
    """is_exceptional as a stored list, before the rule was derived from
    the classification: frozen here as a cross-check."""
    return 2 <= n <= 34 or (n % 5 == 1 and n < 118) or n in {57, 67, 82, 107, 117}


def test_exception_rule_matches_the_stored_list():
    differ = [n for n in range(10**4 + 1) if is_exceptional(n) != _old_exception_rule(n)]
    assert differ == []


# N -> (1-based row of the 158-row class-0 closing, predicted value) at the
# first term where the run from <0-bar; 1..N> leaves the prediction: the
# first row that reads past Q(N) from the identity prefix.  117, whose end
# index is about 3.3e12, is out of brute-force reach.
EXCEPTION_ROWS = {
    36: (52, 53),
    41: (76, 54), 46: (76, 54), 51: (76, 54),
    56: (110, 81), 57: (110, 81),
    61: (113, 99),
    66: (114, 213),
    67: (133, 185), 71: (133, 185), 76: (133, 185), 81: (133, 185), 82: (133, 185),
    86: (134, 92),
    91: (154, 117), 96: (154, 117), 101: (154, 117), 106: (154, 117), 107: (154, 117),
    111: (154, 117), 116: (154, 117),
}


@pytest.mark.usefixtures("fastest_backend")
def test_each_exception_fails_inside_the_class_zero_closing():
    exceptions = [n for n in range(35, 118) if is_exceptional(n)]
    assert exceptions == sorted(EXCEPTION_ROWS) + [117]
    reach = predictor._closing(0)[2]
    for n, (row, value) in EXCEPTION_ROWS.items():
        profile = abc_profile(n)
        assert profile.classification == 0
        assert next(i for i, r in enumerate(reach, 1) if r > n) == row, n
        end = profile.a[-1] + 161
        tiles = predicted_tiles(profile, end)
        first, _, _ = _backend.q_check(tuple(range(1, n + 1)), tiles, end)
        index, predicted, _ = first
        assert (index - profile.a[-1] - 2, predicted) == (row, value), n
    # 117 by the same rule, at depth 4: its run first fails at closing row
    # 155, which reads Q(118), where 151 is predicted
    profile = abc_profile(117)
    assert (profile.j, profile.classification) == (4, 0)
    assert next(i for i, r in enumerate(reach, 1) if r > 117) == 155
    index = profile.a[-1] + 157
    assert index == 3_346_939_304_068
    *_, tile = predicted_tiles(profile, index)
    assert tile[:2] == (TILE_LITERAL, 155) and _rows(tile)[-1] == 151


def test_predicted_end_indices():
    # classification 0 ends at A_j+161, 3 at A_j+5, 4 at A_j+15
    seq = predict_sequence(121, 500)
    assert str(seq.status) == "ended at 407"
    assert len(seq.terms) == 406
    assert predict_sequence(126, 500).status.at_index == 417
    assert predict_sequence(182, 13000).status.at_index == 12121
    assert predict_sequence(39, 200).status.at_index == 87  # A_1=82, class 3
    assert predict_sequence(35, 200).status.at_index == 89  # A_1=74, class 4
    print("✓ predicted end indices: 407 / 417 / 12121 / 87 / 89")


def test_predicted_terms_are_an_int64_array():
    # as evaluate returns them, so the writers read every table from one buffer
    for n, budget in ((121, 500), (38, 2000), (42, 120)):
        seq = predict_sequence(n, budget)
        assert is_int64_view(seq.terms)
        reference = _fallback.materialise(range(1, n + 1), predicted_tiles(abc_profile(n), budget), budget)
        assert seq.terms.tolist() == reference.tolist()


def test_predict_truncation_statuses():
    # capped below the end, the prediction never observes the ending
    seq = predict_sequence(121, 406)
    assert seq.status.is_alive
    assert len(seq.terms) == 406
    seq = predict_sequence(121, 300)
    assert seq.status.is_alive and len(seq.terms) == 300
    # classification 2 never ends on its own
    seq = predict_sequence(38, 500)
    assert seq.status.is_alive and len(seq.terms) == 500


def test_predict_identity_prefix_and_chunk_head():
    seq = predict_sequence(42, 120)
    assert [seq.term(i) for i in range(1, 43)] == list(range(1, 43))
    assert seq.term(42 + 29) == 42 + 6  # first sporadic value is N+6
    # class-2 tail head for N=38 at A_1+1, A_1+2: 4 then
    # 80*(80-36-4)/5 - 440 + 2 = 202
    seq = predict_sequence(38, 200)
    assert (seq.term(81), seq.term(82)) == (4, 202)


def test_predict_validation():
    # the layout is only claimed for non-exceptional N >= 35
    with pytest.raises(ValidationError):
        predict_sequence(1, 100)
    with pytest.raises(ValidationError):
        predict_sequence(34, 100)
    with pytest.raises(ValidationError):
        predict_sequence(36, 100)  # exception list
    with pytest.raises(ValidationError):
        predict_sequence(57, 300)
    with pytest.raises(ValidationError):
        predict_sequence(50, 49)  # max_terms below the identity prefix
    # a depth cap still predicts correctly through its last resolved chunk,
    # and refuses once asked past it (chunk 2 for N=42 runs through 397)
    capped = predict_sequence(42, 200, max_depth=2)
    assert capped.status.is_alive
    assert capped.terms == predict_sequence(42, 200).terms
    with pytest.raises(QlabError):
        predict_sequence(42, 600, max_depth=2)


def test_verify_clean_cases():
    for n, terms in ((42, 3000), (38, 1000), (121, 500)):
        report = verify_against_bruteforce(n, terms)
        assert report.first_mismatch is None
        assert report.terminal_agreement
        assert report.matched_through == min(terms, len_of(n, terms))
    print("✓ verify: N=42/38/121 agree with brute force")


def len_of(n: int, max_terms: int) -> int:
    seq = predict_sequence(n, max_terms)
    return len(seq.terms)


def test_verify_refuses_exceptional():
    # exceptional N have no predicted layout; the engine observes them instead
    with pytest.raises(ValidationError):
        verify_against_bruteforce(36, 500)


def test_first_difference_shapes():
    # mismatch plumbing, exercised directly: accepted N leave no reachable
    # disagreement, but the report must still be able to describe one
    assert _first_difference([1, 2, 3], [1, 2, 3]) is None
    assert _first_difference([1, 2, 3], [1, 9, 3]) == (2, 2, 9)
    assert _first_difference([1, 2], [1, 2, 7]) == (3, None, 7)
    assert _first_difference([1, 2, 7], [1, 2]) == (3, 7, None)


def test_report_json_shape():
    clean = verify_against_bruteforce(42, 3000).to_json()
    assert clean == {
        "matched_through": 3000,
        "first_mismatch": None,
        "predicted_status": "alive",
        "actual_status": "alive",
        "terminal_agreement": True,
    }
    broken = PredictionReport(
        matched_through=129,
        first_mismatch=(130, 53, 52),
        predicted_status=SequenceStatus.ended(237),
        actual_status=SequenceStatus.alive(),
        terminal_agreement=False,
    ).to_json()
    assert broken["first_mismatch"] == {"index": 130, "predicted": 53, "actual": 52}
    assert broken["predicted_status"] == "ended at 237"
    assert broken["terminal_agreement"] is False


def test_check_agrees_at_the_end_only_with_equal_lengths():
    # a prediction that stops short of the budget while both statuses read
    # alive disagrees at its end
    tiles = (constants((3, 6, 7)),)
    short = _check(range(1, 6), tiles, 20)
    assert (short.matched_through, short.first_mismatch) == (8, (9, None, 5))
    assert short.actual_status == short.predicted_status and not short.terminal_agreement
    full = _check(range(1, 6), tiles, 8)
    assert (full.matched_through, full.first_mismatch, full.terminal_agreement) == (8, None, True)


def test_behavior_tree_levels():
    root = behavior_tree(3)
    assert root.kind == "internal"
    level1 = root.children
    assert {d: level1[d].leaf_type for d in (0, 1, 3, 4)} == {0: 4, 1: 0, 3: 2, 4: 3}
    assert level1[2].kind == "internal"

    level2 = level1[2].children
    assert {d: level2[d].leaf_type for d in (0, 1, 2, 4)} == {0: 2, 1: 0, 2: 3, 4: 4}
    assert {d: level2[d].digits for d in range(5)} == {
        0: "02", 1: "12", 2: "22", 3: "32", 4: "42",
    }
    assert level2[3].kind == "internal"

    level3 = level1[2].children[3].children
    assert {d: level3[d].leaf_type for d in (0, 1, 2, 3)} == {0: 4, 1: 2, 2: 0, 3: 3}
    assert level3[4].kind == "truncated"
    assert level3[4].digits == "432"
    assert level3[4].children == {}
    print("✓ behavior tree levels 1..3 match the published labels")


def test_tree_digits_name_residues():
    # a node's digits, read in base 5, are the residue class it covers
    root = behavior_tree(3)
    leaf = root.children[2].children[3].children[1]
    assert leaf.digits == "132"
    assert int(leaf.digits, 5) == 42
    assert leaf.leaf_type == abc_profile(42).classification


def test_tree_locate():
    assert tree_locate(42) == ("132", 2)
    assert tree_locate(121) == ("1", 0)
    # 12 lands two levels down: A_2 = 28*4 - 154 = -42, C_2 = 3
    assert tree_locate(12) == ("22", 3)
    with pytest.raises(QlabError):
        tree_locate(42, max_depth=2)


def test_behavior_tree_validation():
    with pytest.raises(ValidationError):
        behavior_tree(0)


def test_congruence_small_sample():
    for n in (38, 42, 121, 182):
        for m in (1, 2, 3):
            assert congruence_check(n, m)
    with pytest.raises(ValidationError):
        congruence_check(42, 0)
    with pytest.raises(QlabError):
        congruence_check(42, 1, max_depth=2)


def test_exact5_guard():
    assert _exact5(10) == 2
    assert _exact5(-35) == -7
    with pytest.raises(DivisibilityError):
        _exact5(7)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_profile_invariants(n):
    p = abc_profile(n)
    assert p.a[:2] == (n - 2, 2 * n + 4)
    assert p.c[0] == (n - 1) % 5
    assert p.x[0] == p.a[1] * _exact5(n + 4 - p.c[0]) - 11 * n - 22
    assert len(p.a) == len(p.x) + 1 == len(p.c) + 1
    # past each level m with C_m = 1, the three identities of the recurrence
    for m in range(1, len(p.c)):
        x_m = p.x[m - 1]
        assert p.c[m - 1] == 1
        assert p.a[m + 1] == p.a[m] + x_m
        assert p.c[m] == (x_m + 3) % 5
        assert p.x[m] == p.a[m + 1] * _exact5(x_m - p.c[m] - 2) + x_m
    assert all(0 <= ci <= 4 for ci in p.c)
    if p.j is not None:
        assert p.c[: p.j - 1] == (1,) * (p.j - 1)
        assert p.c[p.j - 1] == p.classification != 1
        digits, cls = tree_locate(n)
        assert cls == p.classification
        assert len(digits) == p.j
        assert int(digits, 5) == n % 5**p.j


def _predicted_stream(profile: StructureProfile) -> Iterator[int]:
    """Reference for the tiled predictor: the predicted terms, one at a time.

    The stream is infinite for classification 2 unless a block fails its side
    condition, finite (ending one short of the end index) for 0, 3 and 4, and
    stops after the last computed chunk when the profile is truncated.
    """
    n = profile.n_value
    a, b, c = _descent(n, len(profile.c))
    cp = tuple(map(_c_prime, c))
    for v in range(1, n + 1):
        yield v
    # the frozen records of the derived prefix, not the derivation itself
    for alpha, beta in PREFIX_PAIRS + SPORADIC_PAIRS:
        yield alpha * n + beta
    # first chunk: indices N+35 .. A_1 + C'_1, period 5 in o = index - N
    for o in range(35, a[1] + cp[0] - n + 1):
        k, r = divmod(o, 5)
        yield (a[1] * k + b[0], 5, a[1], 3, 5)[r]
    for m in range(1, len(c)):
        # bridge at A_m+2 .. A_m+6, then chunk m+1 through A_{m+1} + C'_{m+1}
        for v in (5, 8, a[m + 1], 3, 8):
            yield v
        for o in range(7, a[m + 1] + cp[m] - a[m] + 1):
            k, r = divmod(o, 5)
            yield (3, 5, a[m + 1] * k + b[m], 5, a[m + 1])[r]
    cls = c[-1]
    if cls == 1:  # truncated
        return
    a_j, a_prev, b_j = a[-1], a[-2], b[-1]
    if cls == 0:
        step = _exact5(a_j - a_prev - 2)
        for cc, dd, ff in CLOSINGS[0]:
            yield cc * (a_j * step + b_j) + dd * a_j + ff
    elif cls == 2:
        yield 4
        yield a_j * _exact5(a_j - a_prev - 4) + b_j + 2
        yield 5 * _tables(1).R(1)
        yield 5 * _tables(1).S(1)
        k = 1
        while True:
            # block k occupies offsets 5k .. 5k+4 past A_j and is only valid
            # while A_j * (T(k) - 1) >= 5k + 2
            tables = _tables(k + 1)
            if a_j * (tables.T(k) - 1) < 5 * k + 2:
                return
            yield a_j * tables.T(k)
            yield 4
            yield 5 * tables.R(k)
            yield 5 * tables.R(k + 1)
            yield 5 * tables.S(k + 1)
            k += 1
    elif cls == 3:
        yield 6
        yield a_j + 5
        yield a_j * _exact5(a_j - a_prev - 5) + b_j
        yield 0
    elif cls == 4:
        x = a_j * _exact5(a_j - a_prev - 6) + b_j + 7
        for v in (7, a_j + 5, 4, a_j + 2, 13, x, 5, 4, a_j + 15, x, 0):
            yield v


def _outcome(n: int, max_terms: int, max_depth: int):
    """predict_sequence's terms and status, or its error type and message."""
    try:
        seq = predict_sequence(n, max_terms, max_depth=max_depth)
    except QlabError as exc:
        return type(exc), str(exc)
    return seq.terms, seq.status


def _reference_outcome(n: int, max_terms: int, max_depth: int):
    def streamed(prefix, profile, budget):
        # the stream restates the prefix; every value these tests reach fits
        # int64, as materialise's array
        assert prefix == range(1, profile.n_value + 1)
        return array("q", islice(_predicted_stream(profile), budget))

    # the profile stands in for the tiles, and the stream materialises it
    with mock.patch.object(predictor, "predicted_tiles", lambda profile, budget: profile), \
            mock.patch.object(predictor, "materialise", streamed):
        return _outcome(n, max_terms, max_depth)


# Largest budget drawn below: the reference costs about 0.2 us a term.
BUDGET_CAP = 60_000


@st.composite
def prediction_cases(draw):
    """(N, max_terms, max_depth) with budgets that cut the prediction inside
    the prefix, a chunk, a bridge, the closing or a class-2 block."""
    n = draw(
        st.integers(min_value=35, max_value=10**5).filter(lambda v: not is_exceptional(v))
    )
    depth = draw(st.sampled_from((1, 2, 3, 16)))
    profile = abc_profile(n, max_depth=depth)
    # N+34 ends the prefix, A_m + C'_m a chunk, A_m + 6 a bridge, and
    # A_j + 5k + 4 a class-2 block
    marks = [n, n + 34]
    a, _, c = _descent(n, depth)
    for a_m, cp_m in zip(a[1:], map(_c_prime, c)):
        marks += [a_m + cp_m, a_m + 6, a_m + 161]
    marks += [a[-1] + 5 * draw(st.integers(1, 200)) + 4]
    mark = draw(st.sampled_from([m for m in marks if m <= BUDGET_CAP] or [n]))
    max_terms = max(n, mark + draw(st.integers(min_value=-6, max_value=6)))
    return n, max_terms, depth


@settings(max_examples=150, deadline=None)
@given(prediction_cases())
@example((42, 24860 + 3, 16))  # inside the bridge after A_3, one term short of the closing
@example((42, 600, 2))  # past the last chunk of a depth-capped profile
@example((182, 12121, 16))  # the whole classification-0 closing, no more
@example((182, 12119, 16))  # cut inside that closing
@example((39, 86, 1))  # a classification-3 run to its last term
@example((35, 87, 1))  # a classification-4 run one term short
def test_tiled_prediction_matches_stream(case):
    n, max_terms, depth = case
    assert _outcome(n, max_terms, depth) == _reference_outcome(n, max_terms, depth)


def test_tiled_prediction_matches_stream_at_full_length():
    # one N per classification, through the oracle's 200000-term budget
    for n in (38, 121, 182, 39, 35, 42):
        assert _outcome(n, 200_000, 16) == _reference_outcome(n, 200_000, 16), n


def _per_class_tiles(profile: StructureProfile, max_terms: int) -> tuple[tuple, ...]:
    """predicted_tiles as it was before every level closed through its
    closing rows: a bridge literal per level and one branch per
    classification, frozen here as the reference for those rows."""
    n = profile.n_value
    a, b, c = _descent(n, len(profile.c))
    cp = tuple(map(_c_prime, c))
    tiles = []
    end = n

    def add(kind: int, length: int, first, step) -> None:
        nonlocal end
        length = min(length, max_terms - end)
        if length > 0:
            tiles.append(constants(first[:length]) if kind == TILE_LITERAL else (kind, length, first, step))
            end += length

    add(TILE_LITERAL, 34, tuple(alpha * n + beta for alpha, beta in PREFIX_PAIRS + SPORADIC_PAIRS), None)
    add(TILE_CHUNK, a[1] + cp[0] - n - 34, 7 * a[1] + b[0], a[1])
    for m in range(1, len(c)):
        add(TILE_LITERAL, 5, (5, 8, a[m + 1], 3, 8), None)
        add(TILE_CHUNK, a[m + 1] + cp[m] - a[m] - 6, a[m + 1] + b[m], a[m + 1])
    cls = c[-1]
    if cls == 1 or end == max_terms:  # truncated, or the budget is spent
        return tuple(tiles)
    a_j, a_prev, b_j = a[-1], a[-2], b[-1]
    if cls == 0:
        x = a_j * _exact5(a_j - a_prev - 2) + b_j
        add(TILE_LITERAL, 158, tuple(cc * x + dd * a_j + ff for cc, dd, ff in CLOSINGS[0]), None)
    elif cls == 2:
        head = (4, a_j * _exact5(a_j - a_prev - 4) + b_j + 2, 5 * _tables(1).R(1), 5 * _tables(1).S(1))
        add(TILE_LITERAL, 4, head, None)
        kmax = -(-(max_terms - end) // 5)
        tables = _tables(kmax + 1)
        # the blocks before the first that fails its side condition
        kmax = next((k - 1 for k in range(1, kmax + 1) if a_j * (tables.T(k) - 1) < 5 * k + 2), kmax)
        add(TILE_BLOCKS, 5 * kmax, a_j, (tables.r, tables.s, tables.t))
    elif cls == 3:
        add(TILE_LITERAL, 4, (6, a_j + 5, a_j * _exact5(a_j - a_prev - 5) + b_j, 0), None)
    else:
        x = a_j * _exact5(a_j - a_prev - 6) + b_j + 7
        add(TILE_LITERAL, 11, (7, a_j + 5, 4, a_j + 2, 13, x, 5, 4, a_j + 15, x, 0), None)
    return tuple(tiles)


def _leaves() -> dict[tuple[int, int], list[int]]:
    """(classification, j) -> the residues r mod 5^4 whose descent resolves
    at level j <= 4 with that classification: every N = r + 5^4 q shares them."""
    leaves: dict[tuple[int, int], list[int]] = {}
    for r in range(5**4):
        profile = abc_profile(r + 5**5, max_depth=4)
        if profile.j is not None:
            leaves.setdefault((profile.classification, profile.j), []).append(r)
    return leaves


_LEAVES = _leaves()

# The end index past A_j of each finite classification, frozen.
_END_PAST_A_J = {0: 161, 3: 5, 4: 15}


@st.composite
def stratified_n(draw, tops: dict[int, int]):
    """A non-exceptional N of a classification drawn from ``tops``, in
    35..tops[classification], resolved at a level j in 1..4 drawn evenly, so
    that deep profiles and huge N are common."""
    cls = draw(st.sampled_from(sorted(tops)))
    r = draw(st.sampled_from(_LEAVES[cls, draw(st.integers(1, 4))]))
    n = 5**4 * draw(st.integers(0, (tops[cls] - r) // 5**4)) + r
    assume(n >= 35 and not is_exceptional(n))
    return n


_FINITE_TO_10_30 = {0: 10**30, 3: 10**30, 4: 10**30}


@st.composite
def closing_cases(draw):
    """(N, depth, max_terms) for N up to 10^30, with budgets that cut the
    prediction inside the prefix, a chunk, a bridge, the closing or a
    class-2 block.  Class 2 is drawn with N and budgets up to BUDGET_CAP
    only: the R/S/T tables grow with the budget."""
    n = draw(stratified_n({**_FINITE_TO_10_30, 2: BUDGET_CAP}))
    depth = draw(st.one_of(st.just(16), st.integers(1, 3)))
    profile = abc_profile(n, max_depth=depth)
    # most often the last level's marks, where the closing is
    m = draw(st.one_of(st.just(len(profile.c)), st.integers(1, len(profile.c))))
    a_m = profile.a[m]
    marks = (
        n + draw(st.integers(-6, 40)),  # in or just past the 34-term prefix
        # the end of chunk m, then its bridge or a class-3/4 closing
        a_m + _c_prime(profile.c[m - 1]) + draw(st.integers(-6, 14)),
        a_m + draw(st.integers(0, 170)),  # in or just past the class-0 closing
        a_m + 5 * draw(st.integers(1, 200)) + draw(st.integers(-1, 4)),  # class-2 block k
    )
    max_terms = max(n, marks[draw(st.integers(0, 3))])
    if profile.classification == 2:
        max_terms = min(max_terms, BUDGET_CAP)
    return n, depth, max_terms


@settings(max_examples=300, deadline=None)
@given(closing_cases())
@example((42, 16, 396 + 4))  # inside the bridge after A_2
@example((42, 16, 24860 + 3))  # inside the class-2 head after A_3
@example((182, 16, 12119))  # cut inside the classification-0 closing
@example((10**30 + 4, 1, 2 * (10**30 + 4) + 4 + 10))  # a classification-3 run, A_1 + 10
@example((10**22 + 17, 16, abc_profile(10**22 + 17).a[-1] + 20))  # class 4 at depth 3, whole
def test_closings_give_the_per_class_tiles(case):
    n, depth, max_terms = case
    profile = abc_profile(n, max_depth=depth)
    assert _evaluated(predicted_tiles(profile, max_terms)) == _per_class_tiles(profile, max_terms)


@settings(max_examples=200, deadline=None)
@given(stratified_n(_FINITE_TO_10_30))
@example(121)
@example(10**22 + 67)  # classification 0 at depth 3
def test_finite_predictions_end_one_past_their_last_tile(n):
    profile = abc_profile(n)
    end = profile.a[-1] + _END_PAST_A_J[profile.classification]
    tiles = predicted_tiles(profile, end + 5)
    length = n + sum(tile[1] for tile in tiles)
    assert length == end - 1
    assert predictor._predicted_status(profile, length, end + 5) == SequenceStatus.ended(end)


@settings(max_examples=200, deadline=None)
@given(stratified_n({**_FINITE_TO_10_30, 2: BUDGET_CAP}), st.integers(0, 400), st.booleans())
@example(121, 0, False)  # the budget ends at N: no tile
@example(121, 200, True)  # the whole classification-0 run, 406 terms
@example(38, 400, False)  # classification 2
def test_tiles_predict_only_past_the_identity_prefix(n, extra, near_end):
    """The tiles hold the predicted terms past N and no more: their lengths
    sum to min(max_terms, E - 1) - N, E the end index, which classification
    2 lacks."""
    profile = abc_profile(n)
    end = None if profile.classification == 2 else profile.a[-1] + _END_PAST_A_J[profile.classification]
    max_terms = max(n, end - 200 + extra if near_end and end is not None else n + extra)
    tiles = predicted_tiles(profile, max_terms)
    assert sum(tile[1] for tile in tiles) == (max_terms if end is None else min(max_terms, end - 1)) - n


def _literal_blocks(lam: int, kmax: int) -> list[int]:
    """Blocks 1..kmax of lam, one value at a time, up to the first that fails
    its side condition lam*(T(k) - 1) >= 5k + 2."""
    tables = _tables(kmax + 1)
    out: list[int] = []
    for k in range(1, kmax + 1):
        if lam * (tables.T(k) - 1) < 5 * k + 2:
            break
        out += (lam * tables.T(k), 4, 5 * tables.R(k), 5 * tables.R(k + 1), 5 * tables.S(k + 1))
    return out


def test_class2_lam_clears_the_side_condition(fastest_backend):
    # the premise behind predicted_tiles emitting every class-2 block the
    # budget reaches: the least lam block k needs, ceil((5k+2)/(T(k)-1)),
    # is at most 12 through 10^6 blocks, reached first at k = 2 ...
    t = rst_compute(10**6).t
    assert max((-(-(5 * k + 2) // (t[k] - 1)), -k) for k in range(1, 10**6 + 1)) == (12, -2)
    # ... while every class-2 N >= 35 has lam = A_j >= A_1 = 2N+4, as A
    # strictly increases along the descent
    for n in range(35, 10**4 + 1):
        profile = abc_profile(n)
        a = profile.a
        if profile.classification == 2:
            assert all(x < y for x, y in zip(a, a[1:])) and a[-1] >= 2 * n + 4, n
    # so lam = 12 already keeps every block, and N = 38 (lam = 80) holds for
    # 400000 blocks, ten times the oracle's budget
    tables = _tables(40_001)
    tiles = ((TILE_BLOCKS, 200_000, 12, (tables.r, tables.s, tables.t)),)
    assert materialise((), tiles, 200_000).tolist() == _literal_blocks(12, 40_000)
    report = verify_against_bruteforce(38, 2_000_000)
    assert (report.matched_through, report.first_mismatch) == (2_000_000, None)
    assert report.actual_status == report.predicted_status == SequenceStatus.alive()
    assert report.terminal_agreement


def _list_check(prefix, tiles, budget: int):
    """What q_check must report, from the two lists verify used to build,
    led by the count of leading terms that agree, which _check reports."""
    predicted = materialise(prefix, tiles, budget)
    actual = evaluate(InitialCondition(prefix, True), budget, mode="exact")
    first = _first_difference(predicted, actual.terms)
    matched = first[0] - 1 if first is not None else len(predicted)
    return matched, first, actual.status, len(actual.terms)


def _checks(kernel, prefix, tiles, budget: int):
    """q_check through the compiled kernel and through the reference, in
    the shape of _list_check after its count."""
    compiled = kernel.q_check(prefix, tiles, budget)
    reference = _fallback.q_check(prefix, tiles, budget, checked=True)
    for first, code, n_actual in (compiled, reference):
        yield first, _status_of(code, n_actual), n_actual


def _check_count(kernel, prefix, tiles, budget: int) -> int:
    """The count of leading terms that agree, as _check derives it from
    q_check's result."""
    with mock.patch.object(_backend, "_kernel", kernel):
        return _check(prefix, tiles, budget).matched_through


def _mismatch_cases():
    """(prefix, tiles, budget): every exceptional N in 35..117, every
    finite N there with a term appended to its prediction (the run ends
    while the prediction goes on), and seeded non-exceptional N under depth
    caps that truncate the prediction."""
    rng = random.Random(7)
    for n in range(35, 118):
        if is_exceptional(n):
            for budget in (n, 300, 5000):
                yield tuple(range(1, n + 1)), predicted_tiles(abc_profile(n), budget), budget
        elif abc_profile(n).classification != 2:
            yield tuple(range(1, n + 1)), (*predicted_tiles(abc_profile(n), 5000), constants((1,))), 5000
    while True:
        n = rng.randint(35, 10**4)
        profile = abc_profile(n, max_depth=rng.randint(1, 3))
        if is_exceptional(n) or profile.j is not None:
            continue
        budget = rng.randint(n, 20_000)
        yield tuple(range(1, n + 1)), predicted_tiles(profile, budget), budget
        if rng.random() < 0.02:
            return


def test_q_check_reports_mismatches_like_the_lists(compiled_kernel):
    # terminal agreement follows from the actual status and length, so the
    # oracle's report is the same whichever way these are found
    shapes = set()
    for prefix, tiles, budget in _mismatch_cases():
        want = _list_check(prefix, tiles, budget)
        for got in _checks(compiled_kernel, prefix, tiles, budget):
            assert got == want[1:], (len(prefix), budget)
        assert _check_count(compiled_kernel, prefix, tiles, budget) == want[0]
        first = want[1]
        shapes.add(None if first is None else (first[1] is None, first[2] is None))
    # values differ; the prediction stops early; the actual run stops early
    assert {(False, False), (True, False), (False, True)} <= shapes


def _exact_tables(tile: tuple) -> tuple:
    """A block tile whose R/S/T tables hold exactly the rows its blocks read:
    0..kmax+1 of r and s, 0..kmax of t."""
    kind, length, lam, (r, s, t) = tile
    kmax = -(-length // 5)
    return kind, length, lam, (array("q", r[: kmax + 2]), array("q", s[: kmax + 2]), array("q", t[: kmax + 1]))


def _changed(tile: tuple, g: int, r: int, event: str) -> tuple | None:
    """The tile with its value at residue r of group g, and no value before
    it, changed: one more for "differs", outside int64 for "int64".  The
    change is to a literal's row (its f one more, or its d INT64_MAX, which
    takes d*y past int64: y is N >= 35 or A_m >= 74 in every prediction), a
    chunk's first value or step (group 0 only: each later group repeats
    them), or the row of T, R or S that residue 0, 3 or 4 of block group g
    reads first (R(1) for residue 2 of group 0).  None where the tile holds
    no such value: a chunk's 5, 3 and 5, the 4 of every block, and the
    residue-2 value of a later block group, 5R(g + 1), which residue 3 of
    group g - 1 reads first."""
    kind, length, a, b = tile
    if kind == TILE_LITERAL:
        c, d, f = (array("q", column) for column in b)
        if event == "int64":
            d[5 * g + r] = INT64_MAX
        else:
            f[5 * g + r] += 1
        return kind, length, a, (c, d, f)
    if kind == TILE_CHUNK:
        if g or r not in (0, 2):
            return None
        value = 2**63 if event == "int64" else (b if r else a) + 1
        return (kind, length, a, value) if r else (kind, length, value, b)
    # a row of 2**62 takes lam*T(k) and 5R(k), 5S(k) past int64
    which, row = {0: (2, g + 1), 2: (0, 1), 3: (0, g + 2), 4: (1, g + 2)}.get(r, (None, None))
    if which is None or (r == 2 and g):
        return None
    tables = [array("q", table) for table in b]
    tables[which][row] = 2**62 if event == "int64" else tables[which][row] + 1
    return kind, length, a, tuple(tables)


def _group_cases():
    """(event, kind, r, g, p, prefix, tiles, budget) at predicted offset p,
    residue r of the first, a middle or the last group g of a tile of a
    real prediction of classification 2, 0, 3 and 4: the budget ends at p,
    or the tile's value at p differs or is the first outside int64 (see
    _changed); then the stops of _RUN_STOPS, where the run leaves a value
    the tile fixes or ends, and the ends of a literal at every residue of
    groups 0, 1 and 2.  Each block tile's tables hold exactly the rows it
    reads."""
    for n, budget in ((38, 239), (132, 6190), (37, 277), (47, 553)):
        identity = range(1, n + 1)
        tiles = tuple(_exact_tables(tile) if tile[0] == TILE_BLOCKS else tile
                      for tile in predicted_tiles(abc_profile(n), budget))
        start = n
        for i, tile in enumerate(tiles):
            kind, length = tile[:2]
            groups = -(-length // 5)
            for g in sorted({0, groups // 2, groups - 1}):
                for p in range(start + 5 * g, min(start + 5 * g + 5, start + length)):
                    r = (p - start) % 5
                    yield "budget", kind, r, g, p, identity, tiles, p + 1
                    for event in ("differs", "int64"):
                        changed = _changed(tile, g, r, event)
                        if changed is not None:
                            changed = (*tiles[:i], changed, *tiles[i + 1:])
                            yield event, kind, r, g, p, identity, changed, budget
            start += length
    for kind, event, g, r, prefix in _RUN_STOPS:
        k = len(prefix)
        run = _fallback.q_generate(prefix, True, k + 10)[0][k:]
        yield event, kind, r, g, k + 5 * g + r, prefix, (_following(kind, run),), k + 20
    # the run of <0;-1,2,2,7> ends after 14 values: behind a literal of j
    # of them, a literal ends at offset 14 - j
    prefix = (-1, 2, 2, 7)
    run = tuple(_fallback.q_generate(prefix, True, 40)[0][4:])
    assert len(run) == 14
    for j in range(15):
        tiles = (constants(run[:j]), constants(run[j:] + (1, 1, 1)))
        yield "ends", TILE_LITERAL, (14 - j) % 5, (14 - j) // 5, 18, prefix, tiles, 40


# (kind, event, g, r, prefix): the run from the prefix, under zero
# extension, follows the tile _following builds from it up to residue r of
# group g, and there differs from a value the tile fixes (a chunk's 5, 3
# and 5, a block's 4) or ends.  Each prefix was found by a search of short
# prefixes.  A run ends only just past a value <= 0, which the tile then
# holds: a chunk's (a + b*k, 5, b, 3, 5) holds one only at a <= 0 or
# b <= 0, so it ends only at residue 0, 1 or 3 of group 0; a block's 4 (at
# residue 1) holds none, so it ends at any residue but 2.
_RUN_STOPS = (
    (TILE_CHUNK, "differs", 0, 1, (1, 1)),  # Q(3) = 2, then Q(4) = 3
    (TILE_CHUNK, "differs", 0, 3, (2, 3)),
    (TILE_CHUNK, "differs", 0, 4, (2, 1)),
    (TILE_BLOCKS, "differs", 0, 1, (1, 1)),
    (TILE_CHUNK, "differs", 1, 1, (8, 1, 0, 7, 2, 1)),
    (TILE_CHUNK, "differs", 1, 3, (6, 5, 8, 6, 7, 1, 9, 3, 14)),
    (TILE_CHUNK, "differs", 1, 4, (2, 0, 5, 10, 14, 3, 6)),
    (TILE_BLOCKS, "differs", 1, 1, (2, 9, 1, 5)),
    (TILE_CHUNK, "ends", 0, 0, (1, 0)),
    (TILE_BLOCKS, "ends", 0, 0, (1, 0)),
    (TILE_CHUNK, "ends", 0, 1, (3, 3)),  # Q(3) = 0, the chunk's a
    (TILE_BLOCKS, "ends", 0, 1, (-1, 3, 3)),
    (TILE_CHUNK, "ends", 0, 3, (-1, 2, 1)),
    (TILE_BLOCKS, "ends", 0, 3, (2, -1, 1, 5)),
    (TILE_BLOCKS, "ends", 0, 4, (12, -1, 0, 3, 9, 0, 5, 1)),
    (TILE_BLOCKS, "ends", 1, 1, (2, 4, 1, 0, 9, 10, 1, 9)),
)


def _following(kind: int, run) -> tuple:
    """A chunk or block tile of two groups whose free values are the run's:
    a chunk's first value and step; a block's lam = Q(k + 1), with T(1) = 1
    and T(2), R(1..3) and S(2..3) read from the run, 5 past its end."""
    v = (*run, *(5,) * 10)
    if kind == TILE_CHUNK:
        return kind, 10, v[0], v[2]
    r, s, t = (0, v[2] // 5, v[3] // 5, v[8] // 5), (0, 0, v[4] // 5, v[9] // 5), (0, 1, v[5] // v[0])
    return kind, 10, v[0], tuple(array("q", table) for table in (r, s, t))


def test_q_check_agrees_at_every_group_boundary(compiled_kernel):
    """The compiled kernel writes a literal row by row and a chunk or a
    block tile five values at a time, from the tile's start, and tests each
    value on its own: wherever the stop falls in its group, it answers as
    the reference and the lists do."""
    seen = set()
    for event, kind, r, g, p, prefix, tiles, budget in _group_cases():
        compiled = compiled_kernel.q_check(prefix, tiles, budget)
        assert compiled == _fallback.q_check(prefix, tiles, budget, checked=True), (event, p)
        want = _list_check(prefix, tiles, budget)
        matched, first = want[:2]
        if event == "int64":  # declined: the value to report lies outside int64
            assert compiled is None and first[1] > INT64_MAX
        else:
            assert (compiled[0], _status_of(*compiled[1:]), compiled[2]) == want[1:], (event, p)
            assert _check_count(compiled_kernel, prefix, tiles, budget) == matched, (event, p)
        if (first is None and matched == p + 1) if event == "budget" else matched == p:
            seen.add((event, kind, r, g > 0))
    for kind in (TILE_LITERAL, TILE_CHUNK, TILE_BLOCKS):
        assert seen >= {("budget", kind, r, later) for r in range(5) for later in (False, True)}
        assert seen >= {("differs", kind, r, False) for r in range(5)}
    for event in ("differs", "int64"):
        assert seen >= {(event, TILE_LITERAL, r, later) for r in range(5) for later in (False, True)}
        assert seen >= {(event, TILE_CHUNK, 0, False), (event, TILE_CHUNK, 2, False),
                        (event, TILE_BLOCKS, 2, False)}
        assert seen >= {(event, TILE_BLOCKS, r, later) for r in (0, 3, 4) for later in (False, True)}
    assert seen >= {("differs", TILE_CHUNK, r, True) for r in (1, 3, 4)} | {("differs", TILE_BLOCKS, 1, True)}
    assert seen >= {("ends", TILE_LITERAL, r, later) for r in range(5) for later in (False, True)}
    assert seen >= {("ends", TILE_CHUNK, r, False) for r in (0, 1, 3)} | {("ends", TILE_BLOCKS, r, False) for r in (0, 1, 3, 4)}
    assert ("ends", TILE_BLOCKS, 1, True) in seen


# Q(1..60) of <1,1>, the run the literal cases below follow
_HOFSTADTER = tuple(_fallback.q_generate((1, 1), False, 60)[0])

# how -> (x, y, (c, d, f)): a literal's row the kernel cannot compute in
# int64, beside rows (0, 0, v) that read neither parameter.  "exact" holds
# None for f, where the row is the run's own value: c*x leaves int64 on the
# way to it.
_UNCOMPUTABLE = {
    "x": (2**63, 0, (1, 0, 0)),  # a parameter outside int64 under a nonzero coefficient
    "y": (0, -(2**63) - 1, (0, 1, 0)),
    "c*x": (2**62, 0, (2, 0, 0)),
    "d*y": (0, 2**62, (0, -3, 0)),
    "c*x + d*y": (2**62, 2**62, (1, 1, 0)),
    "+ f": (2**62, 0, (1, 0, 2**62)),
    "exact": (2**62, 2**62, (2, -2, None)),
}


def _int64_edge_cases():
    """(kind, how, p, prefix, tiles, budget, reaches): after the
    prefix <1,1>, a literal whose rows are the run's values up to offset p
    (0..11), where its row is one of _UNCOMPUTABLE's, and 7 after it; and
    after <0;1,...,1,mu,5,lam,3> with K = 0, 1 or 3 ones, the 5 and the
    chunk (mu + lam*k, 5, lam, 3, 5), k = 1, 2, ..., that the run follows,
    lam chosen so that the chunk's value at p = 5g (g = 1..4), residue 0 of
    its group g, is the first outside int64.  A leading literal of 0, 1 or
    3 terms of the run, or the K ones, shift the groups against the run.
    reaches says whether the compare reaches offset p: not when the tile
    ends before it (a literal or a chunk of length p, the budget with it),
    nor when the literal's row p - 1 differs from the run."""
    for lead in (0, 1, 3):
        head = constants(_HOFSTADTER[2 : 2 + lead])
        for p in range(12):
            run = _HOFSTADTER[2 + lead :]
            for how, (x, y, (c, d, f)) in _UNCOMPUTABLE.items():
                row = (c, d, run[p] if f is None else f)
                rows = [(0, 0, v) for v in run[:p]] + [row] + [(0, 0, 7)] * 11
                for length, differs in ((p, False), (p + 1, False), (12, False), (12, True)):
                    if differs and p:
                        rows[p - 1] = (0, 0, run[p - 1] + 1)
                    elif differs:
                        continue
                    forms = tuple(array("q", column) for column in zip(*rows))
                    tiles = (head, (TILE_LITERAL, length, (x, y), forms))
                    reaches = length > p and not differs
                    yield TILE_LITERAL, how, p, (1, 1), tiles, 2 + lead + length + 3, reaches
        mu = 9
        for g in range(1, 5):
            lam = -(-(2**63 - mu) // (g + 1))  # mu + lam*k leaves int64 at k = g + 1
            prefix = (1,) * lead + (mu, 5, lam, 3)
            for length in (5 * g, 5 * g + 1, 5 * g + 6):
                tiles = (constants((5,)), (TILE_CHUNK, length, mu + lam, lam))
                budget = len(prefix) + 1 + length
                yield TILE_CHUNK, "a + b*k", 5 * g, prefix, tiles, budget, length > 5 * g


def test_q_check_declines_at_each_offset_where_a_tile_leaves_int64(compiled_kernel):
    """tile_fill writes a literal's rows up to the first it cannot compute
    in int64: wherever that row falls, however it leaves
    int64, even where the row itself fits, the kernel answers as the
    checked reference, declining exactly where the compare reaches it, and
    the backend as the exact reference.  A parameter outside int64 stops
    no row whose coefficient for it is 0.  The run computes each value of a
    chunk it follows, so a chunk's value past group 0 that leaves int64
    leaves it in the run too, and the kernel declines exactly where the run
    reaches it."""
    declined = set()
    for kind, how, p, prefix, tiles, budget, reaches in _int64_edge_cases():
        case = (how, p, len(prefix), tiles[-1][1])
        compiled = compiled_kernel.q_check(prefix, tiles, budget)
        checked = _answer(_fallback.q_check, prefix, tiles, budget, checked=True)
        assert compiled == _declined_where_raised(checked), case
        with mock.patch.object(_backend, "_kernel", compiled_kernel):
            exact = _answer(_backend.q_check, prefix, tiles, budget)
        assert exact == _answer(_fallback.q_check, prefix, tiles, budget, checked=False), case
        assert (compiled is None) == reaches, case
        if compiled is None:
            declined.add((kind, how, p))
    assert declined == ({(TILE_CHUNK, "a + b*k", 5 * g) for g in range(1, 5)}
                        | {(TILE_LITERAL, how, p) for how in _UNCOMPUTABLE for p in range(12)})


@pytest.mark.parametrize("backend", ["compiled", "python"])
@pytest.mark.parametrize("prefix", [(1, 1), (3, 6, 5, 3, 6, 8), range(1, 39)], ids=["1,1", "fibonacci", "1..38"])
def test_tiles_start_just_past_the_prefix(request, backend, prefix):
    """The run holds its prefix, and the first tile predicts Q(k + 1), k the
    prefix length: q_check reports 1-based indices from there on, and
    materialise keeps the prefix whole, as the run does."""
    kernel = request.getfixturevalue("compiled_kernel") if backend == "compiled" else None
    k, budget = len(prefix), len(prefix) + 40
    run = evaluate(InitialCondition(prefix, True), budget).terms.tolist()  # alive through the budget
    after = (constants(run[k:]),)
    q = run[k]  # Q(k + 1)
    wrong = (constants((q + 1,)),)
    # (tiles, budget, _check's matched_through, first_mismatch, n_actual)
    checks = (
        (after, budget, budget, None, budget),
        (wrong, budget, k, (k + 1, q + 1, q), budget),
        # no tiles, as scan's call: the run's next term goes unpredicted
        ((), budget, k, (k + 1, None, q), budget),
        # a budget short of the prefix: no tile is compared
        (wrong, k - 1, k, None, k),
    )
    with mock.patch.object(_backend, "_kernel", kernel):
        for tiles, limit, matched, first, n_actual in checks:
            assert _backend.q_check(prefix, tiles, limit) == (first, 0, n_actual)
            report = _check(prefix, tiles, limit)
            assert (report.matched_through, report.first_mismatch) == (matched, first)
            assert report.actual_status == SequenceStatus.alive()
    assert materialise(prefix, after, budget).tolist() == run
    assert materialise(prefix, after, k - 1).tolist() == list(prefix)


def test_q_check_builds_only_what_the_run_reaches(compiled_kernel):
    """Both backends stop at the first difference, and the reference builds
    the prediction only to one value past the end of the run: a chunk of
    10**12 terms after a run of two, which ends at once, and the same chunk
    after the prediction of N = 39, whose run ends where that prediction
    does, at 87."""
    chunk = (TILE_CHUNK, 10**12, 1, 2)
    tiles = (*predicted_tiles(abc_profile(39), 10**12), chunk)
    for kernel in (compiled_kernel, None):
        with mock.patch.object(_backend, "_kernel", kernel):
            assert _backend.q_check((2, 0), (chunk,), 10**12) == ((3, 1, None), 2, 2)
            assert _backend.q_check(range(1, 40), tiles, 10**12) == ((87, 1, None), 2, 86)


# The predicted values of a tile the compiled q_check writes, and then tests
# against the recurrence, at a time: WINDOW in _kernel.c.  Its windows are
# counted from each tile's start.
_WINDOW = 4095


def _values(values) -> tuple:
    """The literal tile of the int64 ``values``, built without a form per row."""
    zeros = array("q", [0]) * len(values)
    return TILE_LITERAL, len(values), (0, 0), (zeros, zeros, array("q", values))


def _spliced(tiles, predicted, offset: int, value: int) -> tuple:
    """``tiles`` with the value they predict at ``offset`` (0 for the first
    term past the prefix), which ``predicted`` holds, replaced by ``value``:
    the tile that holds it becomes the literal of its values, so that the
    kernel's windows of that tile start where they started."""
    spliced, start = [], 0
    for tile in tiles:
        if start <= offset < start + tile[1]:
            values = predicted[start : start + tile[1]]
            values[offset - start] = value
            tile = _values(values)
        spliced.append(tile)
        start += tile[1]
    return tuple(spliced)


@pytest.mark.parametrize("n", [38, 182], ids=["class 2", "class 0, depth 2"])
def test_q_check_finds_a_break_at_any_offset(compiled_kernel, n):
    """The compiled kernel tests each tile against the recurrence a window
    at a time and runs the recurrence on from the first index that breaks
    it: a value changed at the first or the last value of each tile, at
    either edge of a window of the longest tile, and a prediction one term
    short or one term long, give the reference's first mismatch, status and
    length.  N = 38 is predicted to the budget,
    through its R/S/T blocks; N = 182 through a chunk of 11588 terms, to
    the end of its run."""
    profile, budget = abc_profile(n), 200_000
    assert (profile.classification, profile.j) == ((2, 1) if n == 38 else (0, 2))
    prefix = range(1, n + 1)
    tiles = predicted_tiles(profile, budget)
    predicted = materialise(prefix, tiles, budget)[n:].tolist()
    starts = [sum(tile[1] for tile in tiles[:i]) for i in range(len(tiles))]
    offsets = {offset for start, tile in zip(starts, tiles) for offset in (start, start + tile[1] - 1)}
    start, longest = max(zip(starts, tiles), key=lambda pair: pair[1][1])
    assert longest[1] > 2 * _WINDOW
    offsets |= {start + offset for offset in (_WINDOW - 1, _WINDOW, _WINDOW + 1, 2 * _WINDOW)}
    variants = [(offset, _spliced(tiles, predicted, offset, predicted[offset] + 1)) for offset in sorted(offsets)]
    last = len(predicted) - 1
    kind, length, a, b = tiles[-1]
    variants += [(last, (*tiles[:-1], (kind, length - 1, a, b))), (last + 1, (*tiles, _values((1,))))]
    for offset, spliced in variants:
        compiled = compiled_kernel.q_check(prefix, spliced, budget)
        assert compiled == _fallback.q_check(prefix, spliced, budget, checked=True), offset
        if n + offset < budget:  # the run is the prediction: it breaks where changed
            assert compiled[0][0] == n + offset + 1, offset


def test_q_check_memory_follows_the_checked_terms(compiled_kernel):
    """The compiled kernel's buffer holds the terms it has checked and at
    most one window of predicted values past them, however long the
    prediction: the prediction of N = 39, whose run ends at 87, followed by
    the R/S/T blocks of N = 38 to 10**8 terms, and a chunk of 10**12 terms
    after a run of two, which ends at once.  The block tile's R/S/T tables
    are anonymous maps, which hold pages only where they are written or
    read: their rows past those of the 200000-term prediction of N = 38 are
    0, and no window reaches them.  tracemalloc sees the kernel's own
    allocations, and not the maps."""
    budget = 10**8
    kind, _, lam, tables = predicted_tiles(abc_profile(38), 200_000)[-1]
    assert kind == TILE_BLOCKS
    tiles = predicted_tiles(abc_profile(39), budget)
    length = budget - 86
    rows = -(-length // 5) + 2
    sparse = []
    for table in tables:
        view = memoryview(mmap.mmap(-1, 8 * rows)).cast("q")
        view[: len(table)] = table
        sparse.append(view)
    calls = (
        ((range(1, 40), (*tiles, (kind, length, lam, tuple(sparse))), budget), ((87, lam * tables[2][1], None), 2, 86)),
        (((2, 0), ((TILE_CHUNK, 10**12, 1, 2),), 10**12), ((3, 1, None), 2, 2)),
    )
    for args, want in calls:
        tracemalloc.start()
        try:
            assert compiled_kernel.q_check(*args) == want
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, args[0]


def test_reference_reads_every_tile_past_the_first_difference(compiled_kernel):
    """The reference builds the prediction only to one value past the end
    of the run, yet reads every tile as the kernel does: each malformed
    tile past it, which the kernel declines, it refuses with the error that
    building the tile whole raises."""
    rst = _fallback.rst_generate(40)[:3]  # rows 0..40
    differs = constants((7, 8, 9))  # 7 at index 3, where the run has ended
    _, _, _, mixed = forms((0, 0), [(1, 1, 9)] * 7)
    _, _, _, nines = constants((9,) * 7)
    for tile, error in (
        ((9, 5, 1, None), ValueError),  # an unknown kind
        ((TILE_BLOCKS, 500, 12, rst), ValueError),  # tables too short for 100 blocks
        ((TILE_LITERAL, 7, (1.5, 0), mixed), TypeError),  # x, read by every row
        ((TILE_LITERAL, 7, (2**64, 1.5), mixed), TypeError),  # y, beside an x past int64
        ((TILE_LITERAL, 7, (0, 1.5), nines), TypeError),  # y, though no row reads it
        ((TILE_LITERAL, 7, (1, 2, 3), nines), ValueError),  # three parameters
        ((TILE_BLOCKS, 10, 2.5, rst), TypeError),  # lam
        ((TILE_CHUNK, 10**12, 3, 2.5), TypeError),  # the step
        (constants((2,), 3), ValueError),  # tables shorter than its length
    ):
        assert compiled_kernel.q_check((2, 0), (differs, tile), 10**12) is None
        for checked in (True, False):
            with pytest.raises(error):
                _fallback.q_check((2, 0), (differs, tile), 10**12, checked=checked)
    # so are the tiles past the budget, clipped to no term, and materialise
    # refuses them alike
    for tile, error in (
        ((TILE_LITERAL, 0, (), None), ValueError),  # no point to read
        ((TILE_CHUNK, 0, "x", None), TypeError),
        ((TILE_CHUNK, -1, 5, 3), ValueError),  # a negative length
        ((TILE_BLOCKS, 5, 2.5, rst), TypeError),  # lam
    ):
        assert compiled_kernel.q_check((0, 0), (tile,), 0) is None
        for checked in (True, False):
            with pytest.raises(error):
                _fallback.q_check((0, 0), (tile,), 0, checked=checked)
        with pytest.raises(error):
            materialise((0, 0), (tile,), 0)
    # a literal's length is binding where the run reaches it too, on both
    # backends, and clipped to the budget before it is
    tiles = (constants((2,), 3), (TILE_CHUNK, 4, 0, 1))
    for kernel in (compiled_kernel, None):
        with mock.patch.object(_backend, "_kernel", kernel), pytest.raises(ValueError):
            _backend.q_check((2, 0), tiles, 20)
    with pytest.raises(ValueError):
        materialise((2, 0), tiles, 20)
    assert materialise((2, 0), tiles, 3).tolist() == [2, 0, 2]


@pytest.mark.parametrize("prefix", [(2, 0), (-1, 2, 1)], ids=["after-the-end", "after-a-mismatch"])
def test_a_tile_past_the_run_is_clipped_where_it_starts(compiled_kernel, prefix):
    """Every tile is clipped to the budget at its offset in the prediction,
    however little of the tiles before it the run reaches: a literal whose
    tables hold only the rows the budget leaves it, and a block tile whose
    R/S/T tables hold only the rows of its clipped blocks, after a chunk in
    which the run of <0;2,0> ends at once, or in which the run of
    <0;-1,2,1> first differs and then ends.  Both backends answer as the
    run compared with materialise's prediction does."""
    k = len(prefix)
    rows = array("q", [0]) * 5
    chunk = (TILE_CHUNK, 10, 1, 2)
    for tile, budget in (((TILE_LITERAL, 10, (0, 0), (rows, rows, rows)), k + 15),
                         ((TILE_BLOCKS, 50, 12, _fallback.rst_generate(6)[:3]), k + 35)):
        tiles = (chunk, tile)
        predicted = materialise(prefix, tiles, budget)
        run, status = _fallback.q_generate(prefix, True, budget)
        assert len(predicted) == budget and len(run) < k + chunk[1]  # the run ends inside the chunk
        want = (_first_difference(predicted, run), status, len(run))
        assert (want[0][2] is None) == (prefix == (2, 0))
        for kernel in (compiled_kernel, None):
            with mock.patch.object(_backend, "_kernel", kernel):
                assert _backend.q_check(prefix, tiles, budget) == want, (kernel, tile[0])


def _corrupt(draw, tiles: list) -> None:
    """Change one value or parameter of one tile, possibly to one outside
    int64: a literal's f in one row, or its x or y."""
    i = draw(st.integers(0, len(tiles) - 1))
    kind, length, a, b = tiles[i]
    new = draw(st.sampled_from((1, -1, 7))) if draw(st.booleans()) else draw(_huge)
    if kind == TILE_LITERAL and abs(new) < 10:
        c, d, f = (array("q", column) for column in b)
        f[draw(st.integers(0, length - 1))] += new
        b = c, d, f
    elif kind == TILE_LITERAL:
        a = (new, a[1]) if draw(st.booleans()) else (a[0], new)
    elif kind == TILE_CHUNK and draw(st.booleans()):
        b = b + new if abs(new) < 10 else new
    else:
        a = a + new if abs(new) < 10 else new
    tiles[i] = (kind, length, a, b)


_huge = st.sampled_from((2**62, 2**63 - 1, 2**63, -(2**63) - 1, 2**64, -(2**64)))

# tiles the kernel cannot read, which the reference refuses wherever they
# lie, past the budget too
_malformed = st.sampled_from((
    (TILE_LITERAL, 0, (), None),  # no point
    (TILE_CHUNK, 0, "x", None),
    (TILE_CHUNK, -1, 5, 3),  # a negative length
    (TILE_CHUNK, 3, 1, 2.5),
    # lam; the tables as arrays, as Hypothesis cannot hash a memoryview of format "q"
    (TILE_BLOCKS, 5, 2.5, tuple(array("q", table) for table in _fallback.rst_generate(40)[:3])),
    (9, 3, 1, None),  # an unknown kind
))


@st.composite
def check_cases(draw):
    """(prefix, tiles, budget).  Either a real prediction, perhaps with one
    tile corrupted, or random tiles of every kind after a random prefix
    that may end or overflow.  Either prefix may be a range, and either tuple of tiles may
    end in a malformed tile, which every call refuses."""
    if draw(st.booleans()):
        n = draw(st.integers(35, 3000).filter(lambda v: not is_exceptional(v)))
        budget = draw(st.integers(n, 6000))
        tiles = list(predicted_tiles(abc_profile(n, draw(st.sampled_from((1, 2, 16)))), budget))
        if tiles and draw(st.booleans()):  # none when the budget ends at N
            _corrupt(draw, tiles)
        if not draw(st.integers(0, 3)):  # past the budget, which the prediction fills
            tiles.append(draw(_malformed))
        prefix = range(1, n + 1)
        return draw(st.sampled_from((prefix, tuple(prefix)))), tuple(tiles), budget
    big = st.sampled_from((2**62, 3 * 2**61, 2**63 - 1, -(2**62)))
    terms = st.lists(st.one_of(st.integers(-6, 12), big, _huge), min_size=2, max_size=6)
    prefix = draw(st.one_of(terms.map(tuple), range_prefixes))
    value = st.one_of(st.integers(-6, 60), _huge)
    # a literal's coefficients, some of which take a product or sum past int64
    coefficient = st.one_of(st.integers(-3, 3), st.sampled_from((2**62, INT64_MAX, INT64_MIN)))
    rst = _tables(200)
    tiles = []
    for kind in draw(st.lists(st.sampled_from((TILE_LITERAL, TILE_CHUNK, TILE_BLOCKS)), max_size=5)):
        length = draw(st.integers(0, 40))
        a = draw(value)
        b = None
        if kind == TILE_LITERAL:
            rows = draw(st.lists(st.tuples(coefficient, coefficient, st.integers(-6, 60) | coefficient),
                                 min_size=length, max_size=length + 2))
            _, _, a, b = forms((draw(value), draw(value)), rows)
        elif kind == TILE_CHUNK:
            b = draw(value)
        elif kind == TILE_BLOCKS:
            b = (rst.r, rst.s, rst.t)
        tiles.append((kind, length, a, b))
    if not draw(st.integers(0, 3)):  # often past the budget
        tiles.append(draw(_malformed))
    # a budget may fall short of the prefix, which the run keeps whole
    return prefix, tuple(tiles), draw(st.integers(0, 120))


@settings(max_examples=300, deadline=None)
@given(check_cases())
@example(((2**62, 2**62, 3, 4), ((TILE_CHUNK, 9, 2**63, 1),), 20))  # overflows at 5
@example(((1, 2), (constants((3,)), (TILE_CHUNK, 9, 3, 2**64)), 30))
@example(((1, 2), (forms((2**63, 0), [(1, 0, 0)]),), 3))  # 2**63 at index 3
@example(((1, 2), (forms((2**63, 5), [(0, 1, -2)]),), 3))  # x outside int64, unread
@example(((1, 1), (forms((2**70, 0), [(0, 0, 2), (0, 0, 4), (1, 0, 0)]),), 30))  # differs first
@example(((3, 1), ((TILE_CHUNK, 9, 2, 0),), 30))  # step 0
@example(((1, 2, 3, 2**64), ((TILE_CHUNK, 3, 1, 2),), 2))  # prefix overflows past the budget
@example(((1, 2, 3, 4), ((TILE_CHUNK, 3, 1, 2),), 2))  # the prefix is longer than the budget
@example((range(2**63 - 3, 2**63 + 3), ((TILE_CHUNK, 9, 1, 2),), 20))  # its 4th term leaves int64
@example((range(2**63, 2**63 + 4), ((TILE_CHUNK, 9, 1, 2),), 20))  # its start is outside int64
@example((range(-(2**63), 1, 2**63), ((TILE_CHUNK, 9, 1, 2),), 20))  # so is its step, not its terms
@example((range(1, 2), ((TILE_CHUNK, 9, 1, 2),), 20))  # too short: declined, ValueError
@example((range(0), (), 20))
@example(((0, 0), ((TILE_LITERAL, 0, (), None),), 0))  # past the budget: declined, ValueError
@example(((1, 2), (constants((3,)), (TILE_CHUNK, -1, 5, 3)), 3))  # negative, past the budget
def test_compiled_and_fallback_q_check_agree(compiled_kernel, case):
    prefix, tiles, budget = case
    compiled = _answer(compiled_kernel.q_check, prefix, tiles, budget)
    # a range is read in place, and answers as its tuple does
    assert compiled == _answer(compiled_kernel.q_check, tuple(prefix), tiles, budget)
    checked = _answer(_fallback.q_check, prefix, tiles, budget, checked=True)
    assert compiled == _declined_where_raised(checked)
    exact = _answer(_fallback.q_check, prefix, tiles, budget, checked=False)
    assert compiled in (exact, None)
    # the backend answers exactly, or raises the reference's error, either way
    with mock.patch.object(_backend, "_kernel", compiled_kernel):
        assert _answer(_backend.q_check, prefix, tiles, budget) == exact


def test_verify_retries_in_exact_after_overflow():
    # no real prediction overflows int64, so the kernel is made to decline
    overflowing = SimpleNamespace(q_check=lambda *args: None)
    for n in (38, 121, 42):
        want = verify_against_bruteforce(n, 3000)
        with mock.patch.object(_backend, "_kernel", overflowing):
            assert verify_against_bruteforce(n, 3000) == want
