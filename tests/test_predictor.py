"""Structure-predictor tests: the base-5 descent profile, the predicted
terms, brute-force cross-checks, and the classification tree."""

from __future__ import annotations

import random
from array import array
from itertools import islice
from types import SimpleNamespace
from typing import Iterator
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_engine import _declined_where_raised, _outcome as _answer, range_prefixes
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
    TILE_BLOCKS,
    TILE_CHUNK,
    TILE_LITERAL,
    TILE_RANGE,
    _first_difference,
    materialise,
)
from qlab.engine import InitialCondition, SequenceStatus, _check, _status_of, evaluate
from qlab.predictor import CLOSINGS, StructureProfile, _exact5, predicted_tiles
from qlab.rst import R, S, T, _block_count, _tables


def test_profile_42():
    # hand-run of the descent: A_0=40, A_1=88, B_1=-484, C_1=1;
    # A_2 = 88*(88-40+2)/5 - 484 = 396, B_2=308, C_2=(396+5)%5=1;
    # A_3 = 396*(396-88+2)/5 + 308 = 24860, B_3=24464, C_3=(24860+7)%5=2
    p = abc_profile(42)
    assert p.n_value == 42
    assert p.a == (40, 88, 396, 24860)
    assert p.b == (-484, 308, 24464)
    assert p.c == (1, 1, 2)
    assert p.c_prime == (1, 1, 0)
    assert p.j == 3
    assert p.classification == 2
    print("✓ N=42 descent: j=3, classification 2")


def test_profiles_class_zero():
    p = abc_profile(121)
    assert p.a == (119, 246)
    assert p.b == (-1353,)
    assert p.c == (0,)
    assert p.c_prime == (2,)
    assert (p.j, p.classification) == (1, 0)

    p = abc_profile(126)
    assert p.a[1] == 256
    assert (p.j, p.classification) == (1, 0)

    # 182 needs one more level: A_2 = 368*(368-180+2)/5 - 2024 = 11960
    p = abc_profile(182)
    assert p.a == (180, 368, 11960)
    assert p.b == (-2024, 11592)
    assert p.c == (1, 0)
    assert (p.j, p.classification) == (2, 0)


def test_profiles_small_values():
    # the descent is defined for every N >= 0, exceptional or not
    p = abc_profile(0)
    assert p.a == (-2, 4)
    assert p.b == (-22,)
    assert (p.c, p.j, p.classification) == ((4,), 1, 4)

    # N=2: A_2 = 8*(8-0+2)/5 - 44 = -28, C_2 = (-28+5) mod 5 = 2
    p = abc_profile(2)
    assert p.a == (0, 8, -28)
    assert p.b == (-44, -36)
    assert (p.c, p.j, p.classification) == ((1, 2), 2, 2)

    p = abc_profile(38)
    assert p.a == (36, 80)
    assert p.b == (-440,)
    assert (p.c, p.j, p.classification) == ((2,), 1, 2)


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
# target a derivation of the exception rule has to meet.  117, whose end
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
    for n, (row, value) in EXCEPTION_ROWS.items():
        profile = abc_profile(n)
        assert profile.classification == 0
        end = profile.a[-1] + 161
        tiles = predicted_tiles(profile, end)
        _, first, _, _, _ = _backend.q_check(tuple(range(1, n + 1)), True, tiles, end)
        index, predicted, _ = first
        assert (index - profile.a[-1] - 2, predicted) == (row, value), n


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
        assert type(seq.terms) is array and seq.terms.typecode == "q"
        reference = _fallback.materialise(predicted_tiles(abc_profile(n), budget), budget)
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
    # alive (a class-2 run cut by its side condition) disagrees at its end
    tiles = ((TILE_RANGE, 5, 1, None), (TILE_LITERAL, 3, (3, 6, 7), None))
    short = _check(range(1, 6), tiles, 20, SequenceStatus.alive())
    assert (short.matched_through, short.first_mismatch) == (8, (9, None, 5))
    assert short.actual_status == short.predicted_status and not short.terminal_agreement
    full = _check(range(1, 6), tiles, 8, SequenceStatus.alive())
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
    assert p.a[0] == n - 2
    assert p.a[1] == 2 * n + 4
    assert p.b[0] == -11 * n - 22  # definitional, not a difference of a
    assert p.b[1:] == tuple(p.a[i + 1] - p.a[i] for i in range(1, len(p.b)))
    assert all(0 <= ci <= 4 for ci in p.c)
    assert p.c_prime == tuple(max(0, ((3 - ci) % 5) - 1) for ci in p.c)
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
    a, b, cp = profile.a, profile.b, profile.c_prime
    for v in range(1, n + 1):
        yield v
    # the frozen records of the derived prefix, not the derivation itself
    for alpha, beta in PREFIX_PAIRS + SPORADIC_PAIRS:
        yield alpha * n + beta
    # first chunk: indices N+35 .. A_1 + C'_1, period 5 in o = index - N
    for o in range(35, a[1] + cp[0] - n + 1):
        k, r = divmod(o, 5)
        yield (a[1] * k + b[0], 5, a[1], 3, 5)[r]
    levels = profile.j if profile.j is not None else len(profile.c)
    for m in range(1, levels):
        # bridge at A_m+2 .. A_m+6, then chunk m+1 through A_{m+1} + C'_{m+1}
        for v in (5, 8, a[m + 1], 3, 8):
            yield v
        for o in range(7, a[m + 1] + cp[m] - a[m] + 1):
            k, r = divmod(o, 5)
            yield (3, 5, a[m + 1] * k + b[m], 5, a[m + 1])[r]
    if profile.j is None:
        return
    a_j, a_prev, b_j = a[-1], a[-2], b[-1]
    cls = profile.classification
    if cls == 0:
        step = _exact5(a_j - a_prev - 2)
        for cc, dd, ff in CLOSINGS[0]:
            yield cc * (a_j * step + b_j) + dd * a_j + ff
    elif cls == 2:
        yield 4
        yield a_j * _exact5(a_j - a_prev - 4) + b_j + 2
        yield 5 * R(1)
        yield 5 * S(1)
        k = 1
        while True:
            # block k occupies offsets 5k .. 5k+4 past A_j and is only valid
            # while A_j * (T(k) - 1) >= 5k + 2
            if a_j * (T(k) - 1) < 5 * k + 2:
                return
            yield a_j * T(k)
            yield 4
            yield 5 * R(k)
            yield 5 * R(k + 1)
            yield 5 * S(k + 1)
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
    def streamed(profile, budget):
        # every value these tests reach fits int64, as materialise's array
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
    for a_m, cp_m in zip(profile.a[1:], profile.c_prime):
        marks += [a_m + cp_m, a_m + 6, a_m + 161]
    marks += [profile.a[-1] + 5 * draw(st.integers(1, 200)) + 4]
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
    """predicted_tiles as it was before every level closed through CLOSINGS:
    a bridge literal per level and one branch per classification, frozen
    here as the reference for the table."""
    n = profile.n_value
    a, b, cp = profile.a, profile.b, profile.c_prime
    tiles = [(TILE_RANGE, n, 1, None)]
    end = n

    def add(kind: int, length: int, first, step) -> None:
        nonlocal end
        length = min(length, max_terms - end)
        if length > 0:
            if kind == TILE_LITERAL:
                first = first[:length]
            tiles.append((kind, length, first, step))
            end += length

    add(TILE_LITERAL, 34, tuple(alpha * n + beta for alpha, beta in PREFIX_PAIRS + SPORADIC_PAIRS), None)
    add(TILE_CHUNK, a[1] + cp[0] - n - 34, 7 * a[1] + b[0], a[1])
    levels = profile.j if profile.j is not None else len(profile.c)
    for m in range(1, levels):
        add(TILE_LITERAL, 5, (5, 8, a[m + 1], 3, 8), None)
        add(TILE_CHUNK, a[m + 1] + cp[m] - a[m] - 6, a[m + 1] + b[m], a[m + 1])
    if profile.j is None or end == max_terms:
        return tuple(tiles)
    a_j, a_prev, b_j = a[-1], a[-2], b[-1]
    cls = profile.classification
    if cls == 0:
        x = a_j * _exact5(a_j - a_prev - 2) + b_j
        add(TILE_LITERAL, 158, tuple(cc * x + dd * a_j + ff for cc, dd, ff in CLOSINGS[0]), None)
    elif cls == 2:
        head = (4, a_j * _exact5(a_j - a_prev - 4) + b_j + 2, 5 * R(1), 5 * S(1))
        add(TILE_LITERAL, 4, head, None)
        kmax = _block_count(a_j, -(-(max_terms - end) // 5))
        tables = _tables(kmax + 1)
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
        a_m + profile.c_prime[m - 1] + draw(st.integers(-6, 14)),
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
    assert predicted_tiles(profile, max_terms) == _per_class_tiles(profile, max_terms)


@settings(max_examples=200, deadline=None)
@given(stratified_n(_FINITE_TO_10_30))
@example(121)
@example(10**22 + 67)  # classification 0 at depth 3
def test_finite_predictions_end_one_past_their_last_tile(n):
    profile = abc_profile(n)
    end = profile.a[-1] + _END_PAST_A_J[profile.classification]
    tiles = predicted_tiles(profile, end + 5)
    length = sum(tile[1] for tile in tiles)
    assert length == end - 1
    assert predictor._predicted_status(profile, length, end + 5) == SequenceStatus.ended(end)


def _literal_blocks(lam: int, kmax: int) -> list[int]:
    out: list[int] = []
    for k in range(1, kmax + 1):
        if lam * (T(k) - 1) < 5 * k + 2:
            break
        out += (lam * T(k), 4, 5 * R(k), 5 * R(k + 1), 5 * S(k + 1))
    return out


def _cut_blocks(lam: int, kmax: int) -> list[int]:
    """The blocks 1..kmax that meet their side condition, as the class-2
    closing tiles them."""
    kmax = _block_count(lam, kmax)
    tables = _tables(kmax + 1)
    tiles = ((TILE_BLOCKS, 5 * kmax, lam, (tables.r, tables.s, tables.t)),)
    return materialise(tiles, 5 * kmax).tolist()


def test_lam_blocks_side_condition_cut():
    # the least valid lam runs 7 (k=1), 12 (k=2), then never needs more:
    # every lam >= 12 passes, so no N >= 35 (A_j >= 2N+4) reaches the cut
    for lam in range(-3, 15):
        for kmax in range(0, 12):
            assert _cut_blocks(lam, kmax) == _literal_blocks(lam, kmax), (lam, kmax)
    assert len(_cut_blocks(11, 5)) == 5 and _cut_blocks(6, 5) == []
    assert _cut_blocks(12, 40_000) == _literal_blocks(12, 40_000)


def _list_check(prefix, zero: bool, tiles, budget: int):
    """What q_check must report, from the two lists verify used to build."""
    predicted = materialise(tiles, budget)
    actual = evaluate(InitialCondition(prefix, zero), budget, mode="exact")
    first = _first_difference(predicted, actual.terms)
    matched = first[0] - 1 if first is not None else len(predicted)
    return matched, first, actual.status, len(actual.terms)


def _checks(kernel, prefix, zero: bool, tiles, budget: int):
    """q_check through the compiled kernel and through the reference, in
    the shape of _list_check."""
    compiled = kernel.q_check(prefix, zero, tiles, budget)
    reference = _fallback.q_check(prefix, zero, tiles, budget, checked=True)
    for matched, first, code, at, n_actual in (compiled, reference):
        yield matched, first, _status_of(code, at), n_actual


def _mismatch_cases():
    """(prefix, zero, tiles, budget): every exceptional N in 35..117, their
    plain runs (which die while the prediction goes on), and seeded
    non-exceptional N under depth caps that truncate the prediction."""
    rng = random.Random(7)
    for n in range(35, 118):
        if is_exceptional(n):
            for budget in (n, 300, 5000):
                tiles = predicted_tiles(abc_profile(n), budget)
                yield tuple(range(1, n + 1)), True, tiles, budget
                yield tuple(range(1, n + 1)), False, tiles, budget
    while True:
        n = rng.randint(35, 10**4)
        profile = abc_profile(n, max_depth=rng.randint(1, 3))
        if is_exceptional(n) or profile.j is not None:
            continue
        budget = rng.randint(n, 20_000)
        yield tuple(range(1, n + 1)), True, predicted_tiles(profile, budget), budget
        if rng.random() < 0.02:
            return


def test_q_check_reports_mismatches_like_the_lists(compiled_kernel):
    # terminal agreement follows from the actual status and length, so the
    # oracle's report is the same whichever way these are found
    shapes = set()
    for prefix, zero, tiles, budget in _mismatch_cases():
        want = _list_check(prefix, zero, tiles, budget)
        for got in _checks(compiled_kernel, prefix, zero, tiles, budget):
            assert got == want, (len(prefix), zero, budget)
        first = want[1]
        shapes.add(None if first is None else (first[1] is None, first[2] is None))
    # values differ; the prediction stops early; the actual run stops early
    assert {(False, False), (True, False), (False, True)} <= shapes


def _corrupt(draw, tiles: list) -> None:
    """Change one value or parameter of one tile, possibly to one outside int64."""
    i = draw(st.integers(0, len(tiles) - 1))
    kind, length, a, b = tiles[i]
    new = draw(st.sampled_from((1, -1, 7))) if draw(st.booleans()) else draw(_huge)
    if kind == TILE_LITERAL:
        values = list(a)
        values[draw(st.integers(0, len(values) - 1))] += new
        a = tuple(values)
    elif kind == TILE_CHUNK and draw(st.booleans()):
        b = b + new if abs(new) < 10 else new
    else:
        a = a + new if abs(new) < 10 else new
    tiles[i] = (kind, length, a, b)


_huge = st.sampled_from((2**62, 2**63 - 1, 2**63, -(2**63) - 1, 2**64, -(2**64)))


@st.composite
def check_cases(draw):
    """(prefix, zero, tiles, budget).  Either a real prediction, perhaps
    with one tile corrupted and perhaps run under the plain convention, or
    random tiles of every kind after a random prefix that may die, end or
    overflow.  Either prefix may be a range."""
    if draw(st.booleans()):
        n = draw(st.integers(35, 3000).filter(lambda v: not is_exceptional(v)))
        budget = draw(st.integers(n, 6000))
        tiles = list(predicted_tiles(abc_profile(n, draw(st.sampled_from((1, 2, 16)))), budget))
        if draw(st.booleans()):
            _corrupt(draw, tiles)
        prefix = range(1, n + 1)
        return draw(st.sampled_from((prefix, tuple(prefix)))), draw(st.booleans()), tuple(tiles), budget
    big = st.sampled_from((2**62, 3 * 2**61, 2**63 - 1, -(2**62)))
    terms = st.lists(st.one_of(st.integers(-6, 12), big, _huge), min_size=2, max_size=6)
    prefix = draw(st.one_of(terms.map(tuple), range_prefixes))
    value = st.one_of(st.integers(-6, 60), _huge)
    rst = _tables(200)
    tiles = []
    for kind in draw(st.lists(st.sampled_from((TILE_RANGE, TILE_LITERAL, TILE_CHUNK, TILE_BLOCKS)), max_size=5)):
        length = draw(st.integers(0, 40))
        a = draw(value)
        b = None
        if kind == TILE_LITERAL:
            a = tuple(draw(st.lists(value, min_size=length, max_size=length)))
        elif kind == TILE_CHUNK:
            b = draw(value)
        elif kind == TILE_BLOCKS:
            b = (rst.r, rst.s, rst.t)
        tiles.append((kind, length, a, b))
    return prefix, draw(st.booleans()), tuple(tiles), draw(st.integers(len(prefix), 120))


@settings(max_examples=300, deadline=None)
@given(check_cases())
@example(((2**62, 2**62, 3, 4), True, ((TILE_RANGE, 9, 2**62, None),), 20))  # overflows at 5
@example(((1, 2), True, ((TILE_RANGE, 3, 1, None), (TILE_CHUNK, 9, 3, 2**64)), 30))
@example(((1, 2), True, ((TILE_RANGE, 3, 2**63 - 2, None),), 3))  # 2**63 at index 3
@example(((1, 1), False, ((TILE_LITERAL, 3, (1, 2, 2**70), None),), 30))  # differs first
@example(((3, 1), True, ((TILE_RANGE, 2, 3, None), (TILE_CHUNK, 9, 2, 0)), 30))  # step 0
@example(((1, 2, 3, 2**64), True, ((TILE_RANGE, 3, 1, None),), 2))  # prefix overflows past the budget
@example((range(2**63 - 3, 2**63 + 3), True, ((TILE_RANGE, 9, 1, None),), 20))  # its 4th term leaves int64
@example((range(2**63, 2**63 + 4), True, ((TILE_RANGE, 9, 1, None),), 20))  # its start is outside int64
@example((range(-(2**63), 1, 2**63), True, ((TILE_RANGE, 9, 1, None),), 20))  # so is its step, not its terms
@example((range(1, 2), True, ((TILE_RANGE, 9, 1, None),), 20))  # too short: declined, ValueError
@example((range(0), False, (), 20))
def test_compiled_and_fallback_q_check_agree(compiled_kernel, case):
    prefix, zero, tiles, budget = case
    compiled = _answer(compiled_kernel.q_check, prefix, zero, tiles, budget)
    # a range is read in place, and answers as its tuple does
    assert compiled == _answer(compiled_kernel.q_check, tuple(prefix), zero, tiles, budget)
    checked = _answer(_fallback.q_check, prefix, zero, tiles, budget, checked=True)
    assert compiled == _declined_where_raised(checked)
    exact = _answer(_fallback.q_check, prefix, zero, tiles, budget, checked=False)
    assert compiled in (exact, None)
    # the backend answers exactly, or raises the reference's error, either way
    with mock.patch.object(_backend, "_kernel", compiled_kernel):
        assert _answer(_backend.q_check, prefix, zero, tiles, budget) == exact


def test_verify_retries_in_exact_after_overflow():
    # no real prediction overflows int64, so the kernel is made to decline
    overflowing = SimpleNamespace(q_check=lambda *args: None)
    for n in (38, 121, 42):
        want = verify_against_bruteforce(n, 3000)
        with mock.patch.object(_backend, "_kernel", overflowing):
            assert verify_against_bruteforce(n, 3000) == want
