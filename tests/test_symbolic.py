"""Symbolic prefix tests: the affine calculus over N-ranges, recorded
validity thresholds, stop reasons, and specialization back to concrete runs."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlab import (
    AffineExpr,
    AffineTerm,
    InitialCondition,
    NConstraint,
    ValidationError,
    evaluate,
    specialize,
    symbolic_extend,
)
from qlab.symbolic import StopReason, SymbolicPrefix
from test_engine import is_int64_view

# affine pairs (a, b) for Q(N+1..N+28) of plain identity conditions, with the
# least N each derivation step actually needs
PREFIX_PAIRS = [
    (0, 3), (1, 1), (1, 2), (0, 5), (1, 3), (0, 6), (0, 7),
    (1, 4), (1, 6), (0, 10), (0, 8), (1, 6), (1, 10), (0, 12),
    (1, 7), (0, 14), (1, 12), (0, 11), (1, 11), (1, 15), (0, 16),
    (0, 13), (0, 17), (0, 15), (1, 14), (0, 20), (0, 20), (2, 8),
]
PREFIX_BOUNDS = [
    2, 2, 2, 3, 3, 3, 4, 4, 5, 6, 6, 6, 7, 8,
    8, 9, 10, 10, 10, 10, 10, 10, 10, 10, 10, 12, 13, 13,
]
# the six sporadic pairs that continue the same prefix through offset 34
# for zero-extended identity conditions, N >= 35
SPORADIC_PAIRS = [(1, 6), (0, 24), (0, 32), (2, 4), (0, 3), (0, 32)]


def test_plain_28_offsets_complete():
    p = symbolic_extend("plain", NConstraint(14), 28)
    assert [(t.a, t.b) for t in p.terms] == PREFIX_PAIRS
    assert [t.min_valid_N for t in p.terms] == PREFIX_BOUNDS
    assert p.stop_reason.kind == "completed"
    assert max(t.min_valid_N for t in p.terms) == 13
    print("✓ 28 affine offsets with exact validity thresholds")


def test_plain_21_up_dies_at_29():
    p = symbolic_extend("plain", NConstraint(21), 40)
    assert p.n_offsets == 28
    assert p.stop_reason.kind == "symbolic_death"
    assert p.stop_reason.index == 29
    assert str(p.stop_reason.expr) == "-N+21"
    print("✓ N >= 21: symbolic death at offset 29 (length N+28)")


def test_plain_14_20_continues_to_33():
    p = symbolic_extend("plain", NConstraint(14, 20), 40)
    assert [(t.a, t.b) for t in p.terms[28:]] == [(0, 27), (0, 24), (0, 12), (2, 19)]
    assert p.stop_reason.kind == "symbolic_death"
    assert p.stop_reason.index == 33
    assert str(p.stop_reason.expr) == "-N+14"
    print("✓ 14 <= N <= 20: four extra offsets, death at 33 (length N+32)")


def test_plain_14_up_stops_unresolved_where_ranges_split():
    # over all of [14, inf) offset 29 cannot be settled: N=21 dies there
    p = symbolic_extend("plain", NConstraint(14), 29)
    assert p.stop_reason.kind == "unresolved"
    assert p.stop_reason.index == 29
    assert str(p.stop_reason.expr) == "-N+21"


def test_zero_extended_35_up():
    p = symbolic_extend("zero_extended", NConstraint(35), 50)
    got = [(t.a, t.b, t.min_valid_N) for t in p.terms[28:34]]
    assert got == [
        (1, 6, 21), (0, 24, 24), (0, 32, 25), (2, 4, 25), (0, 3, 29), (0, 32, 30),
    ]
    assert [(t.a, t.b) for t in p.terms[34:42]] == [
        (3, 6), (0, 5), (2, 4), (0, 3), (0, 5), (5, 10), (0, 5), (2, 4),
    ]
    assert p.stop_reason.kind == "unresolved"
    assert p.stop_reason.index == 43
    assert str(p.stop_reason.expr) == "-N+39"
    print("✓ zero-extended N >= 35: 42 offsets, unresolved at 43")


def test_narrow_range_stalls_early():
    p = symbolic_extend("plain", NConstraint(2, 2), 40)
    assert p.n_offsets == 3
    assert p.stop_reason.kind == "unresolved"
    assert p.stop_reason.index == 4
    assert str(p.stop_reason.expr) == "3"


def test_first_offsets_agree_between_conventions():
    plain = symbolic_extend("plain", NConstraint(14), 28)
    zero = symbolic_extend("zero_extended", NConstraint(35), 28)
    assert [(t.a, t.b) for t in plain.terms] == [(t.a, t.b) for t in zero.terms]


def test_specialize_below_derivation_interval():
    # thresholds record what each step needs, so N=13 works under a prefix
    # derived over [14, inf)
    p = symbolic_extend("plain", NConstraint(14), 28)
    seq = specialize(p, 13)
    brute = evaluate(InitialCondition.identity(13), 13 + 28)
    assert list(seq.terms) == brute.terms.tolist()
    assert seq.status.is_alive
    with pytest.raises(ValidationError, match="offset 27 requires N >= 13"):
        specialize(p, 12)
    print("✓ specialize honors per-term thresholds, not the derivation interval")


def test_specialized_terms_are_an_int64_array():
    for convention, lo, n in (("plain", 14, 13), ("zero_extended", 35, 100)):
        seq = specialize(symbolic_extend(convention, NConstraint(lo), 28), n)
        assert is_int64_view(seq.terms)
        assert list(seq.terms[:n]) == list(range(1, n + 1))


def test_specialize_death_matches_bruteforce():
    p = symbolic_extend("plain", NConstraint(14, 20), 40)
    for n in range(14, 21):
        seq = specialize(p, n)
        brute = evaluate(InitialCondition.identity(n), n + 40)
        assert list(seq.terms) == brute.terms.tolist()
        assert seq.status == brute.status
        assert seq.status.at_index == n + 33


def test_specialize_validation():
    p = symbolic_extend("plain", NConstraint(14, 20), 40)
    with pytest.raises(ValidationError):
        specialize(p, 21)  # above the constraint ceiling
    with pytest.raises(ValidationError):
        specialize(p, 1)


def test_specialize_zero_extended_sample():
    p = symbolic_extend("zero_extended", NConstraint(35), 34)
    assert p.stop_reason.kind == "completed"
    for n in (30, 50, 100, 130):
        seq = specialize(p, n)
        brute = evaluate(InitialCondition.identity(n, zero_extended=True), n + 34)
        assert list(seq.terms) == brute.terms.tolist()


def test_constraint_and_expr_rendering():
    assert str(NConstraint(14)) == "N >= 14"
    assert str(NConstraint(14, 20)) == "14 <= N <= 20"
    assert 14 in NConstraint(14, 20)
    assert 21 not in NConstraint(14, 20)
    assert 10**9 in NConstraint(14)
    assert str(AffineExpr(0, 3)) == "3"
    assert str(AffineExpr(1, 0)) == "N"
    assert str(AffineExpr(-1, 21)) == "-N+21"
    assert str(AffineExpr(2, 4)) == "2N+4"
    assert str(AffineExpr(1, -2)) == "N-2"
    with pytest.raises(ValidationError):
        NConstraint(20, 14)


def test_symbolic_extend_validation():
    with pytest.raises(ValidationError):
        symbolic_extend("plain", NConstraint(1), 10)
    with pytest.raises(ValidationError):
        symbolic_extend("plain", NConstraint(14), 0)
    with pytest.raises(ValidationError):
        symbolic_extend("signed", NConstraint(14), 10)


def test_to_text_and_json():
    p = symbolic_extend("plain", NConstraint(21), 30)
    text = p.to_text()
    assert "Q(N+1) = 3 for N >= 2" in text
    assert "Q(N+28) = 2N+8 for N >= 13" in text
    assert "symbolic_death at offset 29" in text
    data = p.to_json()
    assert data["convention"] == "plain"
    assert data["constraint"] == {"lo": 21, "hi": None}
    assert data["terms"][0] == {"offset": 1, "a": 0, "b": 3, "min_valid_N": 2}
    assert data["stop_reason"] == {"kind": "symbolic_death", "index": 29, "expr": "-N+21"}


@given(
    st.sampled_from(["plain", "zero_extended"]),
    st.integers(min_value=14, max_value=80),
    st.integers(min_value=1, max_value=28),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_specialization_always_matches_bruteforce(convention, lo, max_offsets, bump):
    """Whatever the calculus derives must be literally true of the engine."""
    prefix = symbolic_extend(convention, NConstraint(lo), max_offsets)
    n = lo + bump
    seq = specialize(prefix, n)
    brute = evaluate(
        InitialCondition.identity(n, convention == "zero_extended"), n + prefix.n_offsets
    )
    assert list(seq.terms) == brute.terms.tolist()
    if not seq.status.is_alive:
        assert seq.status == brute.status


def _ceil_div(p: int, q: int) -> int:
    return -((-p) // q)


def _resolve_four_tests(alpha, beta, k, terms, zero, lo, hi, acc):
    """Settle the reference alpha*N + beta at offset k as symbolic_extend
    once did, with one sign test per claim, each branching on the sign of
    its own slope: ("value", a, b, threshold), ("death",) or ("unresolved",).
    Every claim must hold for all N in [max(lo, acc), hi]."""
    ell = max(lo, acc)
    if alpha == 1 and 1 <= beta < k:
        t = terms[beta - 1]
        return ("value", t.a, t.b, t.min_valid_N)

    # reference provably <= 0
    claim = False
    threshold = 2
    if alpha == 0:
        claim = beta <= 0
    elif alpha < 0:
        threshold = max(2, _ceil_div(beta, -alpha))
        claim = threshold <= ell
    else:
        claim = hi is not None and alpha * hi + beta <= 0
    if claim:
        return ("value", 0, 0, threshold) if zero else ("death",)

    # reference provably at or past the current position N + k
    fa, fb = alpha - 1, beta - k
    if fa == 0:
        fwd = fb >= 0
    elif fa > 0:
        fwd = fa * ell + fb >= 0
    else:
        fwd = hi is not None and fa * hi + fb >= 0
    if fwd:
        return ("death",) if not zero else ("unresolved",)

    # reference provably within the identity range 1..N
    ok = True
    bound = 2
    if alpha > 0:
        bound = max(bound, _ceil_div(1 - beta, alpha))
    elif alpha == 0:
        ok = beta >= 1
    else:
        ok = hi is not None and alpha * hi + beta >= 1
    if ok:
        if alpha < 1:
            bound = max(bound, _ceil_div(beta, 1 - alpha))
        elif alpha == 1:
            ok = beta <= 0
        else:
            ok = hi is not None and (alpha - 1) * hi + beta <= 0
    if ok and bound <= ell:
        return ("value", alpha, beta, bound)
    return ("unresolved",)


def _extend_reference(convention, constraint, max_offsets):
    """symbolic_extend as it was before it ran predictor._run: its own loop
    over the offsets, settling each reference with _resolve_four_tests."""
    zero = convention == "zero_extended"
    lo, hi = constraint.lo, constraint.hi
    terms = []
    acc = 2
    stop = StopReason("completed")

    for k in range(1, max_offsets + 1):
        facts = []
        for back in (1, 2):
            j = k - back
            if j >= 1:
                prev = terms[j - 1]
                va, vb, vbound = prev.a, prev.b, prev.min_valid_N
            else:
                # Q(N+j) for j <= 0 is the identity value N+j, needing N+j >= 1
                va, vb, vbound = 1, j, max(2, 1 - j)
            ea, eb = 1 - va, k - vb
            res = _resolve_four_tests(ea, eb, k, terms, zero, lo, hi, acc)
            if res[0] == "value":
                facts.append((res[1], res[2], max(vbound, res[3])))
            else:
                kind = "symbolic_death" if res[0] == "death" else "unresolved"
                stop = StopReason(kind, k, AffineExpr(ea, eb))
                break
        else:
            (a1, b1, t1), (a2, b2, t2) = facts
            acc = max(acc, t1, t2)
            terms.append(AffineTerm(a1 + a2, b1 + b2, acc))
            continue
        break

    return SymbolicPrefix(convention, constraint, tuple(terms), stop)


@pytest.mark.parametrize("convention", ["plain", "zero_extended"])
def test_derivations_match_four_test_reference(convention):
    his = (None, 2, 3, 5, 8, 13, 14, 20, 21, 29, 30, 34, 35, 40, 50, 79, 118, 200, 500, 10**6)
    for lo in (*range(2, 130), 200, 500, 1000, 10**6):
        for hi in his:
            if hi is not None and hi < lo:
                continue
            constraint = NConstraint(lo, hi)
            got = symbolic_extend(convention, constraint, 80)
            assert got == _extend_reference(convention, constraint, 80), (convention, lo, hi)


@given(
    st.sampled_from(["plain", "zero_extended"]),
    st.integers(min_value=2, max_value=10**5),
    st.none() | st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=150),
)
@settings(max_examples=500, deadline=None)
def test_random_derivations_match_four_test_reference(convention, lo, span, max_offsets):
    constraint = NConstraint(lo, None if span is None else lo + span)
    got = symbolic_extend(convention, constraint, max_offsets)
    assert got == _extend_reference(convention, constraint, max_offsets)


def test_affine_term_is_an_affine_expr():
    term = AffineTerm(2, -3, 7)
    assert isinstance(term, AffineExpr)
    assert (term.value(10), str(term), term.min_valid_N) == (17, "2N-3", 7)
    assert term != AffineExpr(2, -3)
