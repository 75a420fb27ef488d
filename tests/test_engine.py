"""Engine tests: generation under both conventions, integer modes, the
initial-condition grammar, and the output writers."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import re
import sys
import tracemalloc
from array import array
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlab import (
    ArithmeticOverflowError,
    GeneratedSequence,
    InitialCondition,
    NConstraint,
    PredictionReport,
    SequenceStatus,
    ValidationError,
    behavior_tree,
    evaluate,
    format_ic,
    parse_ic,
    resolve_int_mode,
    rst_compute,
    symbolic_extend,
    verify_against_bruteforce,
    write_bfile,
    write_csv,
)
from qlab import _backend, _fallback
from qlab.cli import _emit_sequence, _tree_json
from qlab._fallback import (
    INT64_MAX,
    INT64_MIN,
    STATUS_OVERFLOW,
    TILE_BLOCKS,
    TILE_CHUNK,
    TILE_LITERAL,
)
from qlab.engine import ROWS_PER_CALL, _check, write_json, write_table


def forms(point, rows, length: int | None = None) -> tuple:
    """The literal tile of the int64 forms ``rows``, each (c, d, f), read at
    ``point`` = (x, y): all of them unless ``length`` says otherwise."""
    columns = tuple(array("q", [row[i] for row in rows]) for i in range(3))
    return TILE_LITERAL, len(rows) if length is None else length, point, columns


def constants(values, length: int | None = None) -> tuple:
    """The literal tile of the constants ``values``, the forms (0, 0, v)
    read at (0, 0).  Its columns are int64 arrays, which the kernel reads,
    when every value fits int64, and tuples, which it declines, otherwise."""
    try:
        return forms((0, 0), [(0, 0, v) for v in values], length)
    except (OverflowError, TypeError):
        zeros = (0,) * len(values)
        return TILE_LITERAL, len(values) if length is None else length, (0, 0), (zeros, zeros, tuple(values))


def is_int64_view(values) -> bool:
    """Whether ``values`` is what qlab returns for terms and tables that fit
    int64, on either backend: a read-only memoryview of format "q"."""
    return type(values) is memoryview and values.readonly and values.format == "q"


# Q(1)=Q(2)=1: hand-unrolled prefix of the classic sequence
CLASSIC_17 = [1, 1, 2, 3, 3, 4, 5, 5, 6, 6, 6, 8, 8, 8, 10, 9, 10]


def test_classic_two_term_prefix():
    seq = evaluate(InitialCondition((1, 1)), 17)
    assert [seq.term(i) for i in range(1, 18)] == CLASSIC_17
    assert seq.status.is_alive
    assert len(seq) == 17
    print("✓ classic prefix 1..17 exact")


def test_plain_death():
    # Q(3) reads Q(3-0)=Q(3), outside 1..2
    seq = evaluate(InitialCondition((2, 0)), 10)
    assert seq.status.kind == "died" and seq.status.at_index == 3
    assert len(seq) == 2


def test_zero_extended_ending():
    # Q(3) = Q(3-3) + Q(3-(-5)) = Q(0) + Q(8): the forward read ends it
    seq = evaluate(InitialCondition((-5, 3), zero_extended=True), 10)
    assert seq.status.kind == "ended" and seq.status.at_index == 3
    assert len(seq) == 2


def test_negative_reference_reads_zero_when_extended():
    # same condition, but plain: the non-positive reference kills it instead
    seq = evaluate(InitialCondition((-5, 3)), 10)
    assert seq.status.kind == "died" and seq.status.at_index == 3


def test_fibonacci_interleave():
    seq = evaluate(parse_ic("0;3,6,5,3,6,8"), 60)
    assert seq.status.is_alive
    # indices 3k carry Fibonacci values, the others stay constant
    assert seq.term(9) == 13 and seq.term(12) == 21
    for k in range(2, 20):
        assert seq.term(3 * k + 1) == 3
        assert seq.term(3 * k + 2) == 6
    for k in range(3, 19):
        assert seq.term(3 * (k + 1)) == seq.term(3 * k) + seq.term(3 * (k - 1))
    print("✓ <0-bar;3,6,5,3,6,8> interleaves Fibonacci with constants")


def test_identity_conditions_known_open_cases_stay_alive():
    for n in (4, 5, 6):
        seq = evaluate(InitialCondition.identity(n), 5000)
        assert seq.status.is_alive, f"identity({n}) unexpectedly stopped"


def test_evaluate_validation():
    with pytest.raises(ValidationError):
        evaluate(InitialCondition((1,)), 10)
    with pytest.raises(ValidationError):
        evaluate(InitialCondition((1, 1)), 1)
    with pytest.raises(ValidationError):
        evaluate(InitialCondition((1, 1)), 10, mode="decimal")
    with pytest.raises(ValidationError):
        InitialCondition(())


def test_initial_condition_refuses_non_integer_terms():
    # each term is read through __index__: nothing is truncated or parsed
    np = pytest.importorskip("numpy")
    for bad, terms in (("1.9", (1.9, 2.7)), ("'3'", ("3", True)), ("True", (3, True)),
                       ("np.float64(2.0)", (1, np.float64(2.0)))):
        with pytest.raises(ValidationError, match=rf"^initial-condition term {re.escape(bad)} is"):
            InitialCondition(terms)
    ic = InitialCondition((np.int64(3), np.uint8(4), 5), zero_extended=True)
    assert ic.terms == (3, 4, 5) and {type(term) for term in ic.terms} == {int}
    assert str(ic) == "0;3..5"
    assert list(evaluate(ic, 6).terms) == list(evaluate(parse_ic("0;3..5"), 6).terms)


def test_resolve_int_mode():
    assert resolve_int_mode() == "fast64"
    assert resolve_int_mode("exact") == "exact"
    assert resolve_int_mode("fast64") == "fast64"
    with pytest.raises(ValidationError):
        resolve_int_mode("nonsense")


def test_the_environment_sets_no_integer_mode(monkeypatch):
    # the mode is --mode or evaluate(mode=...), and fast64 otherwise: no
    # variable of the environment turns a run past int64 exact
    monkeypatch.setenv("QLAB_INT_MODE", "exact")
    assert resolve_int_mode() == "fast64"
    with pytest.raises(ArithmeticOverflowError) as exc:
        evaluate(InitialCondition((2**62, 2**62, 3, 4), zero_extended=True), 10)
    assert exc.value.index == 5


BIG = InitialCondition((2**62, 2**62, 3, 4), zero_extended=True)


def test_overflow_in_fast64():
    # Q(5) = Q(1) + Q(2) = 2^63, one past int64
    with pytest.raises(ArithmeticOverflowError) as exc:
        evaluate(BIG, 10, mode="fast64")
    assert exc.value.index == 5


def test_exact_mode_crosses_int64():
    seq = evaluate(BIG, 10, mode="exact")
    assert seq.term(5) == 2**63
    assert seq.term(6) == 2**62
    assert seq.status.kind == "ended"
    print(f"✓ exact mode reaches {seq.term(5)} without overflow")


def test_exact_mode_retries_after_a_kernel_overflow(compiled_kernel):
    with mock.patch.object(_backend, "_kernel", compiled_kernel):
        seq = evaluate(BIG, 10, mode="exact")
    assert seq.term(5) == 2**63


# terms that overflow int64 within a few steps, or already lie outside it
_huge_terms = st.sampled_from((2**62, 2**62 + 1, 3 * 2**61, 2**63 - 1, -(2**62), 2**64, -(2**63) - 1))
overflowing_ics = st.tuples(
    st.lists(st.one_of(st.integers(min_value=-2, max_value=9), _huge_terms), min_size=2, max_size=6),
    st.booleans(),
)


def _run_or_overflow(ic, max_terms, mode):
    try:
        seq = evaluate(ic, max_terms, mode=mode)
    except ArithmeticOverflowError as exc:
        return exc.index
    return seq.terms, seq.status


@given(overflowing_ics, st.integers(min_value=6, max_value=200))
@example(([2**62, 2**62, 3, 4], True), 120)  # overflows at 5
@example(([9, 3 * 2**61, 2, 7], True), 200)  # overflows at 56, then lives on
@example(([1, 2**64, 3], True), 50)  # an initial term beyond int64
@settings(max_examples=200, deadline=None)
def test_exact_mode_agrees_across_kernels(compiled_kernel, params, max_terms):
    # exact mode runs the int64 kernel first when it is built, and Python
    # alone when it is not; fast64 names the same overflow on both
    terms, zero = params
    ic = InitialCondition(tuple(terms), zero)
    for mode in ("exact", "fast64"):
        runs = []
        for kernel in (compiled_kernel, None):
            with mock.patch.object(_backend, "_kernel", kernel):
                runs.append(_run_or_overflow(ic, max_terms, mode))
        assert runs[0] == runs[1], mode


def test_exact_mode_resumes_from_the_overflow(compiled_kernel):
    # Q(56) is the first term past int64, so Python goes on from Q(1..55);
    # Q(2) is a prefix term past int64, so Python starts from the prefix
    for terms, resumed_from in (((9, 3 * 2**61, 2, 7), 55), ((1, 2**64, 3, 4), 4)):
        ic = InitialCondition(terms, zero_extended=True)
        with mock.patch.object(_backend, "_kernel", compiled_kernel), \
                mock.patch.object(_fallback, "q_generate", wraps=_fallback.q_generate) as spy:
            seq = evaluate(ic, 200, mode="exact")
        (resumed,) = spy.call_args_list
        assert resumed.kwargs == {"checked": False}
        assert len(resumed.args[0]) == resumed_from
        assert seq.terms == _fallback.q_generate(terms, True, 200, checked=False)[0]


def test_oversized_initial_term_rejected_up_front():
    with pytest.raises(ArithmeticOverflowError) as exc:
        evaluate(InitialCondition((1, 2**70)), 10, mode="fast64")
    assert exc.value.index == 2
    # below the range, with a second offender after it: the first one is named
    with pytest.raises(ArithmeticOverflowError) as exc:
        evaluate(InitialCondition((1, 2, -(2**63) - 1, 4, 2**64)), 10, mode="fast64")
    assert exc.value.index == 3


@pytest.mark.parametrize("backend", ["compiled", "python"])
@pytest.mark.parametrize("ic, max_terms, mode, want", [
    (InitialCondition((2, 0)), 10, "fast64", SequenceStatus.died(3)),
    (InitialCondition((1, 2, 1)), 40, "fast64", SequenceStatus.died(18)),
    (InitialCondition((1, 0), True), 10, "fast64", SequenceStatus.ended(3)),
    (InitialCondition.identity(37, True), 5000, "fast64", SequenceStatus.ended(278)),
    (InitialCondition((1, 2**70)), 10, "fast64", 2),
    (InitialCondition((4, 3 * 2**61, 4, 8), True), 200, "fast64", 10),
    (InitialCondition((9, 3 * 2**61, 2, 7), True), 200, "fast64", 56),
    (InitialCondition((4, 3 * 2**61, 4, 8), True), 200, "exact", SequenceStatus.ended(20)),
    (InitialCondition((1, 2**64, 3, 4)), 50, "exact", SequenceStatus.died(6)),
    (InitialCondition((1, 2, 3, 4), True), 4, "fast64", SequenceStatus.alive()),
    (InitialCondition.identity(38, True), 20, "fast64", SequenceStatus.alive()),
], ids=["died-at-once", "died", "ended-at-once", "ended", "prefix-past-int64", "computed-past-int64",
        "computed-past-int64-later", "exact-resumed-then-ended", "exact-from-the-prefix-then-died",
        "prefix-fills-budget", "prefix-past-budget"])
def test_a_run_stops_one_past_its_last_term(request, backend, ic, max_terms, mode, want):
    """The kernels return a run's terms and status only: every way a run
    stops is at the index one past its last term, a SequenceStatus or the
    index an ArithmeticOverflowError names (an int in want), on each
    backend.  A run resumed in Python past int64 stops by its own length."""
    kernel = request.getfixturevalue("compiled_kernel") if backend == "compiled" else None
    with mock.patch.object(_backend, "_kernel", kernel):
        if max_terms < len(ic):
            # a budget short of the prefix, which evaluate refuses: only the
            # check's run has one, and it keeps the prefix whole
            report = _check(ic.terms, (), max_terms)
            assert (report.actual_status, report.matched_through) == (want, len(ic))
        elif isinstance(want, int):
            with pytest.raises(ArithmeticOverflowError) as exc:
                evaluate(ic, max_terms, mode=mode)
            assert exc.value.index == want
            terms, code = _backend.q_generate(ic.terms, ic.zero_extended, max_terms, False)
            assert (code, len(terms)) == (STATUS_OVERFLOW, want - 1)
        else:
            seq = evaluate(ic, max_terms, mode=mode)
            assert seq.status == want
            assert len(seq) == (max_terms if want.is_alive else want.at_index - 1)


small_ics = st.tuples(
    st.lists(st.integers(min_value=-6, max_value=12), min_size=2, max_size=6),
    st.booleans(),
)


@given(small_ics)
@settings(max_examples=150, deadline=None)
def test_modes_agree_without_overflow(params):
    terms, zero = params
    ic = InitialCondition(tuple(terms), zero)
    fast = evaluate(ic, 120, mode="fast64")
    exact = evaluate(ic, 120, mode="exact")
    assert fast.terms == exact.terms
    assert fast.status == exact.status


@given(st.one_of(small_ics, overflowing_ics), st.integers(min_value=2, max_value=120))
@example(([2, 0], False), 10**13)
@example(([2, 0], False), 10**20)  # beyond any index a list can hold
@example(([2**62, 2**62, 3, 4], True), 120)  # overflows at 5
@example(([1, 2, 2**64, 4, -(2**64)], False), 2)  # overflows at 3, past max_terms
@example(([1], False), 5)  # too short: both raise the same ValueError
@example(([2**64], True), 5)
@settings(max_examples=300, deadline=None)
def test_compiled_and_fallback_kernels_agree(compiled_kernel, params, max_terms):
    terms, zero = params
    prefix = tuple(terms)
    with mock.patch.object(_backend, "_kernel", compiled_kernel):
        compiled = _outcome(_backend.q_generate, prefix, zero, max_terms, exact=False)
    assert compiled == _outcome(_fallback.q_generate, prefix, zero, max_terms, checked=True)


# A range prefix, which the kernel reads in place: either step sign, a start
# near either end of int64 or past it, and steps that leave int64 at once,
# after a few terms or never; ranges of fewer than two terms are drawn too.
range_prefixes = st.builds(
    lambda start, step, length: range(start, start + step * length, step),
    st.one_of(
        st.integers(min_value=-6, max_value=12),
        st.sampled_from((INT64_MIN, INT64_MAX)).flatmap(
            lambda edge: st.integers(min_value=edge - 6, max_value=edge + 6)
        ),
    ),
    st.one_of(
        st.integers(min_value=-3, max_value=3).filter(bool),
        st.sampled_from((2**62, -(2**62), INT64_MAX, INT64_MIN, 2**63, -(2**63) - 1, 2**64)),
    ),
    st.integers(min_value=0, max_value=8),
)


@given(range_prefixes, st.booleans(), st.integers(min_value=2, max_value=120))
@example(range(INT64_MAX - 2, INT64_MAX + 4), True, 20)  # the 4th term leaves int64
@example(range(INT64_MIN + 1, INT64_MIN - 4, -1), False, 20)  # the 3rd term, downwards
@example(range(INT64_MAX + 1, INT64_MAX + 5), True, 20)  # the start lies outside int64
@example(range(INT64_MIN, 1, 2**63), True, 20)  # a step outside int64, both terms in it
@example(range(1, 2), True, 20)  # too short: declined, and the tuple's ValueError
@example(range(0), False, 20)
@settings(max_examples=300, deadline=None)
def test_compiled_q_generate_reads_a_range_as_its_tuple(compiled_kernel, prefix, zero, max_terms):
    compiled = _outcome(compiled_kernel.q_generate, prefix, zero, max_terms)
    assert compiled == _outcome(compiled_kernel.q_generate, tuple(prefix), zero, max_terms)
    checked = _outcome(_fallback.q_generate, prefix, zero, max_terms, checked=True)
    assert compiled == _declined_where_raised(checked)
    # the backend gives the reference's answer or error; an exact run past
    # int64 goes on in Python from the range's terms
    with mock.patch.object(_backend, "_kernel", compiled_kernel):
        assert _outcome(_backend.q_generate, prefix, zero, max_terms, exact=False) == checked
        exact = _outcome(_backend.q_generate, prefix, zero, max_terms, exact=True)
    assert exact == _outcome(_fallback.q_generate, prefix, zero, max_terms, checked=False)


def test_a_range_too_long_for_memory_is_a_memory_error(compiled_kernel):
    # its length is a Python size, but no buffer of that many terms can be
    # allocated, as no tuple of them can
    prefix = range(sys.maxsize)
    with pytest.raises(MemoryError):
        tuple(prefix)
    with pytest.raises(MemoryError):
        compiled_kernel.q_generate(prefix, True, 20)
    with pytest.raises(MemoryError):
        compiled_kernel.q_check(prefix, (), 20)


def _outcome(f, *args, **kwargs):
    """f's result with its terms (its first item) as a list, None when f is
    the kernel and declines the call, or the type and message of what f
    raised: the backend's memoryview holds the reference's values."""
    try:
        result = f(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    if result is None:
        return None
    terms, *rest = result
    return (terms.tolist() if isinstance(terms, memoryview) else terms, *rest)


def _declined_where_raised(reference):
    """What the compiled kernel gives where the reference's _outcome is
    ``reference``: the same answer, and None, its decline, where the
    reference raises or declines."""
    return None if reference is None or isinstance(reference[0], type) else reference


# arrays, as Hypothesis cannot hash a memoryview of format "q" to label a sample
_RST_TABLES = tuple(array("q", table) for table in _fallback.rst_generate(50)[:3])


# Each call is made twice, so generators are built anew by each factory.
@pytest.mark.parametrize("name, args", [
    ("q_check", lambda: ((1, 2), ((TILE_CHUNK, -1, 5, 3),), 20)),
    ("q_check", lambda: ((1, 2), ((9, 3, 1, None),), 20)),
    ("q_check", lambda: ((1, 2), (constants((1, 2), 3),), 20)),
    ("q_check", lambda: ((1, 2), ((TILE_LITERAL, 3, (1, 2), None),), 20)),
    ("q_check", lambda: ((1, 2), ([TILE_CHUNK, 3, 1, 2],), 20)),
    ("q_check", lambda: ((1, 2), ((TILE_BLOCKS, 5, 12, _RST_TABLES[:2]),), 20)),
    ("q_check", lambda: ((1, 2), ((TILE_CHUNK, 5, 2.5, 3),), 20)),
    # Q(3) = 3 follows the prefix (1, 2): the literal's 7 differs at once
    ("q_check", lambda: ((1, 2), (constants((7,)), constants((1.5,))), 20)),
    ("q_check", lambda: ((1, 2), (constants((7,)), (TILE_LITERAL, 1, (0, 2.5), constants((1,))[3])),
                         20)),
    ("q_check", lambda: ((1, 2), (constants((3,)), (TILE_CHUNK, 1, 4)), 3)),
    ("q_check", lambda: ((1, 2), iter((constants((3,)),)), 20)),
    # past the budget, each tile is read all the same
    ("q_check", lambda: ((0, 0), ((TILE_LITERAL, 0, (), None),), 0)),
    ("q_check", lambda: ((0, 0), ((TILE_CHUNK, 0, "x", None),), 0)),
    ("q_check", lambda: ((0, 0), ((TILE_CHUNK, -1, 5, 3),), 0)),
    ("q_check", lambda: ((0, 0), ((TILE_BLOCKS, 5, 2.5, _RST_TABLES),), 0)),
    ("q_generate", lambda: (iter((1, 1)), False, 10)),
    ("q_generate", lambda: (5, False, 10)),
    ("q_generate", lambda: ((1,), False, 10)),
    ("q_generate", lambda: ((1, 1.5), False, 10)),
    ("q_generate", lambda: ((1, 1), False, 10.0)),
    ("rst_generate", lambda: (1,)),
], ids=["negative-length", "kind-9", "short-literal", "literal-of-values", "list-tile", "two-tables",
        "float-chunk", "float-after-mismatch", "float-parameter-after-mismatch",
        "three-item-tile-past-budget", "tile-generator", "pointless-literal-past-budget",
        "str-chunk-past-budget", "negative-length-past-budget", "float-lam-past-budget", "prefix-generator",
        "int-prefix", "one-term-prefix", "float-term", "float-budget", "rst-n-max-1"])
def test_backends_answer_or_fail_alike_on_unreadable_calls(compiled_kernel, name, args):
    """The kernel declines a call it cannot read, wherever the run and the
    prediction part, and _backend answers or raises what the Python
    reference does."""
    kernel_args = args()[:3] if name == "q_generate" else args()
    assert getattr(compiled_kernel, name)(*kernel_args) is None
    extra = (False,) if name == "q_generate" else ()  # exact
    outcomes = []
    for kernel in (compiled_kernel, None):
        with mock.patch.object(_backend, "_kernel", kernel):
            outcomes.append(_outcome(getattr(_backend, name), *args(), *extra))
    assert outcomes[0] == outcomes[1]


class _Interrupting:
    """An argument whose __index__ and __bool__ raise ``exc``, as a Ctrl-C
    or sys.exit() landing inside Python code the kernel calls would."""

    def __init__(self, exc):
        self.exc = exc

    def __index__(self):
        raise self.exc

    __bool__ = __index__


@pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
@pytest.mark.parametrize("name, args", [
    ("q_generate", lambda x: ((1, 1), False, x)),
    ("q_generate", lambda x: ((1, 1), x, 10)),
    ("q_check", lambda x: ((1, 1), ((TILE_CHUNK, x, 1, 2),), 10)),
    ("rst_generate", lambda x: (x,)),
], ids=["max-terms", "zero-extended", "tile-length", "n-max"])
def test_kernel_passes_on_what_is_no_exception(compiled_kernel, name, args, exc):
    """The kernel declines an Exception but never swallows an interrupt:
    _backend does not rerun the call in Python."""
    with pytest.raises(exc):
        getattr(compiled_kernel, name)(*args(_Interrupting(exc)))
    with mock.patch.object(_backend, "_fallback", None), \
            mock.patch.object(_backend, "_kernel", compiled_kernel), pytest.raises(exc):
        getattr(_backend, name)(*args(_Interrupting(exc)), *((False,) if name == "q_generate" else ()))


# a value of any type a call might carry, a few of them outside int64
_any_value = st.integers(-5, 40) | st.sampled_from(
    (INT64_MAX + 1, INT64_MIN - 1, None, 2.5, "x", (), [1, 2], True))
# the tables whole, two of them, r as a list, r too short
_any_tables = st.sampled_from((
    _RST_TABLES, _RST_TABLES[:2], (list(_RST_TABLES[0]), *_RST_TABLES[1:]),
    (_RST_TABLES[0][:3], *_RST_TABLES[1:]),
))
_any_tile = st.one_of(
    st.tuples(st.integers(-1, 4) | _any_value, st.integers(-3, 30) | _any_value,
              _any_value | st.lists(_any_value, max_size=8).map(tuple), _any_value | _any_tables),
    # a literal's (x, y) of any values, read on the tables as its columns
    st.tuples(st.just(TILE_LITERAL), st.integers(-1, 60), st.tuples(_any_value, _any_value), _any_tables),
    st.lists(_any_value, max_size=5).map(tuple),
    _any_value,
)


@given(st.one_of(st.lists(_any_value, max_size=6).map(tuple), range_prefixes, _any_value),
       st.booleans(), st.lists(_any_tile, max_size=4).map(tuple) | _any_value,
       st.integers(-2, 60) | st.sampled_from((None, 2.5)))
# a literal after a chunk that differs at once, clipped by the budget to
# the rows its tables hold where it starts: the walk that clipped it where
# the built values stopped refused it with a ValueError
@example((2, 0), True, ((TILE_CHUNK, 10, 1, 2), (TILE_LITERAL, 10, (0, 0), (array("q", [0]) * 5,) * 3)), 12)
@settings(max_examples=500, deadline=None)
def test_backends_agree_on_calls_of_any_type(compiled_kernel, prefix, zero, tiles, budget):
    """Well-formed or not: the same answer, or the same error, through
    _backend with the kernel and without it."""
    outcomes = []
    for kernel in (compiled_kernel, None):
        with mock.patch.object(_backend, "_kernel", kernel):
            outcomes.append((_outcome(_backend.q_generate, prefix, zero, budget, exact=False),
                             _outcome(_backend.q_check, prefix, tiles, budget)))
    assert outcomes[0] == outcomes[1]


def _reference_containers(checked: bool):
    """What the Python reference itself returns: q_generate's terms of
    <1,1> and <2,0>, the R/S/T tables, a prefix and the terms tiles of every
    kind predict after it, all within int64; then q_generate's terms of a
    run whose 56th term leaves int64, and a prediction with a value past
    it."""
    fits = [_fallback.q_generate(ic, False, budget, checked)[0]
            for ic, budget in (((1, 1), 40), ((2, 0), 10))]
    tables = _fallback.rst_generate(300)[:3]
    tiles = (constants((7, 8)), (TILE_CHUNK, 12, 3, 4), (TILE_BLOCKS, 10, 12, tables))
    fits += [*tables, _fallback.materialise(range(1, 6), tiles, 29)]
    past = [_fallback.q_generate((9, 3 * 2**61, 2, 7), True, 200, checked),
            _fallback.materialise((1,), (constants((INT64_MAX + 1,)),), 2)]
    return fits, past


@pytest.mark.parametrize("backend", ["compiled", "python", "reference"])
@pytest.mark.parametrize("mode", ["fast64", "exact"])
def test_terms_are_an_int64_array(request, backend, mode):
    # the values fit int64, so both backends, and the Python reference they
    # share, hand back a read-only int64 memoryview; only an exact run past
    # int64 is a list
    if backend == "reference":
        fits, (run, predicted) = _reference_containers(checked=mode == "fast64")
        assert fits[0].tolist()[:17] == CLASSIC_17
        assert fits[1].tolist() == [2, 0]
        assert len(fits[-1]) == 29
        if mode == "exact":
            assert type(run[0]) is list and len(run[0]) == 200 and max(run[0]) > INT64_MAX
        else:
            assert is_int64_view(run[0]) and run[1] == STATUS_OVERFLOW
            assert len(run[0]) == 55
        assert type(predicted) is list and predicted == [1, INT64_MAX + 1]
    else:
        kernel = request.getfixturevalue("compiled_kernel") if backend == "compiled" else None
        with mock.patch.object(_backend, "_kernel", kernel):
            seq = evaluate(InitialCondition((1, 1)), 40, mode=mode)
            died = evaluate(InitialCondition((2, 0)), 10, mode=mode)
        fits = [seq.terms, died.terms]
        assert seq.terms.tolist()[:17] == CLASSIC_17
        assert died.terms.tolist() == [2, 0]
    for terms in fits:
        assert is_int64_view(terms)


@pytest.mark.parametrize("ic, budget, length", [
    ("0;1..2708", 250_000, 250_000),
    ("0;1..2098", 250_000, 250_000),
    ("0;1..39", 10**12, 86),  # ends at 87, far short of its budget
])
def test_terms_fill_exactly_their_block(compiled_kernel, ic, budget, length):
    # the kernel's block starts at the prefix length + 1024 rows and
    # doubles, but never past the budget, and is cut to the run: its bytes
    # are the terms' own, however far past the run a doubling would reach
    # (477,696 and 399,616 rows for the first two)
    ic = parse_ic(ic)
    terms, _ = compiled_kernel.q_generate(ic.terms, ic.zero_extended, budget)
    assert is_int64_view(terms) and len(terms) == length
    assert terms.nbytes == len(terms.obj) == 8 * length


@pytest.mark.parametrize("backend", ["compiled", "python"])
def test_exact_run_past_int64_is_a_list_of_int(request, backend):
    # a computed term (index 5) and a prefix term past int64
    kernel = request.getfixturevalue("compiled_kernel") if backend == "compiled" else None
    with mock.patch.object(_backend, "_kernel", kernel):
        for ic in (BIG, InitialCondition((1, 2**64, 3, 4), zero_extended=True)):
            seq = evaluate(ic, 40, mode="exact")
            assert type(seq.terms) is list
            assert all(type(v) is int for v in seq.terms)
            assert max(seq.terms) > INT64_MAX


@pytest.mark.parametrize("checked", [True, False])
def test_reference_reads_a_view_prefix_as_its_values(checked):
    # an int64 view, as the kernel's terms are where an exact run goes on
    # in Python, is copied whole; a strided view, or one of another format,
    # is read an int at a time: the run of the same values either way
    values = [1, 2, 3, 4, 5, 6, 7, 8]
    want = _outcome(_fallback.q_generate, values, True, 40, checked)
    for prefix in (memoryview(array("q", values)).toreadonly(), memoryview(array("i", values)),
                   memoryview(array("q", [v for v in values for _ in "ab"]))[::2]):
        assert _outcome(_fallback.q_generate, prefix, True, 40, checked) == want, prefix.format


def test_python_backend_peaks_near_its_arrays():
    # the reference fills its arrays itself and returns views of them: no
    # list of ints, about five times their bytes, lives beside them at any
    # point of the run
    runs = (lambda: _backend.rst_generate(10**5)[:3],
            lambda: _backend.q_generate((1, 1), False, 200_000, False)[:1])
    for run in runs:
        with mock.patch.object(_backend, "_kernel", None):
            tracemalloc.start()
            try:
                views = run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert all(map(is_int64_view, views))
        assert peak <= 2 * sum(view.nbytes for view in views)


@given(small_ics, st.integers(min_value=6, max_value=60), st.integers(min_value=0, max_value=60))
@settings(max_examples=100, deadline=None)
def test_prefix_stability(params, m, extra):
    terms, zero = params
    ic = InitialCondition(tuple(terms), zero)
    short = evaluate(ic, m, mode="exact")
    long = evaluate(ic, m + extra, mode="exact")
    assert short.terms == long.terms[: len(short)]
    if not short.status.is_alive:
        assert short.status == long.status


def test_parse_ic_grammar():
    assert parse_ic("1,1").terms == (1, 1)
    assert not parse_ic("1,1").zero_extended
    ic = parse_ic("0;1..4,9")
    assert ic.terms == (1, 2, 3, 4, 9)
    assert ic.zero_extended
    assert parse_ic(" 2 , 0 ").terms == (2, 0)
    assert parse_ic("-5,3").terms == (-5, 3)
    assert parse_ic("0;1..200").terms == tuple(range(1, 201))


@pytest.mark.parametrize("bad", ["", "0;", "1,", ",1", "a", "1..2..3", "1.5", "5..3", "0;x",
                                 # runs of sys.maxsize + 1 terms
                                 f"1..{sys.maxsize + 1}", f"0;2,-5..{sys.maxsize - 5}"])
def test_parse_ic_rejects(bad):
    with pytest.raises(ValidationError):
        parse_ic(bad)


def test_format_ic_compresses_runs():
    assert format_ic(InitialCondition.identity(50, zero_extended=True)) == "0;1..50"
    assert format_ic(InitialCondition((4, 4, 9))) == "4,4,9"
    assert format_ic(InitialCondition((1, 2))) == "1,2"  # run of two stays literal
    assert str(InitialCondition((3, 2, 1))) == "3,2,1"


def _format_ic_by_term(ic: InitialCondition) -> str:
    """format_ic as a loop over the terms: the reference for its runs."""
    parts, terms, i = [], ic.terms, 0
    while i < len(terms):
        j = i
        while j + 1 < len(terms) and terms[j + 1] == terms[j] + 1:
            j += 1
        parts += [f"{terms[i]}..{terms[j]}"] if j - i >= 2 else map(str, terms[i : j + 1])
        i = j + 1
    return ("0;" if ic.zero_extended else "") + ",".join(parts)


@given(st.lists(st.tuples(st.integers(-20, 2**70), st.integers(1, 5)), min_size=1, max_size=8),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_format_ic_matches_term_loop(runs, zero):
    # adjacent runs may join into one, or ascend into each other
    terms = tuple(v for start, length in runs for v in range(start, start + length))
    ic = InitialCondition(terms, zero)
    text = format_ic(ic)
    assert text == _format_ic_by_term(ic)
    assert parse_ic(text) == ic


def test_parse_ic_keeps_a_lone_run_as_a_tuple():
    ic = parse_ic("0;1..3000")
    assert type(ic.terms) is tuple and ic.terms == tuple(range(1, 3001))
    assert ic == InitialCondition.identity(3000, zero_extended=True)


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=12), st.booleans())
@settings(max_examples=200, deadline=None)
def test_parse_format_roundtrip(terms, zero):
    ic = InitialCondition(tuple(terms), zero)
    assert parse_ic(format_ic(ic)) == ic


def test_term_accessor_bounds():
    seq = evaluate(InitialCondition((1, 1)), 10)
    with pytest.raises(IndexError):
        seq.term(0)
    with pytest.raises(IndexError):
        seq.term(11)


@pytest.mark.parametrize("backend", ["compiled", "python"])
@pytest.mark.parametrize("zero", [False, True], ids=["plain", "zero_extended"])
def test_three_two_one_interleaves_three_lines(request, backend, zero):
    # <3,2,1> runs as three interleaved lines, one per residue mod 3, under
    # either convention: 3k - 2, 3 and 3k + 2 at n = 3k, 3k + 1 and 3k + 2
    kernel = request.getfixturevalue("compiled_kernel") if backend == "compiled" else None
    with mock.patch.object(_backend, "_kernel", kernel):
        seq = evaluate(InitialCondition((3, 2, 1), zero), 10**5)
    assert seq.status.is_alive and len(seq) == 10**5
    lines = (lambda k: 3 * k - 2, lambda k: 3, lambda k: 3 * k + 2)
    assert seq.terms.tolist() == [lines[n % 3](n // 3) for n in range(1, 10**5 + 1)]


def test_write_bfile():
    seq = evaluate(InitialCondition((2, 0)), 10)
    out = io.StringIO()
    write_bfile(seq, out)
    assert out.getvalue() == "1 2\n2 0\n# died at 3\n"


def test_write_csv_plain_and_loglog():
    seq = evaluate(InitialCondition((2, 0)), 10)
    out = io.StringIO()
    write_csv(seq, out)
    assert out.getvalue() == "n,value\n1,2\n2,0\n"
    out = io.StringIO()
    write_csv(seq, out, loglog=True)
    lines = out.getvalue().splitlines()
    # the zero term cannot be plotted on a log axis and is dropped
    assert lines[0] == "log10_n,log10_value"
    assert len(lines) == 2 and lines[1].startswith("0.000000,")


def _per_row_bfile(seq, out):
    """write_bfile as it was before the block writer, one f-string per row:
    the reference for the formatter."""
    for i, v in enumerate(seq.terms, start=1):
        out.write(f"{i} {v}\n")
    if not seq.status.is_alive:
        out.write(f"# {seq.status.kind} at {seq.status.at_index}\n")


def _per_row_csv(seq, out, loglog=False):
    """write_csv as it was before the block writer."""
    if loglog:
        out.write("log10_n,log10_value\n")
        for i, v in enumerate(seq.terms, start=1):
            if v > 0:
                out.write(f"{math.log10(i):.6f},{math.log10(v):.6f}\n")
    else:
        out.write("n,value\n")
        for i, v in enumerate(seq.terms, start=1):
            out.write(f"{i},{v}\n")


def _per_row_text(seq, out):
    """The text layout of gen/predict/sym --at as it was before the block
    writer: a header, then rows of ten joined one at a time."""
    out.write(f"# <{seq.ic}>: {len(seq)} terms, {seq.status}\n")
    for i in range(0, len(seq), 10):
        out.write(" ".join(map(str, seq.terms[i : i + 10])) + "\n")


def _json_dump(seq, out):
    """gen --format json as json.dump writes its payload."""
    payload = {"ic": str(seq.ic), "status": str(seq.status), "terms": seq.terms}
    json.dump(payload, out, default=list)  # an array is written as its list
    out.write("\n")


def _cli_writer(fmt):
    def write(seq, out):
        args = argparse.Namespace(out=None, format=fmt, loglog=False)
        with contextlib.redirect_stdout(out):
            _emit_sequence(seq, args)

    return write


# 4096-row blocks: rows of ten, and the json terms, put their edges at 40960 terms
_LENGTHS = (0, 1, 9, 10, 11, 4095, 4096, 4097, 40959, 40960, 40961)
_STATUSES = (SequenceStatus.alive(), SequenceStatus.died(7), SequenceStatus.ended(12))
_WRITERS = [
    (write_bfile, _per_row_bfile),
    (write_csv, _per_row_csv),
    (lambda seq, out: write_csv(seq, out, loglog=True),
     lambda seq, out: _per_row_csv(seq, out, loglog=True)),
    (_cli_writer("text"), _per_row_text),
    (_cli_writer("json"), _json_dump),
]
_INT64_EDGES = (INT64_MIN, INT64_MIN + 1, -1, 0, 9, 10, 99, 100, INT64_MAX - 1, INT64_MAX)


def _terms(rng: random.Random, length: int) -> list[int]:
    # negative, zero, small and beyond-int64 terms, so loglog drops some rows
    pool = (0, -1, -(2**70), 2**64 + 1, 10**30)
    return [
        rng.choice(pool) if rng.random() < 0.1 else rng.randint(-50, 10**6)
        for _ in range(length)
    ]


def _term_lists(length: int):
    """Terms with values past int64 in about every block, which the Python
    formatter writes; int64 terms, which the compiled one writes; and those
    with one value past int64 midway, which sends one block to Python."""
    rng = random.Random(length)
    yield _terms(rng, length)
    terms = [
        rng.choice(_INT64_EDGES) if rng.random() < 0.1 else rng.randint(-50, 10**6)
        for _ in range(length)
    ]
    yield terms
    yield memoryview(array("q", terms)).toreadonly()  # as evaluate returns them
    if length:
        yield terms[: length // 2] + [INT64_MAX + 1] + terms[length // 2 + 1 :]


@pytest.mark.usefixtures("fastest_backend")
@pytest.mark.parametrize("length", _LENGTHS)
def test_writers_match_per_row_reference(length):
    ic = InitialCondition((1, 2, 3), zero_extended=True)
    for k, terms in enumerate(_term_lists(length)):
        # every status on the first list; one is enough to cover the others' blocks
        for status in _STATUSES if k == 0 else _STATUSES[:1]:
            seq = GeneratedSequence(ic, terms, status)
            for writer, reference in _WRITERS:
                got, want = io.StringIO(), io.StringIO()
                writer(seq, got)
                reference(seq, want)
                _assert_same_text(got.getvalue(), want.getvalue(),
                                  f"{reference.__name__} {length} list {k} {status}")


def _assert_same_text(got: str, want: str, label: str) -> None:
    """Fail naming the first differing byte, not with a 400 kB diff."""
    if got != want:
        at = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w),
                  min(len(got), len(want)))
        pytest.fail(f"{label}: differs at {at}:"
                    f" {got[at - 20 : at + 20]!r} != {want[at - 20 : at + 20]!r}")


def _json_payloads():
    """(label, payload) for each shape of payload qlab writes as json."""
    rng = random.Random(5)
    # gen: the int lists go out in blocks of 40960 values
    for length in (0, 1, 40959, 40960, 40961):
        terms = [rng.randint(-50, 10**6) for _ in range(length)]
        yield f"gen {length}", {"ic": "0;1..3", "status": "alive", "terms": terms}
        yield f"gen array {length}", {"ic": "0;1..3", "status": "alive",
                                      "terms": array("q", terms)}
    past = evaluate(parse_ic(f"0;{2**62},{2**62},3,4"), 9, "exact")
    assert max(past.terms) > INT64_MAX
    yield "gen past int64", {"ic": str(past.ic), "status": str(past.status), "terms": past.terms}
    # rst: the tables are read-only int64 memoryviews of rows 0..n, and the
    # "r" list, R(1..n), a slice of its table past row 0
    state = rst_compute(ROWS_PER_CALL * 10 + 7)
    for which in ("r", "s", "t"):
        yield f"rst {which}", {"n_max": state.n, which: getattr(state, which), "status": "alive"}
    yield "rst all", {"n_max": state.n, "r": state.r[1:], "s": state.s,
                      "t": state.t, "status": {"which": "S", "at_index": 12}}
    # sym: "terms" is a list of dicts
    for prefix in (symbolic_extend("zero_extended", NConstraint(35), 40),
                   symbolic_extend("plain", NConstraint(14, 20), 28)):
        yield f"sym {prefix.convention}", prefix.to_json()
    for n, budget in ((39, 500), (121, 300)):
        yield f"verify {n}", {"n": n, **verify_against_bruteforce(n, budget).to_json()}
    report = PredictionReport(129, (130, 53, 52), SequenceStatus.ended(237),
                              SequenceStatus.alive(), False)
    yield "verify mismatch", {"n": 36, **report.to_json()}
    yield "tree", _tree_json(behavior_tree(3))
    yield "tree --locate", {"n": 42, "digits": "132", "classification": 2}
    yield "empty", {}


@pytest.mark.usefixtures("fastest_backend")
def test_write_json_matches_json_dump():
    for label, payload in _json_payloads():
        got, want = io.StringIO(), io.StringIO()
        write_json(got, payload)
        json.dump(payload, want, default=list)  # an array is written as its list
        want.write("\n")
        _assert_same_text(got.getvalue(), want.getvalue(), label)


def test_write_table_blocks_and_layouts():
    rows = ROWS_PER_CALL * 2 + 1
    out = io.StringIO()
    write_table(out, (range(rows), [-i for i in range(rows)]), 5, ":")
    assert out.getvalue() == "".join(f"{i + 5}:{i}:{-i}\n" for i in range(rows))
    out = io.StringIO()
    write_table(out, ([],), None, " ", per_row=10)
    assert out.getvalue() == ""
    out = io.StringIO()
    write_table(out, (list(range(23)),), None, ", ", per_row=10)
    assert out.getvalue().splitlines()[2:] == ["20, 21, 22"]


# Values of each kind the formatter sees: small, at the int64 edges, anywhere
# in int64, and beyond it (for which the kernel hands the block to Python).
_small = st.integers(-(10**6), 10**6)
_int64 = st.one_of(_small, st.sampled_from(_INT64_EDGES), st.integers(INT64_MIN, INT64_MAX))
_beyond = st.sampled_from((INT64_MIN - 1, INT64_MAX + 1, -(2**70), 10**30))


@st.composite
def format_calls(draw):
    """Arguments (columns, first, sep, per_row, lo, hi) of a well-formed call."""
    per_row = draw(st.sampled_from((1, 10)))
    ncol = 1 if per_row > 1 else draw(st.integers(1, 3))
    first = None
    if per_row == 1:
        first = draw(st.sampled_from((None, 0, 1, -7, INT64_MAX - 3, INT64_MIN, INT64_MAX + 1)))
    value = draw(st.sampled_from((_int64, _int64 | _beyond)))
    length = draw(st.integers(0, 30))
    columns = [draw(st.lists(value, min_size=length, max_size=length)) for _ in range(ncol)]
    if draw(st.booleans()):
        columns = tuple(map(tuple, columns))
    lo = draw(st.integers(0, length))
    hi = draw(st.integers(lo, length))
    return columns, first, draw(st.sampled_from((" ", ",", "\t", ", "))), per_row, lo, hi


_EDGE_COLUMN = [INT64_MIN, *range(-ROWS_PER_CALL, ROWS_PER_CALL), INT64_MAX]


def _int64_arrays(columns):
    """columns as array('q'), or None when a value is not an int64."""
    try:
        return [array("q", column) for column in columns]
    except (OverflowError, TypeError):
        return None


def _index_beyond(first, lo, hi) -> bool:
    """Whether an index of rows lo..hi-1 lies outside int64."""
    return first is not None and hi > lo and not INT64_MIN <= first + hi - 1 <= INT64_MAX


@given(format_calls())
@example(([_EDGE_COLUMN], 0, ",", 1, 0, ROWS_PER_CALL))
@example(([_EDGE_COLUMN], 1, " ", 1, ROWS_PER_CALL - 1, ROWS_PER_CALL + 1))
@example(([_EDGE_COLUMN], None, " ", 10, ROWS_PER_CALL, len(_EDGE_COLUMN)))
@example(([_EDGE_COLUMN, _EDGE_COLUMN[::-1]], INT64_MAX - len(_EDGE_COLUMN), "\t", 1, 0,
          len(_EDGE_COLUMN)))  # the last index is INT64_MAX - 1
@example(([[1, 2]], INT64_MAX, " ", 1, 0, 2))  # the second index is past int64
@settings(max_examples=400, deadline=None)
def test_compiled_and_fallback_formatters_agree(compiled_kernel, call):
    columns, first, sep, per_row, lo, hi = call
    want = _fallback.format_rows(*call)
    # the kernel reads only int64 buffers: it declines list and tuple columns
    assert compiled_kernel.format_rows(*call) is None
    with mock.patch.object(_backend, "_kernel", compiled_kernel):
        assert _backend.format_rows(*call) == want
    # the same rows from arrays: the kernel's own text, unless an index lies
    # outside int64
    arrays = _int64_arrays(columns)
    if arrays is not None:
        got = compiled_kernel.format_rows(arrays, first, sep, per_row, lo, hi)
        assert got == (None if _index_beyond(first, lo, hi) else want)


@pytest.mark.parametrize("call, error", [
    (((), None, " ", 1, 0, 0), ValueError),  # no column
    ((([1],), None, " ", 0, 0, 1), ValueError),  # per_row < 1
    ((([1], [2]), None, " ", 10, 0, 1), ValueError),  # per_row > 1 with two columns
    ((([1],), 1, " ", 10, 0, 1), ValueError),  # per_row > 1 with an index
    ((([1], [2, 3]), None, " ", 1, 0, 2), ValueError),  # hi past a column
    ((([1, 2],), None, " ", 1, 2, 1), ValueError),  # lo > hi
    ((([1, 2],), None, " ", 1, -1, 1), ValueError),  # lo < 0
    ((([1],), None, "\u00b7", 1, 0, 1), ValueError),  # a non-ASCII sep
    ((([1.0],), None, " ", 1, 0, 1), TypeError),  # not an int
    ((([1, "2"],), None, " ", 1, 0, 2), TypeError),
])
def test_formatters_reject_the_same_calls(compiled_kernel, call, error):
    """The Python reference owns every error: the kernel declines the call,
    with list columns and with int64 arrays alike, and _backend raises the
    reference's error."""
    with pytest.raises(error):
        _fallback.format_rows(*call)
    with mock.patch.object(_backend, "_kernel", compiled_kernel), pytest.raises(error):
        _backend.format_rows(*call)
    assert compiled_kernel.format_rows(*call) is None
    arrays = _int64_arrays(call[0])
    if arrays is not None:
        assert compiled_kernel.format_rows(arrays, *call[1:]) is None


# The kernel allocates its str at an upper bound, 20 characters a field (the
# width of INT64_MIN) and its sep or newline, writes each field once and cuts
# the str to what it wrote.  A block of INT64_MIN alone, led by the index
# INT64_MIN, fills that bound: with a bound any smaller the kernel writes past
# its str, which corrupts the text or the heap, and which PYTHONMALLOC=debug
# and AddressSanitizer report.
_WIDEST = array("q", [INT64_MIN]) * (ROWS_PER_CALL * 10)


@pytest.mark.parametrize("call", [
    *(((_WIDEST,) * 3, INT64_MIN, sep, 1, 0, ROWS_PER_CALL) for sep in (",", " ", "\t", ", ")),
    ((_WIDEST,), INT64_MIN, " ", 1, 0, ROWS_PER_CALL),
    ((_WIDEST,), None, " ", 1, 0, ROWS_PER_CALL),
    ((_WIDEST,), None, " ", 10, 0, ROWS_PER_CALL * 10),
    ((_WIDEST,), None, ", ", 7, 0, ROWS_PER_CALL * 10),  # the last line short
], ids=["csv", "bfile", "tab", "comma-space", "one-column-indexed", "one-column",
        "per_row=10", "per_row=7"])
def test_widest_block_fills_the_bound(compiled_kernel, call):
    got = compiled_kernel.format_rows(*call)
    assert got is not None
    _assert_same_text(got, _fallback.format_rows(*call), "widest block")


# +-(10^k - 1) and +-10^k for k = 0..18: every count of digits at both of its
# ends, so the kernel's four-digit steps leave a leading group of each size,
# 1 to 4 digits, all nines or a one and zeros.  And +-(2^k - 1) and +-2^k for
# k = 0..63, where they fit int64: every bit length at both of its ends, from
# which the kernel counts the digits
_DIGIT_EDGES = array("q", sorted({v for base in (10, 2) for k in range(64) for d in (0, 1) for s in (1, -1)
                                  if INT64_MIN <= (v := s * (base**k - d)) <= INT64_MAX}))


def test_each_digit_count_formats_as_the_reference(compiled_kernel):
    column = (_DIGIT_EDGES,)
    calls = [(column, None, ",", 1, 0, len(_DIGIT_EDGES)),
             (column, None, ", ", 10, 0, len(_DIGIT_EDGES))]
    # each value alone after an index of 20 characters: the row of -10^18
    # fills the bound, as a row of the widest block does
    calls += [(column, INT64_MIN, " ", 1, i, i + 1) for i in range(len(_DIGIT_EDGES))]
    for call in calls:
        assert compiled_kernel.format_rows(*call) == _fallback.format_rows(*call), call[1:]


# Values whose groups of four digits, counted from the end, are zero-padded
# inside (0000, 0001, 0007), led by a group of each size, 1 to 4 digits: the
# kernel copies a leading group of k digits as four characters and writes
# the 4 - k past it again with the group that follows, or with the sep.
_GROUPS = array("q", sorted({INT64_MIN, INT64_MAX} | {s * v for s in (1, -1) for v in (
    10**4, 10**4 + 1, 10**8 + 1, 10**12 + 7, 123400005678,
    *(lead * 10**(4 * g) + 7 for lead in (1, 12, 123, 1234) for g in range(5)),
) if v <= INT64_MAX}))


@pytest.mark.parametrize("sep", [" ", ",", "\t", ", "])
def test_padded_groups_format_as_the_reference(compiled_kernel, sep):
    column, n = _GROUPS, len(_GROUPS)
    calls = [((column,), None, sep, 1, 0, n),
             ((column,), 10**4 - 3, sep, 1, 0, n),  # the index crosses 10^4
             ((column, column[::-1], column), -(10**8) - 1, sep, 1, 0, n),
             ((column,), None, sep, 3, 0, n),  # the last line short
             ((column,), None, sep, n, 0, n)]
    for call in calls:
        assert compiled_kernel.format_rows(*call) == _fallback.format_rows(*call), call[1:]
    # a line as long as any Py_ssize_t, from a row past 0: the rows left
    # fill one line, and the line's end is found with no sum past the bound
    # and no template past the values
    call = ((column,), None, sep, sys.maxsize, 1, n)
    assert compiled_kernel.format_rows(*call) == _fallback.format_rows(*call)
    assert _fallback.format_rows((array("q", [1, 2, 3, 4]),), None, " ", sys.maxsize, 0, 4) == "1 2 3 4\n"


def test_empty_block_is_the_empty_str(compiled_kernel):
    for call in (((_WIDEST,) * 3, INT64_MIN, ",", 1, 7, 7),
                 ((_WIDEST,), None, " ", 10, 0, 0),
                 ((array("q"),), 1, ", ", 1, 0, 0)):
        assert compiled_kernel.format_rows(*call) == "" == _fallback.format_rows(*call)


# The kernel reads a column that is an array('q') from its buffer, and
# declines a call with any other column; either way _backend writes the
# reference's text.
_COLUMN_TYPES = (list, tuple, lambda values: array("q", values))


@st.composite
def buffer_format_calls(draw):
    """Arguments of a well-formed call whose int64 columns are arrays,
    tuples and lists, mixed, with lo and hi often at the edge of a line."""
    per_row = draw(st.integers(1, 10))
    ncol = 1 if per_row > 1 else draw(st.integers(1, 3))
    first = None
    if per_row == 1:
        # INT64_MAX - 20: the last index leaves int64 for some hi, and the
        # kernel answers None
        first = draw(st.sampled_from((None, 0, 1, INT64_MIN, INT64_MAX - 20, INT64_MAX)))
    length = draw(st.integers(0, 45))
    value = _int64 | st.sampled_from((INT64_MIN, INT64_MAX))
    columns = [
        draw(st.sampled_from(_COLUMN_TYPES))(draw(st.lists(value, min_size=length, max_size=length)))
        for _ in range(ncol)
    ]
    edges = sorted({min(length, max(0, k * per_row + d))
                    for k in range(length // per_row + 2) for d in (-1, 0, 1)})
    lo = draw(st.sampled_from(edges) | st.integers(0, length))
    hi = draw(st.sampled_from([e for e in edges if e >= lo]) | st.integers(lo, length))
    return columns, first, draw(st.sampled_from((" ", ",", "\t", ", ", "%d"))), per_row, lo, hi


@given(buffer_format_calls())
@example(([array("q", [INT64_MIN, INT64_MAX])], None, " ", 1, 0, 2))
@example(([array("q", [INT64_MIN, INT64_MAX, 0]), (1, 2, 3), [4, 5, 6]], INT64_MIN, ",", 1, 0, 3))
@example(([array("q", [INT64_MIN, INT64_MAX, 0]), array("q", [1, 2, 3])], INT64_MIN, ",", 1, 0, 3))
@example(([array("q", range(25))], None, " ", 10, 10, 21))
@example(([array("q", [7, 8])], INT64_MAX, " ", 1, 0, 2))  # the second index is past int64
@settings(max_examples=400, deadline=None)
def test_buffer_columns_format_as_the_reference(compiled_kernel, call):
    columns, first, sep, per_row, lo, hi = call
    want = _fallback.format_rows(*call)
    assert want == _fallback.format_rows([list(c) for c in columns], first, sep, per_row, lo, hi)
    declined = _index_beyond(first, lo, hi) or not all(type(c) is array for c in columns)
    assert compiled_kernel.format_rows(*call) == (None if declined else want)
    with mock.patch.object(_backend, "_kernel", compiled_kernel):
        assert _backend.format_rows(*call) == want


def _text_or_error(f, *args):
    try:
        return f(*args)
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize("column, read", [
    (b"\x00\x07\xff", False),
    (bytearray(b"\x01\x02"), False),
    (array("i", [-5, 0, 7]), False),
    (array("Q", [0, 2**64 - 1]), False),  # unsigned: the second value is past int64
    (array("d", [1.0, 2.5]), False),
    (array("q"), True),
    (memoryview(array("q", [1, 2, 3, 4, 5]))[::2], False),  # int64, but not contiguous
    (memoryview(array("q", [INT64_MIN, 3])), True),
], ids=["bytes", "bytearray", "i", "Q", "d", "empty", "strided", "memoryview"])
def test_other_buffers_format_or_fail_alike(compiled_kernel, column, read):
    """The kernel writes a C-contiguous int64 buffer and declines any other;
    _backend gives the reference's text or error either way."""
    call = ((column,), 1, " ", 1, 0, len(column))
    want = _text_or_error(_fallback.format_rows, *call)
    assert want == _text_or_error(_fallback.format_rows, (list(column),), *call[1:])
    with mock.patch.object(_backend, "_kernel", compiled_kernel):
        assert _text_or_error(_backend.format_rows, *call) == want
    assert compiled_kernel.format_rows(*call) == (want if read else None)


def _assert_released(arr: array) -> None:
    """A buffer of arr still held would make append raise BufferError."""
    arr.append(0)
    arr.pop()


def _pattern_tiles(prefix, lam, mu, length, tables):
    """qt_pattern_check's condition <0;prefix,5,lam,4,mu> and its tiles past
    it: 5R(1) and 5S(1), then ``length`` terms of R/S/T blocks."""
    ic = (*prefix, 5, lam, 4, mu)
    return ic, (constants((5, 5)), (TILE_BLOCKS, length, lam, tables))


def test_buffers_are_released(compiled_kernel):
    arr = array("q", range(1, 41))
    calls = [
        ((arr,), 1, " ", 1, 0, 40),  # text
        ((arr,), INT64_MAX, " ", 1, 0, 40),  # an index past int64
        ((arr,), None, " ", 1, 5, 41),  # hi past the column
        ((arr, arr[:5]), None, " ", 1, 0, 40),  # hi past the second column
        ((arr,), None, " ", 1, 3, 2),  # lo > hi
        ((arr, [1.5] * 40), None, " ", 1, 0, 40),  # a float in another column
        ((arr, 5), None, " ", 1, 0, 40),  # another column is not a sequence
        ((arr, list(range(40))), None, " ", 1, 0, 40),  # another column is a list
        ((tuple(range(40)), arr), 1, ",", 1, 0, 40),  # a tuple column before it
        ((arr, arr), 1, " ", 10, 0, 40),  # per_row > 1 with two columns
        ((arr,), None, "\u00b7", 1, 0, 40),  # a non-ASCII sep
        (iter([arr]), None, " ", 1, 0, 40),  # columns neither a list nor a tuple
    ]
    for k, call in enumerate(calls):
        assert (compiled_kernel.format_rows(*call) is None) == (k > 0)
        _assert_released(arr)
    # <0;5,12,4,6> follows its R/S/T blocks, so each call reads the tables
    # before it returns
    state = rst_compute(200)
    r, s, t = (array("q", table) for table in (state.r, state.s, state.t))

    prefix, (head, _) = _pattern_tiles((), 12, 6, 98, (r, s, t))
    c, d, f = columns = head[3]

    def blocks(lam=12, length=98, tables=(r, s, t), literal=head):
        return (literal, (TILE_BLOCKS, length, lam, tables))

    checks = [
        (blocks(), 104, (None, 0, 104)),  # all 104 terms match
        (blocks(lam=2**64), 104, None),  # lam*T(1) is past int64
        (blocks(length=1500), 2000, None),  # the tables are too short
        ((*blocks(), (9, 1, 0, None)), 200, None),  # a malformed tile after them
        (blocks(tables=(r, 5, t)), 104, None),  # s is not a sequence
        (blocks(tables=(r, list(s), t)), 104, None),  # s is a list
        (blocks(tables=(r, s, [1.5] * 300)), 104, None),  # t holds a float
        # the literal's columns too short, its y a float, its d a list
        (blocks(literal=(TILE_LITERAL, 3, (0, 0), columns)), 104, None),
        (blocks(literal=(TILE_LITERAL, 2, (0, 1.5), columns)), 104, None),
        (blocks(literal=(TILE_LITERAL, 2, (0, 0), (c, list(d), f))), 104, None),
    ]
    for tiles, budget, want in checks:
        assert compiled_kernel.q_check(prefix, tiles, budget) == want
        for table in (r, s, t, c, d, f):
            _assert_released(table)
        # a declined call is the reference's: its answer, or its error
        reference = _outcome(_fallback.q_check, prefix, tiles, budget, checked=False)
        with mock.patch.object(_backend, "_kernel", compiled_kernel):
            assert _outcome(_backend.q_check, prefix, tiles, budget) == reference
    # the kernel declines a short table and an unknown kind: the reference refuses them
    for (tiles, budget, _), message in zip(checks[2:4], ("the R/S/T tables are too short for the block tile",
                                                         "unknown tile kind 9")):
        for kernel in (compiled_kernel, None):
            with mock.patch.object(_backend, "_kernel", kernel):
                assert _outcome(_backend.q_check, prefix, tiles, budget) == (ValueError, message)
    # the block of each result the kernel builds is held by its views alone,
    # through their one reference, and no buffer of a view is held
    for views in (compiled_kernel.rst_generate(300)[:3], compiled_kernel.q_generate((1, 1), True, 5000)[:1]):
        refs = sys.getrefcount(views[0].obj)  # outside the assert, which keeps a reference
        assert refs == 2  # the views' one reference, and the argument's
        for view in views:
            view.release()  # BufferError while a buffer of view is held


@pytest.mark.parametrize("prefix, lam, mu, length, budget", [
    ((), 12, 6, 98, 104),  # the pattern holds through the budget
    ((), 12, 6, 1400, 1500),
    ((), 12, 6, 98, 3),  # the budget ends before the blocks
    ((), 7, 6, 500, 600),  # lam < 9: the pattern fails
    ((1, 2, 3), 9, 9, 600, 700),  # K = 3, the side condition fails
    ((), 12, 10**15, 600, 700),  # the prediction ends before the run
    ((), 2**64, 6, 98, 104),  # lam*T(k) past int64: only Python answers
])
def test_q_check_reads_tables_of_any_sequence_type(compiled_kernel, prefix, lam, mu, length,
                                                   budget):
    """The kernel reads only int64 tables, a literal's columns as the R/S/T
    tables, and declines tuples and lists, for which _backend.q_check
    answers in Python: the same 3-tuple either way."""
    state = rst_compute(400)
    results = set()
    for kernel in (compiled_kernel, None):
        with mock.patch.object(_backend, "_kernel", kernel):
            for kind in _COLUMN_TYPES:
                tables = tuple(map(kind, (state.r, state.s, state.t)))
                ic, ((*head, columns), blocks) = _pattern_tiles(prefix, lam, mu, length, tables)
                tiles = ((*head, tuple(map(kind, columns))), blocks)
                results.add(_backend.q_check(ic, tiles, budget))
    ic, tiles = _pattern_tiles(prefix, lam, mu, length, (state.r, state.s, state.t))
    assert results == {_fallback.q_check(ic, tiles, budget, checked=False)}
