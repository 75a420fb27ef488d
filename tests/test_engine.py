"""Engine tests: generation under both conventions, integer modes, the
initial-condition grammar, quasilinear detection, and the output writers."""

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
    QuasilinearSegment,
    SequenceStatus,
    ValidationError,
    behavior_tree,
    detect_quasilinear,
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
    TILE_RANGE,
)
from qlab.engine import ROWS_PER_CALL, write_json, write_table

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


def test_resolve_int_mode(monkeypatch):
    monkeypatch.delenv("QLAB_INT_MODE", raising=False)
    assert resolve_int_mode() == "fast64"
    assert resolve_int_mode("exact") == "exact"
    monkeypatch.setenv("QLAB_INT_MODE", "exact")
    assert resolve_int_mode() == "exact"
    assert resolve_int_mode("fast64") == "fast64"
    monkeypatch.setenv("QLAB_INT_MODE", "nonsense")
    with pytest.raises(ValidationError):
        resolve_int_mode()


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
        compiled_kernel.q_check(prefix, True, (), 20)


def _outcome(f, *args, **kwargs):
    """f's result with its terms (its first item) as a list, None when f is
    the kernel and declines the call, or the type and message of what f
    raised: the backend's array('q') holds the reference's values."""
    try:
        result = f(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    if result is None:
        return None
    terms, *rest = result
    return (terms.tolist() if isinstance(terms, array) else terms, *rest)


def _declined_where_raised(reference):
    """What the compiled kernel gives where the reference's _outcome is
    ``reference``: the same answer, and None, its decline, where the
    reference raises or declines."""
    return None if reference is None or isinstance(reference[0], type) else reference


_RST_TABLES = _fallback.rst_generate(50)[:3]


# Each call is made twice, so generators are built anew by each factory.
@pytest.mark.parametrize("name, args", [
    ("q_check", lambda: ((1, 2), True, ((TILE_RANGE, -1, 5, None),), 20)),
    ("q_check", lambda: ((1, 2), True, ((9, 3, 1, None),), 20)),
    ("q_check", lambda: ((1, 2), True, ((TILE_LITERAL, 3, (1, 2), None),), 20)),
    ("q_check", lambda: ((1, 2), True, ([TILE_RANGE, 3, 1, None],), 20)),
    ("q_check", lambda: ((1, 2), True, ((TILE_BLOCKS, 5, 12, _RST_TABLES[:2]),), 20)),
    ("q_check", lambda: ((1, 2), True, ((TILE_CHUNK, 5, 2.5, 3),), 20)),
    ("q_check", lambda: ((1, 2), True, ((TILE_RANGE, 1, 7, None), (TILE_LITERAL, 1, (1.5,), None)),
                         20)),
    ("q_check", lambda: ((1, 2), True, ((TILE_RANGE, 3, 1, None), (TILE_RANGE, 1, 4)), 3)),
    ("q_check", lambda: ((1, 2), True, iter(((TILE_RANGE, 3, 1, None),)), 20)),
    ("q_generate", lambda: (iter((1, 1)), False, 10)),
    ("q_generate", lambda: (5, False, 10)),
    ("q_generate", lambda: ((1,), False, 10)),
    ("q_generate", lambda: ((1, 1.5), False, 10)),
    ("q_generate", lambda: ((1, 1), False, 10.0)),
    ("rst_generate", lambda: (1,)),
], ids=["negative-length", "kind-9", "short-literal", "list-tile", "two-tables", "float-chunk",
        "float-after-mismatch", "three-item-tile-past-budget", "tile-generator", "prefix-generator",
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
    ("q_check", lambda x: ((1, 1), False, ((TILE_RANGE, x, 1, None),), 10)),
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
    st.lists(_any_value, max_size=5).map(tuple),
    _any_value,
)


@given(st.one_of(st.lists(_any_value, max_size=6).map(tuple), range_prefixes, _any_value),
       st.booleans(), st.lists(_any_tile, max_size=4).map(tuple) | _any_value,
       st.integers(-2, 60) | st.sampled_from((None, 2.5)))
@settings(max_examples=500, deadline=None)
def test_backends_agree_on_calls_of_any_type(compiled_kernel, prefix, zero, tiles, budget):
    """Well-formed or not: the same answer, or the same error, through
    _backend with the kernel and without it."""
    outcomes = []
    for kernel in (compiled_kernel, None):
        with mock.patch.object(_backend, "_kernel", kernel):
            outcomes.append((_outcome(_backend.q_generate, prefix, zero, budget, exact=False),
                             _outcome(_backend.q_check, prefix, zero, tiles, budget)))
    assert outcomes[0] == outcomes[1]


def _reference_containers(checked: bool):
    """What the Python reference itself returns: q_generate's terms of
    <1,1> and <2,0>, the R/S/T tables, the terms tiles of every kind
    predict, all within int64; then q_generate's terms of a run whose 56th
    term leaves int64, and a prediction with a value past it."""
    fits = [_fallback.q_generate(ic, False, budget, checked)[0]
            for ic, budget in (((1, 1), 40), ((2, 0), 10))]
    tables = _fallback.rst_generate(300)[:3]
    tiles = ((TILE_RANGE, 5, 1, None), (TILE_LITERAL, 2, (7, 8), None),
             (TILE_CHUNK, 12, 3, 4), (TILE_BLOCKS, 10, 12, tables))
    fits += [*tables, _fallback.materialise(tiles, 29)]
    past = [_fallback.q_generate((9, 3 * 2**61, 2, 7), True, 200, checked),
            _fallback.materialise(((TILE_LITERAL, 2, (1, INT64_MAX + 1), None),), 2)]
    return fits, past


@pytest.mark.parametrize("backend", ["compiled", "python", "reference"])
@pytest.mark.parametrize("mode", ["fast64", "exact"])
def test_terms_are_an_int64_array(request, backend, mode):
    # the values fit int64, so both backends, and the Python reference they
    # share, hand back one array('q'); only an exact run past int64 is a list
    if backend == "reference":
        fits, (run, predicted) = _reference_containers(checked=mode == "fast64")
        assert fits[0].tolist()[:17] == CLASSIC_17
        assert fits[1].tolist() == [2, 0]
        assert len(fits[-1]) == 29
        if mode == "exact":
            assert type(run[0]) is list and len(run[0]) == 200 and max(run[0]) > INT64_MAX
        else:
            assert type(run[0]) is array and run[1:] == (STATUS_OVERFLOW, 56)
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
        assert type(terms) is array and terms.typecode == "q"


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


def test_python_backend_peaks_near_its_arrays():
    # the reference fills its arrays itself: no list of ints, about five
    # times their bytes, lives beside them at any point of the run
    runs = (lambda: _backend.rst_generate(10**5)[:3],
            lambda: _backend.q_generate((1, 1), False, 200_000, False)[:1])
    for run in runs:
        with mock.patch.object(_backend, "_kernel", None):
            tracemalloc.start()
            try:
                arrays = run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert all(type(a) is array for a in arrays)
        assert peak <= 2 * sum(a.itemsize * len(a) for a in arrays)


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


def test_quasilinear_three_interleaved_lines():
    seq = evaluate(InitialCondition((3, 2, 1)), 100)
    segs = detect_quasilinear(seq, 3)
    assert [(s.start, s.end) for s in segs] == [(1, 100)]
    assert segs[0].residues == ((3, -2), (0, 3), (3, 2))
    for n in (1, 2, 3, 50, 99, 100):
        assert segs[0].value_at(n) == seq.term(n)
    print("✓ <3,2,1> is quasilinear(3) across all 100 terms")


def test_quasilinear_degenerate_windows_may_overlap():
    # no two consecutive first differences agree, so every 2-term window is
    # maximal on its own
    segs = detect_quasilinear([0, 5, 6, 9, 14, 21], 1)
    assert [(s.start, s.end) for s in segs] == [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]


def test_quasilinear_classic_prefix_has_no_full_cover():
    seq = evaluate(InitialCondition((1, 1)), 10)
    segs = detect_quasilinear(seq, 1)
    assert all(not (s.start == 1 and s.end == 10) for s in segs)


def test_quasilinear_identity_42():
    seq = evaluate(InitialCondition.identity(42, zero_extended=True), 200)
    segs = detect_quasilinear(seq, 5, from_index=77)
    assert (segs[0].start, segs[0].end) == (77, 89)
    assert (segs[-1].start, segs[-1].end) == (95, 200)
    for seg in segs:
        for n in range(seg.start, seg.end + 1):
            assert seg.value_at(n) == seq.term(n)
    print(f"✓ identity(42) period-5 segments: first ends 89, last spans 95..200")


def test_quasilinear_validation():
    seq = evaluate(InitialCondition((1, 1)), 10)
    with pytest.raises(ValidationError):
        detect_quasilinear(seq, 0)
    with pytest.raises(ValidationError):
        detect_quasilinear(seq, 1, from_index=0)
    with pytest.raises(ValidationError):
        detect_quasilinear(seq, 1, from_index=11)


def _quasilinear_two_pass(seq, period, from_index=1):
    """detect_quasilinear as it was before it walked its windows once: the
    runs of flat windows in one loop, then the lone 2m-term segments in a
    second that tests each window again.  The reference for the
    differential test."""
    if period < 1:
        raise ValidationError("period must be >= 1")
    if from_index < 1:
        raise ValidationError("from_index must be >= 1")
    t = seq.terms if isinstance(seq, GeneratedSequence) else seq
    total = len(t)
    if from_index > total:
        raise ValidationError(f"from_index {from_index} is past the last term ({total})")
    m = period

    def val(n):
        return t[n - 1]

    def flat(n):
        return val(n + m) - val(n) == val(n + 2 * m) - val(n + m)

    hi = total - 2 * m
    found = []
    n = from_index
    while n <= hi:
        if flat(n):
            start = n
            while n + 1 <= hi and flat(n + 1):
                n += 1
            found.append((start, n + 2 * m))
        n += 1
    for x in range(from_index, total - 2 * m + 2):
        left_blocked = x == from_index or not flat(x - 1)
        right_blocked = x > hi or not flat(x)
        if left_blocked and right_blocked:
            found.append((x, x + 2 * m - 1))
    found.sort()

    segments = []
    for s, e in found:
        residues = []
        for r in range(m):
            n0 = s + (r - s) % m
            k0, v0 = n0 // m, val(n0)
            c = val(n0 + m) - v0
            residues.append((c, v0 - c * k0))
        segments.append(QuasilinearSegment(s, e, m, tuple(residues)))
    return segments


def test_quasilinear_matches_two_pass_reference():
    rng = random.Random(20261019)
    seen = set()
    for _ in range(4000):
        # quasilinear terms of a random period, each term perturbed with a
        # random probability, so that runs, lone segments and both meet
        shape = rng.randint(1, 5)
        cs = [rng.randint(-3, 3) for _ in range(shape)]
        ds = [rng.randint(-3, 3) for _ in range(shape)]
        noise = rng.choice((0.0, 0.05, 0.2, 0.5, 1.0))
        terms = [cs[n % shape] * (n // shape) + ds[n % shape]
                 + (rng.randint(1, 3) if rng.random() < noise else 0)
                 for n in range(1, rng.randint(1, 40) + 1)]
        period = rng.randint(0, 5)
        from_index = rng.randint(-1, len(terms) + 2)
        outcomes = []
        for detect in (detect_quasilinear, _quasilinear_two_pass):
            try:
                outcomes.append(detect(terms, period, from_index))
            except ValidationError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], (terms, period, from_index)
        if isinstance(outcomes[0], str):
            seen.add("ValidationError")
        else:
            seen.update("run" if seg.end - seg.start + 1 > 2 * period else "lone"
                        for seg in outcomes[0])
            seen.add("segments" if outcomes[0] else "none")
    assert seen == {"ValidationError", "run", "lone", "segments", "none"}


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
    yield array("q", terms)  # as evaluate returns them
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
    # rst: the tables are arrays of rows 0..n, and the "r" list, R(1..n), a
    # memoryview of its table past row 0
    state = rst_compute(ROWS_PER_CALL * 10 + 7)
    for which in ("r", "s", "t"):
        yield f"rst {which}", {"n_max": state.n, which: getattr(state, which), "status": "alive"}
    yield "rst all", {"n_max": state.n, "r": memoryview(state.r)[1:], "s": state.s,
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
    """qt_pattern_check's condition <0;prefix,5,lam,4,mu> and its tiles: the
    condition, 5R(1) and 5S(1), then ``length`` terms of R/S/T blocks."""
    ic = (*prefix, 5, lam, 4, mu)
    return ic, ((TILE_LITERAL, len(ic), ic, None), (TILE_LITERAL, 2, (5, 5), None),
                (TILE_BLOCKS, length, lam, tables))


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

    prefix, (*head, _) = _pattern_tiles((), 12, 6, 98, (r, s, t))

    def blocks(lam=12, length=98, tables=(r, s, t)):
        return (*head, (TILE_BLOCKS, length, lam, tables))

    checks = [
        (blocks(), 104, (104, None, 0, 0, 104)),  # all 104 terms match
        (blocks(lam=2**64), 104, None),  # lam*T(1) is past int64
        (blocks(length=1500), 2000, None),  # the tables are too short
        ((*blocks(), (9, 1, 0, None)), 200, None),  # a malformed tile after them
        (blocks(tables=(r, 5, t)), 104, None),  # s is not a sequence
        (blocks(tables=(r, list(s), t)), 104, None),  # s is a list
        (blocks(tables=(r, s, [1.5] * 300)), 104, None),  # t holds a float
    ]
    for tiles, budget, want in checks:
        assert compiled_kernel.q_check(prefix, True, tiles, budget) == want
        for table in (r, s, t):
            _assert_released(table)
        # a declined call is the reference's: its answer, or its error
        reference = _outcome(_fallback.q_check, prefix, True, tiles, budget, checked=False)
        with mock.patch.object(_backend, "_kernel", compiled_kernel):
            assert _outcome(_backend.q_check, prefix, True, tiles, budget) == reference
    # the kernel declines a short table and an unknown kind: the reference refuses them
    for (tiles, budget, _), message in zip(checks[2:4], ("the R/S/T tables are too short for the block tile",
                                                         "unknown tile kind 9")):
        for kernel in (compiled_kernel, None):
            with mock.patch.object(_backend, "_kernel", kernel):
                assert _outcome(_backend.q_check, prefix, True, tiles, budget) == (ValueError, message)
    # the arrays the kernel builds hold no buffer of their own once returned
    for table in (*compiled_kernel.rst_generate(300)[:3], compiled_kernel.q_generate((1, 1), True, 5000)[0]):
        _assert_released(table)


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
    """The kernel reads only int64 tables and declines tuples and lists, for
    which _backend.q_check answers in Python: the same 5-tuple either way."""
    state = rst_compute(400)
    results = set()
    for kernel in (compiled_kernel, None):
        with mock.patch.object(_backend, "_kernel", kernel):
            for kind in _COLUMN_TYPES:
                tables = tuple(map(kind, (state.r, state.s, state.t)))
                ic, tiles = _pattern_tiles(prefix, lam, mu, length, tables)
                results.add(_backend.q_check(ic, True, tiles, budget))
    ic, tiles = _pattern_tiles(prefix, lam, mu, length, (state.r, state.s, state.t))
    assert results == {_fallback.q_check(ic, True, tiles, budget, checked=False)}
