"""Command-line interface tests, driven through cli.main() so exit codes
and stream routing are covered without spawning subprocesses; only the
checks of what a command imports start a fresh interpreter."""

from __future__ import annotations

import argparse
import json
import math
import sys
from unittest import mock

import pytest

from qlab import (
    NConstraint,
    PredictionReport,
    _backend,
    abc_profile,
    predict_sequence,
    specialize,
    symbolic_extend,
)
from qlab.cli import _build_parser, _emit_sequence, _verify_line, main
from qlab.engine import GeneratedSequence, InitialCondition, SequenceStatus, evaluate
from qlab.symbolic import CONVENTIONS
from test_engine import is_int64_view


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_text(capsys):
    code, out, err = run_cli(capsys, "gen", "--ic", "1,1", "--max", "6")
    assert code == 0 and err == ""
    assert out == "# <1,1>: 6 terms, alive\n1 1 2 3 3 4\n"


def test_one_parser_serves_every_call(capsys):
    # the parser is built once per process; each call must still see its own
    # options and the defaults, as a freshly built parser would
    big = f"0;{2**62},{2**62},3,4"
    calls = [
        ("gen", "--ic", big, "--max", "9", "--mode", "exact"),
        ("--version",),
        ("gen", "--ic", big, "--max", "9", "--mode", "decimal"),  # a usage error
        ("gen", "--ic", big, "--max", "9"),  # fast64 again: overflows at 5
    ]
    shared = [run_cli(capsys, *argv) for argv in calls]
    assert _build_parser() is _build_parser()
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 1, 1]
    assert "overflow" in shared[3][2] and shared[3][1] == ""


def test_gen_bfile(capsys):
    code, out, _ = run_cli(capsys, "gen", "--ic", "2,0", "--max", "10", "--format", "bfile")
    assert code == 0
    assert out == "1 2\n2 0\n# died at 3\n"


def test_gen_json(capsys):
    code, out, _ = run_cli(capsys, "gen", "--ic", "1,1", "--max", "4", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"ic": "1,1", "status": "alive", "terms": [1, 1, 2, 3]}


def test_gen_csv_and_loglog(capsys):
    code, out, _ = run_cli(capsys, "gen", "--ic", "1,1", "--max", "3", "--format", "csv")
    assert code == 0
    assert out == "n,value\n1,1\n2,1\n3,2\n"
    code, out, _ = run_cli(
        capsys, "gen", "--ic", "1,1", "--max", "3", "--format", "csv", "--loglog"
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert float(rows[2][0]) == pytest.approx(math.log10(3), abs=1e-6)
    assert float(rows[2][1]) == pytest.approx(math.log10(2), abs=1e-6)


@pytest.mark.parametrize("backend", ["compiled", "python"])
@pytest.mark.parametrize("max_terms", [10**13, 10**20])
def test_gen_huge_max_dies_early(request, capsys, backend, max_terms):
    kernel = request.getfixturevalue("compiled_kernel") if backend == "compiled" else None
    with mock.patch.object(_backend, "_kernel", kernel):
        code, out, err = run_cli(capsys, "gen", "--ic", "2,0", "--max", str(max_terms))
    assert (code, err) == (0, "")
    assert out == "# <2,0>: 2 terms, died at 3\n2 0\n"


def test_loglog_requires_csv(capsys):
    code, out, err = run_cli(capsys, "gen", "--ic", "1,1", "--max", "5", "--loglog")
    assert code == 1 and out == ""
    assert "--loglog only applies to --format csv" in err
    # sym checks it with or without --at
    for argv in (
        ("predict", "--n", "39", "--max", "50", "--loglog"),
        ("sym", "--nmin", "14", "--loglog"),
        ("sym", "--nmin", "14", "--loglog", "--format", "json"),
        ("sym", "--nmin", "14", "--at", "30", "--loglog"),
    ):
        assert run_cli(capsys, *argv) == (
            1, "", "qlab: error: --loglog only applies to --format csv\n"
        )


def test_gen_writes_file(tmp_path, capsys):
    target = tmp_path / "seq.txt"
    code, out, _ = run_cli(
        capsys, "gen", "--ic", "1,1", "--max", "6", "--format", "bfile", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[:2] == ["1 1", "2 1"]


def test_gen_malformed_ic(capsys):
    code, _, err = run_cli(capsys, "gen", "--ic", "x", "--max", "5")
    assert code == 1
    assert "malformed initial condition" in err


def test_gen_overflow_modes(capsys):
    big = str(2**62)
    ic = f"0;{big},{big},3,4"
    code, _, err = run_cli(capsys, "gen", "--ic", ic, "--max", "9")
    assert code == 1 and "64-bit overflow" in err
    code, out, _ = run_cli(
        capsys, "gen", "--ic", ic, "--max", "9", "--mode", "exact", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["terms"][4] == 2**63


def test_sym_text(capsys):
    code, out, _ = run_cli(
        capsys, "sym", "--nmin", "14", "--nmax", "20", "--offsets", "4"
    )
    assert code == 0
    assert out == (
        "convention: plain\n"
        "constraint: 14 <= N <= 20\n"
        "Q(N+1) = 3 for N >= 2\n"
        "Q(N+2) = N+1 for N >= 2\n"
        "Q(N+3) = N+2 for N >= 2\n"
        "Q(N+4) = 5 for N >= 3\n"
        "completed\n"
    )


def test_sym_json(capsys):
    code, out, _ = run_cli(capsys, "sym", "--nmin", "14", "--offsets", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["constraint"] == {"lo": 14, "hi": None}
    assert payload["terms"][1] == {"offset": 2, "a": 1, "b": 1, "min_valid_N": 2}
    assert payload["stop_reason"] == {"kind": "completed"}


def test_sym_bfile_needs_at(capsys):
    code, _, err = run_cli(capsys, "sym", "--nmin", "14", "--format", "bfile")
    assert code == 1
    assert "--at" in err
    code, out, _ = run_cli(
        capsys, "sym", "--nmin", "14", "--offsets", "2", "--at", "30", "--format", "bfile"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1 1" and lines[-1] == "32 31"  # N + 2 specialized terms


def test_rst_csv(capsys):
    code, out, _ = run_cli(capsys, "rst", "--max", "3", "--format", "csv")
    assert code == 0
    assert out == "n,r,s,t\n0,0,1,1\n1,1,1,2\n2,2,2,2\n3,3,2,3\n"


def test_rst_bfile_needs_single_sequence(capsys):
    code, _, err = run_cli(capsys, "rst", "--max", "3", "--format", "bfile")
    assert code == 1
    assert "--which" in err
    code, out, _ = run_cli(
        capsys, "rst", "--max", "3", "--which", "t", "--format", "bfile"
    )
    assert code == 0
    assert out == "0 1\n1 2\n2 2\n3 3\n"


def test_rst_option_error_keeps_existing_file(tmp_path, capsys):
    target = tmp_path / "table.txt"
    target.write_text("kept\n")
    code, out, err = run_cli(
        capsys, "rst", "--max", "3", "--format", "bfile", "--out", str(target)
    )
    assert (code, out) == (1, "")
    assert "--format bfile needs --which r, s or t" in err
    assert target.read_text() == "kept\n"


def test_predict_text(capsys):
    code, out, _ = run_cli(capsys, "predict", "--n", "39", "--max", "200")
    assert code == 0
    assert out.startswith("# <0;1..39>: 86 terms, ended at 87\n")


@pytest.mark.usefixtures("fastest_backend")
@pytest.mark.parametrize("argv, seq", [
    (("predict", "--n", "2907", "--max", "41000"), lambda: predict_sequence(2907, 41000)),
    (("sym", "--nmin", "5", "--at", "40", "--offsets", "28"),
     lambda: specialize(symbolic_extend("plain", NConstraint(5), 28), 40)),
], ids=["predict", "sym-at"])
@pytest.mark.parametrize("fmt", [("text",), ("bfile",), ("csv",), ("json",), ("csv", "--loglog")],
                         ids=["text", "bfile", "csv", "json", "loglog"])
def test_predicted_terms_write_as_their_list(capsys, argv, seq, fmt):
    # the memoryview of terms gives the bytes the same terms give as a list
    seq = seq()
    assert is_int64_view(seq.terms)
    code, out, err = run_cli(capsys, *argv, "--format", *fmt)
    assert (code, err) == (0, "")
    args = argparse.Namespace(out=None, format=fmt[0], loglog=len(fmt) > 1)
    _emit_sequence(GeneratedSequence(seq.ic, list(seq.terms), seq.status), args)
    assert out == capsys.readouterr().out


def test_predict_rejects_exceptional(capsys):
    code, _, err = run_cli(capsys, "predict", "--n", "36", "--max", "100")
    assert code == 1
    assert "non-exceptional" in err


def test_verify_single(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "42", "--max", "500")
    assert code == 0
    assert out == "n=42 ok (500 terms, alive)\n"
    code, out, _ = run_cli(
        capsys, "verify", "--n", "121", "--max", "500", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 121
    assert payload["terminal_agreement"] is True
    assert payload["predicted_status"] == "ended at 407"


def test_verify_range_skips_exceptional(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "35", "--to", "38", "--max", "300")
    assert code == 0
    assert out == (
        "n=35 ok (88 terms, ended at 89)\n"
        "n=37 ok (277 terms, ended at 278)\n"
        "n=38 ok (300 terms, alive)\n"
    )


def test_verify_range_skips_n_below_35(capsys):
    # no N below 35 has a prediction; a range skips them like exceptions
    _, expected, _ = run_cli(capsys, "verify", "--n", "35", "--to", "40", "--max", "100")
    for start in ("0", "1", "2"):
        assert run_cli(
            capsys, "verify", "--n", start, "--to", "40", "--max", "100"
        ) == (0, expected, "")
    code, out, err = run_cli(capsys, "verify", "--n", "-1", "--to", "40", "--max", "100")
    assert (code, out) == (1, "")
    assert err == "qlab: error: n_value must be nonnegative\n"
    code, _, err = run_cli(capsys, "verify", "--n", "0", "--max", "100")
    assert code == 1 and "non-exceptional N >= 35" in err


def test_cli_import_leaves_process_pool_out(fresh_python):
    # the process pool is imported only when --workers starts processes
    code = "import sys, qlab.cli; print('concurrent.futures.process' in sys.modules)"
    assert fresh_python(code) == "False\n"


# prints the qlab modules that a fresh process has loaded after the code before it
_LOADED = "; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'qlab'))"


def test_cli_import_loads_only_the_cli(fresh_python):
    assert fresh_python("import sys, qlab.cli" + _LOADED) == "qlab qlab.cli qlab.errors\n"


@pytest.mark.parametrize("argv, loaded", [
    (["gen", "--ic", "0;1..40", "--max", "60", "--format", "json"], {"engine"}),
    (["rst", "--max", "50"], {"engine", "rst"}),
    (["scan", "--from", "35", "--to", "40", "--max", "100"], {"engine", "predictor"}),
    (["tree", "--levels", "2"], {"engine", "predictor"}),
    (["predict", "--n", "40", "--max", "100"], {"engine", "predictor"}),  # class 4
    (["verify", "--n", "40", "--max", "100"], {"engine", "predictor"}),
    # class 2: its R/S/T blocks load rst
    (["predict", "--n", "38", "--max", "100"], {"engine", "predictor", "rst"}),
    (["sym", "--nmin", "10", "--offsets", "5"], {"engine", "symbolic"}),
])
def test_each_command_loads_only_what_it_runs(fresh_python, argv, loaded):
    # every command also needs the kernel: _backend, and _fallback behind it
    code = f"import os, sys, qlab.cli; qlab.cli.main({argv!r} + ['--out', os.devnull])" + _LOADED
    modules = set(fresh_python(code).split()) - {"qlab._kernel"}
    expected = {"qlab", "qlab.cli", "qlab.errors", "qlab._backend", "qlab._fallback"}
    assert modules == expected | {f"qlab.{name}" for name in loaded}


def test_scan_and_tree_derive_no_closing(fresh_python):
    # both read only the descent's residues: no closing rows, nor the
    # symbolic prefix
    code = ("import os, sys, qlab.cli; from qlab import predictor\n"
            "for argv in (['scan', '--from', '35', '--to', '60', '--max', '200'],"
            " ['tree', '--levels', '3'], ['tree', '--locate', '42']):\n"
            "    assert qlab.cli.main(argv + ['--out', os.devnull]) == 0\n"
            "print(predictor._closing.cache_info().currsize, 'qlab.symbolic' in sys.modules)")
    assert fresh_python(code) == "0 False\n"


@pytest.mark.parametrize("fmt, loaded", [("csv", False), ("json", True)])
def test_only_json_output_loads_json(fresh_python, fmt, loaded):
    # engine imports json inside write_json, its one user
    code = (f"import os, sys, qlab.cli; qlab.cli.main(['rst', '--max', '3', '--format', {fmt!r},"
            " '--out', os.devnull]); print('json' in sys.modules)")
    assert fresh_python(code) == f"{loaded}\n"


def test_convention_choices_are_the_symbolic_ones():
    sym = _build_parser()._subparsers._group_actions[0].choices["sym"]
    (convention,) = [a for a in sym._actions if a.dest == "convention"]
    assert convention.choices == CONVENTIONS
    assert convention.default == CONVENTIONS[0]


def test_verify_workers_match_serial(capsys):
    code, serial, _ = run_cli(capsys, "verify", "--n", "35", "--to", "45", "--max", "200")
    assert code == 0
    code, parallel, _ = run_cli(
        capsys, "verify", "--n", "35", "--to", "45", "--max", "200", "--workers", "2"
    )
    assert code == 0
    assert parallel == serial


def test_scan_workers_match_serial(capsys):
    # two real processes: the worker, and the functions bound to it, must pickle
    argv = ("scan", "--from", "30", "--to", "45", "--max", "200")
    code, serial, _ = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, *argv, "--workers", "2") == (0, serial, "")


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts no
    process and maps in this one."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


def test_workers_capped_at_task_count(capsys, monkeypatch):
    # 9 non-exceptional N in 35..45 and 3 N in 2..4: never 500 processes,
    # on a machine with more CPUs than either
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr("os.cpu_count", lambda: 64)
    _, serial_verify, _ = run_cli(capsys, "verify", "--n", "35", "--to", "45", "--max", "200")
    _, serial_scan, _ = run_cli(capsys, "scan", "--from", "2", "--to", "4", "--max", "100")
    with mock.patch("concurrent.futures.ProcessPoolExecutor", _SerialPool):
        verify = run_cli(
            capsys, "verify", "--n", "35", "--to", "45", "--max", "200", "--workers", "500"
        )
        scan = run_cli(
            capsys, "scan", "--from", "2", "--to", "4", "--max", "100", "--workers", "500"
        )
    assert verify == (0, serial_verify, "")
    assert scan == (0, serial_scan, "")
    assert _SerialPool.sizes == [9, 3]


@pytest.mark.parametrize("cpus, sizes", [(3, [3, 3]), (1, []), (None, [])])
def test_workers_capped_at_cpu_count(capsys, monkeypatch, cpus, sizes):
    # 11 N in 2..12 and 9 in 35..45 asking for 100000 processes: one per CPU
    # at most, and a serial run in this process when that is one (or the
    # count is unknown)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    scan = ("scan", "--from", "2", "--to", "12", "--max", "100")
    verify = ("verify", "--n", "35", "--to", "45", "--max", "200")
    serial = [run_cli(capsys, *argv) for argv in (scan, verify)]
    with mock.patch("concurrent.futures.ProcessPoolExecutor", _SerialPool):
        parallel = [run_cli(capsys, *argv, "--workers", "100000") for argv in (scan, verify)]
    assert parallel == serial
    assert serial[0][0] == serial[1][0] == 0
    assert _SerialPool.sizes == sizes


@pytest.mark.parametrize("argv", [
    ("verify", "--n", "35", "--max", "100"),
    ("verify", "--n", "35", "--to", "40", "--max", "40"),
    ("scan", "--from", "2", "--to", "5", "--max", "10"),
])
@pytest.mark.parametrize("workers", ["0", "-1", "-3"])
def test_workers_below_one_are_a_usage_error(capsys, argv, workers):
    result = run_cli(capsys, *argv, "--workers", workers)
    assert result == (1, "", "qlab: error: --workers must be at least 1\n")


def test_verify_line_mismatch_rendering():
    report = PredictionReport(
        matched_through=129,
        first_mismatch=(130, 53, 52),
        predicted_status=SequenceStatus.ended(237),
        actual_status=SequenceStatus.alive(),
        terminal_agreement=False,
    )
    assert _verify_line(36, report) == "n=36 MISMATCH at 130: predicted 53, actual 52"
    disagree = PredictionReport(
        matched_through=10,
        first_mismatch=None,
        predicted_status=SequenceStatus.ended(11),
        actual_status=SequenceStatus.alive(),
        terminal_agreement=False,
    )
    assert _verify_line(9, disagree) == (
        "n=9 TERMINAL DISAGREEMENT: predicted ended at 11, actual alive"
    )


def test_tree_render(capsys):
    code, out, _ = run_cli(capsys, "tree", "--levels", "2")
    assert code == 0
    assert out == (
        "root\n"
        "  0:4\n"
        "  1:0\n"
        "  2\n"
        "    02:2\n"
        "    12:0\n"
        "    22:3\n"
        "    32 (unresolved)\n"
        "    42:4\n"
        "  3:2\n"
        "  4:3\n"
    )


@pytest.mark.usefixtures("fastest_backend")
@pytest.mark.parametrize("argv", [
    ("gen", "--ic", "1,1", "--max", "40961"),
    ("gen", "--ic", f"0;{2**62},{2**62},3,4", "--max", "9", "--mode", "exact"),
    ("predict", "--n", "39", "--max", "200"),
    ("sym", "--nmin", "14"),
    ("sym", "--nmin", "14", "--at", "30"),
    *(("rst", "--max", "41000", "--which", which) for which in ("r", "s", "t", "all")),
    ("verify", "--n", "121", "--max", "500"),
    ("verify", "--n", "35", "--to", "45", "--max", "300"),
    ("tree", "--levels", "2"),
    ("tree", "--locate", "42"),
    ("gen", "--ic", "0;9223372036854775808,1", "--max", "30", "--mode", "exact"),
])
def test_json_lines_are_what_json_dump_writes(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "") and out.endswith("\n")
    for line in out.splitlines():
        assert line == json.dumps(json.loads(line))


def test_tree_json(capsys):
    code, out, _ = run_cli(capsys, "tree", "--levels", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "internal"
    assert payload["children"]["0"] == {"digits": "0", "kind": "leaf", "leaf_type": 4}
    assert payload["children"]["2"] == {"digits": "2", "kind": "truncated"}


def test_tree_locate(capsys):
    code, out, _ = run_cli(capsys, "tree", "--locate", "42")
    assert code == 0
    assert out == "132:2\n"
    code, out, _ = run_cli(capsys, "tree", "--locate", "42", "--format", "json")
    assert json.loads(out) == {"n": 42, "digits": "132", "classification": 2}


def test_scan_csv(capsys):
    code, out, _ = run_cli(capsys, "scan", "--from", "35", "--to", "37", "--max", "500")
    assert code == 0
    assert out == "n,j,classification,length\n35,1,4,88\n36,1,0,alive\n37,2,3,277\n"


@pytest.mark.parametrize("backend", ["compiled", "python"])
@pytest.mark.parametrize("start, stop", [(2, 60), (1000, 1099)])
def test_scan_matches_the_per_n_runs(request, capsys, backend, start, stop):
    # 2..60 holds N < 35 and exceptional N; the reference keeps every term
    kernel = request.getfixturevalue("compiled_kernel") if backend == "compiled" else None
    with mock.patch.object(_backend, "_kernel", kernel):
        code, out, err = run_cli(
            capsys, "scan", "--from", str(start), "--to", str(stop), "--max", "20000"
        )
        want = ["n,j,classification,length"]
        for n in range(start, stop + 1):
            profile = abc_profile(n)
            seq = evaluate(InitialCondition.identity(n, zero_extended=True), 20000, "exact")
            j, cls = ("" if v is None else v for v in (profile.j, profile.classification))
            want.append(f"{n},{j},{cls},{'alive' if seq.status.is_alive else len(seq)}")
    assert (code, err) == (0, "")
    assert out.splitlines() == want


@pytest.mark.usefixtures("fastest_backend")
@pytest.mark.parametrize("argv, finite, alive", [
    (("scan", "--from", "1000", "--to", "1019", "--max", "20000"),
     "1000,1,4,2018\n", "1002,2,2,alive\n"),
    (("verify", "--n", "1000", "--to", "1019", "--max", "20000"),
     "n=1000 ok (2018 terms, ended at 2019)\n", "n=1002 ok (20000 terms, alive)\n"),
], ids=["scan", "verify"])
def test_benchmark_sized_blocks_match_the_python_backend(capsys, argv, finite, alive):
    # the scan benchmark's size: runs of about 2N terms and runs alive at
    # the budget, each from an identity prefix the kernel reads as a range
    compiled = run_cli(capsys, *argv)
    with mock.patch.object(_backend, "_kernel", None):
        assert run_cli(capsys, *argv) == compiled
    code, out, err = compiled
    assert (code, err, len(out.splitlines())) == (0, "", 20 + (argv[0] == "scan"))
    assert finite in out and alive in out


@pytest.mark.parametrize("argv, message", [
    (("scan", "--from", "10", "--to", "5", "--max", "100"), "--to must be >= --from"),
    (("verify", "--n", "40", "--to", "35", "--max", "100"), "--to must be >= --n"),
    (("verify", "--n", "35", "--to", "60", "--max", "50"),
     "--max must cover the identity prefix of every N"),
    (("scan", "--from", "1", "--to", "5", "--max", "100"), "scan starts at N >= 2"),
    (("scan", "--from", "35", "--to", "60", "--max", "50"),
     "--max must cover the identity prefix of every N"),
], ids=["scan-to-below-from", "verify-to-below-n", "verify-max-below-n", "scan-from-below-2",
        "scan-max-below-n"])
def test_scan_range_validation(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"qlab: error: {message}\n"


def test_unwritable_out(capsys):
    code, _, err = run_cli(
        capsys, "gen", "--ic", "1,1", "--max", "5", "--out", "/no-such-dir/x"
    )
    assert code == 1
    assert "qlab: error:" in err


_HUGE_N = str(10**22)


@pytest.mark.parametrize("argv", [
    ("predict", "--n", _HUGE_N, "--max", _HUGE_N),
    ("verify", "--n", _HUGE_N, "--max", _HUGE_N),
    ("sym", "--nmin", "2", "--offsets", "3", "--at", str(10**23)),
    ("scan", "--from", _HUGE_N, "--to", _HUGE_N, "--max", _HUGE_N),
])
def test_n_beyond_a_python_size_is_a_runtime_error(capsys, argv):
    # every N here exceeds sys.maxsize, so no list of that size is attempted
    assert int(_HUGE_N) > sys.maxsize
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("qlab: error: ") and err.count("\n") == 1


_PAST_MAXSIZE = str(sys.maxsize + 1)


def _too_large(option):
    return f"qlab: error: {option} must be at most {sys.maxsize}\n"


@pytest.mark.parametrize("backend", ["compiled", "python"])
@pytest.mark.parametrize("argv, err", [
    (("predict", "--n", _HUGE_N, "--max", _HUGE_N), _too_large("--n")),
    (("predict", "--n", _PAST_MAXSIZE, "--max", "5"), _too_large("--n")),
    (("verify", "--n", _HUGE_N, "--max", _HUGE_N), _too_large("--n")),
    (("verify", "--n", "40", "--to", _HUGE_N, "--max", _HUGE_N), _too_large("--to")),
    (("scan", "--from", _HUGE_N, "--to", str(10**22 + 1), "--max", str(10**22 + 2)),
     _too_large("--from")),
    (("scan", "--from", "40", "--to", _HUGE_N, "--max", _HUGE_N), _too_large("--to")),
    (("sym", "--nmin", "14", "--offsets", "4", "--at", _HUGE_N, "--format", "bfile"),
     _too_large("--at")),
    (("gen", "--ic", f"0;1..{_HUGE_N}", "--max", "5"),
     f"qlab: error: run '1..{_HUGE_N}' in '0;1..{_HUGE_N}' is longer than {sys.maxsize}"
     " terms\n"),
    # sys.maxsize itself passes the size check, and fails the next one
    (("predict", "--n", str(sys.maxsize), "--max", "5"),
     "qlab: error: max_terms must cover the identity prefix\n"),
    # rst checks its --max as the others check theirs, before any table
    (("rst", "--max", _PAST_MAXSIZE), _too_large("--max")),
    (("rst", "--max", str(10**20), "--format", "csv"), _too_large("--max")),
])
def test_n_past_a_python_size_names_its_option(request, capsys, backend, argv, err):
    kernel = request.getfixturevalue("compiled_kernel") if backend == "compiled" else None
    with mock.patch.object(_backend, "_kernel", kernel):
        assert run_cli(capsys, *argv) == (1, "", err)


@pytest.mark.parametrize("backend", ["compiled", "python"])
def test_rst_past_memory_is_out_of_memory(request, capsys, backend):
    # each R/S/T table is allocated at its 10^17 + 1 rows at once: 8e17
    # bytes, past any address space, fail at once on either backend
    kernel = request.getfixturevalue("compiled_kernel") if backend == "compiled" else None
    with mock.patch.object(_backend, "_kernel", kernel):
        assert run_cli(capsys, "rst", "--max", str(10**17), "--format", "csv") == (
            1, "", "qlab: error: out of memory\n")


@pytest.mark.parametrize("backend", ["compiled", "python"])
def test_predict_past_memory_is_out_of_memory(request, capsys, backend):
    # the identity condition of 10^17 terms is sized at once, 8e17 bytes,
    # before a predicted term is built, instead of growing term by term
    # toward the memory of the machine
    kernel = request.getfixturevalue("compiled_kernel") if backend == "compiled" else None
    with mock.patch.object(_backend, "_kernel", kernel):
        assert run_cli(capsys, "predict", "--n", str(10**17), "--max", str(10**17 + 60)) == (
            1, "", "qlab: error: out of memory\n")


def test_version_and_usage_errors(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0 and out.startswith("qlab ")
    code, _, err = run_cli(capsys)
    assert code == 1 and "required: command" in err
    code, _, err = run_cli(capsys, "gen")
    assert code == 1 and "required" in err
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 1


@pytest.mark.parametrize("argv, target", [
    (("predict", "--n", "39", "--max", "500"), "qlab.predictor.materialise"),
    (("scan", "--from", "35", "--to", "36", "--max", "200"), "qlab._backend.q_check"),
])
def test_out_of_memory_is_a_runtime_error(capsys, argv, target):
    # what an N or a --max too large for memory raises, without allocating it
    with mock.patch(target, side_effect=MemoryError):
        code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", "qlab: error: out of memory\n")
