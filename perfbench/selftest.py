"""Show that each output checker accepts qlab's output and rejects corruptions.

    python3 perfbench/selftest.py

Writes small outputs with qlab into .bench_run/selftest, runs each checker on
the output as written and on several corrupted copies, and checks that
BENCHMARK.json names exactly the workloads and metrics run.py reports.
Prints one line per case and exits nonzero if any case goes the wrong way.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path
from random import Random

from checks import check_output, check_verify
from run import END_TO_END, ROOT, WORK, per_layer_units
from workloads import WORKLOADS, Op

sys.path.insert(0, str(ROOT / "src"))
import qlab  # noqa: E402
import qlab.cli  # noqa: E402

GEN_TERMS = 2000


def bump_line(text: str, at: float) -> str:
    """Add 1 to the last number on the line a fraction ``at`` into the text."""
    lines = text.splitlines()
    i = int(len(lines) * at)
    head, sep, last = lines[i].rpartition("," if "," in lines[i] else " ")
    lines[i] = f"{head}{sep}{int(last) + 1}"
    return "\n".join(lines) + "\n"


def drop_last_line(text: str) -> str:
    return "\n".join(text.splitlines()[:-1]) + "\n"


def edit_json(change):
    """A corruption that applies ``change`` to the decoded JSON payload."""
    def apply(text: str) -> str:
        payload = json.loads(text)
        change(payload)
        return json.dumps(payload) + "\n"
    return apply


def bump_term(payload: dict) -> None:
    payload["terms"][1200] += 1


def gen_corruptions(fmt: str):
    if fmt == "json":
        return {
            "term changed": edit_json(bump_term),
            "last term dropped": edit_json(lambda p: p["terms"].pop()),
            "status changed": edit_json(lambda p: p.update(status="died at 2001")),
        }
    if fmt == "text":
        status = lambda t: t.replace("terms, alive", "terms, died at 2001", 1)  # noqa: E731
    else:
        status = lambda t: t + "# died at 2001\n"  # noqa: E731
    return {
        "term changed": lambda t: bump_line(t, 0.6),
        "last line dropped": drop_last_line,
        "status changed": status,
    }


def cases():
    """(label, op, corruptions) for one small output of each command line."""
    for ic, prefix, zero in (("1,1", (1, 1), False), ("1..5", (1, 2, 3, 4, 5), False),
                             ("0;1..38", tuple(range(1, 39)), True)):
        for fmt in ("text", "bfile", "csv", "json"):
            argv = ("gen", "--ic", ic, "--max", str(GEN_TERMS), "--mode", "fast64", "--format", fmt)
            yield (f"gen {ic} {fmt}", Op(items=GEN_TERMS, argv=argv, ext=fmt, prefix=prefix,
                                          zero_extended=zero), gen_corruptions(fmt))
    argv = ("scan", "--from", "100", "--to", "124", "--max", "20000", "--workers", "1")
    yield "scan", Op(items=25, argv=argv, ext="csv"), {
        "classification changed": lambda t: t.replace("\n103,1,2,", "\n103,1,3,"),
        "every length wrong": lambda t: "\n".join(
            line if line.startswith("n,") else line.rpartition(",")[0] + ",1"
            for line in t.splitlines()) + "\n",
        "row dropped": drop_last_line,
    }
    argv = ("rst", "--max", "3000", "--format", "csv")
    yield "rst", Op(items=3001, argv=argv, ext="csv"), {
        "t changed": lambda t: bump_line(t, 0.5),
        "r changed": lambda t: t.replace("\n1500,", "\n1500,1"),
        "row dropped": drop_last_line,
        "ended trailer": lambda t: t + "# ended (r) at 3001\n",
    }


def main() -> int:
    work = WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wrong = 0

    def expect(label: str, error: str | None, accept: bool) -> None:
        nonlocal wrong
        ok = (error is None) == accept
        wrong += not ok
        verdict = "accepted" if error is None else f"rejected ({error})"
        print(f"{'PASS' if ok else 'FAIL'}: {label}: {verdict}")

    try:
        for label, op, corruptions in cases():
            path = work / f"out.{op.ext}"
            if qlab.cli.main([*op.argv, "--out", str(path)]):
                expect(label, "qlab exited nonzero", True)
                continue
            text = path.read_text()
            expect(f"{label} as written", check_output(op, str(path), Random(0)), True)
            for name, corrupt in corruptions.items():
                bad = work / f"bad.{op.ext}"
                bad.write_text(corrupt(text))
                expect(f"{label} {name}", check_output(op, str(bad), Random(0)), False)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = qlab.verify_against_bruteforce(40, 5000)
    expect("verify N=40", check_verify(report), True)
    for label, change in (("mismatch", {"first_mismatch": (50, 3, 4)}),
                          ("terminal disagreement", {"terminal_agreement": False})):
        expect(f"verify {label}", check_verify(dataclasses.replace(report, **change)), False)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    reported = {"workloads": list(WORKLOADS), "end_to_end": END_TO_END,
                "per_layer": per_layer_units()}
    for key in declared:
        expect(f"BENCHMARK.json {key} match run.py",
               None if declared[key] == reported[key] else f"{declared[key]} != {reported[key]}",
               True)
    print(f"{wrong} case(s) went the wrong way")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
