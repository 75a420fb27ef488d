"""qlab benchmark: one workload per run, timed end to end or traced per layer.

    python3 perfbench/run.py --workload oracle_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from a source checkout.  The package is built in place through the
repository's own setup.py, then driven through its public API only
(``qlab.*`` and ``qlab.cli.main``), single-process.  Each metric is printed on
its own line with its unit, the kernel backend and the integer mode; the last
line is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 only when every output passed its check.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics: busy time per
round and counts per round for each layer, derived from spans recorded around
the calls into each module, plus the tracing overhead.  Times are reported at
a reference speed (see PROBE_REF_S and LAUNCH_REF_S); perfbench/README.md
explains why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from random import Random

from checks import check_output, check_verify
from spans import Tracer
from workloads import ORACLE_MAX, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_run"
# Time of probe() on a 2-core Xeon VM under Python 3.11 while its neighbours
# are idle.  Times are reported at this reference speed: measured seconds
# times PROBE_REF_S over the mean probe time measured alongside.  The host
# this benchmark was written on slows by up to 1.8x for seconds to a minute
# at a time under its neighbours' load.
PROBE_REF_S = 1.25e-3
# Time of a fresh interpreter running ``import numpy`` on the same VM, at the
# speed where probe() takes PROBE_REF_S.  A launch is gauged by such a launch
# just before it: probe() does not track how launches slow down (reading
# files, mapping libraries, faulting pages in), and scaling by it made
# setup_s move by 25% from one quarter of an hour to the next.
LAUNCH_REF = "import numpy"
LAUNCH_REF_S = 0.145
SETUP_LAUNCHES = 15  # at the least; one follows each timed round
TIME_CAP_S = 120  # stop adding rounds past this, whatever min_rounds says

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}

# layer -> (counts it reports, the count its ns_per_<count> divides by)
LAYERS = {
    "engine.parse_ic": ((), None),
    "engine.evaluate": (("terms",), "terms"),
    "predictor.predict": (("terms",), "terms"),
    "predictor.compare": (("terms",), None),
    "predictor.descent": (("depth_sum",), None),
    "cli.emit": (("bytes",), "bytes"),
    "rst.compute": (("rows",), "rows"),
}


def per_layer_units() -> dict[str, str]:
    units = {"import.s": "s", "import.numpy.s": "s"}
    for layer, (counts, per) in LAYERS.items():
        units[f"{layer}.s"] = "s"
        units[f"{layer}.calls"] = "count"
        for c in counts:
            units[f"{layer}.{c}"] = "bytes" if c == "bytes" else "count"
        if per:
            units[f"{layer}.ns_per_{per.rstrip('s')}"] = "ns"
    units["engine.evaluate.fill_ratio"] = "ratio"
    units.update({"trace.round_s": "s", "trace.untraced_round_s": "s",
                  "trace.overhead_s": "s", "trace.accounted": "ratio"})
    return units


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def build() -> None:
    """Build in place through setup.py (a no-op when there is no extension)."""
    proc = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode:
        fail(f"build failed:\n{proc.stdout}{proc.stderr}")


def launch(code: str) -> tuple[float, str]:
    """Wall time of a fresh interpreter running ``code``, and its stdout."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode:
        fail(f"fresh interpreter failed:\n{proc.stderr}")
    return elapsed, proc.stdout


def gauged_launch(code: str) -> tuple[float, float, str]:
    """launch(code), gauged by a LAUNCH_REF launch just before it:
    (speed factor, wall seconds, stdout)."""
    ref, _ = launch(LAUNCH_REF)
    elapsed, out = launch(code)
    return ref / LAUNCH_REF_S, elapsed, out


def import_seconds() -> tuple[float, float]:
    """Median in-process import time of qlab.cli, and of numpy within it,
    at reference speed."""
    code = ("import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter();"
            " import qlab.cli; t2 = time.perf_counter(); print(t2 - t0, t1 - t0)")
    launch(code)  # writes bytecode caches in a fresh checkout
    runs = []
    for _ in range(SETUP_LAUNCHES):
        factor, _, out = gauged_launch(code)
        runs.append([float(v) / factor for v in out.split()])
    return statistics.median(r[0] for r in runs), statistics.median(r[1] for r in runs)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Run:
    """Timed operations of one workload, with their outputs checked.

    Outputs of the first round are kept and checked in full after timing;
    a later round's output of the same operation must hash identically.
    """

    def __init__(self, qlab, ops, work: Path):
        self.qlab, self.ops, self.work = qlab, ops, work
        self.records: list[dict] = []  # round, op, seconds, items, error, factor
        self.first_hash: dict[int, str] = {}
        self.factors: list[float] = []  # per round: mean probe time / PROBE_REF_S
        self.rounds = 0
        self.wall = 0.0  # wall seconds of the latest round, harness included

    def call(self, op, path: Path, tracer: Tracer | None):
        """Issue one operation: a qlab command line (returns its exit code)
        or a verify_against_bruteforce call (returns its report)."""
        span = "cli.main" if op.argv else "predictor.verify"
        idx = tracer.begin(span) if tracer else None
        try:
            if op.argv:
                return self.qlab.cli.main([*op.argv, "--out", str(path)])
            return self.qlab.verify_against_bruteforce(op.n, ORACLE_MAX)
        finally:
            if tracer:
                tracer.end(idx)

    def outcome(self, op, i: int, path: Path, result, keep: bool) -> tuple[int, str | None]:
        """(items finished, error or None) of one operation, checked untimed."""
        if not op.argv:
            error = check_verify(result)
            return (0 if error else result.matched_through), error
        if result:
            return 0, f"exit code {result}"
        digest = sha256(path)
        if keep:
            self.first_hash[i] = digest
        elif digest != self.first_hash.get(i):
            return 0, "output differs from the first round's"
        return op.items, None

    def round(self, tracer: Tracer | None = None, record: bool = True) -> float:
        """Run every operation once, a speed probe before each and after the
        last; returns the summed operation time at reference speed."""
        busy, probes = 0.0, []
        start = time.perf_counter()
        for i, op in enumerate(self.ops):
            probes.append(probe())
            keep = record and self.rounds == 0 and bool(op.argv)
            path = self.work / (f"op{i}.{op.ext}" if keep else f"cur.{op.ext}")
            t0 = time.perf_counter()
            try:
                result, error = self.call(op, path, tracer), None
            except Exception as exc:  # an operation that raises is a failed operation
                result, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            busy += seconds
            items = 0
            if error is None:
                items, error = self.outcome(op, i, path, result, keep)
            if tracer and error is None:
                if op.argv:
                    tracer.counts["cli.main"]["bytes"] += path.stat().st_size
                else:
                    tracer.counts["predictor.verify"]["terms"] += items
            if op.argv and not keep:
                path.unlink(missing_ok=True)
            if record:
                self.records.append({"round": self.rounds, "op": i, "seconds": seconds,
                                     "items": items, "error": error})
        probes.append(probe())
        self.wall = time.perf_counter() - start
        factor = statistics.fmean(probes) / PROBE_REF_S
        if record:
            for rec, before, after in zip(self.records[-len(self.ops):], probes, probes[1:]):
                rec["factor"] = (before + after) / 2 / PROBE_REF_S
            self.factors.append(factor)
            self.rounds += 1
        return busy / factor

    def check_outputs(self, seed: int) -> None:
        """Check the kept first-round outputs; a failure fails that operation
        in every round, since later rounds produced the same bytes."""
        rng = Random(seed)
        for i, op in enumerate(self.ops):
            if i not in self.first_hash:
                continue
            error = check_output(op, str(self.work / f"op{i}.{op.ext}"), rng)
            if error:
                for rec in self.records:
                    if rec["op"] == i and rec["error"] is None:
                        rec["items"], rec["error"] = 0, f"{' '.join(op.argv)}: {error}"

    @property
    def failed(self) -> list[dict]:
        return [r for r in self.records if r["error"]]

    def samples(self, normalise: bool = True) -> list[float]:
        """Every (round, operation) latency, by default at reference speed
        (divided by the speed factor probed around that operation)."""
        return [rec["seconds"] / (rec["factor"] if normalise else 1.0) for rec in self.records]


def probe() -> float:
    """Seconds for a fixed pure-Python run of Hofstadter's Q: a gauge of the
    machine's speed.  Scattered list reads like these slow down under the
    neighbours' load about as much as qlab's own work does; a plain
    arithmetic loop slows down about 10% less."""
    t0 = time.perf_counter()
    q = [0, 1, 1]
    for n in range(3, 12_000):
        q.append(q[n - q[n - 1]] + q[n - q[n - 2]])
    return time.perf_counter() - t0


def tail_percentile(samples: int) -> int:
    """The highest of the usual percentiles with at least ten samples beyond it."""
    return next(p for p in (99, 95, 90, 75, 50) if samples * (100 - p) >= 1000)


def nearest_rank(values: list[float], pct: int) -> float:
    return sorted(values)[math.ceil(len(values) * pct / 100) - 1]


def keep_going(start: float, rounds: int, seconds: float, min_rounds: int) -> bool:
    """Another round fits into ``seconds``, or fewer than min_rounds ran."""
    elapsed = time.perf_counter() - start
    if elapsed > TIME_CAP_S:
        return False
    return rounds < min_rounds or elapsed * (rounds + 1) / rounds <= seconds


def setup_launch() -> tuple[float, float]:
    """(reference-speed, raw) seconds for a fresh interpreter to finish
    `import qlab.cli`."""
    factor, seconds, _ = gauged_launch("import qlab.cli")
    return seconds / factor, seconds


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(run: Run, seconds: float, min_rounds: int,
            base_rss_mb: float) -> tuple[dict[str, float], dict[str, float]]:
    """Repeat rounds for ``seconds``; returns setup_s and peak_rss_mb, at
    reference speed and raw.

    peak_rss_mb is the process's peak RSS above ``base_rss_mb``, its RSS
    before qlab was imported: the memory qlab took, its modules included.
    It is read after ``min_rounds`` rounds, so that it does not grow with the
    harness's records on a machine fast enough for more.  The machine's speed
    drifts over tens of seconds, so the fresh-interpreter launches behind
    setup_s are spread between the rounds.
    """
    launch("import qlab.cli")  # writes bytecode caches in a fresh checkout
    setup = []
    start = time.perf_counter()
    while True:
        run.round()
        if run.rounds == min_rounds:
            peak_rss_mb = max_rss_mb() - base_rss_mb
        setup.append(setup_launch())
        if not keep_going(start, run.rounds, seconds, min_rounds):
            break
    while len(setup) < SETUP_LAUNCHES:
        setup.append(setup_launch())
    return ({"setup_s": statistics.median(s[0] for s in setup), "peak_rss_mb": peak_rss_mb},
            {"setup_s": statistics.median(s[1] for s in setup)})


def latency_metrics(run: Run, tail_pct: int, normalise: bool = True) -> dict[str, float]:
    """Throughput, and latency percentiles over every (round, operation)
    sample."""
    lat = run.samples(normalise)
    return {
        "items_per_s": sum(rec["items"] for rec in run.records) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": nearest_rank(lat, tail_pct),
    }


def measure_traced(run: Run, seconds: float, min_rounds: int,
                   spans_path: Path) -> dict[str, float]:
    """Alternate untraced and traced rounds.

    Per-layer values are per round: a count from any traced round (they must
    all agree) and a time as the median over the traced rounds, at reference
    speed.
    """
    tracer = Tracer()
    untraced, traced, walls, layer_s, counts = [], [], [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(run.round())
        first = len(tracer.spans)
        tracer.counts.clear()
        tracer.install(run.qlab)
        try:
            traced.append(run.round(tracer))
        finally:
            tracer.uninstall()
        factor = run.factors[-1]
        walls.append(run.wall / factor)
        layer_s.append({k: v / factor for k, v in tracer.layer_seconds(first).items()})
        counts.append(tracer.layer_counts())
        if not keep_going(start, len(traced), seconds, min_rounds):
            break
    tracer.dump(str(spans_path))

    for key in sorted(set().union(*counts)):
        values = [c[key] for c in counts]
        if len(set(values)) > 1:
            print(f"# count not repeatable across traced rounds: {key} {values}")
    metrics: dict[str, float] = {}
    c = counts[0]
    for layer, (names, per) in LAYERS.items():
        busy = statistics.median(s.get(layer, 0.0) for s in layer_s)
        metrics[f"{layer}.s"] = busy
        metrics[f"{layer}.calls"] = c[f"{layer}.calls"]
        for name in names:
            metrics[f"{layer}.{name}"] = c[f"{layer}.{name}"]
        if per:
            work = c[f"{layer}.{per}"]
            metrics[f"{layer}.ns_per_{per.rstrip('s')}"] = busy / work * 1e9 if work else 0.0
    asked = c["engine.evaluate.asked"]
    metrics["engine.evaluate.fill_ratio"] = c["engine.evaluate.terms"] / asked if asked else 0.0
    round_s, untraced_s = statistics.median(traced), statistics.median(untraced)
    # The wall time includes the harness (speed probes, hashing outputs),
    # which no layer accounts for.
    accounted = statistics.median(sum(s.values()) / w for s, w in zip(layer_s, walls))
    metrics.update({"trace.round_s": round_s, "trace.untraced_round_s": untraced_s,
                    "trace.overhead_s": round_s - untraced_s, "trace.accounted": accounted})
    print(f"# traced rounds: {len(traced)}, untraced rounds: {len(untraced)}, spans: {spans_path}")
    return metrics


def run_all(args) -> int:
    worst = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(argv, cwd=ROOT).returncode)
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)

    for var in ("QLAB_FORCE_PYTHON", "QLAB_NO_EXTENSION", "QLAB_INT_MODE"):
        os.environ.pop(var, None)
    if not (ROOT / "setup.py").is_file() or not (ROOT / "src" / "qlab" / "__init__.py").is_file():
        fail(f"no qlab source tree (setup.py, src/qlab) under {ROOT}")
    build()
    if args.trace:
        import_s, import_numpy_s = import_seconds()

    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    base_rss_mb = max_rss_mb()  # peak_rss_mb counts from here
    import qlab
    import qlab.cli

    if not Path(qlab.__file__).resolve().is_relative_to(ROOT / "src"):
        fail(f"imported qlab from {qlab.__file__}, not from {ROOT / 'src'}")
    mode = qlab.resolve_int_mode(None)
    tag = f"backend={qlab.BACKEND} mode={mode}"
    workload = WORKLOADS[args.workload]
    meta = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "backend": qlab.BACKEND, "int_mode": mode,
        "commit": git_commit(), "python": sys.version.split()[0], "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(), "item": workload.item,
    }
    print("# meta " + json.dumps(meta))

    work = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(qlab, workload.make_round(Random(args.seed)), work)
        Run(qlab, [*workload.warmup, run.ops[0]], work).round(record=False)
        if args.trace:
            metrics = measure_traced(run, args.seconds, workload.min_rounds,
                                     WORK / f"spans-{workload.name}.jsonl")
            metrics.update({"import.s": import_s, "import.numpy.s": import_numpy_s})
            units = per_layer_units()
        else:
            metrics, raw = measure(run, args.seconds, workload.min_rounds, base_rss_mb)
            units = END_TO_END
        run.check_outputs(args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # fixed per workload, so that a run with more rounds reports the same percentile
    tail_pct = tail_percentile(workload.min_rounds * len(run.ops))
    if not args.trace:
        metrics.update(latency_metrics(run, tail_pct))
        raw.update(latency_metrics(run, tail_pct, normalise=False))

    failed = run.failed
    for rec in failed[:5]:
        print(f"# FAILED round {rec['round']} op {rec['op']}: {rec['error']}")
    attempted = len(run.records)
    for name, unit in units.items():
        what = f" (p{tail_pct} of {attempted} samples)" if name == "op_tail_s" else ""
        print(f"{workload.name} {name} {metrics[name]:.6g} {unit}{what} {tag}")
    print(f"{workload.name} fail_ratio {len(failed) / attempted:.6g} ratio {tag}")
    if not args.trace:
        print(f"# op latencies: {len(run.records)} samples ({run.rounds} rounds of"
              f" {len(run.ops)} operations); op_tail_s is p{tail_pct}; items are {workload.item}")
        print("# raw wall-clock values: " + ", ".join(f"{k}={v:.6g}" for k, v in raw.items())
              + f"; speed factors per round: {', '.join(f'{f:.3f}' for f in run.factors)}")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
