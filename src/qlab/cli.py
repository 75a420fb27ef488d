"""Command-line front end.

Subcommands:
  gen      run the recurrence from an initial condition
  sym      derive symbolic prefix terms for identity conditions
  rst      tabulate the R/S/T system
  predict  emit the predicted sequence for a zero-extended identity condition
  verify   compare predictions against the actual recurrence
  tree     print or query the base-5 classification tree
  scan     tabulate classification and observed length over a range of N

Each subparser declares its options once and names its handler through
``set_defaults(handler=...)``; the handlers read the parsed namespace.
Importing this module loads only argparse and :mod:`qlab.errors`: each
handler imports the modules it runs, so that ``gen`` never loads the
predictor.
Integer tables (sequences in text, bfile, csv and json, and the R/S/T rows)
are formatted by :func:`qlab._backend.format_rows`, through the writers of
:mod:`qlab.engine`; every ``--format json`` goes through
:func:`qlab.engine.write_json`.  ``scan`` takes each run's status and
length under zero extension from :func:`qlab._backend.q_check` with no
tiles: the kernel runs the recurrence term by term and builds no list.

Exit codes: 0 on success, 1 for usage and runtime problems (bad arguments,
64-bit overflow, I/O failures), 2 for a broken internal invariant.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from functools import cache, partial

from . import __version__
from .errors import DivisibilityError, QlabError, ValidationError

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; remap to 1 (2 means a broken
    invariant here).  Subparsers inherit this class."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


@contextmanager
def _open_out(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        fh = open(path, "w", encoding="utf-8")
        try:
            yield fh
        finally:
            fh.close()


def _check_loglog(args: argparse.Namespace) -> None:
    if args.loglog and args.format != "csv":
        raise ValidationError("--loglog only applies to --format csv")


def _emit_sequence(seq, args: argparse.Namespace) -> None:
    from .engine import write_bfile, write_csv, write_json, write_table

    with _open_out(args.out) as out:
        if args.format == "bfile":
            write_bfile(seq, out)
        elif args.format == "csv":
            write_csv(seq, out, loglog=args.loglog)
        elif args.format == "json":
            write_json(out, {"ic": str(seq.ic), "status": str(seq.status), "terms": seq.terms})
        else:
            out.write(f"# <{seq.ic}>: {len(seq)} terms, {seq.status}\n")
            write_table(out, (seq.terms,), None, " ", per_row=10)


def _run_gen(args: argparse.Namespace) -> int:
    from .engine import evaluate, parse_ic

    _check_loglog(args)
    ic = parse_ic(args.ic)
    seq = evaluate(ic, args.max_terms, mode=args.mode)
    _emit_sequence(seq, args)
    return 0


def _run_sym(args: argparse.Namespace) -> int:
    from .engine import write_json
    from .symbolic import NConstraint, specialize, symbolic_extend

    _check_loglog(args)
    _check_size("--at", args.at)
    constraint = NConstraint(args.nmin, args.nmax)
    prefix = symbolic_extend(args.convention, constraint, args.offsets)
    if args.at is not None:
        _emit_sequence(specialize(prefix, args.at), args)
        return 0
    if args.format in ("bfile", "csv"):
        raise ValidationError(f"--format {args.format} needs --at to pick a concrete N")
    with _open_out(args.out) as out:
        if args.format == "json":
            write_json(out, prefix.to_json())
        else:
            out.write(prefix.to_text() + "\n")
    return 0


def _run_rst(args: argparse.Namespace) -> int:
    from .engine import write_json, write_table
    from .rst import rst_compute

    _check_size("--max", args.max_terms)
    cols = ["r", "s", "t"] if args.which == "all" else [args.which]
    if args.format == "bfile" and len(cols) > 1:
        raise ValidationError("--format bfile needs --which r, s or t")
    state = rst_compute(args.max_terms)
    # Row 0 of each table is n = 0, where R(0) = 0 is not a term of R:
    # the sequences (bfile, json) take R from R(1), through a slice of the
    # table's view, and S and T from row 0.
    terms = {"r": state.r[1:], "s": state.s, "t": state.t}
    with _open_out(args.out) as out:
        if args.format == "json":
            payload: dict = {"n_max": state.n}
            payload.update((c, terms[c]) for c in cols)
            if state.status.is_alive:
                payload["status"] = "alive"
            else:
                payload["status"] = {
                    "which": state.status.which,
                    "at_index": state.status.at_index,
                }
            write_json(out, payload)
            return 0
        if args.format == "bfile":
            write_table(out, [terms[args.which]], 1 if args.which == "r" else 0, " ")
        else:
            sep = "," if args.format == "csv" else "\t"
            out.write(sep.join(["n"] + cols) + "\n")
            write_table(out, [getattr(state, c) for c in cols], 0, sep)
        if not state.status.is_alive:
            out.write(f"# ended ({state.status.which}) at {state.status.at_index}\n")
    return 0


def _run_predict(args: argparse.Namespace) -> int:
    from .predictor import predict_sequence

    _check_loglog(args)
    _check_size("--n", args.n)
    seq = predict_sequence(args.n, args.max_terms)
    _emit_sequence(seq, args)
    return 0


def _scan_worker(abc_profile, q_check, max_terms: int, n: int):
    """The descent of N, and the status and length of its run without its
    terms: what verify runs, with no tiles.  The handler binds the functions
    it imported, so that no call imports and a worker process unpickles them
    by name."""
    profile = abc_profile(n)
    _, code, n_actual = q_check(range(1, n + 1), (), max_terms)
    return n, profile.j, profile.classification, code, n_actual


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValidationError("--workers must be at least 1")


def _check_size(option: str, value: int | None) -> None:
    # an N past sys.maxsize cannot index a run, nor be counted by a range
    if value is not None and value > sys.maxsize:
        raise ValidationError(f"{option} must be at most {sys.maxsize}")


def _map_tasks(worker, tasks, workers: int):
    # worker is a module-level function or a partial of some, which a worker
    # process unpickles by name; no more processes than tasks or than CPUs
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(t) for t in tasks]
    # imported here: it is a large share of the CLI's start-up
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks, chunksize=4))


def _verify_line(n: int, report) -> str:
    if report.terminal_agreement and report.first_mismatch is None:
        return f"n={n} ok ({report.matched_through} terms, {report.actual_status})"
    if report.first_mismatch is not None:
        index, predicted, actual = report.first_mismatch
        return f"n={n} MISMATCH at {index}: predicted {predicted}, actual {actual}"
    return (
        f"n={n} TERMINAL DISAGREEMENT: predicted {report.predicted_status},"
        f" actual {report.actual_status}"
    )


def _run_verify(args: argparse.Namespace) -> int:
    from .engine import write_json
    from .predictor import is_exceptional, verify_against_bruteforce

    _check_workers(args.workers)
    _check_size("--n", args.n)
    _check_size("--to", args.to)
    if args.to is None:
        pairs = [(args.n, verify_against_bruteforce(args.n, args.max_terms))]
    else:
        if args.to < args.n:
            raise ValidationError("--to must be >= --n")
        if args.max_terms < args.to:
            raise ValidationError("--max must cover the identity prefix of every N")
        # no prediction below N = 35; is_exceptional rejects a negative N
        ns = [n for n in range(args.n, args.to + 1) if not is_exceptional(n) and n >= 35]
        worker = partial(verify_against_bruteforce, max_terms=args.max_terms)
        pairs = zip(ns, _map_tasks(worker, ns, args.workers))
    with _open_out(args.out) as out:
        for n, report in pairs:
            if args.format == "json":
                write_json(out, {"n": n, **report.to_json()})
            else:
                out.write(_verify_line(n, report) + "\n")
    return 0


def _run_scan(args: argparse.Namespace) -> int:
    from . import _backend
    from .predictor import abc_profile

    _check_workers(args.workers)
    _check_size("--from", args.start)
    _check_size("--to", args.stop)
    if args.start < 2:
        raise ValidationError("scan starts at N >= 2")
    if args.stop < args.start:
        raise ValidationError("--to must be >= --from")
    if args.max_terms < args.stop:
        raise ValidationError("--max must cover the identity prefix of every N")
    worker = partial(_scan_worker, abc_profile, _backend.q_check, args.max_terms)
    rows = _map_tasks(worker, range(args.start, args.stop + 1), args.workers)
    with _open_out(args.out) as out:
        out.write("n,j,classification,length\n")
        for n, j, classification, code, length in rows:
            out.write(
                f"{n},{'' if j is None else j},"
                f"{'' if classification is None else classification},"
                f"{'alive' if code == _backend.STATUS_ALIVE else length}\n"
            )
    return 0


def _tree_lines(node, depth: int):
    pad = "  " * depth
    if node.kind == "leaf":
        yield f"{pad}{node.digits}:{node.leaf_type}"
    elif node.kind == "truncated":
        yield f"{pad}{node.digits} (unresolved)"
    else:
        yield f"{pad}{node.digits or 'root'}"
        for digit in sorted(node.children):
            yield from _tree_lines(node.children[digit], depth + 1)


def _tree_json(node) -> dict:
    payload: dict = {"digits": node.digits, "kind": node.kind}
    if node.kind == "leaf":
        payload["leaf_type"] = node.leaf_type
    if node.children:
        payload["children"] = {
            str(d): _tree_json(node.children[d]) for d in sorted(node.children)
        }
    return payload


def _run_tree(args: argparse.Namespace) -> int:
    from .engine import write_json
    from .predictor import behavior_tree, tree_locate

    with _open_out(args.out) as out:
        if args.locate is not None:
            digits, classification = tree_locate(args.locate)
            if args.format == "json":
                write_json(out, {"n": args.locate, "digits": digits,
                                 "classification": classification})
            else:
                out.write(f"{digits}:{classification}\n")
        else:
            root = behavior_tree(args.levels)
            if args.format == "json":
                write_json(out, _tree_json(root))
            else:
                for line in _tree_lines(root, 0):
                    out.write(line + "\n")
    return 0


def _output_args(parser, choices, loglog=False):
    parser.add_argument("--format", choices=choices, default=choices[0], help="output format")
    parser.add_argument("--out", "-o", help="output path (default: stdout)")
    if loglog:
        parser.add_argument(
            "--loglog", action="store_true", help="write csv as log10(n),log10(value)"
        )


@cache
def _build_parser() -> _Parser:
    """The parser of every subcommand, built once per process: parsing
    leaves it unchanged, and each main call gets a fresh namespace."""
    parser = _Parser(prog="qlab", description="Hofstadter Q-recurrence laboratory")
    parser.add_argument("--version", action="version", version=f"qlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("gen", help="run the recurrence from an initial condition")
    p.set_defaults(handler=_run_gen)
    p.add_argument("--ic", required=True, help="initial condition, e.g. '1,1' or '0;1..50'")
    p.add_argument("--max", dest="max_terms", type=int, required=True,
                   help="total terms to attempt")
    p.add_argument("--mode", choices=("fast64", "exact"),
                   help="integer mode (default: fast64)")
    _output_args(p, ("text", "bfile", "csv", "json"), loglog=True)

    p = sub.add_parser("sym", help="derive symbolic prefix terms Q(N+k)")
    p.set_defaults(handler=_run_sym)
    # symbolic.CONVENTIONS, written out so that building the parser imports nothing
    p.add_argument("--convention", choices=("plain", "zero_extended"), default="plain")
    p.add_argument("--nmin", type=int, required=True, help="lower bound of the N range")
    p.add_argument("--nmax", type=int, help="optional upper bound of the N range")
    p.add_argument("--offsets", type=int, default=28, help="how many offsets to attempt")
    p.add_argument("--at", type=int, help="specialize the derivation at this N")
    _output_args(p, ("text", "json", "bfile", "csv"), loglog=True)

    p = sub.add_parser("rst", help="tabulate the R/S/T system")
    p.set_defaults(handler=_run_rst)
    p.add_argument("--max", dest="max_terms", type=int, required=True,
                   help="largest n to compute")
    p.add_argument("--which", choices=("r", "s", "t", "all"), default="all")
    _output_args(p, ("text", "csv", "json", "bfile"))

    p = sub.add_parser("predict", help="emit the predicted sequence for <0-bar; 1..N>")
    p.set_defaults(handler=_run_predict)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max", dest="max_terms", type=int, required=True,
                   help="total terms to attempt")
    _output_args(p, ("text", "bfile", "csv", "json"), loglog=True)

    p = sub.add_parser("verify", help="compare predictions against the recurrence")
    p.set_defaults(handler=_run_verify)
    p.add_argument("--n", type=int, required=True, help="first (or only) N")
    p.add_argument("--to", type=int,
                   help="verify the range --n..--to, skipping exceptions and N < 35")
    p.add_argument("--max", dest="max_terms", type=int, required=True,
                   help="terms to compare per N")
    p.add_argument("--workers", type=int, default=1, help="parallel processes")
    _output_args(p, ("text", "json"))

    p = sub.add_parser("tree", help="print or query the classification tree")
    p.set_defaults(handler=_run_tree)
    p.add_argument("--levels", type=int, default=3, help="depth to expand")
    p.add_argument("--locate", type=int, help="report the leaf containing this N")
    _output_args(p, ("text", "json"))

    p = sub.add_parser("scan", help="classification and observed length for a range of N")
    p.set_defaults(handler=_run_scan)
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="stop", type=int, required=True)
    p.add_argument("--max", dest="max_terms", type=int, required=True,
                   help="terms to attempt per N")
    p.add_argument("--workers", type=int, default=1, help="parallel processes")
    p.add_argument("--out", "-o", help="output path (default: stdout)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    try:
        return args.handler(args)
    except (DivisibilityError, AssertionError) as exc:
        print(f"qlab: internal error: {exc}", file=sys.stderr)
        return 2
    except (QlabError, OSError, OverflowError) as exc:
        # OverflowError: an N or a count too large for a Python size
        print(f"qlab: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # an N or a --max whose terms do not fit in memory
        print("qlab: error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
