"""The command-line examples in README.md, run through cli.main: each shown
output must match byte for byte, so a change to a writer or a layout fails
here instead of leaving the README stale."""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

from qlab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples() -> dict[str, tuple[str, bool]]:
    """README command -> (its shown output, whether the output is only the
    start of it: a last line of "...").  Commands shown without output are
    left out."""
    examples: dict[str, tuple[str, bool]] = {}
    command, shown = None, []

    def close():
        if command is not None and shown:
            prefix = shown[-1] == "..."
            lines = shown[:-1] if prefix else shown
            examples[command] = ("".join(line + "\n" for line in lines), prefix)

    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("    $ qlab "):
            close()
            command, shown = line[len("    $ qlab "):], []
        elif command is not None and line.startswith("    "):
            shown.append(line[4:])
        else:
            close()
            command, shown = None, []
    close()
    return examples


EXAMPLES = _examples()


def test_the_readme_shows_these_examples():
    assert sorted(EXAMPLES) == sorted([
        "gen --ic 1,1 --max 6",
        "gen --ic 2,0 --max 10 --format bfile",
        "sym --nmin 14 --nmax 20 --offsets 4",
        "rst --max 3 --format csv",
        "verify --n 35 --to 45 --max 200000",
        "tree --levels 2",
        "tree --locate 42",
        "scan --from 35 --to 37 --max 500",
    ])


@pytest.mark.usefixtures("fastest_backend")
@pytest.mark.parametrize("command", sorted(EXAMPLES))
def test_readme_example_output(capsys, command):
    shown, prefix = EXAMPLES[command]
    code = main(shlex.split(command))
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert (out[: len(shown)] if prefix else out) == shown
