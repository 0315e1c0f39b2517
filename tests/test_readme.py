"""The README's examples run as written.

Each ``expr  # value`` line of the ``## Library`` block must evaluate to
something whose ``repr`` is ``value``, after the block's lines above it have
run.  Each ``$ alcovecrystals ...`` transcript is run through ``cli.run`` and
its output compared line by line; a ``...`` line stands for any run of
elided lines.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from alcovecrystals.cli import run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
# (language, body) of every fenced block, in order
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)


def library_checks():
    """(source run before, expression, expected repr) per commented line."""
    section = README.split("\n## Library\n", 1)[1]
    lines = next(body for lang, body in BLOCKS if lang == "python" and body in section).splitlines()
    out = []
    for n, line in enumerate(lines):
        m = re.fullmatch(r"(\S.*?)\s+# (.+)", line)
        if m:
            out.append(("\n".join(lines[:n]), m.group(1), m.group(2)))
    return out


def transcripts():
    """(argv, expected output lines) per ``$ alcovecrystals`` command."""
    out = []
    for _, body in BLOCKS:
        for chunk in re.split(r"^\$ ", body, flags=re.M)[1:]:
            command, _, output = chunk.replace("\\\n", "").partition("\n")
            argv = shlex.split(command)
            if argv[0] == "alcovecrystals":
                out.append((argv[1:], output.rstrip("\n").splitlines()))
    return out


LIBRARY = library_checks()
TRANSCRIPTS = transcripts()


def test_the_readme_has_examples():
    assert len(LIBRARY) == 5 and len(TRANSCRIPTS) == 7


@pytest.mark.parametrize("before, expr, value", LIBRARY, ids=[c[1] for c in LIBRARY])
def test_library_example(before, expr, value):
    namespace: dict = {}
    exec(before, namespace)
    assert repr(eval(expr, namespace)) == value


@pytest.mark.parametrize("argv, expected", TRANSCRIPTS, ids=[" ".join(t[0]) for t in TRANSCRIPTS])
def test_command_line_transcript(argv, expected, capsys):
    assert run(argv) == 0
    got = capsys.readouterr().out
    pattern = "".join(
        r"(?:.*\n)*?" if line == "..." else re.escape(line) + r"\n" for line in expected
    )
    assert re.fullmatch(pattern, got), got
