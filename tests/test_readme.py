"""The README's examples, run as written.

Every ``$ lsv ...`` line in the "Command line" section runs through
``run_cli`` and must print exactly the lines that follow it.  The files that
section shows with ``$ cat`` are written first; the three it only describes
in a comment (``classes.json``, ``g1.json``, ``g2.json``) are written here
from that description.  The Python quick tour runs in-process, and each
``print`` must match its ``# expected`` comment, and every Python block of
the file runs in order in one namespace.  The package docstring's example
runs as a doctest.
"""

import contextlib
import doctest
import io
import json
import re
import shlex
from pathlib import Path

import loopsv
from support import run_cli

README = Path(__file__).resolve().parent.parent / "README.md"

DESCRIBED_FILES = {
    "classes.json": {"0": "3"},
    "g1.json": {"gamma_generators": ["1"], "s": "1/2"},
    "g2.json": {"gamma_generators": ["2"], "s": "1"},
}


def section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end]


def code_blocks(text: str, lang: str) -> list:
    return re.findall(rf"```{lang}\n(.*?)```", text, re.S)


def shell_sessions(text: str):
    """(command, output lines) for every ``$`` line of the sh blocks."""
    for block in code_blocks(text, "sh"):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("$ "):
                continue
            out = []
            for follow in lines[i + 1:]:
                if follow.startswith("$ ") or not follow.strip():
                    break
                out.append(follow)
            yield line[2:], out


def test_command_line_examples(tmp_path):
    for name, doc in DESCRIBED_FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    ran = []
    for command, expected in shell_sessions(section("Command line")):
        argv = shlex.split(command, comments=True)
        if argv[0] == "cat":
            (tmp_path / argv[1]).write_text("\n".join(expected) + "\n")
            continue
        assert argv[0] == "lsv", command
        argv = [str(tmp_path / a) if (tmp_path / a).is_file() else a for a in argv[1:]]
        proc = run_cli(*argv)
        assert proc.stderr == "", command
        assert proc.stdout == "".join(line + "\n" for line in expected), command
        ran.append(argv[0] if argv[0] != "check" else f"check {argv[1]}")
    assert ran == [
        "bracket",
        "grade",
        "check jacobi",
        "decompose-derivation",
        "check derivation",
        "factor-automorphism",
        "check automorphism",
        "cocycle-class",
        "extend",
        "iso",
    ]


def test_quick_tour():
    tour = code_blocks(section("Quick tour"), "python")[0]
    expected = [
        line.split("#", 1)[1].strip()
        for line in tour.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    assert len(expected) == 5
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(tour, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_every_python_block_runs():
    blocks = code_blocks(README.read_text(encoding="utf-8"), "python")
    assert len(blocks) >= 2
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert namespace["root2"].field_d == 2


def test_package_docstring_example():
    assert doctest.testmod(loopsv, verbose=False) == (0, 4)
