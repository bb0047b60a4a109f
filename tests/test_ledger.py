"""README.md's claim ledger: one row per claim of the paper's abstract.

Each row names a command (or says "library only" or "not checked") and
the summary lines it prints.  Every command runs through ``cli.main``
with exit code 0, and every named line starts a line of the summaries of
the row's commands.  A "library only" row names library functions, which
must resolve.  CI runs the ledger's commands from its ``sh`` block, so
each must also stand at the start of a line there.
"""

import contextlib
import importlib
import io
import re
import shlex
from pathlib import Path

import pytest

from finslercheck import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")
LEDGER = README.split("\n## Claim ledger\n", 1)[1].split("\n## ", 1)[0]


def _cells(line):
    return [c.strip() for c in line.strip().strip("|").split("|")]


def _items(cell):
    return re.findall(r"`([^`]+)`", cell)


ROWS = [_cells(line) for line in LEDGER.splitlines()
        if re.match(r"\|\s*\d+\s*\|", line)]


def test_one_row_per_claim():
    # the abstract's seven claims, numbered in order
    assert [row[0] for row in ROWS] == [str(k) for k in range(1, 8)]
    assert all(len(row) == 5 for row in ROWS)


@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_ledger_row_prints_its_lines(row):
    number, claim, command, lines, condition = row
    commands = [c for c in _items(command) if c.startswith("finslercheck ")]
    if not commands:
        assert command in ("library only", "not checked")
        for name in _items(lines):
            module, attr = name.split(".")
            assert callable(getattr(
                importlib.import_module(f"finslercheck.{module}"), attr))
        return
    printed = []
    for cmd in commands:
        assert re.search(rf"^{re.escape(cmd)}$", LEDGER, re.M), \
            f"row {number}: {cmd!r} is not in the ledger's sh block"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(shlex.split(cmd)[1:])
        assert rc == 0, f"row {number}: {cmd!r} exited with {rc}"
        printed += out.getvalue().splitlines()
    for want in _items(lines):
        assert any(line.startswith(want) for line in printed), \
            f"row {number}: no summary line starts with {want!r}"


@pytest.mark.parametrize("argv,answer", [
    ("scan --metric klein --rows curvature --x-points 3 --y-samples 8",
     ["branch: pointwise", "obstructed: True"]),
    ("scan --phi berwald_classic --rows curvature --x-points 3 "
     "--y-samples 8", ["branch: inconclusive", "obstructed: False"]),
], ids=["klein", "berwald_classic"])
def test_scan_answers_in_its_verdict_lines_alone(argv, answer):
    # every kernel_at_x<i> record prints [PASS] with the kernel dimension
    # as its residual, and scan exits 0 whatever the kernel: only the
    # branch: and obstructed: lines carry its answer
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv.split())
    assert rc == 0
    lines = out.getvalue().splitlines()
    records = [line for line in lines if " kernel_at_x" in line]
    assert len(records) == 3
    assert all(line.startswith("[PASS] kernel_at_x") for line in records)
    assert [line for line in lines
            if line.startswith(("branch:", "obstructed:"))] == answer
