"""Golden output corpus: a fixed list of CLI commands, each of whose output
files must keep its sha256, and each `flow` of which must print the same
`total=` line.

A change that moves a digest on purpose regenerates the table with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md which digests moved and why.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from interlock.assembly import grid_from_letters
from interlock.cli import main
from interlock.enumeration import enumerate_tilings

TABLE = Path(__file__).with_name("golden.json")

# row letters (0=W, 1=E) and column letters (0=N, 1=S) of a fixed 12x9 tiling
LETTERS_12X9 = ("011010011101", "100110101")

METHODS = ("iterate", "closed_form")

# name -> argv; "{dir}" is the directory that holds the tiling files
COMMANDS = {
    **{
        f"flow-{g}-10x10-{method}": [
            "flow", "--group", g, "--rows", "10", "--cols", "10", "--method", method, "--svg"
        ]
        for g in ("p1", "pg", "p4")
        for method in METHODS
    },
    **{
        f"flow-{tiling}-{method}": [
            "flow", "--tiling", f"{{dir}}/{tiling}.json", "--method", method, "--svg"
        ]
        for tiling in ("letters-12x9", "candidate-726-6x7")
        for method in METHODS
    },
    "assemble-p4-4x5-gap-scaled": [
        "assemble", "--group", "p4", "--rows", "4", "--cols", "5",
        "--gap", "0.1", "--scale", "0.2,0.3,0.5",
    ],
    "assemble-p1-3x3": ["assemble", "--group", "p1", "--rows", "3", "--cols", "3"],
    **{
        f"enumerate-5x6-{metric}-top1": [
            "enumerate", "--rows", "5", "--cols", "6", "--metric", metric, "--top-k", "1"
        ]
        for metric in ("max_load", "cv", "loaded_cells")
    },
    "enumerate-6x7-max_load": ["enumerate", "--rows", "6", "--cols", "7"],
}


def _write_tilings(tmp: Path) -> None:
    """The tiling files the `flow --tiling` commands read."""
    h, v = ([int(ch) for ch in s] for s in LETTERS_12X9)
    grids = {
        "letters-12x9": grid_from_letters(h, v),
        "candidate-726-6x7": enumerate_tilings(6, 7)[726].orientation,
    }
    for name, o in grids.items():
        rows, cols = o.shape
        payload = {"rows": rows, "cols": cols, "orientations": o.ravel().tolist()}
        (tmp / f"{name}.json").write_text(json.dumps(payload))


def _run(name: str, tmp: Path) -> dict:
    """Run one command into tmp/name: its exit code, the sha256 of every
    file it wrote, and for `flow` its stdout."""
    out = tmp / name
    argv = [arg.format(dir=tmp) for arg in COMMANDS[name]] + ["--out", str(out)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    record = {
        "code": code,
        "files": {
            p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        },
    }
    if argv[0] == "flow":
        record["stdout"] = stdout.getvalue()
    return record


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_outputs_match_the_golden_table(name, tmp_path):
    _write_tilings(tmp_path)
    assert _run(name, tmp_path) == json.loads(TABLE.read_text())[name]


def _moved(old: dict, new: dict) -> list[str]:
    """The files, and `total=` when stdout differs, in which two records of
    one command disagree."""
    files_old, files_new = old.get("files", {}), new.get("files", {})
    moved = sorted(f for f in files_old.keys() | files_new.keys()
                   if files_old.get(f) != files_new.get(f))
    if old.get("stdout") != new.get("stdout"):
        moved.append("total=")
    return moved


def regenerate() -> None:
    """Run every command, print each one whose files or `total=` line
    moved against the committed table, and write the table."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _write_tilings(tmp)
        table = {name: _run(name, tmp) for name in COMMANDS}
    committed = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    for name in sorted(table.keys() | committed.keys()):
        moved = _moved(committed.get(name, {}), table.get(name, {}))
        if moved:
            print(f"moved {name}: {' '.join(moved)}", file=sys.stderr)
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    files = sum(len(record["files"]) for record in table.values())
    print(f"wrote {len(table)} commands, {files} files to {TABLE}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
