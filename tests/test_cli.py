"""End-to-end tests for the command line interface."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interlock
from interlock import assembly
from interlock.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_assemble_from_group(tmp_path, capsys):
    out = tmp_path / "asm"
    code, stdout, _ = run(
        capsys, "assemble", "--group", "p4", "--rows", "3", "--cols", "3", "--out", str(out)
    )
    assert code == 0
    assert f"wrote 9 blocks to {out}" in stdout
    assert (out / "manifest.json").exists()
    assert (out / "assembly.stl").exists()
    assert len(list(out.glob("block_*.stl"))) == 9


def test_assemble_from_tiling_file(tmp_path, capsys):
    tiling = {"rows": 3, "cols": 3, "orientations": [0] * 9}
    path = tmp_path / "tiling.json"
    path.write_text(json.dumps(tiling))
    out = tmp_path / "asm"
    code, stdout, _ = run(capsys, "assemble", "--tiling", str(path), "--out", str(out))
    assert code == 0
    assert json.loads((out / "manifest.json").read_text())["group"] is None


def test_flow_golden_total_and_grid(tmp_path, capsys):
    out = tmp_path / "flow"
    code, stdout, _ = run(
        capsys, "flow", "--group", "p1", "--rows", "10", "--cols", "10", "--out", str(out)
    )
    assert code == 0
    assert "total=64.000000" in stdout
    rows = [
        [float(v) for v in ln.split(",")]
        for ln in (out / "flow.csv").read_text().splitlines()
    ]
    grid = np.array(rows)
    assert grid.shape == (10, 10)
    assert grid[0, 1] == pytest.approx(6.43, abs=0.005)
    payload = json.loads((out / "flow.json").read_text())
    assert payload["total_frame_mass"] == pytest.approx(64.0, abs=1e-6)


def test_flow_reruns_are_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        code, _, _ = run(
            capsys, "flow", "--group", "pg", "--rows", "8", "--cols", "8", "--out", str(out)
        )
        assert code == 0
    assert (out1 / "flow.csv").read_bytes() == (out2 / "flow.csv").read_bytes()
    assert (out1 / "flow.json").read_bytes() == (out2 / "flow.json").read_bytes()


def test_flow_methods_agree(tmp_path, capsys):
    outs = []
    for method in ("iterate", "closed_form"):
        out = tmp_path / method
        code, stdout, _ = run(
            capsys,
            "flow", "--group", "p4", "--rows", "6", "--cols", "6",
            "--method", method, "--out", str(out),
        )
        assert code == 0
        assert "total=16.000000" in stdout
        outs.append(json.loads((out / "flow.json").read_text())["frame_load"])
    for k, v in outs[0].items():
        assert v == pytest.approx(outs[1][k], abs=1e-6)


def test_flow_svg_flag(tmp_path, capsys):
    out = tmp_path / "flow"
    code, _, _ = run(
        capsys,
        "flow", "--group", "p4", "--rows", "4", "--cols", "4", "--svg", "--out", str(out),
    )
    assert code == 0
    assert (out / "flow.svg").read_text().startswith("<?xml")


def test_flow_unconverged_exit_code(tmp_path, capsys):
    code, _, stderr = run(
        capsys,
        "flow", "--group", "pg", "--rows", "10", "--cols", "10",
        "--max-iter", "3", "--out", str(tmp_path / "x"),
    )
    assert code == 4
    assert "did not converge" in stderr
    assert not (tmp_path / "x" / "flow.csv").exists()


def test_enumerate_small_grid(tmp_path, capsys):
    out = tmp_path / "enum"
    code, stdout, _ = run(
        capsys,
        "enumerate", "--rows", "3", "--cols", "3", "--top-k", "2", "--out", str(out),
    )
    assert code == 0
    assert "candidates=8" in stdout
    assert "wall_clock=" in stdout
    assert (out / "ranking.csv").exists()
    assert (out / "ranking.json").exists()
    assert (out / "rank_001" / "assembly.stl").exists()
    assert (out / "rank_002" / "manifest.json").exists()


def test_enumerate_cap_guard(tmp_path, capsys):
    code, _, stderr = run(
        capsys,
        "enumerate", "--rows", "12", "--cols", "12", "--out", str(tmp_path / "e"),
    )
    assert code == 2
    assert "rerun with --cap 21" in stderr


def test_unknown_group_is_invalid(tmp_path, capsys):
    code, _, stderr = run(
        capsys,
        "assemble", "--group", "p6", "--rows", "3", "--cols", "3",
        "--out", str(tmp_path / "x"),
    )
    assert code == 2
    assert "error:" in stderr


def test_group_and_tiling_are_mutually_exclusive(tmp_path, capsys):
    tiling = tmp_path / "t.json"
    tiling.write_text(json.dumps({"rows": 3, "cols": 3, "orientations": [0] * 9}))
    code, _, _ = run(
        capsys,
        "assemble", "--group", "p1", "--rows", "3", "--cols", "3",
        "--tiling", str(tiling), "--out", str(tmp_path / "x"),
    )
    assert code == 2
    code, _, _ = run(capsys, "assemble", "--out", str(tmp_path / "x"))
    assert code == 2


def test_missing_tiling_file_is_io_error(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "assemble", "--tiling", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")
    )
    assert code == 3


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        "[3, 3, [0, 0, 0, 0, 0, 0, 0, 0, 0]]",
        '{"rows": 3.5, "cols": 3, "orientations": [0, 0, 0, 0, 0, 0, 0, 0, 0]}',
        '{"rows": null, "cols": 3, "orientations": []}',
        '{"rows": 3, "cols": 3, "orientations": [0.7, 0, 0, 0, 0, 0, 0, 0, 0]}',
    ],
    ids=["not-json", "list", "float-rows", "null-rows", "float-orientation"],
)
def test_malformed_tiling_json_is_invalid(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, _, stderr = run(capsys, "assemble", "--tiling", str(bad), "--out", str(tmp_path / "x"))
    assert code == 2
    assert stderr.startswith("error:") and stderr.count("\n") == 1


@pytest.mark.parametrize("key", ["rows", "cols", "orientations"])
def test_tiling_json_missing_a_key_names_it(tmp_path, capsys, key):
    payload = {"rows": 3, "cols": 3, "orientations": [0] * 9}
    del payload[key]
    bad = tmp_path / "t.json"
    bad.write_text(json.dumps(payload))
    code, _, stderr = run(capsys, "flow", "--tiling", str(bad), "--out", str(tmp_path / "x"))
    assert code == 2
    assert stderr == f"error: tiling JSON lacks '{key}'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["flow", "--group", "p4", "--rows", "4", "--cols", "4", "--tol", "nan"],
        ["flow", "--group", "p4", "--rows", "5", "--cols", "5", "--tol", "inf"],
        ["assemble", "--group", "p4", "--rows", "3", "--cols", "3", "--gap", "nan"],
        ["assemble", "--group", "p4", "--rows", "3", "--cols", "3", "--scale", "inf"],
        ["enumerate", "--rows", "3", "--cols", "3", "--top-k", "-5"],
        # finite, but block corners overflow float32 (or float64) on export
        ["assemble", "--group", "p1", "--rows", "3", "--cols", "3", "--gap", "1e38"],
        ["assemble", "--group", "p1", "--rows", "3", "--cols", "3", "--scale", "1e39"],
        ["assemble", "--group", "p1", "--rows", "3", "--cols", "3", "--gap", "1e308"],
        ["enumerate", "--rows", "3", "--cols", "3", "--top-k", "1", "--gap", "1e38"],
    ],
    ids=["tol-nan", "tol-inf", "gap-nan", "scale-inf", "top-k-negative",
         "gap-overflows-float32", "scale-overflows-float32", "gap-overflows-float64",
         "enumerate-gap-overflows-float32"],
)
def test_out_of_range_numbers_are_invalid(tmp_path, capsys, argv):
    code, _, stderr = run(capsys, *argv, "--out", str(tmp_path / "x"))
    assert code == 2
    assert stderr.startswith("error:") and stderr.count("\n") == 1
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "flag", [["--gap", "nan"], ["--scale", "inf"]], ids=["gap-nan", "scale-inf"]
)
def test_enumerate_checks_gap_and_scale_before_writing(tmp_path, capsys, flag):
    out = tmp_path / "x"
    code, _, stderr = run(
        capsys, "enumerate", "--rows", "3", "--cols", "3", "--top-k", "1", *flag, "--out", str(out)
    )
    assert code == 2
    assert stderr.startswith("error:") and stderr.count("\n") == 1
    assert not list(out.glob("ranking.*"))


def test_input_too_large_for_memory_is_invalid(tmp_path, capsys, monkeypatch):
    def no_memory(*args):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr(assembly, "tiling_from_group", no_memory)
    out = tmp_path / "x"
    code, _, stderr = run(
        capsys, "flow", "--group", "pg", "--rows", "100000", "--cols", "100000",
        "--method", "closed_form", "--out", str(out),
    )
    assert code == 2
    assert stderr.startswith("error:") and stderr.count("\n") == 1
    assert not out.exists()


# Runs in a fresh interpreter: the commands that never solve a sparse
# system, then a closed-form flow, printing the scipy modules loaded by then.
# It also reports whether the import and the enumerate load concurrent.futures.
LAZY_SCIPY = """
import json, sys
import interlock
from interlock import assembly, blocking, cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

futures = ["concurrent.futures" in sys.modules]
out = sys.argv[1]
codes = [cli.main(["enumerate", "--rows", "4", "--cols", "4", "--top-k", "1", "--out", out + "/e"])]
futures.append("concurrent.futures" in sys.modules)
codes.append(cli.main(["assemble", "--group", "p4", "--rows", "3", "--cols", "3", "--out", out + "/a"]))
blocking.dbg_geometric(assembly.build_assembly(assembly.tiling_from_group("p4", 3, 3)), (0, 0, -1))
before = scipy_modules()
codes.append(cli.main(
    ["flow", "--group", "p4", "--rows", "5", "--cols", "5", "--method", "closed_form", "--out", out + "/f"]
))
print(json.dumps({"codes": codes, "before": before, "after": scipy_modules(), "futures": futures}))
"""


def test_only_the_sparse_flow_solvers_load_scipy(tmp_path):
    src = str(Path(interlock.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_SCIPY, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0]
    assert report["before"] == []
    assert "scipy.sparse.linalg" in report["after"]
    assert report["futures"] == [False, False]
    assert json.loads((tmp_path / "f" / "flow.json").read_text())["total_frame_mass"] == 9.0


def test_clashing_tiling_is_invalid(tmp_path, capsys):
    clash = tmp_path / "clash.json"
    clash.write_text(json.dumps({"rows": 1, "cols": 2, "orientations": [0, 1]}))
    code, _, stderr = run(capsys, "assemble", "--tiling", str(clash), "--out", str(tmp_path / "x"))
    assert code == 2
    assert "error:" in stderr


# sha256 of ranking.csv and ranking.json for `enumerate --rows 6 --cols 6`
GOLDEN_RANKINGS = {
    "max_load": (
        "40417ef79f25a183d4e146af523a43c86f988c63a0d7b1c3c922c17c81cc41fc",
        "a8d7ec76eb49daa759146888580c6d3427669043cf35b9fd786a35a508800f13",
    ),
    "cv": (
        "ba35e624034e422fbd46f8ca210b92b1022a7786367a4ab38d7eea5b60e26ac0",
        "3f9de4a14ecde860a446a292c2468edc3aa584d6343fe0efc39de3637a86c332",
    ),
    "loaded_cells": (
        "012f07458107c839f32201116f9adef11804be3e117c8d7722f47cfa5e6a3584",
        "d04706f793ebd8d20639c7b40fd39b73a2da26e44223bd31a3d2c57a283a6b6d",
    ),
}


@pytest.mark.parametrize("metric", sorted(GOLDEN_RANKINGS))
def test_enumerate_rankings_are_byte_identical_to_golden(tmp_path, capsys, metric):
    out = tmp_path / metric
    code, stdout, _ = run(
        capsys, "enumerate", "--rows", "6", "--cols", "6", "--metric", metric, "--out", str(out)
    )
    assert code == 0
    assert "candidates=512" in stdout
    digests = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("ranking.csv", "ranking.json")
    )
    assert digests == GOLDEN_RANKINGS[metric]


_SIZES = st.one_of(st.integers(3, 6), st.integers(-1, 2)).map(str)
_FLOATS = st.one_of(
    st.floats(min_value=0.01, max_value=2.0).map(repr),
    st.sampled_from(["5e-324", "1e-300", "1e38", "1e39", "1e308", "inf", "-inf", "nan", "x"]),
    st.floats().map(repr),
)


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(["assemble", "flow", "enumerate"]))
    argv = [command, "--rows", draw(_SIZES), "--cols", draw(_SIZES)]
    if command != "enumerate":
        argv += ["--group", draw(st.sampled_from(["p1", "pg", "p4"]))]
    if command == "flow":
        argv += [f"--method={draw(st.sampled_from(['iterate', 'closed_form']))}",
                 f"--tol={draw(_FLOATS)}",
                 f"--max-iter={draw(st.sampled_from(['-1', '0', '1', '60', '2000', '1e3']))}"]
        argv += draw(st.sampled_from([[], ["--svg"]]))
    else:
        scale = ",".join(draw(st.lists(_FLOATS, min_size=1, max_size=3)))
        argv += [f"--gap={draw(_FLOATS)}", f"--scale={scale}"]
    if command == "enumerate":
        argv += [f"--top-k={draw(st.sampled_from(['-1', '0', '1', '2']))}"]
    return argv


@settings(max_examples=100, deadline=None)
@given(_argvs())
def test_fuzzed_commands_exit_cleanly(argv):
    """Every input either works or exits 2, 3 or 4 with a message, never
    with a traceback, and output is written only on success."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", str(out)])
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in stderr.getvalue()
        assert out.exists() == (code == 0)


@pytest.mark.parametrize(
    "command",
    [["assemble", "--group", "p1"], ["enumerate", "--top-k", "1"]],
    ids=["assemble", "enumerate"],
)
@pytest.mark.parametrize(
    "flag", [["--gap", "1e8"], ["--scale", "1e-320"]], ids=["gap-1e8", "scale-subnormal"]
)
def test_gap_or_scale_beyond_float32_precision_is_invalid(tmp_path, capsys, command, flag):
    """At gap 1e8 the float32 spacing near the farthest corner is 64, and a
    subnormal scale rounds to float32 zero: both would merge corners."""
    out = tmp_path / "x"
    code, _, stderr = run(capsys, *command, "--rows", "3", "--cols", "3", *flag, "--out", str(out))
    assert code == 2
    assert stderr.startswith("error:") and stderr.count("\n") == 1
    assert not out.exists()
