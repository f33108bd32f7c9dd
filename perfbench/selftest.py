"""Self-test of the benchmark harness at reduced grid sizes.

    python3 perfbench/selftest.py

Checks that run.py emits every end-to-end and per-layer metric named in
BENCHMARK.json, with its unit, on every workload, and that a deliberately
corrupted output of each workload is counted as a failed operation and
makes the run exit nonzero.  Takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import run

SMALL = {"scan_9x9": 5, "geometry_6x6": 4, "grid_100": 10}


def run_harness(*argv: str) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    return code, json.loads(out.getvalue().splitlines()[-1])


def drop_last_ranking_row(out: Path, calls) -> None:
    path = out / "scan" / "ranking.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def report_an_overlap(out: Path, calls) -> None:
    calls[-1].value[0] = True


def flip_a_coordinate_byte(out: Path, calls) -> None:
    # Only the digest can see this: the file keeps its length and count.
    path = out / "assemble_p4" / "block_001.stl"
    data = bytearray(path.read_bytes())
    data[100] ^= 0x01
    path.write_bytes(bytes(data))


CORRUPTIONS = {
    "scan_9x9": drop_last_ranking_row,
    "geometry_6x6": report_an_overlap,
    "grid_100": flip_a_coordinate_byte,
}


@contextlib.contextmanager
def corrupted(cls, size, corrupt):
    """Every pass of workload class `cls` at `size` corrupts its own output;
    the warm-up runs at another size and stays clean."""
    original = cls.run

    def run_and_corrupt(self, out):
        calls = original(self, out)
        if self.size == size:
            corrupt(out, calls)
        return calls

    cls.run = run_and_corrupt
    try:
        yield
    finally:
        cls.run = original


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if [w["name"] for w in spec["workloads"]] != list(SMALL):
        raise AssertionError("BENCHMARK.json names other workloads than the self-test")
    sys.path.insert(0, str(run.SRC))
    import workloads

    for name, size in SMALL.items():
        kind, _ = workloads.WORKLOADS[name]
        workloads.WORKLOADS[name] = (kind, size)
        for trace in (0, 1):
            code, result = run_harness("--workload", name, "--seconds", "0", "--trace", str(trace))
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            assert code == 0 and result["correct"] and result["failed"] == 0, (name, trace, result)
            assert emitted == wanted[trace], (name, trace, sorted(emitted.items() ^ wanted[trace].items()))

        # Record digests at this size in a scratch reference, then corrupt.
        committed = run.REFERENCE
        with tempfile.TemporaryDirectory(dir=run.WORK) as scratch:
            run.REFERENCE = Path(scratch) / "reference.json"
            try:
                code, _ = run_harness("--workload", name, "--seconds", "0", "--trace", "1", "--record")
                assert code == 0, name
                with corrupted(workloads.KINDS[kind], size, CORRUPTIONS[name]):
                    code, result = run_harness("--workload", name, "--seconds", "0", "--trace", "1")
            finally:
                run.REFERENCE = committed
        assert code == 1 and not result["correct"] and result["failed"] >= 1, (name, result)
        print(f"{name}: metrics complete; corrupted output counted "
              f"({result['failed']}/{result['attempted']} operations failed)")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
