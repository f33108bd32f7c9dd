"""The benchmark's workloads: seeded inputs, one pass through the public
entry points, and the checks on every output of that pass.

A pass is a short list of operations.  An operation is one CLI call or one
library check, and it fails on a nonzero exit, an exception or a failed
output check.  `run` only calls the program, so it is what `wall_s` times;
`check` reads what the calls returned and wrote, outside the timed region.

Outputs are compared byte for byte (sha256) with digests recorded from the
seed commit.  Outputs that do not depend on the seed are compared at every
seed; those of the seeded random tilings only at the seed they were
recorded at.  Invariants that hold for any seed are checked on every pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from interlock import assembly, blocking, cli, enumeration, mesh

DOWN = (0.0, 0.0, -1.0)
BLOCK_TRIANGLES = 14
STL_HEADER = 84
STL_RECORD = 50
FLOW_TOL = 2e-6  # flow.json rounds to 6 decimals


@dataclass
class Call:
    """What one operation gave back: the CLI exit code and stdout, or the
    library value, or the exception it raised."""

    op: str
    rc: int | None = None
    stdout: str = ""
    value: object = None
    error: str | None = None


def call_cli(op: str, argv: list[str]) -> Call:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # an uncaught exception fails the operation
        return Call(op, error=f"{type(exc).__name__}: {exc}")
    error = (err.getvalue().strip() or None) if rc else None
    return Call(op, rc=rc, stdout=out.getvalue(), error=error)


def call_lib(op: str, fn, *args) -> Call:
    try:
        return Call(op, value=fn(*args))
    except Exception as exc:  # an uncaught exception fails the operation
        return Call(op, error=f"{type(exc).__name__}: {exc}")


def random_tiling(rng: np.random.Generator, m: int, n: int) -> assembly.TruchetTiling:
    """A uniformly random valid tiling: one random letter per row and column."""
    h = rng.integers(0, 2, size=m)
    v = rng.integers(0, 2, size=n)
    return assembly.TruchetTiling(m, n, enumeration.grid_from_letters(h, v))


def read_tree(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def tree_digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + hashlib.sha256(files[name]).digest())
    return h.hexdigest()


def stl_triangles(data: bytes) -> int:
    """Triangle count of a binary STL, after checking the length agrees."""
    count = int.from_bytes(data[80:84], "little")
    if len(data) != STL_HEADER + STL_RECORD * count:
        raise ValueError("STL length disagrees with its triangle count")
    return count


def check_export(files: dict[str, bytes], prefix: str, m: int, n: int) -> list[str]:
    """An exported assembly: m*n blocks of 14 triangles each, and a combined
    STL holding all of them."""
    manifest = json.loads(files[f"{prefix}manifest.json"])
    problems = []
    if (manifest["rows"], manifest["cols"]) != (m, n) or len(manifest["blocks"]) != m * n:
        problems.append(f"{prefix}manifest.json does not list {m}x{n} blocks")
    for entry in manifest["blocks"]:
        if stl_triangles(files[prefix + entry["file"]]) != BLOCK_TRIANGLES:
            problems.append(f"{prefix}{entry['file']} does not hold {BLOCK_TRIANGLES} triangles")
    if stl_triangles(files[prefix + manifest["combined"]]) != BLOCK_TRIANGLES * m * n:
        problems.append(f"{prefix}{manifest['combined']} does not hold every block")
    return problems


class Workload:
    """One workload at one grid size.  Subclasses define `run` and
    `check_call`, and `prepare` where they need seeded inputs;
    `random_ops` names the operations whose output depends on the seed."""

    kind = ""
    random_ops: tuple[str, ...] = ()

    def __init__(self, size: int):
        self.size = size
        self.seed = None

    @property
    def reference_key(self) -> str:
        return f"{self.kind}_{self.size}"

    def digest_key(self, op: str) -> str:
        return f"{op}@{self.seed}" if op in self.random_ops else op

    def prepare(self, seed: int, inputs: Path) -> None:
        self.seed = seed

    def run(self, out: Path) -> list[Call]:
        raise NotImplementedError

    def check_call(self, call: Call, out: Path) -> tuple[list[str], str | None]:
        """Problems found in one operation's output, and its digest."""
        raise NotImplementedError

    def check(self, calls: list[Call], out: Path, reference: dict):
        """Problems per operation (an empty list means it passed), and the
        digests of this pass's outputs."""
        expected = reference.get(self.reference_key, {})
        problems, digests = {}, {}
        for call in calls:
            if call.error is not None or call.rc not in (None, 0):
                problems[call.op] = [f"exit {call.rc}: {call.error}"]
                continue
            try:
                found, digest = self.check_call(call, out)
            except (KeyError, ValueError, OSError) as exc:
                found, digest = [f"unreadable output: {type(exc).__name__}: {exc}"], None
            key = self.digest_key(call.op)
            digests[key] = digest
            if key in expected and digest != expected[key]:
                found.append(f"digest {digest} differs from the recorded {expected[key]}")
            problems[call.op] = found
        return problems, digests


class Scan(Workload):
    """`interlock enumerate` over every valid m x m grid, top 3 exported."""

    kind = "scan"
    top_k = 3

    def run(self, out: Path) -> list[Call]:
        m = str(self.size)
        argv = ["enumerate", "--rows", m, "--cols", m, "--metric", "max_load",
                "--top-k", str(self.top_k), "--out", str(out / "scan")]
        return [call_cli("enumerate", argv)]

    def check_call(self, call: Call, out: Path):
        m = self.size
        count = assembly.count_assemblies(m, m)
        files = read_tree(out / "scan")
        problems = []
        if not call.stdout.startswith(f"candidates={count} "):
            problems.append(f"stdout {call.stdout!r} does not report {count} candidates")
        ranking = json.loads(files["ranking.json"])
        cands = ranking["candidates"]
        if ranking["count"] != count or len(cands) != count:
            problems.append(f"ranking.json does not hold {count} candidates")
        if [c["rank"] for c in cands] != list(range(1, len(cands) + 1)):
            problems.append("ranking.json ranks are not 1..N")
        loads = [c["metrics"]["max_load"] for c in cands]
        if any(a > b for a, b in zip(loads, loads[1:])):
            problems.append("ranking.json is not sorted by max_load")
        if files["ranking.csv"].count(b"\n") != count + 1:
            problems.append(f"ranking.csv does not hold {count} rows")
        for rank in range(1, self.top_k + 1):
            problems += check_export(files, f"rank_{rank:03d}/", m, m)
        return problems, tree_digest(files)


class Geometry(Workload):
    """Geometric blocking graphs against the colour rule, for p4 and one
    seeded random tiling, then a pairwise disjointness audit of the random
    tiling's gapless assembly at scale 0.2."""

    kind = "geometry"
    random_ops = ("dbg_random", "audit_random")

    def prepare(self, seed: int, inputs: Path) -> None:
        super().prepare(seed, inputs)
        m = self.size
        self.tilings = {
            "p4": assembly.tiling_from_group("p4", m, m),
            "random": random_tiling(np.random.default_rng(seed), m, m),
        }

    @staticmethod
    def _dbg(t):
        geo = blocking.dbg_geometric(assembly.build_assembly(t), DOWN)
        return geo.arcs, blocking.dbg_combinatorial(t).arcs

    @staticmethod
    def _audit(t):
        a = assembly.build_assembly(t, gap=0.0, scale=(0.2, 0.2, 0.2))
        meshes = [m for _, _, m in a.blocks]
        return [
            mesh.overlap(meshes[i], meshes[j], 1e-9)
            for i, j in itertools.combinations(range(len(meshes)), 2)
        ]

    def run(self, out: Path) -> list[Call]:
        return [
            call_lib("dbg_p4", self._dbg, self.tilings["p4"]),
            call_lib("dbg_random", self._dbg, self.tilings["random"]),
            call_lib("audit_random", self._audit, self.tilings["random"]),
        ]

    def check_call(self, call: Call, out: Path):
        m = self.size
        if call.op == "audit_random":
            pairs = m * m * (m * m - 1) // 2
            problems = []
            if len(call.value) != pairs:
                problems.append(f"audited {len(call.value)} pairs, not {pairs}")
            if any(call.value):
                problems.append(f"{sum(call.value)} block pairs overlap")
            return problems, hashlib.sha256(bytes(map(bool, call.value))).hexdigest()
        geo, comb = call.value
        problems = []
        if geo != comb:
            problems.append(
                f"geometric arcs differ from the colour rule: "
                f"{len(geo - comb)} extra, {len(comb - geo)} missing"
            )
        core = assembly.core_indices(m, m)
        out_degree = {i: 0 for i in core}
        for i, j in geo:
            if i in core:
                out_degree[i] += 1
        if any(d != 2 for d in out_degree.values()):
            problems.append("a core block does not rest on exactly two others")
        return problems, hashlib.sha256(repr(sorted(geo)).encode()).hexdigest()


class Grid(Workload):
    """`interlock assemble` of a p4 grid, then `interlock flow` on m x m
    grids with the closed form for p1, pg, p4 and a seeded random tiling,
    and with the default iteration for p4 and the random tiling."""

    kind = "grid"
    # Creating many small files is the noisiest step on a shared 2-vCPU VM
    # with ext4 storage: the same 10,001 files took from 0.24 s to 4.3 s to
    # write from one pass to the next.  Assembling at most 30 x 30 (901 STL
    # files) keeps that noise under about 0.4 s; the flows stay m x m.
    assemble_rows = 30
    random_ops = ("flow_closed_form_random", "flow_iterate_random")
    flows = (("closed_form", "p1"), ("closed_form", "pg"), ("closed_form", "p4"),
             ("closed_form", "random"), ("iterate", "p4"), ("iterate", "random"))

    def prepare(self, seed: int, inputs: Path) -> None:
        super().prepare(seed, inputs)
        m = self.size
        t = random_tiling(np.random.default_rng(seed), m, m)
        self.tiling_json = inputs / "random_tiling.json"
        self.tiling_json.write_text(json.dumps(
            {"rows": m, "cols": m, "orientations": t.orientation.ravel().tolist()}
        ))

    def run(self, out: Path) -> list[Call]:
        m, a = str(self.size), str(min(self.size, self.assemble_rows))
        calls = [call_cli("assemble_p4", [
            "assemble", "--group", "p4", "--rows", a, "--cols", a,
            "--scale", "0.2,0.2,0.2", "--out", str(out / "assemble_p4"),
        ])]
        for method, source in self.flows:
            op = f"flow_{method}_{source}"
            if source == "random":
                tiling = ["--tiling", str(self.tiling_json)]
            else:
                tiling = ["--group", source, "--rows", m, "--cols", m]
            argv = ["flow", *tiling, "--out", str(out / op)]
            if method == "closed_form":
                argv += ["--method", "closed_form"]
            calls.append(call_cli(op, argv))
        return calls

    def check_call(self, call: Call, out: Path):
        m = self.size
        files = read_tree(out / call.op)
        if call.op == "assemble_p4":
            a = min(m, self.assemble_rows)
            problems = check_export(files, "", a, a)
            if call.stdout != f"wrote {a * a} blocks to {out / call.op}\n":
                problems.append(f"unexpected stdout {call.stdout!r}")
            return problems, tree_digest(files)
        core = (m - 2) ** 2
        flow = json.loads(files["flow.json"])
        problems = []
        if call.stdout != f"total={core:.6f}\n":
            problems.append(f"stdout {call.stdout!r} does not report frame mass {core}")
        if not flow["converged"] or flow["total_frame_mass"] != core:
            problems.append(f"flow.json frame mass {flow['total_frame_mass']} is not {core}")
        if call.op.startswith("flow_iterate") and flow["iterations"] < 1:
            problems.append("iterate reports no iterations")
        if call.op == "flow_iterate_random":
            exact = json.loads((out / "flow_closed_form_random" / "flow.json").read_text())
            worst = max(
                abs(v - exact["frame_load"][k]) for k, v in flow["frame_load"].items()
            )
            if worst > FLOW_TOL:
                problems.append(f"iterate differs from the closed form by {worst:.2e}")
        return problems, tree_digest(files)


KINDS = {"scan": Scan, "geometry": Geometry, "grid": Grid}

# name -> (kind, full size)
WORKLOADS = {"scan_9x9": ("scan", 9), "geometry_6x6": ("geometry", 6), "grid_100": ("grid", 100)}

# The smallest sizes that still run every operation; a fresh interpreter's
# first calls at these sizes are the warm-up that `setup_s` includes.
WARM_UP_SIZES = {"scan": 4, "geometry": 3, "grid": 4}


def make(name: str, size: int | None = None) -> Workload:
    kind, full = WORKLOADS[name]
    return KINDS[kind](full if size is None else size)


def warm_up(name: str, workdir: Path) -> None:
    """One checked pass at the warm-up size; raises if any operation fails."""
    wl = make(name, WARM_UP_SIZES[WORKLOADS[name][0]])
    wl.prepare(0, workdir)
    out = workdir / "warm_up"
    calls = wl.run(out)
    problems, _ = wl.check(calls, out, {})
    failed = {op: p for op, p in problems.items() if p}
    if failed:
        raise RuntimeError(f"warm-up of {name} failed: {failed}")
