"""Acceptance gate: one test per shipped claim, each printing a single
PASS/FAIL line (run pytest with -rA to see them)."""

import itertools
import time

import numpy as np

from interlock import assembly, blocking, enumeration, flows, mesh
from interlock.block import versatile_block
from oracles import brute_force_tilings

TOL_GRID = 0.005  # published grids are 2-digit rounded


def _check(num, desc, fn):
    try:
        fn()
    except Exception:
        print(f"ACCEPT {num:02d} FAIL {desc}")
        raise
    print(f"ACCEPT {num:02d} PASS {desc}")


# published block data
BLOCK_COORDS = np.array(
    [
        (0, 0, 0),
        (1, 1, 0),
        (2, 0, 0),
        (1, -1, 0),
        (0, 1, 1),
        (1, 1, 1),
        (1, 0, 1),
        (1, -1, 1),
        (0, -1, 1),
    ],
    dtype=float,
)
BLOCK_EDGES = {
    (1, 2), (1, 3), (1, 4), (1, 5), (1, 9), (2, 3), (2, 5), (2, 6), (2, 7),
    (3, 4), (3, 7), (4, 7), (4, 8), (4, 9), (5, 6), (5, 7), (5, 9), (6, 7),
    (7, 8), (7, 9), (8, 9),
}
BLOCK_FACES = {
    frozenset(f)
    for f in [
        (1, 2, 3), (1, 2, 5), (1, 3, 4), (1, 4, 9), (1, 5, 9), (2, 3, 7),
        (2, 5, 6), (2, 6, 7), (3, 4, 7), (4, 7, 8), (4, 8, 9), (5, 6, 7),
        (5, 7, 9), (7, 8, 9),
    ]
}


def golden_p1():
    g = np.zeros((10, 10))
    vals = [6.43, 5.93, 5.32, 4.61, 3.81, 2.92, 1.98, 1.00]
    g[0, 1:9] = vals
    g[1:9, 0] = vals
    return g


def golden_pg():
    g = np.zeros((10, 10))
    g[1:9, 0] = [4.44, 5.52, 6.10, 6.27, 6.05, 5.42, 4.30, 2.55]
    g[0, [1, 3, 5, 7]] = [4.44, 3.71, 2.82, 1.66]
    g[9, [2, 4, 6, 8]] = [4.10, 3.31, 2.31, 1.00]
    return g


def golden_p4():
    g = np.zeros((10, 10))
    g[0, [1, 3, 5, 7]] = [2.58, 4.38, 4.88, 4.16]
    g[[1, 3, 5, 7], 9] = [2.58, 4.38, 4.88, 4.16]
    g[[2, 4, 6, 8], 0] = [4.16, 4.88, 4.38, 2.58]
    g[9, [2, 4, 6, 8]] = [4.16, 4.88, 4.38, 2.58]
    return g


GOLDEN = {"p1": golden_p1, "pg": golden_pg, "p4": golden_p4}

P4_ONE_STEP_GRID = np.array(
    [
        [0, 0.5, 0, 0.5, 0, 0.5, 0, 0.5, 0, 0],
        [0, 0.5, 0.5, 1, 0.5, 1, 0.5, 1, 0.5, 0.5],
        [0.5, 1, 1, 1, 1, 1, 1, 1, 0.5, 0],
        [0, 0.5, 1, 1, 1, 1, 1, 1, 1, 0.5],
        [0.5, 1, 1, 1, 1, 1, 1, 1, 0.5, 0],
        [0, 0.5, 1, 1, 1, 1, 1, 1, 1, 0.5],
        [0.5, 1, 1, 1, 1, 1, 1, 1, 0.5, 0],
        [0, 0.5, 1, 1, 1, 1, 1, 1, 1, 0.5],
        [0.5, 0.5, 1, 0.5, 1, 0.5, 1, 0.5, 0.5, 0],
        [0, 0, 0.5, 0, 0.5, 0, 0.5, 0, 0.5, 0],
    ]
)


def _converged_grid(name, method="iterate"):
    t = assembly.tiling_from_group(name, 10, 10)
    A = flows.transfer_matrix(blocking.dbg_combinatorial(t))
    x = flows.initial_load(t)
    r = flows.iterate(A, x) if method == "iterate" else flows.closed_form(A, x)
    assert r.converged
    return flows.flow_grid(r, 10, 10), r


def test_criterion_01_block_integrity():
    def body():
        t0 = time.perf_counter()
        vb = versatile_block()
        m = vb.mesh
        assert np.array_equal(m.vertices, BLOCK_COORDS)
        assert len(m.vertices) == 9 and len(m.triangles) == 14
        edges = {
            tuple(sorted((int(a) + 1, int(b) + 1)))
            for tri in m.triangles
            for a, b in itertools.combinations(tri, 2)
        }
        assert edges == BLOCK_EDGES and len(edges) == 21
        faces = {frozenset(int(i) + 1 for i in tri) for tri in m.triangles}
        assert faces == BLOCK_FACES
        assert mesh.euler_characteristic(m) == 2
        mesh.validate_mesh(m)
        assert abs(mesh.signed_volume(m) - 2.0) <= 1e-9
        for z in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert abs(mesh.cross_section_area(m, z) - 2.0) <= 1e-9
        assert time.perf_counter() - t0 < 1.0

    _check(1, "block matches published data (9/21/14, volume 2, sections 2)", body)


def test_criterion_02_golden_flow_grids():
    def body():
        for name, gold in GOLDEN.items():
            t0 = time.perf_counter()
            grid, _ = _converged_grid(name)
            dt = time.perf_counter() - t0
            err = np.abs(grid - gold()).max()
            assert err <= TOL_GRID, f"{name}: max error {err}"
            assert dt < 1.0, f"{name}: took {dt:.2f}s"

    _check(2, "10x10 p1/pg/p4 frame loads match the published grids +-0.005", body)


def test_criterion_03_conservation():
    def body():
        for name in GOLDEN:
            _, r = _converged_grid(name)
            assert abs(r.total_frame_mass() - 64.0) <= 1e-9
        t = assembly.tiling_from_group("p4", 10, 10)
        A = flows.transfer_matrix(blocking.dbg_combinatorial(t))
        rng = np.random.default_rng(7)
        steps = 0
        while steps < 10**4:
            x = rng.uniform(0.0, 2.0, size=A.n)
            for _ in range(100):
                before = x.sum()
                x = flows.step(A, x)
                assert abs(x.sum() - before) <= 1e-12
                steps += 1

    _check(3, "frame mass 64 at convergence; step drift <= 1e-12 over 1e4 steps", body)


def test_criterion_04_one_step_p4():
    def body():
        t = assembly.tiling_from_group("p4", 10, 10)
        A = flows.transfer_matrix(blocking.dbg_combinatorial(t))
        x1 = flows.step(A, flows.initial_load(t))
        assert np.array_equal(x1.reshape(10, 10), P4_ONE_STEP_GRID)

    _check(4, "single p4 step reproduces the half/one pattern exactly", body)


def test_criterion_05_oracle_equivalence():
    def body():
        cands = enumeration.enumerate_tilings(6, 6)
        rng = np.random.default_rng(11)
        picks = rng.choice(len(cands.tilings), size=50, replace=False)
        tilings = [cands.tilings[i] for i in picks]
        tilings += [assembly.tiling_from_group(g, 10, 10) for g in GOLDEN]
        for t in tilings:
            A = flows.transfer_matrix(blocking.dbg_combinatorial(t))
            x = flows.initial_load(t)
            it = flows.iterate(A, x)
            cf = flows.closed_form(A, x)
            assert it.converged
            for j, v in cf.frame_load.items():
                assert abs(it.frame_load[j] - v) <= 1e-9

    _check(5, "iterate matches closed form within 1e-9 on 53 tilings", body)


def test_criterion_06_dbg_cross_validation():
    def body():
        for name in GOLDEN:
            t = assembly.tiling_from_group(name, 10, 10)
            comb = blocking.dbg_combinatorial(t)
            a = assembly.build_assembly(t)
            for eps in (0.005, 0.01, 0.05):
                geo = blocking.dbg_geometric(a, (0.0, 0.0, -1.0), eps)
                assert geo.arcs == comb.arcs, f"{name} eps={eps}"

    _check(6, "geometric DBG equals combinatorial DBG for p1/pg/p4, stable in eps", body)


def test_criterion_07_enumeration_counts():
    def body():
        t0 = time.perf_counter()
        c88 = enumeration.enumerate_tilings(8, 8)
        assert len(c88.tilings) == 8192
        ranked = enumeration.screen(c88, "max_load")
        wall = time.perf_counter() - t0
        assert len(ranked) == 8192
        assert wall < 10.0, f"screen took {wall:.1f}s"
        for m, n in ((3, 3), (3, 4)):
            ours = {
                t.orientation.tobytes()
                for t in enumeration.enumerate_tilings(m, n).tilings
            }
            brute = {
                t.orientation.tobytes()
                for t in brute_force_tilings(m, n)
            }
            assert ours == brute and len(ours) == 2 ** (m + n - 3)

    _check(7, "8192 canonical 8x8 tilings, brute-force-matched, screened < 10 s", body)


def test_criterion_08_wallpaper_ranking():
    def body():
        maxima = {}
        for name in GOLDEN:
            grid, r = _converged_grid(name, method="closed_form")
            maxima[name] = flows.flow_metrics(r)["max_load"]
        assert abs(maxima["p4"] - 4.88) <= TOL_GRID
        assert abs(maxima["pg"] - 6.27) <= TOL_GRID
        assert abs(maxima["p1"] - 6.43) <= TOL_GRID
        assert maxima["p4"] < maxima["pg"] < maxima["p1"]

    _check(8, "max frame load ranks p4 (4.88) < pg (6.27) < p1 (6.43)", body)


def test_criterion_09_geometry_export(tmp_path):
    def body():
        t = assembly.tiling_from_group("p1", 10, 10)
        a = assembly.build_assembly(t, gap=0.0, scale=(0.2, 0.2, 0.2))
        verts = np.vstack([m.vertices for _, _, m in a.blocks])
        base = verts[np.abs(verts[:, 2]) <= 1e-12]
        for axis in (base[:, 0] + base[:, 1], base[:, 0] - base[:, 1]):
            side = (axis.max() - axis.min()) / np.sqrt(2.0)
            assert abs(side - 2.83) <= 0.01, f"side {side}"

        manifest = assembly.export_assembly(a, tmp_path)
        for entry, (_, _, placed) in zip(manifest["blocks"], a.blocks):
            _, _, soup, _ = mesh.read_stl_soup(tmp_path / entry["file"])
            assert np.array_equal(soup, placed.corners().astype("<f4"))
        _, _, soup, _ = mesh.read_stl_soup(tmp_path / manifest["combined"])
        whole = np.concatenate([m.corners() for _, _, m in a.blocks]).astype("<f4")
        assert np.array_equal(soup, whole)

        t0 = time.perf_counter()
        meshes = [m for _, _, m in a.blocks]
        pairs = 0
        for i, j in itertools.combinations(range(len(meshes)), 2):
            assert not mesh.overlap(meshes[i], meshes[j], 1e-9)
            pairs += 1
        assert pairs == 4950
        assert time.perf_counter() - t0 < 30.0

    _check(9, "footprint 2.83 per side, STL bitwise roundtrip, 4950 pairs no overlap", body)


def test_criterion_10_fem_out_of_scope():
    def body():
        import interlock

        banned = ("fem", "stress", "mises", "displacement", "abaqus", "pressure")
        names = [n.lower() for n in dir(interlock)]
        for term in banned:
            assert not any(term in n for n in names), term

    _check(10, "no FEM surface exposed; covered qualitatively by criteria 2 and 8", body)
