"""Unit tests for Truchet tilings and block assemblies."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlock.assembly import (
    TruchetTiling,
    build_assembly,
    cell_translation,
    check_gap_scale,
    core_indices,
    count_assemblies,
    export_assembly,
    frame_indices,
    grid_from_letters,
    place_block,
    rotate_tiling,
    tiling_from_group,
    validate_tiling,
)
from interlock.block import WHITE_SIDES, versatile_block
from interlock.mesh import read_stl, signed_volume
from oracles import mesh_distance, reference_blocks, reference_export
from test_golden import LETTERS_12X9


def test_p1_pattern_is_uniform():
    t = tiling_from_group("p1", 4, 5)
    assert t.rows == 4 and t.cols == 5
    assert not t.orientation.any()
    assert t.group == "p1"


def test_pg_pattern_alternates_by_column():
    t = tiling_from_group("pg", 4, 4)
    # 1-based columns: odd columns take orientation 3, even columns 0
    assert np.array_equal(t.orientation[0], [3, 0, 3, 0])
    assert (t.orientation == t.orientation[0]).all()


def test_p4_pattern_is_the_2x2_motif():
    t = tiling_from_group("p4", 4, 4)
    motif = np.array([[3, 0], [2, 1]])
    assert np.array_equal(t.orientation[:2, :2], motif)
    assert np.array_equal(t.orientation, np.tile(motif, (2, 2)))


@pytest.mark.parametrize("name", ["p1", "pg", "p4"])
def test_wallpaper_tilings_are_valid(name):
    assert validate_tiling(tiling_from_group(name, 6, 6))


def test_tiling_from_group_requires_3x3():
    with pytest.raises(ValueError):
        tiling_from_group("p1", 2, 5)


def test_horizontal_pair_compatibility_table():
    # valid iff the shared edge shows exactly one white side, which happens
    # exactly when both blocks carry the same horizontal letter
    h_letter = {0: "W", 1: "E", 2: "E", 3: "W"}
    valid = set()
    for kl, kr in itertools.product(range(4), repeat=2):
        t = TruchetTiling(1, 2, np.array([[kl, kr]]))
        if validate_tiling(t):
            valid.add((kl, kr))
    assert valid == {(a, b) for a, b in itertools.product(range(4), repeat=2) if h_letter[a] == h_letter[b]}
    assert len(valid) == 8


def test_vertical_pair_compatibility_table():
    v_letter = {0: "N", 1: "N", 2: "S", 3: "S"}
    valid = set()
    for kt, kb in itertools.product(range(4), repeat=2):
        t = TruchetTiling(2, 1, np.array([[kt], [kb]]))
        if validate_tiling(t):
            valid.add((kt, kb))
    assert valid == {(a, b) for a, b in itertools.product(range(4), repeat=2) if v_letter[a] == v_letter[b]}


def _per_edge_rule(t):
    """The per-edge loop validate_tiling replaced."""
    o = t.orientation
    for r in range(t.rows):
        for c in range(t.cols):
            if c + 1 < t.cols:
                if ("E" in WHITE_SIDES[int(o[r, c])]) == ("W" in WHITE_SIDES[int(o[r, c + 1])]):
                    return False
            if r + 1 < t.rows:
                if ("S" in WHITE_SIDES[int(o[r, c])]) == ("N" in WHITE_SIDES[int(o[r + 1, c])]):
                    return False
    return True


@st.composite
def orientation_grids(draw):
    m = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=6))
    cells = draw(st.lists(st.integers(0, 3), min_size=m * n, max_size=m * n))
    return TruchetTiling(m, n, np.array(cells).reshape(m, n))


@settings(max_examples=300, deadline=None)
@given(orientation_grids())
def test_validate_tiling_follows_the_per_edge_rule(t):
    assert validate_tiling(t) is _per_edge_rule(t)
    perimeter = {
        (r - 1) * t.cols + c
        for r in range(1, t.rows + 1)
        for c in range(1, t.cols + 1)
        if r in (1, t.rows) or c in (1, t.cols)
    }
    assert frame_indices(t.rows, t.cols) == perimeter
    assert core_indices(t.rows, t.cols) == set(range(1, t.rows * t.cols + 1)) - perimeter


def test_validate_tiling_on_single_rows_and_columns():
    for o in ([[0, 3, 0, 0]], [[0, 1]], [[0], [3], [0]], [[0], [1]], [[2]]):
        t = TruchetTiling(len(o), len(o[0]), np.array(o))
        assert validate_tiling(t) is _per_edge_rule(t)
    assert validate_tiling(TruchetTiling(1, 4, np.array([[0, 3, 0, 0]])))
    assert not validate_tiling(TruchetTiling(3, 1, np.array([[0], [3], [0]])))


def test_count_assemblies():
    assert count_assemblies(3, 3) == 8
    assert count_assemblies(3, 4) == 16
    assert count_assemblies(8, 8) == 8192
    assert count_assemblies(2, 2) == 2


def test_frame_and_core_split():
    rows, cols = 3, 4
    frame = frame_indices(rows, cols)
    core = core_indices(rows, cols)
    assert frame | core == set(range(1, 13))
    assert not frame & core
    assert core == {6, 7}
    assert len(frame) == rows * cols - (rows - 2) * (cols - 2)


def test_rotate_tiling_preserves_validity():
    t = tiling_from_group("pg", 4, 6)
    r = rotate_tiling(t)
    assert (r.rows, r.cols) == (6, 4)
    assert validate_tiling(r)


def test_rotating_four_times_is_identity():
    t = tiling_from_group("p4", 5, 5)
    r = t
    for _ in range(4):
        r = rotate_tiling(r)
    assert np.array_equal(r.orientation, t.orientation)


def test_tilings_compare_and_hash_by_value():
    t = TruchetTiling(5, 4, tiling_from_group("pg", 5, 4).orientation)
    r = t
    for _ in range(4):
        r = rotate_tiling(r)
    assert r is not t and r == t and r in [t] and hash(r) == hash(t)
    assert len({t, r, rotate_tiling(t)}) == 2
    assert rotate_tiling(t) != t
    # the group is part of the value
    assert tiling_from_group("pg", 5, 4) != t


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=3), st.booleans(), st.booleans())
def test_rotation_conjugates_orientation(k, flip_r, flip_c):
    o = np.full((3, 3), k)
    t = TruchetTiling(3, 3, o)
    r = rotate_tiling(t)
    assert (r.orientation == (k + 1) % 4).all()
    assert validate_tiling(r) == validate_tiling(t)


def test_cell_translation_lattice():
    assert np.array_equal(cell_translation(1, 1), [2.0, 0.0])
    assert np.array_equal(cell_translation(1, 2), [3.0, 1.0])
    assert np.array_equal(cell_translation(2, 1), [3.0, -1.0])
    # the gap dilates the whole lattice
    assert np.allclose(cell_translation(2, 3, gap=0.5), 1.5 * cell_translation(2, 3))


def test_build_assembly_places_every_cell():
    t = tiling_from_group("p1", 3, 4)
    a = build_assembly(t)
    assert len(a.blocks) == 12
    assert a.frame == frame_indices(3, 4)
    assert a.core == core_indices(3, 4)
    indices = [idx for idx, _, _ in a.blocks]
    assert indices == list(range(1, 13))
    for idx, placement, mesh in a.blocks:
        assert signed_volume(mesh) == pytest.approx(2.0, abs=1e-9)
        r, c = t.cell_of(idx)
        assert np.allclose(placement.offset[:2], cell_translation(r, c))


def test_placement_maps_canonical_block_onto_stored_mesh():
    t = tiling_from_group("p4", 3, 3)
    sc = np.array([0.5, 0.5, 0.25])
    a = build_assembly(t, scale=tuple(sc))
    base = versatile_block().mesh.vertices
    for idx, placement, mesh in a.blocks:
        moved = (base @ placement.matrix.T + placement.offset) * sc
        assert np.allclose(mesh.vertices, moved)


def test_neighbors_touch_at_zero_gap():
    t = tiling_from_group("p1", 3, 3)
    a = build_assembly(t)
    meshes = {idx: m for idx, _, m in a.blocks}
    assert mesh_distance(meshes[1], meshes[2]) == pytest.approx(0.0, abs=1e-12)
    assert mesh_distance(meshes[1], meshes[4]) == pytest.approx(0.0, abs=1e-12)


def test_gap_separates_neighbors():
    t = tiling_from_group("p1", 3, 3)
    gapped = build_assembly(t, gap=0.25)
    meshes = {idx: m for idx, _, m in gapped.blocks}
    dmin = min(
        mesh_distance(meshes[i], meshes[j])
        for i, j in itertools.combinations(range(1, 10), 2)
    )
    assert dmin == pytest.approx(0.25, abs=1e-9)


def test_build_assembly_validates_input():
    bad = TruchetTiling(3, 3, np.array([[0, 1, 0], [0, 1, 0], [0, 1, 0]]))
    assert not validate_tiling(bad)
    with pytest.raises(ValueError):
        build_assembly(bad)
    good = tiling_from_group("p1", 3, 3)
    with pytest.raises(ValueError):
        build_assembly(good, gap=-0.1)
    with pytest.raises(ValueError):
        build_assembly(good, scale=(1.0, 0.0, 1.0))
    nan, inf = float("nan"), float("inf")
    for gap, scale in ((nan, 1.0), (inf, 1.0), (0.0, inf), (0.0, nan)):
        with pytest.raises(ValueError):
            build_assembly(good, gap=gap, scale=(scale, 1.0, 1.0))


@pytest.mark.parametrize("value", [0.7, 1.5, float("nan"), float("inf"), "1"])
def test_tiling_rejects_non_integral_orientations(value):
    grid = np.zeros((3, 3), dtype=object)
    grid[1, 1] = value
    with pytest.raises(ValueError, match="integers"):
        TruchetTiling(3, 3, grid if value == "1" else grid.astype(float))


def test_tiling_accepts_integral_floats():
    t = TruchetTiling(1, 2, np.array([[0.0, 3.0]]))
    assert t.orientation.dtype == np.int64
    assert t.orientation.tolist() == [[0, 3]]


def test_export_assembly_manifest(tmp_path):
    t = tiling_from_group("pg", 3, 4)
    a = build_assembly(t, gap=0.1, scale=(0.2, 0.2, 0.2))
    man = export_assembly(a, tmp_path)
    assert (tmp_path / "manifest.json").exists()
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert on_disk == json.loads(json.dumps(man))
    assert man["rows"] == 3 and man["cols"] == 4
    assert man["group"] == "pg"
    assert len(man["blocks"]) == 12
    files = {b["file"] for b in man["blocks"]}
    assert files == {f"block_{i:03d}.stl" for i in range(1, 13)}
    for b in man["blocks"]:
        assert (tmp_path / b["file"]).exists()
    combined = read_stl(tmp_path / man["combined"])
    assert len(combined.triangles) == 14 * 12
    assert signed_volume(combined) == pytest.approx(12 * 2 * 0.2**3, rel=1e-6)


def test_float32_precision_bound_admits_the_used_sizes_and_keeps_corners_distinct(tmp_path):
    """Gap 0.1 at scale 0.2, 0.3, 0.5 and scale 0.2 at 30x30 pass the
    bound.  At gap 2e5 on 3x3 the farthest corner's float32 spacing is
    exactly 1/8, the largest admitted, and every block still reads back
    with its 9 distinct corners; twice that gap is refused."""
    check_gap_scale(0.1, (0.2, 0.3, 0.5), 4, 5)
    check_gap_scale(0.0, (0.2, 0.2, 0.2), 30, 30)
    t = tiling_from_group("p1", 3, 3)
    export_assembly(build_assembly(t, gap=2e5), tmp_path)
    for path in sorted(tmp_path.glob("block_*.stl")):
        assert len(read_stl(path).vertices) == 9
    with pytest.raises(ValueError, match="float32"):
        build_assembly(t, gap=4e5)


ASSEMBLY_CASES = {
    # perfbench's grid_100 export, a size the golden corpus does not reach
    "p4-30x30": (tiling_from_group("p4", 30, 30), 0.0, (0.2, 0.2, 0.2)),
    "letters-12x9": (
        TruchetTiling(12, 9, grid_from_letters(*([int(ch) for ch in s] for s in LETTERS_12X9))),
        0.1,
        (0.2, 0.3, 0.5),
    ),
    "p1-3x3-widest-gap": (tiling_from_group("p1", 3, 3), 2e5, (1.0, 1.0, 1.0)),
    "1x1": (TruchetTiling(1, 1, np.array([[2]])), 0.0, (1.0, 1.0, 1.0)),
    "2x3": (TruchetTiling(2, 3, grid_from_letters([1, 0], [0, 1, 1])), 0.25, (0.5, 1.0, 2.0)),
}


@pytest.mark.parametrize("case", sorted(ASSEMBLY_CASES))
def test_array_assembly_matches_the_per_cell_loop_bit_for_bit(case, tmp_path):
    """Blocks and every exported byte equal those of the per-cell loop the
    arrays replaced (`oracles.reference_blocks`, `reference_export`)."""
    t, gap, scale = ASSEMBLY_CASES[case]
    a = build_assembly(t, gap, scale)
    expected = reference_blocks(t, gap, scale)
    assert len(a.blocks) == len(expected)
    for (index, placement, mesh), (ref_index, matrix, offset, ref_mesh) in zip(a.blocks, expected):
        assert index == ref_index
        assert placement.matrix.tobytes() == matrix.tobytes()
        assert placement.offset.tobytes() == offset.tobytes()
        assert mesh.vertices.tobytes() == ref_mesh.vertices.tobytes()
        assert np.array_equal(mesh.triangles, ref_mesh.triangles)
    export_assembly(a, tmp_path / "arrays")
    reference_export(t, gap, scale, expected, tmp_path / "loop")
    trees = [
        {p.name: p.read_bytes() for p in (tmp_path / side).iterdir()}
        for side in ("arrays", "loop")
    ]
    assert sorted(trees[0]) == sorted(trees[1])
    assert [name for name in trees[0] if trees[0][name] != trees[1][name]] == []


@pytest.mark.parametrize(
    "k, scale, message",
    [
        (-1, (1.0, 1.0, 1.0), "orientation must be 0..3"),
        (4, (1.0, 1.0, 1.0), "orientation must be 0..3"),
        (0, (1.0, 0.0, 1.0), "scale factors must be positive"),
    ],
)
def test_place_block_rejects_bad_orientations_and_scales(k, scale, message):
    with pytest.raises(ValueError, match=message):
        place_block(k, 1, 1, scale=scale)
