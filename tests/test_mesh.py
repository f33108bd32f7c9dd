"""Unit tests for the triangle mesh container and its geometry kernels."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlock import mesh
from interlock.assembly import build_assembly, place_block, tiling_from_group
from interlock.block import oriented_block
from interlock.mesh import (
    TriMesh,
    _points_in_mesh,
    aabb,
    cross_section_area,
    euler_characteristic,
    overlap,
    point_in_mesh,
    read_stl,
    read_stl_soup,
    scale,
    signed_volume,
    translate,
    validate_mesh,
    write_obj,
    write_stl,
)
from oracles import edges_pair_up, mesh_distance

_R_CW = np.array([[0.0, 1.0], [-1.0, 0.0]])


def unit_cube() -> TriMesh:
    v = np.array(
        [
            [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
            [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
        ],
        dtype=float,
    )
    t = np.array(
        [
            [0, 2, 1], [0, 3, 2],
            [4, 5, 6], [4, 6, 7],
            [0, 1, 5], [0, 5, 4],
            [2, 3, 7], [2, 7, 6],
            [0, 4, 7], [0, 7, 3],
            [1, 2, 6], [1, 6, 5],
        ]
    )
    return TriMesh(v, t)


def test_cube_is_a_valid_closed_surface():
    m = unit_cube()
    validate_mesh(m)
    assert len(m.vertices) == 8
    assert len(m.triangles) == 12
    assert euler_characteristic(m) == 2
    assert abs(signed_volume(m) - 1.0) < 1e-12


def test_trimesh_rejects_bad_shapes():
    with pytest.raises(ValueError):
        TriMesh(np.zeros((3, 2)), np.zeros((1, 3), dtype=int))
    with pytest.raises(ValueError):
        TriMesh(np.zeros((3, 3)), np.array([[0, 1, 3]]))


def test_trimesh_arrays_are_read_only():
    m = unit_cube()
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 5.0


def test_validate_rejects_flipped_triangle():
    m = unit_cube()
    t = m.triangles.copy()
    t[0] = t[0][::-1]
    with pytest.raises(ValueError):
        validate_mesh(TriMesh(m.vertices, t))


def test_validate_rejects_degenerate_triangle():
    v = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]], dtype=float)
    t = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])
    with pytest.raises(ValueError):
        validate_mesh(TriMesh(v, t))


def test_cross_section_of_cube():
    m = unit_cube()
    assert abs(cross_section_area(m, 0.5) - 1.0) < 1e-12
    assert abs(cross_section_area(m, 0.25) - 1.0) < 1e-12


@pytest.mark.parametrize("z", [0.0, 1.0, -0.5, 1.5])
def test_cross_section_rejects_boundary_and_outside(z):
    with pytest.raises(ValueError):
        cross_section_area(unit_cube(), z)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.5, max_value=3.0),
    st.floats(min_value=0.5, max_value=3.0),
    st.floats(min_value=0.5, max_value=2.0),
)
def test_cross_section_scales_with_xy_factors(a, b, c):
    m = scale(unit_cube(), a, b, c)
    assert cross_section_area(m, 0.5 * c) == pytest.approx(a * b, rel=1e-9)
    assert signed_volume(m) == pytest.approx(a * b * c, rel=1e-9)


def test_scale_requires_positive_factors():
    with pytest.raises(ValueError):
        scale(unit_cube(), 1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        scale(unit_cube(), 0.0, 1.0, 1.0)


def test_translate_moves_aabb():
    m = translate(unit_cube(), (2.0, -1.0, 0.5))
    lo, hi = aabb(m)
    assert np.allclose(lo, [2.0, -1.0, 0.5])
    assert np.allclose(hi, [3.0, 0.0, 1.5])


def test_volume_invariant_under_isometry():
    cube = unit_cube()
    xy = cube.vertices[:, :2] @ _R_CW.T + np.array([2.0, -1.0])
    m = TriMesh(np.column_stack([xy, cube.vertices[:, 2]]), cube.triangles)
    validate_mesh(m)
    assert signed_volume(m) == pytest.approx(1.0, abs=1e-12)


def test_point_in_mesh_classification():
    m = unit_cube()
    assert point_in_mesh((0.5, 0.5, 0.5), m)
    assert not point_in_mesh((1.5, 0.5, 0.5), m)
    # points on the surface count as outside
    assert not point_in_mesh((1.0, 0.5, 0.5), m)
    assert not point_in_mesh((0.0, 0.0, 0.0), m)


def golden_cloud(m: TriMesh) -> np.ndarray:
    """2,006 seeded query points around ``m``: every vertex, points on
    every edge and face, face points nudged across the surface by 0.5 and
    2 tol and by 1e-3, and uniform points in the bounding box grown by a
    fifth on each side."""
    rng = np.random.default_rng(20231)
    v, c = m.vertices, m.corners()
    edges = sorted(
        {(min(a, b), max(a, b)) for t in m.triangles.tolist() for a, b in zip(t, t[1:] + t[:1])}
    )
    on_edges = [v[a] + f * (v[b] - v[a]) for a, b in edges for f in (0.1, 0.25, 0.5, 0.75, 0.9)]
    bary = rng.dirichlet((1.0, 1.0, 1.0), size=(len(c), 10))
    on_faces = np.einsum("tsk,tkx->tsx", bary, c).reshape(-1, 3)
    n = np.cross(c[:, 1] - c[:, 0], c[:, 2] - c[:, 0])
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    base = np.einsum("tsk,tkx->tsx", bary[:, :3], c)
    offsets = np.array([-1e-3, -2e-9, -0.5e-9, 0.5e-9, 2e-9, 1e-3])
    nudged = base[:, :, None, :] + offsets[None, None, :, None] * n[:, None, None, :]
    lo, hi = aabb(m)
    pad = 0.2 * (hi - lo)
    uniform = rng.uniform(lo - pad, hi + pad, size=(1500, 3))
    return np.vstack([v, on_edges, on_faces, nudged.reshape(-1, 3), uniform])


# np.packbits of the per-point point_in_mesh answers (tol 1e-9) for
# golden_cloud(place_block(1, 2, 3, scale=(0.2, 0.3, 0.5))), recorded with
# the one-point-at-a-time classifier before it was batched
GOLDEN_INSIDE_HEX = (
    "00000000000000000000000000000000000000000000000000000000000000030c30c30c"
    "30c30c30c30c30c30c30c30c30c30c30c30c30c30c30c30c30c30c108a00608100240100"
    "0408004041080100801107440124108880009040720000060002404080c0a04100180802"
    "40200f8c40021020012000001d49550010200d04899390020800400200404084120e0a10"
    "0441041001004080021100500000060088c08004942c0800204001203801010810888010"
    "0404084022200e04004006c800150cac004144603110c00081000a410610189201000524"
    "1180400021a00158002022c220104400000060d0086804202385080070514810000500"
)


def test_batched_classifier_reproduces_golden_answers():
    m = place_block(1, 2, 3, scale=(0.2, 0.3, 0.5))
    points = golden_cloud(m)
    assert len(points) == 2006
    golden = np.unpackbits(np.frombuffer(bytes.fromhex(GOLDEN_INSIDE_HEX), dtype=np.uint8))
    golden = golden[: len(points)].astype(bool)
    assert golden.sum() == 348
    assert np.array_equal(_points_in_mesh(points, m, 1e-9), golden)
    # the answers do not depend on the ray directions drawn
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        assert np.array_equal(_points_in_mesh(points, m, 1e-9, rng), golden)
    for i in range(0, len(points), 97):
        assert point_in_mesh(points[i], m, 1e-9) == golden[i]


def test_batched_classifier_handles_empty_sets():
    assert _points_in_mesh(np.empty((0, 3)), unit_cube()).shape == (0,)


class ScriptedRng:
    """Hands out the scripted ray directions, one row per point, and
    records how many points each round asked for."""

    def __init__(self, *directions):
        self.directions = list(directions)
        self.asked = []

    def standard_normal(self, shape):
        self.asked.append(shape[0])
        d = self.directions.pop(0) if len(self.directions) > 1 else self.directions[0]
        return np.tile(d, (shape[0], 1))


def test_batched_classifier_retries_only_grazing_points():
    cube = unit_cube()
    # the first diagonal rays from the centre and from (-1, -1, -1) pass
    # through cube corners and graze; the other two rays do not
    rng = ScriptedRng((1.0, 1.0, 1.0), (0.3, 0.2, 0.9))
    points = [(0.5, 0.5, 0.5), (0.25, 0.5, 0.4), (2.0, 0.5, 0.5), (-1.0, -1.0, -1.0)]
    inside = _points_in_mesh(points, cube, rng=rng)
    assert inside.tolist() == [True, True, False, False]
    assert rng.asked == [4, 2]
    with pytest.raises(RuntimeError):
        _points_in_mesh([(0.5, 0.5, 0.5)], cube, rng=ScriptedRng((1.0, 1.0, 1.0)))


def test_overlap_cases():
    a = unit_cube()
    assert overlap(a, translate(a, (0.5, 0.0, 0.0)))
    assert not overlap(a, translate(a, (2.0, 0.0, 0.0)))
    # face to face contact is not an overlap
    assert not overlap(a, translate(a, (1.0, 0.0, 0.0)))
    # full containment has no surface crossing but still overlaps
    inner = translate(scale(a, 0.2, 0.2, 0.2), (0.4, 0.4, 0.4))
    assert overlap(a, inner)
    assert overlap(inner, a)


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0]),
    st.sampled_from([0.0, 0.5, 1.0]),
)
def test_overlap_is_symmetric(dx, dz):
    a = unit_cube()
    b = translate(a, (dx, 0.0, dz))
    assert overlap(a, b) == overlap(b, a)


def test_overlap_answers_do_not_depend_on_pair_order(monkeypatch):
    computed = []
    compute = mesh._compute_interior_samples

    def counting(m, tol):
        computed.append(m)
        return compute(m, tol)

    monkeypatch.setattr(mesh, "_compute_interior_samples", counting)

    def audit(reverse):
        meshes = [m for _, _, m in build_assembly(tiling_from_group("p4", 4, 4)).blocks]
        meshes.append(translate(meshes[5], (0.0, 0.0, 0.0)))  # a coincident copy
        pairs = list(itertools.combinations(range(len(meshes)), 2))
        if reverse:
            answers = {(i, j): overlap(meshes[j], meshes[i]) for i, j in reversed(pairs)}
        else:
            answers = {(i, j): overlap(meshes[i], meshes[j]) for i, j in pairs}
        return answers, meshes

    forward, meshes_f = audit(reverse=False)
    backward, meshes_b = audit(reverse=True)
    assert forward == backward
    assert [pair for pair, hit in forward.items() if hit] == [(5, 16)]
    assert computed
    assert len({id(m) for m in computed}) == len(computed)
    for a, b in zip(meshes_f, meshes_b):
        assert np.array_equal(
            mesh._interior_samples(a, mesh.DEFAULT_TOL), mesh._interior_samples(b, mesh.DEFAULT_TOL)
        )


def test_mesh_distance():
    a = unit_cube()
    assert mesh_distance(a, translate(a, (1.5, 0.0, 0.0))) == pytest.approx(0.5)
    assert mesh_distance(a, translate(a, (1.0, 0.0, 0.0))) == pytest.approx(0.0)
    assert mesh_distance(a, a) == 0.0


def test_stl_roundtrip_preserves_geometry(tmp_path):
    path = tmp_path / "cubes.stl"
    a = unit_cube()
    b = translate(a, (3.0, 0.0, 0.0))
    write_stl([a, b], path)
    m = read_stl(path)
    assert len(m.triangles) == 24
    assert len(m.vertices) == 16
    assert signed_volume(m) == pytest.approx(2.0, abs=1e-9)


def test_stl_rewrite_is_bitwise_stable(tmp_path):
    p1 = tmp_path / "one.stl"
    p2 = tmp_path / "two.stl"
    write_stl(unit_cube(), p1)
    write_stl(read_stl(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_stl_soup_exposes_raw_records(tmp_path):
    path = tmp_path / "cube.stl"
    write_stl(unit_cube(), path, tag="hello")
    header, normals, corners, attrs = read_stl_soup(path)
    assert header.startswith(b"hello")
    assert normals.shape == (12, 3)
    assert corners.shape == (12, 3, 3)
    assert attrs.shape == (12,)
    assert not attrs.any()
    # normals are unit length
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-6)


def test_obj_export_format(tmp_path):
    path = tmp_path / "cubes.obj"
    a = unit_cube()
    b = translate(a, (3.0, 0.0, 0.0))
    write_obj([a, b], path, names=["left", "right"])
    lines = path.read_text().splitlines()
    assert lines[0] == "o left"
    v_lines = [ln for ln in lines if ln.startswith("v ")]
    f_lines = [ln for ln in lines if ln.startswith("f ")]
    assert len(v_lines) == 16
    assert len(f_lines) == 24
    idx = np.array([[int(tok) for tok in ln.split()[1:]] for ln in f_lines])
    assert idx.min() == 1 and idx.max() == 16
    # faces of the second mesh index past the first mesh block
    assert idx[12:].min() == 9


def _union(*meshes: TriMesh) -> TriMesh:
    """One mesh holding the given meshes as separate components."""
    offsets = np.cumsum([0] + [len(m.vertices) for m in meshes[:-1]])
    return TriMesh(
        np.concatenate([m.vertices for m in meshes]),
        np.concatenate([m.triangles + k for m, k in zip(meshes, offsets)]),
    )


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("sx, sy, sz", [(1.0, 1.0, 1.0), (0.2, 0.3, 0.5), (3.0, 0.7, 2.0)])
def test_block_cross_section_is_exact_when_scaled_and_moved(k, sx, sy, sz):
    base = scale(oriented_block(k), sx, sy, sz)
    rng = np.random.default_rng(k)
    for d in rng.uniform(-15.0, 15.0, (10, 3)):
        m = translate(base, d)
        for z in d[2] + sz * np.array([0.01, 0.3, 0.5, 0.77, 0.99]):
            area = cross_section_area(m, z)
            assert abs(area - 2 * sx * sy) <= 1e-13 * 2 * sx * sy


def test_cross_section_adds_components_and_subtracts_cavities():
    small = translate(scale(unit_cube(), 0.5, 2.0, 1.0), (3.0, -1.0, 0.0))
    assert cross_section_area(_union(unit_cube(), small), 0.5) == pytest.approx(2.0, rel=1e-15)
    # a cube with a cavity: the inner cube wound inward
    outer = translate(scale(unit_cube(), 3.0, 3.0, 3.0), (-1.0, -1.0, -1.0))
    inner = unit_cube()
    hollow = _union(outer, TriMesh(inner.vertices, inner.triangles[:, ::-1]))
    validate_mesh(hollow)
    assert cross_section_area(hollow, 0.5) == pytest.approx(8.0, rel=1e-15)


def _degenerate() -> TriMesh:
    v = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]], dtype=float)
    return TriMesh(v, np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]]))


@pytest.mark.parametrize(
    "broken, message",
    [
        (lambda t: np.vstack([t, t[:1]]), r"directed edge \(\d+, \d+\) used 2 times"),
        (lambda t: t[1:], r"edge \{\d+, \d+\} is not shared by two opposed triangles"),
        (lambda t: np.vstack([t[:1, ::-1], t[1:]]), r"directed edge \(\d+, \d+\) used 2 times"),
        (None, "degenerate triangle"),
        (lambda t: t[:, ::-1], "signed volume is not positive"),
    ],
    ids=["duplicated-edge", "open", "flipped-triangle", "degenerate", "inverted"],
)
def test_validate_mesh_names_each_rejection(broken, message):
    m = unit_cube()
    bad = _degenerate() if broken is None else TriMesh(m.vertices, broken(m.triangles))
    with pytest.raises(ValueError, match=message):
        validate_mesh(bad)


def test_validate_mesh_edge_rule_agrees_with_a_dict_count():
    """Blocks with up to two triangles flipped, deleted, duplicated or
    re-indexed: the edge messages appear exactly when the dict count
    finds an edge used twice or unpaired."""
    rng = np.random.default_rng(26)
    for trial in range(600):
        block = oriented_block(trial % 4)
        t = block.triangles.copy()
        for _ in range(rng.integers(1, 3)):
            i = rng.integers(len(t))
            kind = rng.integers(4)
            if kind == 0:
                t[i] = t[i][::-1]
            elif kind == 1:
                t = np.delete(t, i, axis=0)
            elif kind == 2:
                t = np.vstack([t, t[i : i + 1]])
            else:
                t[i, rng.integers(3)] = rng.integers(9)
        m = TriMesh(block.vertices, t)
        try:
            validate_mesh(m)
            verdict = "valid"
        except ValueError as exc:
            verdict = str(exc)
        if verdict != "degenerate triangle":
            assert verdict.startswith(("directed edge", "edge {")) == (not edges_pair_up(m))
