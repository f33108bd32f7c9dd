"""Unit tests for directional blocking graphs."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlock import blocking
from interlock.assembly import (
    TruchetTiling,
    build_assembly,
    core_indices,
    frame_indices,
    rotate_tiling,
    tiling_from_group,
    validate_tiling,
)
from interlock.block import WHITE_SIDES
from interlock.blocking import PoseTable, dbg_combinatorial, dbg_geometric
from interlock.enumeration import grid_from_letters
from interlock.mesh import overlap, translate

DOWN = (0.0, 0.0, -1.0)

# Grid-compass deltas in (row, col).
SIDE_STEPS = {"N": (-1, 0), "S": (1, 0), "W": (0, -1), "E": (0, 1)}


def test_p1_graph_shape():
    t = tiling_from_group("p1", 4, 4)
    g = dbg_combinatorial(t)
    assert g.n_nodes == 16
    assert g.direction == (0.0, 0.0, -1.0)
    assert g.frame == frame_indices(4, 4)
    for i in g.frame:
        assert (i, i) in g.arcs
    # orientation 0 blocks lean on their north and west neighbors
    assert g.out_arcs(6) == [(6, 2), (6, 5)]
    assert g.out_arcs(11) == [(11, 7), (11, 10)]


def test_core_out_degree_is_two():
    for name in ("p1", "pg", "p4"):
        t = tiling_from_group(name, 5, 6)
        g = dbg_combinatorial(t)
        for i in core_indices(5, 6):
            assert len(g.out_arcs(i)) == 2
            assert all(i != j for _, j in g.out_arcs(i))
        for i in frame_indices(5, 6):
            assert g.out_arcs(i) == [(i, i)]


def test_graph_rotates_with_the_tiling():
    m, n = 4, 5
    t = tiling_from_group("pg", m, n)
    g = dbg_combinatorial(t)
    gr = dbg_combinatorial(rotate_tiling(t))

    def relabel(i: int) -> int:
        r, c = divmod(i - 1, n)
        r, c = r + 1, c + 1
        # clockwise quarter turn: (r, c) in m x n lands at (c, m + 1 - r)
        return (c - 1) * m + (m + 1 - r)

    assert gr.arcs == {(relabel(i), relabel(j)) for i, j in g.arcs}
    assert gr.frame == {relabel(i) for i in g.frame}


def _per_cell_arcs(t):
    """The per-cell loop dbg_combinatorial replaced."""
    arcs = set()
    for r in range(1, t.rows + 1):
        for c in range(1, t.cols + 1):
            i = t.linear_index(r, c)
            if r in (1, t.rows) or c in (1, t.cols):
                arcs.add((i, i))
                continue
            for side in sorted(WHITE_SIDES[int(t.orientation[r - 1, c - 1])]):
                dr, dc = SIDE_STEPS[side]
                arcs.add((i, t.linear_index(r + dr, c + dc)))
    return arcs


@st.composite
def letter_tilings(draw):
    m = draw(st.integers(min_value=1, max_value=8))
    n = draw(st.integers(min_value=1, max_value=8))
    h = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    v = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return TruchetTiling(m, n, grid_from_letters(h, v))


@settings(max_examples=60, deadline=None)
@given(letter_tilings())
def test_combinatorial_arcs_match_a_per_cell_reference(t):
    g = dbg_combinatorial(t)
    assert g.arcs == _per_cell_arcs(t)
    assert g.frame == frame_indices(t.rows, t.cols)
    assert g.n_nodes == t.rows * t.cols


def test_geometric_matches_combinatorial_small():
    t = tiling_from_group("p1", 3, 3)
    a = build_assembly(t)
    geo = dbg_geometric(a, (0.0, 0.0, -1.0))
    assert geo.arcs == dbg_combinatorial(t).arcs


def test_graph_is_a_sorted_read_only_arc_array_compared_by_value():
    t = tiling_from_group("p4", 5, 6)
    g, geo = dbg_combinatorial(t), dbg_geometric(build_assembly(t), DOWN)
    arcs = g.arc_array
    assert arcs.dtype == np.int64 and arcs.shape == (2 * 12 + 18, 2)
    assert not arcs.flags.writeable
    assert list(map(tuple, arcs.tolist())) == sorted(g.arcs)
    assert geo == g and hash(geo) == hash(g) and geo is not g
    assert g != blocking.BlockingGraph(g.n_nodes, arcs, (0.0, 0.0, 1.0), g.frame)
    assert g != blocking.BlockingGraph(g.n_nodes, arcs[:-1], g.direction, g.frame)


def _realised_pairs() -> dict:
    """(dr, dc) -> the (k_i, k_j) orientation pairs that cells (r, c) and
    (r + dr, c + dc) take in some valid tiling.  Every valid tiling is a
    choice of one letter per row and per column, so the 1,024 grids of
    5x5 letters hold every pair at every offset of up to two steps."""
    letters = np.array(list(itertools.product((0, 1), repeat=10)))
    grids = grid_from_letters(letters[:, :5], letters[:, 5:])
    assert all(validate_tiling(TruchetTiling(5, 5, g)) for g in grids)
    pairs = {}
    for dr, dc in itertools.product(range(-2, 3), repeat=2):
        a = grids[:, max(0, -dr): 5 - max(0, dr), max(0, -dc): 5 - max(0, dc)]
        b = grids[:, max(0, dr): 5 + min(0, dr), max(0, dc): 5 + min(0, dc)]
        codes = np.unique(4 * a + b)
        pairs[(dr, dc)] = {(int(x) // 4, int(x) % 4) for x in codes}
    return pairs


@pytest.mark.parametrize("scale", [(1.0, 1.0, 1.0), (0.2, 0.3, 0.5)], ids=["unit", "scaled"])
@pytest.mark.parametrize("eps", [0.005, 0.01, 0.05])
def test_pose_table_follows_the_white_side_rule(eps, scale):
    """Arc iff (dr, dc) steps across a white side of k_i, for every pose a
    valid tiling realises: geometric = combinatorial on every gapless
    tiling of any size at this eps and scale."""
    table = PoseTable(DOWN, eps, scale)
    assert set(SIDE_STEPS.values()) <= set(table.window)
    realised = _realised_pairs()
    checked = 0
    for dr, dc in table.window:
        for k_i, k_j in sorted(realised[(dr, dc)]):
            white = {SIDE_STEPS[side] for side in WHITE_SIDES[k_i]}
            assert table.blocks(k_i, k_j, dr, dc) == ((dr, dc) in white), (k_i, k_j, dr, dc)
            checked += 1
    assert checked > 4 * len(table.window)


def test_geometric_table_cost_does_not_grow_with_the_grid(monkeypatch):
    calls = []
    real = blocking.overlap

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(blocking, "overlap", counting)
    counts = []
    for n in (10, 20):
        calls.clear()
        t = tiling_from_group("p4", n, n)
        assert dbg_geometric(build_assembly(t), DOWN).arcs == dbg_combinatorial(t).arcs
        counts.append(len(calls))
    assert counts[0] == counts[1]
    assert 0 < counts[0] <= 16 * len(PoseTable(DOWN, 0.01, (1.0, 1.0, 1.0)).window)


def test_upward_direction_reverses_core_arcs():
    t = tiling_from_group("p1", 3, 3)
    a = build_assembly(t)
    up = dbg_geometric(a, (0.0, 0.0, 1.0))
    loops = {(i, i) for i in frame_indices(3, 3)}
    # the single core block now hangs on its south and east neighbors
    assert up.arcs == loops | {(5, 8), (5, 6)}


def test_direction_is_normalized_in_output():
    t = tiling_from_group("p1", 3, 3)
    a = build_assembly(t)
    g = dbg_geometric(a, (0.0, 0.0, -2.5))
    assert np.allclose(g.direction, (0.0, 0.0, -1.0))


def test_direction_whose_norm_overflows_still_normalises():
    huge = PoseTable((1e300, 1e300, -1e300), 0.01, (1.0, 1.0, 1.0)).direction
    assert np.allclose(huge, np.array([1.0, 1.0, -1.0]) / np.sqrt(3.0))


@pytest.mark.parametrize(
    "call",
    [
        lambda a, block: dbg_geometric(a, (0.0, 0.0, -np.inf)),
        lambda a, block: dbg_geometric(a, (0.0, np.nan, -1.0)),
        lambda a, block: dbg_geometric(a, DOWN, tol=np.inf),
        lambda a, block: dbg_geometric(a, DOWN, tol=np.nan),
        lambda a, block: dbg_geometric(a, DOWN, tol=-1e-9),
        lambda a, block: overlap(block, translate(block, (0.5, 0.0, 0.0)), np.nan),
        lambda a, block: overlap(block, translate(block, (0.5, 0.0, 0.0)), np.inf),
    ],
    ids=["direction-inf", "direction-nan", "tol-inf", "tol-nan", "tol-negative",
         "overlap-tol-nan", "overlap-tol-inf"],
)
def test_geometry_rejects_non_finite_inputs(call):
    a = build_assembly(tiling_from_group("p1", 3, 3))
    with pytest.raises(ValueError, match="must be finite"):
        call(a, a.blocks[0][2])


def test_geometric_rejects_bad_inputs():
    t = tiling_from_group("p1", 3, 3)
    a = build_assembly(t)
    with pytest.raises(ValueError):
        dbg_geometric(a, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        dbg_geometric(a, (0.0, 0.0, -1.0), eps_scale=0.0)
    with pytest.raises(ValueError):
        dbg_geometric(a, (0.0, 0.0, -1.0), eps_scale=0.3)
    gapped = build_assembly(t, gap=0.1)
    with pytest.raises(ValueError):
        dbg_geometric(gapped, (0.0, 0.0, -1.0))

