"""Unit tests for the load transfer model."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlock.assembly import TruchetTiling, core_indices, frame_indices, tiling_from_group
from interlock.blocking import BlockingGraph, dbg_combinatorial
from interlock.enumeration import grid_from_letters
from interlock.flows import (
    FlowError,
    closed_form,
    flow_grid,
    flow_metrics,
    frame_metrics,
    initial_load,
    iterate,
    step,
    transfer_matrix,
    write_flow_csv,
    write_flow_json,
    write_flow_svg,
)


def _graph(n, arcs, frame, direction=(0.0, 0.0, -1.0)):
    return BlockingGraph(n, sorted(arcs), direction, frozenset(frame))


def _wallpaper_result(name, m, n, method=closed_form):
    t = tiling_from_group(name, m, n)
    A = transfer_matrix(dbg_combinatorial(t))
    return method(A, initial_load(t))


def trapped_graph():
    # three core blocks propping each other up in a cycle, one frame block
    arcs = {(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2), (4, 4)}
    return _graph(4, arcs, {4})


def test_transfer_matrix_rows_are_stochastic():
    t = tiling_from_group("p4", 5, 5)
    A = transfer_matrix(dbg_combinatorial(t))
    assert A.n == 25
    dense = A.matrix.toarray()
    assert np.allclose(dense.sum(axis=1), 1.0)
    frame = frame_indices(5, 5)
    for i in range(25):
        if i + 1 in frame:
            assert dense[i, i] == 1.0 and dense[i].sum() == 1.0
        else:
            assert dense[i, i] == 0.0
            assert sorted(dense[i][dense[i] > 0]) == [0.5, 0.5]


def test_transfer_matrix_rejects_broken_frames():
    # frame node with an outgoing arc to a neighbor
    g = _graph(2, {(1, 1), (1, 2), (2, 2)}, {1, 2})
    with pytest.raises(ValueError, match="^frame node 1 "):
        transfer_matrix(g)
    # frame node with no self-loop
    g = _graph(2, {(2, 2)}, {1, 2})
    with pytest.raises(ValueError, match="^frame node 1 "):
        transfer_matrix(g)
    # the lowest-numbered offender is reported: core node 1 before frame
    # node 2, then frame node 2 once node 1 is whole
    g = _graph(4, {(1, 2), (2, 2), (2, 3), (3, 3), (4, 4)}, {2, 3, 4})
    with pytest.raises(ValueError, match="core node 1 has out-arcs \\[2\\]"):
        transfer_matrix(g)
    g = _graph(4, {(1, 2), (1, 3), (2, 2), (2, 3), (3, 3), (4, 4)}, {2, 3, 4})
    with pytest.raises(ValueError, match="^frame node 2 "):
        transfer_matrix(g)


def test_transfer_matrix_rejects_bad_core_degree():
    # core node 1 leaning on a single support
    g = _graph(3, {(1, 2), (2, 2), (3, 3)}, {2, 3})
    with pytest.raises(ValueError, match="core node 1 has out-arcs \\[2\\]$"):
        transfer_matrix(g)
    # core self-loops make no physical sense
    g = _graph(3, {(1, 1), (1, 2), (2, 2), (3, 3)}, {2, 3})
    with pytest.raises(ValueError, match="core node 1 has out-arcs \\[1, 2\\]$"):
        transfer_matrix(g)
    # three supports
    g = _graph(4, {(1, 2), (1, 3), (1, 4), (2, 2), (3, 3), (4, 4)}, {2, 3, 4})
    with pytest.raises(ValueError, match="core node 1 has out-arcs \\[2, 3, 4\\]$"):
        transfer_matrix(g)


@pytest.mark.parametrize(
    "arcs",
    [[(1, 3), (1, 2), (2, 2), (3, 3)], [(2, 2), (1, 2), (1, 3), (3, 3)],
     [(1, 2), (1, 3), (2, 2), (2, 2), (3, 3)]],
    ids=["heads-unsorted", "tails-unsorted", "repeated"],
)
def test_transfer_matrix_rejects_unsorted_or_repeated_arcs(arcs):
    g = BlockingGraph(3, arcs, (0.0, 0.0, -1.0), frozenset({2, 3}))
    with pytest.raises(ValueError, match="sorted by \\(tail, head\\) without repeats"):
        transfer_matrix(g)
    assert transfer_matrix(BlockingGraph(3, sorted(set(arcs)), g.direction, g.frame)).n == 3


def test_transfer_matrix_rejects_nodes_outside_the_graph():
    for arcs, frame in (({(1, 2), (1, 5), (2, 2)}, {2}), ({(1, 1)}, {1, 0})):
        with pytest.raises(ValueError, match="numbered 1..2"):
            transfer_matrix(_graph(2, arcs, frame))


def test_initial_load_marks_core_cells():
    t = tiling_from_group("p1", 4, 5)
    x = initial_load(t)
    assert x.shape == (20,)
    core = core_indices(4, 5)
    for i in range(1, 21):
        assert x[i - 1] == (1.0 if i in core else 0.0)
    assert initial_load(t, core_value=2.5).sum() == pytest.approx(2.5 * len(core))
    with pytest.raises(ValueError):
        initial_load(t, core_value=-1.0)


def test_step_matches_matrix_action():
    t = tiling_from_group("pg", 4, 4)
    A = transfer_matrix(dbg_combinatorial(t))
    x = initial_load(t)
    manual = A.matrix.T @ x
    assert np.allclose(step(A, x), manual)
    with pytest.raises(ValueError):
        step(A, np.ones(3))


def test_step_conserves_mass():
    t = tiling_from_group("p4", 6, 6)
    A = transfer_matrix(dbg_combinatorial(t))
    x = initial_load(t)
    for _ in range(20):
        x = step(A, x)
    assert x.sum() == pytest.approx(16.0, abs=1e-12)


def test_iterate_agrees_with_closed_form():
    for name in ("p1", "pg", "p4"):
        a = _wallpaper_result(name, 6, 6, iterate)
        b = _wallpaper_result(name, 6, 6, closed_form)
        assert a.converged and b.converged
        assert set(a.frame_load) == set(b.frame_load)
        for j, v in a.frame_load.items():
            assert v == pytest.approx(b.frame_load[j], abs=1e-9)
        assert a.total_frame_mass() == pytest.approx(16.0, abs=1e-9)
        assert b.residual_core_mass == 0.0
        assert b.iterations == 0


def test_iterate_parameter_validation():
    t = tiling_from_group("p1", 3, 3)
    A = transfer_matrix(dbg_combinatorial(t))
    x = initial_load(t)
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            iterate(A, x, tol=tol)
    with pytest.raises(ValueError):
        iterate(A, x, max_iter=0)


def reference_iterate(A, x, tol=1e-12, max_iter=10**6):
    """The per-step loop that iterate replaced: x = A^T x in the original
    node order, residual = the sum of the fancy-indexed core loads."""
    x = np.asarray(x, dtype=np.float64).copy()
    residual = float(x[A.core].sum()) if len(A.core) else 0.0
    it, converged = 0, residual < tol
    AT = A.matrix.T.tocsr()
    while not converged and it < max_iter:
        x = AT @ x
        residual = float(x[A.core].sum())
        it, converged = it + 1, residual < tol
    return {int(j) + 1: float(x[j]) for j in A.frame}, residual, it, converged


def _assert_same_as_reference(A, x, **kwargs):
    r = iterate(A, x, **kwargs)
    frame_load, residual, iterations, converged = reference_iterate(A, x, **kwargs)
    assert r.iterations == iterations
    assert r.converged == converged
    assert r.residual_core_mass == residual
    assert list(r.frame_load) == list(frame_load)
    assert all(r.frame_load[j] == v for j, v in frame_load.items())


def _random_tiling(m, n, seed):
    rng = np.random.default_rng(seed)
    return TruchetTiling(m, n, grid_from_letters(rng.integers(0, 2, m), rng.integers(0, 2, n)))


@pytest.mark.parametrize("name", ["p1", "pg", "p4", "random"])
def test_iterate_is_bit_identical_to_the_reference_loop(name):
    t = _random_tiling(30, 30, 11) if name == "random" else tiling_from_group(name, 30, 30)
    _assert_same_as_reference(transfer_matrix(dbg_combinatorial(t)), initial_load(t))


def test_iterate_keeps_the_addition_order_of_a_frame_node_fed_from_both_sides():
    # frame node 3 is fed by core nodes 1 and 2 below its index and 4 and
    # 5 above it; its new value sums five terms in A^T's stored order
    arcs = {(1, 2), (1, 3), (2, 3), (2, 6), (4, 3), (4, 5), (5, 3), (5, 6), (3, 3), (6, 6)}
    A = transfer_matrix(_graph(6, arcs, {3, 6}))
    rng = np.random.default_rng(5)
    for _ in range(20):
        _assert_same_as_reference(A, rng.uniform(0.0, 1.0, 6))


def test_iterate_matches_the_reference_loop_when_trapped():
    A = transfer_matrix(trapped_graph())
    _assert_same_as_reference(A, np.array([0.3, 1.1, 0.7, 0.2]), max_iter=7)


def test_iterate_stops_on_a_nan_residual():
    t = tiling_from_group("p4", 100, 100)
    A = transfer_matrix(dbg_combinatorial(t))
    x = initial_load(t)
    x[5050] = np.nan
    with np.errstate(invalid="ignore"):
        r = iterate(A, x)
    assert r.iterations <= 1 and not r.converged
    assert np.isnan(r.residual_core_mass)
    # the residual turns NaN at step 1: three supports of 1.5e308 each
    # overflow node 7 to +inf, their negatives node 8 to -inf
    a = 1.5e308
    arcs = {(1, 7), (3, 7), (5, 7), (2, 8), (4, 8), (6, 8), (7, 9), (7, 10), (8, 9), (8, 10)}
    arcs |= {(i, 9) for i in range(1, 7)} | {(9, 9), (10, 10)}
    A = transfer_matrix(_graph(10, arcs, {9, 10}))
    x = np.array([a, -a, a, -a, a, -a, 1.0, 0.0, 0.0, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        r = iterate(A, x, max_iter=50)
    assert r.iterations == 1 and not r.converged
    assert np.isnan(r.residual_core_mass)


def test_trapped_cycle_raises_in_closed_form():
    A = transfer_matrix(trapped_graph())
    x = np.array([1.0, 1.0, 1.0, 0.0])
    with pytest.raises(FlowError, match="never drains") as exc:
        closed_form(A, x)
    assert exc.value.component == (1, 2, 3)


def test_drain_check_reports_the_first_closed_class():
    # {1, 2, 3} and {8, 9, 10} are closed; node 4 feeds the first but also
    # leaks to the frame node 7, and the class {5, 6} drains to it
    arcs = {(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2), (4, 1), (4, 7),
            (5, 6), (5, 7), (6, 5), (6, 7), (7, 7),
            (8, 9), (8, 10), (9, 8), (9, 10), (10, 8), (10, 9)}
    A = transfer_matrix(_graph(10, arcs, {7}))
    with pytest.raises(FlowError, match="never drains") as exc:
        closed_form(A, np.ones(10))
    assert exc.value.component == (1, 2, 3)


@st.composite
def letter_tilings(draw):
    m = draw(st.integers(min_value=3, max_value=7))
    n = draw(st.integers(min_value=3, max_value=7))
    h = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    v = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return TruchetTiling(m, n, grid_from_letters(h, v))


@settings(max_examples=60, deadline=None)
@given(letter_tilings())
def test_every_valid_tiling_drains_to_the_frame(t):
    r = closed_form(transfer_matrix(dbg_combinatorial(t)), initial_load(t))
    assert r.total_frame_mass() == pytest.approx((t.rows - 2) * (t.cols - 2), abs=1e-9)


def test_closed_form_conserves_mass_within_5e_10_on_p4_300():
    """The unrefined solve's error grows about as n^4 on p4 and reads
    -5.9e-9 here; one refinement step brings it to 5.8e-11."""
    r = _wallpaper_result("p4", 300, 300)
    assert abs(r.total_frame_mass() - 298 * 298) <= 5e-10


def test_frame_metrics_match_a_per_row_reduction_bit_for_bit():
    rng = np.random.default_rng(3)
    loads = rng.uniform(0.0, 3.0, size=(40, 12))
    loads[rng.uniform(size=loads.shape) < 0.4] = 0.0
    loads[0] = 0.0
    batch = frame_metrics(loads)
    for row, values in enumerate(loads):
        ordered = np.sort(values)
        loaded = ordered[ordered > 1e-9]
        assert batch["max_load"][row] == ordered.max()
        assert batch["loaded_cells"][row] == len(loaded)
        assert batch["cv"][row] == (loaded.std() / loaded.mean() if len(loaded) else 0.0)


def test_trapped_cycle_never_converges():
    A = transfer_matrix(trapped_graph())
    x = np.array([1.0, 1.0, 1.0, 0.0])
    r = iterate(A, x, max_iter=50)
    assert not r.converged
    assert r.iterations == 50
    assert r.residual_core_mass == pytest.approx(3.0)
    with pytest.raises(ValueError):
        flow_metrics(r)


def test_flow_metrics_contents():
    r = _wallpaper_result("p4", 10, 10)
    m = flow_metrics(r)
    assert m["max_load"] == pytest.approx(4.88, abs=0.005)
    assert m["loaded_cells"] == sum(1 for v in r.frame_load.values() if v > 1e-9)
    # cv is taken over the loaded cells only
    loads = np.array([v for v in r.frame_load.values() if v > 1e-9])
    assert m["cv"] == pytest.approx(loads.std() / loads.mean(), rel=1e-12)
    assert m["iterations"] == 0


def test_flow_grid_layout():
    r = _wallpaper_result("p1", 4, 6)
    g = flow_grid(r, 4, 6)
    assert g.shape == (4, 6)
    # core cells stay zero, mass sits on the frame
    assert not g[1:-1, 1:-1].any()
    assert g.sum() == pytest.approx(8.0, abs=1e-9)


def test_p1_grid_is_transpose_symmetric():
    r = _wallpaper_result("p1", 10, 10)
    g = flow_grid(r, 10, 10)
    assert np.allclose(g, g.T)


def test_p4_grid_has_four_fold_symmetry():
    r = _wallpaper_result("p4", 10, 10)
    g = flow_grid(r, 10, 10)
    assert np.allclose(g, np.rot90(g))


def test_larger_grids_load_harder():
    small = flow_metrics(_wallpaper_result("p1", 6, 6))["max_load"]
    large = flow_metrics(_wallpaper_result("p1", 10, 10))["max_load"]
    assert large > small


def test_flow_csv_format(tmp_path):
    r = _wallpaper_result("p1", 3, 3)
    path = tmp_path / "flow.csv"
    write_flow_csv(r, 3, 3, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    vals = np.array([[float(v) for v in ln.split(",")] for ln in lines])
    assert vals.shape == (3, 3)
    assert vals.sum() == pytest.approx(1.0, abs=1e-6)
    assert vals[1, 1] == 0.0


def test_flow_json_format(tmp_path):
    r = _wallpaper_result("pg", 4, 4)
    path = tmp_path / "flow.json"
    write_flow_json(r, 4, 4, path)
    payload = json.loads(path.read_text())
    assert payload["rows"] == 4 and payload["cols"] == 4
    assert payload["converged"] is True
    assert payload["total_frame_mass"] == pytest.approx(4.0, abs=1e-6)
    assert set(payload["frame_load"]) == {str(j) for j in frame_indices(4, 4)}


def test_flow_svg_contents(tmp_path):
    r = _wallpaper_result("p4", 4, 4)
    path = tmp_path / "flow.svg"
    write_flow_svg(r, 4, 4, path)
    text = path.read_text()
    assert text.startswith('<?xml version="1.0"')
    assert text.count("<rect") == 16
    assert "</svg>" in text
    # every loaded frame cell prints its value
    loaded = sum(1 for v in r.frame_load.values() if v > 1e-9)
    assert text.count("<text") == loaded
