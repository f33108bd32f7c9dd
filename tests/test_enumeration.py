"""Unit tests for tiling enumeration, dedup, and screening."""

import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlock import flows
from interlock.assembly import TruchetTiling, count_assemblies, tiling_from_group, validate_tiling
from interlock.blocking import dbg_combinatorial
from interlock.enumeration import (
    DEDUP_GROUP,
    METRICS,
    CandidateSet,
    Ranking,
    canonicalize,
    enumerate_tilings,
    evaluate,
    grid_from_letters,
    letters_from_grid,
    orientation_string,
    screen,
    write_ranking_csv,
    write_ranking_json,
    export_top_k,
)
from oracles import brute_force_tilings


def _key(t: TruchetTiling) -> bytes:
    return np.asarray(t.orientation, dtype=np.int64).tobytes()


def _flip(bits, start=0):
    out = np.array(bits, dtype=bool)
    out[start:] = ~out[start:]
    return out


@st.composite
def letter_tilings(draw):
    m = draw(st.integers(min_value=3, max_value=5))
    n = draw(st.integers(min_value=3, max_value=5))
    h = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    v = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return np.array(h), np.array(v)


def test_letters_roundtrip():
    h = np.array([False, True, False])
    v = np.array([True, True, False, False])
    o = grid_from_letters(h, v)
    t = TruchetTiling(3, 4, o)
    assert validate_tiling(t)
    h2, v2 = letters_from_grid(o)
    assert np.array_equal(h, h2)
    assert np.array_equal(v, v2)


@settings(max_examples=60, deadline=None)
@given(letter_tilings())
def test_letter_grids_are_always_valid(hv):
    h, v = hv
    t = TruchetTiling(len(h), len(v), grid_from_letters(h, v))
    assert validate_tiling(t)


def test_enumeration_counts_match_formula():
    for m, n in ((3, 3), (3, 4), (4, 4), (3, 6)):
        c = enumerate_tilings(m, n)
        assert (c.rows, c.cols) == (m, n)
        assert len(c.tilings) == count_assemblies(m, n)
        assert len({_key(t) for t in c.tilings}) == len(c.tilings)
        for t in c.tilings:
            assert validate_tiling(t)
            assert _key(canonicalize(t)) == _key(t)


def test_enumeration_matches_brute_force():
    for m, n in ((3, 3), (3, 4)):
        fast = {_key(t) for t in enumerate_tilings(m, n).tilings}
        slow = {_key(t) for t in brute_force_tilings(m, n)}
        assert fast == slow


def test_enumeration_rejects_small_grids():
    with pytest.raises(ValueError):
        enumerate_tilings(2, 5)


@settings(max_examples=60, deadline=None)
@given(letter_tilings())
def test_canonical_form_is_gauge_invariant(hv):
    h, v = hv
    m, n = len(h), len(v)
    base = canonicalize(TruchetTiling(m, n, grid_from_letters(h, v)))
    for h2, v2 in (
        (_flip(h), v),
        (h, _flip(v)),
        (h, _flip(v, start=1)),
        (_flip(h), _flip(v, start=1)),
    ):
        other = canonicalize(TruchetTiling(m, n, grid_from_letters(h2, v2)))
        assert _key(other) == _key(base)


@settings(max_examples=30, deadline=None)
@given(letter_tilings())
def test_canonicalize_is_idempotent(hv):
    h, v = hv
    t = TruchetTiling(len(h), len(v), grid_from_letters(h, v))
    once = canonicalize(t)
    assert _key(canonicalize(once)) == _key(once)


@settings(max_examples=40, deadline=None)
@given(letter_tilings())
def test_canonicalize_is_idempotent_and_constant_on_complement_classes(hv):
    """All 8 images under the letter-complement group (complement all of h,
    all of v, or all of v but the first) have one representative, which is
    its own canonical form."""
    h, v = hv
    m, n = len(h), len(v)
    images = {
        canonicalize(TruchetTiling(m, n, grid_from_letters(h2, v2)))
        for h2 in (h, _flip(h))
        for v2 in (v, _flip(v), _flip(v, start=1), _flip(_flip(v), start=1))
    }
    assert len(images) == 1
    (rep,) = images
    assert canonicalize(rep) == rep


def test_evaluate_fills_results_and_conserves_mass():
    c = evaluate(enumerate_tilings(3, 4))
    assert c.frame_load.shape == (16, 10)
    assert np.allclose(c.frame_load.sum(axis=1), 2.0, rtol=0.0, atol=1e-9)
    assert set(c.metrics) == set(METRICS)
    assert all(c.metrics[k].shape == (16,) for k in METRICS)


def test_evaluate_matches_the_sparse_closed_form():
    c = evaluate(enumerate_tilings(4, 5))
    for i, t in enumerate(c.tilings):
        r = flows.closed_form(flows.transfer_matrix(dbg_combinatorial(t)), flows.initial_load(t))
        loads = [r.frame_load[j] for j in sorted(r.frame_load)]
        assert np.allclose(c.frame_load[i], loads, rtol=0.0, atol=1e-12)
        expected = flows.flow_metrics(r)
        assert c.metrics["loaded_cells"][i] == expected["loaded_cells"]
        for key in ("max_load", "cv"):
            assert c.metrics[key][i] == pytest.approx(expected[key], abs=1e-12)


def reference_frame_load(c: CandidateSet, chunk: int = 2048) -> np.ndarray:
    """The solve that evaluate replaced: one dense system per candidate,
    in chunks of candidates in their given order."""
    m, n = c.rows, c.cols
    cells = np.arange(m * n).reshape(m, n)
    core = cells[1:-1, 1:-1].ravel()
    frame = np.setdiff1d(cells, core)
    k = len(core)
    is_core = np.isin(cells.ravel(), core)
    slot = np.empty(m * n, dtype=np.int64)
    slot[core] = np.arange(k)
    slot[frame] = np.arange(len(frame))
    row, col = np.divmod(core, n)
    h_target = core[:, None] + np.array([-1, 1])
    v_target = core[:, None] + np.array([-n, n])
    inner = np.arange(k)

    frame_load = np.zeros((len(c), len(frame)))
    for start in range(0, len(c), chunk):
        hb, vb = c.h[start : start + chunk], c.v[start : start + chunk]
        targets = (h_target[inner, hb[:, row]], v_target[inner, vb[:, col]])
        system = np.zeros((len(hb), k, k))
        system[:, inner, inner] = 1.0
        for target in targets:
            b, i = np.nonzero(is_core[target])
            system[b, slot[target[b, i]], i] = -0.5
        y = np.linalg.solve(system, np.ones((len(hb), k, 1)))[..., 0]
        loads = frame_load[start : start + chunk]
        for target in targets:
            b, i = np.nonzero(~is_core[target])
            loads[b, slot[target[b, i]]] = 0.5 * y[b, i]
    return frame_load


@pytest.mark.parametrize("size", [(6, 6), (8, 8)])
def test_evaluate_is_bit_identical_to_the_per_candidate_solve(size):
    c = evaluate(enumerate_tilings(*size))
    frame_load = reference_frame_load(c)
    assert np.array_equal(c.frame_load, frame_load)
    expected = flows.frame_metrics(frame_load)
    for key in METRICS:
        assert np.array_equal(c.metrics[key], expected[key])


@pytest.mark.parametrize("size", [(4, 5), (6, 6)])
def test_evaluate_gives_the_same_bits_for_bool_int64_and_uint8_letters(size):
    e = enumerate_tilings(*size)
    results = [
        evaluate(CandidateSet(*size, e.h.astype(dtype), e.v.astype(dtype)))
        for dtype in (bool, np.int64, np.uint8)
    ]
    for r in results[1:]:
        assert np.array_equal(r.frame_load, results[0].frame_load)
        for key in METRICS:
            assert np.array_equal(r.metrics[key], results[0].metrics[key])


@pytest.mark.parametrize("size", [(6, 6), (8, 8)])
def test_evaluate_is_independent_of_the_chunk_size(size):
    # 6x6 has 128 distinct systems and 8x8 2,048: chunks of 1, 7 and 1000
    # give an even or odd number of chunks, a short last chunk, one chunk
    c = enumerate_tilings(*size)
    threads = threading.active_count()
    expected = evaluate(c)
    for chunk in (1, 7, 1000):
        ev = evaluate(c, chunk=chunk)
        assert threading.active_count() == threads
        assert np.array_equal(ev.frame_load, expected.frame_load)
        for key in METRICS:
            assert np.array_equal(ev.metrics[key], expected.metrics[key])


def test_only_a_set_of_two_or_more_chunks_starts_a_thread(monkeypatch):
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    c = enumerate_tilings(6, 6)
    evaluate(c)
    assert started == []
    evaluate(c, chunk=7)
    assert len(started) == 1
    assert not started[0].is_alive()


def _sparse_frame_load(t: TruchetTiling) -> np.ndarray:
    r = flows.closed_form(flows.transfer_matrix(dbg_combinatorial(t)), flows.initial_load(t))
    return np.array([r.frame_load[j] for j in sorted(r.frame_load)])


def _assert_rows_match_lone_evaluations(c: CandidateSet):
    ev = evaluate(c)
    for i, t in enumerate(c.tilings):
        alone = evaluate(CandidateSet(c.rows, c.cols, c.h[i : i + 1], c.v[i : i + 1]))
        assert np.array_equal(ev.frame_load[i], alone.frame_load[0])
        for key in METRICS:
            assert ev.metrics[key][i] == alone.metrics[key][0]
        assert np.allclose(ev.frame_load[i], _sparse_frame_load(t), rtol=0.0, atol=1e-12)
    return ev


def test_evaluate_on_a_shuffled_set_with_duplicates_and_random_frame_letters():
    rng = np.random.default_rng(12)
    base = enumerate_tilings(5, 6)
    pick = rng.integers(0, len(base), 120)
    h, v = base.h[pick], base.v[pick]
    for letters in (h[:, 0], h[:, -1], v[:, 0], v[:, -1]):
        letters[:] = rng.integers(0, 2, len(pick))
    assert len(np.unique(np.hstack([h, v]), axis=0)) < len(pick)
    _assert_rows_match_lone_evaluations(CandidateSet(5, 6, h, v))


def test_evaluate_keys_on_every_core_letter_of_a_large_grid():
    # 36x36 has 68 core letters: h[1:35] are core letters 0-33 and v[1:35]
    # core letters 34-67.  The variants flip letters past the 64th (v[31],
    # v[34]), the first (h[1]), h[1] and v[31] together, which a 64-bit
    # key with wrapping shifts cannot tell apart, and the frame letters
    rng = np.random.default_rng(36)
    h0, v0 = rng.integers(0, 2, 36), rng.integers(0, 2, 36)
    h0[1], v0[31] = 0, 1
    variants = [(), ("v34",), ("v31",), ("h1",), ("h1", "v31"), ("v35",), ("h35",)]
    h, v = np.tile(h0, (len(variants), 1)), np.tile(v0, (len(variants), 1))
    for i, flips in enumerate(variants):
        for flip in flips:
            letters, j = (h if flip[0] == "h" else v), int(flip[1:])
            letters[i, j] = 1 - letters[i, j]
    ev = _assert_rows_match_lone_evaluations(CandidateSet(36, 36, h, v))
    assert len(np.unique(ev.frame_load[:5], axis=0)) == 5
    assert np.array_equal(ev.frame_load[5], ev.frame_load[0])
    assert np.array_equal(ev.frame_load[6], ev.frame_load[0])


@settings(max_examples=40, deadline=None)
@given(letter_tilings(), st.lists(st.booleans(), min_size=4, max_size=4))
def test_frame_letters_change_neither_the_arcs_nor_the_frame_loads(hv, flips):
    h, v = hv
    m, n = len(h), len(v)
    h2, v2 = h.copy(), v.copy()
    for letters, i, flip in zip((h2, h2, v2, v2), (0, m - 1, 0, n - 1), flips):
        letters[i] ^= flip
    t = TruchetTiling(m, n, grid_from_letters(h, v))
    t2 = TruchetTiling(m, n, grid_from_letters(h2, v2))
    assert dbg_combinatorial(t2).arcs == dbg_combinatorial(t).arcs
    assert np.array_equal(_sparse_frame_load(t2), _sparse_frame_load(t))


def test_screen_ranks_by_metric():
    ranked = screen(enumerate_tilings(3, 3))
    assert [r.rank for r in ranked] == list(range(1, 9))
    vals = [r.metrics["max_load"] for r in ranked]
    assert vals == sorted(vals)
    assert sorted(r.position for r in ranked) == list(range(8))


def test_screen_is_deterministic():
    a = screen(enumerate_tilings(3, 4))
    b = screen(enumerate_tilings(3, 4))
    assert [orientation_string(r.tiling) for r in a] == [
        orientation_string(r.tiling) for r in b
    ]


def test_screen_rejects_unknown_metric():
    with pytest.raises(ValueError):
        screen(enumerate_tilings(3, 3), metric="throughput")


def test_wallpaper_patterns_rank_p4_first():
    tilings = {g: tiling_from_group(g, 10, 10) for g in ("p1", "pg", "p4")}
    h, v = zip(*(letters_from_grid(t.orientation) for t in tilings.values()))
    ranked = screen(CandidateSet(10, 10, np.array(h), np.array(v)))
    assert [r.position for r in ranked] == [2, 1, 0]
    for r, g in zip(ranked, ("p4", "pg", "p1")):
        assert _key(r.tiling) == _key(tilings[g])
    assert ranked[0].metrics["max_load"] == pytest.approx(4.88, abs=0.005)
    assert ranked[-1].metrics["max_load"] == pytest.approx(6.43, abs=0.005)


def test_orientation_string():
    t = tiling_from_group("p4", 3, 3)
    s = orientation_string(t)
    assert s == "303212303"
    assert s == "".join(str(v) for v in t.orientation.ravel())


def test_ranking_csv(tmp_path):
    ranked = screen(enumerate_tilings(3, 3))
    path = tmp_path / "ranking.csv"
    write_ranking_csv(ranked, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "rank,orientations,converged,max_load,cv,loaded_cells"
    assert len(lines) == 9
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[2] == "true"


def test_ranking_json(tmp_path):
    ranked = screen(enumerate_tilings(3, 3))
    path = tmp_path / "ranking.json"
    write_ranking_json(ranked, 3, 3, "max_load", path)
    payload = json.loads(path.read_text())
    assert payload["rows"] == 3 and payload["cols"] == 3
    assert payload["metric"] == "max_load"
    assert payload["dedup_group"] == DEDUP_GROUP
    assert len(payload["candidates"]) == 8
    assert payload["candidates"][0]["rank"] == 1


def _json_reference(r: Ranking, rows: int, cols: int, metric: str) -> str:
    payload = {
        "rows": rows,
        "cols": cols,
        "metric": metric,
        "count": len(r),
        "dedup_group": DEDUP_GROUP,
        "candidates": [
            {
                "rank": rc.rank,
                "orientations": orientation_string(rc.tiling),
                "converged": True,
                "metrics": {
                    "cv": round(rc.metrics["cv"], 6),
                    "iterations": 0,
                    "loaded_cells": rc.metrics["loaded_cells"],
                    "max_load": round(rc.metrics["max_load"], 6),
                },
            }
            for rc in r
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_reference(r: Ranking) -> str:
    """The CSV as the writer once laid it out, one formatted row per
    candidate."""
    lines = ["rank,orientations,converged,max_load,cv,loaded_cells\n"]
    for rc in r:
        m = rc.metrics
        s = orientation_string(rc.tiling)
        lines.append(f"{rc.rank},{s},true,{m['max_load']:.6f},{m['cv']:.6f},{m['loaded_cells']}\n")
    return "".join(lines)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("size", [(4, 5), (6, 6)])
def test_ranking_json_matches_the_json_module(tmp_path, size, metric):
    ranked = screen(enumerate_tilings(*size), metric)
    for r in (ranked, Ranking(ranked.candidates, ranked.order[:1])):
        path = tmp_path / "ranking.json"
        write_ranking_json(r, size[0], size[1], metric, path)
        assert path.read_text() == _json_reference(r, size[0], size[1], metric)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("size", [(4, 5), (6, 6)])
def test_ranking_csv_matches_the_per_row_formatter(tmp_path, size, metric):
    ranked = screen(enumerate_tilings(*size), metric)
    for r in (ranked, Ranking(ranked.candidates, ranked.order[:1])):
        path = tmp_path / "ranking.csv"
        write_ranking_csv(r, path)
        assert path.read_text() == _csv_reference(r)


def test_writers_format_each_bit_pattern_of_a_metric(tmp_path):
    # repeated values, values that round to the same 6 decimals but differ
    # in their bits, and 0.0 beside -0.0, which compare equal
    tiny = np.nextafter(0.0, 1.0)
    max_load = np.array([1.5, 1.5, 0.0, -0.0, 0.1, np.nextafter(0.1, 1.0), 2.0000004, -0.0])
    cv = np.array([-0.0, 0.0, 0.0, tiny, -tiny, 0.25, 0.25, 1 / 3])
    e = enumerate_tilings(3, 3)
    c = CandidateSet(
        3, 3, e.h, e.v,
        metrics={"max_load": max_load, "cv": cv, "loaded_cells": np.array([4, 4, 0, 0, 3, 3, 5, 0])},
    )
    for order in (np.arange(8), np.array([3, 2, 1, 0, 7, 6, 5, 4])):
        r = Ranking(c, order)
        write_ranking_csv(r, tmp_path / "ranking.csv")
        write_ranking_json(r, 3, 3, "max_load", tmp_path / "ranking.json")
        assert (tmp_path / "ranking.csv").read_text() == _csv_reference(r)
        assert (tmp_path / "ranking.json").read_text() == _json_reference(r, 3, 3, "max_load")


def test_export_top_k(tmp_path):
    ranked = screen(enumerate_tilings(3, 3))
    export_top_k(ranked, 2, tmp_path)
    for i in (1, 2):
        sub = tmp_path / f"rank_{i:03d}"
        assert (sub / "manifest.json").exists()
        assert (sub / "assembly.stl").exists()
    assert not (tmp_path / "rank_003").exists()

