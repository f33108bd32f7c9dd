"""Unit tests for tiling enumeration, dedup, and screening."""

import json

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
    brute_force_tilings,
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


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("size", [(4, 5), (6, 6)])
def test_ranking_json_matches_the_json_module(tmp_path, size, metric):
    ranked = screen(enumerate_tilings(*size), metric)
    for r in (ranked, Ranking(ranked.candidates, ranked.order[:1])):
        payload = {
            "rows": size[0],
            "cols": size[1],
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
        path = tmp_path / "ranking.json"
        write_ranking_json(r, size[0], size[1], metric, path)
        assert path.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_export_top_k(tmp_path):
    ranked = screen(enumerate_tilings(3, 3))
    export_top_k(ranked, 2, tmp_path)
    for i in (1, 2):
        sub = tmp_path / f"rank_{i:03d}"
        assert (sub / "manifest.json").exists()
        assert (sub / "assembly.stl").exists()
    assert not (tmp_path / "rank_003").exists()

