"""Enumerate every valid m x n tiling, canonicalize, and screen the
candidates with the flow model.

A valid tiling is exactly a choice of one horizontal letter per row
(W or E: the side of the row's white horizontal arcs) and one vertical
letter per column (N or S), so there are 2^(m+n) valid orientation grids.
Dedup quotients by the letter-complement group of order 8 generated by
complementing all row letters, all column letters, or all column letters
but the first.  That action is free, giving exactly 2^(m+n-3) classes,
which is the published count; it is NOT the rotate/mirror dihedral group
(whose orbit count differs).  The canonical representative, first row
letter W and first two column letters N, is the lexicographically
smallest orientation grid in its class.

The tests cross-check the letter enumeration on small grids against a
scan of all 4^(m*n) orientation grids, `brute_force_tilings` in
`tests/oracles.py`.

Candidates travel as arrays of row and column letters; TruchetTiling
objects are built only when a caller indexes one, such as the top-k
export.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import flows
from .assembly import (
    ORIENT_FROM_VH,
    TruchetTiling,
    build_assembly,
    export_assembly,
    grid_from_letters,
    lean_targets,
    letters_from_grid,
    validate_tiling,
)

DEDUP_GROUP = "letter-complement group of order 8 (free action), not dihedral"

ORIENT_DIGITS = (ORIENT_FROM_VH + ord("0")).astype(np.uint8)

METRICS = ("max_load", "cv", "loaded_cells")


@dataclass(frozen=True, eq=False)
class CandidateSet(Sequence):
    """Same-size candidates as letter arrays: `h` holds the (B, m) row
    letters (0=W, 1=E) and `v` the (B, n) column letters (0=N, 1=S).
    `evaluate` fills `frame_load`, the (B, f) loads on the frame cells in
    linear-index order, and `metrics`, one (B,) array per name in METRICS.
    Indexing builds candidate i as a TruchetTiling on access."""

    rows: int
    cols: int
    h: np.ndarray
    v: np.ndarray
    frame_load: np.ndarray | None = None
    metrics: dict | None = None

    def __len__(self) -> int:
        return len(self.h)

    def __getitem__(self, i) -> TruchetTiling:
        i = range(len(self))[i]
        return TruchetTiling(self.rows, self.cols, grid_from_letters(self.h[i], self.v[i]))

    @property
    def tilings(self) -> CandidateSet:
        """The candidates as a sequence of TruchetTiling objects."""
        return self


@dataclass(frozen=True)
class RankedCandidate:
    rank: int
    position: int
    tiling: TruchetTiling
    metrics: dict


@dataclass(frozen=True, eq=False)
class Ranking(Sequence):
    """Evaluated candidates in rank order: rank i + 1 is candidate
    `order[i]`.  Indexing builds a RankedCandidate on access."""

    candidates: CandidateSet
    order: np.ndarray

    def __len__(self) -> int:
        return len(self.order)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        c, position = self.candidates, int(self.order[i])
        return RankedCandidate(
            rank=i + 1,
            position=position,
            tiling=c[position],
            metrics={k: c.metrics[k][position].item() for k in METRICS},
        )

    @cached_property
    def columns(self) -> tuple[list[str], dict]:
        """The orientation strings and every metric array, in rank order."""
        c, order = self.candidates, self.order
        h, v = c.h[order].astype(np.uint8), c.v[order].astype(np.uint8)
        blob = ORIENT_DIGITS[v[:, None, :], h[:, :, None]].tobytes().decode("ascii")
        size = c.rows * c.cols
        strings = [blob[i : i + size] for i in range(0, len(blob), size)]
        return strings, {k: c.metrics[k][order] for k in METRICS}


def canonicalize(t: TruchetTiling) -> TruchetTiling:
    """The class representative: complement letters until the first row
    letter is W and the first two column letters are N."""
    if not validate_tiling(t):
        raise ValueError("invalid tiling: adjacent colors clash")
    h, v = letters_from_grid(t.orientation)
    if h[0]:
        h = 1 - h
    if v[0]:
        v = 1 - v
    if len(v) > 1 and v[1]:
        v = np.concatenate([v[:1], 1 - v[1:]])
    return TruchetTiling(t.rows, t.cols, grid_from_letters(h, v))


def enumerate_tilings(m: int, n: int) -> CandidateSet:
    """All 2^(m+n-3) canonical tilings, in lexicographic orientation-grid
    order."""
    if m < 3 or n < 3:
        raise ValueError("need m, n >= 3")
    # Candidate i holds the free column letters in its high bits and the
    # free row letters in its low bits, most significant letter first.
    idx = np.arange(2 ** (m + n - 3), dtype=np.int64)[:, None]
    h = np.zeros((len(idx), m), dtype=np.int64)
    v = np.zeros((len(idx), n), dtype=np.int64)
    h[:, 1:] = (idx >> np.arange(m - 2, -1, -1)) & 1
    v[:, 2:] = (idx >> np.arange(m + n - 4, m - 2, -1)) & 1
    return CandidateSet(m, n, h, v)


def evaluate(c: CandidateSet, chunk: int = 1024) -> CandidateSet:
    """Frame loads and metrics for every candidate.

    The absorbing chain (I - Q^T) y = 1 is solved on the core densely,
    with the arcs read off the letters by `lean_targets`, weight 1/2 each.
    A frame cell has one core neighbour, so its
    load is half the outflow y of that neighbour if it leans on the cell.
    Frame cells emit no arcs, so one solve per distinct set of core
    letters h[1:m-1], v[1:n-1] serves every candidate that shares it.

    `chunk` is the number of systems per LAPACK call.  The calling thread
    assembles the chunks into two buffers in turn; with two or more
    chunks one worker thread solves every other chunk while the calling
    thread solves the next, so two calls are in flight.  Each matrix goes
    through the same dgesv call whatever the chunk and the thread, so the
    results are bit-identical for any `chunk`.
    """
    m, n = c.rows, c.cols
    core, h_target, v_target = lean_targets(m, n)
    cells = np.arange(m * n)
    frame = np.setdiff1d(cells, core)
    k = len(core)
    is_core = np.isin(cells, core)
    slot = np.empty(m * n, dtype=np.int64)
    slot[core] = np.arange(k)
    slot[frame] = np.arange(len(frame))
    row, col = np.divmod(core, n)
    inner = np.arange(k)

    # one byte string per candidate, its core letters packed 8 to a byte
    packed = np.packbits(np.concatenate([c.h[:, 1:-1], c.v[:, 1:-1]], axis=1), axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1])))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    systems = len(first)
    starts = range(0, systems, chunk)
    size = min(chunk, systems)
    buffers = [np.empty((size, k, k)) for _ in starts[:2]]
    ones = np.ones((size, k, 1))
    loads = np.zeros((systems, len(frame)))

    def assemble(j):
        """Chunk j's systems in buffer j % 2, and its arc targets."""
        rep = first[starts[j] : starts[j] + chunk]
        # letters index h_target and v_target, so bool letters must not act as masks
        hb, vb = c.h[rep].astype(np.intp), c.v[rep].astype(np.intp)
        targets = (h_target[inner, hb[:, row]], v_target[inner, vb[:, col]])
        system = buffers[j % 2][: len(rep)]
        system.fill(0.0)
        system[:, inner, inner] = 1.0
        for target in targets:
            b, i = np.nonzero(is_core[target])
            system[b, slot[target[b, i]], i] = -0.5
        return system, targets

    def scatter(j, targets, y):
        out = loads[starts[j] : starts[j] + chunk]
        for target in targets:
            b, i = np.nonzero(~is_core[target])
            out[b, slot[target[b, i]]] = 0.5 * y[b, i, 0]

    def solve(system):
        return np.linalg.solve(system, ones[: len(system)])

    pool = None
    if len(starts) > 1:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(1)
    try:
        for j in range(0, len(starts), 2):
            system, targets = assemble(j)
            if j + 1 == len(starts):
                scatter(j, targets, solve(system))
                break
            # the worker runs nothing but the solve, which releases the GIL
            future = pool.submit(solve, system)
            system2, targets2 = assemble(j + 1)
            y2 = solve(system2)
            scatter(j, targets, future.result())
            scatter(j + 1, targets2, y2)
    finally:
        if pool is not None:
            pool.shutdown()
    frame_load = loads[inverse]
    return replace(c, frame_load=frame_load, metrics=flows.frame_metrics(frame_load))


def screen(c: CandidateSet, metric: str = "max_load") -> Ranking:
    """Rank all candidates by a stable ascending sort on the chosen metric.
    `max_load` and `cv` values equal in exact arithmetic can differ by a
    few ulps after the solve, so their order depends on the LAPACK build."""
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}")
    if not len(c):
        raise ValueError("empty candidate set")
    if c.metrics is None:
        c = evaluate(c)
    return Ranking(c, np.argsort(c.metrics[metric], kind="stable"))


def orientation_string(t: TruchetTiling) -> str:
    return "".join(str(int(v)) for v in t.orientation.ravel())


def _format_once(values: np.ndarray, fmt) -> list[str]:
    """[fmt(x) for x in values], calling fmt once per distinct float64 bit
    pattern, so values that compare equal, such as 0.0 and -0.0, are
    never merged."""
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    text = np.array([fmt(x) for x in bits.view(np.float64).tolist()], dtype=object)
    return text[inverse].tolist()


def _ranked_fields(ranked: Ranking, fmt):
    """(rank, orientation string, max_load, cv, loaded_cells) per ranked
    candidate, the two floats as fmt writes them."""
    strings, columns = ranked.columns
    floats = (_format_once(columns[k], fmt) for k in ("max_load", "cv"))
    return zip(range(1, len(strings) + 1), strings, *floats, columns["loaded_cells"].tolist())


def write_ranking_csv(ranked: Ranking, path) -> None:
    rows = [
        f"{rank},{s},true,{max_load},{cv},{loaded}\n"
        for rank, s, max_load, cv, loaded in _ranked_fields(ranked, lambda x: f"{x:.6f}")
    ]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("rank,orientations,converged,max_load,cv,loaded_cells\n" + "".join(rows))


def write_ranking_json(ranked: Ranking, rows, cols, metric, path) -> None:
    """The ranking as JSON, byte for byte what json.dump(payload, indent=2,
    sort_keys=True) writes, each candidate record laid out as json.dump
    lays it out.  The metrics are finite, so repr writes each float as json
    does.  "iterations" is 0 because the closed form takes no steps."""
    header = {
        "rows": rows,
        "cols": cols,
        "metric": metric,
        "count": len(ranked),
        "dedup_group": DEDUP_GROUP,
    }
    records = [
        f"""\
    {{
      "converged": true,
      "metrics": {{
        "cv": {cv},
        "iterations": 0,
        "loaded_cells": {loaded},
        "max_load": {max_load}
      }},
      "orientations": "{s}",
      "rank": {rank}
    }}"""
        for rank, s, max_load, cv, loaded in _ranked_fields(ranked, lambda x: repr(round(x, 6)))
    ]
    # "candidates" sorts before every header key
    rest = json.dumps(header, indent=2, sort_keys=True)[len("{\n"):]
    candidates = ",\n".join(records)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f'{{\n  "candidates": [\n{candidates}\n  ],\n{rest}\n')


def export_top_k(ranked, k: int, outdir, gap: float = 0.0, scale=(1.0, 1.0, 1.0)) -> None:
    """STL export of the k best candidates, one subdirectory per rank."""
    from pathlib import Path

    outdir = Path(outdir)
    for rc in ranked[:k]:
        a = build_assembly(rc.tiling, gap=gap, scale=scale)
        export_assembly(a, outdir / f"rank_{rc.rank:03d}")
