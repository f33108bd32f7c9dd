"""Directional Blocking Graphs: which block catches which when the
assembly is pushed along a direction d.

Two constructions are provided.  The combinatorial one reads arcs straight
off the tiling (each core block leans on the two neighbors across its
white sides when pushed down); the geometric one nudges each core mesh
along d and records actual interpenetrations, testing each relative pose
of two blocks once.  The two must agree on gapless assemblies, which is
the cross-validation the test suite runs.

Nodes are 1-based linear cell indices.  Frame nodes carry self-loops
(a frame block restrains itself); only core blocks emit other arcs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import (
    Assembly,
    TruchetTiling,
    frame_mask,
    lean_targets,
    letters_from_grid,
    place_block,
    validate_tiling,
)
from .mesh import DEFAULT_TOL, aabb, overlap, translate

DOWN = (0.0, 0.0, -1.0)


@dataclass(frozen=True)
class BlockingGraph:
    n_nodes: int
    arcs: frozenset
    direction: tuple
    frame: frozenset

    def out_arcs(self, i: int) -> list[tuple[int, int]]:
        return sorted(a for a in self.arcs if a[0] == i)


def dbg_combinatorial(t: TruchetTiling) -> BlockingGraph:
    """Arcs from each core cell to the two grid neighbors it leans on, the
    ones across its white sides (see lean_targets), plus frame self-loops.
    Implicit direction: straight down."""
    if not validate_tiling(t):
        raise ValueError("invalid tiling: adjacent colors clash")
    m, n = t.rows, t.cols
    h, v = letters_from_grid(t.orientation)
    core, h_target, v_target = lean_targets(m, n)
    row, col = np.divmod(core, n)
    inner = np.arange(len(core))
    targets = np.column_stack([h_target[inner, h[row]], v_target[inner, v[col]]]) + 1
    frame = np.flatnonzero(frame_mask(m, n)) + 1
    tails = np.concatenate([np.repeat(core + 1, 2), frame]).tolist()
    heads = np.concatenate([targets.ravel(), frame]).tolist()
    return BlockingGraph(m * n, frozenset(zip(tails, heads)), DOWN, frozenset(frame.tolist()))


class PoseTable:
    """Geometric blocking by relative pose, for one gapless assembly scale.

    On the gapless lattice, whether block i nudged by eps_scale block
    heights along d penetrates block j depends only on their orientations
    (k_i, k_j) and the lattice offset (dr, dc) of j's cell from i's.
    ``window`` lists every offset whose bounding boxes can meet, derived
    from the boxes of the four oriented blocks; ``blocks`` runs the overlap
    test for a pose the first time it is asked and remembers the answer.
    """

    def __init__(self, d, eps_scale: float, scale, tol: float = DEFAULT_TOL):
        d = np.asarray(d, dtype=np.float64)
        norm = np.linalg.norm(d)
        if norm == 0.0:
            raise ValueError("direction must be nonzero")
        if not (0.0 < eps_scale <= 0.25):
            raise ValueError("eps_scale must be in (0, 0.25]")
        self.direction = d / norm
        self.scale = tuple(float(s) for s in scale)
        self.shift = self.direction * (eps_scale * self.scale[2])
        self.tol = float(tol)
        self._arcs = {}
        boxes = [aabb(place_block(k, 0, 0, scale=self.scale)) for k in range(4)]
        lo = np.min([b[0] for b in boxes], axis=0)
        hi = np.max([b[1] for b in boxes], axis=0)
        # the block at offset (dr, dc) sits (sx * u, sy * v) away in xy,
        # with u = dr + dc and v = dc - dr; keep the u, v whose boxes meet
        # the nudged boxes within tol, as overlap's own box test does
        low = np.ceil((lo + self.shift - hi - self.tol)[:2] / self.scale[:2])
        high = np.floor((hi + self.shift - lo + self.tol)[:2] / self.scale[:2])
        self.window = tuple(
            ((u - v) // 2, (u + v) // 2)
            for u in range(int(low[0]), int(high[0]) + 1)
            for v in range(int(low[1]), int(high[1]) + 1)
            if (u - v) % 2 == 0 and (u, v) != (0, 0)
        )

    def blocks(self, k_i: int, k_j: int, dr: int, dc: int) -> bool:
        """True iff block k_i, nudged, penetrates block k_j at (dr, dc)."""
        key = (k_i, k_j, dr, dc)
        if key not in self._arcs:
            nudged = translate(place_block(k_i, 0, 0, scale=self.scale), self.shift)
            other = place_block(k_j, dr, dc, scale=self.scale)
            self._arcs[key] = overlap(nudged, other, self.tol)
        return self._arcs[key]


def dbg_geometric(a: Assembly, d, eps_scale: float = 0.01, tol: float = DEFAULT_TOL) -> BlockingGraph:
    """Arcs i -> j for core i whose mesh, nudged by eps_scale block heights
    along d, penetrates block j.  Frame self-loops added unconditionally.

    Each distinct relative pose is tested once (see PoseTable), so the
    graph costs one table lookup per core block and window offset."""
    if a.gap != 0.0:
        raise ValueError("gapped assembly: contact relations would be lost")
    table = PoseTable(d, eps_scale, a.scale, tol)
    t = a.tiling
    o = t.orientation
    arcs = {(j, j) for j in a.frame}
    for i in sorted(a.core):
        r, c = t.cell_of(i)
        for dr, dc in table.window:
            rj, cj = r + dr, c + dc
            if not (1 <= rj <= t.rows and 1 <= cj <= t.cols):
                continue
            if table.blocks(int(o[r - 1, c - 1]), int(o[rj - 1, cj - 1]), dr, dc):
                arcs.add((i, t.linear_index(rj, cj)))
    return BlockingGraph(
        t.rows * t.cols,
        frozenset(arcs),
        tuple(float(v) for v in table.direction),
        a.frame,
    )

