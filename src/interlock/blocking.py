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
from functools import cached_property

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


@dataclass(frozen=True, eq=False)
class BlockingGraph:
    """Arcs on nodes 1..n_nodes as a read-only (E, 2) int64 array of
    (tail, head), sorted by tail, then head; ``arcs`` is the same set of
    Python-int tuples, built on first use.  Compared by value."""

    n_nodes: int
    arc_array: np.ndarray
    direction: tuple
    frame: frozenset

    def __post_init__(self):
        arcs = np.array(self.arc_array, dtype=np.int64).reshape(-1, 2)
        arcs.flags.writeable = False
        object.__setattr__(self, "arc_array", arcs)

    def __eq__(self, other):
        if not isinstance(other, BlockingGraph):
            return NotImplemented
        fields = (self.n_nodes, self.direction, self.frame)
        return fields == (other.n_nodes, other.direction, other.frame) and np.array_equal(
            self.arc_array, other.arc_array
        )

    def __hash__(self):
        return hash((self.n_nodes, self.arc_array.tobytes(), self.direction, self.frame))

    @cached_property
    def arcs(self) -> frozenset:
        return frozenset(map(tuple, self.arc_array.tolist()))

    def out_arcs(self, i: int) -> list[tuple[int, int]]:
        lo, hi = np.searchsorted(self.arc_array[:, 0], [i, i + 1])
        return list(map(tuple, self.arc_array[lo:hi].tolist()))


def _with_frame(m: int, n: int, tails, heads, direction) -> BlockingGraph:
    """The graph of 0-based core arcs tails -> heads on an m x n grid plus
    the frame self-loops, sorted by one sort of the key tail * m * n + head."""
    nodes = m * n
    frame = np.flatnonzero(frame_mask(m, n))
    key = np.sort(np.concatenate([tails, frame]) * nodes + np.concatenate([heads, frame]))
    arcs = np.column_stack(np.divmod(key, nodes)) + 1
    return BlockingGraph(nodes, arcs, direction, frozenset((frame + 1).tolist()))


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
    targets = np.column_stack([h_target[inner, h[row]], v_target[inner, v[col]]])
    return _with_frame(m, n, np.repeat(core, 2), targets.ravel(), DOWN)


class PoseTable:
    """Geometric blocking by relative pose, for one gapless assembly scale.

    On the gapless lattice, whether block i nudged by eps_scale block
    heights along d penetrates block j depends only on their orientations
    (k_i, k_j) and the lattice offset (dr, dc) of j's cell from i's.
    ``window`` lists every offset whose bounding boxes can meet, derived
    from the boxes of the four oriented blocks; ``blocks`` runs the overlap
    test for one pose.
    """

    def __init__(self, d, eps_scale: float, scale, tol: float = DEFAULT_TOL):
        d = np.asarray(d, dtype=np.float64)
        if not np.isfinite(d).all():
            raise ValueError("direction must be finite")
        # scaled by its largest component first, so the norm cannot overflow
        big = np.abs(d).max()
        if big == 0.0:
            raise ValueError("direction must be nonzero")
        if not (0.0 < eps_scale <= 0.25):
            raise ValueError("eps_scale must be in (0, 0.25]")
        self.tol = float(tol)
        if not 0.0 <= self.tol < np.inf:
            raise ValueError("tol must be finite and nonnegative")
        d = d / big
        self.direction = d / np.linalg.norm(d)
        self.scale = tuple(float(s) for s in scale)
        self.shift = self.direction * (eps_scale * self.scale[2])
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
        nudged = translate(place_block(k_i, 0, 0, scale=self.scale), self.shift)
        return overlap(nudged, place_block(k_j, dr, dc, scale=self.scale), self.tol)


def dbg_geometric(a: Assembly, d, eps_scale: float = 0.01, tol: float = DEFAULT_TOL) -> BlockingGraph:
    """Arcs i -> j for core i whose mesh, nudged by eps_scale block heights
    along d, penetrates block j.  Frame self-loops added unconditionally.

    Each distinct relative pose is tested once (see PoseTable): per window
    offset, one lookup of the orientation pairs core blocks take there."""
    if a.gap != 0.0:
        raise ValueError("gapped assembly: contact relations would be lost")
    table = PoseTable(d, eps_scale, a.scale, tol)
    t = a.tiling
    m, n, o = t.rows, t.cols, t.orientation
    core = np.flatnonzero(~frame_mask(m, n))
    r, c = np.divmod(core, n)
    tails, heads = [], []
    for dr, dc in table.window:
        rj, cj = r + dr, c + dc
        on = (0 <= rj) & (rj < m) & (0 <= cj) & (cj < n)
        pose = 4 * o[r[on], c[on]] + o[rj[on], cj[on]]
        hit = np.zeros(16, dtype=bool)
        for p in np.flatnonzero(np.bincount(pose, minlength=16)).tolist():
            hit[p] = table.blocks(p // 4, p % 4, dr, dc)
        tails.append(core[on][hit[pose]])
        heads.append((rj * n + cj)[on][hit[pose]])
    direction = tuple(float(x) for x in table.direction)
    return _with_frame(m, n, np.concatenate(tails), np.concatenate(heads), direction)
