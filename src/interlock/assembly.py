"""Assemblies as Truchet tilings: the letter model of valid tilings, the
lean rule, the p1/pg/p4 wallpaper patterns, frame/core partition, block
placement on the diamond lattice as arrays, and STL + manifest export.
One formula, `block_vertices`, places every block, on and off the grid;
an `Assembly` builds meshes only when `blocks` is read.

Grid cells are addressed (row, col), 1-based, with linear index
(r - 1) * cols + c.  Cell (r, c) sits at r * (1, -1) + c * (1, 1) in
lattice units; the perimeter cells are the frame, the interior the core.

A tiling is valid when across each shared side exactly one of the two
facing sides is white.  Every valid tiling is a choice of one letter per
row, h (0=W, 1=E), and one per column, v (0=N, 1=S): cell (r, c) then has
the orientation whose white sides are those two, ORIENT_FROM_VH[v_c, h_r]
(see block.WHITE_SIDES).  A core cell leans on the two neighbours across
its white sides.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .block import _R_CW, BLOCK_CENTER_XY, BLOCK_TRIANGLES, oriented_block
from .mesh import TriMesh, write_stl

ROW_STEP = np.array([1.0, -1.0])
COL_STEP = np.array([1.0, 1.0])

# orientation = ORIENT_FROM_VH[v, h]; v: 0=N 1=S, h: 0=W 1=E
ORIENT_FROM_VH = np.array([[0, 1], [3, 2]], dtype=np.int64)


def grid_from_letters(h_bits, v_bits) -> np.ndarray:
    """Orientation grid of one tiling from (m,) and (n,) letters, or the
    (B, m, n) grids of a batch from (B, m) and (B, n) letters."""
    h = np.asarray(h_bits, dtype=np.int64)
    v = np.asarray(v_bits, dtype=np.int64)
    return ORIENT_FROM_VH[v[..., None, :], h[..., :, None]]


def letters_from_grid(o: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row letters (0=W, 1=E) and column letters (0=N, 1=S) of a valid
    orientation grid, read off its first column and first row."""
    o = np.asarray(o)
    h = np.isin(o[:, 0], (1, 2)).astype(np.int64)
    v = np.isin(o[0, :], (2, 3)).astype(np.int64)
    return h, v


def lean_targets(m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lean rule on an m x n grid, as 0-based linear cell indices: the
    (k,) core cells, and their (k, 2) targets by row letter and by column
    letter.  Core cell i of row r and column c leans on
    h_target[i, h[r]] (west or east) and v_target[i, v[c]] (north or
    south), with weight 1/2 each."""
    core = np.arange(m * n).reshape(m, n)[1:-1, 1:-1].ravel()
    return core, core[:, None] + np.array([-1, 1]), core[:, None] + np.array([-n, n])


@dataclass(frozen=True, eq=False)
class TruchetTiling:
    """An m×n grid of tile orientations 0..3, compared by value."""

    rows: int
    cols: int
    orientation: np.ndarray
    group: str | None = None

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid dimensions must be positive")
        o = np.asarray(self.orientation)
        if o.dtype.kind not in "biuf" or not np.all(np.isfinite(o) & (o == np.round(o))):
            raise ValueError("orientations must be integers")
        o = o.astype(np.int64)
        if o.shape != (self.rows, self.cols):
            raise ValueError("orientation grid shape mismatch")
        if o.size and (o.min() < 0 or o.max() > 3):
            raise ValueError("orientations must be 0..3")
        o.flags.writeable = False
        object.__setattr__(self, "orientation", o)

    def __eq__(self, other):
        if not isinstance(other, TruchetTiling):
            return NotImplemented
        same = (self.rows, self.cols, self.group) == (other.rows, other.cols, other.group)
        return same and np.array_equal(self.orientation, other.orientation)

    def __hash__(self):
        return hash((self.rows, self.cols, self.group, self.orientation.tobytes()))

    def linear_index(self, r: int, c: int) -> int:
        """1-based linear index of cell (r, c), both 1-based."""
        if not (1 <= r <= self.rows and 1 <= c <= self.cols):
            raise ValueError("cell out of range")
        return (r - 1) * self.cols + c

    def cell_of(self, index: int) -> tuple[int, int]:
        if not (1 <= index <= self.rows * self.cols):
            raise ValueError("index out of range")
        return (index - 1) // self.cols + 1, (index - 1) % self.cols + 1


def frame_mask(rows: int, cols: int) -> np.ndarray:
    """Boolean rows x cols grid, True on the perimeter cells."""
    mask = np.ones((rows, cols), dtype=bool)
    mask[1:-1, 1:-1] = False
    return mask


def frame_indices(rows: int, cols: int) -> frozenset[int]:
    """Linear indices (1-based) of the perimeter cells."""
    return frozenset((np.flatnonzero(frame_mask(rows, cols)) + 1).tolist())


def core_indices(rows: int, cols: int) -> frozenset[int]:
    return frozenset((np.flatnonzero(~frame_mask(rows, cols)) + 1).tolist())


def tiling_from_group(g: str, m: int, n: int) -> TruchetTiling:
    """The symmetric letter pattern for wallpaper group p1, pg, or p4.

    p1 has every row W and every column N, one orientation throughout; pg
    alternates its column letters from S, so two orientations alternate by
    column; p4 also alternates its row letters from W, which cycles four
    orientations in a 2×2-periodic pattern.
    """
    if m < 3 or n < 3:
        raise ValueError("need m, n >= 3 for a nonempty core")
    r, c = np.arange(m), np.arange(n)
    letters = {"p1": (0 * r, 0 * c), "pg": (0 * r, (c + 1) % 2), "p4": (r % 2, (c + 1) % 2)}
    if g not in letters:
        raise ValueError(f"unknown wallpaper group {g!r}")
    return TruchetTiling(m, n, grid_from_letters(*letters[g]), group=g)


def validate_tiling(t: TruchetTiling) -> bool:
    """True iff the grid is a letter tiling, which is the alternating-color
    rule: across each shared side exactly one of the two facing sides is
    white."""
    o = t.orientation
    return np.array_equal(grid_from_letters(*letters_from_grid(o)), o)


def count_assemblies(m: int, n: int) -> int:
    """Number of valid m×n tilings up to the enumeration's symmetry
    quotient: 2^(m+n-3)."""
    if m < 2 or n < 2:
        raise ValueError("need m, n >= 2")
    return 2 ** (m + n - 3)


def rotate_tiling(t: TruchetTiling) -> TruchetTiling:
    """Quarter-turn clockwise: transpose the grid and advance every
    orientation by one."""
    o = (np.rot90(t.orientation, k=-1) + 1) % 4
    return TruchetTiling(t.cols, t.rows, o)


class Placement(NamedTuple):
    """Canonical block vertex p goes to matrix @ p + offset, before scaling."""

    matrix: np.ndarray
    offset: np.ndarray


@dataclass(frozen=True, eq=False)
class Assembly:
    """One block per cell, in linear cell order, as read-only arrays: (N,)
    orientations k, (N, 3) offsets and (N, 9, 3) vertices, those of the
    canonical block turned by _TURN[k], moved by the offset and scaled."""

    tiling: TruchetTiling
    gap: float
    scale: tuple
    orientation: np.ndarray
    offset: np.ndarray
    vertices: np.ndarray

    @property
    def frame(self) -> frozenset:
        return frame_indices(self.tiling.rows, self.tiling.cols)

    @property
    def core(self) -> frozenset:
        return core_indices(self.tiling.rows, self.tiling.cols)

    @cached_property
    def blocks(self) -> tuple:
        """(linear index, Placement, scaled TriMesh) per block, built on
        first access and kept, so each mesh keeps its overlap samples."""
        rows = zip(self.orientation.tolist(), self.offset, self.vertices)
        return tuple((i, Placement(_TURN[k], o), TriMesh(v, BLOCK_TRIANGLES))
                     for i, (k, o, v) in enumerate(rows, 1))


def cell_translation(r, c, gap: float = 0.0) -> np.ndarray:
    """Lattice-unit xy positions (..., 2) of cells (r, c); gap > 0 spreads
    the lattice so every block gains gap/2 clearance per side."""
    return (1.0 + gap) * (np.multiply.outer(r, ROW_STEP) + np.multiply.outer(c, COL_STEP))


# per orientation k: the turn about the block centre as a 3x3 matrix plus
# the xy shift it needs, and the turned block's vertices
_TURN = np.tile(np.eye(3), (4, 1, 1))
for _k in range(4):
    _TURN[_k, :2, :2] = np.linalg.matrix_power(_R_CW, _k)
_TURN.flags.writeable = False
_TURN_SHIFT = BLOCK_CENTER_XY - _TURN[:, :2, :2] @ BLOCK_CENTER_XY
_ORIENTED = np.stack([oriented_block(k).vertices for k in range(4)])


def check_gap_scale(gap: float, scale, rows: int, cols: int) -> None:
    """Raise ValueError unless the gap is finite and nonnegative, the scale
    factors are finite and positive, and STL's float32 keeps the shape of
    every block of a rows x cols assembly: a block spans [0, 2] x [-1, 1] x
    [0, 1] from its cell, no cell is over (1 + gap) * (rows + cols) out in x
    or y, and on each axis the farthest corner must be below the float32
    maximum with a float32 spacing of at most 1/8 of the scale factor."""
    if not 0.0 <= gap < np.inf:
        raise ValueError("gap must be finite and nonnegative")
    if not all(0.0 < float(s) < np.inf for s in scale):
        raise ValueError("scale factors must be finite and positive")
    limit = float(np.finfo(np.float32).max)
    reach = (1.0 + gap) * (rows + cols) + 2.0
    for s, r in zip(map(float, scale), (reach, reach, 1.0)):
        if not (s * r < limit and np.spacing(np.float32(s * r)) <= s / 8):
            raise ValueError("gap and scale put block corners past what STL's float32 resolves")


def block_vertices(k, r, c, gap: float = 0.0, scale=(1.0, 1.0, 1.0)) -> np.ndarray:
    """The (..., 9, 3) vertices of orientation-k blocks at cells (r, c),
    broadcast: the oriented block, moved to the cell, then scaled.  Any
    integer cell is allowed, so relative poses can be placed off the grid."""
    xy = cell_translation(r, c, gap)[..., None, :]
    shift = np.concatenate([xy, np.zeros_like(xy[..., :1])], axis=-1)
    return (_ORIENTED[k] + shift) * np.asarray(scale, dtype=np.float64)


def place_block(k: int, r: int, c: int, gap: float = 0.0, scale=(1.0, 1.0, 1.0)) -> TriMesh:
    """The scaled mesh of an orientation-k block at cell (r, c)."""
    if k not in (0, 1, 2, 3):
        raise ValueError(f"orientation must be 0..3, got {k!r}")
    if np.any(np.asarray(scale) <= 0.0):
        raise ValueError("scale factors must be positive")
    return TriMesh(block_vertices(k, r, c, gap, scale), BLOCK_TRIANGLES)


def build_assembly(t: TruchetTiling, gap: float = 0.0, scale=(1.0, 1.0, 1.0)) -> Assembly:
    """Place one oriented block per cell on the diamond lattice."""
    if not validate_tiling(t):
        raise ValueError("invalid tiling: adjacent colors clash")
    check_gap_scale(gap, scale, t.rows, t.cols)
    scale = tuple(float(s) for s in scale)
    k = t.orientation.ravel()
    r, c = np.indices(t.orientation.shape).reshape(2, -1) + 1
    offset = np.column_stack([_TURN_SHIFT[k] + cell_translation(r, c, gap), np.zeros(k.size)])
    vertices = block_vertices(k, r, c, gap, scale)
    for a in (offset, vertices):
        a.flags.writeable = False
    return Assembly(t, float(gap), scale, k, offset, vertices)


def export_assembly(assembly: Assembly, outdir, combined_name: str = "assembly.stl") -> dict:
    """Write one STL per block, a combined STL, and manifest.json mapping
    block index to file, orientation, frame/core flag, and placement."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    t = assembly.tiling
    width = max(3, len(str(t.rows * t.cols)))
    soups = assembly.vertices[:, BLOCK_TRIANGLES]
    columns = zip(assembly.orientation.tolist(), frame_mask(t.rows, t.cols).ravel().tolist(),
                  _TURN[assembly.orientation].tolist(), assembly.offset.tolist())
    entries = []
    for i, (k, frame, matrix, offset) in enumerate(columns):
        name = f"block_{i + 1:0{width}d}.stl"
        write_stl(soups[i], outdir / name)
        entries.append(
            {
                "index": i + 1,
                "row": i // t.cols + 1,
                "col": i % t.cols + 1,
                "orientation": k,
                "frame": frame,
                "file": name,
                "placement": {"matrix": matrix, "offset": offset},
            }
        )
    write_stl(soups.reshape(-1, 3, 3), outdir / combined_name)
    manifest = {
        "rows": t.rows,
        "cols": t.cols,
        "group": t.group,
        "gap": assembly.gap,
        "scale": list(assembly.scale),
        "combined": combined_name,
        "blocks": entries,
    }
    with open(outdir / "manifest.json", "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
