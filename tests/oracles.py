"""Slow reference implementations the tests compare the package with."""

import json
from collections import Counter
from pathlib import Path

import numpy as np

from interlock import _kernels
from interlock.assembly import COL_STEP, ROW_STEP, TruchetTiling, frame_indices
from interlock.block import _R_CW, BLOCK_CENTER_XY, WHITE_SIDES, oriented_block
from interlock.enumeration import canonicalize
from interlock.mesh import TriMesh, scale as scale_mesh, translate, write_stl


def brute_force_tilings(m: int, n: int) -> list[TruchetTiling]:
    """Scan all 4^(m*n) orientation grids with the per-edge rule, then
    canonicalize and dedup.  Oracle for enumerate_tilings; m*n <= 12."""
    cells = m * n
    if cells > 12:
        raise ValueError("brute force limited to m*n <= 12")
    # across the side a cell shares with its east (h_ok) or south (v_ok)
    # neighbour, exactly one facing side must be white
    h_ok, v_ok = (
        np.array([[(s in WHITE_SIDES[a]) != (t in WHITE_SIDES[b]) for b in range(4)]
                  for a in range(4)])
        for s, t in (("E", "W"), ("S", "N"))
    )
    total = 4**cells
    chunk = 1 << 20
    seen = set()
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        digits = np.empty((cells, len(codes)), dtype=np.int64)
        for pos in range(cells):
            digits[pos] = ((codes >> np.uint64(2 * pos)) & np.uint64(3)).astype(np.int64)
        ok = np.ones(len(codes), dtype=bool)
        for r in range(m):
            for c in range(n):
                pos = r * n + c
                if c + 1 < n:
                    ok &= h_ok[digits[pos], digits[pos + 1]]
                if r + 1 < m:
                    ok &= v_ok[digits[pos], digits[pos + n]]
        for col in np.nonzero(ok)[0]:
            seen.add(canonicalize(TruchetTiling(m, n, digits[:, col].reshape(m, n))))
    return sorted(seen, key=lambda t: tuple(t.orientation.ravel()))


def mesh_distance(a: TriMesh, b: TriMesh) -> float:
    """Min vertex-to-surface distance between two meshes (both directions).

    Exact for contacts across flat faces, which is how assembled blocks
    meet; zero means touching.
    """
    return float(
        min(
            _kernels.point_tris_dist(a.vertices, b.corners()).min(),
            _kernels.point_tris_dist(b.vertices, a.corners()).min(),
        )
    )


def edges_pair_up(m: TriMesh) -> bool:
    """The closed and consistently oriented rule of `validate_mesh`, counted
    in a dict: every directed edge is used once, and so is its reverse."""
    directed = Counter(
        (int(i), int(j)) for a, b, c in m.triangles for i, j in ((a, b), (b, c), (c, a))
    )
    return all(count == 1 and directed[(j, i)] == 1 for (i, j), count in directed.items())


def _cell_translation(r: int, c: int, gap: float = 0.0) -> np.ndarray:
    return (1.0 + gap) * (r * ROW_STEP + c * COL_STEP)


def _place_block(k: int, r: int, c: int, gap: float = 0.0, scale=(1.0, 1.0, 1.0)) -> TriMesh:
    tx, ty = _cell_translation(r, c, gap)
    return scale_mesh(translate(oriented_block(k), (tx, ty, 0.0)), *scale)


def _placement(k: int, r: int, c: int, gap: float) -> tuple[np.ndarray, np.ndarray]:
    rot = np.linalg.matrix_power(_R_CW, k).astype(np.float64)
    shift = BLOCK_CENTER_XY - rot @ BLOCK_CENTER_XY + _cell_translation(r, c, gap)
    matrix = np.eye(3)
    matrix[:2, :2] = rot
    return matrix, np.array([shift[0], shift[1], 0.0])


def reference_blocks(t: TruchetTiling, gap: float, scale) -> list:
    """The per-cell loop `build_assembly` replaced: one translated, scaled
    mesh and one placement per cell, as (index, matrix, offset, mesh)."""
    a, b, c = (float(s) for s in scale)
    blocks = []
    for r in range(1, t.rows + 1):
        for col in range(1, t.cols + 1):
            k = int(t.orientation[r - 1, col - 1])
            mesh = _place_block(k, r, col, gap, (a, b, c))
            blocks.append((t.linear_index(r, col), *_placement(k, r, col, gap), mesh))
    return blocks


def reference_export(t: TruchetTiling, gap: float, scale, blocks, outdir) -> None:
    """The per-mesh `export_assembly` loop over `reference_blocks`: one
    `write_stl` per block, the combined STL and manifest.json."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    frame = frame_indices(t.rows, t.cols)
    width = max(3, len(str(t.rows * t.cols)))
    entries = []
    for index, matrix, offset, mesh in blocks:
        r, c = t.cell_of(index)
        name = f"block_{index:0{width}d}.stl"
        write_stl(mesh, outdir / name)
        entries.append(
            {
                "index": index,
                "row": r,
                "col": c,
                "orientation": int(t.orientation[r - 1, c - 1]),
                "frame": index in frame,
                "file": name,
                "placement": {"matrix": matrix.tolist(), "offset": offset.tolist()},
            }
        )
    write_stl([m for *_, m in blocks], outdir / "assembly.stl")
    manifest = {
        "rows": t.rows,
        "cols": t.cols,
        "group": t.group,
        "gap": float(gap),
        "scale": [float(s) for s in scale],
        "combined": "assembly.stl",
        "blocks": entries,
    }
    with open(outdir / "manifest.json", "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
