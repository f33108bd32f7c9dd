"""Slow reference implementations the tests compare the package with."""

from collections import Counter

import numpy as np

from interlock import _kernels
from interlock.assembly import TruchetTiling
from interlock.block import WHITE_SIDES
from interlock.enumeration import canonicalize
from interlock.mesh import TriMesh


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
