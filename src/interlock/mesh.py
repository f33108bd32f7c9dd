"""Indexed triangle meshes with the geometric predicates the assembly and
blocking code relies on, plus binary STL and OBJ file IO.

The closed-surface check and the horizontal cross section are array code:
directed edges are counted with one `np.unique`, and a section's area is
summed by Green's theorem over the segments the plane cuts from the
triangles, with no chaining into loops.

Meshes are immutable: affine operations return new instances.  The overlap
predicate reports strict interior penetration only; surface-to-surface
contact (the normal situation between neighboring blocks in a gapless
assembly) is not overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels

DEFAULT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class TriMesh:
    """Vertex array (V, 3) and triangle index array (T, 3).

    Triangles are wound so their normals point out of the enclosed solid.
    `_samples` caches `_interior_samples` per tol.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    _samples: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        v = np.array(self.vertices, dtype=np.float64)
        t = np.array(self.triangles, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError("vertices must have shape (V, 3)")
        if t.ndim != 2 or t.shape[1] != 3:
            raise ValueError("triangles must have shape (T, 3)")
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise ValueError("triangle index out of range")
        v.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)

    def corners(self) -> np.ndarray:
        """Triangle soup view, shape (T, 3, 3)."""
        return self.vertices[self.triangles]


def _undirected_edges(triangles: np.ndarray) -> np.ndarray:
    e = np.concatenate(
        [triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]]
    )
    return np.sort(e, axis=1)


def euler_characteristic(m: TriMesh) -> int:
    """V - E + F with E counted from unique undirected edges."""
    edges = np.unique(_undirected_edges(m.triangles), axis=0)
    return int(len(m.vertices) - len(edges) + len(m.triangles))


def validate_mesh(m: TriMesh) -> None:
    """Raise ValueError unless the mesh is closed, consistently oriented
    watertight, free of degenerate triangles, and positively oriented."""
    soup = m.corners()
    areas = np.linalg.norm(
        np.cross(soup[:, 1] - soup[:, 0], soup[:, 2] - soup[:, 0]), axis=1
    )
    if np.any(areas <= 0.0):
        raise ValueError("degenerate triangle")
    # directed edge i -> j of each triangle, keyed i * V + j
    nv = len(m.vertices)
    keys, counts = np.unique(
        m.triangles * nv + np.roll(m.triangles, -1, axis=1), return_counts=True
    )
    i, j = np.divmod(keys, nv)
    twice = np.flatnonzero(counts > 1)
    if twice.size:
        e = twice[0]
        raise ValueError(f"directed edge {(int(i[e]), int(j[e]))} used {counts[e]} times")
    unpaired = np.flatnonzero(~np.isin(j * nv + i, keys))
    if unpaired.size:
        e = unpaired[0]
        raise ValueError(f"edge {{{i[e]}, {j[e]}}} is not shared by two opposed triangles")
    if signed_volume(m) <= 0.0:
        raise ValueError("signed volume is not positive")


def signed_volume(m: TriMesh) -> float:
    """Divergence-theorem volume: sum of det(p1, p2, p3) / 6."""
    soup = m.corners()
    return float(np.einsum("ij,ij->", soup[:, 0], np.cross(soup[:, 1], soup[:, 2])) / 6.0)


def cross_section_area(m: TriMesh, z: float) -> float:
    """Area of the section cut by the plane at height ``z``, by Green's
    theorem.

    On a closed, outward-wound mesh each triangle the plane cuts has one
    edge that falls through the plane and one that rises through it; the
    segment from the falling cut to the rising cut runs counterclockwise
    around the section seen from above, so half the sum of the segments'
    cross products is its area, loops and holes included.  Slices outside
    the open vertical extent or through a vertex plane are rejected.
    """
    z = float(z)
    zs = m.vertices[:, 2]
    if not (zs.min() < z < zs.max()):
        raise ValueError("degenerate slice")
    if np.any(np.abs(zs - z) < 1e-12):
        raise ValueError("degenerate slice")
    xy = m.vertices[:, :2] - m.vertices[:, :2].mean(axis=0)
    tail, head = m.triangles, np.roll(m.triangles, -1, axis=1)
    below = zs < z

    def cuts(lo, hi):
        """Where the edges from lo (below the plane) to hi (above) meet it."""
        w = (z - zs[lo]) / (zs[hi] - zs[lo])
        return xy[lo] + w[:, None] * (xy[hi] - xy[lo])

    # boolean indexing keeps triangle order, so p[k] and q[k] share a triangle
    falls = ~below[tail] & below[head]
    rises = below[tail] & ~below[head]
    p = cuts(head[falls], tail[falls])
    q = cuts(tail[rises], head[rises])
    return float(0.5 * np.sum(p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]))


def translate(m: TriMesh, d) -> TriMesh:
    d = np.asarray(d, dtype=np.float64)
    return TriMesh(m.vertices + d, m.triangles)


def scale(m: TriMesh, a: float, b: float, c: float) -> TriMesh:
    if a <= 0.0 or b <= 0.0 or c <= 0.0:
        raise ValueError("scale factors must be positive")
    return TriMesh(m.vertices * np.array([a, b, c]), m.triangles)


def aabb(m: TriMesh) -> tuple[np.ndarray, np.ndarray]:
    return m.vertices.min(axis=0), m.vertices.max(axis=0)


def _points_in_mesh(points, m: TriMesh, tol: float = DEFAULT_TOL, rng=None) -> np.ndarray:
    """Strict interior test for a (P, 3) point set, as a (P,) bool array.

    Points within ``tol`` of the surface are outside.  Every other point
    casts one random ray and takes the parity of its crossings; points
    whose ray grazes a triangle boundary are retried in a fresh direction
    (seeded, so the call is deterministic), up to 64 rounds.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    soup = m.corners()
    inside = np.zeros(len(points), dtype=bool)
    todo = np.flatnonzero(_kernels.point_tris_dist(points, soup) > tol)
    if rng is None:
        rng = np.random.default_rng(0x51CE)
    for _ in range(64):
        if todo.size == 0:
            break
        d = rng.standard_normal((todo.size, 3))
        n = np.linalg.norm(d, axis=1)
        usable = n >= 1e-12
        hits, ok = _kernels.ray_hits(
            points[todo], d / np.where(usable, n, 1.0)[:, None], soup
        )
        ok &= usable
        inside[todo[ok]] = hits[ok] % 2 == 1
        todo = todo[~ok]
    if todo.size:
        raise RuntimeError("parity ray casting kept grazing after 64 retries")
    return inside


def point_in_mesh(p, m: TriMesh, tol: float = DEFAULT_TOL, rng=None) -> bool:
    """Strict interior test of one point; see ``_points_in_mesh``."""
    return bool(_points_in_mesh(p, m, tol, rng)[0])


def _interior_samples(m: TriMesh, tol: float) -> np.ndarray:
    """Triangle centroids nudged inward, kept only if interior to ``m``.

    Catches volume overlap between meshes whose boundaries only graze,
    where no vertex and no proper crossing gives the game away.  Computed
    once per mesh and ``tol``.
    """
    if tol not in m._samples:
        m._samples[tol] = _compute_interior_samples(m, tol)
    return m._samples[tol]


def _compute_interior_samples(m: TriMesh, tol: float) -> np.ndarray:
    """The samples of ``_interior_samples``, classified against ``m`` with
    the default seeded rng, so they do not depend on which call asks
    first."""
    c = m.corners()
    n = np.cross(c[:, 1] - c[:, 0], c[:, 2] - c[:, 0])
    ln = np.linalg.norm(n, axis=1)
    keep = ln > tol
    if not keep.any():
        return np.empty((0, 3))
    lo, hi = aabb(m)
    delta = max(1e3 * tol, 1e-6 * float(np.linalg.norm(hi - lo)))
    pts = c[keep].mean(axis=1) - n[keep] / ln[keep, None] * delta
    return pts[_points_in_mesh(pts, m, tol)]


def overlap(a: TriMesh, b: TriMesh, tol: float = DEFAULT_TOL) -> bool:
    """True iff the open interiors intersect with penetration beyond ``tol``.

    Checked as (i) a proper triangle-triangle crossing with mutual
    plane-penetration deeper than ``tol``, (ii) a vertex or the vertex
    centroid of one mesh strictly inside the other, or (iii) an inward
    nudged surface sample of one mesh strictly inside both, which catches
    grazing-boundary overlaps such as coincident copies.  Exactly-touching
    faces do not count.
    """
    if not 0.0 <= tol < np.inf:
        raise ValueError("tol must be finite and nonnegative")
    amin, amax = aabb(a)
    bmin, bmax = aabb(b)
    if np.any(amin > bmax + tol) or np.any(bmin > amax + tol):
        return False
    ta = a.corners()
    tb = b.corners()
    if _kernels.tri_cross_any(ta, tb, tol):
        return True
    rng = np.random.default_rng(0x0EC4)
    pts_a = np.vstack([a.vertices, a.vertices.mean(axis=0)])
    if _points_in_mesh(pts_a, b, tol, rng).any():
        return True
    pts_b = np.vstack([b.vertices, b.vertices.mean(axis=0)])
    if _points_in_mesh(pts_b, a, tol, rng).any():
        return True
    if _points_in_mesh(_interior_samples(a, tol), b, tol, rng).any():
        return True
    return bool(_points_in_mesh(_interior_samples(b, tol), a, tol, rng).any())


# ---------------------------------------------------------------------------
# file IO

_STL_REC = np.dtype(
    [("normal", "<f4", (3,)), ("corner", "<f4", (3, 3)), ("attr", "<u2")]
)


def _soups(meshes) -> np.ndarray:
    if isinstance(meshes, np.ndarray):
        return meshes
    if isinstance(meshes, TriMesh):
        meshes = [meshes]
    parts = [m.corners() for m in meshes]
    if not parts:
        return np.zeros((0, 3, 3))
    return np.concatenate(parts)


def write_stl(meshes, path, tag: str = "interlock") -> None:
    """Binary STL: 80-byte zero-padded header, little-endian uint32 count,
    then per triangle 12 float32 (normal + corners) and a zero uint16."""
    soup = _soups(meshes)
    n = np.cross(soup[:, 1] - soup[:, 0], soup[:, 2] - soup[:, 0])
    lengths = np.linalg.norm(n, axis=1)
    safe = np.where(lengths > 0.0, lengths, 1.0)
    n = np.where(lengths[:, None] > 0.0, n / safe[:, None], 0.0)
    rec = np.zeros(len(soup), dtype=_STL_REC)
    rec["normal"] = n.astype("<f4")
    rec["corner"] = soup.astype("<f4")
    header = tag.encode("ascii")[:80].ljust(80, b"\0")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.uint32(len(soup)).tobytes())
        fh.write(rec.tobytes())


def read_stl_soup(path):
    """Raw binary STL payload: (header bytes, normals, corner soup, attrs),
    all exactly as stored (float32)."""
    with open(path, "rb") as fh:
        header = fh.read(80)
        count = int(np.frombuffer(fh.read(4), dtype="<u4")[0])
        rec = np.frombuffer(fh.read(count * _STL_REC.itemsize), dtype=_STL_REC)
    if len(rec) != count:
        raise ValueError("truncated STL file")
    return header, rec["normal"], rec["corner"], rec["attr"]


def read_stl(path) -> TriMesh:
    """Read a binary STL and weld exactly-equal corners into a TriMesh."""
    _, _, soup, _ = read_stl_soup(path)
    flat = soup.reshape(-1, 3).astype(np.float64)
    vertices, inverse = np.unique(flat, axis=0, return_inverse=True)
    return TriMesh(vertices, inverse.reshape(-1, 3))


def write_obj(meshes, path, names=None) -> None:
    """OBJ text: "v x y z" lines then 1-based "f i j k" lines."""
    if isinstance(meshes, TriMesh):
        meshes = [meshes]
    lines = []
    offset = 0
    for idx, m in enumerate(meshes):
        if names is not None:
            lines.append(f"o {names[idx]}")
        for x, y, z in m.vertices:
            lines.append(f"v {x:.9g} {y:.9g} {z:.9g}")
        for a, b, c in m.triangles:
            lines.append(f"f {a + 1 + offset} {b + 1 + offset} {c + 1 + offset}")
        offset += len(m.vertices)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
