"""Batched numpy geometry kernels.

Each kernel tests a whole point set or triangle set against a triangle set
with array operations over all pairs at once.  DET_EPS guards
near-parallel rays, BARY_EPS flags grazing ray hits near a triangle
boundary so the caller can retry with a fresh direction, T_EPS rejects
hits at the ray origin.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"

DET_EPS = 1e-12
BARY_EPS = 1e-9
T_EPS = 1e-12


# ---------------------------------------------------------------------------
# triangle-triangle proper crossing


def tri_cross_any(ta, tb, tol):
    """True iff any triangle of ``ta`` properly crosses any of ``tb``.

    A vectorized straddle prefilter over all pairs, then the exact test on
    the survivors.
    """
    ta = np.ascontiguousarray(ta, dtype=np.float64)
    tb = np.ascontiguousarray(tb, dtype=np.float64)
    tol = float(tol)
    n2 = np.cross(tb[:, 1] - tb[:, 0], tb[:, 2] - tb[:, 0])
    l2 = np.linalg.norm(n2, axis=1)
    n1 = np.cross(ta[:, 1] - ta[:, 0], ta[:, 2] - ta[:, 0])
    l1 = np.linalg.norm(n1, axis=1)
    ok = (l1[:, None] > 0.0) & (l2[None, :] > 0.0)
    safe2 = np.where(l2 > 0.0, l2, 1.0)
    safe1 = np.where(l1 > 0.0, l1, 1.0)
    # signed distances of ta's vertices to tb's planes: (na, nb, 3)
    d1 = (
        np.einsum("ikx,jx->ijk", ta, n2)
        - np.einsum("jx,jx->j", tb[:, 0], n2)[None, :, None]
    ) / safe2[None, :, None]
    m1 = (d1.min(axis=2) < -tol) & (d1.max(axis=2) > tol)
    d2 = (
        np.einsum("jkx,ix->ijk", tb, n1)
        - np.einsum("ix,ix->i", ta[:, 0], n1)[:, None, None]
    ) / safe1[:, None, None]
    m2 = (d2.min(axis=2) < -tol) & (d2.max(axis=2) > tol)
    i, j = np.nonzero(ok & m1 & m2)
    # most calls leave no survivor; skip the exact test's fixed cost then
    return i.size > 0 and bool(_crosses(ta[i], tb[j], n1[i], n2[j], tol).any())


def _dot(rows, n):
    # the (S, k, 3) rows dotted with their pair's (S, 3) n, summed x, y, z
    n = n[:, None]
    return n[..., 0] * rows[..., 0] + n[..., 1] * rows[..., 1] + n[..., 2] * rows[..., 2]


def _norm(n):
    return (n[:, 0] * n[:, 0] + n[:, 1] * n[:, 1] + n[:, 2] * n[:, 2]) ** 0.5


def _crosses(p, q, n1, n2, tol):
    """The exact proper-crossing test on (S, 3, 3) triangle pairs p[s],
    q[s] with nonzero normals n1[s], n2[s], as an (S,) bool array.

    True where each triangle strictly straddles the other's plane by more
    than ``tol`` and the two intervals cut on the plane-intersection line
    overlap with positive length.  Touching or coplanar configurations
    give False.
    """
    # direction of the plane-plane intersection line
    line = np.cross(n1, n2)
    line_len = _norm(line)
    # crossing so far, and the intersection [lo, hi] of the two intervals
    crossing, lo, hi = line_len != 0.0, -np.inf, np.inf
    for tri, other, n in ((p, q, n2), (q, p, n1)):
        dist = _dot(tri - other[:, None, 0], n) / _norm(n)[:, None]
        crossing &= (dist.min(axis=1) < -tol) & (dist.max(axis=1) > tol)
        # interval endpoints come from edges with strictly opposite signs
        # plus vertices sitting within tol of the plane; a straddling
        # triangle has at least two
        pr = _dot(tri, line)
        d_next, pr_next = dist[:, [1, 2, 0]], pr[:, [1, 2, 0]]
        cut = dist * d_next < 0.0
        t = pr + (pr_next - pr) * dist / np.where(cut, dist - d_next, 1.0)
        ends, use = np.hstack([t, pr]), np.hstack([cut, np.abs(dist) <= tol])
        lo = np.maximum(lo, np.fmin.reduce(np.where(use, ends, np.inf), axis=1))
        hi = np.minimum(hi, np.fmax.reduce(np.where(use, ends, -np.inf), axis=1))
    # scale the margin by the unnormalized line direction so the overlap
    # must have positive length in world units; a sliding point-touch
    # between coplanar contact regions then stays rejected
    return crossing & (hi - lo > tol * line_len)


# ---------------------------------------------------------------------------
# ray casting (parity point-in-mesh support)


def ray_hits(origins, directions, tris):
    """Moller-Trumbore hits of P rays against T triangles.

    ``origins`` and ``directions`` are (P, 3), ``tris`` is (T, 3, 3).
    Returns (hits, ok), both (P,): the number of strict forward hits of
    each ray, and False where a forward hit grazes a triangle boundary, in
    which case the caller should retry that ray in a new direction.
    """
    origins = np.ascontiguousarray(origins, dtype=np.float64)
    directions = np.ascontiguousarray(directions, dtype=np.float64)
    tris = np.ascontiguousarray(tris, dtype=np.float64)
    e1 = tris[:, 1] - tris[:, 0]
    e2 = tris[:, 2] - tris[:, 0]
    pvec = np.cross(directions[:, None, :], e2[None, :, :])
    det = np.einsum("kx,pkx->pk", e1, pvec)
    alive = np.abs(det) >= DET_EPS
    inv = np.where(alive, 1.0 / np.where(alive, det, 1.0), 0.0)
    tvec = origins[:, None, :] - tris[None, :, 0]
    u = np.einsum("pkx,pkx->pk", tvec, pvec) * inv
    qvec = np.cross(tvec, e1[None, :, :])
    v = np.einsum("px,pkx->pk", directions, qvec) * inv
    t = np.einsum("kx,pkx->pk", e2, qvec) * inv
    w = 1.0 - u - v
    forward = alive & (t > T_EPS)
    strict = forward & (u > BARY_EPS) & (v > BARY_EPS) & (w > BARY_EPS)
    grazing = forward & ~strict & (u > -BARY_EPS) & (v > -BARY_EPS) & (w > -BARY_EPS)
    return strict.sum(axis=1), ~grazing.any(axis=1)


# ---------------------------------------------------------------------------
# point-triangle distance


def point_tris_dist(points, tris):
    """Min distance from each of the (P, 3) points to a (T, 3, 3) triangle
    set, as a (P,) array.

    The closest point is either the projection onto the triangle plane
    (when its barycentric coordinates are nonnegative) or a point on one
    of the edge segments.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    tris = np.ascontiguousarray(tris, dtype=np.float64)
    if tris.shape[0] == 0:
        return np.full(len(points), np.inf)
    a = tris[:, 0]
    v0 = tris[:, 1] - a
    v1 = tris[:, 2] - a
    v2 = points[:, None, :] - a[None, :, :]
    d00 = np.einsum("kx,kx->k", v0, v0)
    d01 = np.einsum("kx,kx->k", v0, v1)
    d11 = np.einsum("kx,kx->k", v1, v1)
    d20 = np.einsum("pkx,kx->pk", v2, v0)
    d21 = np.einsum("pkx,kx->pk", v2, v1)
    denom = d00 * d11 - d01 * d01
    safe = np.where(denom > 0.0, denom, 1.0)
    vb = (d11 * d20 - d01 * d21) / safe
    wb = (d00 * d21 - d01 * d20) / safe
    inside = (denom > 0.0) & (vb >= 0.0) & (wb >= 0.0) & (vb + wb <= 1.0)
    r = v2 - vb[..., None] * v0 - wb[..., None] * v1
    best = np.where(inside, np.linalg.norm(r, axis=2), np.inf)

    for e in range(3):
        b = tris[:, e]
        edge = tris[:, (e + 1) % 3] - b
        ee = np.einsum("kx,kx->k", edge, edge)
        rel = points[:, None, :] - b[None, :, :]
        t = np.einsum("pkx,kx->pk", rel, edge) / np.where(ee > 0.0, ee, 1.0)
        t = np.clip(np.where(ee > 0.0, t, 0.0), 0.0, 1.0)
        d = np.linalg.norm(rel - t[..., None] * edge, axis=2)
        best = np.minimum(best, d)
    return best.min(axis=1)
