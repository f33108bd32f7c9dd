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


def _tri_cross_one(p, q, tol):
    """Proper crossing test for one triangle pair.

    True iff each triangle strictly straddles the other's plane by more
    than ``tol`` and the two intervals cut on the plane-intersection line
    overlap with positive length.  Touching or coplanar configurations
    return False.
    """
    n2x = (q[1, 1] - q[0, 1]) * (q[2, 2] - q[0, 2]) - (q[1, 2] - q[0, 2]) * (q[2, 1] - q[0, 1])
    n2y = (q[1, 2] - q[0, 2]) * (q[2, 0] - q[0, 0]) - (q[1, 0] - q[0, 0]) * (q[2, 2] - q[0, 2])
    n2z = (q[1, 0] - q[0, 0]) * (q[2, 1] - q[0, 1]) - (q[1, 1] - q[0, 1]) * (q[2, 0] - q[0, 0])
    l2 = (n2x * n2x + n2y * n2y + n2z * n2z) ** 0.5
    if l2 == 0.0:
        return False

    d1 = np.empty(3)
    for i in range(3):
        d1[i] = (
            n2x * (p[i, 0] - q[0, 0]) + n2y * (p[i, 1] - q[0, 1]) + n2z * (p[i, 2] - q[0, 2])
        ) / l2
    if not (min(d1[0], d1[1], d1[2]) < -tol and max(d1[0], d1[1], d1[2]) > tol):
        return False

    n1x = (p[1, 1] - p[0, 1]) * (p[2, 2] - p[0, 2]) - (p[1, 2] - p[0, 2]) * (p[2, 1] - p[0, 1])
    n1y = (p[1, 2] - p[0, 2]) * (p[2, 0] - p[0, 0]) - (p[1, 0] - p[0, 0]) * (p[2, 2] - p[0, 2])
    n1z = (p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1]) - (p[1, 1] - p[0, 1]) * (p[2, 0] - p[0, 0])
    l1 = (n1x * n1x + n1y * n1y + n1z * n1z) ** 0.5
    if l1 == 0.0:
        return False

    d2 = np.empty(3)
    for i in range(3):
        d2[i] = (
            n1x * (q[i, 0] - p[0, 0]) + n1y * (q[i, 1] - p[0, 1]) + n1z * (q[i, 2] - p[0, 2])
        ) / l1
    if not (min(d2[0], d2[1], d2[2]) < -tol and max(d2[0], d2[1], d2[2]) > tol):
        return False

    # direction of the plane-plane intersection line
    dx = n1y * n2z - n1z * n2y
    dy = n1z * n2x - n1x * n2z
    dz = n1x * n2y - n1y * n2x
    if dx * dx + dy * dy + dz * dz == 0.0:
        return False

    def interval(tri, dist):
        # interval endpoints come from edges with strictly opposite signs
        # plus vertices sitting within tol of the plane
        tmin = np.inf
        tmax = -np.inf
        count = 0
        p0 = dx * tri[0, 0] + dy * tri[0, 1] + dz * tri[0, 2]
        p1 = dx * tri[1, 0] + dy * tri[1, 1] + dz * tri[1, 2]
        p2 = dx * tri[2, 0] + dy * tri[2, 1] + dz * tri[2, 2]
        pr = np.empty(3)
        pr[0] = p0
        pr[1] = p1
        pr[2] = p2
        for i in range(3):
            j = (i + 1) % 3
            if dist[i] * dist[j] < 0.0:
                t = pr[i] + (pr[j] - pr[i]) * dist[i] / (dist[i] - dist[j])
                count += 1
                if t < tmin:
                    tmin = t
                if t > tmax:
                    tmax = t
        for i in range(3):
            if abs(dist[i]) <= tol:
                count += 1
                if pr[i] < tmin:
                    tmin = pr[i]
                if pr[i] > tmax:
                    tmax = pr[i]
        if count < 2:
            return np.inf, -np.inf
        return tmin, tmax

    pmin, pmax = interval(p, d1)
    if pmin > pmax:
        return False
    qmin, qmax = interval(q, d2)
    if qmin > qmax:
        return False
    # scale the margin by the unnormalized line direction so the overlap
    # must have positive length in world units; a sliding point-touch
    # between coplanar contact regions then stays rejected
    line_len = (dx * dx + dy * dy + dz * dz) ** 0.5
    return min(pmax, qmax) - max(pmin, qmin) > tol * line_len


def tri_cross_any(ta, tb, tol):
    """True iff any triangle of ``ta`` properly crosses any of ``tb``.

    A vectorized straddle prefilter over all pairs, then the exact test on
    the survivors.
    """
    ta = np.ascontiguousarray(ta, dtype=np.float64)
    tb = np.ascontiguousarray(tb, dtype=np.float64)
    tol = float(tol)
    if ta.shape[0] == 0 or tb.shape[0] == 0:
        return False
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
    for i, j in zip(*np.nonzero(ok & m1 & m2)):
        if _tri_cross_one(ta[i], tb[j], tol):
            return True
    return False


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
