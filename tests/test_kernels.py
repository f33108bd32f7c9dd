"""The batched triangle-crossing test against the per-pair loop it replaced."""

import math

import numpy as np
import pytest

from interlock import _kernels
from interlock.assembly import place_block
from interlock.blocking import PoseTable
from interlock.mesh import translate


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def reference_cross(p, q, tol):
    """One pair at a time: each triangle strictly straddles the other's
    plane by more than tol, and the intervals they cut on the planes'
    intersection line overlap by more than tol times its length."""
    n1 = _cross(_sub(p[1], p[0]), _sub(p[2], p[0]))
    n2 = _cross(_sub(q[1], q[0]), _sub(q[2], q[0]))
    l1, l2 = math.sqrt(_dot(n1, n1)), math.sqrt(_dot(n2, n2))
    if l1 == 0.0 or l2 == 0.0:
        return False
    d1 = [_dot(n2, _sub(v, q[0])) / l2 for v in p]
    d2 = [_dot(n1, _sub(v, p[0])) / l1 for v in q]
    if not all(min(d) < -tol and max(d) > tol for d in (d1, d2)):
        return False
    line = _cross(n1, n2)
    if _dot(line, line) == 0.0:
        return False

    def interval(tri, dist):
        # edges whose ends have strictly opposite signs, and vertices
        # within tol of the plane
        pr = [_dot(line, v) for v in tri]
        ends = [pr[i] + (pr[j] - pr[i]) * dist[i] / (dist[i] - dist[j])
                for i, j in ((0, 1), (1, 2), (2, 0)) if dist[i] * dist[j] < 0.0]
        ends += [pr[i] for i in range(3) if abs(dist[i]) <= tol]
        return (min(ends), max(ends)) if len(ends) >= 2 else (math.inf, -math.inf)

    (pmin, pmax), (qmin, qmax) = interval(p, d1), interval(q, d2)
    if pmin > pmax or qmin > qmax:
        return False
    return min(pmax, qmax) - max(pmin, qmin) > tol * math.sqrt(_dot(line, line))


def _pairs():
    """Block faces at every window pose, nudged up, down and sideways,
    then nudged copies, random and near-coplanar triangles."""
    rng = np.random.default_rng(7)
    scale = (0.2, 0.3, 0.5)
    table = PoseTable((0.0, 0.0, -1.0), 0.01, scale)
    p, q = [], []
    for shift in ((0, 0, -0.005), (0, 0, 0.005), (0.003, 0, -0.004), (0, 0, 0)):
        for k_i in range(4):
            a = translate(place_block(k_i, 0, 0, scale=scale), shift).corners()
            for k_j in range(4):
                for dr, dc in table.window:
                    b = place_block(k_j, dr, dc, scale=scale).corners()
                    p.append(np.repeat(a, len(b), axis=0))
                    q.append(np.tile(b, (len(a), 1, 1)))
    p, q = np.concatenate(p), np.concatenate(q)
    pick = rng.choice(len(p), 3000, replace=False)
    p, q = p[pick], q[pick]
    nudged = p[:500] + rng.normal(scale=1e-9, size=(500, 3, 3))
    flat = rng.normal(size=(500, 3, 3)) * (1.0, 1.0, 1e-6)
    p = np.concatenate([p, nudged, rng.normal(size=(500, 3, 3)), flat])
    q = np.concatenate([q, q[:500], rng.normal(size=(500, 3, 3)),
                        flat + rng.normal(scale=1e-5, size=(500, 3, 3))])
    return p, q


@pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
def test_batched_crossing_test_matches_the_per_pair_loop(tol):
    p, q = _pairs()
    n1 = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    n2 = np.cross(q[:, 1] - q[:, 0], q[:, 2] - q[:, 0])
    got = _kernels._crosses(p, q, n1, n2, tol)
    want = [reference_cross(a, b, tol) for a, b in zip(p.tolist(), q.tolist())]
    assert got.tolist() == want
    assert 100 < sum(want) < len(want) - 100


def test_tri_cross_any_on_empty_and_crossing_sets():
    tri = np.array([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
    upright = np.array([[[0.2, 0.2, -0.5], [0.2, 0.2, 0.5], [0.2, -0.5, 0.0]]])
    assert _kernels.tri_cross_any(tri, upright, 1e-9)
    assert not _kernels.tri_cross_any(tri, tri, 1e-9)
    assert not _kernels.tri_cross_any(tri[:0], upright, 1e-9)
    assert not _kernels.tri_cross_any(tri, upright[:0], 1e-9)
