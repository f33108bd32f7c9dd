"""The versatile block: a 9-vertex, 21-edge, 14-triangle convex-ish
polyhedron whose four ramp faces make gravity press neighboring blocks
against each other.

The canonical block sits on z = 0 with unit height.  Seen from above it is
the square with corners (0, 0), (1, 1), (2, 0), (1, -1); every horizontal
cross section is an octagon of area 2.  Two of its upper ramps face the
grid north and west sides (the "white" sides of the matching Truchet
tile); rotating the block about its center (1, 0) by k quarter turns
clockwise advances the white pair through NE, SE, SW.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import TriMesh

BLOCK_VERTICES = np.array(
    [
        (0.0, 0.0, 0.0),
        (1.0, 1.0, 0.0),
        (2.0, 0.0, 0.0),
        (1.0, -1.0, 0.0),
        (0.0, 1.0, 1.0),
        (1.0, 1.0, 1.0),
        (1.0, 0.0, 1.0),
        (1.0, -1.0, 1.0),
        (0.0, -1.0, 1.0),
    ]
)

# Outward-wound faces: 2 bottom, 3 top, 4 ramps, 1 side wall west/north/
# south, 2 on the east wall.
BLOCK_TRIANGLES = (
    np.array(
        [
            (1, 2, 3),
            (1, 3, 4),
            (5, 7, 6),
            (5, 9, 7),
            (7, 9, 8),
            (1, 5, 2),
            (1, 9, 5),
            (1, 4, 9),
            (2, 7, 3),
            (3, 7, 4),
            (2, 5, 6),
            (2, 6, 7),
            (4, 7, 8),
            (4, 8, 9),
        ]
    )
    - 1
)

BLOCK_CENTER_XY = np.array([1.0, 0.0])

_R_CW = np.array([[0.0, 1.0], [-1.0, 0.0]])  # 90 degrees clockwise

# Grid sides whose neighbors catch this block when it moves down, per
# orientation.  These equal the white sides of the matching Truchet tile.
WHITE_SIDES = {
    0: frozenset({"N", "W"}),
    1: frozenset({"N", "E"}),
    2: frozenset({"S", "E"}),
    3: frozenset({"S", "W"}),
}


@dataclass(frozen=True)
class VersatileBlock:
    """The block mesh plus its two horizontal face groups: the bottom
    square (2 triangles at z=0) and the top rectangle (3 at z=1), each of
    area 2."""

    mesh: TriMesh
    bottom_square: tuple
    top_rectangle: tuple


def versatile_block() -> VersatileBlock:
    """The canonical block (orientation 0)."""
    mesh = TriMesh(BLOCK_VERTICES, BLOCK_TRIANGLES)
    z = BLOCK_VERTICES[:, 2]
    bottom = tuple(tuple(tri) for tri in BLOCK_TRIANGLES if np.all(z[tri] == 0.0))
    top = tuple(tuple(tri) for tri in BLOCK_TRIANGLES if np.all(z[tri] == 1.0))
    return VersatileBlock(mesh, bottom, top)


def oriented_block(k: int) -> TriMesh:
    """The block rotated k quarter turns clockwise about its center.

    k must be one of 0, 1, 2, 3.
    """
    if k not in (0, 1, 2, 3):
        raise ValueError(f"orientation must be 0..3, got {k!r}")
    xy = BLOCK_VERTICES[:, :2] - BLOCK_CENTER_XY
    rot = np.linalg.matrix_power(_R_CW, k)
    xy = xy @ rot.T + BLOCK_CENTER_XY
    vertices = np.column_stack([xy, BLOCK_VERTICES[:, 2]])
    return TriMesh(vertices, BLOCK_TRIANGLES)
