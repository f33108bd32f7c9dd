"""Interlocking flow model: unit loads on core blocks propagate along
blocking-graph arcs, half to each of the block's two supporters, until the
frame has absorbed everything.

The transfer matrix A is row-stochastic (frame rows are absorbing unit
rows, core rows carry two 1/2 entries), so one step is multiplication by
its transpose and total mass is conserved exactly.  `iterate` runs the
propagation; `closed_form` solves the absorbing-chain limit directly and
serves as the oracle for it.

scipy is imported inside the functions that build or solve the sparse
system, so importing this module, and the commands that never reach
those functions, load numpy alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .assembly import TruchetTiling
from .blocking import BlockingGraph

if TYPE_CHECKING:
    import scipy.sparse as sp

LOADED_EPS = 1e-9


class FlowError(RuntimeError):
    """Raised when the flow has no absorbing limit.

    `component` holds the 1-based node indices of the strongly connected
    core component that traps mass, when one was identified.
    """

    def __init__(self, message, component=()):
        super().__init__(message)
        self.component = tuple(component)


@dataclass(frozen=True)
class TransferMatrix:
    """Row-stochastic |I|x|I| sparse matrix plus the frame/core split
    (0-based index arrays)."""

    matrix: sp.csr_matrix
    frame: np.ndarray
    core: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class FlowResult:
    frame_load: dict
    residual_core_mass: float
    iterations: int
    converged: bool

    def total_frame_mass(self) -> float:
        return float(sum(self.frame_load.values()))


def transfer_matrix(g: BlockingGraph) -> TransferMatrix:
    """Build A from a blocking graph: 1/2 per core arc, 1 on frame
    diagonals.  Core nodes must have exactly two outgoing arcs.  The
    lowest-numbered node that breaks a rule is the one reported.  Arcs
    must be strictly increasing by (tail, head), as the builders leave them."""
    import scipy.sparse as sp

    n = g.n_nodes
    arcs = g.arc_array - 1
    tails, heads = arcs[:, 0], arcs[:, 1]
    frame = np.array(list(g.frame), dtype=np.int64) - 1
    nodes = np.concatenate([arcs.ravel(), frame])
    if nodes.size and not (0 <= nodes.min() and nodes.max() < n):
        raise ValueError(f"graph nodes must be numbered 1..{n}")
    # nodes are in range, so this key is exact and orders arcs as (tail, head)
    if np.any(np.diff(tails * n + heads) <= 0):
        raise ValueError("arcs must be sorted by (tail, head) without repeats")
    is_frame = np.zeros(n, dtype=bool)
    is_frame[frame] = True
    degree = np.bincount(tails, minlength=n)
    loops = np.bincount(tails[tails == heads], minlength=n)
    bad = np.where(is_frame, (degree != 1) | (loops != 1), (degree != 2) | (loops != 0))
    if bad.any():
        i = int(np.argmax(bad))
        if is_frame[i]:
            raise ValueError(f"frame node {i + 1} must carry only its self-loop")
        targets = (heads[tails == i] + 1).tolist()
        raise ValueError(f"unsupported block: core node {i + 1} has out-arcs {targets}")
    indptr = np.concatenate([[0], np.cumsum(degree)])
    data = np.where(is_frame[tails], 1.0, 0.5)
    matrix = sp.csr_matrix((data, heads, indptr), shape=(n, n))
    return TransferMatrix(matrix, np.flatnonzero(is_frame), np.flatnonzero(~is_frame))


def initial_load(t: TruchetTiling, core_value: float = 1.0) -> np.ndarray:
    """Load vector: core_value on core cells, 0 on the frame."""
    if core_value < 0.0:
        raise ValueError("core_value must be nonnegative")
    x = np.zeros((t.rows, t.cols))
    x[1:-1, 1:-1] = core_value
    return x.ravel()


def step(A: TransferMatrix, x: np.ndarray) -> np.ndarray:
    """One propagation step: mass moves along arcs, so new = A^T x.
    Total mass is conserved (columns of A^T sum to 1)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.n,):
        raise ValueError("load vector length mismatch")
    return A.matrix.T @ x


def _core_first(A: TransferMatrix) -> sp.csr_matrix:
    """A^T with the nodes relabelled core first, then frame, each in index
    order.  Each row keeps its entries in the order A^T stores them, so a
    matvec makes the same floating-point additions in the same order;
    sorting them by the new labels would move a frame node's self term
    past the core nodes that feed it from above its index."""
    import scipy.sparse as sp

    AT = A.matrix.T.tocsr()
    order = np.concatenate([A.core, A.frame])
    label = np.empty(A.n, dtype=np.int64)
    label[order] = np.arange(A.n)
    rows = AT[order]
    return sp.csr_matrix((rows.data, label[rows.indices], rows.indptr), shape=AT.shape)


def iterate(A: TransferMatrix, x: np.ndarray, tol: float = 1e-12, max_iter: int = 10**6) -> FlowResult:
    """Propagate until the residual core mass drops below tol.  A NaN
    residual ends the propagation at once, unconverged."""
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.n,):
        raise ValueError("load vector length mismatch")
    # y holds the core loads in y[:k], then the frame loads
    k = len(A.core)
    y = x[np.concatenate([A.core, A.frame])]
    it, residual = 0, float(y[:k].sum())
    if residual >= tol:
        P = _core_first(A)
        for it in range(1, max_iter + 1):
            y = P @ y
            residual = float(y[:k].sum())
            if not residual >= tol:
                break
    frame_load = dict(zip((A.frame + 1).tolist(), y[k:].tolist()))
    return FlowResult(frame_load, residual, it, residual < tol)


def _drain_check(Q: sp.csr_matrix, R: sp.csr_matrix):
    """The first closed class of core states, as core positions, or None.

    A core state fails to drain only if it reaches a class of the
    strongly connected condensation that no arc leaves; a class leaks when
    one of its Q arcs crosses to another class or one of its rows has an
    R entry.  One pass over the stored entries, O(nnz).
    """
    from scipy.sparse.csgraph import connected_components

    n_comp, labels = connected_components(Q, directed=True, connection="strong")
    leaks = np.zeros(n_comp, dtype=bool)
    heads = labels[np.repeat(np.arange(Q.shape[0]), np.diff(Q.indptr))]
    leaks[heads[heads != labels[Q.indices]]] = True
    leaks[labels[np.diff(R.indptr) > 0]] = True
    closed = np.flatnonzero(~leaks)
    return np.flatnonzero(labels == closed[0]) if len(closed) else None


def closed_form(A: TransferMatrix, x: np.ndarray) -> FlowResult:
    """Absorbing-chain limit: frame load = R^T (I - Q^T)^{-1} x_core with
    Q, R the core->core and core->frame sub-blocks of A, solved on one
    factorisation with one step of iterative refinement."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.n,):
        raise ValueError("load vector length mismatch")
    out = np.zeros(A.n)
    out[A.frame] = x[A.frame]
    k = len(A.core)
    if k:
        core_rows = A.matrix[A.core]
        Q = core_rows[:, A.core].tocsr()
        R = core_rows[:, A.frame].tocsr()
        trapped = _drain_check(Q, R)
        if trapped is not None:
            trapped = tuple(int(A.core[i]) + 1 for i in trapped)
            raise FlowError(
                f"non-absorbing cycle: core component {trapped} never drains",
                component=trapped,
            )
        system = (sp.identity(k, format="csc") - Q.T.tocsc()).tocsc()
        lu, b = splu(system), x[A.core]
        y = lu.solve(b)
        y += lu.solve(b - system @ y)
        out[A.frame] += R.T @ y
    frame_load = {int(j) + 1: float(out[j]) for j in A.frame}
    return FlowResult(frame_load, 0.0, 0, True)


def frame_metrics(loads: np.ndarray) -> dict:
    """max load, loaded frame-cell count and coefficient of variation over
    the loaded cells, for each row of a (B, f) array of frame loads.

    Rows are sorted so the loaded cells form a suffix; rows with the same
    loaded count are reduced together, each over its own contiguous slice.
    """
    loads = np.sort(np.asarray(loads, dtype=np.float64), axis=1)
    count = (loads > LOADED_EPS).sum(axis=1)
    cv = np.zeros(len(loads))
    for n_loaded in np.unique(count[count > 0]):
        rows = np.flatnonzero(count == n_loaded)
        loaded = loads[rows, loads.shape[1] - n_loaded :]
        cv[rows] = loaded.std(axis=1) / loaded.mean(axis=1)
    return {"max_load": loads[:, -1], "loaded_cells": count, "cv": cv}


def flow_metrics(r: FlowResult) -> dict:
    """max load, loaded frame-cell count, coefficient of variation over the
    loaded cells, iterations."""
    if not r.converged:
        raise ValueError("unconverged flow has no metrics")
    m = frame_metrics([list(r.frame_load.values())])
    return {
        "max_load": float(m["max_load"][0]),
        "loaded_cells": int(m["loaded_cells"][0]),
        "cv": float(m["cv"][0]),
        "iterations": r.iterations,
    }


# ---------------------------------------------------------------------------
# exports

def flow_grid(r: FlowResult, rows: int, cols: int) -> np.ndarray:
    """m x n grid with frame cells filled and core cells 0."""
    grid = np.zeros((rows, cols))
    for j, load in r.frame_load.items():
        grid[(j - 1) // cols, (j - 1) % cols] = load
    return grid


def write_flow_csv(r: FlowResult, rows: int, cols: int, path) -> None:
    grid = flow_grid(r, rows, cols)
    with open(path, "w", encoding="ascii") as fh:
        for row in grid:
            fh.write(",".join(f"{v:.6f}" for v in row) + "\n")


def write_flow_json(r: FlowResult, rows: int, cols: int, path) -> None:
    payload = {
        "rows": rows,
        "cols": cols,
        "frame_load": {str(j): round(v, 6) for j, v in sorted(r.frame_load.items())},
        "residual_core_mass": round(r.residual_core_mass, 6),
        "iterations": r.iterations,
        "converged": r.converged,
        "total_frame_mass": round(r.total_frame_mass(), 6),
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_flow_svg(r: FlowResult, rows: int, cols: int, path, cell: int = 40) -> None:
    """Static heatmap: one square per cell, frame cells shaded by load with
    the value printed."""
    grid = flow_grid(r, rows, cols)
    vmax = grid.max()
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{cols * cell}" '
        f'height="{rows * cell}" font-family="monospace" font-size="{cell // 4}">',
    ]
    for i in range(rows):
        for j in range(cols):
            v = grid[i, j]
            shade = 255 - int(round(180.0 * v / vmax)) if vmax > 0 and v > 0 else 255
            lines.append(
                f'<rect x="{j * cell}" y="{i * cell}" width="{cell}" height="{cell}" '
                f'fill="rgb({shade},{shade},255)" stroke="black"/>'
            )
            if v > LOADED_EPS:
                lines.append(
                    f'<text x="{j * cell + cell // 2}" y="{i * cell + cell // 2}" '
                    f'text-anchor="middle" dominant-baseline="middle">{v:.2f}</text>'
                )
    lines.append("</svg>")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
