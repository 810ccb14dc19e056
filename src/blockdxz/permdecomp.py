"""Exact decomposition of (complex) permutation matrices.

A permutation matrix P on n = r*m points induces an m-regular bipartite
multigraph between block rows and block columns (one edge per 1 of P).  A
proper m-edge-coloring of that multigraph, obtained by extracting perfect
matchings, routes every 1 to the intra-block diagonal: color i sends its 1 to
intra position (i, i), which is exactly the permutation subgroup of the
unit-line-sum group.  Intra-block row and column permutations then give
P = D X Z with integer matrices throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .blocksinkhorn import DxzDecomposition, psi
from .matcore import BlockPartition, _integer_at_least, as_matrix

__all__ = [
    "Permutation",
    "edge_color",
    "perm_dxz",
    "complex_perm_dxz",
]


@dataclass(frozen=True)
class Permutation:
    """One-line notation, 1-based: row j of the matrix has its 1 in column
    image[j-1]."""

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        entries_ok = all(_integer_at_least(v, 1) for v in self.image)
        if n < 1 or not entries_ok or sorted(self.image) != list(range(1, n + 1)):
            raise ValueError(f"{self.image} is not a permutation of 1..{n}")

    @property
    def n(self) -> int:
        return len(self.image)

    @classmethod
    def from_string(cls, text: str) -> "Permutation":
        try:
            values = tuple(int(tok) for tok in text.split())
        except ValueError as exc:
            raise ValueError(f"cannot parse permutation from {text!r}") from exc
        return cls(values)

    def to_matrix(self) -> np.ndarray:
        return np.eye(self.n, dtype=complex)[np.array(self.image) - 1]


def _perfect_matching(adj: list[list[tuple[int, int]]], r: int) -> dict[int, tuple[int, int]]:
    """Kuhn augmenting paths on a bipartite multigraph given as
    adj[block_row] = [(block_col, row_id), ...]; returns col -> (row, row_id).

    A perfect matching always exists here: the uncolored edges stay regular
    after each extracted color."""
    match: dict[int, tuple[int, int]] = {}
    for root in range(r):
        # depth-first search on an explicit stack, so that Python's recursion limit does not bound
        # the path's length; a frame is [block_row, its untried edges, the edge (v, eid) taken]
        seen: set[int] = set()
        stack = [[root, iter(adj[root]), None]]
        while stack:
            frame = stack[-1]
            frame[2] = next(((v, eid) for v, eid in frame[1] if v not in seen), None)
            if frame[2] is None:
                stack.pop()
                continue
            v = frame[2][0]
            seen.add(v)
            if v not in match:
                match.update((v, (u, eid)) for u, _, (v, eid) in stack)
                break
            stack.append([match[v][0], iter(adj[match[v][0]]), None])
        else:
            raise RuntimeError("no perfect matching in a regular bipartite multigraph")
    return match


def edge_color(perm: Permutation, m: int) -> dict[int, int]:
    """Proper m-edge-coloring of the block multigraph of P as {row: color}:
    the 1 in row j (1-based) gets color 0..m-1, relabeled so that in block
    column 1 every edge's color equals its intra-column index."""
    p = BlockPartition(perm.n, m)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(p.r)]
    for j, k in enumerate(perm.image):
        adj[j // m].append(((k - 1) // m, j))

    color: dict[int, int] = {}
    for c in range(m):
        match = _perfect_matching(adj, p.r)
        chosen = {eid for _, eid in match.values()}
        for u in range(p.r):
            adj[u] = [edge for edge in adj[u] if edge[1] not in chosen]
        for eid in chosen:
            color[eid] = c

    # block column 1 holds each color once and each intra index once, so the
    # color -> intra-index map there is a permutation; applying it makes the
    # Z factor's leading block the identity
    relabel = {color[j]: k - 1 for j, k in enumerate(perm.image) if k <= m}
    return {j + 1: relabel[color[j]] for j in range(perm.n)}


def perm_dxz(perm: Permutation, m: int) -> DxzDecomposition:
    """Exact P = D X Z over the integers: D block-diagonal, X with every 1 at
    intra position (i, i), Z block-diagonal with leading block I."""
    p = BlockPartition(perm.n, m)
    coloring = edge_color(perm, m)
    cols = np.array(perm.image) - 1
    color = np.array([coloring[j + 1] for j in range(p.n)])
    mid = np.arange(p.n) // m * m + color
    out = cols // m * m + color
    # row j goes to mid[j] in D, to out[j] in X and to cols[j] in Z: D X Z = P iff both maps are bijections
    if not ((np.bincount(mid, minlength=p.n) == 1).all() and (np.bincount(out, minlength=p.n) == 1).all()):
        raise RuntimeError("edge coloring does not give D X Z = P")
    d = np.zeros((p.n, p.n), dtype=complex)
    x = np.zeros((p.n, p.n), dtype=complex)
    z = np.zeros((p.n, p.n), dtype=complex)
    d[np.arange(p.n), mid] = 1.0
    x[mid, out] = 1.0
    z[out, cols] = 1.0
    return DxzDecomposition(d, x, z, p, [(0, psi(x, p))], True, 0)


def complex_perm_dxz(u, m: int) -> DxzDecomposition:
    """Split a complex permutation matrix as phases times a permutation,
    decompose the permutation exactly, and absorb the phases into D."""
    u = as_matrix(u)
    n = u.shape[0]
    if u.shape[0] != u.shape[1]:
        raise ValueError("complex_perm_dxz needs a square matrix")
    support = np.abs(u) > 1e-10
    if not ((support.sum(axis=0) == 1).all() and (support.sum(axis=1) == 1).all()):
        raise ValueError("input must have exactly one nonzero per row and column")
    cols = support.argmax(axis=1)
    phases = u[np.arange(n), cols]
    if float(np.max(np.abs(np.abs(phases) - 1.0))) > 1e-10:
        raise ValueError("nonzero entries must have unit modulus")

    perm = Permutation(tuple(int(c) + 1 for c in cols))
    dec = perm_dxz(perm, m)
    return replace(dec, D=phases[:, None] * dec.D)
