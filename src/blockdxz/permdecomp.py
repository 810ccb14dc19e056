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
from .matcore import BlockPartition, as_matrix

__all__ = [
    "Permutation",
    "block_degree_matrix",
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
        if n < 1 or sorted(self.image) != list(range(1, n + 1)):
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
        mat = np.zeros((self.n, self.n), dtype=complex)
        for j, k in enumerate(self.image):
            mat[j, k - 1] = 1.0
        return mat


def block_degree_matrix(perm: Permutation, m: int) -> np.ndarray:
    """r x r count of ones of P per block; every line sums to m."""
    p = BlockPartition(perm.n, m)
    deg = np.zeros((p.r, p.r), dtype=int)
    for j, k in enumerate(perm.image):
        deg[j // m, (k - 1) // m] += 1
    return deg


def _perfect_matching(adj: list[list[tuple[int, int]]], r: int) -> dict[int, tuple[int, int]]:
    """Kuhn augmenting paths on a bipartite multigraph given as
    adj[block_row] = [(block_col, row_id), ...]; returns col -> (row, row_id).

    A perfect matching always exists here: the uncolored edges stay regular
    after each extracted color."""
    match: dict[int, tuple[int, int]] = {}

    def augment(u: int, seen: set[int]) -> bool:
        for v, eid in adj[u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in match or augment(match[v][0], seen):
                match[v] = (u, eid)
                return True
        return False

    for u in range(r):
        if not augment(u, set()):
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
    relabel = {}
    for j, k in enumerate(perm.image):
        if (k - 1) // m == 0:
            relabel[color[j]] = (k - 1) % m
    return {j + 1: relabel[color[j]] for j in range(perm.n)}


def perm_dxz(perm: Permutation, m: int) -> DxzDecomposition:
    """Exact P = D X Z over the integers: D block-diagonal, X with every 1 at
    intra position (i, i), Z block-diagonal with leading block I."""
    p = BlockPartition(perm.n, m)
    coloring = edge_color(perm, m)
    d = np.zeros((p.n, p.n), dtype=complex)
    x = np.zeros((p.n, p.n), dtype=complex)
    z = np.zeros((p.n, p.n), dtype=complex)
    for j, k in enumerate(perm.image):
        c = coloring[j + 1]
        brow, irow = j // m, j % m
        bcol, icol = (k - 1) // m, (k - 1) % m
        d[brow * m + irow, brow * m + c] = 1.0
        x[brow * m + c, bcol * m + c] = 1.0
        z[bcol * m + c, bcol * m + icol] = 1.0
    assert np.array_equal(d @ x @ z, perm.to_matrix())
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
