"""Dense complex matrix substrate: the block layout, special matrices, random
unitaries and CMAT-JSON file I/O.

All matrices are plain numpy arrays of dtype complex128.  Block indices in
the public interface are 1-based (j, k = 1 .. r); a block covers consecutive
rows and columns of the parent matrix.  This module alone knows the block
layout; its block helpers take validated complex arrays and coerce nothing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "BlockPartition",
    "RandomSpec",
    "as_matrix",
    "as_partitioned",
    "is_unitary",
    "block",
    "block_row_sum",
    "block_col_sum",
    "block_grid",
    "row_sums",
    "col_sums",
    "line_sum_residual",
    "off_block_norm",
    "diag_blocks",
    "block_diag",
    "unitarity_residual",
    "dft_matrix",
    "haar_random_unitary",
    "save_matrix",
    "load_matrix",
]


@dataclass(frozen=True)
class BlockPartition:
    """Block grid of an n x n matrix: r = n/m blocks per side, each m x m."""

    n: int
    m: int
    r: int = field(init=False)
    q: int = field(init=False)

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError(f"need n >= 1 and m >= 1, got n={self.n}, m={self.m}")
        if self.n % self.m != 0:
            raise ValueError(f"block size m={self.m} does not divide n={self.n}")
        object.__setattr__(self, "r", self.n // self.m)
        object.__setattr__(self, "q", self.n - self.m)


@dataclass(frozen=True)
class RandomSpec:
    """Seeded request for one random unitary; equal seeds give equal matrices."""

    n: int
    seed: int


def as_matrix(values) -> np.ndarray:
    """Coerce input to a 2-D complex128 array, rejecting non-finite entries."""
    a = np.array(values, dtype=complex)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def as_partitioned(a, p: BlockPartition) -> np.ndarray:
    """as_matrix, also requiring the n x n shape of the partition."""
    a = as_matrix(a)
    if a.shape != (p.n, p.n):
        raise ValueError(f"matrix shape {a.shape} does not match partition n={p.n}")
    return a


# block side from which unitarity_residual forms a^H a from real products
_SPLIT_GRAM_MIN_N = 128


def unitarity_residual(a: np.ndarray) -> float:
    """||a^H a - I||_F of a square matrix, or of all blocks of an (r, m, m)
    stack together.

    Blocks below 128 x 128 take the one complex product a^H a, which is as
    fast there or faster.  From 128 on, with a = P + iQ and S = [P; Q]
    stacked by rows, Re(a^H a) = S^T S is a symmetric product that BLAS
    forms at half the cost of a general one, and Im(a^H a) = K - K^T with
    K = P^T Q: 2 n^3 real multiply-adds per block against 4 n^3.  That
    route may differ from the complex product by rounding.
    """
    n = a.shape[-1]
    if n < _SPLIT_GRAM_MIN_N:
        return float(np.linalg.norm(a.conj().swapaxes(-1, -2) @ a - np.eye(n)))
    rows = a.shape[-2]
    s = np.concatenate((a.real, a.imag), axis=-2)
    re = s.swapaxes(-1, -2) @ s  # one buffer times its own transpose: syrk
    re.reshape(-1, n * n)[:, :: n + 1] -= 1.0
    k = s[..., :rows, :].swapaxes(-1, -2) @ s[..., rows:, :]
    return math.hypot(np.linalg.norm(re), np.linalg.norm(k - k.swapaxes(-1, -2)))


def is_unitary(a, tol: float) -> bool:
    """True iff ||a^H a - I||_F <= tol (a must be square)."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("is_unitary needs a square matrix")
    return unitarity_residual(a) <= tol


def block_grid(a: np.ndarray, p: BlockPartition) -> np.ndarray:
    """The (r, r, m, m) view of an n x n matrix: [j, k] is block (j, k), 0-based."""
    return a.reshape(p.r, p.m, p.r, p.m).transpose(0, 2, 1, 3)


def row_sums(a: np.ndarray, p: BlockPartition) -> np.ndarray:
    """The r block row sums as an (r, m, m) stack."""
    return block_grid(a, p).sum(axis=1)


def col_sums(a: np.ndarray, p: BlockPartition) -> np.ndarray:
    """The r block column sums as an (r, m, m) stack."""
    return block_grid(a, p).sum(axis=0)


def line_sum_residual(a: np.ndarray, p: BlockPartition) -> float:
    """Largest ||S - I||_F over all 2r block line sums S."""
    sums = np.concatenate((row_sums(a, p), col_sums(a, p)))
    return float(np.linalg.norm(sums - np.eye(p.m), axis=(1, 2)).max())


def off_block_norm(a: np.ndarray, p: BlockPartition) -> float:
    """Frobenius norm of everything outside the r diagonal blocks."""
    weights = (np.abs(block_grid(a, p)) ** 2).sum(axis=(2, 3))
    return float(np.sqrt(weights[~np.eye(p.r, dtype=bool)].sum()))


def diag_blocks(a: np.ndarray, p: BlockPartition) -> np.ndarray:
    """The r diagonal blocks as an (r, m, m) stack (a copy)."""
    j = np.arange(p.r)
    return block_grid(a, p)[j, j]


def block_diag(stack: np.ndarray) -> np.ndarray:
    """The n x n block-diagonal matrix with an (r, m, m) stack on its diagonal."""
    r, m, _ = stack.shape
    out = np.zeros((r * m, r * m), dtype=complex)
    j = np.arange(r)
    block_grid(out, BlockPartition(r * m, m))[j, j] = stack
    return out


def block(a, p: BlockPartition, j: int, k: int) -> np.ndarray:
    """The m x m block at block row j, block column k (1-based)."""
    a = as_partitioned(a, p)
    if not (1 <= j <= p.r and 1 <= k <= p.r):
        raise ValueError(f"block index ({j},{k}) out of range 1..{p.r}")
    return block_grid(a, p)[j - 1, k - 1].copy()


def block_row_sum(a, p: BlockPartition, j: int) -> np.ndarray:
    """Sum of the r blocks in block row j (1-based)."""
    a = as_partitioned(a, p)
    if not 1 <= j <= p.r:
        raise ValueError(f"block row {j} out of range 1..{p.r}")
    return row_sums(a, p)[j - 1]


def block_col_sum(a, p: BlockPartition, k: int) -> np.ndarray:
    """Sum of the r blocks in block column k (1-based)."""
    a = as_partitioned(a, p)
    if not 1 <= k <= p.r:
        raise ValueError(f"block column {k} out of range 1..{p.r}")
    return col_sums(a, p)[k - 1]


def dft_matrix(r: int) -> np.ndarray:
    """Unitary r x r DFT: entry (j,k) = exp(-2*pi*i*j*k/r) / sqrt(r), 0-based."""
    if r < 1:
        raise ValueError("dft_matrix needs r >= 1")
    idx = np.arange(r)
    # reduce jk mod r first: a power omega**(jk) with exponents up to (r-1)^2
    # loses phase accuracy as r grows
    return np.exp(-2j * np.pi * (np.outer(idx, idx) % r) / r) / np.sqrt(r)


def haar_random_unitary(spec: RandomSpec) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian matrix with the
    R-diagonal phase correction.  Deterministic per seed."""
    if spec.n < 1:
        raise ValueError("haar_random_unitary needs n >= 1")
    rng = np.random.default_rng(spec.seed)
    z = (rng.standard_normal((spec.n, spec.n)) + 1j * rng.standard_normal((spec.n, spec.n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


# CMAT-JSON: {"rows": R, "cols": C, "data": [[[re, im], ...], ...]} row-major.

def save_matrix(path, a) -> None:
    """Write a matrix as CMAT-JSON."""
    a = as_matrix(a)
    payload = {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "data": [[[float(v.real), float(v.imag)] for v in row] for row in a],
    }
    Path(path).write_text(json.dumps(payload))


def load_matrix(path) -> np.ndarray:
    """Read a CMAT-JSON matrix, rejecting shape mismatches and entries that are
    not pairs of finite numbers."""
    text = Path(path).read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or not {"rows", "cols", "data"} <= payload.keys():
        raise ValueError(f"{path}: missing CMAT-JSON keys rows/cols/data")
    rows, cols, data = payload["rows"], payload["cols"], payload["data"]
    # JSON true/false decode to bool, a subclass of int
    if not (type(rows) is int and type(cols) is int and rows >= 1 and cols >= 1):
        raise ValueError(f"{path}: invalid dimensions rows={rows}, cols={cols}")
    if not (
        isinstance(data, list)
        and len(data) == rows
        and all(isinstance(row, list) and len(row) == cols for row in data)
    ):
        raise ValueError(f"{path}: data does not match declared shape {rows}x{cols}")
    try:
        a = np.array([[complex(re, im) for re, im in row] for row in data])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed entries: {exc}") from exc
    # complex() takes true/false as 1/0; text without either literal holds no
    # bool, so large files of numbers skip the per-entry scan
    if ("true" in text or "false" in text) and any(
        type(v) is bool for row in data for entry in row for v in entry
    ):
        raise ValueError(f"{path}: malformed entries: true/false is not a number")
    return as_matrix(a)
