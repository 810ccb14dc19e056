"""Block-Sinkhorn engine.

Starting from X_0 = U, each sweep left-multiplies by a block-diagonal L_t
built from inverse polar factors of the block row sums, then right-multiplies
by a block-diagonal R_t built the same way from the block column sums, driving
every block line sum of X_t toward the identity.  Progress is monitored by
psi(M) = n^2 - |Btr(M)|^2, which is zero exactly on the unit-line-sum group.

The sweep keeps L_t, R_t and the accumulated D and Z as (r, m, m) stacks of
their diagonal blocks and applies them as batched matmuls on the (r, m, n)
and (r, n, m) views of X; n x n block-diagonal matrices are built only for
the returned D and Z and for sinkhorn_step's dense factors.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .matcore import (
    BlockPartition, as_matrix, as_partitioned, block_diag, block_grid, col_sums, line_sum_residual,
    off_block_norm, row_sums, unitarity_residual,
)
from .polar import PolarConfig, polar_unitary_batch

__all__ = [
    "IterationConfig",
    "DxzDecomposition",
    "VerificationReport",
    "block_trace",
    "psi",
    "sinkhorn_step",
    "decompose",
    "verify_decomposition",
]

_UNITARY_INPUT_TOL = 1e-8


@dataclass(frozen=True)
class IterationConfig:
    max_iter: int = 200
    psi_tol: float = 1e-6
    polar: PolarConfig = PolarConfig()

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not (math.isfinite(self.psi_tol) and self.psi_tol > 0):
            raise ValueError("psi_tol must be positive and finite")


@dataclass
class DxzDecomposition:
    """Result of a (possibly non-converged) run: U ~ D X Z.

    D and Z are block-diagonal unitaries, Z with leading block I; X carries
    the remaining mixing with all block line sums ~ I when converged.
    Reconstruction D X Z = U holds by construction either way.
    """

    D: np.ndarray
    X: np.ndarray
    Z: np.ndarray
    partition: BlockPartition
    psi_trace: list[tuple[int, float]] = field(default_factory=list)
    converged: bool = True
    iterations_used: int = 0


def block_trace(mat, p: BlockPartition) -> complex:
    """Sum of the traces of all r^2 blocks: entries whose row and column agree
    within their blocks."""
    return _block_trace(as_partitioned(mat, p), p)


def _block_trace(x: np.ndarray, p: BlockPartition) -> complex:
    return complex(np.einsum("jkaa->", block_grid(x, p)))


def psi(mat, p: BlockPartition) -> float:
    """Progress monitor n^2 - |Btr|^2; zero iff a unitary matrix has all block
    line sums equal to I (up to a global phase)."""
    return _psi(as_partitioned(mat, p), p)


def _psi(x: np.ndarray, p: BlockPartition) -> float:
    return float(p.n**2 - abs(_block_trace(x, p)) ** 2)


def _adjoints(stack: np.ndarray) -> np.ndarray:
    return stack.conj().transpose(0, 2, 1)


def _sweep(x: np.ndarray, p: BlockPartition, cfg: PolarConfig):
    """One bilateral sweep on block stacks; returns the diagonal blocks of L_t
    and R_t as (r, m, m) stacks and X_t = L_t x R_t."""
    m, r, n = p.m, p.r, p.n
    phis, _ = polar_unitary_batch(row_sums(x, p), cfg)
    lt = _adjoints(phis)
    y = (lt @ x.reshape(r, m, n)).reshape(n, n)

    upsilons, singular = polar_unitary_batch(col_sums(y, p), cfg)
    rt = _adjoints(upsilons) @ upsilons[0]
    rt[singular] = np.eye(m)
    x_next = y.reshape(n, r, m).transpose(1, 0, 2) @ rt
    return lt, rt, x_next.transpose(1, 0, 2).reshape(n, n)


def sinkhorn_step(x_prev, p: BlockPartition, cfg: PolarConfig = PolarConfig()):
    """One bilateral normalization sweep; returns (L_t, R_t, X_t) with
    X_t = L_t @ x_prev @ R_t, the factors as dense n x n matrices.

    (L_t)_jj is the inverse unitary polar factor of block row sum j of x_prev;
    (R_t)_kk is Upsilon_k^{-1} Upsilon_1 from the block column sums of
    L_t x_prev, the Upsilon_1 factor pinning (R_t)_11 = I.  A singular line
    sum contributes the identity instead.
    """
    lt, rt, x = _sweep(as_partitioned(x_prev, p), p, cfg)
    return block_diag(lt), block_diag(rt), x


def decompose(u, m: int, cfg: IterationConfig = IterationConfig()) -> DxzDecomposition:
    """Iterate the sweep of sinkhorn_step from X_0 = U until psi <= cfg.psi_tol
    or cfg.max_iter sweeps, accumulating D = (L_t ... L_1)^H and
    Z = (R_1 ... R_t)^H block by block.

    Non-convergence is reported, not raised: the decomposition is returned
    with converged=False and still reconstructs U exactly.
    """
    u = as_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise ValueError("decompose needs a square matrix")
    n = u.shape[0]
    p = BlockPartition(n, m)
    if unitarity_residual(u) > _UNITARY_INPUT_TOL:
        raise ValueError(f"input is not unitary within {_UNITARY_INPUT_TOL}")

    if m == n:
        # single-block case: D = U does everything
        eye = np.eye(n, dtype=complex)
        return DxzDecomposition(u.copy(), eye, eye.copy(), p, [(0, psi(eye, p))], True, 0)

    x = u.copy()
    lacc = np.tile(np.eye(m, dtype=complex), (p.r, 1, 1))
    racc = lacc.copy()
    # u is validated above and every later x is the sweep's own output, so
    # the loop skips psi()'s copy and finiteness check
    trace = [(0, _psi(x, p))]
    t = 0
    while trace[-1][1] > cfg.psi_tol and t < cfg.max_iter:
        t += 1
        lt, rt, x = _sweep(x, p, cfg.polar)
        lacc = lt @ lacc
        racc = racc @ rt
        trace.append((t, _psi(x, p)))

    return DxzDecomposition(
        D=block_diag(_adjoints(lacc)),
        X=x,
        Z=block_diag(_adjoints(racc)),
        partition=p,
        psi_trace=trace,
        converged=trace[-1][1] <= cfg.psi_tol,
        iterations_used=t,
    )


@dataclass
class VerificationReport:
    """Residuals of a claimed decomposition; passed = every field <= tol."""

    reconstruction: float
    d_unitarity: float
    x_unitarity: float
    z_unitarity: float
    d_off_diagonal: float
    z_off_diagonal: float
    z_leading_block: float
    max_line_sum: float
    psi_x: float
    tol: float
    passed: bool

    def as_dict(self) -> dict:
        return asdict(self)


def verify_decomposition(u, dec: DxzDecomposition, tol: float) -> VerificationReport:
    """Check every structural claim of a decomposition against U."""
    u = as_matrix(u)
    p = dec.partition
    d, x, z = as_matrix(dec.D), as_matrix(dec.X), as_matrix(dec.Z)
    for name, a in (("U", u), ("D", d), ("X", x), ("Z", z)):
        if a.shape != (p.n, p.n):
            raise ValueError(f"{name} has shape {a.shape}, expected ({p.n}, {p.n})")

    residuals = {
        "reconstruction": float(np.linalg.norm(d @ x @ z - u)),
        "d_unitarity": unitarity_residual(d),
        "x_unitarity": unitarity_residual(x),
        "z_unitarity": unitarity_residual(z),
        "d_off_diagonal": off_block_norm(d, p),
        "z_off_diagonal": off_block_norm(z, p),
        "z_leading_block": float(np.linalg.norm(z[: p.m, : p.m] - np.eye(p.m))),
        "max_line_sum": line_sum_residual(x, p),
        "psi_x": psi(x, p),
    }
    return VerificationReport(**residuals, tol=tol, passed=all(v <= tol for v in residuals.values()))
