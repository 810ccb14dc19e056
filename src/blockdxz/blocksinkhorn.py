"""Block-Sinkhorn engine.

Starting from X_0 = U, each sweep left-multiplies by a block-diagonal L_t
built from inverse polar factors of the block row sums, then right-multiplies
by a block-diagonal R_t built the same way from the block column sums, driving
every block line sum of X_t toward the identity.  Progress is monitored by
psi(M) = n^2 - |Btr(M)|^2, which is zero exactly on the unit-line-sum group.
With r = 2 blocks per side and m >= _PAIRED_POLAR_MIN_M, the two row sums
(and the two column sums) of the unitary X_t are a cosine-sine pair, and each
step takes both polar factors from one SVD (polar.polar_unitary_pair); a
singular or ill-conditioned pair gets the SVD of each block, as smaller m do.

The sweep keeps L_t, R_t and the accumulated D and Z as (r, m, m) stacks of
their diagonal blocks and applies them as batched matmuls on the (r, m, n)
and (r, n, m) views of X.  For m = 1 (the scalar-block case, where a sweep
only rescales rows and columns by phases) the sweep never forms X: with
X_t = diag(l) U diag(v), its line sums are two matrix-vector products on the
untouched U, and X is formed once, on return.  n x n block-diagonal
matrices are built only for the returned D and Z.  The verifier reads its
inputs in place and applies the diagonal blocks of D and Z the same way, so
X's unitarity is its only dense n x n product.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .matcore import (
    BlockPartition, _adjoints, _apply_left, _apply_right, as_matrix, as_partitioned, block_diag, col_sums,
    line_sum_residual, row_sums, split_block_diagonal, unitarity_residual,
)
from .polar import PolarConfig, polar_unitary_batch, polar_unitary_pair

__all__ = [
    "IterationConfig",
    "DxzDecomposition",
    "VerificationReport",
    "block_trace",
    "psi",
    "decompose",
    "verify_decomposition",
]

_UNITARY_INPUT_TOL = 1e-8
# block side from which an r = 2 sweep takes polar_unitary_pair, one SVD per
# line-sum step instead of two.  Measured per sweep with single-threaded
# OpenBLAS: 0.79x the SVD route's time from m = 24 on, 0.9-1.2x at m = 16-20,
# and 1.7x at m = 8 and 2.7x at m = 2, where its products and checks cost
# more than the SVD they save
_PAIRED_POLAR_MIN_M = 24


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
    # [j, k, a] = x[jm + a, km + a]; numpy's pairwise sum keeps psi's
    # cancellation within 2 eps n^2 of its exact value at n = 256, which the
    # running sum of an einsum over the (r, r, m, m) grid misses
    return complex(np.diagonal(x.reshape(p.r, p.m, p.r, p.m), axis1=1, axis2=3).sum())


def psi(mat, p: BlockPartition) -> float:
    """Progress monitor n^2 - |Btr|^2; zero iff a unitary matrix has all block
    line sums equal to I (up to a global phase)."""
    return _psi(as_partitioned(mat, p), p)


def _psi(x: np.ndarray, p: BlockPartition) -> float:
    return float(p.n**2 - abs(_block_trace(x, p)) ** 2)


def _sweep(x: np.ndarray, p: BlockPartition, cfg: PolarConfig):
    """One bilateral sweep on block stacks; returns the diagonal blocks of L_t
    and R_t as (r, m, m) stacks and X_t = L_t x R_t.  (L_t)_jj inverts the
    polar factor of block row sum j of x; (R_t)_kk is Upsilon_k^{-1} Upsilon_1
    from the block column sums of L_t x, so (R_t)_11 = I.  A singular line sum
    contributes the identity."""
    phis, _ = _line_sum_polars(row_sums(x, p), p, cfg)
    lt = _adjoints(phis)
    y = _apply_left(lt, x, p)

    upsilons, singular = _line_sum_polars(col_sums(y, p), p, cfg, adjoint=True)
    rt = _adjoints(upsilons) @ upsilons[0]
    if singular.any():
        rt[singular] = np.eye(p.m)
    return lt, rt, _apply_right(y, rt, p)


def _line_sum_polars(sums: np.ndarray, p: BlockPartition, cfg: PolarConfig, adjoint: bool = False):
    """polar_unitary_batch of a stack of block line sums.  With r = 2 from
    m = _PAIRED_POLAR_MIN_M on, polar_unitary_pair takes both factors from
    one SVD where it can: the row sums S1, S2 of a unitary as they are
    (S1^H S1 + S2^H S2 = 2I), and the column sums C1, C2 (adjoint=True)
    through their adjoints (C1 C1^H + C2 C2^H = 2I)."""
    if p.r == 2 and p.m >= _PAIRED_POLAR_MIN_M:
        factors = polar_unitary_pair(_adjoints(sums) if adjoint else sums, cfg)
        if factors is not None:
            return (_adjoints(factors) if adjoint else factors), np.zeros(2, dtype=bool)
    return polar_unitary_batch(sums, cfg)


def decompose(u, m: int, cfg: IterationConfig = IterationConfig()) -> DxzDecomposition:
    """Iterate the bilateral sweep from X_0 = U until psi <= cfg.psi_tol
    or cfg.max_iter sweeps, accumulating D = (L_t ... L_1)^H and
    Z = (R_1 ... R_t)^H block by block.

    Non-convergence is reported, not raised: the decomposition is returned
    with converged=False and still reconstructs U exactly.  U is only read;
    no factor shares memory with it.  psi is blind to a global phase, which
    a sweep's row step removes; a run that stops before its first sweep puts
    the phase Btr/|Btr| of U into D instead (1 when Btr = 0), so that X's line
    sums are I.
    """
    u = as_matrix(u, copy=False)
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
    lacc, x, racc, trace = (_scalar_run if m == 1 else _block_run)(u, p, cfg)
    if trace[-1][0] == 0:
        btr = _block_trace(x, p)
        phase = (btr / abs(btr) if btr else 1.0).conjugate()
        lacc, x = lacc * phase, x * phase
    return DxzDecomposition(
        D=block_diag(_adjoints(lacc)),
        X=x,
        Z=block_diag(_adjoints(racc)),
        partition=p,
        psi_trace=trace,
        converged=trace[-1][1] <= cfg.psi_tol,
        iterations_used=trace[-1][0],
    )


def _block_run(u: np.ndarray, p: BlockPartition, cfg: IterationConfig):
    """The sweeps on block stacks; returns the (r, m, m) stacks of
    L_t ... L_1 and R_1 ... R_t, X_t (U itself at t = 0) and the psi trace."""
    x = u  # the sweeps never write to x
    lacc = np.tile(np.eye(p.m, dtype=complex), (p.r, 1, 1))
    racc = lacc.copy()
    # u is validated and every later x is the sweep's own output, so the loop
    # skips psi()'s copy and finiteness check
    trace = [(0, _psi(x, p))]
    t = 0
    while trace[-1][1] > cfg.psi_tol and t < cfg.max_iter:
        t += 1
        lt, rt, x = _sweep(x, p, cfg.polar)
        lacc = lt @ lacc
        racc = racc @ rt
        trace.append((t, _psi(x, p)))
    return lacc, x, racc, trace


def _scalar_run(u: np.ndarray, p: BlockPartition, cfg: IterationConfig):
    """The sweeps for m = 1 against the untouched U.

    Here X_t = diag(l) U diag(v) with l and v the accumulated row and column
    phases, so its row sums are l * (U v) and the column sums after the row
    step l' are (l'^T U) * v: two matrix-vector products per sweep, and X is
    formed once, on return.  Btr is the sum of all entries, so psi comes from
    the row sums that the next sweep starts from.  Returns what _block_run
    does.
    """
    n = p.n
    lacc = racc = np.ones(n, dtype=complex)
    rows = u @ racc
    trace = [(0, float(n * n - abs(rows.sum()) ** 2))]
    t = 0
    while trace[-1][1] > cfg.psi_tol and t < cfg.max_iter:
        t += 1
        phis, _ = polar_unitary_batch(rows.reshape(n, 1, 1), cfg.polar)
        lacc = lacc * phis.ravel().conj()
        upsilons, singular = polar_unitary_batch(((lacc @ u) * racc).reshape(n, 1, 1), cfg.polar)
        rt = upsilons.ravel().conj() * upsilons[0, 0, 0]
        rt[singular] = 1.0
        racc = racc * rt
        rows = lacc * (u @ racc)
        trace.append((t, float(n * n - abs(rows.sum()) ** 2)))
    x = lacc[:, None] * u
    x *= racc
    return lacc.reshape(n, 1, 1), x, racc.reshape(n, 1, 1), trace


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
    """Check every structural claim of a decomposition against U.

    U, D, X and Z are read in place, not copied.  When D and Z have no mass
    off their diagonal blocks (every decomposition this package produces),
    the reconstruction and their unitarity are computed on the (r, m, m)
    stacks of those blocks, so X's unitarity is the only dense n x n product.
    Otherwise the dense formulas run, and the off-block mass counts in every
    residual.
    """
    p = dec.partition
    u, d, x, z = (as_matrix(a, copy=False) for a in (u, dec.D, dec.X, dec.Z))
    for name, a in (("U", u), ("D", d), ("X", x), ("Z", z)):
        if a.shape != (p.n, p.n):
            raise ValueError(f"{name} has shape {a.shape}, expected ({p.n}, {p.n})")

    (d_part, d_off), (z_part, z_off) = split_block_diagonal(d, p), split_block_diagonal(z, p)
    if d_off == 0.0 and z_off == 0.0:
        dxz = _apply_right(_apply_left(d_part, x, p), z_part, p)
    else:
        d_part, z_part = d, z
        dxz = d @ x @ z
    dxz -= u
    residuals = {
        "reconstruction": float(np.linalg.norm(dxz)),
        "d_unitarity": unitarity_residual(d_part),
        "x_unitarity": unitarity_residual(x),
        "z_unitarity": unitarity_residual(z_part),
        "d_off_diagonal": d_off,
        "z_off_diagonal": z_off,
        "z_leading_block": float(np.linalg.norm(z[: p.m, : p.m] - np.eye(p.m))),
        "max_line_sum": line_sum_residual(x, p),
        "psi_x": _psi(x, p),
    }
    return VerificationReport(**residuals, tol=tol, passed=all(v <= tol for v in residuals.values()))
