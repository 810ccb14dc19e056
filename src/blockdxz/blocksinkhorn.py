"""Block-Sinkhorn engine.

Starting from X_0 = U, each sweep left-multiplies by a block-diagonal L_t
built from inverse polar factors of the block row sums, then right-multiplies
by a block-diagonal R_t built the same way from the block column sums, driving
every block line sum of X_t toward the identity.  Progress is monitored by
psi(M) = n^2 - |Btr(M)|^2, zero exactly on the unit-line-sum group up to a
global phase and blind below ~eps n^2, so decompose also checks the line sums.

The sweep never forms X_t.  Since polar(A B) = polar(A) B for unitary B, the
products of the L_t and R_t are X_t = diag(Q)^H U diag(V) with (r, m, m)
stacks Q and V, V_1 = I, and a sweep is W = U V, Q = polar(W), G = U^H Q,
V = polar(G) polar(G_1)^H: two n x n by n x m products on the untouched U
and two batched polar factors, for every m < n (at m = 1, Sinkhorn normal
form, they are matrix-vector products and phases).  Nothing is accumulated,
so rounding does not build up over a long run.  X is formed once, on return,
and D = diag(Q), Z = diag(V)^H are the only n x n block-diagonal matrices
built.  The verifier reads its inputs in place and applies the diagonal
blocks of D and Z as batched matmuls, so X's unitarity is its only dense
n x n product.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from .matcore import (
    BlockPartition, _adjoints, _apply_left, _apply_right, _integer_at_least, as_matrix, as_partitioned, block_diag,
    block_grid, line_sum_residual, require_unitary, split_block_diagonal, unitarity_residual,
)
from .polar import PolarConfig, polar_unitary_batch

__all__ = [
    "IterationConfig",
    "DxzDecomposition",
    "VerificationReport",
    "block_trace",
    "psi",
    "decompose",
    "line_sum_tolerance",
    "verify_decomposition",
]

@dataclass(frozen=True)
class IterationConfig:
    max_iter: int = 200
    psi_tol: float = 1e-6
    polar: PolarConfig = PolarConfig()

    def __post_init__(self):
        if not _integer_at_least(self.max_iter, 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        tol = self.psi_tol
        if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol > 0):
            raise ValueError(f"psi_tol must be a positive finite real number, got {self.psi_tol!r}")


def line_sum_tolerance(psi_tol: float, n: int) -> float:
    """How close to I a converged X's line sums are, for decompose's stop test and
    the CLI's verification: they scale like sqrt(psi/n), floored above rounding."""
    return max(1e-8, 10.0 * psi_tol, 10.0 * math.sqrt(psi_tol / n))


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
    # [j, k, a] = x[jm + a, km + a]; numpy's pairwise sum keeps psi's
    # cancellation within 2 eps n^2 of its exact value at n = 256, which the
    # running sum of an einsum over the grid misses
    return complex(np.diagonal(block_grid(as_partitioned(mat, p), p), axis1=2, axis2=3).sum())


def psi(mat, p: BlockPartition) -> float:
    """Progress monitor n^2 - |Btr|^2; zero iff a unitary matrix has all block
    line sums equal to I (up to a global phase).  mat is read in place, not
    copied."""
    try:
        return float(p.n**2 - abs(block_trace(mat, p)) ** 2)
    except OverflowError:  # a finite mat whose |Btr|^2 passes the float range
        return -math.inf


def _sweep(u: np.ndarray, w: np.ndarray, q: np.ndarray, v: np.ndarray, p: BlockPartition):
    """One bilateral sweep on X = diag(Q)^H U diag(V), given w = U V, with
    Q, V and w as (r, m, m) stacks; returns the next Q and V.
    Block row sum j of X is Q_j^H W_j, so the row step sets Q_j = polar(W_j);
    block column sum k after it is G_k^H V_k with G = U^H Q, so the column
    step sets V_k = polar(G_k) polar(G_1)^H, which keeps V_1 = I.  A singular
    line sum keeps its previous Q_j or V_k, as the identity step of the
    dense sweep does."""
    q_next, singular = polar_unitary_batch(w)
    if np.count_nonzero(singular):
        q_next[singular] = q[singular]
    # G = conj(U^T conj(Q)): matmul reads U transposed in place, so a sweep
    # streams U alone.  With a conjugated copy of U beside it, the two no
    # longer fit a 2 MB L2 cache at n = 256: 100 -> 130 us per m = 1 sweep
    g = (u.T @ q_next.reshape(p.n, p.m).conj()).conj()
    upsilons, singular = polar_unitary_batch(g.reshape(q.shape))
    v_next = upsilons @ upsilons[0].conj().T
    if np.count_nonzero(singular):
        v_next[singular] = v[singular]
    return q_next, v_next


def _certified(q: np.ndarray, w: np.ndarray, psi_t: float, psi_tol: float, tol: float) -> bool:
    """psi_t <= psi_tol and the stacked row sums Q_j^H W_j of X_t within tol of I: O(r m^3)."""
    return psi_t <= psi_tol and float(np.linalg.norm(_adjoints(q) @ w - np.eye(q.shape[-1]))) <= tol


def decompose(u, m: int, cfg: IterationConfig = IterationConfig()) -> DxzDecomposition:
    """Iterate the bilateral sweep from X_0 = U until X_t is certified or
    cfg.max_iter sweeps.  The state is X_t = diag(Q)^H U diag(V) with V_1 = I,
    so D = diag(Q), Z = diag(V)^H, and X is formed once, on return.

    Certified (converged) means psi <= cfg.psi_tol and the stacked row sums
    Q_j^H W_j of X_t within line_sum_tolerance(psi_tol, n) of I, which for
    unitary X bounds the column sums too: ||E^H X - E^H|| = ||E - X E||.  Q
    starts as the phase Btr/|Btr| of U (1 when |Btr| is zero or subnormal),
    which psi cannot see.  Non-convergence is reported, not raised: the
    decomposition is returned with converged=False and still reconstructs U
    exactly.  U is only read; no factor shares memory with it.  U must pass
    require_unitary: the polar kernel relies on it and checks nothing.
    """
    u = as_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise ValueError("decompose needs a square matrix")
    n = u.shape[0]
    p = BlockPartition(n, m)
    require_unitary(u, "input")

    if m == n:
        # single-block case: D = U does everything
        eye = np.eye(n, dtype=complex)
        return DxzDecomposition(u.copy(), eye, eye.copy(), p, [(0, psi(eye, p))], True, 0)
    v = np.tile(np.eye(m, dtype=complex), (p.r, 1, 1))
    w = (u @ v.reshape(n, m)).reshape(v.shape)
    # Btr of X_t is the sum of the traces of its row sums Q_j^H W_j, read off
    # the W = U V that the next sweep starts from
    btr = np.vdot(v, w)
    trace = [(0, float(n * n - abs(btr) ** 2))]
    # numpy's complex division multiplies by 1/|Btr|, which overflows if |Btr| is subnormal
    q = v * (btr / abs(btr) if abs(btr) >= np.finfo(float).tiny else 1.0)
    tol = line_sum_tolerance(cfg.psi_tol, n)
    t = 0
    while not (converged := _certified(q, w, trace[-1][1], cfg.psi_tol, tol)) and t < cfg.max_iter:
        t += 1
        q, v = _sweep(u, w, q, v, p)
        w = (u @ v.reshape(n, m)).reshape(v.shape)
        trace.append((t, float(n * n - abs(np.vdot(q, w)) ** 2)))
    return DxzDecomposition(
        D=block_diag(q),
        X=_apply_right(_apply_left(_adjoints(q), u, p), v, p),
        Z=block_diag(_adjoints(v)),
        partition=p,
        psi_trace=trace,
        converged=converged,
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
    """Check every structural claim of a decomposition against U.

    U, D, X and Z are read in place, not copied.  When D and Z have no mass
    off their diagonal blocks (every decomposition this package produces),
    the reconstruction and their unitarity are computed on the (r, m, m)
    stacks of those blocks, so X's unitarity is the only dense n x n product.
    Otherwise the dense formulas run, and the off-block mass counts in every
    residual.  A residual that overflows is inf or NaN and fails.
    """
    p = dec.partition
    u, d, x, z = (as_matrix(a) for a in (u, dec.D, dec.X, dec.Z))
    for name, a in (("U", u), ("D", d), ("X", x), ("Z", z)):
        if a.shape != (p.n, p.n):
            raise ValueError(f"{name} has shape {a.shape}, expected ({p.n}, {p.n})")

    # finite factors whose products overflow get inf or NaN residuals, which fail, without a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
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
            "psi_x": psi(x, p),
        }
    return VerificationReport(**residuals, tol=tol, passed=all(v <= tol for v in residuals.values()))
