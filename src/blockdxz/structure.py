"""Structural layer around the iteration engine.

Covers the three matrix groups (block-diagonal DU, its unit-leading-block
subgroup ZU, and the unit-line-sum group XU), the Fourier conjugation that
compresses an XU member to its (n-m) x (n-m) core, block-circulant tests and
the circulant variant of the decomposition, biunitary-vector extraction and
reconstruction, and the closed-form 2 x 2 decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocksinkhorn import DxzDecomposition, IterationConfig, decompose, psi
from .matcore import (
    BlockPartition, as_matrix, as_partitioned, block_diag, block_grid, diag_blocks, dft_matrix,
    line_sum_residual, off_block_norm, unitarity_residual,
)

__all__ = [
    "InconsistencyError",
    "BiunitaryVector",
    "U2Parameters",
    "ConjugateDecomposition",
    "fourier_transform",
    "membership",
    "xu_to_core",
    "core_to_xu",
    "identity_plus_core",
    "is_block_circulant",
    "conjugate_decompose",
    "biunitary_from_dxz",
    "normalize_biunitary",
    "xu_from_biunitary",
    "u2_parameters",
    "u2_matrix",
    "u2_factors",
    "u2_closed_form",
]

_BLOCK_UNITARY_TOL = 1e-8


class InconsistencyError(RuntimeError):
    """An internal structure check failed on input that passed its preconditions."""


@dataclass(frozen=True)
class BiunitaryVector:
    """Stack of r unitary m x m blocks, an n x m matrix V with V^H V = r I.

    blocks is one (r, m, m) complex array; any sequence of r equal-size
    square blocks is accepted and copied into it.
    """

    blocks: np.ndarray

    def __post_init__(self):
        blocks = np.array(self.blocks, dtype=complex)  # blocks of mixed sizes raise ValueError here
        if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2] or blocks.size == 0:
            raise ValueError(f"need a non-empty (r, m, m) stack of square blocks, got shape {blocks.shape}")
        if not all(unitarity_residual(b) <= _BLOCK_UNITARY_TOL for b in blocks):  # NaN fails too
            raise ValueError(f"block is not unitary within {_BLOCK_UNITARY_TOL}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def m(self) -> int:
        return self.blocks.shape[1]

    @property
    def r(self) -> int:
        return self.blocks.shape[0]

    @property
    def stacked(self) -> np.ndarray:
        """The blocks as one (r*m) x m matrix."""
        return self.blocks.reshape(self.r * self.m, self.m)

    @classmethod
    def from_stacked(cls, mat, m: int) -> "BiunitaryVector":
        mat = as_matrix(mat)
        if mat.shape[1] != m or mat.shape[0] % m != 0:
            raise ValueError(f"cannot split shape {mat.shape} into m={m} blocks")
        return cls(mat.reshape(-1, m, m))


@dataclass(frozen=True)
class U2Parameters:
    """Angles (radians) of the standard 2 x 2 unitary form: entry (1,1) is
    cos(phi) e^{i(theta+psi)}, entry (1,2) is sin(phi) e^{i(theta+chi)}."""

    theta: float
    phi: float
    psi: float
    chi: float


@dataclass
class ConjugateDecomposition:
    """U = C (I + A) Y with C, Y block-circulant and A the (n-m) x (n-m) core."""

    C: np.ndarray
    A: np.ndarray
    Y: np.ndarray
    partition: BlockPartition
    converged: bool = True
    iterations_used: int = 0


def fourier_transform(p: BlockPartition) -> np.ndarray:
    """T = F_r (x) I_m, the change of basis that block-diagonalizes XU members."""
    return np.kron(dft_matrix(p.r), np.eye(p.m, dtype=complex))


def _fourier_conjugate(a: np.ndarray, p: BlockPartition, inverse: bool = False) -> np.ndarray:
    """T a T^H, or T^H a T when inverse, for T = fourier_transform(p), as
    orthonormal FFTs along the two block axes of the (r, m, r, m) view: numpy's
    forward FFT has dft_matrix's sign, exp(-2 pi i j k / r)."""
    left, right = (np.fft.ifft, np.fft.fft) if inverse else (np.fft.fft, np.fft.ifft)
    grid = a.reshape(p.r, p.m, p.r, p.m)
    return right(left(grid, axis=0, norm="ortho"), axis=2, norm="ortho").reshape(p.n, p.n)


def membership(mat, p: BlockPartition, group: str, tol: float) -> bool:
    """Group membership within tol: "DU" (unitary block-diagonal), "ZU"
    (DU with leading block I), "XU" (unitary, all 2r block line sums I)."""
    mat = as_partitioned(mat, p)
    if group not in ("DU", "ZU", "XU"):
        raise ValueError(f"unknown group {group!r}, expected DU, ZU or XU")
    if unitarity_residual(mat) > tol:
        return False
    if group == "XU":
        return line_sum_residual(mat, p) <= tol
    if off_block_norm(mat, p) > tol:
        return False
    if group == "ZU":
        return float(np.linalg.norm(mat[: p.m, : p.m] - np.eye(p.m))) <= tol
    return True


def xu_to_core(x, p: BlockPartition, tol: float = 1e-8) -> np.ndarray:
    """Compress an XU member: T^{-1} X T = I (+) G; returns the q x q core G."""
    x = as_matrix(x)
    if not membership(x, p, "XU", tol):
        raise ValueError("input is not an XU member within tol")
    mid = _fourier_conjugate(x, p, inverse=True)
    m = p.m
    leading = float(np.linalg.norm(mid[:m, :m] - np.eye(m)))
    off = math.hypot(float(np.linalg.norm(mid[:m, m:])), float(np.linalg.norm(mid[m:, :m])))
    if leading > tol or off > tol:
        raise InconsistencyError(
            f"conjugated matrix is not I (+) G: leading residual {leading:.3e}, off-block {off:.3e}"
        )
    return mid[m:, m:].copy()


def identity_plus_core(g: np.ndarray, p: BlockPartition) -> np.ndarray:
    """The n x n matrix I (+) G: identity leading m x m block, q x q core G."""
    return np.block([[np.eye(p.m), np.zeros((p.m, p.q))], [np.zeros((p.q, p.m)), g]])


def core_to_xu(g, p: BlockPartition) -> np.ndarray:
    """Expand a unitary q x q core G to the XU member T (I (+) G) T^{-1}."""
    g = as_matrix(g)
    if g.shape != (p.q, p.q):
        raise ValueError(f"core shape {g.shape} does not match q={p.q}")
    if unitarity_residual(g) > _BLOCK_UNITARY_TOL:
        raise ValueError("core must be unitary")
    return _fourier_conjugate(identity_plus_core(g, p), p)


def is_block_circulant(mat, p: BlockPartition, tol: float | None = None) -> bool:
    """True iff every block (j, k) lies within tol (Frobenius norm) of block
    (0, k - j mod r), the first-row block of its diagonal j - k (mod r).
    Default tol is 1e-8 scaled by ||M||_F."""
    mat = as_partitioned(mat, p)
    if tol is None:
        tol = 1e-8 * float(np.linalg.norm(mat))
    blocks = block_grid(mat, p)
    j = np.arange(p.r)
    # diagonals[d, j] is block (j, j - d mod r)
    diagonals = blocks[j[None, :], (j[None, :] - j[:, None]) % p.r]
    return bool(np.all(np.linalg.norm(diagonals - diagonals[:, :1], axis=(2, 3)) <= tol))


def conjugate_decompose(u, m: int, cfg: IterationConfig = IterationConfig()) -> ConjugateDecomposition:
    """Circulant variant: decompose the conjugate T^{-1} U T = d x z and push
    the factors back through T, giving U = C (I (+) A) Y with C = T d T^{-1}
    block-circulant and Y = T z T^{-1} a block-circulant XU member.

    Inner non-convergence is propagated as converged=False, not an error.
    """
    u = as_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise ValueError("conjugate_decompose needs a square matrix")
    p = BlockPartition(u.shape[0], m)
    dec = decompose(_fourier_conjugate(u, p, inverse=True), m, cfg)

    c = _fourier_conjugate(dec.D, p)
    mid = _fourier_conjugate(dec.X, p)
    y = _fourier_conjugate(dec.Z, p)
    if dec.converged:
        leading = float(np.linalg.norm(mid[:m, :m] - np.eye(m)))
        # line sums at convergence sit within ~sqrt(psi/n) of I, and the
        # leading block inherits that scale; psi itself cannot be measured
        # below the cancellation floor of n^2 - |Btr|^2
        psi_floor = 4.0 * np.finfo(float).eps * p.n**2
        allowance = 10.0 * math.sqrt(max(dec.psi_trace[-1][1], psi_floor) / p.n) + 1e-10
        if leading > allowance:
            raise InconsistencyError(
                f"leading block residual {leading:.3e} exceeds convergence allowance {allowance:.3e}"
            )
    return ConjugateDecomposition(
        C=c,
        A=mid[m:, m:].copy(),
        Y=y,
        partition=p,
        converged=dec.converged,
        iterations_used=dec.iterations_used,
    )


def biunitary_from_dxz(dec: DxzDecomposition) -> tuple[BiunitaryVector, BiunitaryVector]:
    """Extract V_j = (Z_jj)^{-1} and W_j = D_jj, so that U V = W with
    V_1 = I up to the residuals of the decomposition."""
    p = dec.partition
    v_blocks = diag_blocks(as_partitioned(dec.Z, p), p).conj().transpose(0, 2, 1)
    return BiunitaryVector(v_blocks), BiunitaryVector(diag_blocks(as_partitioned(dec.D, p), p))


def normalize_biunitary(v: BiunitaryVector, w: BiunitaryVector) -> tuple[BiunitaryVector, BiunitaryVector]:
    """Right-multiply every block of V and W by V_1^{-1}; the leading block of
    the result is set to I exactly, and U V' = W' is preserved for any U with
    U V = W."""
    if v.r != w.r or v.m != w.m:
        raise ValueError("V and W must have matching block structure")
    v1_inv = np.linalg.inv(v.blocks[0])
    new_v = v.blocks @ v1_inv
    new_v[0] = np.eye(v.m)
    return BiunitaryVector(new_v), BiunitaryVector(w.blocks @ v1_inv)


def xu_from_biunitary(u, v: BiunitaryVector, w: BiunitaryVector, tol: float) -> np.ndarray:
    """Rebuild the XU member A = diag(W_1^{-1},...,W_r^{-1}) U diag(I,V_2,...,V_r)
    from a biunitary pair with V_1 = I and U V = W.

    The right factor carries the V_j themselves: that is the variant for which
    A E = E (E the stack of identities) actually follows from U V = W.
    """
    p = BlockPartition(v.r * v.m, v.m)
    u = as_partitioned(u, p)
    if v.r != w.r or v.m != w.m:
        raise ValueError("V and W must have matching block structure")
    if float(np.linalg.norm(v.blocks[0] - np.eye(p.m))) > tol:
        raise ValueError("V_1 must be the identity within tol")
    residual = float(np.linalg.norm(u @ v.stacked - w.stacked))
    if residual > tol:
        raise ValueError(f"U V = W fails: residual {residual:.3e} > tol")

    right = v.blocks.copy()
    right[0] = np.eye(p.m)
    a = block_diag(np.linalg.inv(w.blocks)) @ u @ block_diag(right)

    derived = 20.0 * tol + 1e-10
    if not membership(a, p, "XU", derived):
        raise InconsistencyError(
            f"reconstructed matrix misses XU membership within {derived:.3e}"
        )
    return a


def _wrap_angle(angle: float) -> float:
    """Map to (-pi, pi]."""
    wrapped = math.remainder(angle, 2.0 * math.pi)
    return math.pi if wrapped == -math.pi else wrapped


def u2_parameters(u) -> U2Parameters:
    """Extract (theta, phi, psi, chi) from a 2 x 2 unitary.

    phi = atan2(|u_12|, |u_11|) lands in [0, pi/2]; theta is half the argument
    of det U.  When phi hits an endpoint one phase pair is undetermined: at
    phi = 0 the convention is chi = psi (read off the diagonal), at
    phi = pi/2 it is psi = 0.
    """
    u = as_matrix(u)
    if u.shape != (2, 2):
        raise ValueError("u2_parameters needs a 2 x 2 matrix")
    if unitarity_residual(u) > _BLOCK_UNITARY_TOL:
        raise ValueError("input is not unitary")

    c = abs(u[0, 0])
    s = abs(u[0, 1])
    phi = math.atan2(s, c)
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    theta = math.atan2(det.imag, det.real) / 2.0
    if s == 0.0:
        psi_angle = _wrap_angle(math.atan2(u[0, 0].imag, u[0, 0].real) - theta)
        chi_angle = psi_angle
    elif c == 0.0:
        psi_angle = 0.0
        chi_angle = _wrap_angle(math.atan2(u[0, 1].imag, u[0, 1].real) - theta)
    else:
        psi_angle = _wrap_angle(math.atan2(u[0, 0].imag, u[0, 0].real) - theta)
        chi_angle = _wrap_angle(math.atan2(u[0, 1].imag, u[0, 1].real) - theta)
    return U2Parameters(theta=theta, phi=phi, psi=psi_angle, chi=chi_angle)


def u2_matrix(params: U2Parameters) -> np.ndarray:
    """The 2 x 2 unitary determined by the four angles."""
    th, ph, ps, ch = params.theta, params.phi, params.psi, params.chi
    return np.array(
        [
            [math.cos(ph) * np.exp(1j * (th + ps)), math.sin(ph) * np.exp(1j * (th + ch))],
            [-math.sin(ph) * np.exp(1j * (th - ch)), math.cos(ph) * np.exp(1j * (th - ps))],
        ]
    )


def u2_factors(params: U2Parameters) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form factors (D, X, Z) multiplying to u2_matrix(params)."""
    th, ph, ps, ch = params.theta, params.phi, params.psi, params.chi
    d = np.diag([np.exp(1j * (th + ph + ps)), 1j * np.exp(1j * (th + ph - ch))])
    e = np.exp(-2j * ph)
    x = 0.5 * np.array([[1 + e, 1 - e], [1 - e, 1 + e]])
    z = np.diag([1.0 + 0j, -1j * np.exp(1j * (ch - ps))])
    return d, x, z


def u2_closed_form(u) -> DxzDecomposition:
    """Exact constructive decomposition of a 2 x 2 unitary (no iteration)."""
    d, x, z = u2_factors(u2_parameters(u))
    p = BlockPartition(2, 1)
    return DxzDecomposition(d, x, z, p, [(0, psi(x, p))], True, 0)
