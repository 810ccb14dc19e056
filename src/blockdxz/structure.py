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
from .matcore import BlockPartition, as_matrix, dft_matrix, kronecker

__all__ = [
    "InconsistencyError",
    "BiunitaryVector",
    "U2Parameters",
    "ConjugateDecomposition",
    "fourier_transform",
    "membership",
    "xu_to_core",
    "core_to_xu",
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
    """Stack of r unitary m x m blocks, an n x m matrix V with V^H V = r I."""

    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("BiunitaryVector needs at least one block")
        m = self.blocks[0].shape[0]
        eye = np.eye(m)
        for b in self.blocks:
            if b.shape != (m, m):
                raise ValueError("all blocks must be square of one size")
            if float(np.linalg.norm(b.conj().T @ b - eye)) > _BLOCK_UNITARY_TOL:
                raise ValueError(f"block is not unitary within {_BLOCK_UNITARY_TOL}")

    @property
    def m(self) -> int:
        return self.blocks[0].shape[0]

    @property
    def r(self) -> int:
        return len(self.blocks)

    @property
    def stacked(self) -> np.ndarray:
        """The blocks as one (r*m) x m matrix."""
        return np.vstack(self.blocks)

    @classmethod
    def from_stacked(cls, mat, m: int) -> "BiunitaryVector":
        mat = as_matrix(mat)
        if mat.shape[1] != m or mat.shape[0] % m != 0:
            raise ValueError(f"cannot split shape {mat.shape} into m={m} blocks")
        r = mat.shape[0] // m
        return cls(tuple(mat[i * m : (i + 1) * m].copy() for i in range(r)))


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
    return kronecker(dft_matrix(p.r), np.eye(p.m))


def _line_sum_residual(mat: np.ndarray, p: BlockPartition) -> float:
    blocks = mat.reshape(p.r, p.m, p.r, p.m)
    eye = np.eye(p.m)
    worst = 0.0
    for j in range(p.r):
        worst = max(worst, float(np.linalg.norm(blocks[j].sum(axis=1) - eye)))
    for k in range(p.r):
        worst = max(worst, float(np.linalg.norm(blocks[:, :, k].sum(axis=0) - eye)))
    return worst


def membership(mat, p: BlockPartition, group: str, tol: float) -> bool:
    """Group membership within tol: "DU" (unitary block-diagonal), "ZU"
    (DU with leading block I), "XU" (unitary, all 2r block line sums I)."""
    mat = as_matrix(mat)
    if mat.shape != (p.n, p.n):
        raise ValueError(f"matrix shape {mat.shape} does not match partition n={p.n}")
    if group not in ("DU", "ZU", "XU"):
        raise ValueError(f"unknown group {group!r}, expected DU, ZU or XU")
    if float(np.linalg.norm(mat.conj().T @ mat - np.eye(p.n))) > tol:
        return False
    if group == "XU":
        return _line_sum_residual(mat, p) <= tol

    blocks = mat.reshape(p.r, p.m, p.r, p.m)
    off = ~np.eye(p.r, dtype=bool)
    if float(np.sqrt((np.abs(blocks) ** 2).sum(axis=(1, 3))[off].sum())) > tol:
        return False
    if group == "ZU":
        return float(np.linalg.norm(mat[: p.m, : p.m] - np.eye(p.m))) <= tol
    return True


def xu_to_core(x, p: BlockPartition, tol: float = 1e-8) -> np.ndarray:
    """Compress an XU member: T^{-1} X T = I (+) G; returns the q x q core G."""
    x = as_matrix(x)
    if not membership(x, p, "XU", tol):
        raise ValueError("input is not an XU member within tol")
    t = fourier_transform(p)
    mid = t.conj().T @ x @ t
    m = p.m
    leading = float(np.linalg.norm(mid[:m, :m] - np.eye(m)))
    off = math.hypot(float(np.linalg.norm(mid[:m, m:])), float(np.linalg.norm(mid[m:, :m])))
    if leading > tol or off > tol:
        raise InconsistencyError(
            f"conjugated matrix is not I (+) G: leading residual {leading:.3e}, off-block {off:.3e}"
        )
    return mid[m:, m:].copy()


def core_to_xu(g, p: BlockPartition) -> np.ndarray:
    """Expand a unitary q x q core G to the XU member T (I (+) G) T^{-1}."""
    g = as_matrix(g)
    if g.shape != (p.q, p.q):
        raise ValueError(f"core shape {g.shape} does not match q={p.q}")
    if p.q > 0 and float(np.linalg.norm(g.conj().T @ g - np.eye(p.q))) > _BLOCK_UNITARY_TOL:
        raise ValueError("core must be unitary")
    mid = np.zeros((p.n, p.n), dtype=complex)
    mid[: p.m, : p.m] = np.eye(p.m)
    mid[p.m :, p.m :] = g
    t = fourier_transform(p)
    return t @ mid @ t.conj().T


def is_block_circulant(mat, p: BlockPartition, tol: float | None = None) -> bool:
    """True iff every block (j, k) lies within tol (Frobenius norm) of block
    (0, k - j mod r), the first-row block of its diagonal j - k (mod r).
    Default tol is 1e-8 scaled by ||M||_F."""
    mat = as_matrix(mat)
    if mat.shape != (p.n, p.n):
        raise ValueError(f"matrix shape {mat.shape} does not match partition n={p.n}")
    if tol is None:
        tol = 1e-8 * float(np.linalg.norm(mat))
    blocks = mat.reshape(p.r, p.m, p.r, p.m).transpose(0, 2, 1, 3)
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
    t = fourier_transform(p)
    th = t.conj().T
    dec = decompose(th @ u @ t, m, cfg)

    c = t @ dec.D @ th
    mid = t @ dec.X @ th
    y = t @ dec.Z @ th
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


def _diag_blocks(mat: np.ndarray, p: BlockPartition) -> list[np.ndarray]:
    m = p.m
    return [mat[i * m : (i + 1) * m, i * m : (i + 1) * m].copy() for i in range(p.r)]


def biunitary_from_dxz(dec: DxzDecomposition) -> tuple[BiunitaryVector, BiunitaryVector]:
    """Extract V_j = (Z_jj)^{-1} and W_j = D_jj, so that U V = W with
    V_1 = I up to the residuals of the decomposition."""
    p = dec.partition
    v_blocks = tuple(b.conj().T for b in _diag_blocks(as_matrix(dec.Z), p))
    w_blocks = tuple(_diag_blocks(as_matrix(dec.D), p))
    return BiunitaryVector(v_blocks), BiunitaryVector(w_blocks)


def normalize_biunitary(v: BiunitaryVector, w: BiunitaryVector) -> tuple[BiunitaryVector, BiunitaryVector]:
    """Right-multiply every block of V and W by V_1^{-1}; the leading block of
    the result is set to I exactly, and U V' = W' is preserved for any U with
    U V = W."""
    if v.r != w.r or v.m != w.m:
        raise ValueError("V and W must have matching block structure")
    v1_inv = np.linalg.inv(v.blocks[0])
    new_v = [b @ v1_inv for b in v.blocks]
    new_w = tuple(b @ v1_inv for b in w.blocks)
    new_v[0] = np.eye(v.m, dtype=complex)
    return BiunitaryVector(tuple(new_v)), BiunitaryVector(new_w)


def xu_from_biunitary(u, v: BiunitaryVector, w: BiunitaryVector, tol: float) -> np.ndarray:
    """Rebuild the XU member A = diag(W_1^{-1},...,W_r^{-1}) U diag(I,V_2,...,V_r)
    from a biunitary pair with V_1 = I and U V = W.

    The right factor carries the V_j themselves: that is the variant for which
    A E = E (E the stack of identities) actually follows from U V = W.
    """
    u = as_matrix(u)
    m, r = v.m, v.r
    n = m * r
    if u.shape != (n, n):
        raise ValueError(f"U shape {u.shape} does not match blocks ({n}, {n})")
    if v.r != w.r or v.m != w.m:
        raise ValueError("V and W must have matching block structure")
    if float(np.linalg.norm(v.blocks[0] - np.eye(m))) > tol:
        raise ValueError("V_1 must be the identity within tol")
    residual = float(np.linalg.norm(u @ v.stacked - w.stacked))
    if residual > tol:
        raise ValueError(f"U V = W fails: residual {residual:.3e} > tol")

    left = np.zeros((n, n), dtype=complex)
    right = np.zeros((n, n), dtype=complex)
    right[:m, :m] = np.eye(m)
    for i in range(r):
        left[i * m : (i + 1) * m, i * m : (i + 1) * m] = np.linalg.inv(w.blocks[i])
        if i > 0:
            right[i * m : (i + 1) * m, i * m : (i + 1) * m] = v.blocks[i]
    a = left @ u @ right

    p = BlockPartition(n, m)
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
    if float(np.linalg.norm(u.conj().T @ u - np.eye(2))) > _BLOCK_UNITARY_TOL:
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
