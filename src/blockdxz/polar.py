"""Unitary polar factor of a small complex matrix.

The factor Phi of M = Phi P is taken from one singular value decomposition
M = W S V^H as Phi = W V^H.  This is the same matrix to which the paper's
Newton averaging Y_{k+1} = (Y_k + (Y_k^H)^{-1}) / 2 converges (Higham 1986,
"Computing the polar decomposition - with applications"), reached without
iterating and batched over a stack of blocks, and the singular values of the
same call decide whether a block is singular.  A 1 x 1 block z needs no SVD:
its factor is its phase z/|z| and its singular value its modulus |z|, so a
stack of them costs a few elementwise operations.  An eigendecomposition
route is kept as an independent cross-check for tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .matcore import as_matrix

__all__ = ["PolarConfig", "PolarResult", "polar_unitary", "polar_oracle"]

_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class PolarConfig:
    """Polar-kernel settings.

    sing_tol: a block whose smallest singular value lies below it counts as
    singular.  newton_iters is validated and recorded (the CLI's
    --polar-iters writes it into report.json) but no longer changes the
    result: the SVD factor is the Newton limit itself.
    """

    newton_iters: int = 10
    sing_tol: float = 1e-10

    def __post_init__(self):
        if self.newton_iters < 1:
            raise ValueError("newton_iters must be >= 1")
        if not (math.isfinite(self.sing_tol) and self.sing_tol >= 0):
            raise ValueError("sing_tol must be finite and non-negative")


class PolarResult(NamedTuple):
    unitary_factor: np.ndarray
    singular: bool


def polar_unitary_batch(mats: np.ndarray, cfg: PolarConfig = PolarConfig()) -> tuple[np.ndarray, np.ndarray]:
    """Unitary polar factors of a stack of square matrices.

    Returns (factors, singular) with factors shaped like mats and singular a
    boolean vector.  A slice whose smallest singular value falls below
    cfg.sing_tol has no well-defined factor and gets the identity.  For
    1 x 1 slices z the factor is the phase z/|z| and the singular value is
    |z|, computed without an SVD; an exact zero gets factor 1 even under
    sing_tol = 0, as the SVD gives.  A non-finite entry raises ValueError;
    the check runs only on the branches such a stack leads to (a zero,
    subnormal or overflowing |z|, a failed SVD, or a singular value below
    sing_tol or NaN), so a well-conditioned finite stack pays no scan.
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.ndim != 3 or mats.shape[-2] != mats.shape[-1]:
        raise ValueError("polar_unitary_batch needs a (count, m, m) stack")
    if mats.shape[-1] == 1:
        z = mats[:, 0, 0]
        mod = np.abs(z)
        lowest = mod.min(initial=np.inf)
        if lowest >= _TINY and mod.max(initial=0.0) < np.inf:
            factors = z / mod
        else:
            _reject_non_finite(z)
            factors = _scaled_phases(z)
        singular = mod < cfg.sing_tol
        if lowest < cfg.sing_tol:
            factors[singular] = 1.0
        return factors.reshape(mats.shape), singular
    try:
        w, svals, vh = np.linalg.svd(mats)
    except np.linalg.LinAlgError:
        _reject_non_finite(mats)  # LAPACK does not converge on a NaN entry
        raise
    lowest = svals[:, -1]
    singular = lowest < cfg.sing_tol
    factors = w @ vh
    if not lowest.min(initial=np.inf) >= cfg.sing_tol:  # or NaN, as an inf entry gives
        _reject_non_finite(mats)
        factors[singular] = np.eye(mats.shape[-1])
    return factors, singular


def _reject_non_finite(mats: np.ndarray) -> None:
    if not np.isfinite(mats).all():
        raise ValueError("matrix entries must be finite")


def _scaled_phases(z: np.ndarray) -> np.ndarray:
    """z/|z| where |z| is zero, subnormal or overflows: each entry is first
    scaled exactly by a power of two, and an exact zero gets phase 1."""
    exponent = np.frexp(np.maximum(np.abs(z.real), np.abs(z.imag)))[1]
    scaled = np.ldexp(z.real, -exponent) + 1j * np.ldexp(z.imag, -exponent)
    with np.errstate(invalid="ignore"):
        phases = scaled / np.abs(scaled)
    phases[z == 0] = 1.0
    return phases


def polar_unitary(mat, cfg: PolarConfig = PolarConfig()) -> PolarResult:
    """Unitary factor of one square matrix M: Phi of M = Phi P, which is also
    Upsilon of M = Q Upsilon, so the paper's row and column sweeps share it.

    A singular matrix (see polar_unitary_batch) gives the identity with
    singular=True, never an error.
    """
    mat = as_matrix(mat)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("polar_unitary needs a square matrix")
    factors, singular = polar_unitary_batch(mat[None], cfg)
    return PolarResult(factors[0], bool(singular[0]))


def polar_oracle(mat) -> PolarResult:
    """Independent route for tests: factor = M (M^H M)^{-1/2} via
    eigendecomposition of M^H M."""
    mat = as_matrix(mat)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("polar_oracle needs a square matrix")
    m = mat.shape[0]
    gram = mat.conj().T @ mat
    evals, vecs = np.linalg.eigh(gram)
    evals = np.maximum(evals, 0.0)
    if np.sqrt(evals[0]) < PolarConfig().sing_tol:
        return PolarResult(np.eye(m), True)
    inv_sqrt = vecs @ np.diag(evals**-0.5) @ vecs.conj().T
    return PolarResult(mat @ inv_sqrt, False)
