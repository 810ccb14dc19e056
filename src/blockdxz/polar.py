"""Unitary polar factor of a small complex matrix.

The factor Phi of M = Phi P is taken from one singular value decomposition
M = W S V^H as Phi = W V^H.  This is the same matrix to which the paper's
Newton averaging Y_{k+1} = (Y_k + (Y_k^H)^{-1}) / 2 converges (Higham 1986,
"Computing the polar decomposition - with applications"), reached without
iterating and batched over a stack of blocks, and the singular values of the
same call decide whether a block is singular.  An eigendecomposition route
is kept as an independent cross-check for tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .matcore import as_matrix

__all__ = ["PolarConfig", "PolarResult", "polar_unitary", "polar_oracle"]


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
    cfg.sing_tol has no well-defined factor and gets the identity.
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.ndim != 3 or mats.shape[-2] != mats.shape[-1]:
        raise ValueError("polar_unitary_batch needs a (count, m, m) stack")
    w, svals, vh = np.linalg.svd(mats)
    singular = svals[:, -1] < cfg.sing_tol
    factors = w @ vh
    factors[singular] = np.eye(mats.shape[-1])
    return factors, singular


def polar_unitary(mat, side: str = "left", cfg: PolarConfig = PolarConfig()) -> PolarResult:
    """Unitary factor Phi of M = Phi P (side="left") or Upsilon of M = Q Upsilon
    (side="right").

    Both sides share the same unitary factor, so the flag only mirrors the two
    notations in which callers work.  A singular matrix (see
    polar_unitary_batch) gives the identity with singular=True, never an error.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
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
