"""Unitary polar factor of a small complex matrix.

The factor Phi of M = Phi P is taken from one singular value decomposition
M = W S V^H as Phi = W V^H.  This is the same matrix to which the paper's
Newton averaging Y_{k+1} = (Y_k + (Y_k^H)^{-1}) / 2 converges (Higham 1986,
"Computing the polar decomposition - with applications"), reached without
iterating and batched over a stack of blocks, and the singular values of the
same call decide whether a block is singular.  Blocks of side 1 and 2, where
a sweep is bound by numpy's per-call cost, need no SVD: the factor of a
1 x 1 block z is its phase z/|z|, and a 2 x 2 block has a closed form
(_polar_2x2), a few elementwise operations on the whole stack.  Both decline
a stack that may hold a singular block, and the SVD route alone flags one.

The one caller, the block-Sinkhorn sweep, passes complex (r, m, m) stacks
of line sums S = U B, a finite unitary U times a column B of r unitary
blocks, so polar_unitary_batch checks nothing about them.  With r = 2 they
satisfy S1^H S1 + S2^H S2 = B^H B = 2I: a cosine-sine pair with shared
right singular vectors (Paige & Wei 1994), the Fuhr-Rzeszotnik block-ZXZ
case.  From m = _PAIRED_POLAR_MIN_M on, _polar_pair takes both factors from
one SVD of S1 and one Newton-Schulz step on the second.  It declines a
singular pair, and one whose second factor that step cannot make unitary to
rounding (a stack that is no cosine-sine pair among them); the SVD of each
block then decides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matcore import _integer_at_least

__all__ = ["PolarConfig"]

# a block whose smallest singular value lies below this is singular and gets
# the identity.  np.count_nonzero says if any is in 0.3 us, .any() in 1.0 us
_SING_TOL = 1e-10
# Gram defect ||Phi^H Phi - I||_F of the paired second factor up to which one
# Newton-Schulz step brings it to rounding: the step leaves about
# (3/4) defect^2 < eps
_PAIR_GRAM_TOL = math.sqrt(np.finfo(float).eps)
# adj(M)^H = conj([[d, -c], [-b, a]]) for M = [[a, b], [c, d]]: its signs, flat
_ADJOINT_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])
# block side from which a (2, m, m) stack takes _polar_pair, one SVD per
# stack instead of two.  Measured per sweep with single-threaded OpenBLAS:
# 0.79x the SVD route's time from m = 24 on, 0.9-1.2x at m = 16-20, and 1.7x
# at m = 8 and 2.7x at m = 2, where its products and checks cost more than
# the SVD they save
_PAIRED_POLAR_MIN_M = 24


@dataclass(frozen=True)
class PolarConfig:
    """Polar-kernel settings: newton_iters is validated and recorded (the
    CLI's --polar-iters writes it into report.json) but changes no result, as
    the SVD factor is the Newton limit itself."""

    newton_iters: int = 10

    def __post_init__(self):
        if not _integer_at_least(self.newton_iters, 1):
            raise ValueError(f"newton_iters must be an integer >= 1, got {self.newton_iters!r}")


def polar_unitary_batch(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unitary polar factors of a complex (count, m, m) stack of finite
    matrices: Phi of M = Phi P, which is also Upsilon of M = Q Upsilon, so
    row and column sweeps share it.

    Returns (factors, singular) with factors shaped like mats and singular a
    boolean vector.  A slice whose smallest singular value falls below
    _SING_TOL has no well-defined factor and gets the identity.  The shape
    picks a fast route: a (2, m, m) stack with m >= _PAIRED_POLAR_MIN_M takes
    _polar_pair, 1 x 1 slices z the phase z/|z|, and 2 x 2 slices _polar_2x2.
    Each declines a stack that may hold a singular slice (for 1 x 1, one with
    |z| < _SING_TOL), and that stack, like every other, takes one batched
    SVD, the only route that flags a slice.  Nothing about mats is checked.
    """
    count, m = mats.shape[:2]
    if count == 2 and m >= _PAIRED_POLAR_MIN_M and (factors := _polar_pair(mats)) is not None:
        return factors, np.zeros(2, dtype=bool)
    if m == 1:
        mod = np.abs(mats)
        if not np.count_nonzero(mod < _SING_TOL):
            return mats / mod, np.zeros(count, dtype=bool)
    elif m == 2 and (factors := _polar_2x2(mats)) is not None:
        return factors, np.zeros(count, dtype=bool)
    w, svals, vh = np.linalg.svd(mats)
    singular = svals[:, -1] < _SING_TOL
    factors = w @ vh
    if np.count_nonzero(singular):
        factors[singular] = np.eye(m)
    return factors, singular


def _polar_2x2(mats: np.ndarray) -> np.ndarray | None:
    """The unitary polar factors of 2 x 2 slices M = W diag(s1, s2) V^H,
    elementwise; None unless every slice has s > _SING_TOL t.

    With det M = e^{i phi} s1 s2, e^{i phi} adj(M)^H = W diag(s2, s1) V^H, so
    Phi = (M + e^{i phi} adj(M)^H) / t with t = s1 + s2 = sqrt(||M||_F^2 +
    2s), s = |det M|.  s / t = s1 s2 / (s1 + s2) lies between s_min / 2 and
    s_min, so the screen passes no singular slice, and a zero slice has
    s = t = 0.  An error d in the phase of det M only turns
    W diag(s1 + e^{id} s2, s2 + e^{id} s1) V^H: Phi stays unitary to O(d^2).
    """
    flat = mats.reshape(-1, 4)  # [a, b, c, d] for [[a, b], [c, d]]
    cross = flat * flat[:, ::-1]  # [ad, bc, cb, da]
    det = cross[:, 0] - cross[:, 1]
    s = np.abs(det)
    parts = flat.view(float)  # re and im side by side for complex128 mats; float64 mats as they are
    fro2 = np.add.reduce(parts * parts, axis=1)
    t = np.sqrt(fro2 + (s + s))
    if np.count_nonzero(s > _SING_TOL * t) < len(s):  # or NaN
        return None
    factors = flat[:, ::-1] * _ADJOINT_SIGNS  # [d, -c, -b, a]
    np.conjugate(factors, out=factors)  # adj(M)^H, flat
    factors *= (det / s)[:, None]
    factors += flat
    factors /= t[:, None]
    return factors.reshape(mats.shape)


def _polar_pair(sums: np.ndarray) -> np.ndarray | None:
    """The unitary polar factors of a (2, m, m) stack S1, S2 with
    S1^H S1 + S2^H S2 = 2I, from one SVD; None where the SVD of each block
    must take them.

    With S1 = W Sigma V^H, V^H S2^H S2 V = 2I - Sigma^2 is diagonal, so the
    columns of Y = S2 V are orthogonal and their norms are the singular
    values of S2: Phi1 = W V^H and Phi2 = (Y / norms) V^H.  The identity
    holds only to rounding and to the unitarity of the matrix the sums come
    from, so Phi2 takes one Newton-Schulz step Phi2 (3I - Phi2^H Phi2) / 2.
    Returns None when a singular value (of Sigma, or a column norm of Y) is
    not above _SING_TOL, or when the Gram defect ||Phi2^H Phi2 - I||_F
    exceeds _PAIR_GRAM_TOL, where one step cannot clean it up to rounding;
    the SVD of each block then decides, with its identity fix-up.  A
    returned Phi2 lies within defect / 2 of the exact polar factor of S2, to
    first order.
    """
    s1, s2 = sums
    try:
        w, svals, vh = np.linalg.svd(s1)
    except np.linalg.LinAlgError:
        return None
    y = s2 @ vh.conj().T
    norms = np.linalg.norm(y, axis=0)
    if not (svals[-1] > _SING_TOL and norms.min() > _SING_TOL):  # or NaN
        return None
    phi2 = (y / norms) @ vh
    gram = phi2.conj().T @ phi2
    gram[np.diag_indices_from(gram)] -= 1.0
    if not np.linalg.norm(gram) <= _PAIR_GRAM_TOL:
        return None
    phi2 -= 0.5 * (phi2 @ gram)  # Phi2 (3I - Phi2^H Phi2) / 2
    return np.stack((w @ vh, phi2))
