"""Frozen reference inputs and expected values shared across the test suite.

U6 is the published 6 x 6 worked example (entries are integers over 12); the
psi table lists its progress values per iteration for m = 1, 2, 3, and the
printed biunitary pair is its m = 2 result rounded to two decimals.  SIGMA is
the worked 6 x 6 permutation with its two printed factorizations.
polar_oracle is an independent route to the unitary polar factor.
"""

import numpy as np

from blockdxz.polar import _SING_TOL

U6 = np.array(
    [
        [-5, 6 + 2j, -5 - 5j, -4 + 2j, 2, -2 - 1j],
        [2 + 2j, -2 - 4j, -4j, -3 - 1j, 5 + 5j, 2 + 6j],
        [-6 - 3j, -2 - 2j, 1 + 3j, -6, -4 - 2j, 3 + 4j],
        [-2 - 4j, -1 - 7j, 2 - 6j, 4 + 3j, -1 - 2j, -2j],
        [3 - 1j, 4, -4 - 2j, 2 - 2j, -6 + 2j, 7 + 1j],
        [-6j, -1 + 3j, -2 + 2j, 3 + 6j, 5j, -2 + 4j],
    ]
) / 12.0

# psi per iteration t = 0..15; the run continues to psi ~ 0.001 at t = 36
PSI_TABLE = {
    1: [34.889, 4.407, 2.573, 1.381, 0.586, 0.213, 0.084, 0.042,
        0.027, 0.020, 0.016, 0.014, 0.012, 0.010, 0.009, 0.008],
    2: [32.000, 9.517, 4.332, 2.680, 1.627, 0.868, 0.577, 0.492,
        0.461, 0.442, 0.423, 0.400, 0.372, 0.339, 0.303, 0.264],
    3: [33.743, 6.643, 2.533, 1.023, 0.513, 0.375, 0.318, 0.277,
        0.240, 0.206, 0.174, 0.147, 0.122, 0.101, 0.083, 0.067],
}
PSI_FINAL_36 = 0.001

# biunitary pair of U6 at m = 2, printed to two decimals
V_PRINTED = np.array(
    [
        [1.00 - 0.00j, 0.00 + 0.00j],
        [0.00 - 0.00j, 1.00 + 0.00j],
        [0.81 - 0.31j, 0.23 + 0.43j],
        [-0.20 + 0.44j, 0.84 + 0.25j],
        [-0.34 + 0.77j, -0.37 + 0.38j],
        [-0.29 - 0.45j, 0.19 + 0.83j],
    ]
)
W_PRINTED = np.array(
    [
        [-0.95 - 0.16j, 0.24 - 0.14j],
        [-0.14 - 0.24j, -0.91 - 0.31j],
        [0.06 - 0.70j, -0.71 + 0.01j],
        [-0.28 - 0.65j, 0.62 - 0.34j],
        [-0.12 - 0.73j, 0.67 - 0.03j],
        [-0.48 - 0.46j, -0.57 + 0.47j],
    ]
)

# worked permutation: row j holds its 1 in column SIGMA_IMAGE[j-1]
SIGMA_IMAGE = (5, 1, 2, 4, 6, 3)

SIGMA_FACTORS_M2 = (
    np.array(
        [
            [0, 1, 0, 0, 0, 0],
            [1, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1],
        ],
        dtype=complex,
    ),
    np.array(
        [
            [1, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 1, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 1, 0, 0],
        ],
        dtype=complex,
    ),
    np.array(
        [
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, 1, 0],
        ],
        dtype=complex,
    ),
)

SIGMA_FACTORS_M3 = (
    np.array(
        [
            [0, 0, 1, 0, 0, 0],
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1],
        ],
        dtype=complex,
    ),
    np.array(
        [
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 1, 0, 0, 0],
        ],
        dtype=complex,
    ),
    np.array(
        [
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, 1, 0],
        ],
        dtype=complex,
    ),
)

# 200 (n, m, seed) cases: every divisor m < n for each n, seeds filling to 200
SWEEP_DIMENSIONS = (2, 4, 6, 8, 9, 12)


def sweep_cases(total: int = 200):
    combos = [(n, m) for n in SWEEP_DIMENSIONS for m in range(1, n) if n % m == 0]
    cases = []
    seed = 0
    while len(cases) < total:
        for n, m in combos:
            if len(cases) == total:
                break
            cases.append((n, m, 7919 * seed + 101 * n + m))
        seed += 1
    return cases


def polar_oracle(mat):
    """Unitary polar factor M (M^H M)^{-1/2} of a square matrix by an
    eigendecomposition of M^H M, independent of the SVD kernel; returns
    (factor, singular), the identity when M is singular."""
    mat = np.asarray(mat, dtype=complex)
    evals, vecs = np.linalg.eigh(mat.conj().T @ mat)
    evals = np.maximum(evals, 0.0)
    if np.sqrt(evals[0]) < _SING_TOL:
        return np.eye(mat.shape[0]), True
    return mat @ (vecs * evals**-0.5) @ vecs.conj().T, False
