"""Output checks made apart from the program.

Every property here is recomputed with plain numpy and json from the
matrices the program returns or writes; nothing calls `verify_decomposition`,
`membership` or `load_matrix`.  Each `check_*` function returns a list of
problems, empty when the output has every property the method promises.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

EPS = float(np.finfo(float).eps)

# the nine residuals the program's verify step reports, in its own names
RESIDUAL_KEYS = (
    "reconstruction",
    "d_unitarity",
    "x_unitarity",
    "z_unitarity",
    "d_off_diagonal",
    "z_off_diagonal",
    "z_leading_block",
    "max_line_sum",
    "psi_x",
)
_STRUCTURE_KEYS = RESIDUAL_KEYS[:7]


def structure_tol(n: int) -> float:
    """Allowance for reconstruction, unitarity and block structure, which
    hold to rounding whether or not a run converged (worst seen at n <= 16:
    4.4e-14)."""
    return 1e-12 * n


def psi_rounding(n: int) -> float:
    """Rounding of n^2 - |Btr|^2, which cancels two numbers of size n^2."""
    return 16.0 * EPS * n * n


def load_cmat(path) -> np.ndarray:
    """Read a CMAT-JSON file with json and numpy."""
    payload = json.loads(Path(path).read_text())
    data = np.asarray(payload["data"], dtype=float)
    if data.shape != (payload["rows"], payload["cols"], 2):
        raise ValueError(f"{path}: data shape {data.shape} does not match rows/cols")
    return data[..., 0] + 1j * data[..., 1]


def _blocks(a: np.ndarray, m: int) -> np.ndarray:
    r = a.shape[0] // m
    return a.reshape(r, m, r, m)


def line_sums(x: np.ndarray, m: int) -> np.ndarray:
    """The r block row sums followed by the r block column sums, (2r, m, m)."""
    b = _blocks(x, m)
    return np.concatenate([b.sum(axis=2), b.sum(axis=0).transpose(1, 0, 2)])


def line_sum_residual(x: np.ndarray, m: int) -> float:
    """Largest ||S - I||_F over all 2r block line sums S of x."""
    s = line_sums(x, m) - np.eye(m)
    return float(np.sqrt((np.abs(s) ** 2).sum(axis=(1, 2))).max())


def psi(x: np.ndarray, m: int) -> float:
    """n^2 - |Btr(x)|^2 with Btr the sum of the traces of all r^2 blocks."""
    n = x.shape[0]
    btr = np.trace(_blocks(x, m), axis1=1, axis2=3).sum()
    return float(n * n - abs(btr) ** 2)


def off_block_norm(a: np.ndarray, m: int) -> float:
    """Frobenius norm of everything outside the r diagonal blocks."""
    weight = (np.abs(_blocks(a, m)) ** 2).sum(axis=(1, 3))
    return float(math.sqrt(weight[~np.eye(weight.shape[0], dtype=bool)].sum()))


def unitarity(a: np.ndarray) -> float:
    return float(np.linalg.norm(a.conj().T @ a - np.eye(a.shape[0])))


def dxz_residuals(u, d, x, z, m: int) -> dict:
    """The residuals of a claimed U = D X Z, under the program's names."""
    n = u.shape[0]
    for name, a in (("D", d), ("X", x), ("Z", z)):
        if a.shape != (n, n):
            raise ValueError(f"{name} has shape {a.shape}, expected ({n}, {n})")
    return {
        "reconstruction": float(np.linalg.norm(d @ x @ z - u)),
        "d_unitarity": unitarity(d),
        "x_unitarity": unitarity(x),
        "z_unitarity": unitarity(z),
        "d_off_diagonal": off_block_norm(d, m),
        "z_off_diagonal": off_block_norm(z, m),
        "z_leading_block": float(np.linalg.norm(z[:m, :m] - np.eye(m))),
        "max_line_sum": line_sum_residual(x, m),
        "psi_x": psi(x, m),
    }


def passes(residuals: dict, tol: float) -> bool:
    """The verdict of a verify step at tol: every residual within tol."""
    return all(residuals[key] <= tol for key in RESIDUAL_KEYS)


def is_converged(psi_x: float, psi_tol: float, n: int) -> bool:
    """The benchmark's own convergence verdict from its own psi."""
    return psi_x <= psi_tol + psi_rounding(n)


def check_dxz(residuals: dict, n: int, m: int, converged: bool, psi_tol: float) -> list[str]:
    """Properties of every decomposition, plus those of a converged one.

    psi is not required to fall monotonically: for m >= 2 the gauge pin can
    move it the wrong way on early sweeps.
    """
    tol = structure_tol(n)
    problems = [
        f"{key} {residuals[key]:.3e} > {tol:.1e}"
        for key in _STRUCTURE_KEYS
        if not residuals[key] <= tol
    ]
    if converged:
        psi_x = residuals["psi_x"]
        if not is_converged(psi_x, psi_tol, n):
            problems.append(f"reports convergence but psi {psi_x:.3e} > psi_tol {psi_tol:.1e}")
        allowance = 10.0 * math.sqrt(max(psi_x, 4.0 * EPS * n * n) / n)
        if not residuals["max_line_sum"] <= allowance:
            problems.append(
                f"reports convergence but a line sum is {residuals['max_line_sum']:.3e} from I"
                f" (allowance {allowance:.3e})"
            )
    return problems


def check_exit(code: int, success: bool) -> list[str]:
    """The documented codes: 0 on success, 2 for a valid negative outcome."""
    expected = 0 if success else 2
    return [] if code == expected else [f"exit code {code}, expected {expected}"]


def check_unitary_file(u: np.ndarray, n: int) -> list[str]:
    if u.shape != (n, n):
        return [f"shape {u.shape}, expected ({n}, {n})"]
    err = unitarity(u)
    return [] if err <= structure_tol(n) else [f"not unitary: {err:.3e}"]


def fourier_conjugate(a: np.ndarray, m: int) -> np.ndarray:
    """T^H a T for T = F_r (x) I_m, by orthonormal FFTs along the block axes."""
    b = np.fft.ifft(_blocks(a, m), axis=0, norm="ortho")
    return np.fft.fft(b, axis=2, norm="ortho").reshape(a.shape)


def circulant_deviation(a: np.ndarray, m: int) -> float:
    """Largest ||A_jk - A_0,(k-j) mod r||_F: zero iff a is block-circulant."""
    b = _blocks(a, m).transpose(0, 2, 1, 3)
    r = b.shape[0]
    shift = (np.arange(r)[None, :] - np.arange(r)[:, None]) % r
    diff = b - b[0][shift]
    return float(np.sqrt((np.abs(diff) ** 2).sum(axis=(2, 3))).max())


def check_conjugate(u, c, a, y, m: int, psi_tol: float) -> tuple[list[str], bool, float]:
    """Checks of U = C (I (+) A) Y.

    Returns the problems, the own convergence verdict and the line-sum
    residual of the inner X = T^H C^H U Y^H T, whose psi gives the verdict.
    The reconstruction is checked only for a converged run, because A drops
    the off-core blocks that an unconverged X still has.
    """
    n, q = u.shape[0], u.shape[0] - m
    if c.shape != (n, n) or y.shape != (n, n) or a.shape != (q, q):
        return [f"shapes C {c.shape}, A {a.shape}, Y {y.shape} for n={n}, m={m}"], False, math.nan
    tol = structure_tol(n)
    problems = []
    for name, mat in (("C", c), ("Y", y)):
        err = unitarity(mat)
        if not err <= tol:
            problems.append(f"{name} not unitary: {err:.3e}")
        dev = circulant_deviation(mat, m)
        if not dev <= tol:
            problems.append(f"{name} not block-circulant: {dev:.3e}")
    x = fourier_conjugate(c.conj().T @ u @ y.conj().T, m)
    converged = is_converged(psi(x, m), psi_tol, n)
    if converged:
        mid = np.zeros((n, n), dtype=complex)
        mid[:m, :m] = np.eye(m)
        mid[m:, m:] = a
        recon = float(np.linalg.norm(c @ mid @ y - u))
        allowance = 10.0 * math.sqrt(psi_tol / n)
        if not recon <= allowance:
            problems.append(f"converged but C (I + A) Y misses U by {recon:.3e} > {allowance:.3e}")
    return problems, converged, line_sum_residual(x, m)


def parse_perm_output(text: str, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D, X and Z as integer arrays from the text that `perm` prints."""
    lines = text.splitlines()
    factors = []
    for label in ("D", "X", "Z"):
        start = lines.index(f"{label} =") + 1
        rows = " ".join(lines[start : start + n]).split()
        factors.append(np.array(rows, dtype=np.int64).reshape(n, n))
    return factors[0], factors[1], factors[2]


def _is_permutation_matrix(a: np.ndarray) -> bool:
    return (
        bool(np.isin(a, (0, 1)).all())
        and bool((a.sum(axis=0) == 1).all())
        and bool((a.sum(axis=1) == 1).all())
    )


def check_perm(image, d, x, z, m: int) -> list[str]:
    """Exact checks of P = D X Z over the integers."""
    n = len(image)
    p = np.zeros((n, n), dtype=np.int64)
    p[np.arange(n), np.asarray(image) - 1] = 1
    problems = [
        f"{name} is not a permutation matrix"
        for name, a in (("D", d), ("X", x), ("Z", z))
        if not _is_permutation_matrix(a)
    ]
    if problems:
        return problems
    if not np.array_equal(d @ x @ z, p):
        problems.append("D X Z != P")
    if off_block_norm(d, m) != 0 or off_block_norm(z, m) != 0:
        problems.append("D or Z has an entry outside its diagonal blocks")
    if not np.array_equal(z[:m, :m], np.eye(m, dtype=np.int64)):
        problems.append("Z's leading block is not I")
    if not (line_sums(x, m) == np.eye(m, dtype=np.int64)).all():
        problems.append("a block line sum of X is not I")
    return problems
