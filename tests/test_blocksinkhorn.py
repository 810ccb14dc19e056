import math

import numpy as np
import pytest

from blockdxz import (
    BlockPartition,
    DxzDecomposition,
    IterationConfig,
    Permutation,
    PolarConfig,
    RandomSpec,
    block,
    block_col_sum,
    block_row_sum,
    block_trace,
    core_to_xu,
    decompose,
    haar_random_unitary,
    perm_dxz,
    polar_oracle,
    psi,
    sinkhorn_step,
    verify_decomposition,
)
from blockdxz.matcore import block_diag
from refdata import PSI_TABLE, SIGMA_FACTORS_M2, SIGMA_IMAGE


def test_block_trace_identity():
    assert block_trace(np.eye(6), BlockPartition(6, 2)) == 6.0


def test_block_trace_of_worked_example(u6):
    assert abs(abs(block_trace(u6, BlockPartition(6, 2))) - 2.000) < 2e-3
    expected = np.sqrt(36.0 - 34.889)
    assert abs(abs(block_trace(u6, BlockPartition(6, 1))) - expected) < 2e-3


def test_block_trace_partition_mismatch():
    with pytest.raises(ValueError):
        block_trace(np.eye(4), BlockPartition(6, 2))


def test_psi_values(u6):
    assert psi(np.eye(6), BlockPartition(6, 1)) == 0.0
    assert abs(psi(u6, BlockPartition(6, 3)) - 33.743) < 1e-3
    assert abs(psi(u6, BlockPartition(6, 2)) - 32.000) < 1e-3


def test_step_fixes_core_members():
    p = BlockPartition(6, 2)
    x = core_to_xu(haar_random_unitary(RandomSpec(4, 17)), p)
    left, right, x_next = sinkhorn_step(x, p)
    assert np.linalg.norm(left - np.eye(6)) < 1e-10
    assert np.linalg.norm(right - np.eye(6)) < 1e-10
    assert np.linalg.norm(x_next - x) < 1e-10


def test_step_reproduces_first_table_entry(u6):
    p = BlockPartition(6, 1)
    _, _, x1 = sinkhorn_step(u6, p)
    assert abs(psi(x1, p) - PSI_TABLE[1][1]) < 0.05


def untwisted_column_sweep(y, p):
    """Right normalization without the shared gauge factor that pins
    (R_t)_11 = I; this is the version whose block-trace gain is provable."""
    from blockdxz.matcore import col_sums as _col_sums
    from blockdxz.polar import polar_unitary

    right = np.zeros((p.n, p.n), dtype=complex)
    for k, s in enumerate(_col_sums(np.asarray(y, dtype=complex), p)):
        ups, singular = polar_unitary(s)
        blockk = np.eye(p.m) if singular else ups.conj().T
        right[k * p.m : (k + 1) * p.m, k * p.m : (k + 1) * p.m] = blockk
    return y @ right


def test_block_trace_monotonicity():
    # the row sweep and the untwisted column sweep can never lose block trace
    # (and |Btr| stays bounded by n); the gauge-pinned column sweep used by
    # the engine is covered separately below
    checked = 0
    for n in (4, 6, 8):
        for m in [d for d in range(1, n + 1) if n % d == 0]:
            p = BlockPartition(n, m)
            for seed in range(56):
                x = haar_random_unitary(RandomSpec(n, 600 + seed))
                for _ in range(3):
                    left, right, x_next = sinkhorn_step(x, p)
                    before = abs(block_trace(x, p))
                    half = abs(block_trace(left @ x, p))
                    untwisted = abs(block_trace(untwisted_column_sweep(left @ x, p), p))
                    after = abs(block_trace(x_next, p))
                    assert half >= before - 1e-9
                    assert untwisted >= half - 1e-9
                    assert after <= n + 1e-9
                    x = x_next
                checked += 1
    assert checked >= 500


def test_scalar_blocks_keep_full_monotonicity():
    # for m = 1 the gauge factor is a plain phase, so it cannot move |Btr|
    # and the combined step is monotone outright
    for n in (4, 6, 8):
        p = BlockPartition(n, 1)
        for seed in range(40):
            x = haar_random_unitary(RandomSpec(n, 600 + seed))
            for _ in range(4):
                _, _, x_next = sinkhorn_step(x, p)
                assert abs(block_trace(x_next, p)) >= abs(block_trace(x, p)) - 1e-9
                x = x_next


def test_gauge_factor_can_shed_block_trace():
    # the shared gauge rotation that keeps (R_t)_11 = I is not trace-aligned
    # for m >= 2; with an ill-conditioned leading column sum it can throw away
    # the whole row-sweep gain.  This pins the known counterexample: the first
    # sweep drops |Btr| from 1.467 to 0.396 even though the row half-step had
    # lifted it to 6.440.  Convergence is unaffected: the run still ends in
    # the unit-line-sum group.
    p = BlockPartition(8, 2)
    u = haar_random_unitary(RandomSpec(8, 627))
    left, right, x1 = sinkhorn_step(u, p)
    before = abs(block_trace(u, p))
    half = abs(block_trace(left @ u, p))
    after = abs(block_trace(x1, p))
    assert half - before > 4.0
    assert half - after > 6.0
    assert before - after > 1.0
    dec = decompose(u, 2, IterationConfig(max_iter=6000, psi_tol=1e-9))
    assert dec.converged  # a slow run (~5400 sweeps), but it gets there


def reference_decompose(u, m, cfg):
    """Dense reference for decompose: n x n L_t and R_t assembled block by
    block from polar_oracle factors, psi from the r^2 block traces."""
    p = BlockPartition(u.shape[0], m)
    eye_n, eye_m = np.eye(p.n, dtype=complex), np.eye(p.m)

    def ref_psi(x):
        btr = sum(np.trace(block(x, p, j, k)) for j in range(1, p.r + 1) for k in range(1, p.r + 1))
        return p.n**2 - abs(btr) ** 2

    def block_diagonal(blocks):
        out = np.zeros((p.n, p.n), dtype=complex)
        for j, b in enumerate(blocks):
            out[j * p.m : (j + 1) * p.m, j * p.m : (j + 1) * p.m] = b
        return out

    x, lacc, racc = u.copy(), eye_n, eye_n
    trace = [ref_psi(x)]
    while trace[-1] > cfg.psi_tol and len(trace) <= cfg.max_iter:
        phis = [polar_oracle(block_row_sum(x, p, j)) for j in range(1, p.r + 1)]
        left = block_diagonal(eye_m if singular else phi.conj().T for phi, singular in phis)
        y = left @ x
        upsilons = [polar_oracle(block_col_sum(y, p, k)) for k in range(1, p.r + 1)]
        ups1 = upsilons[0][0]
        right = block_diagonal(eye_m if singular else ups.conj().T @ ups1 for ups, singular in upsilons)
        x, lacc, racc = y @ right, left @ lacc, racc @ right
        trace.append(ref_psi(x))
    return lacc.conj().T, x, racc.conj().T, trace


def test_decompose_matches_dense_reference():
    cfg = IterationConfig(max_iter=20)
    for seed, (n, m) in enumerate([(4, 1), (4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (9, 3), (12, 4)]):
        u = haar_random_unitary(RandomSpec(n, 700 + seed))
        d, x, z, trace = reference_decompose(u, m, cfg)
        dec = decompose(u, m, cfg)
        assert np.linalg.norm(dec.X - x) <= 1e-10
        assert np.linalg.norm(dec.D - d) <= 1e-10
        assert np.linalg.norm(dec.Z - z) <= 1e-10
        assert [t for t, _ in dec.psi_trace] == list(range(len(trace)))
        assert np.max(np.abs(np.array([v for _, v in dec.psi_trace]) - trace)) <= 1e-10


@pytest.mark.parametrize("n", [2, 7, 16, 33])
def test_scalar_decompose_matches_dense_reference(n):
    cfg = IterationConfig(max_iter=20)
    u = haar_random_unitary(RandomSpec(n, 800 + n))
    d, x, z, trace = reference_decompose(u, 1, cfg)
    dec = decompose(u, 1, cfg)
    assert np.linalg.norm(dec.X - x) <= 1.5e-12
    assert np.linalg.norm(dec.D - d) <= 1.5e-12
    assert np.linalg.norm(dec.Z - z) <= 1.5e-12
    assert [t for t, _ in dec.psi_trace] == list(range(len(trace)))
    # psi = n^2 - |Btr|^2 with Btr a sum of n^2 entries here, so its rounding
    # grows with n^2: the two summation orders differ by ~5e-12 at n = 33
    psi_bound = 64 * np.finfo(float).eps * n**2
    assert np.max(np.abs(np.array([v for _, v in dec.psi_trace]) - trace)) <= psi_bound


@pytest.mark.parametrize("n", [1, 5, 64])
def test_scalar_applies_match_block_diagonal_products(n):
    from blockdxz.blocksinkhorn import _apply_left, _apply_right

    rng = np.random.default_rng(n)
    p = BlockPartition(n, 1)
    blocks = np.exp(2j * np.pi * rng.random((n, 1, 1)))
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    dense = block_diag(blocks)
    assert np.abs(_apply_left(blocks, x, p) - dense @ x).max() <= 1e-15
    assert np.abs(_apply_right(x, blocks, p) - x @ dense).max() <= 1e-15


def test_decompose_identity():
    for m in (1, 2, 3, 6):
        dec = decompose(np.eye(6), m)
        assert dec.converged and dec.iterations_used == 0
        assert np.array_equal(dec.D, np.eye(6))
        assert np.array_equal(dec.X, np.eye(6))
        assert np.array_equal(dec.Z, np.eye(6))


def test_decompose_single_block_is_trivial(u6):
    dec = decompose(u6, 6)
    assert np.array_equal(dec.D, u6)
    assert np.array_equal(dec.X, np.eye(6))
    assert np.array_equal(dec.Z, np.eye(6))
    assert dec.converged


def test_decompose_worked_example_strict(u6):
    dec = decompose(u6, 2, IterationConfig(max_iter=36, psi_tol=1e-12))
    assert dec.psi_trace[-1][1] <= 0.005
    assert np.linalg.norm(dec.D @ dec.X @ dec.Z - u6) <= 1e-8
    report = verify_decomposition(u6, dec, 1e-8)
    assert report.d_off_diagonal == 0.0
    assert report.z_off_diagonal == 0.0
    assert report.z_leading_block <= 1e-10


def test_decompose_random_converges():
    u = haar_random_unitary(RandomSpec(6, 42))
    dec = decompose(u, 3, IterationConfig(max_iter=10_000, psi_tol=1e-6))
    assert dec.converged
    assert dec.iterations_used <= 10_000
    assert verify_decomposition(u, dec, 1e-3).passed


def test_decompose_rejects_bad_input(u6):
    with pytest.raises(ValueError):
        decompose(2 * np.eye(4), 2)
    with pytest.raises(ValueError):
        decompose(u6, 4)


def test_scalar_case_keeps_unit_modulus_factors():
    p = BlockPartition(6, 1)
    u = haar_random_unitary(RandomSpec(6, 9))
    left, right, _ = sinkhorn_step(u, p)
    assert np.allclose(np.abs(np.diagonal(left)), 1.0, atol=1e-12)
    assert np.allclose(np.abs(np.diagonal(right)), 1.0, atol=1e-12)
    assert np.linalg.norm(left - np.diag(np.diagonal(left))) == 0.0


def test_bookkeeping_is_exact():
    for seed, (n, m) in enumerate([(4, 2), (6, 2), (6, 3), (9, 3)]):
        u = haar_random_unitary(RandomSpec(n, 23 + seed))
        dec = decompose(u, m, IterationConfig(max_iter=40))
        # D = L^H and Z = R^H, so L U R = D^H U Z^H must equal the iterate
        assert np.linalg.norm(dec.D.conj().T @ u @ dec.Z.conj().T - dec.X) <= 1e-10


def test_psi_trace_non_increasing():
    for seed in range(10):
        u = haar_random_unitary(RandomSpec(8, 31 + seed))
        dec = decompose(u, 2, IterationConfig(max_iter=120))
        values = [v for _, v in dec.psi_trace]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


def test_psi_characterizes_core_members():
    rng = np.random.default_rng(12)
    for seed in range(100):
        n, m = [(4, 2), (6, 2), (6, 3), (8, 2)][seed % 4]
        p = BlockPartition(n, m)
        x = core_to_xu(haar_random_unitary(RandomSpec(p.q, seed)), p)
        assert abs(psi(x, p)) < 1e-10
        u = haar_random_unitary(RandomSpec(n, 4000 + seed))
        if abs(psi(u, p)) > 1e-10:  # Haar samples are never accidental members
            assert psi(u, p) > 0
        d = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
        assert psi(d @ x, p) > 1e-3 or np.linalg.norm(d - d[0, 0] * np.eye(n)) < 1e-6


def test_verify_decomposition_identity():
    dec = decompose(np.eye(6), 2)
    report = verify_decomposition(np.eye(6), dec, 0.0)
    assert report.passed
    assert report.reconstruction == 0.0
    assert report.max_line_sum == 0.0


def test_verify_printed_permutation_triple_exactly():
    mat = Permutation(SIGMA_IMAGE).to_matrix()
    d, x, z = SIGMA_FACTORS_M2
    from blockdxz import DxzDecomposition

    dec = DxzDecomposition(D=d, X=x, Z=z, partition=BlockPartition(6, 2))
    report = verify_decomposition(mat, dec, 0.0)
    assert report.passed


def test_verify_flags_perturbed_core():
    dec = decompose(np.eye(6), 2)
    dec.X = dec.X.copy()
    dec.X[0, 0] += 0.1
    report = verify_decomposition(np.eye(6), dec, 1e-8)
    assert not report.passed
    assert report.max_line_sum >= 0.09


def test_verify_rejects_shape_mismatch():
    dec = decompose(np.eye(6), 2)
    with pytest.raises(ValueError):
        verify_decomposition(np.eye(4), dec, 1e-8)


def dense_residuals(u, d, x, z, m):
    """verify_decomposition's nine residuals from the n x n formulas, with the
    blocks sliced out one by one."""
    n = u.shape[0]
    r = n // m

    def blk(a, j, k):
        return a[j * m : (j + 1) * m, k * m : (k + 1) * m]

    def unitarity(a):
        return float(np.linalg.norm(a.conj().T @ a - np.eye(n)))

    def off_block(a):
        return float(np.sqrt(sum(np.linalg.norm(blk(a, j, k)) ** 2 for j in range(r) for k in range(r) if j != k)))

    sums = [sum(blk(x, j, k) for k in range(r)) for j in range(r)]
    sums += [sum(blk(x, j, k) for j in range(r)) for k in range(r)]
    # the block traces hold the n r entries x[j m + i, k m + i]; fsum adds
    # each part exactly, so only |Btr|^2 and the subtraction round
    diagonals = [x[j * m + i, k * m + i] for j in range(r) for k in range(r) for i in range(m)]
    btr = complex(math.fsum(v.real for v in diagonals), math.fsum(v.imag for v in diagonals))
    return {
        "reconstruction": float(np.linalg.norm(d @ x @ z - u)),
        "d_unitarity": unitarity(d),
        "x_unitarity": unitarity(x),
        "z_unitarity": unitarity(z),
        "d_off_diagonal": off_block(d),
        "z_off_diagonal": off_block(z),
        "z_leading_block": float(np.linalg.norm(z[:m, :m] - np.eye(m))),
        "max_line_sum": max(float(np.linalg.norm(s - np.eye(m))) for s in sums),
        "psi_x": float(n * n - abs(btr) ** 2),
    }


def assert_matches_dense(u, dec, tol, bound):
    report = verify_decomposition(u, dec, tol).as_dict()
    dense = dense_residuals(u, dec.D, dec.X, dec.Z, dec.partition.m)
    for key, value in dense.items():
        assert abs(report[key] - value) <= bound, key
    assert report["passed"] == all(v <= tol for v in dense.values())
    return report, dense


def test_verify_matches_dense_formulas():
    # block-diagonal D and Z take the block-stack path
    for seed, (n, m) in enumerate([(6, 1), (6, 2), (6, 3), (12, 4), (64, 8)]):
        u = haar_random_unitary(RandomSpec(n, 70 + seed))
        dec = decompose(u, m, IterationConfig(max_iter=20))
        report, _ = assert_matches_dense(u, dec, 1e-3, 1e-13 * n)
        for key in ("reconstruction", "d_unitarity", "z_unitarity", "d_off_diagonal", "z_off_diagonal"):
            assert report[key] <= 1e-13 * n, key

    # at n = 256 the unitarity residuals of X, and of D and Z at m = 128,
    # take the real-product route.  psi_x = n^2 - |Btr|^2 cancels down to
    # ~eps n^2 even from an exact Btr: the program's einsum is 2e-11 and 4e-11
    # off the exact value at 256/1 and 256/128, above 1e-13 n
    for seed, (n, m) in enumerate([(256, 1), (256, 128)]):
        u = haar_random_unitary(RandomSpec(n, 75 + seed))
        dec = decompose(u, m, IterationConfig(max_iter=20))
        report = verify_decomposition(u, dec, 1e-3).as_dict()
        dense = dense_residuals(u, dec.D, dec.X, dec.Z, m)
        assert abs(report.pop("psi_x") - dense.pop("psi_x")) <= 8 * np.finfo(float).eps * n**2
        for key, value in dense.items():
            assert abs(report[key] - value) <= 1e-13 * n, key
        for key in ("reconstruction", "d_unitarity", "z_unitarity", "d_off_diagonal", "z_off_diagonal"):
            assert report[key] <= 1e-13 * n, key

    # exact integer factors give exactly zero residuals on both paths
    image = tuple(int(v) + 1 for v in np.random.default_rng(5).permutation(12))
    cases = []
    for perm, m in ((Permutation(SIGMA_IMAGE), 2), (Permutation(image), 3)):
        cases.append((perm.to_matrix(), perm_dxz(perm, m)))
        report, dense = assert_matches_dense(*cases[-1], 0.0, 0.0)
        assert report["passed"]
        assert all(v == 0.0 for v in dense.values())

    # off-block mass in D or Z: the dense formulas run and count it
    for seed, (n, m) in enumerate([(6, 2), (12, 4)]):
        u = haar_random_unitary(RandomSpec(n, 90 + seed))
        cases.append((u, decompose(u, m, IterationConfig(max_iter=20))))
    for u, dec in cases:
        n, m = dec.partition.n, dec.partition.m
        for name, (j, k) in (("D", (0, m)), ("Z", (n - 1, 0))):
            factors = {"D": dec.D.copy(), "Z": dec.Z.copy()}
            factors[name][j, k] += 1e-6
            d, x, z = factors["D"], dec.X, factors["Z"]
            report, _ = assert_matches_dense(u, DxzDecomposition(d, x, z, dec.partition), 1e-8, 1e-13 * n)
            assert report["reconstruction"] == float(np.linalg.norm(d @ x @ z - u))
            assert report["d_unitarity"] == float(np.linalg.norm(d.conj().T @ d - np.eye(n)))
            assert report["z_unitarity"] == float(np.linalg.norm(z.conj().T @ z - np.eye(n)))
            assert report[f"{name.lower()}_off_diagonal"] >= 0.9e-6
            assert not report["passed"]


def test_trivial_and_scalar_footnotes():
    # m = n keeps everything in D; m = 1 on a permutation keeps it in X
    mat = Permutation(SIGMA_IMAGE).to_matrix()
    dec = perm_dxz(Permutation(SIGMA_IMAGE), 1)
    assert np.array_equal(dec.D, np.eye(6))
    assert np.array_equal(dec.Z, np.eye(6))
    assert np.array_equal(dec.X, mat)
    dec = perm_dxz(Permutation(SIGMA_IMAGE), 6)
    assert np.array_equal(dec.D, mat)
    assert np.array_equal(dec.X, np.eye(6))
    assert np.array_equal(dec.Z, np.eye(6))
