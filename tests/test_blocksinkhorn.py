import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from blockdxz import (
    BlockPartition,
    DxzDecomposition,
    IterationConfig,
    Permutation,
    PolarConfig,
    RandomSpec,
    block_col_sum,
    block_row_sum,
    block_trace,
    conjugate_decompose,
    core_to_xu,
    decompose,
    haar_random_unitary,
    perm_dxz,
    psi,
    verify_decomposition,
)
import blockdxz.blocksinkhorn as engine
import blockdxz.polar as polar
from blockdxz.matcore import (
    _adjoints, _apply_left, _apply_right, block_diag, block_grid, col_sums, diag_blocks, line_sum_residual, row_sums,
    unitarity_residual,
)
from blockdxz.polar import polar_unitary_batch
from refdata import PSI_TABLE, SIGMA_FACTORS_M2, SIGMA_IMAGE, polar_oracle


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


def sweep_from(x, p):
    """The engine's sweep started from X with Q = V = I, which is one sweep
    on X itself: returns the diagonal blocks Q^H of L_t and V of R_t as
    (r, m, m) stacks, and X_next = L_t X R_t."""
    x = np.asarray(x, dtype=complex)
    eye = np.tile(np.eye(p.m, dtype=complex), (p.r, 1, 1))
    q, v = engine._sweep(x, row_sums(x, p), eye, eye, p)
    lt = _adjoints(q)
    return lt, v, _apply_right(_apply_left(lt, x, p), v, p)


def test_step_fixes_core_members():
    p = BlockPartition(6, 2)
    x = core_to_xu(haar_random_unitary(RandomSpec(4, 17)), p)
    lt, rt, x_next = sweep_from(x, p)
    assert np.linalg.norm(block_diag(lt) - np.eye(6)) < 1e-10
    assert np.linalg.norm(block_diag(rt) - np.eye(6)) < 1e-10
    assert np.linalg.norm(x_next - x) < 1e-10


def test_step_reproduces_first_table_entry(u6):
    p = BlockPartition(6, 1)
    _, _, x1 = sweep_from(u6, p)
    assert abs(psi(x1, p) - PSI_TABLE[1][1]) < 0.05


def test_step_singular_column_sum_gets_identity():
    # row sums 2, 1, 1 leave L = I; column sums i, 0, 4 - i.  The zero sum
    # would give R_22 = Upsilon_1 = i through the gauge factor
    p = BlockPartition(3, 1)
    x = np.array([[1j, 1, 1 - 1j], [-1j, -1, 2 + 1j], [1j, 0, 1 - 1j]])
    lt, rt, x_next = sweep_from(x, p)
    left, right = block_diag(lt), block_diag(rt)
    assert np.array_equal(left, np.eye(3))
    assert right[0, 0] == 1 and right[1, 1] == 1
    assert np.abs(x_next - left @ x @ right).max() <= 1e-15


def singular_column_sum_unitary(m):
    """A phased 8 x 8 Hadamard matrix, tensored with I_m.  After the first
    row step its block column sums are -sqrt2 i, sqrt2 i, 0, 0 and four
    sums of modulus 1 (times I_m): two exactly zero sums next to a leading
    sum of phase -i, all exact in floating point."""
    h2 = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    rows = np.array([1, 1j, 1j, 1j, -1, 1j, -1j, 1j])
    cols = np.array([-1, -1, -1, -1, 1, 1, 1, 1])
    return np.kron(rows[:, None] * np.kron(np.kron(h2, h2), h2) * cols, np.eye(m))


@pytest.mark.parametrize("m", [1, 2])
def test_decompose_singular_column_sum_gets_identity(m):
    # m = 1 takes phases and m = 2 the SVD of each block, each with its
    # identity fix-up, which keeps the previous V_k: without it the gauge
    # factor Upsilon_1 = -i would land on the singular columns.  One sweep
    # leaves every factor exact; later sweeps round
    p = BlockPartition(8 * m, m)
    u = singular_column_sum_unitary(m)
    dec = decompose(u, m, IterationConfig(max_iter=1))
    assert not dec.converged
    assert np.abs(dec.D @ dec.X @ dec.Z - u).max() <= 1e-14
    assert unitarity_residual(dec.D) <= 1e-14 and unitarity_residual(dec.Z) <= 1e-14
    z_blocks = diag_blocks(dec.Z, p)
    assert np.array_equal(z_blocks[0], np.eye(m))
    assert np.array_equal(z_blocks[2:4], np.tile(np.eye(m), (2, 1, 1)))


def nudged_hadamard():
    """H4 / 2 with 1e-310j added to entry (1, 3), 0-based: unitary to 0.0.
    Its row 1 sums to exactly 1e-310j, and so does its m = 2 block trace."""
    h2 = np.array([[1.0, 1.0], [1.0, -1.0]])
    u = np.kron(h2, h2).astype(complex) / 2
    u[1, 3] += 1e-310j
    return u


@pytest.mark.parametrize("max_iter", [1, 200])
def test_decompose_subnormal_line_sum_keeps_unit_phases(max_iter):
    # a subnormal modulus lies below the singular threshold, so the row keeps
    # its previous phase instead of dividing by |z|
    u = nudged_hadamard()
    assert u[1].sum() == 1e-310j
    dec = decompose(u, 1, IterationConfig(max_iter=max_iter))
    for factor in (dec.D, dec.Z):
        assert np.abs(np.abs(np.diag(factor)) - 1).max() <= 1e-15
    assert verify_decomposition(u, dec, 1.0).reconstruction <= 1e-15


@pytest.mark.parametrize("max_iter", [1, 200])
def test_decompose_subnormal_block_trace_starts_at_phase_one(max_iter):
    # Btr / |Btr| would overflow into NaN, which no sweep may factor.  The
    # second block row sums to zero, so D keeps the starting phase 1 there
    u = nudged_hadamard()
    assert block_trace(u, BlockPartition(4, 2)) == 1e-310j
    dec = decompose(u, 2, IterationConfig(max_iter=max_iter))
    assert np.array_equal(diag_blocks(dec.D, BlockPartition(4, 2))[1], np.eye(2))
    assert verify_decomposition(u, dec, 1.0).reconstruction <= 1e-14
    assert unitarity_residual(dec.D) <= 1e-14 and unitarity_residual(dec.Z) <= 1e-14


def test_newton_iters_changes_nothing(u6):
    default = decompose(u6, 2)
    for iters in (1, 2, 10):
        dec = decompose(u6, 2, IterationConfig(polar=PolarConfig(newton_iters=iters)))
        for a, b in ((dec.D, default.D), (dec.X, default.X), (dec.Z, default.Z)):
            assert np.array_equal(a, b)
        assert dec.psi_trace == default.psi_trace


def untwisted_column_sweep(y, p):
    """Right normalization without the shared gauge factor that pins
    (R_t)_11 = I; this is the version whose block-trace gain is provable."""
    upsilons, singular = polar_unitary_batch(col_sums(np.asarray(y, dtype=complex), p))
    blocks = upsilons.conj().transpose(0, 2, 1)
    blocks[singular] = np.eye(p.m)
    return y @ block_diag(blocks)


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
                    lt, _, x_next = sweep_from(x, p)
                    left = block_diag(lt)
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
                _, _, x_next = sweep_from(x, p)
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
    lt, _, x1 = sweep_from(u, p)
    left = block_diag(lt)
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
        btr = sum(np.trace(b) for row in block_grid(x, p) for b in row)
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


@pytest.mark.parametrize("n, m", [(n, m) for n in (2, 4, 6, 8, 12) for m in range(1, n) if n % m == 0])
def test_decompose_moves_a_global_phase_into_d(n, m):
    # psi cannot see e^{i theta}: these inputs stop before the first sweep,
    # and D must take the phase for X's line sums to be I
    p = BlockPartition(n, m)
    core = core_to_xu(haar_random_unitary(RandomSpec(p.q, 10 * n + m)), p)
    inputs = [-np.eye(n), 1j * np.eye(n), np.exp(0.3j) * np.eye(n), np.exp(2.1j) * core, -core]
    for u in inputs:
        dec = decompose(u, m)
        assert dec.converged and dec.iterations_used == 0
        assert line_sum_residual(dec.X, p) <= 1e-12
        assert np.linalg.norm(dec.D @ dec.X @ dec.Z - u) <= 1e-14 * n
        assert verify_decomposition(u, dec, 1e-12).passed


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
    with pytest.raises(ValueError, match="square"):
        decompose(np.eye(4)[:2], 1)
    with pytest.raises(ValueError):
        decompose(u6, 4)


@pytest.mark.parametrize("run", [decompose, conjugate_decompose])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_non_finite_input_is_rejected_before_any_sweep(monkeypatch, u6, run, bad):
    # the polar kernel relies on finite line sums and no longer checks them
    def no_sweep(*args):
        raise AssertionError("a sweep ran on a non-finite input")

    monkeypatch.setattr(engine, "_sweep", no_sweep)
    u6[2, 4] = bad
    with pytest.raises(ValueError, match="finite"):
        run(u6, 2)


def eye4_with(big):
    """I_4 with entry (0, 0) = big: finite, but its Gram a^H a overflows."""
    u = np.eye(4, dtype=complex)
    u[0, 0] = big
    return u


@pytest.mark.parametrize("run", [decompose, conjugate_decompose])
@pytest.mark.parametrize("big", [1e300, 1.4e154])
def test_input_whose_gram_overflows_is_not_unitary(monkeypatch, run, big):
    # an inf or NaN residual must fail the 1e-8 gate, not slip under it
    def no_sweep(*args):
        raise AssertionError("a sweep ran on a non-unitary input")

    monkeypatch.setattr(engine, "_sweep", no_sweep)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="not unitary"):
        run(eye4_with(big), 2)


def test_psi_of_a_finite_matrix_whose_trace_squares_past_the_float_range():
    assert psi(eye4_with(1e200), BlockPartition(4, 2)) == -math.inf
    # below that the square is Python's float power, as before
    assert psi(eye4_with(1e150), BlockPartition(4, 2)) == float(16 - abs(1e150 + 3) ** 2)


@pytest.mark.parametrize(
    "kwargs",
    [{"max_iter": math.inf}, {"max_iter": 2.5}, {"max_iter": 0},
     {"psi_tol": "1e-6"}, {"psi_tol": None}, {"psi_tol": Decimal("1e-6")},
     {"max_iter": True}, {"psi_tol": True}],
)
def test_iteration_config_requires_an_integer_budget(kwargs):
    # psi_tol, like max_iter, is checked for its type as well as its value
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        IterationConfig(**kwargs)
    assert IterationConfig(max_iter=np.int64(3)).max_iter == 3


def test_block_partition_requires_integer_sizes(u6):
    for n, m in ((6, 2.0), (6.0, 2), (6, np.float64(3))):
        with pytest.raises(ValueError, match="integers"):
            BlockPartition(n, m)
    with pytest.raises(ValueError, match="integers"):
        decompose(u6, 2.0)
    assert BlockPartition(np.int64(6), np.int32(2)).r == 3
    assert decompose(u6, np.int64(2), IterationConfig(max_iter=3)).partition.r == 3


def test_scalar_case_keeps_unit_modulus_factors():
    p = BlockPartition(6, 1)
    u = haar_random_unitary(RandomSpec(6, 9))
    lt, rt, _ = sweep_from(u, p)
    assert lt.shape == rt.shape == (6, 1, 1)
    assert np.allclose(np.abs(lt), 1.0, atol=1e-12)
    assert np.allclose(np.abs(rt), 1.0, atol=1e-12)


def test_bookkeeping_is_exact():
    for seed, (n, m) in enumerate([(4, 2), (6, 2), (6, 3), (9, 3)]):
        u = haar_random_unitary(RandomSpec(n, 23 + seed))
        dec = decompose(u, m, IterationConfig(max_iter=40))
        # D = L^H and Z = R^H, so L U R = D^H U Z^H must equal the iterate
        assert np.linalg.norm(dec.D.conj().T @ u @ dec.Z.conj().T - dec.X) <= 1e-10


@pytest.mark.parametrize("n, m, seed, sweeps", [(6, 2, 8, 5000), (64, 8, 2, 2000)])
def test_long_runs_do_not_drift(n, m, seed, sweeps):
    # neither input converges, so every sweep of the budget runs.  Factors
    # multiplied up sweep by sweep would carry rounding forward as a random
    # walk (1.2e-13 and 1.0e-12 here); taken afresh from U each sweep, they
    # stay at rounding
    u = haar_random_unitary(RandomSpec(n, seed))
    dec = decompose(u, m, IterationConfig(max_iter=sweeps, psi_tol=1e-300))
    assert dec.iterations_used == sweeps
    report = verify_decomposition(u, dec, 1e-14 * n)
    for key in ("reconstruction", "d_unitarity", "x_unitarity", "z_unitarity"):
        assert getattr(report, key) <= 1e-14 * n, key


@pytest.mark.parametrize("psi_tol", [1e-3, 1e-6, 1e-12, 1e-14, 1e-30])
def test_converged_runs_pass_verification_at_their_tolerance(psi_tol):
    # psi cancels to a floor of ~eps n^2, below which it crosses zero by
    # rounding; converged must still mean line sums within the run's
    # tolerance, so every converged run passes verification at it
    converged = 0
    for seed in range(5000, 5010):
        n = int(np.random.default_rng(seed).integers(4, 17))
        divisors = [m for m in range(1, n) if n % m == 0]
        m = divisors[seed % len(divisors)]
        u = haar_random_unitary(RandomSpec(n, seed))
        dec = decompose(u, m, IterationConfig(max_iter=3000, psi_tol=psi_tol))
        if not dec.converged:
            continue
        converged += 1
        assert line_sum_residual(dec.X, dec.partition) <= max(1e-8, 10 * math.sqrt(psi_tol / n)), (seed, n, m)
        assert verify_decomposition(u, dec, engine.line_sum_tolerance(psi_tol, n)).passed, (seed, n, m)
    assert converged >= 5


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
    # ~eps n^2 even from an exact Btr: the program's pairwise sum is 6e-13
    # and 9e-12 off the exact value at 256/1 and 256/128
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
            assert report["d_unitarity"] == unitarity_residual(d)
            assert report["z_unitarity"] == unitarity_residual(z)
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


@pytest.mark.parametrize("m", [1, 2, 3, 6])
def test_decompose_returns_python_types(u6, m):
    # report.json is written with the json module, which takes no numpy scalars
    for u in (u6, np.eye(6)):
        dec = decompose(u, m, IterationConfig(max_iter=5))
        assert type(dec.converged) is bool
        assert type(dec.iterations_used) is int
        assert all(type(t) is int and type(v) is float for t, v in dec.psi_trace)


def test_factors_do_not_alias_the_input(u6):
    cases = [(u6, 6), (np.eye(6, dtype=complex), 1), (np.eye(6, dtype=complex), 2)]
    cases += [(haar_random_unitary(RandomSpec(8, 5)), m) for m in (1, 2)]
    for u, m in cases:
        dec = decompose(u, m, IterationConfig(max_iter=5))
        kept = [dec.D.copy(), dec.X.copy(), dec.Z.copy()]
        u[...] = 7.0
        for factor, before in zip((dec.D, dec.X, dec.Z), kept):
            assert np.array_equal(factor, before)


def test_verify_reads_read_only_inputs():
    u = haar_random_unitary(RandomSpec(12, 3))
    for m in (1, 4):
        dec = decompose(u, m, IterationConfig(max_iter=10))
        frozen = [a.copy() for a in (u, dec.D, dec.X, dec.Z)]
        for a in frozen:
            a.flags.writeable = False
        report = verify_decomposition(frozen[0], DxzDecomposition(*frozen[1:], dec.partition), 1e-3)
        assert report == verify_decomposition(u, dec, 1e-3)


def exact_psi(x, m):
    """n^2 - |Btr|^2 in exact rational arithmetic over x's float entries."""
    n = x.shape[0]
    entries = [x[j * m + i, k * m + i] for j in range(n // m) for k in range(n // m) for i in range(m)]
    re = sum(map(Fraction, (float(v.real) for v in entries)), Fraction(0))
    im = sum(map(Fraction, (float(v.imag) for v in entries)), Fraction(0))
    return n * n - (re * re + im * im)


@pytest.mark.parametrize("seed, m", [(75, 1), (76, 128)])
def test_psi_within_rounding_of_exact_value(seed, m):
    # psi cancels n^2 against |Btr|^2, so ~eps n^2 is the floor of any
    # summation order; a single running sum over the block traces lands
    # 3.8e-11 off at 256/128, above 2 eps n^2 = 2.9e-11
    n = 256
    u = haar_random_unitary(RandomSpec(n, seed))
    dec = decompose(u, m, IterationConfig(max_iter=20))
    exact = exact_psi(dec.X, m)
    bound = 2 * np.finfo(float).eps * n**2
    assert abs(Fraction(psi(dec.X, dec.partition)) - exact) <= bound
    assert abs(Fraction(verify_decomposition(u, dec, 1e-3).psi_x) - exact) <= bound


@pytest.mark.parametrize("n, m", [(6, 1), (8, 2)])
def test_verify_off_block_entry_takes_dense_route(n, m):
    u = haar_random_unitary(RandomSpec(n, 40 + m))
    dec = decompose(u, m, IterationConfig(max_iter=10))
    report = verify_decomposition(u, dec, 1e-3)
    assert report.d_off_diagonal == 0.0 and report.z_off_diagonal == 0.0
    for name, (j, k) in (("D", (n - 1, 0)), ("Z", (0, m))):
        factors = {"D": dec.D.copy(), "Z": dec.Z.copy()}
        factors[name][j, k] = 1e-20j
        d, x, z = factors["D"], dec.X, factors["Z"]
        report = verify_decomposition(u, DxzDecomposition(d, x, z, dec.partition), 1e-3)
        offs = {"D": report.d_off_diagonal, "Z": report.z_off_diagonal}
        assert offs.pop(name) == 1e-20
        assert offs.popitem()[1] == 0.0
        assert report.reconstruction == float(np.linalg.norm(d @ x @ z - u))
        assert report.d_unitarity == unitarity_residual(d)


def paired_and_svd_runs(monkeypatch, u, m, cfg=IterationConfig()):
    """decompose with the r = 2 paired polar route from m = 2 on, and with
    the SVD of every block (the floor raised past any m)."""
    runs = []
    for floor in (2, 10**9):
        monkeypatch.setattr(polar, "_PAIRED_POLAR_MIN_M", floor)
        runs.append(decompose(u, m, cfg))
    return runs


@pytest.mark.parametrize("n", [32, 64, 128])
def test_paired_route_matches_svd_route(monkeypatch, n):
    u = haar_random_unitary(RandomSpec(n, 40 + n))
    cfg = IterationConfig(max_iter=20)
    pairs = []
    pair = polar._polar_pair
    monkeypatch.setattr(polar, "_polar_pair", lambda sums: pairs.append(pair(sums)) or pairs[-1])
    paired, svd = paired_and_svd_runs(monkeypatch, u, n // 2, cfg)
    # every step of the paired run took the pair, and none of the svd run called it
    assert len(pairs) == 2 * 20 and all(factors is not None for factors in pairs)
    for a, b in ((paired.X, svd.X), (paired.D, svd.D), (paired.Z, svd.Z)):
        assert np.linalg.norm(a - b) <= 1e-12 * n
    assert [t for t, _ in paired.psi_trace] == [t for t, _ in svd.psi_trace]
    assert max(abs(a - b) for (_, a), (_, b) in zip(paired.psi_trace, svd.psi_trace)) <= 1e-12 * n
    report = verify_decomposition(u, paired, 1e-12)
    assert max(report.reconstruction, report.d_unitarity, report.z_unitarity) <= 1e-14 * n


def test_paired_route_keeps_convergence_and_sweep_counts(monkeypatch):
    # 30 seeded r = 2 inputs at the default psi_tol, exactly unitary, and 30
    # perturbed to ||U^H U - I|| ~ 3e-9 (inside the 1e-8 input check), where
    # the identity behind the paired route holds only to that defect
    rng = np.random.default_rng(15)
    counts = []
    for i in range(60):
        m = (2, 3, 4, 6, 8)[i % 5]
        u = haar_random_unitary(RandomSpec(2 * m, 1500 + i))
        if i >= 30:
            noise = rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape)
            u = u + 1.5e-9 * noise / np.linalg.norm(noise)
            assert 1e-9 <= unitarity_residual(u) <= 1e-8
        paired, svd = paired_and_svd_runs(monkeypatch, u, m)
        assert paired.converged == svd.converged
        counts.append((paired.iterations_used, svd.iterations_used))
    assert all(a == b for a, b in counts[:30])
    assert all(abs(a - b) <= 1 for a, b in counts[30:])


@pytest.mark.parametrize("signs", [(1, -1, 1, 1), (1, 1, 1, -1)])
def test_singular_sums_take_the_svd_route_exactly(monkeypatch, signs):
    # (1/sqrt2) [[I, -I], [I, I]] has row sum S1 = 0 and column sum C2 = 0;
    # [[I, I], [I, -I]] / sqrt2 has S2 = 0 and C2 = 0.  At the floor the
    # paired route declines, and the sweep returns the SVD route's factors
    m = polar._PAIRED_POLAR_MIN_M
    p = BlockPartition(2 * m, m)
    u = np.kron(np.reshape(signs, (2, 2)) / np.sqrt(2), np.eye(m))
    sweeps, kernels = [], []
    # the column step's G = U^H Q holds the adjoints of the column sums
    for floor in (m, 10**9):
        monkeypatch.setattr(polar, "_PAIRED_POLAR_MIN_M", floor)
        sweeps.append(sweep_from(u, p))
        kernels.append([polar_unitary_batch(sums) for sums in (row_sums(u, p), _adjoints(col_sums(u, p)))])
    for a, b in zip(*sweeps):
        assert np.array_equal(a, b)
    for (factors, singular), (expected, expected_singular) in zip(*kernels):
        assert np.array_equal(factors, expected) and np.array_equal(singular, expected_singular)
