import numpy as np
import pytest

from blockdxz import BlockPartition, PolarConfig, RandomSpec, haar_random_unitary
from blockdxz.matcore import _adjoints, block_diag, col_sums, row_sums, unitarity_residual
from blockdxz.polar import _PAIR_GRAM_TOL, _PAIRED_POLAR_MIN_M, _SING_TOL, _polar_pair, polar_unitary_batch
from refdata import polar_oracle


def random_complex(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_unitary_input_is_fixed_point():
    for seed in range(20):
        u = haar_random_unitary(RandomSpec(3, seed))
        (factor,), (singular,) = polar_unitary_batch(u[None])
        assert not singular
        assert np.linalg.norm(factor - u) < 1e-12


def test_positive_diagonal_gives_identity():
    (factor,), (singular,) = polar_unitary_batch(np.diag([2.0, 3.0])[None])
    assert not singular
    assert np.linalg.norm(factor - np.eye(2)) < 1e-12


def test_known_factor_cross_checked_against_oracle():
    mat = np.array([[0.0, 2.0], [1.0, 0.0]])
    expected = np.array([[0.0, 1.0], [1.0, 0.0]])
    (factor,), _ = polar_unitary_batch(mat[None])
    assert np.linalg.norm(factor - expected) < 1e-12
    oracle, _ = polar_oracle(mat)
    assert np.linalg.norm(oracle - expected) < 1e-12


def test_oracle_agreement_on_random_matrices():
    for seed in range(1000):
        mat = random_complex(3, seed)
        (newton,), (s1,) = polar_unitary_batch(mat[None])
        oracle, s2 = polar_oracle(mat)
        assert not s1 and not s2
        assert np.linalg.norm(newton - oracle) < 1e-6


def test_oracle_examples():
    factor, _ = polar_oracle(np.eye(3))
    assert np.linalg.norm(factor - np.eye(3)) < 1e-14
    phase = np.exp(1j * np.pi / 3)
    factor, _ = polar_oracle(phase * np.eye(2))
    assert np.linalg.norm(factor - phase * np.eye(2)) < 1e-14


def test_hermitian_positive_residue():
    # Phi^H M must come out Hermitian positive definite
    for seed in range(50):
        mat = random_complex(4, seed)
        (factor,), (singular,) = polar_unitary_batch(mat[None])
        assert not singular
        h = factor.conj().T @ mat
        assert np.linalg.norm(h - h.conj().T) < 1e-6
        assert np.linalg.eigvalsh(0.5 * (h + h.conj().T)).min() > 0


def test_recovers_unitary_factor_of_polar_product():
    rng = np.random.default_rng(2)
    for seed in range(50):
        phi = haar_random_unitary(RandomSpec(3, seed))
        # positive definite with condition number <= 1e3
        evals = np.concatenate([[1.0, 1e-3], rng.uniform(1e-3, 1.0, 1)])
        basis = haar_random_unitary(RandomSpec(3, seed + 5000))
        pos = basis @ np.diag(evals) @ basis.conj().T
        (factor,), _ = polar_unitary_batch((phi @ pos)[None])
        assert np.linalg.norm(factor - phi) < 1e-8


def test_left_and_right_agree():
    # one factor serves M = Phi P and M = Q Phi: both P = Phi^H M and
    # Q = M Phi^H come out Hermitian positive definite
    mat = random_complex(3, 9)
    (factor,), _ = polar_unitary_batch(mat[None])
    for h in (factor.conj().T @ mat, mat @ factor.conj().T):
        assert np.linalg.norm(h - h.conj().T) < 1e-12
        assert np.linalg.eigvalsh(0.5 * (h + h.conj().T)).min() > 0


def test_singular_inputs():
    (factor,), (singular,) = polar_unitary_batch(np.zeros((2, 2))[None])
    assert singular
    assert np.array_equal(factor, np.eye(2))
    (factor,), (singular,) = polar_unitary_batch(np.diag([1.0, 1e-12])[None])
    assert singular


def test_factor_is_unitary_even_when_badly_conditioned():
    # ten plain Newton sweeps are not enough at sigma_min ~ 5e-3; the result
    # must still honor the unitarity contract
    mat = np.diag([1.0, 5e-3])
    (factor,), (singular,) = polar_unitary_batch(mat[None])
    assert not singular
    assert np.linalg.norm(factor.conj().T @ factor - np.eye(2)) < 1e-8


def test_batch_matches_scalar_path():
    mats = np.stack([random_complex(2, seed) for seed in range(12)])
    mats[3] = 0.0
    factors, singular = polar_unitary_batch(mats)
    for i in range(12):
        (single,), (s,) = polar_unitary_batch(mats[i][None])
        assert singular[i] == s
        assert np.linalg.norm(factors[i] - single) < 1e-12


def svd_route(mats):
    """The general kernel written out: W V^H from an SVD of each block,
    identity where its smallest singular value is below _SING_TOL."""
    w, svals, vh = np.linalg.svd(np.asarray(mats, dtype=complex))
    singular = svals[:, -1] < _SING_TOL
    factors = w @ vh
    factors[singular] = np.eye(w.shape[-1])
    return factors, singular


def assert_matches_svd_route(mats, tol=1e-15):
    factors, singular = polar_unitary_batch(mats)
    expected, expected_singular = svd_route(mats)
    assert factors.shape == expected.shape
    assert np.abs(factors - expected).max() <= tol
    assert np.array_equal(singular, expected_singular)
    return factors, singular


def scalar_blocks(z):
    return np.reshape(z, (-1, 1, 1))


def test_scalar_blocks_match_svd_route_on_random_entries():
    rng = np.random.default_rng(5)
    scales = 10.0 ** rng.uniform(-8, 8, 500)
    z = scales * (rng.standard_normal(500) + 1j * rng.standard_normal(500))
    assert_matches_svd_route(scalar_blocks(z))


def test_scalar_blocks_flag_moduli_either_side_of_sing_tol():
    tol = _SING_TOL
    phases = np.exp(1j * np.linspace(-3, 3, 8))
    z = np.concatenate([tol * (1 + 1e-9) * phases, tol * (1 - 1e-9) * phases])
    factors, singular = assert_matches_svd_route(scalar_blocks(z))
    assert not singular[:8].any() and singular[8:].all()
    assert np.array_equal(factors[8:, 0, 0], np.ones(8))


def test_scalar_blocks_with_zero_and_subnormal_entries():
    z = np.array([0.0, 5e-324, 3e-320 - 4e-320j, -1e-310j, 0.6 - 0.8j])
    factors, _ = assert_matches_svd_route(scalar_blocks(z))
    assert np.abs(np.abs(factors) - 1).max() <= 1e-15


def haar_pairs(count, seed):
    """count Haar unitaries W and V, 2 x 2, as two (count, 2, 2) stacks."""
    return (np.stack([haar_random_unitary(RandomSpec(2, 2 * count * seed + 2 * i + k)) for i in range(count)])
            for k in (0, 1))


def with_singular_values(w, sigmas, v):
    """W diag(sigmas) V^H per block."""
    return w @ (np.reshape(sigmas, (1, -1, 1)) * _adjoints(v))


def test_two_by_two_blocks_match_svd_route_on_random_entries():
    rng = np.random.default_rng(5)
    scales = 10.0 ** rng.uniform(-8, 8, (500, 1, 1))
    mats = scales * (rng.standard_normal((500, 2, 2)) + 1j * rng.standard_normal((500, 2, 2)))
    _, singular = assert_matches_svd_route(mats, tol=1e-14)
    assert not singular.any()


def test_two_by_two_blocks_flag_as_the_svd_route_either_side_of_sing_tol():
    # the closed form's screen |det| > tol (s1 + s2) declines s1 = s2 =
    # 1.5e-10 (s1 s2 = 2.25e-20 <= 3e-20), and the SVD route decides
    w, v = haar_pairs(200, 1)
    _, singular = assert_matches_svd_route(with_singular_values(w, [1.5e-10, 1.5e-10], v), tol=1e-14)
    assert not singular.any()
    # a margin of 1e-6 around the tolerance is 1e-16, below the SVD's own
    # error in s_min (about eps s_max) once W and V mix the entries, so these
    # blocks are unitary monomials: phases on the diagonal or the anti-diagonal
    rng = np.random.default_rng(2)
    phases = np.exp(2j * np.pi * rng.uniform(size=(2, 64, 2)))
    w, v = (np.einsum("ki,ij->kij", ph, np.eye(2)) for ph in phases)
    w[::2] = w[::2, ::-1]
    for sigma, flagged in ((_SING_TOL * (1 + 1e-6), False), (_SING_TOL * (1 - 1e-6), True)):
        _, singular = assert_matches_svd_route(with_singular_values(w, [1.0, sigma], v))
        assert (singular == flagged).all()
    # with Haar W and V the margin must exceed that error
    w, v = haar_pairs(200, 2)
    for sigma, flagged in ((_SING_TOL * (1 + 1e-3), False), (_SING_TOL * (1 - 1e-3), True)):
        _, singular = assert_matches_svd_route(with_singular_values(w, [1.0, sigma], v), tol=1e-5)
        assert (singular == flagged).all()


@pytest.mark.parametrize("m", [1, 2])
def test_stack_with_a_zero_slice_takes_the_svd_route_exactly(m):
    # the phase and closed-form routes flag nothing: a stack that may hold a
    # singular slice is the SVD route's, factors and flags alike
    for seed in range(50):
        rng = np.random.default_rng(seed)
        mats = rng.standard_normal((6, m, m)) + 1j * rng.standard_normal((6, m, m))
        mats[2] = 0.0
        factors, singular = polar_unitary_batch(mats)
        expected, expected_singular = svd_route(mats)
        assert np.array_equal(factors, expected)
        assert np.array_equal(singular, expected_singular)
        assert np.array_equal(singular, np.arange(6) == 2)


def test_two_by_two_stack_the_screen_declines_takes_the_svd_route_exactly():
    w, v = haar_pairs(200, 1)
    mats = with_singular_values(w, [1.5e-10, 1.5e-10], v)
    factors, singular = polar_unitary_batch(mats)
    expected, expected_singular = svd_route(mats)
    assert np.array_equal(factors, expected)
    assert np.array_equal(singular, expected_singular) and not singular.any()


def test_two_by_two_zero_subnormal_and_rank_one_blocks_get_the_identity():
    x, y = random_complex(2, 3)
    mats = np.stack([
        np.zeros((2, 2)),
        np.full((2, 2), 5e-324),
        np.array([[3e-320 - 4e-320j, 0], [1e-310j, 5e-324]]),
        np.outer(x, y.conj()),
        1e-200 * np.outer(x, y.conj()),
    ]).astype(complex)
    factors, singular = assert_matches_svd_route(mats)
    assert singular.all()
    assert np.array_equal(factors, np.tile(np.eye(2), (5, 1, 1)))


def test_two_by_two_factor_stays_unitary_down_to_the_sing_tol():
    # an error in the phase of det M only rotates the factor: measured at
    # most 6.1 eps per block over 20,000 Haar blocks per s_min from 1 to
    # 1e-10, against 13.8 eps for the SVD route's W V^H
    eps = np.finfo(float).eps
    w, v = haar_pairs(500, 3)
    for sigma in (1.0, 1e-2, 1e-4, 1e-6, 1e-8, 2e-10):
        factors, singular = polar_unitary_batch(with_singular_values(w, [1.0, sigma], v))
        assert not singular.any()
        gram = _adjoints(factors) @ factors - np.eye(2)
        assert np.linalg.norm(gram, axis=(1, 2)).max() <= 8 * eps
        # the polar factor of a complex block is conditioned like 1 / s_min
        assert np.abs(factors - w @ _adjoints(v)).max() <= 1e-15 / sigma


@pytest.mark.parametrize("kwargs", [{"newton_iters": v} for v in (0, -3, float("nan"), float("inf"), 2.5, True)])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        PolarConfig(**kwargs)


def haar_iterate(n, seed, sweeps=2):
    """A Haar unitary after a few sweeps at r = 2, as the paired route sees it."""
    from blockdxz import IterationConfig, decompose

    return decompose(haar_random_unitary(RandomSpec(n, seed)), n // 2, IterationConfig(max_iter=sweeps)).X


def paired_line_sum_factors(x, p):
    """_polar_pair of the row sums and, on adjoints, of the column sums."""
    rows = _polar_pair(row_sums(x, p))
    cols = _polar_pair(_adjoints(col_sums(x, p)))
    return rows, None if cols is None else _adjoints(cols)


@pytest.mark.parametrize("n", [32, 128, 256])
def test_pair_matches_batch_on_haar_iterates(n):
    p = BlockPartition(n, n // 2)
    x = haar_iterate(n, n)
    for sums, paired in zip((row_sums(x, p), col_sums(x, p)), paired_line_sum_factors(x, p)):
        expected, singular = svd_route(sums)
        assert not singular.any()
        assert paired is not None
        assert np.linalg.norm(paired - expected, axis=(1, 2)).max() <= 1e-12 * n
        assert unitarity_residual(paired[0]) <= 1e-13 * n and unitarity_residual(paired[1]) <= 1e-13 * n


def test_kernel_takes_the_pair_from_its_floor_on():
    # the kernel picks the route from the stack's shape: a (2, m, m) stack
    # takes the paired factors from m = _PAIRED_POLAR_MIN_M on, and the SVD
    # of each block below it
    for m, pair in ((_PAIRED_POLAR_MIN_M, True), (_PAIRED_POLAR_MIN_M - 1, False)):
        p = BlockPartition(2 * m, m)
        x = haar_iterate(2 * m, m)
        for sums in (row_sums(x, p), _adjoints(col_sums(x, p))):
            factors, singular = polar_unitary_batch(sums)
            expected, expected_singular = (_polar_pair(sums), np.zeros(2, dtype=bool)) if pair else svd_route(sums)
            assert np.array_equal(factors, expected)
            assert np.array_equal(singular, expected_singular) and not singular.any()


def cosine_sine_unitary(m, sigma, seed):
    """diag(A1, A2) [[C, -S], [S, C]] diag(B, B)^H with Haar A1, A2, B: its
    row sums A1 (C - S) B^H and A2 (C + S) B^H have the singular values
    |cos t -+ sin t|, and one angle t puts sigma among those of the second."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0, np.pi / 2, m)
    theta[0] = np.arcsin(sigma / np.sqrt(2)) - np.pi / 4
    c, s = np.diag(np.cos(theta)), np.diag(np.sin(theta))
    a1, a2, b = (haar_random_unitary(RandomSpec(m, 3 * seed + i)) for i in range(3))
    return block_diag(np.stack((a1, a2))) @ np.block([[c, -s], [s, c]]) @ block_diag(np.stack((b, b))).conj().T


def test_pair_on_near_singular_sums_stays_within_its_gram_bound():
    # a returned Phi2 lies within defect / 2 of the exact factor to first
    # order, and the defect is at most _PAIR_GRAM_TOL (1.5e-8); the SVD
    # route's own error, ~eps / sigma, is far below that.  Measured at
    # m = 32: 1e-11 at sigma = 1e-3, 1e-9 at 1e-5, 5.7e-9 at 1e-6, where
    # the first seeds decline; every seed declines from sigma = 1e-9 on
    m = 32
    p = BlockPartition(2 * m, m)
    taken = {}
    for sigma in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
        for seed in range(5):
            sums = row_sums(cosine_sine_unitary(m, sigma, seed), p)
            assert abs(np.linalg.svd(sums[1], compute_uv=False)[-1] - sigma) <= 1e-14
            paired = _polar_pair(sums)
            taken[sigma, seed] = paired is not None
            if paired is not None:
                expected, _ = svd_route(sums)
                assert np.linalg.norm(paired - expected, axis=(1, 2)).max() <= _PAIR_GRAM_TOL
                assert unitarity_residual(paired) <= 1e-13 * m
    assert all(taken[1e-3, seed] for seed in range(5))
    assert not any(taken[1e-9, seed] for seed in range(5))


def test_pair_declines_singular_and_non_finite_sums():
    m = 4
    eye = np.eye(m, dtype=complex)
    for sums in (np.stack((0 * eye, np.sqrt(2) * eye)), np.stack((np.sqrt(2) * eye, 0 * eye))):
        assert _polar_pair(sums) is None
    # NaN in S2 gives NaN norms; in S1, inf gives NaN singular values and
    # NaN makes the SVD raise
    for block, bad in ((1, np.nan), (0, np.inf), (0, np.nan)):
        sums = np.stack((eye, eye))
        sums[block, 0, 1] = bad
        assert _polar_pair(sums) is None


def test_pair_declines_sums_whose_gram_one_step_cannot_clean():
    # S1 = S2 = I keep S1^H S1 + S2^H S2 = 2I; an off-diagonal 1e-7 in S2
    # breaks it, so Y = S2 V has a Gram defect of ~1e-7, past the bound
    m = 3
    sums = np.stack((np.eye(m), np.eye(m))).astype(complex)
    assert np.abs(_polar_pair(sums) - sums).max() <= 1e-15
    sums[1, 0, 1] = 1e-7
    assert _polar_pair(sums) is None
