import numpy as np
import pytest

from blockdxz import PolarConfig, RandomSpec, haar_random_unitary, polar_oracle, polar_unitary
from blockdxz.polar import polar_unitary_batch


def random_complex(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_unitary_input_is_fixed_point():
    for seed in range(20):
        u = haar_random_unitary(RandomSpec(3, seed))
        for iters in (1, 2, 10):
            factor, singular = polar_unitary(u, PolarConfig(newton_iters=iters))
            assert not singular
            assert np.linalg.norm(factor - u) < 1e-12


def test_positive_diagonal_gives_identity():
    factor, singular = polar_unitary(np.diag([2.0, 3.0]))
    assert not singular
    assert np.linalg.norm(factor - np.eye(2)) < 1e-12


def test_known_factor_cross_checked_against_oracle():
    mat = np.array([[0.0, 2.0], [1.0, 0.0]])
    expected = np.array([[0.0, 1.0], [1.0, 0.0]])
    factor, _ = polar_unitary(mat)
    assert np.linalg.norm(factor - expected) < 1e-12
    oracle, _ = polar_oracle(mat)
    assert np.linalg.norm(oracle - expected) < 1e-12


def test_oracle_agreement_on_random_matrices():
    for seed in range(1000):
        mat = random_complex(3, seed)
        newton, s1 = polar_unitary(mat)
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
    cfg = PolarConfig()
    for seed in range(50):
        mat = random_complex(4, seed)
        factor, singular = polar_unitary(mat, cfg)
        assert not singular
        h = factor.conj().T @ mat
        assert np.linalg.norm(h - h.conj().T) < 1e-6
        assert np.linalg.eigvalsh(0.5 * (h + h.conj().T)).min() > 0


def test_recovers_unitary_factor_of_polar_product():
    rng = np.random.default_rng(2)
    cfg = PolarConfig()
    for seed in range(50):
        phi = haar_random_unitary(RandomSpec(3, seed))
        # positive definite with condition number <= 1e3
        evals = np.concatenate([[1.0, 1e-3], rng.uniform(1e-3, 1.0, 1)])
        basis = haar_random_unitary(RandomSpec(3, seed + 5000))
        pos = basis @ np.diag(evals) @ basis.conj().T
        factor, _ = polar_unitary(phi @ pos, cfg)
        assert np.linalg.norm(factor - phi) < 1e-8


def test_left_and_right_agree():
    # one factor serves M = Phi P and M = Q Phi: both P = Phi^H M and
    # Q = M Phi^H come out Hermitian positive definite
    mat = random_complex(3, 9)
    factor, _ = polar_unitary(mat)
    for h in (factor.conj().T @ mat, mat @ factor.conj().T):
        assert np.linalg.norm(h - h.conj().T) < 1e-12
        assert np.linalg.eigvalsh(0.5 * (h + h.conj().T)).min() > 0


def test_singular_inputs():
    factor, singular = polar_unitary(np.zeros((2, 2)))
    assert singular
    assert np.array_equal(factor, np.eye(2))
    factor, singular = polar_unitary(np.diag([1.0, 1e-12]))
    assert singular
    factor, singular = polar_unitary(np.diag([1.0, 1e-12]), cfg=PolarConfig(sing_tol=1e-14))
    assert not singular


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        polar_unitary(np.ones((2, 3)))


def test_factor_is_unitary_even_when_badly_conditioned():
    # ten plain Newton sweeps are not enough at sigma_min ~ 5e-3; the result
    # must still honor the unitarity contract
    mat = np.diag([1.0, 5e-3])
    factor, singular = polar_unitary(mat)
    assert not singular
    assert np.linalg.norm(factor.conj().T @ factor - np.eye(2)) < 1e-8


def test_batch_matches_scalar_path():
    mats = np.stack([random_complex(2, seed) for seed in range(12)])
    mats[3] = 0.0
    factors, singular = polar_unitary_batch(mats)
    for i in range(12):
        single, s = polar_unitary(mats[i])
        assert singular[i] == s
        assert np.linalg.norm(factors[i] - single) < 1e-12


def svd_route(z, sing_tol):
    """The general kernel written out for 1 x 1 blocks: W V^H from an SVD,
    identity where the singular value is below sing_tol."""
    w, svals, vh = np.linalg.svd(np.asarray(z, dtype=complex).reshape(-1, 1, 1))
    singular = svals[:, -1] < sing_tol
    factors = w @ vh
    factors[singular] = 1.0
    return factors, singular


def assert_matches_svd_route(z, sing_tol):
    factors, singular = polar_unitary_batch(np.reshape(z, (-1, 1, 1)), PolarConfig(sing_tol=sing_tol))
    expected, expected_singular = svd_route(z, sing_tol)
    assert factors.shape == expected.shape
    assert np.abs(factors - expected).max() <= 1e-15
    assert np.array_equal(singular, expected_singular)
    return factors, singular


def test_scalar_blocks_match_svd_route_on_random_entries():
    rng = np.random.default_rng(5)
    scales = 10.0 ** rng.uniform(-8, 8, 500)
    z = scales * (rng.standard_normal(500) + 1j * rng.standard_normal(500))
    for sing_tol in (0.0, 1e-10, 1e-3):
        assert_matches_svd_route(z, sing_tol)


def test_scalar_blocks_flag_moduli_either_side_of_sing_tol():
    tol = 1e-10
    phases = np.exp(1j * np.linspace(-3, 3, 8))
    z = np.concatenate([tol * (1 + 1e-9) * phases, tol * (1 - 1e-9) * phases])
    factors, singular = assert_matches_svd_route(z, tol)
    assert not singular[:8].any() and singular[8:].all()
    assert np.array_equal(factors[8:, 0, 0], np.ones(8))


def test_scalar_blocks_with_zero_and_subnormal_entries():
    z = np.array([0.0, 5e-324, 3e-320 - 4e-320j, -1e-310j, 0.6 - 0.8j])
    for sing_tol in (0.0, 1e-10):
        factors, _ = assert_matches_svd_route(z, sing_tol)
        assert np.abs(np.abs(factors) - 1).max() <= 1e-15


def test_scalar_block_whose_modulus_overflows_keeps_its_phase():
    # |z| overflows to inf here; the SVD route returns 1, the phase is (1 + i)/sqrt(2)
    factors, singular = polar_unitary_batch(np.full((2, 1, 1), 1.5e308 + 1.5e308j))
    assert np.abs(factors - (1 + 1j) / np.sqrt(2)).max() <= 1e-15
    assert not singular.any()


def test_scalar_zero_block_gets_factor_one_without_tolerance():
    factors, singular = polar_unitary_batch(np.zeros((3, 1, 1)), PolarConfig(sing_tol=0.0))
    assert np.array_equal(factors, np.ones((3, 1, 1), dtype=complex))
    assert not singular.any()


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf), complex(1, np.nan)])
def test_batch_rejects_non_finite_entries(m, bad):
    mats = np.tile(np.eye(m, dtype=complex), (3, 1, 1))
    mats[1, 0, -1] = bad
    with pytest.raises(ValueError, match="finite"):
        polar_unitary_batch(mats)


@pytest.mark.parametrize("kwargs", [{"newton_iters": 0}, {"newton_iters": -3}, {"sing_tol": -1e-10},
                                    {"sing_tol": float("nan")}, {"sing_tol": float("inf")}])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        PolarConfig(**kwargs)
