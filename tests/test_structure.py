import math

import numpy as np
import pytest

from blockdxz import (
    BiunitaryVector,
    BlockPartition,
    IterationConfig,
    Permutation,
    RandomSpec,
    U2Parameters,
    biunitary_from_dxz,
    block_row_sum,
    conjugate_decompose,
    core_to_xu,
    decompose,
    fourier_transform,
    haar_random_unitary,
    is_block_circulant,
    membership,
    normalize_biunitary,
    perm_dxz,
    u2_closed_form,
    u2_factors,
    u2_matrix,
    u2_parameters,
    verify_decomposition,
    xu_from_biunitary,
    xu_to_core,
)
from blockdxz.structure import _fourier_conjugate, identity_plus_core
from refdata import SIGMA_FACTORS_M3, SIGMA_IMAGE

TIGHT = IterationConfig(max_iter=3000, psi_tol=1e-12)


def block_diag(*mats):
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n), dtype=complex)
    pos = 0
    for m in mats:
        out[pos : pos + m.shape[0], pos : pos + m.shape[0]] = m
        pos += m.shape[0]
    return out


def test_membership_identity():
    for m in (1, 2, 3, 6):
        p = BlockPartition(6, m)
        for group in ("DU", "ZU", "XU"):
            assert membership(np.eye(6), p, group, 0.0)


def test_membership_of_printed_core():
    p = BlockPartition(6, 3)
    assert membership(SIGMA_FACTORS_M3[1], p, "XU", 0.0)


def test_membership_block_diagonal_cases():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    mat = block_diag(h, h, h)
    p = BlockPartition(6, 2)
    assert membership(mat, p, "DU", 1e-12)
    assert not membership(mat, p, "ZU", 1e-12)
    assert not membership(mat, p, "XU", 1e-12)
    # not unitary: no group, however block-diagonal
    for group in ("DU", "ZU", "XU"):
        assert not membership(2 * np.eye(6), p, group, 1e-12)
    # unitary with mass off the diagonal blocks: neither DU nor ZU
    swap = Permutation((3, 4, 1, 2, 5, 6)).to_matrix()
    for group in ("DU", "ZU"):
        assert not membership(swap, p, group, 1e-12)


@pytest.mark.parametrize("big", [1e300, 1e200])
def test_membership_rejects_a_matrix_whose_gram_overflows(big):
    mat = np.eye(4, dtype=complex)
    mat[0, 0] = big
    for group in ("DU", "ZU", "XU"):
        assert not membership(mat, BlockPartition(4, 2), group, 1e-8)


def test_membership_rejects_unknown_group():
    with pytest.raises(ValueError):
        membership(np.eye(4), BlockPartition(4, 2), "QU", 1e-8)


def test_xu_to_core_identity():
    p = BlockPartition(6, 2)
    assert np.linalg.norm(xu_to_core(np.eye(6), p) - np.eye(4)) < 1e-12


def test_xu_core_round_trip_through_engine(u6):
    p = BlockPartition(6, 2)
    dec = decompose(u6, 2, TIGHT)
    g = xu_to_core(dec.X, p, 1e-4)
    assert np.linalg.norm(g.conj().T @ g - np.eye(4)) < 1e-4
    assert np.linalg.norm(core_to_xu(g, p) - dec.X) < 1e-6


def test_xu_to_core_matches_direct_conjugation():
    p = BlockPartition(6, 2)
    x = perm_dxz(Permutation(SIGMA_IMAGE), 2).X
    t = fourier_transform(p)
    direct = t.conj().T @ x @ t
    g = xu_to_core(x, p, 1e-10)
    assert np.linalg.norm(g - direct[2:, 2:]) < 1e-12
    assert np.linalg.norm(g.conj().T @ g - np.eye(4)) < 1e-12


@pytest.mark.parametrize("n, m", [(1, 1), (4, 4), (6, 1), (6, 2), (6, 3), (12, 4), (64, 1), (64, 8)])
def test_fourier_conjugate_matches_dense_product(n, m):
    p = BlockPartition(n, m)
    rng = np.random.default_rng(100 * n + m)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    t = fourier_transform(p)
    assert np.linalg.norm(_fourier_conjugate(a, p) - t @ a @ t.conj().T) <= 1e-12 * n
    assert np.linalg.norm(_fourier_conjugate(a, p, inverse=True) - t.conj().T @ a @ t) <= 1e-12 * n


def test_xu_to_core_bound_is_sqrt2_tol():
    # Parseval allows T^H X T to miss I (+) G by sqrt(2) tol, more than tol:
    # column sums e^{+-i eps} I and row sums within sqrt(2) eps of I
    p = BlockPartition(4, 2)
    eps, tol = 1e-9, 1.7e-9
    x = core_to_xu(haar_random_unitary(RandomSpec(2, 1)), p)
    x = x @ np.kron(np.diag([np.exp(1j * eps), np.exp(-1j * eps)]), np.eye(2))
    assert membership(x, p, "XU", tol)
    g = xu_to_core(x, p, tol)
    deviation = np.linalg.norm(_fourier_conjugate(x, p, inverse=True) - identity_plus_core(g, p))
    assert tol < deviation <= math.sqrt(2) * tol + 1e-15


def test_xu_to_core_rejects_non_members(u6):
    with pytest.raises(ValueError):
        xu_to_core(u6, BlockPartition(6, 2), 1e-8)


def test_core_to_xu_examples():
    p = BlockPartition(6, 3)
    assert np.linalg.norm(core_to_xu(np.eye(3), p) - np.eye(6)) < 1e-12
    swap = core_to_xu(np.array([[-1.0]]), BlockPartition(2, 1))
    assert np.linalg.norm(swap - np.array([[0, 1], [1, 0]])) < 1e-12
    with pytest.raises(ValueError):
        core_to_xu(2 * np.eye(3), p)
    with pytest.raises(ValueError, match="does not match"):
        core_to_xu(np.eye(2), p)
    with pytest.raises(ValueError, match="not unitary"):
        core_to_xu(np.diag([1e300, 1.0]), BlockPartition(4, 2))


def test_core_round_trip_random():
    for seed in range(100):
        n, m = [(4, 2), (6, 2), (6, 3), (9, 3), (8, 4)][seed % 5]
        p = BlockPartition(n, m)
        g = haar_random_unitary(RandomSpec(p.q, seed))
        x = core_to_xu(g, p)
        assert membership(x, p, "XU", 1e-10)
        assert np.linalg.norm(core_to_xu(xu_to_core(x, p), p) - x) < 1e-10


def test_is_block_circulant():
    p = BlockPartition(6, 2)
    assert is_block_circulant(np.eye(6), p)
    a = np.diag([1.0, 2.0])
    assert not is_block_circulant(block_diag(a, np.eye(2), np.eye(2)), p)
    rng = np.random.default_rng(4)
    d = block_diag(*(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)))
    t = fourier_transform(p)
    assert is_block_circulant(t @ d @ t.conj().T, p, 1e-10)
    near = t @ d @ t.conj().T
    near[4:6, 2:4] += 1e-6  # one block off its diagonal (2 - 1) by more than tol
    assert not is_block_circulant(near, p, 1e-10)
    # ||M||_F^2 overflows for both, so the default tol must not become inf
    big = np.eye(4)
    big[0, 0] = 1e200
    assert not is_block_circulant(big, BlockPartition(4, 2))
    assert is_block_circulant(1e200 * (t @ d @ t.conj().T), p)


def test_conjugate_identity():
    conj = conjugate_decompose(np.eye(6), 2)
    assert np.linalg.norm(conj.C - np.eye(6)) < 1e-12
    assert np.linalg.norm(conj.A - np.eye(4)) < 1e-12
    assert np.linalg.norm(conj.Y - np.eye(6)) < 1e-12


def test_conjugate_worked_example(u6):
    p = BlockPartition(6, 2)
    conj = conjugate_decompose(u6, 2, TIGHT)
    assert conj.converged
    mid = block_diag(np.eye(2), conj.A)
    # the improvement floor sits near 4e-7: once the measured progress value
    # hits its n^2*eps cancellation floor the stopping rule cannot ask for
    # tighter line sums, whatever psi_tol says
    assert np.linalg.norm(conj.C @ mid @ conj.Y - u6) < 1e-6
    assert is_block_circulant(conj.C, p, 1e-8 * 6)
    assert is_block_circulant(conj.Y, p, 1e-8 * 6)
    assert np.linalg.norm(block_row_sum(conj.Y, p, 1) - np.eye(2)) < 1e-8
    assert np.linalg.norm(conj.A.conj().T @ conj.A - np.eye(4)) < 1e-8
    for mat in (conj.C, conj.Y):
        assert np.linalg.norm(mat.conj().T @ mat - np.eye(6)) < 1e-8


def test_conjugate_reconstruction_below_1e7(u6):
    conj = conjugate_decompose(u6, 2, IterationConfig(max_iter=30_000, psi_tol=1e-15))
    mid = block_diag(np.eye(2), conj.A)
    assert np.linalg.norm(conj.C @ mid @ conj.Y - u6) <= 1e-7


@pytest.mark.parametrize("n, m", [(6, 2), (8, 2), (12, 3), (64, 8)])
def test_conjugate_reconstruction_matches_dense_product(n, m):
    u = haar_random_unitary(RandomSpec(n, 7))
    p = BlockPartition(n, m)
    for cfg in (IterationConfig(max_iter=5), IterationConfig()):
        conj = conjugate_decompose(u, m, cfg)
        dense = np.linalg.norm(conj.C @ identity_plus_core(conj.A, p) @ conj.Y - u)
        assert abs(conj.reconstruction - dense) <= 1e-13 * n


@pytest.mark.parametrize("m", [1, 2, 3])
def test_conjugate_of_a_phase_times_identity(m):
    # psi is blind to the phase, so the inner run stops before its first sweep
    for u in (-np.eye(6), 1j * np.eye(6)):
        conj = conjugate_decompose(u, m)
        assert conj.converged and conj.iterations_used == 0
        assert conj.reconstruction <= 1e-12
        assert np.linalg.norm(conj.A - np.eye(6 - m)) <= 1e-12


def test_conjugate_decompose_rejects_bad_input():
    with pytest.raises(ValueError, match="square"):
        conjugate_decompose(np.eye(6)[:4], 2)


def test_biunitary_identity_decomposition():
    v, w = biunitary_from_dxz(decompose(np.eye(6), 2))
    for blockv, blockw in zip(v.blocks, w.blocks):
        assert np.array_equal(blockv, np.eye(2))
        assert np.array_equal(blockw, np.eye(2))


def test_biunitary_scalar_closed_form():
    # the 2 x 2 closed form yields v = (1, i e^{i(psi-chi)}) and
    # w = (e^{i(phi+theta+psi)}, i e^{i(phi+theta-chi)})
    th, ph, ps, ch = 0.3, 0.7, 1.1, -0.4
    u = u2_matrix(U2Parameters(th, ph, ps, ch))
    v, w = biunitary_from_dxz(u2_closed_form(u))
    expected_v = np.array([1.0, 1j * np.exp(1j * (ps - ch))])
    expected_w = np.array([np.exp(1j * (ph + th + ps)), 1j * np.exp(1j * (ph + th - ch))])
    assert np.linalg.norm(v.stacked.ravel() - expected_v) < 1e-8
    assert np.linalg.norm(w.stacked.ravel() - expected_w) < 1e-8


def test_biunitary_residual_bound(u6):
    dec = decompose(u6, 2, TIGHT)
    v, w = biunitary_from_dxz(dec)
    report = verify_decomposition(u6, dec, 1.0)
    budget = 10 * (report.reconstruction + report.max_line_sum)
    assert np.linalg.norm(u6 @ v.stacked - w.stacked) <= budget
    assert np.linalg.norm(v.blocks[0] - np.eye(2)) < 1e-8


def test_biunitary_vector_validation():
    not_unitary = (np.array([[1.0, 0.0], [0.0, 2.0]]),)
    mixed_size = (np.eye(2), np.eye(3))
    non_square = (np.eye(2)[:1], np.eye(2)[:1])
    non_finite = (np.eye(2), np.full((2, 2), np.nan))
    for blocks in (not_unitary, mixed_size, non_square, non_finite, ()):
        with pytest.raises(ValueError):
            BiunitaryVector(blocks)
    v = BiunitaryVector([np.eye(2)] * 3)
    assert v.r == 3 and v.m == 2
    assert np.linalg.norm(v.stacked.conj().T @ v.stacked - 3 * np.eye(2)) < 1e-12


def test_normalize_biunitary():
    blocks = tuple(haar_random_unitary(RandomSpec(2, 100 + i)) for i in range(3))
    v = BiunitaryVector(blocks)
    w = BiunitaryVector(tuple(haar_random_unitary(RandomSpec(2, 200 + i)) for i in range(3)))
    v2, w2 = normalize_biunitary(v, w)
    assert np.array_equal(v2.blocks[0], np.eye(2))
    v1_inv = np.linalg.inv(blocks[0])
    for i in range(1, 3):
        assert np.linalg.norm(v2.blocks[i] - blocks[i] @ v1_inv) < 1e-12
    # idempotent
    v3, w3 = normalize_biunitary(v2, w2)
    assert np.array_equal(v3.blocks[0], v2.blocks[0])
    assert all(np.linalg.norm(a - b) < 1e-12 for a, b in zip(v3.blocks, v2.blocks))
    assert all(np.linalg.norm(a - b) < 1e-12 for a, b in zip(w3.blocks, w2.blocks))
    # a shared phase disappears entirely
    phased = BiunitaryVector(tuple(np.exp(0.4j) * np.eye(2) for _ in range(3)))
    vp, _ = normalize_biunitary(phased, phased)
    for b in vp.blocks:
        assert np.linalg.norm(b - np.eye(2)) < 1e-12
    with pytest.raises(ValueError, match="matching"):
        normalize_biunitary(v, BiunitaryVector(blocks[:2]))


def test_normalize_preserves_product(u6):
    dec = decompose(u6, 3, TIGHT)
    v, w = biunitary_from_dxz(dec)
    before = np.linalg.norm(u6 @ v.stacked - w.stacked)
    v2, w2 = normalize_biunitary(v, w)
    after = np.linalg.norm(u6 @ v2.stacked - w2.stacked)
    assert after <= 2 * before + 1e-12


def test_xu_from_biunitary_xu_case():
    p = BlockPartition(6, 2)
    x = core_to_xu(haar_random_unitary(RandomSpec(4, 3)), p)
    e = BiunitaryVector((np.eye(2),) * 3)
    a = xu_from_biunitary(x, e, e, 1e-8)
    assert np.linalg.norm(a - x) < 1e-10


def test_xu_from_biunitary_round_trip(u6):
    dec = decompose(u6, 2, TIGHT)
    v, w = normalize_biunitary(*biunitary_from_dxz(dec))
    a = xu_from_biunitary(u6, v, w, 1e-5)
    assert np.linalg.norm(a - dec.X) < 1e-6
    # algebraic inverse relation: diag(W) A diag(I, V_2^-1, ...) = U
    left = block_diag(*w.blocks)
    right = block_diag(np.eye(2), *(np.linalg.inv(b) for b in v.blocks[1:]))
    assert np.linalg.norm(left @ a @ right - u6) < 1e-6


def test_xu_from_biunitary_rejects_bad_pair(u6):
    v = BiunitaryVector((haar_random_unitary(RandomSpec(2, 5)),) * 3)
    w = BiunitaryVector((np.eye(2),) * 3)
    with pytest.raises(ValueError):
        xu_from_biunitary(u6, v, w, 1e-8)  # leading block is not I
    e = BiunitaryVector((np.eye(2),) * 3)
    with pytest.raises(ValueError):
        xu_from_biunitary(u6, e, e, 1e-8)  # U E != E for this input
    with pytest.raises(ValueError, match="matching"):
        xu_from_biunitary(u6, e, BiunitaryVector((np.eye(2),) * 2), 1e-8)


def test_xu_from_biunitary_rejects_non_unitary_u():
    # U = X + K (I - E E^H / r) keeps U E = E, so the pair (E, E) satisfies
    # U V = W, but U is not unitary
    p = BlockPartition(6, 2)
    x = core_to_xu(haar_random_unitary(RandomSpec(4, 3)), p)
    e_stack = np.vstack([np.eye(2)] * 3)
    k = np.random.default_rng(2).standard_normal((6, 6))
    u = x + k @ (np.eye(6) - e_stack @ e_stack.T / 3)
    assert np.linalg.norm(u @ e_stack - e_stack) < 1e-12
    e = BiunitaryVector((np.eye(2),) * 3)
    with pytest.raises(ValueError, match="not unitary"):
        xu_from_biunitary(u, e, e, 1e-8)


def test_u2_parameters_examples():
    params = u2_parameters(np.eye(2))
    assert (params.theta, params.phi, params.psi, params.chi) == (0.0, 0.0, 0.0, 0.0)
    params = u2_parameters(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert abs(params.phi - math.pi / 2) < 1e-15
    assert params.theta == 0.0 and params.psi == 0.0 and abs(params.chi) < 1e-15
    with pytest.raises(ValueError):
        u2_parameters(2 * np.eye(2))
    with pytest.raises(ValueError):
        u2_parameters(np.eye(3))
    with pytest.raises(ValueError, match="not unitary"):
        u2_parameters(np.diag([1e300, 1.0]))


def test_u2_round_trip():
    for seed in range(0, 100_001, 500):
        u = haar_random_unitary(RandomSpec(2, seed))
        assert np.linalg.norm(u2_matrix(u2_parameters(u)) - u) < 1e-10, seed


def test_u2_closed_form_identity_case():
    dec = u2_closed_form(np.eye(2))
    assert np.linalg.norm(dec.D - np.diag([1.0, 1j])) < 1e-15
    assert np.linalg.norm(dec.X - np.eye(2)) < 1e-15
    assert np.linalg.norm(dec.Z - np.diag([1.0, -1j])) < 1e-15


def test_u2_closed_form_known_angles():
    params = U2Parameters(0.3, 0.7, 1.1, -0.4)
    u = u2_matrix(params)
    d, x, z = u2_factors(params)
    assert np.linalg.norm(d @ x @ z - u) < 1e-12
    # the core's line sums are exactly one for any phi
    assert abs(x[0].sum() - 1.0) < 1e-15
    assert abs(x[1].sum() - 1.0) < 1e-15
    assert abs(x[:, 0].sum() - 1.0) < 1e-15


def test_u2_closed_form_always_verifies():
    for seed in range(0, 100_001, 1_000):
        u = haar_random_unitary(RandomSpec(2, seed))
        assert verify_decomposition(u, u2_closed_form(u), 1e-9).passed, seed


def test_conjugate_inconsistency_guard():
    # an exactly-convergent case cannot trip the internal leading-block check
    conj = conjugate_decompose(np.eye(4), 2)
    assert conj.converged
    with pytest.raises(ValueError):
        conjugate_decompose(np.eye(6), 4)
