from itertools import permutations

import numpy as np
import pytest

from blockdxz import (
    BlockPartition,
    Permutation,
    RandomSpec,
    complex_perm_dxz,
    edge_color,
    haar_random_unitary,
    membership,
    perm_dxz,
    psi,
)
from refdata import SIGMA_IMAGE


def intra_positions_are_diagonal(x, m):
    n = x.shape[0]
    for a, b in zip(*np.nonzero(x)):
        if a % m != b % m:
            return False
    return True


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))
    with pytest.raises(ValueError):
        Permutation((True, 2))
    with pytest.raises(ValueError):
        Permutation.from_string("1 2 x")
    perm = Permutation.from_string("5 1 2 4 6 3")
    assert perm.image == SIGMA_IMAGE
    assert perm.n == 6
    mat = perm.to_matrix()
    assert mat[0, 4] == 1.0 and mat.sum() == 6.0


def test_edge_color_identity():
    coloring = edge_color(Permutation((1, 2, 3, 4, 5, 6)), 2)
    for j in range(1, 7):
        assert coloring[j] == (j - 1) % 2


def proper_coloring(perm, m, coloring):
    r = perm.n // m
    rows = {b: set() for b in range(r)}
    cols = {b: set() for b in range(r)}
    for j, k in enumerate(perm.image):
        c = coloring[j + 1]
        assert 0 <= c < m
        rows[j // m].add(c)
        cols[(k - 1) // m].add(c)
    return all(len(s) == m for s in rows.values()) and all(len(s) == m for s in cols.values())


@pytest.mark.parametrize("m", [2, 3])
def test_edge_color_worked_example(m):
    perm = Permutation(SIGMA_IMAGE)
    assert proper_coloring(perm, m, edge_color(perm, m))


def test_edge_color_proper_on_random_permutations():
    rng = np.random.default_rng(77)
    for _ in range(25):
        image = tuple(int(v) + 1 for v in rng.permutation(12))
        perm = Permutation(image)
        for m in (2, 3, 4, 6):
            assert proper_coloring(perm, m, edge_color(perm, m))


def test_edge_color_long_augmenting_paths():
    # at r = 2048 blocks an augmenting path runs deeper than Python's
    # recursion limit; the factors of perm_dxz would be three dense 4096^2
    # complex matrices, so only the coloring is checked
    perm = Permutation(tuple(int(v) for v in 1 + np.random.default_rng(2).permutation(4096)))
    assert proper_coloring(perm, 2, edge_color(perm, 2))


def test_perm_dxz_identity():
    dec = perm_dxz(Permutation((1, 2, 3, 4, 5, 6)), 2)
    for factor in (dec.D, dec.X, dec.Z):
        assert np.array_equal(factor, np.eye(6))


def assert_exact_decomposition(perm, m, dec):
    p = BlockPartition(perm.n, m)
    assert np.array_equal(dec.D @ dec.X @ dec.Z, perm.to_matrix())
    assert membership(dec.D, p, "DU", 0.0)
    assert membership(dec.Z, p, "ZU", 0.0)
    assert membership(dec.X, p, "XU", 0.0)
    assert intra_positions_are_diagonal(dec.X, m)
    assert psi(dec.X, p) == 0.0


@pytest.mark.parametrize("m", [2, 3])
def test_perm_dxz_worked_example(m):
    perm = Permutation(SIGMA_IMAGE)
    assert_exact_decomposition(perm, m, perm_dxz(perm, m))


def test_perm_dxz_exhaustive_n4():
    for image in permutations(range(1, 5)):
        perm = Permutation(image)
        assert_exact_decomposition(perm, 2, perm_dxz(perm, 2))


def test_factor_group_structure():
    # D's diagonal blocks are intra-block permutations; X is one block-level
    # permutation per color; Z matches D's form with leading block I
    perm = Permutation(SIGMA_IMAGE)
    for m in (2, 3):
        dec = perm_dxz(perm, m)
        r = 6 // m
        for i in range(r):
            for factor in (dec.D, dec.Z):
                sub = factor[i * m : (i + 1) * m, i * m : (i + 1) * m].real
                assert (sub.sum(axis=0) == 1).all() and (sub.sum(axis=1) == 1).all()
        assert np.array_equal(dec.Z[:m, :m], np.eye(m))
        for c in range(m):
            level = dec.X.real[c::m, c::m]
            assert (level.sum(axis=0) == 1).all() and (level.sum(axis=1) == 1).all()


def test_complex_perm_diagonal_input():
    rng = np.random.default_rng(6)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
    u = np.diag(phases)
    dec = complex_perm_dxz(u, 2)
    assert np.array_equal(dec.D, u)
    assert np.array_equal(dec.X, np.eye(6))
    assert np.array_equal(dec.Z, np.eye(6))


def test_complex_perm_scalar_phase():
    perm = Permutation(SIGMA_IMAGE)
    u = 1j * perm.to_matrix()
    dec = complex_perm_dxz(u, 2)
    plain = perm_dxz(perm, 2)
    assert np.linalg.norm(dec.D - 1j * plain.D) < 1e-12
    assert np.linalg.norm(dec.D @ dec.X @ dec.Z - u) < 1e-12


def test_complex_perm_random_phases():
    from blockdxz import verify_decomposition

    rng = np.random.default_rng(13)
    perm = Permutation(SIGMA_IMAGE)
    u = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))[:, None] * perm.to_matrix()
    dec = complex_perm_dxz(u, 3)
    assert verify_decomposition(u, dec, 1e-12).passed


def test_complex_perm_rejects_bad_input():
    with pytest.raises(ValueError):
        complex_perm_dxz(haar_random_unitary(RandomSpec(6, 1)), 2)
    with pytest.raises(ValueError):
        complex_perm_dxz(0.5 * Permutation(SIGMA_IMAGE).to_matrix(), 2)
    with pytest.raises(ValueError, match="square"):
        complex_perm_dxz(np.eye(6)[:4], 2)


def test_perm_dxz_rejects_a_bad_coloring(monkeypatch):
    # a coloring that sends two ones of a block row to one intra position
    # breaks D X Z = P; the check is an explicit raise, kept under python -O
    import blockdxz.permdecomp as permdecomp

    monkeypatch.setattr(permdecomp, "edge_color", lambda perm, m: {j: 0 for j in range(1, perm.n + 1)})
    with pytest.raises(RuntimeError):
        perm_dxz(Permutation(SIGMA_IMAGE), 2)
