import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdxz import (
    BlockPartition,
    Permutation,
    RandomSpec,
    as_matrix,
    block,
    block_col_sum,
    block_row_sum,
    dft_matrix,
    fourier_transform,
    haar_random_unitary,
    is_unitary,
    load_matrix,
    perm_dxz,
    save_matrix,
)
from blockdxz.matcore import (
    block_diag,
    block_grid,
    col_sums,
    diag_blocks,
    line_sum_residual,
    off_block_norm,
    row_sums,
    unitarity_residual,
)
from refdata import SIGMA_IMAGE

HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def test_block_partition_fields():
    p = BlockPartition(6, 2)
    assert (p.n, p.m, p.r, p.q) == (6, 2, 3, 4)


@pytest.mark.parametrize("n,m", [(6, 4), (6, 5), (6, 0), (0, 1)])
def test_block_partition_rejects(n, m):
    with pytest.raises(ValueError):
        BlockPartition(n, m)


def test_is_unitary(u6):
    assert is_unitary(np.eye(6), 1e-12)
    assert is_unitary(u6, 1e-12)
    assert not is_unitary(2 * np.eye(2), 1e-12)


def test_is_unitary_needs_square():
    with pytest.raises(ValueError):
        is_unitary(np.ones((2, 3)), 1e-8)


def test_constructors_reject_nonfinite():
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf]]))


def test_block_identity():
    p = BlockPartition(6, 2)
    assert np.array_equal(block(np.eye(6), p, 1, 1), np.eye(2))
    assert np.array_equal(block(np.eye(6), p, 1, 2), np.zeros((2, 2)))


def test_block_of_worked_permutation():
    # the 1 of row 1 sits in column 5: intra position (1, 1) of block (1, 3)
    mat = Permutation(SIGMA_IMAGE).to_matrix()
    p = BlockPartition(6, 2)
    assert np.array_equal(block(mat, p, 1, 3), np.array([[1, 0], [0, 0]]))


def test_block_index_out_of_range():
    p = BlockPartition(6, 2)
    with pytest.raises(ValueError):
        block(np.eye(6), p, 0, 1)
    with pytest.raises(ValueError):
        block(np.eye(6), p, 1, 4)


def test_block_reassembly_exact():
    rng = np.random.default_rng(5)
    for n, m in [(6, 2), (6, 3), (8, 4), (12, 3)]:
        p = BlockPartition(n, m)
        mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rebuilt = np.zeros_like(mat)
        for j in range(1, p.r + 1):
            for k in range(1, p.r + 1):
                rebuilt[(j - 1) * m : j * m, (k - 1) * m : k * m] = block(mat, p, j, k)
        assert np.array_equal(rebuilt, mat)


def test_block_row_sum_of_perm_core():
    dec = perm_dxz(Permutation(SIGMA_IMAGE), 2)
    p = BlockPartition(6, 2)
    for j in range(1, 4):
        assert np.array_equal(block_row_sum(dec.X, p, j), np.eye(2))
        assert np.array_equal(block_col_sum(dec.X, p, j), np.eye(2))


def test_block_row_sum_identity():
    assert np.array_equal(block_row_sum(np.eye(6), BlockPartition(6, 3), 1), np.eye(3))


def test_block_row_sum_scalar_case(u6):
    # first-row sum of the worked matrix: (-8 - 2i) / 12
    total = block_row_sum(u6, BlockPartition(6, 1), 1)
    assert total.shape == (1, 1)
    assert abs(total[0, 0] - (-8 - 2j) / 12) < 1e-15


def test_dft_examples():
    assert np.array_equal(dft_matrix(1), np.array([[1.0]]))
    assert np.linalg.norm(dft_matrix(2) - HADAMARD) < 1e-15
    f3 = dft_matrix(3)
    assert np.linalg.norm(f3.conj().T @ f3 - np.eye(3)) < 1e-14


@pytest.mark.parametrize("r", [64, 512])
def test_dft_phases_stay_accurate_at_large_r(r):
    f = dft_matrix(r)
    assert np.linalg.norm(f.conj().T @ f - np.eye(r)) <= 1e-13
    assert np.abs(f - np.fft.fft(np.eye(r), norm="ortho")).max() <= 1e-14


def test_kronecker_examples():
    # T = F_r (x) I_m: the identity for r = 1, the 2 x 2 DFT's entries times I_m for r = 2
    assert np.array_equal(fourier_transform(BlockPartition(6, 6)), np.eye(6))
    h = np.eye(2) / np.sqrt(2)
    assert np.linalg.norm(fourier_transform(BlockPartition(4, 2)) - np.block([[h, h], [h, -h]])) < 1e-15
    t = fourier_transform(BlockPartition(6, 3))
    assert np.linalg.norm(t.conj().T @ t - np.eye(6)) < 1e-14


@pytest.mark.parametrize("r,m", [(2, 2), (4, 4), (8, 8), (4, 16)])
def test_fourier_kronecker_unitary(r, m):
    t = fourier_transform(BlockPartition(r * m, m))
    assert np.array_equal(t, np.kron(dft_matrix(r), np.eye(m)))
    assert is_unitary(t, 1e-12)


def test_haar_random_unitary():
    single = haar_random_unitary(RandomSpec(1, 3))
    assert abs(abs(single[0, 0]) - 1.0) < 1e-14
    u = haar_random_unitary(RandomSpec(6, 42))
    assert is_unitary(u, 1e-12)
    again = haar_random_unitary(RandomSpec(6, 42))
    assert np.array_equal(u, again)
    assert not np.array_equal(u, haar_random_unitary(RandomSpec(6, 43)))


def test_haar_first_entry_statistics():
    # |u_11|^2 averages 1/n; at n=4 the variance is 3/80, so 3 standard
    # errors over 10^4 samples allow ~0.0058
    samples = 10_000
    total = 0.0
    for seed in range(samples):
        u = haar_random_unitary(RandomSpec(4, seed))
        total += abs(u[0, 0]) ** 2
    assert abs(total / samples - 0.25) < 3 * np.sqrt(3.0 / 80.0 / samples)


@settings(deadline=None, max_examples=40, derandomize=True)
@given(
    seed=st.integers(0, 10_000),
    nm=st.sampled_from([(2, 1), (4, 2), (6, 2), (6, 3), (8, 4), (9, 3), (12, 6)]),
)
def test_line_sum_norm_identity(seed, nm):
    # for unitary input the squared Frobenius norms of the r block row sums
    # (and column sums) add up to n
    n, m = nm
    p = BlockPartition(n, m)
    u = haar_random_unitary(RandomSpec(n, seed))
    rows = sum(np.linalg.norm(block_row_sum(u, p, j)) ** 2 for j in range(1, p.r + 1))
    cols = sum(np.linalg.norm(block_col_sum(u, p, k)) ** 2 for k in range(1, p.r + 1))
    assert abs(rows - n) < 1e-10
    assert abs(cols - n) < 1e-10


@pytest.mark.parametrize("n,m", [(6, 1), (6, 2), (6, 3), (6, 6), (12, 4)])
def test_block_helpers_match_explicit_slicing(n, m):
    p = BlockPartition(n, m)
    r = n // m
    u = haar_random_unitary(RandomSpec(n, 31 + n + m))

    def blk(a, j, k):
        return a[j * m : (j + 1) * m, k * m : (k + 1) * m]

    rows = [sum(blk(u, j, k) for k in range(r)) for j in range(r)]
    cols = [sum(blk(u, j, k) for j in range(r)) for k in range(r)]
    assert row_sums(u, p).shape == col_sums(u, p).shape == (r, m, m)
    np.testing.assert_allclose(row_sums(u, p), rows, rtol=0, atol=1e-14)
    np.testing.assert_allclose(col_sums(u, p), cols, rtol=0, atol=1e-14)
    for j in range(r):
        for k in range(r):
            assert np.array_equal(block_grid(u, p)[j, k], blk(u, j, k))

    worst = max(np.linalg.norm(s - np.eye(m)) for s in rows + cols)
    assert abs(line_sum_residual(u, p) - worst) < 1e-14
    assert line_sum_residual(np.eye(n), p) == 0.0

    off = np.sqrt(sum(np.linalg.norm(blk(u, j, k)) ** 2 for j in range(r) for k in range(r) if j != k))
    assert abs(off_block_norm(u, p) - off) < 1e-13

    stack = np.stack([blk(u, j, j) for j in range(r)])
    assert np.array_equal(diag_blocks(u, p), stack)
    packed = block_diag(stack)
    assert packed.shape == (n, n)
    assert np.array_equal(diag_blocks(packed, p), stack)
    assert off_block_norm(packed, p) == 0.0
    if r > 1:
        packed[0, n - 1] = 0.5j
        assert abs(off_block_norm(packed, p) - 0.5) < 1e-15

    assert unitarity_residual(u) < 1e-13
    assert abs(unitarity_residual(2 * u) - 3 * np.sqrt(n)) < 1e-12


def dense_unitarity_residual(a):
    """||a^H a - I||_F from one complex product, over every slice of a stack."""
    return float(np.linalg.norm(np.conj(np.swapaxes(a, -1, -2)) @ a - np.eye(a.shape[-1])))


def test_unitarity_residual_matches_complex_product_on_both_routes():
    # from n = 128 on the residual comes from real products; below it the
    # complex product itself runs, so the two agree exactly
    eps = 1e-4
    k = np.random.default_rng(2).standard_normal((256, 256))
    cases = [haar_random_unitary(RandomSpec(n, n)) for n in (127, 128, 256, 512)]
    cases.append(np.stack([haar_random_unitary(RandomSpec(128, 1)), np.eye(128) + 1j * eps * (k - k.T)[:128, :128]]))
    # I + i eps K has its error in Im(a^H a), I + eps S in Re(a^H a)
    for n in (128, 256):
        kn = k[:n, :n]
        cases += [np.eye(n) + 1j * eps * (kn - kn.T), np.eye(n) + eps * (kn + kn.T) + 0j]
    for a in cases:
        n = a.shape[-1]
        expected = dense_unitarity_residual(a)
        assert abs(unitarity_residual(a) - expected) <= 1e-13 * n
        if n < 128:
            assert unitarity_residual(a) == expected

    perm = Permutation(tuple(int(v) + 1 for v in np.random.default_rng(3).permutation(256))).to_matrix()
    assert unitarity_residual(perm) == 0.0
    assert unitarity_residual(np.eye(256, dtype=complex)) == 0.0


def test_cmat_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    path = tmp_path / "m.json"
    save_matrix(path, mat)
    assert np.array_equal(load_matrix(path), mat)


def test_cmat_reader_rejections(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    with pytest.raises(ValueError):
        load_matrix(path)
    path.write_text(json.dumps({"rows": 2, "cols": 2, "data": [[[1, 0]]]}))
    with pytest.raises(ValueError):
        load_matrix(path)
    path.write_text(json.dumps({"rows": 1, "cols": 1, "data": [[[1e999, 0]]]}))
    with pytest.raises(ValueError):
        load_matrix(path)
    path.write_text(json.dumps({"rows": 1, "cols": 1}))
    with pytest.raises(ValueError):
        load_matrix(path)
