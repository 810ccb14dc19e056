import json
import math
import mmap
import os
import re
import tracemalloc
import types

import numpy as np
import pytest

from blockdxz import (
    BlockPartition,
    Permutation,
    RandomSpec,
    as_matrix,
    block_col_sum,
    block_row_sum,
    decompose,
    fourier_transform,
    haar_random_unitary,
    load_matrix,
    perm_dxz,
    save_matrix,
)
from blockdxz import matcore
from blockdxz.matcore import (
    _writer_layout_numbers,
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


@pytest.mark.parametrize("n,m", [(6, 4), (6, 5), (6, 0), (0, 1), (True, 1), (4, True)])
def test_block_partition_rejects(n, m):
    with pytest.raises(ValueError):
        BlockPartition(n, m)


def test_is_unitary(u6):
    assert unitarity_residual(np.eye(6)) <= 1e-12
    assert unitarity_residual(u6) <= 1e-12
    assert unitarity_residual(2 * np.eye(2)) > 1e-12


def test_constructors_reject_nonfinite():
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf]]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[1, np.nan]], dtype=complex))
    for shape in ((3,), (2, 2, 2), (0, 3)):
        with pytest.raises(ValueError, match="2-D"):
            as_matrix(np.ones(shape))


def test_as_matrix_without_copy():
    a = np.eye(3, dtype=complex)
    assert as_matrix(a) is a
    # every other input is converted to a C-contiguous complex128 array
    for values in (np.asfortranarray(a + 1j * np.tri(3)), np.eye(3), [[1, 2], [3, 4]]):
        b = as_matrix(values)
        assert b.dtype == complex and b.flags.c_contiguous
        assert np.array_equal(b, np.asarray(values))


def test_block_index_out_of_range():
    p = BlockPartition(6, 2)
    for j in (0, 4):
        with pytest.raises(ValueError, match="block row"):
            block_row_sum(np.eye(6), p, j)
        with pytest.raises(ValueError, match="block column"):
            block_col_sum(np.eye(6), p, j)


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


def dft(r):
    """F_r, the unitary r x r DFT: T for blocks of side 1."""
    return fourier_transform(BlockPartition(r, 1))


def test_dft_examples():
    assert np.array_equal(dft(1), np.array([[1.0]]))
    assert np.linalg.norm(dft(2) - HADAMARD) < 1e-15
    f3 = dft(3)
    assert np.linalg.norm(f3.conj().T @ f3 - np.eye(3)) < 1e-14
    with pytest.raises(ValueError):
        dft(0)


@pytest.mark.parametrize("r", [64, 512])
def test_dft_phases_stay_accurate_at_large_r(r):
    f = dft(r)
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
    assert np.array_equal(t, np.kron(dft(r), np.eye(m)))
    assert unitarity_residual(t) <= 1e-12


def test_haar_random_unitary():
    single = haar_random_unitary(RandomSpec(1, 3))
    assert abs(abs(single[0, 0]) - 1.0) < 1e-14
    u = haar_random_unitary(RandomSpec(6, 42))
    assert unitarity_residual(u) <= 1e-12
    again = haar_random_unitary(RandomSpec(6, 42))
    assert np.array_equal(u, again)
    assert not np.array_equal(u, haar_random_unitary(RandomSpec(6, 43)))
    with pytest.raises(ValueError):
        haar_random_unitary(RandomSpec(0, 1))


@pytest.mark.parametrize("n,seed", [(0, 1), (2.5, 0), (2.0, 0), (float("inf"), 0), (3, 1.5), (3, -1), (3, None),
                                    (True, 0), (3, False)])
def test_random_spec_rejects(n, seed):
    with pytest.raises(ValueError):
        RandomSpec(n, seed)


def test_haar_first_entry_statistics():
    # |u_11|^2 averages 1/n; at n=4 the variance is 3/80, so 3 standard
    # errors over 10^4 samples allow ~0.0058
    samples = 10_000
    total = 0.0
    for seed in range(samples):
        u = haar_random_unitary(RandomSpec(4, seed))
        total += abs(u[0, 0]) ** 2
    assert abs(total / samples - 0.25) < 3 * np.sqrt(3.0 / 80.0 / samples)


def test_line_sum_norm_identity():
    # for unitary input the squared Frobenius norms of the r block row sums
    # (and column sums) add up to n
    for n, m in [(2, 1), (4, 2), (6, 2), (6, 3), (8, 4), (9, 3), (12, 6)]:
        p = BlockPartition(n, m)
        for seed in range(0, 10_001, 2_000):
            u = haar_random_unitary(RandomSpec(n, seed))
            rows = sum(np.linalg.norm(block_row_sum(u, p, j)) ** 2 for j in range(1, p.r + 1))
            cols = sum(np.linalg.norm(block_col_sum(u, p, k)) ** 2 for k in range(1, p.r + 1))
            assert abs(rows - n) < 1e-10, (n, m, seed)
            assert abs(cols - n) < 1e-10, (n, m, seed)


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
    # the residual comes from real products at every size, and agrees with
    # the one complex product to rounding
    eps = 1e-4
    k = np.random.default_rng(2).standard_normal((256, 256))
    cases = [haar_random_unitary(RandomSpec(n, n)) for n in (2, 6, 16, 64, 127, 128, 256, 512)]
    cases.append(np.stack([haar_random_unitary(RandomSpec(128, 1)), np.eye(128) + 1j * eps * (k - k.T)[:128, :128]]))
    # (r, m, m) stacks of Haar blocks, perturbed in Im and in Re
    for m in (1, 8):
        stack = np.stack([haar_random_unitary(RandomSpec(m, 10 + j)) for j in range(6)])
        cases += [stack, stack + 1j * eps * k[:6 * m, :m].reshape(6, m, m), stack + eps * k[:6 * m, :m].reshape(6, m, m)]
    # I + i eps K has its error in Im(a^H a), I + eps S in Re(a^H a)
    for n in (128, 256):
        kn = k[:n, :n]
        cases += [np.eye(n) + 1j * eps * (kn - kn.T), np.eye(n) + eps * (kn + kn.T) + 0j]
    for a in cases:
        n = a.shape[-1]
        expected = dense_unitarity_residual(a)
        assert abs(unitarity_residual(a) - expected) <= 1e-13 * n

    perm = Permutation(tuple(int(v) + 1 for v in np.random.default_rng(3).permutation(256))).to_matrix()
    assert unitarity_residual(perm) == 0.0
    assert unitarity_residual(np.eye(256, dtype=complex)) == 0.0


def test_cmat_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    path = tmp_path / "m.json"
    save_matrix(path, mat)
    assert np.array_equal(load_matrix(path), mat)


def test_cmat_writer_text(tmp_path):
    # signed zeros, subnormals and extremes keep their shortest round-trip text
    mat = np.array([[complex(-0.0, 5e-324), complex(0.1, -1e308)], [complex(1e308, -0.0), complex(-5e-324, 0.1)]])
    path = tmp_path / "m.json"
    save_matrix(path, mat)
    assert path.read_text() == (
        '{"rows": 2, "cols": 2, "data": [[[-0.0, 5e-324], [0.1, -1e+308]], [[1e+308, -0.0], [-5e-324, 0.1]]]}'
    )


def _seeded(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _on_two_cpus(monkeypatch):
    """Make this process look as if it may run on two CPUs, so that the route
    a save or load takes does not depend on the machine the tests run on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _count_forks(monkeypatch):
    """The list that the pid of every child os.fork makes from here on is
    appended to, on two CPUs (_on_two_cpus)."""
    _on_two_cpus(monkeypatch)
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _take_route(monkeypatch, route):
    """Make every save and writer-layout read take route: "forked" lowers the
    size rule to one entry, so that a matrix of two or more rows is split with
    a forked child; a text of one row has no row boundary to cut at, and
    stays serial.  Returns the pids forked (_count_forks)."""
    monkeypatch.setattr(matcore, "_FORK_MIN_ENTRIES", 1 if route == "forked" else math.inf)
    return _count_forks(monkeypatch)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _on_both_routes(cases):
    """Each (id, values) case once per route: the serial one under its own id, the forked one as id-forked."""
    return [
        pytest.param(*values, route, id=name if route == "serial" else f"{name}-forked")
        for route in ("serial", "forked")
        for name, values in cases
    ]


@pytest.mark.parametrize(
    "mat, route",
    _on_both_routes(
        [
            ("1x1", [_seeded((1, 1), 1)]),
            ("5x3", [_seeded((5, 3), 2)]),
            ("64x64", [_seeded((64, 64), 3)]),
            ("block-diagonal-64x64", [block_diag(_seeded((8, 8, 8), 4))]),
            ("dense-512x512", [_seeded((512, 512), 5)]),
        ]
    ),
)
def test_cmat_writer_text_is_json_dumps_of_the_payload(tmp_path, monkeypatch, mat, route):
    forks = _take_route(monkeypatch, route)
    path = tmp_path / "m.json"
    save_matrix(path, mat)
    _no_child_left()
    assert len(forks) == (route == "forked" and mat.shape[0] > 1)
    payload = {"rows": mat.shape[0], "cols": mat.shape[1], "data": np.stack((mat.real, mat.imag), -1).tolist()}
    assert path.read_text() == json.dumps(payload)


@pytest.mark.parametrize(
    "data",
    [
        [[[1, 0], [0, -3]], [[7, 2], [0, 0]]],
        [[[1, 0.5], [2**60 + 1, -0.25]]],
        [[[1.5, 0], [2**70, 0]]],  # an integer beyond 64 bits beside a float
        [[[-0.0, -0.0], [0.0, -0.0]]],
    ],
    ids=["ints", "ints-and-floats", "integer-beyond-64-bits", "signed-zeros"],
)
def test_cmat_reader_accepts_numbers(tmp_path, data):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rows": len(data), "cols": len(data[0]), "data": data}))
    expected = np.array([[complex(re, im) for re, im in row] for row in data])
    got = load_matrix(path)
    assert got.dtype == complex and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()  # bit for bit, signed zeros included


def _codec_peaks(tmp_path, monkeypatch):
    """The memory (tracemalloc) that a 256 x 256 save and then its load take
    at their peak, with the file's size.  A forked child's share is what it
    allocates beyond what it inherited, taken at its own peak and added to this
    process's peak as if both fell at once, and the anonymous mmap that the
    child's numbers are left in is added too."""
    children, shared = [], []
    in_two_processes, make_mmap = matcore._in_two_processes, mmap.mmap

    def measured(here, there):
        with make_mmap(-1, 8) as box:

            def there_measured():
                inherited = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                try:
                    return there()
                finally:
                    box[:] = (tracemalloc.get_traced_memory()[1] - inherited).to_bytes(8, "little")

            done = in_two_processes(here, there_measured)
            children.append(int.from_bytes(box[:], "little"))
        return done

    def counted_mmap(fileno, length):
        shared.append(length)
        return make_mmap(fileno, length)

    monkeypatch.setattr(matcore, "_in_two_processes", measured)
    monkeypatch.setattr(matcore, "mmap", types.SimpleNamespace(mmap=counted_mmap))
    path = tmp_path / "m.json"
    mat = haar_random_unitary(RandomSpec(256, 6))
    tracemalloc.start()
    try:
        save_matrix(path, mat)
        save_peak = tracemalloc.get_traced_memory()[1] + sum(children)
        children.clear()
        tracemalloc.reset_peak()
        load_matrix(path)
        load_peak = tracemalloc.get_traced_memory()[1] + sum(children) + sum(shared)
    finally:
        tracemalloc.stop()
    return save_peak, load_peak, path.stat().st_size


def test_cmat_codec_memory(tmp_path, monkeypatch):
    # 256 x 256 is split with a forked child at the size rule as it is: the bounds hold for both processes together
    forks = _count_forks(monkeypatch)
    save_peak, load_peak, size = _codec_peaks(tmp_path, monkeypatch)
    assert len(forks) == 2
    # a writer holding the whole payload peaks at ~15 MB here, a per-entry complex() reader at ~5.4x the file
    assert save_peak < 1e6
    assert load_peak < 5 * size


def test_cmat_codec_memory_in_one_process(tmp_path, monkeypatch):
    forks = _take_route(monkeypatch, "serial")
    save_peak, load_peak, size = _codec_peaks(tmp_path, monkeypatch)
    assert not forks
    assert save_peak < 1e6
    assert load_peak < 5 * size


def _read(path):
    """What load_matrix makes of a file: the exact matrix, or the error message."""
    try:
        a = load_matrix(path)
    except ValueError as exc:
        return str(exc)
    return a.dtype, a.shape, a.tobytes()


def _haar_factors():
    return decompose(haar_random_unitary(RandomSpec(8, 5)), 2)


def _perm_factors():
    return perm_dxz(Permutation((3, 6, 1, 8, 2, 5, 7, 4)), 2)


def _payload_text(data):
    return json.dumps({"rows": len(data), "cols": len(data[0]), "data": data})


# every kind of file the writer produces, and json.dumps texts of the same layout
_WRITER_LAYOUT_TEXTS = {
    **{f"haar-{n}": lambda n=n: haar_random_unitary(RandomSpec(n, n)) for n in (1, 2, 7, 64)},
    **{f"decompose-{name}": lambda name=name: getattr(_haar_factors(), name) for name in "DZ"},
    **{f"perm-{name}": lambda name=name: getattr(_perm_factors(), name) for name in "DXZ"},
    "ints": lambda: _payload_text([[[1, 0], [0, -3]], [[7, 2], [0, 0]]]),
    "beyond-64-bits": lambda: _payload_text([[[1.5, 0], [2**70, 0]], [[-(2**64), 3], [2**63, 1]]]),
    "uint64-range": lambda: _payload_text([[[2**63, 1]]]),
    "mixed-sign-uint64-range": lambda: _payload_text([[[2**63, -1]]]),
    "signed-zeros": lambda: _payload_text([[[-0.0, -0.0], [0.0, -0.0]]]),
    "beyond-float-range": lambda: _payload_text([[[10**400, 0]]]),
    "1e400": lambda: '{"rows": 1, "cols": 1, "data": [[[1e400, 0]]]}',
}


@pytest.mark.parametrize("make, route", _on_both_routes([(name, [make]) for name, make in _WRITER_LAYOUT_TEXTS.items()]))
def test_cmat_reader_paths_agree(tmp_path, monkeypatch, make, route):
    forks = _take_route(monkeypatch, route)
    path = tmp_path / "m.json"
    made = make()
    if isinstance(made, str):
        path.write_text(made)
    else:
        save_matrix(path, made)
        _no_child_left()
    text = path.read_text()
    assert _writer_layout_numbers(text) is not None
    _no_child_left()
    flat = _read(path)
    _no_child_left()
    # every text of two or more rows was cut and parsed in two processes on the forked route
    assert bool(forks) == (route == "forked" and json.loads(text)["rows"] > 1)
    # a trailing newline is valid JSON outside the writer's layout: the general parse reads it
    assert _writer_layout_numbers(text + "\n") is None
    path.write_text(text + "\n")
    assert _read(path) == flat
    _no_child_left()


_LOOKALIKES = [
    ("leading-zero", '{"rows": 1, "cols": 2, "data": [[[01, 0], [1, 0]]]}'),
    ("plus-sign", '{"rows": 1, "cols": 2, "data": [[[+1, 0], [1, 0]]]}'),
    ("no-integer-part", '{"rows": 1, "cols": 2, "data": [[[.5, 0], [1, 0]]]}'),
    ("no-fraction", '{"rows": 1, "cols": 2, "data": [[[1., 0], [1, 0]]]}'),
    ("no-exponent", '{"rows": 1, "cols": 2, "data": [[[1e, 0], [1, 0]]]}'),
    ("lone-minus", '{"rows": 1, "cols": 2, "data": [[[-, 0], [1, 0]]]}'),
    ("empty-slot", '{"rows": 1, "cols": 2, "data": [[[, 0], [1, 0]]]}'),
    ("one-pair-short", '{"rows": 1, "cols": 2, "data": [[[1, 0]]]}'),
    ("ragged", '{"rows": 2, "cols": 2, "data": [[[1, 0], [1, 0]], [[1, 0]]]}'),
    ("trailing-brace", '{"rows": 1, "cols": 1, "data": [[[1, 0]]]}}'),
    # one row of four pairs, padded to the length of the 2 x 2 skeleton
    ("one-row-at-the-skeleton-length", '{"rows": 2, "cols": 2, "data": [[[1, 0],  [1, 0], [1, 0],  [1, 0]]]}'),
    # digits outside a pair, which would join the number beside them if the brackets were dropped
    ("digit-after-a-pair", '{"rows": 1, "cols": 1, "data": [[[1, 2]3]]}'),
    ("digit-after-a-row", '{"rows": 2, "cols": 1, "data": [[[1, 2]]3, [[2, 0]]]}'),
    ("digit-before-the-data", '{"rows": 1, "cols": 1, "data": 5[[[1, 0]]]}'),
    ("digit-after-an-empty-slot", '{"rows": 1, "cols": 2, "data": [[[1, ]8, [1, 0]]]}'),
    ("digit-before-an-empty-slot", '{"rows": 2, "cols": 1, "data": [[[1, 0]], 8[[, 1]]]}'),
]


@pytest.mark.parametrize("text, route", _on_both_routes([(name, [text]) for name, text in _LOOKALIKES]))
def test_cmat_reader_rejects_writer_layout_lookalikes(tmp_path, monkeypatch, text, route):
    _take_route(monkeypatch, route)
    path = tmp_path / "bad.json"
    path.write_text(text + "\n")
    general = _read(path)
    assert isinstance(general, str) and general.startswith(f"{path}: ")
    path.write_text(text)
    assert _writer_layout_numbers(text) is None
    _no_child_left()
    assert _read(path) == general
    _no_child_left()


@pytest.mark.parametrize("route", ["serial", "forked"])
@pytest.mark.parametrize("rows", [1, 2])
def test_cmat_reader_text_that_ends_after_the_header_is_not_valid_json(tmp_path, monkeypatch, rows, route):
    # the writer's header and nothing after it; a trailing newline would move
    # the error's position, so the message is spelled out, as json.loads gives it
    _take_route(monkeypatch, route)
    text = f'{{"rows": {rows}, "cols": 1, "data": '
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert _writer_layout_numbers(text) is None
    assert _read(path) == f"{path}: not valid JSON: Expecting value: line 1 column 32 (char 31)"
    _no_child_left()


@pytest.mark.parametrize("half", ["first", "second"])
@pytest.mark.parametrize(
    "bad",
    ["01", "+1", "1e", "1" * 4301, "1" + "0" * 400],
    ids=["leading-zero", "plus-sign", "no-exponent", "4301-digits", "beyond-float-range"],
)
def test_cmat_reader_refusal_in_either_half_of_a_forked_read(tmp_path, monkeypatch, bad, half):
    # 256 x 256 is on the forked route at the size rule as it is; the parent
    # parses rows 0-127 and the child rows 128-255
    forks = _count_forks(monkeypatch)
    mat = haar_random_unitary(RandomSpec(256, 7))
    mat[60 if half == "first" else 200, 3] = 7777777.0  # no Haar entry's text holds "7777777.0"
    path = tmp_path / "m.json"
    save_matrix(path, mat)
    text = path.read_text().replace("7777777.0", bad)
    assert len(forks) == 1 and text.count(bad) >= 1
    path.write_text(text + "\n")
    general = _read(path)
    assert isinstance(general, str) and general.startswith(f"{path}: ")
    path.write_text(text)
    assert _read(path) == general
    assert len(forks) == 2
    _no_child_left()


def test_cmat_codec_runs_in_one_process_when_no_child_can_be_forked(tmp_path, monkeypatch):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    _on_two_cpus(monkeypatch)
    monkeypatch.setattr(os, "fork", no_fork)
    mat = haar_random_unitary(RandomSpec(256, 2))
    path = tmp_path / "m.json"
    save_matrix(path, mat)
    payload = {"rows": 256, "cols": 256, "data": np.stack((mat.real, mat.imag), -1).tolist()}
    assert path.read_text() == json.dumps(payload)
    assert load_matrix(path).tobytes() == mat.tobytes()
    # an integer beyond float range in the second half is still the general parse's error
    mat[200, 3] = 7777777.0
    save_matrix(path, mat)
    path.write_text(path.read_text().replace("7777777.0", "1" + "0" * 400))
    assert _read(path) == f"{path}: malformed entries: int too large to convert to float"


@pytest.mark.parametrize("cpus, forked", [({0}, False), ({0, 1}, True), ({3, 5, 6}, True)], ids=["1", "2", "3"])
def test_cmat_codec_forks_only_with_two_or_more_cpus(tmp_path, monkeypatch, cpus, forked):
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    mat = haar_random_unitary(RandomSpec(256, 3))
    path = tmp_path / "m.json"
    save_matrix(path, mat)
    assert load_matrix(path).tobytes() == mat.tobytes()
    assert len(forks) == 2 * forked
    _no_child_left()


def test_cmat_save_raises_when_its_forked_child_fails(tmp_path, monkeypatch):
    _on_two_cpus(monkeypatch)
    parent, write_rows = os.getpid(), matcore._write_rows

    def failing_in_the_child(fh, pairs, start, stop):
        if os.getpid() != parent:
            raise OSError("No space left on device")
        return write_rows(fh, pairs, start, stop)

    monkeypatch.setattr(matcore, "_write_rows", failing_in_the_child)
    path = tmp_path / "m.json"
    with pytest.raises(OSError, match=re.escape(f"{path}: the process writing rows 129 to 256 failed")):
        save_matrix(path, haar_random_unitary(RandomSpec(256, 1)))
    _no_child_left()


def test_cmat_reader_huge_header_is_rejected_in_small_memory(tmp_path):
    # the skeleton of 10**5 x 10**5 pairs would be 6e10 characters
    path = tmp_path / "huge.json"
    path.write_text('{"rows": 100000, "cols": 100000, "data": [[[1, 0]]]}')
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="not a 100000x100000 array"):
            load_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


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
