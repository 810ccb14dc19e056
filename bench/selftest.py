"""Tests of the benchmark itself: each check rejects a corrupted output and
passes an exact one, and tracing survives a missing layer.

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

bdx = run.import_program()


def haar(n, seed):
    return bdx.haar_random_unitary(bdx.RandomSpec(n, seed))


def residuals(u, dec, m):
    return checks.dxz_residuals(u, dec.D, dec.X, dec.Z, m)


@pytest.fixture(scope="module")
def converged():
    """A converged n = 6, m = 2 decomposition."""
    u = haar(6, 7)
    dec = bdx.decompose(u, 2, bdx.IterationConfig(max_iter=3000, psi_tol=1e-12))
    assert dec.converged
    return u, dec


def test_u2_closed_form_passes():
    for seed in range(20):
        u = haar(2, seed)
        res = residuals(u, bdx.u2_closed_form(u), 1)
        assert checks.check_dxz(res, 2, 1, True, 1e-12) == []
        assert checks.passes(res, 1e-12)


def test_converged_decomposition_passes(converged):
    u, dec = converged
    res = residuals(u, dec, 2)
    assert checks.check_dxz(res, 6, 2, True, 1e-12) == []


def test_perturbed_x_block_is_rejected(converged):
    u, dec = converged
    x = dec.X.copy()
    x[2:4, 0:2] += 1e-6
    problems = checks.check_dxz(checks.dxz_residuals(u, dec.D, x, dec.Z, 2), 6, 2, True, 1e-12)
    assert any(p.startswith("reconstruction") for p in problems)
    assert any(p.startswith("x_unitarity") for p in problems)


def test_off_block_entry_in_d_is_rejected(converged):
    u, dec = converged
    d = dec.D.copy()
    d[0, 5] = 1e-9
    problems = checks.check_dxz(checks.dxz_residuals(u, d, dec.X, dec.Z, 2), 6, 2, True, 1e-12)
    assert any(p.startswith("d_off_diagonal") for p in problems)


def test_z_leading_block_not_identity_is_rejected(converged):
    u, dec = converged
    # move a phase from Z's leading block into D: D X Z still equals U
    phase = np.exp(0.3j)
    d, z = dec.D.copy(), dec.Z.copy()
    d[:, :] *= phase
    z[:2, :2] /= phase
    x = dec.X.copy()
    x[:, 2:] /= phase
    problems = checks.check_dxz(checks.dxz_residuals(u, d, x, z, 2), 6, 2, False, 1e-12)
    assert [p for p in problems if p.startswith("z_leading_block")]
    assert not [p for p in problems if p.startswith("reconstruction")]


def test_false_convergence_claim_is_rejected():
    u = haar(8, 3)
    dec = bdx.decompose(u, 2, bdx.IterationConfig(max_iter=1))
    res = residuals(u, dec, 2)
    assert checks.check_dxz(res, 8, 2, False, 1e-6) == []
    problems = checks.check_dxz(res, 8, 2, True, 1e-6)
    assert any("reports convergence" in p for p in problems)


def test_converged_line_sum_off_identity_is_rejected(converged):
    u, dec = converged
    res = dict(residuals(u, dec, 2), max_line_sum=1e-3)
    problems = checks.check_dxz(res, 6, 2, True, 1e-12)
    assert problems and all("line sum" in p for p in problems)


def test_exit_code_must_match_verdict():
    assert checks.check_exit(0, True) == []
    assert checks.check_exit(2, False) == []
    assert checks.check_exit(2, True)
    assert checks.check_exit(0, False)
    assert checks.check_exit(65, False)


def test_own_quantities_match_program():
    x = haar(12, 4)
    p = bdx.BlockPartition(12, 3)
    assert checks.psi(x, 3) == pytest.approx(bdx.psi(x, p), abs=1e-12)
    sums = checks.line_sums(x, 3)
    for j in range(4):
        np.testing.assert_allclose(sums[j], bdx.block_row_sum(x, p, j + 1), atol=1e-14)
        np.testing.assert_allclose(sums[4 + j], bdx.block_col_sum(x, p, j + 1), atol=1e-14)
    t = bdx.fourier_transform(p)
    np.testing.assert_allclose(checks.fourier_conjugate(x, 3), t.conj().T @ x @ t, atol=1e-13)


def test_perm_dxz_passes_and_corruption_is_rejected():
    rng = np.random.default_rng(0)
    image = rng.permutation(24) + 1
    dec = bdx.perm_dxz(bdx.Permutation(tuple(int(v) for v in image)), 4)
    d, x, z = (a.real.astype(np.int64) for a in (dec.D, dec.X, dec.Z))
    assert checks.check_perm(image, d, x, z, 4) == []
    swapped = x[[1, 0] + list(range(2, 24))]
    assert checks.check_perm(image, d, swapped, z, 4)
    doubled = x.copy()
    doubled[0, 0] = 2
    assert checks.check_perm(image, d, doubled, z, 4) == ["X is not a permutation matrix"]
    other = image[[1, 0] + list(range(2, 24))]
    assert checks.check_perm(other, d, x, z, 4) == ["D X Z != P"]


def test_perm_output_is_parsed():
    image = [5, 1, 2, 4, 6, 3]
    code, stdout, _ = run.run_cli(bdx, ["perm", *map(str, image), "--m", "2"])
    assert code == 0
    assert checks.check_perm(image, *checks.parse_perm_output(stdout, 6), 2) == []


def test_conjugate_checks():
    u = haar(8, 2)
    conj = bdx.conjugate_decompose(u, 2, bdx.IterationConfig(max_iter=3000, psi_tol=1e-12))
    assert conj.converged
    problems, converged, _ = checks.check_conjugate(u, conj.C, conj.A, conj.Y, 2, 1e-12)
    assert problems == [] and converged
    c = conj.C.copy()
    c[0:2, 2:4] += 1e-6
    problems, _, _ = checks.check_conjugate(u, c, conj.A, conj.Y, 2, 1e-12)
    assert any("not block-circulant" in p for p in problems)
    short = bdx.conjugate_decompose(u, 2, bdx.IterationConfig(max_iter=1))
    problems, converged, _ = checks.check_conjugate(u, short.C, short.A, short.Y, 2, 1e-12)
    assert problems == [] and not converged


def test_load_cmat_reads_program_files(tmp_path):
    u = haar(5, 9)
    bdx.save_matrix(tmp_path / "u.json", u)
    np.testing.assert_array_equal(checks.load_cmat(tmp_path / "u.json"), u)


def test_tracer_wraps_every_alias_and_reports_absent_layers():
    layers = spans.LAYERS + (("blockdxz.blocksinkhorn", "no_such_function", "blocksinkhorn.gone"),)
    tracer = spans.Tracer(layers)
    original = bdx.blocksinkhorn.decompose
    tracer.install()
    try:
        assert bdx.cli.decompose is bdx.blocksinkhorn.decompose is bdx.decompose
        assert bdx.decompose is not original
        tracer.current_op = 0
        u = haar(6, 1)
        bdx.decompose(u, 2, bdx.IterationConfig(max_iter=3))
    finally:
        tracer.uninstall()
    assert bdx.decompose is original and bdx.cli.decompose is original
    assert tracer.absent == ["blocksinkhorn.gone"]
    names = [tracer.names[i] for i in tracer.name]
    assert names.count("blocksinkhorn.sinkhorn_step") == 3
    assert names.count("polar.polar_unitary_batch") == 6
    own = tracer.self_times()
    top = names.index("blocksinkhorn.decompose")
    children = sum(tracer.end[i] - tracer.start[i] for i, p in enumerate(tracer.parent) if p == top)
    assert own[top] == tracer.end[top] - tracer.start[top] - children
    metrics = spans.layer_metrics(tracer, setups=1, passes=1, first_pass_ops=1)
    assert metrics["blocksinkhorn.sweeps"] == (3, "count")
    assert metrics["polar.blocks"] == (18, "count")
    assert metrics["blocksinkhorn.wasted_sweeps"] == (3, "count")
    assert metrics["cli.random_s"] == (0.0, "s")


def test_tracer_skips_a_package_that_lacks_a_layer():
    fake = types.ModuleType("fakepkg")
    sys.modules["fakepkg"] = fake
    try:
        tracer = spans.Tracer((("fakepkg", "missing", "fake.missing"),), package="fakepkg")
        tracer.install()
        assert tracer.absent == ["fake.missing"]
        tracer.uninstall()
    finally:
        del sys.modules["fakepkg"]


def test_missing_sources_exit_nonzero(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit) as exc:
        run.import_program()
    assert exc.value.code not in (0, None)
