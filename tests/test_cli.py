import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blockdxz
from blockdxz import Permutation, load_matrix, save_matrix
from blockdxz.cli import EXIT_DATA, EXIT_NOT_CONVERGED, EXIT_OK, EXIT_USAGE, main
from refdata import SIGMA_FACTORS_M2, SIGMA_IMAGE, U6


@pytest.fixture
def u6_file(tmp_path):
    path = tmp_path / "u6.json"
    save_matrix(path, U6)
    return str(path)


def test_random_command(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["random", "--n", "6", "--seed", "1", "-o", str(out1)]) == EXIT_OK
    assert main(["random", "--n", "6", "--seed", "1", "-o", str(out2)]) == EXIT_OK
    assert out1.read_text() == out2.read_text()
    u = load_matrix(out1)
    assert np.linalg.norm(u.conj().T @ u - np.eye(6)) < 1e-12
    single = tmp_path / "c.json"
    assert main(["random", "--n", "1", "-o", str(single)]) == EXIT_OK
    assert abs(abs(load_matrix(single)[0, 0]) - 1.0) < 1e-12
    assert main(["random", "--n", "6", "--seed", "-1", "-o", str(tmp_path / "d.json")]) == EXIT_USAGE
    assert not (tmp_path / "d.json").exists()


def test_decompose_command(tmp_path, u6_file, capsys):
    outdir = tmp_path / "out"
    code = main(
        ["decompose", u6_file, "--m", "2", "--max-iter", "36", "--psi-tol", "1e-12",
         "--polar-iters", "10", "-o", str(outdir), "--json"]
    )
    assert code == EXIT_NOT_CONVERGED  # psi 1e-12 is not reachable in 36 sweeps
    report = json.loads(capsys.readouterr().out)
    assert report["psi_trace"][-1][1] <= 0.005
    assert report["residuals"]["reconstruction"] <= 1e-8
    for name in ("D.json", "X.json", "Z.json", "report.json"):
        assert (outdir / name).exists()
    values = [v for _, v in report["psi_trace"]]
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


def test_decompose_identity_converges_immediately(tmp_path, capsys):
    path = tmp_path / "eye.json"
    save_matrix(path, np.eye(6))
    outdir = tmp_path / "out"
    assert main(["decompose", str(path), "--m", "3", "-o", str(outdir), "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["psi_trace"] == [[0, 0.0]]
    assert report["converged"] is True


def test_decompose_round_trips_through_verify(tmp_path, u6_file, capsys):
    outdir = tmp_path / "out"
    assert main(["decompose", u6_file, "--m", "3", "-o", str(outdir)]) in (EXIT_OK, EXIT_NOT_CONVERGED)
    report = json.loads((outdir / "report.json").read_text())
    psi_final = report["psi_trace"][-1][1]
    # line sums sit at the sqrt(psi/n) scale, so the round-trip tolerance
    # needs that term alongside the plain psi multiple
    tol = max(1e-8, 10 * psi_final, 10 * (max(psi_final, 0.0) / 6) ** 0.5)
    code = main(
        ["verify", u6_file, str(outdir / "D.json"), str(outdir / "X.json"), str(outdir / "Z.json"),
         "--m", "3", "--tol", str(tol)]
    )
    assert code == EXIT_OK
    assert report["residuals"]["passed"] is True


def test_usage_and_data_errors(tmp_path, u6_file):
    assert main(["decompose", u6_file, "--m", "5", "-o", str(tmp_path)]) == EXIT_USAGE
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["decompose", str(bad), "--m", "2", "-o", str(tmp_path)]) == EXIT_DATA
    not_unitary = tmp_path / "nu.json"
    save_matrix(not_unitary, 2 * np.eye(4))
    assert main(["decompose", str(not_unitary), "--m", "2", "-o", str(tmp_path)]) == EXIT_DATA
    assert main(["decompose", str(tmp_path / "missing.json"), "--m", "2", "-o", str(tmp_path)]) == EXIT_DATA
    assert main(["nonsense"]) == EXIT_USAGE
    assert main(["--help"]) == EXIT_OK


@pytest.mark.parametrize(
    "payload",
    [
        {"rows": 1, "cols": 1, "data": 5},
        {"rows": 1, "cols": 1, "data": [5]},
        {"rows": 1, "cols": 1, "data": "x"},
        {"rows": 1, "cols": 1, "data": [[5]]},
        {"rows": True, "cols": True, "data": [[[1, 0]]]},
        {"rows": 1, "cols": False, "data": [[]]},
        {"rows": 1, "cols": 1, "data": [[[10**400, 0]]]},  # an integer beyond float range
    ],
)
def test_malformed_cmat_is_a_data_error(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_matrix(path)
    assert main(["trace", str(path), "--m", "1"]) == EXIT_DATA
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "payload",
    [
        {"rows": 1, "cols": 1, "data": [[[True, False]]]},
        {"rows": 1, "cols": 2, "data": [[[0.5, 0], [False, 1]]]},
        {"rows": 2, "cols": 1, "data": [[[1, 0]], [[0, True]]]},
    ],
)
def test_boolean_cmat_entries_are_a_data_error(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_matrix(path)
    assert main(["trace", str(path), "--m", "1"]) == EXIT_DATA
    assert capsys.readouterr().err.startswith("error:")


def test_trace_command(u6_file, tmp_path, capsys):
    assert main(["trace", u6_file, "--m", "1", "--max-iter", "36"]) in (EXIT_OK, EXIT_NOT_CONVERGED)
    lines = [ln.split() for ln in capsys.readouterr().out.strip().splitlines()[1:]]
    values = [float(v) for _, v in lines]
    for got, want in zip(values[:3], (34.889, 4.407, 2.573)):
        assert abs(got - want) < 0.05
    path = tmp_path / "eye.json"
    save_matrix(path, np.eye(4))
    assert main(["trace", str(path), "--m", "2"]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1].split() == ["0", "0.000"]


def test_verify_printed_factorization(tmp_path, capsys):
    mat = Permutation(SIGMA_IMAGE).to_matrix()
    paths = {}
    for name, a in zip("udxz", (mat,) + SIGMA_FACTORS_M2):
        paths[name] = tmp_path / f"{name}.json"
        save_matrix(paths[name], a)
    argv = ["verify", str(paths["u"]), str(paths["d"]), str(paths["x"]), str(paths["z"]),
            "--m", "2", "--tol", "0"]
    assert main(argv) == EXIT_OK
    # shuffled factors must fail
    argv_bad = ["verify", str(paths["u"]), str(paths["z"]), str(paths["x"]), str(paths["d"]),
                "--m", "2", "--tol", "1e-8"]
    assert main(argv_bad) == EXIT_NOT_CONVERGED


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-300"])
def test_verify_rejects_bad_tolerance(tmp_path, capsys, tol):
    paths = []
    for name, a in zip("udxz", (Permutation(SIGMA_IMAGE).to_matrix(),) + SIGMA_FACTORS_M2):
        paths.append(str(tmp_path / f"{name}.json"))
        save_matrix(paths[-1], a)
    assert main(["verify", *paths, "--m", "2", f"--tol={tol}"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")


def test_perm_command(tmp_path, capsys):
    assert main(["perm", "5", "1", "2", "4", "6", "3", "--m", "2", "-o", str(tmp_path / "f")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "exact" in out
    d = load_matrix(tmp_path / "f" / "D.json")
    x = load_matrix(tmp_path / "f" / "X.json")
    z = load_matrix(tmp_path / "f" / "Z.json")
    assert np.array_equal(d @ x @ z, Permutation(SIGMA_IMAGE).to_matrix())

    assert main(["perm", "1 2 3 4", "--m", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("1 0 0 0\n  0 1 0 0\n  0 0 1 0\n  0 0 0 1") == 3

    assert main(["perm", "1", "1", "--m", "1"]) == EXIT_USAGE
    assert main(["perm", "2 1 4 3 6 5", "--m", "3"]) == EXIT_OK


def test_biunitary_command(u6_file, capsys):
    code = main(["biunitary", u6_file, "--m", "2", "--max-iter", "2000", "--psi-tol", "1e-12"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "V =" in out and "W =" in out
    residual = float(out.rsplit("=", 1)[1])
    assert residual <= 1e-4
    first = out.splitlines()[1].split()
    assert first[0] == "+1.0000+0.0000i" and first[1] == "+0.0000+0.0000i"


def test_biunitary_scalar_case(tmp_path, capsys):
    # the 2x2 run lands on one of several valid biunimodular vectors
    # (factorizations are not unique), so assert the defining relations
    from blockdxz import U2Parameters, u2_matrix

    u = u2_matrix(U2Parameters(0.3, 0.7, 1.1, -0.4))
    path = tmp_path / "u2.json"
    save_matrix(path, u)
    code = main(["biunitary", str(path), "--m", "1", "--psi-tol", "1e-14", "--max-iter", "3000"])
    assert code == EXIT_OK
    rows = [ln.strip() for ln in capsys.readouterr().out.splitlines()]
    vi = rows.index("V =")
    wi = rows.index("W =")
    v = np.array([complex(rows[vi + 1 + k][:-1] + "j") for k in range(2)])
    w = np.array([complex(rows[wi + 1 + k][:-1] + "j") for k in range(2)])
    assert abs(v[0] - 1.0) < 1e-10
    assert all(abs(abs(z) - 1.0) < 1e-6 for z in np.concatenate([v, w]))
    assert np.linalg.norm(u @ v - w) < 1e-6


def test_conjugate_command(tmp_path, u6_file, capsys):
    outdir = tmp_path / "conj"
    code = main(["conjugate", u6_file, "--m", "2", "--max-iter", "3000", "--psi-tol", "1e-12",
                 "-o", str(outdir), "--json"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["residuals"]["reconstruction"] <= 1e-5
    assert report["residuals"]["c_circulant"] and report["residuals"]["y_circulant"]
    for name in ("C.json", "A.json", "Y.json"):
        assert (outdir / name).exists()
    assert load_matrix(outdir / "A.json").shape == (4, 4)


def test_conjugate_identity(tmp_path, capsys):
    path = tmp_path / "eye.json"
    save_matrix(path, np.eye(6))
    outdir = tmp_path / "out"
    assert main(["conjugate", str(path), "--m", "2", "-o", str(outdir)]) == EXIT_OK
    assert np.linalg.norm(load_matrix(outdir / "C.json") - np.eye(6)) < 1e-12
    assert np.linalg.norm(load_matrix(outdir / "A.json") - np.eye(4)) < 1e-12
    assert np.linalg.norm(load_matrix(outdir / "Y.json") - np.eye(6)) < 1e-12


@pytest.mark.parametrize("command", ["decompose", "trace", "biunitary", "conjugate"])
@pytest.mark.parametrize(
    "flag",
    [("--psi-tol", "nan"), ("--psi-tol", "inf"), ("--polar-iters", "0"), ("--polar-iters", "-3"),
     ("--max-iter", "-1")],
    ids=" ".join,
)
def test_bad_iteration_values_are_usage_errors(tmp_path, u6_file, command, flag):
    argv = [command, u6_file, "--m", "2", *flag]
    if command in ("decompose", "conjugate"):
        argv += ["-o", str(tmp_path / "out")]
    assert main(argv) == EXIT_USAGE


def test_report_records_the_argv_given_to_main(tmp_path, u6_file, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["host-program", "extra-host-arg"])
    for command in ("decompose", "conjugate"):
        argv = [command, u6_file, "--m", "2", "--max-iter", "3", "-o", str(tmp_path / command)]
        assert main(argv) in (EXIT_OK, EXIT_NOT_CONVERGED)
        report = json.loads((tmp_path / command / "report.json").read_text())
        assert report["command"] == " ".join(argv)


@pytest.mark.parametrize(
    "entry",
    [["-m", "blockdxz.cli"], ["-c", "from blockdxz.cli import run; run()"]],
    ids=["module", "script"],
)
def test_console_entry_point_exit_status(tmp_path, entry):
    # the blockdxz script calls cli.run(), which hands main's code to SystemExit
    src = str(Path(blockdxz.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def status(*argv):
        return subprocess.run([sys.executable, *entry, *argv], env=env, capture_output=True).returncode

    assert status("random", "--n", "4", "-o", str(tmp_path / "u.json")) == EXIT_OK
    assert status("decompose", str(tmp_path / "u.json"), "--m", "3", "-o", str(tmp_path)) == EXIT_USAGE
    assert status("trace", str(tmp_path / "missing.json"), "--m", "1") == EXIT_DATA
