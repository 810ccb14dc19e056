import ast
import hashlib
import json
import math
import os
import random
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blockdxz
from blockdxz import BlockPartition, Permutation, RandomSpec, haar_random_unitary, load_matrix, save_matrix
from blockdxz.cli import EXIT_DATA, EXIT_NOT_CONVERGED, EXIT_OK, EXIT_USAGE, _digest, main
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


def test_random_rejects_empty_size(tmp_path, capsys):
    assert main(["random", "--n", "0", "-o", str(tmp_path / "u.json")]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "u.json").exists()


def test_random_out_of_memory_is_a_data_error(tmp_path, capsys, monkeypatch):
    def no_memory(spec):
        raise MemoryError(f"cannot allocate a {spec.n} x {spec.n} matrix")

    monkeypatch.setattr(blockdxz.cli, "haar_random_unitary", no_memory)
    assert main(["random", "--n", "1000000", "-o", str(tmp_path / "u.json")]) == EXIT_DATA
    assert capsys.readouterr().err.startswith("error: cannot allocate")
    assert not (tmp_path / "u.json").exists()


def test_random_whose_save_fails_in_the_forked_child_is_a_data_error(tmp_path, capsys, monkeypatch):
    # a failing write in this process: the output is a directory
    assert main(["random", "--n", "4", "-o", str(tmp_path)]) == EXIT_DATA
    serial = capsys.readouterr().err
    assert serial.startswith("error: ") and str(tmp_path) in serial
    # n = 256 saves its second half in a forked child where two CPUs may run, and the child fails here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    parent, write_rows = os.getpid(), blockdxz.matcore._write_rows

    def failing_in_the_child(fh, pairs, start, stop):
        if os.getpid() != parent:
            raise OSError("No space left on device")
        return write_rows(fh, pairs, start, stop)

    monkeypatch.setattr(blockdxz.matcore, "_write_rows", failing_in_the_child)
    out = tmp_path / "u.json"
    assert main(["random", "--n", "256", "-o", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {out}: the process writing rows 129 to 256 failed with exit code 1\n"
    with pytest.raises(ChildProcessError):  # the child was reaped
        os.waitpid(-1, os.WNOHANG)


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


def test_report_digest_is_the_sha256_of_the_input(tmp_path, u6_file):
    for command in ("decompose", "conjugate"):
        outdir = tmp_path / command
        main([command, u6_file, "--m", "2", "-o", str(outdir)])
        report = json.loads((outdir / "report.json").read_text())
        assert report["input_digest"] == hashlib.sha256(Path(u6_file).read_bytes()).hexdigest()
    # a file of several 1 MiB chunks and a partial last one
    big = tmp_path / "big.bin"
    big.write_bytes(np.random.default_rng(2).bytes(5 * 2**19 + 3))
    assert _digest(big) == hashlib.sha256(big.read_bytes()).hexdigest()


@pytest.mark.parametrize("command, name", [("decompose", "D"), ("decompose", "X"), ("decompose", "Z"),
                                           ("conjugate", "C"), ("conjugate", "A"), ("conjugate", "Y")])
def test_report_digest_is_taken_before_an_output_overwrites_the_input(tmp_path, command, name):
    # the input sits in the output directory under the name of an output
    path = tmp_path / f"{name}.json"
    save_matrix(path, haar_random_unitary(RandomSpec(6, 11)))
    before = hashlib.sha256(path.read_bytes()).hexdigest()
    main([command, str(path), "--m", "2", "-o", str(tmp_path)])
    assert hashlib.sha256(path.read_bytes()).hexdigest() != before  # overwritten by the output
    assert json.loads((tmp_path / "report.json").read_text())["input_digest"] == before


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


@pytest.mark.parametrize("seed, code", [(2, EXIT_OK), (1, EXIT_NOT_CONVERGED)])
def test_report_verdict_matches_the_exit_code_below_the_psi_floor(tmp_path, capsys, seed, code):
    # seed 2 reaches psi's rounding floor, where psi alone would stop with line
    # sums at 4e-8; seed 1 stays at psi 0.29, line sums 0.16, for the budget
    path = str(tmp_path / "u.json")
    assert main(["random", "--n", "6", "--seed", str(seed), "-o", path]) == EXIT_OK
    outdir = tmp_path / "out"
    argv = ["decompose", path, "--m", "2", "--psi-tol", "1e-30", "--max-iter", "5000", "-o", str(outdir)]
    assert main(argv) == code
    report = json.loads((outdir / "report.json").read_text())
    assert report["converged"] is (code == EXIT_OK)
    assert report["residuals"]["passed"] is (code == EXIT_OK)
    assert report["residuals"]["tol"] == 1e-8


@pytest.mark.parametrize("seed", range(5000, 5030))
def test_report_passes_exactly_when_the_run_converges(tmp_path, capsys, seed):
    # an unconverged run's line sums can lie within line_sum_tolerance (seed
    # 5013: 3.2e-4 against 3.8e-3 after 200 sweeps); it must still not pass
    n = int(np.random.default_rng(seed).integers(4, 17))
    divisors = [m for m in range(1, n) if n % m == 0]
    path, outdir = str(tmp_path / "u.json"), tmp_path / "out"
    assert main(["random", "--n", str(n), "--seed", str(seed), "-o", path]) == EXIT_OK
    code = main(["decompose", path, "--m", str(divisors[seed % len(divisors)]), "-o", str(outdir)])
    assert code in ((EXIT_NOT_CONVERGED,) if seed == 5013 else (EXIT_OK, EXIT_NOT_CONVERGED))
    report = json.loads((outdir / "report.json").read_text())
    assert report["converged"] is report["residuals"]["passed"] is (code == EXIT_OK)


def test_verify_json_output(tmp_path, u6_file, capsys):
    outdir = tmp_path / "out"
    main(["decompose", u6_file, "--m", "3", "-o", str(outdir)])
    capsys.readouterr()
    factors = [str(outdir / f"{name}.json") for name in "DXZ"]
    assert main(["verify", u6_file, *factors, "--m", "3", "--tol", "1e-3", "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert list(report) == [
        "reconstruction", "d_unitarity", "x_unitarity", "z_unitarity", "d_off_diagonal", "z_off_diagonal",
        "z_leading_block", "max_line_sum", "psi_x", "tol", "passed",
    ]
    assert report["tol"] == 1e-3 and report["passed"] is True
    assert all(type(value) is float for value in list(report.values())[:9])


def test_usage_and_data_errors(tmp_path, u6_file):
    assert main(["decompose", u6_file, "--m", "5", "-o", str(tmp_path)]) == EXIT_USAGE
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["decompose", str(bad), "--m", "2", "-o", str(tmp_path)]) == EXIT_DATA
    not_unitary = tmp_path / "nu.json"
    save_matrix(not_unitary, 2 * np.eye(4))
    assert main(["decompose", str(not_unitary), "--m", "2", "-o", str(tmp_path)]) == EXIT_DATA
    assert main(["decompose", str(tmp_path / "missing.json"), "--m", "2", "-o", str(tmp_path)]) == EXIT_DATA
    wide = tmp_path / "wide.json"
    save_matrix(wide, np.eye(4)[:2])
    assert main(["decompose", str(wide), "--m", "1", "-o", str(tmp_path)]) == EXIT_DATA
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
        {"rows": 1, "cols": 1, "data": [[["1.5", 0]]]},
        {"rows": 1, "cols": 1, "data": [[[None, 0]]]},
        {"rows": 1, "cols": 1, "data": [[[1]]]},
        {"rows": 1, "cols": 1, "data": [[[1, 0, 0]]]},
        {"rows": 1, "cols": 2, "data": [[[1], 0]]},
        {"rows": 1, "cols": 1, "data": [[{"a": 1}]]},
        {"rows": 2, "cols": 2, "data": [[[1, 0], [0, 1]], [[1, 0]]]},  # ragged rows
        {"rows": 1, "cols": 2, "data": [[[1.5, 0], [10**400, 0]]]},  # beyond float range, beside a float
        pytest.param({"rows": 2.0, "cols": 1, "data": [[[1, 0]], [[0, 1]]]}, id="float-rows"),
        pytest.param({"rows": 1, "cols": 0, "data": [[]]}, id="zero-cols"),
        pytest.param({"rows": -1, "cols": 1, "data": []}, id="negative-rows"),
        pytest.param({"rows": 1, "cols": 1, "data": [[[float("inf"), 0]]]}, id="infinity"),
        pytest.param(b'{"rows": 1, "cols": 1, "data": [[[1e400, 0]]]}', id="float-literal-beyond-range"),
        pytest.param(b'{"rows": 1, "cols": 1, "data": [[[1, 0]]], "note": "\xff"}', id="not-utf-8"),
        # json cannot turn more than 4,300 digits into an int
        pytest.param(b'{"rows": 1, "cols": 1, "data": [[[' + b"7" * 5000 + b', 0]]]}', id="5000-digit-entry"),
        pytest.param(b'{"rows": ' + b"1" * 5000 + b', "cols": 1, "data": [[[1, 0]]]}', id="5000-digit-rows"),
        # in the writer's layout, a number JSON refuses and a header far larger than
        # its file are decided by the general parse
        pytest.param(b'{"rows": 1, "cols": 1, "data": [[[01, 0]]]}', id="writer-layout-leading-zero"),
        pytest.param(b'{"rows": 100000, "cols": 100000, "data": [[[1, 0]]]}', id="writer-layout-huge-header"),
    ],
)
def test_malformed_cmat_is_a_data_error(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_bytes(payload if isinstance(payload, bytes) else json.dumps(payload).encode())
    with pytest.raises(ValueError):
        load_matrix(path)
    assert main(["trace", str(path), "--m", "1"]) == EXIT_DATA
    # one stderr line; with several input files, only the path says which one is bad
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.endswith("\n") and err.count("\n") == 1


def test_deeply_nested_cmat_is_a_data_error(tmp_path, capsys):
    # json.dumps cannot write this nesting depth, so the file is raw text
    path = tmp_path / "deep.json"
    path.write_text('{"rows":1,"cols":1,"data":' + "[" * 100000 + "]" * 100000 + "}")
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
    capsys.readouterr()

    assert main(["perm", "1", "--m", "1"]) == EXIT_OK
    assert capsys.readouterr().out == "D =\n  1\nX =\n  1\nZ =\n  1\nproduct check D X Z = P: exact\n"

    image = list(range(1, 65))
    random.Random(7).shuffle(image)
    assert main(["perm", *map(str, image), "--m", "8", "-o", str(tmp_path / "p64")]) == EXIT_OK
    d, x, z = (load_matrix(tmp_path / "p64" / f"{name}.json") for name in "DXZ")
    assert np.array_equal(d @ x @ z, Permutation(image).to_matrix())
    # each factor printed entry by entry, as str() of its integer entries joined by spaces
    printed = "".join(
        f"{name} =\n" + "".join("  " + " ".join(str(v) for v in row) + "\n" for row in mat.real.astype(int))
        for name, mat in zip("DXZ", (d, x, z))
    )
    assert capsys.readouterr().out == printed + "product check D X Z = P: exact\n"


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
    # r = 8 blocks at n = 64, with the default flags: converged or not, C and Y are block-circulant
    path = tmp_path / "u64.json"
    save_matrix(path, haar_random_unitary(RandomSpec(64, 3)))
    code = main(["conjugate", str(path), "--m", "8", "-o", str(tmp_path / "conj64")])
    assert code in (EXIT_OK, EXIT_NOT_CONVERGED)
    report = json.loads((tmp_path / "conj64" / "report.json").read_text())
    assert report["converged"] is (code == EXIT_OK)
    assert report["residuals"]["c_circulant"] and report["residuals"]["y_circulant"]


def test_conjugate_identity(tmp_path, capsys):
    path = tmp_path / "eye.json"
    save_matrix(path, np.eye(6))
    outdir = tmp_path / "out"
    assert main(["conjugate", str(path), "--m", "2", "-o", str(outdir)]) == EXIT_OK
    assert np.linalg.norm(load_matrix(outdir / "C.json") - np.eye(6)) < 1e-12
    assert np.linalg.norm(load_matrix(outdir / "A.json") - np.eye(4)) < 1e-12
    assert np.linalg.norm(load_matrix(outdir / "Y.json") - np.eye(6)) < 1e-12


@pytest.mark.parametrize("n", [6, 8, 12])
def test_conjugate_rejects_single_block(tmp_path, capsys, n):
    # at m = n the core A is 0 x 0, which CMAT-JSON cannot hold
    path = tmp_path / "u.json"
    save_matrix(path, haar_random_unitary(RandomSpec(n, 1)))
    outdir = tmp_path / "out"
    assert main(["conjugate", str(path), "--m", str(n), "-o", str(outdir)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")
    assert not outdir.exists()


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


# argv with U for the n = 6 input and OUT for an output path, and the one line each writes to stderr
_USAGE_CASES = [
    ("random --n 0 -o OUT", "n must be an integer >= 1, got 0"),
    ("random --n 6 --seed -1 -o OUT", "seed must be an integer >= 0, got -1"),
    ("perm 1 1 --m 1", "(1, 1) is not a permutation of 1..2"),
    ("perm 2 1 --m 3", "block size m=3 does not divide n=2"),
    ("perm 1 x --m 1", "cannot parse permutation from '1 x'"),
    ("perm 2 1 --m 0", "need integers n >= 1 and m >= 1, got n=2, m=0"),
    ("decompose U --m 4 -o OUT", "block size m=4 does not divide n=6"),
    ("decompose U --m 0 -o OUT", "need integers n >= 1 and m >= 1, got n=6, m=0"),
    ("decompose U --m 2 --max-iter 0 -o OUT", "max_iter must be an integer >= 1, got 0"),
    ("decompose U --m 2 --psi-tol nan -o OUT", "psi_tol must be a positive finite real number, got nan"),
    ("trace U --m 2 --polar-iters 0", "newton_iters must be an integer >= 1, got 0"),
    ("biunitary U --m 5", "block size m=5 does not divide n=6"),
    ("conjugate U --m 6 -o OUT", "conjugate needs m < n (the core A would be 0 x 0), got m = n = 6"),
    ("conjugate U --m 4 -o OUT", "block size m=4 does not divide n=6"),
    ("conjugate U --m 2 --max-iter -1 -o OUT", "max_iter must be an integer >= 1, got -1"),
    # D, X and Z do not exist: a bad --m exits before they are read
    ("verify U D X Z --m 4", "block size m=4 does not divide n=6"),
    ("verify U U U U --m 2 --tol -1", "tol must be finite and non-negative"),
]


@pytest.mark.parametrize("argv, message", _USAGE_CASES, ids=[argv for argv, _ in _USAGE_CASES])
def test_usage_errors_print_one_line(tmp_path, capsys, u6_file, argv, message):
    out = tmp_path / "out"
    names = {"U": u6_file, "OUT": str(out), "D": str(tmp_path / "d.json"), "X": str(tmp_path / "x.json"),
             "Z": str(tmp_path / "z.json")}
    assert main([names.get(arg, arg) for arg in argv.split()]) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_report_records_the_argv_given_to_main(tmp_path, u6_file, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["host-program", "extra-host-arg"])
    for command in ("decompose", "conjugate"):
        argv = [command, u6_file, "--m", "2", "--max-iter", "3", "-o", str(tmp_path / command)]
        assert main(argv) in (EXIT_OK, EXIT_NOT_CONVERGED)
        report = json.loads((tmp_path / command / "report.json").read_text())
        assert report["command"] == " ".join(argv)
    # a path holding a space is quoted, so the recorded command splits back into argv
    spaced = tmp_path / "a b" / "u.json"
    spaced.parent.mkdir()
    spaced.write_bytes(Path(u6_file).read_bytes())
    argv = ["decompose", str(spaced), "--m", "2", "--max-iter", "3", "-o", str(tmp_path / "out dir")]
    assert main(argv) in (EXIT_OK, EXIT_NOT_CONVERGED)
    report = json.loads((tmp_path / "out dir" / "report.json").read_text())
    assert shlex.split(report["command"]) == argv


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


def test_random_with_sigchld_ignored_writes_the_default_file(tmp_path):
    # an ignored SIGCHLD survives exec; n = 256 would save in two processes on two CPUs,
    # and with the child reaped by the kernel os.waitpid would find none
    src = str(Path(blockdxz.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    on_two_cpus = "import os; os.sched_getaffinity = lambda pid: {0, 1}; from blockdxz.cli import run; run()"
    out = tmp_path / "u.json"
    done = subprocess.run(
        [sys.executable, "-c", on_two_cpus, "random", "--n", "256", "--seed", "1", "-o", str(out)],
        env=env,
        capture_output=True,
        text=True,
        preexec_fn=lambda: signal.signal(signal.SIGCHLD, signal.SIG_IGN),
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    assert main(["random", "--n", "256", "--seed", "1", "-o", str(tmp_path / "default.json")]) == EXIT_OK
    assert out.read_bytes() == (tmp_path / "default.json").read_bytes()


def test_source_has_no_assert_or_debug_read():
    # python -O drops assert statements and makes __debug__ False, so a check
    # in src/ must be an explicit raise
    found = []
    for path in sorted(Path(blockdxz.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_source_names_integral_only_in_the_integer_rule():
    # one rule for every integer in a spec or config, matcore._integer_at_least, which rejects bool
    found = []
    for path in sorted(Path(blockdxz.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {}
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    owner.setdefault(node, func.name)
        for node in ast.walk(tree):
            if "Integral" in (getattr(node, "attr", None), getattr(node, "id", None), getattr(node, "name", None)):
                found.append(f"{path.name}:{owner.get(node, '<module>')}")
    assert found == ["matcore.py:_integer_at_least"]


# the inputs of test_decompose_report_is_json, each with the flags its runs add
_DECOMPOSE_INPUTS = {
    "haar-12": (lambda: haar_random_unitary(RandomSpec(12, 4)), ["--max-iter", "3"]),
    # exactly zero row sums but one: the polar kernel's SVD route flags them, and the run ends unconverged
    "dft-8": (lambda: np.fft.fft(np.eye(8), norm="ortho"), []),
    "haar-64": (lambda: haar_random_unitary(RandomSpec(64, 3)), []),
}


@pytest.mark.parametrize(
    "name, m",
    [pytest.param("haar-12", m, id=str(m)) for m in (1, 2, 12)]
    + [("dft-8", m) for m in (1, 2, 4)]
    # r = 2 at m = 32, above the polar kernel's floor of 24: every sweep takes the paired polar route
    + [("haar-64", 1), ("haar-64", 32)],
)
def test_decompose_report_is_json(tmp_path, capsys, name, m):
    # numpy scalars in the result would make json.dumps raise before report.json is written
    make, flags = _DECOMPOSE_INPUTS[name]
    u_path = tmp_path / "u.json"
    save_matrix(u_path, make())
    code = main(["decompose", str(u_path), "--m", str(m), *flags, "-o", str(tmp_path / "out")])
    assert code in ((EXIT_NOT_CONVERGED,) if name == "dft-8" else (EXIT_OK, EXIT_NOT_CONVERGED))
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["converged"] is (code == EXIT_OK)
    assert all(type(v) is float for _, v in report["psi_trace"])
    # the factors of a run, converged or not, reconstruct U with unitary D and Z
    assert all(report["residuals"][k] <= 1e-12 for k in ("reconstruction", "d_unitarity", "z_unitarity"))
    # a numpy warning raises under filterwarnings = error; outside pytest it would reach stderr
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["decompose", "trace", "biunitary", "conjugate"])
def test_input_unitarity_is_checked_once(tmp_path, monkeypatch, command):
    # decompose checks ||U^H U - I|| (of T^H U T under conjugate), so the
    # CLI's own load pays no second n^3 Gram product
    from blockdxz import blocksinkhorn
    from blockdxz.structure import _fourier_conjugate

    n, m = 8, 2
    path = tmp_path / "u.json"
    save_matrix(path, haar_random_unitary(RandomSpec(n, 5)))
    u = load_matrix(path)
    inputs = (u, _fourier_conjugate(u, BlockPartition(n, m), inverse=True))
    checked = []
    real = blocksinkhorn.unitarity_residual

    def counting(a):
        if a.shape == (n, n) and any(np.abs(a - b).max() <= 1e-12 for b in inputs):
            checked.append(a)
        return real(a)

    for name, module in list(sys.modules.items()):
        if name.startswith("blockdxz") and hasattr(module, "unitarity_residual"):
            monkeypatch.setattr(module, "unitarity_residual", counting)
    argv = [command, str(path), "--m", str(m), "--max-iter", "3"]
    if command in ("decompose", "conjugate"):
        argv += ["-o", str(tmp_path / "out")]
    assert main(argv) in (EXIT_OK, EXIT_NOT_CONVERGED)
    assert len(checked) == 1


@pytest.mark.parametrize("command", ["decompose", "trace", "biunitary", "conjugate"])
def test_non_unitary_input_is_a_data_error_after_the_block_size(tmp_path, capsys, command):
    path = tmp_path / "nu.json"
    save_matrix(path, 2 * np.eye(6))
    argv = [command, str(path)]
    if command in ("decompose", "conjugate"):
        argv += ["-o", str(tmp_path / "out")]
    assert main([*argv, "--m", "2"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:") and "not unitary" in err
    # the block size is checked first, so a bad --m is a usage error
    assert main([*argv, "--m", "4"]) == EXIT_USAGE
    assert not (tmp_path / "out").exists()


@pytest.fixture
def overflow_file(tmp_path):
    """A finite 4 x 4 file, I with entry (0, 0) = 1e200, whose Gram overflows."""
    u = np.eye(4)
    u[0, 0] = 1e200
    path = tmp_path / "big.json"
    save_matrix(path, u)
    return str(path)


@pytest.mark.parametrize("command", ["decompose", "trace", "biunitary", "conjugate"])
def test_input_whose_gram_overflows_is_a_data_error(tmp_path, capsys, overflow_file, command):
    argv = [command, overflow_file, "--m", "2"]
    if command in ("decompose", "conjugate"):
        argv += ["-o", str(tmp_path / "out")]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"error: {overflow_file}:") and "not unitary" in err
    assert not (tmp_path / "out").exists()


def test_verify_of_a_file_whose_gram_overflows_fails_without_raising(capsys, overflow_file):
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["verify", *[overflow_file] * 4, "--m", "2", "--json"]) == EXIT_NOT_CONVERGED
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False and report["psi_x"] is None


def strict_json(text):
    """json.loads that rejects the NaN, Infinity and -Infinity tokens RFC 8259 lacks."""
    def reject(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=reject)


def test_non_finite_residuals_are_written_as_null(capsys, overflow_file):
    # no errstate here: a numpy warning would fail the test
    assert main(["verify", *[overflow_file] * 4, "--m", "2", "--json"]) == EXIT_NOT_CONVERGED
    out, err = capsys.readouterr()
    report = strict_json(out)
    assert report["passed"] is False
    assert report["reconstruction"] is None and report["d_unitarity"] is None and report["psi_x"] is None
    assert report["d_off_diagonal"] == 0.0 and report["tol"] == 1e-8
    assert err == ""


def test_report_json_writes_non_finite_residuals_as_null(monkeypatch, tmp_path, capsys, u6_file):
    verify = blockdxz.cli.verify_decomposition

    def overflowing(*args):
        report = verify(*args)
        report.reconstruction, report.psi_x = math.nan, -math.inf
        return report

    monkeypatch.setattr(blockdxz.cli, "verify_decomposition", overflowing)
    assert main(["decompose", u6_file, "--m", "2", "--max-iter", "3", "-o", str(tmp_path), "--json"]) == EXIT_NOT_CONVERGED
    printed = strict_json(capsys.readouterr().out)
    report = strict_json((tmp_path / "report.json").read_text())
    assert printed == report
    assert report["residuals"]["reconstruction"] is None and report["residuals"]["psi_x"] is None
    assert report["residuals"]["passed"] is False


def test_overflow_input_prints_only_the_documented_stderr(tmp_path, capsys, overflow_file):
    # no errstate here: the gate and verify decide without a numpy warning
    assert main(["decompose", overflow_file, "--m", "2", "-o", str(tmp_path / "out")]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {overflow_file}: input is not unitary within 1e-08\n"
    assert main(["verify", *[overflow_file] * 4, "--m", "2"]) == EXIT_NOT_CONVERGED
    out, err = capsys.readouterr()
    assert err == "" and "passed: False" in out


@pytest.mark.parametrize("command", ["decompose", "trace", "biunitary", "conjugate"])
def test_non_square_input_is_a_data_error(tmp_path, capsys, command):
    path = tmp_path / "wide.json"
    save_matrix(path, np.eye(6)[:, :4])
    argv = [command, str(path), "--m", "2"]
    if command in ("decompose", "conjugate"):
        argv += ["-o", str(tmp_path / "out")]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:") and "square" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("wrong", ["u", "d", "x", "z"])
def test_verify_wrong_shape_is_a_data_error(tmp_path, capsys, wrong):
    mats = dict(zip("udxz", (Permutation(SIGMA_IMAGE).to_matrix(),) + SIGMA_FACTORS_M2))
    mats[wrong] = np.eye(6)[:, :4] if wrong == "u" else np.eye(4)
    paths = []
    for name, a in mats.items():
        paths.append(str(tmp_path / f"{name}.json"))
        save_matrix(paths[-1], a)
    assert main(["verify", *paths, "--m", "2"]) == EXIT_DATA
    assert f"{wrong.upper()} has shape" in capsys.readouterr().err
    # a block size that does not divide n (rows of U) stays a usage error
    assert main(["verify", *paths, "--m", "4"]) == EXIT_USAGE
    # and is found before D, X and Z are read
    Path(paths[1]).write_text("{broken")
    assert main(["verify", *paths, "--m", "4"]) == EXIT_USAGE
    assert main(["verify", *paths, "--m", "2"]) == EXIT_DATA


_EDGE_UNITARIES = {
    "minus-identity": -np.eye(6),
    "i-identity": 1j * np.eye(6),
    "phased-permutation": np.exp(0.3j) * Permutation(SIGMA_IMAGE).to_matrix(),
    "one-by-one": np.array([[1j]]),
}


@pytest.mark.parametrize("command", ["decompose", "trace", "biunitary", "conjugate"])
@pytest.mark.parametrize(
    "name, m",
    [(name, m) for name in ("minus-identity", "i-identity") for m in (1, 2, 3, 6)]
    + [("phased-permutation", 1), ("one-by-one", 1)],
)
def test_edge_unitaries_exit_with_a_documented_code(tmp_path, capsys, command, name, m):
    # a global phase is invisible to psi, so these runs stop before the first sweep
    path = tmp_path / "u.json"
    save_matrix(path, _EDGE_UNITARIES[name])
    argv = [command, str(path), "--m", str(m)]
    if command in ("decompose", "conjugate"):
        argv += ["-o", str(tmp_path / "out")]
    code = main(argv)
    assert code in (EXIT_OK, EXIT_NOT_CONVERGED, EXIT_USAGE, EXIT_DATA)
    if command == "decompose":
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["residuals"]["passed"] is report["converged"]
        if name.endswith("identity"):
            assert code == EXIT_OK and report["residuals"]["passed"] is True
    if command == "conjugate" and name.endswith("identity") and m < 6:
        assert code == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["residuals"]["reconstruction"] <= 1e-12
