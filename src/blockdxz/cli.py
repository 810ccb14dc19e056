"""Command-line surface.

Exit codes: 0 success (converged / verification passed), 2 valid run with a
negative outcome (not converged, verification failed), 64 usage error,
65 data error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import shlex
import sys
import time
from pathlib import Path

import numpy as np

from .blocksinkhorn import DxzDecomposition, IterationConfig, decompose, line_sum_tolerance, verify_decomposition
from .matcore import BlockPartition, haar_random_unitary, load_matrix, save_matrix, RandomSpec
from .permdecomp import Permutation, perm_dxz
from .polar import PolarConfig
from .structure import biunitary_from_dxz, conjugate_decompose, is_block_circulant, normalize_biunitary

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_USAGE = 64
EXIT_DATA = 65


class _UsageError(Exception):
    pass


def _digest(path) -> str:
    """SHA-256 of a file, read in 1 MiB chunks rather than as one copy."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _run_on(path, run, *args):
    """run(*args), naming the file in a ValueError: squareness and unitarity
    are checked by decompose and conjugate_decompose."""
    try:
        return run(*args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _from_argv(make, *values):
    """make(*values) on command-line values, whose ValueError is a usage error."""
    try:
        return make(*values)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _iteration_config(args) -> IterationConfig:
    return _from_argv(IterationConfig, args.max_iter, args.psi_tol, _from_argv(PolarConfig, args.polar_iters))


def _decompose(args, u: np.ndarray) -> tuple[IterationConfig, DxzDecomposition]:
    _from_argv(BlockPartition, u.shape[0], args.m)
    cfg = _iteration_config(args)
    return cfg, _run_on(args.input, decompose, u, args.m, cfg)


def _save_factors(outdir, **factors) -> Path:
    """Write each factor to <outdir>/<name>.json, in the order given."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, mat in factors.items():
        save_matrix(outdir / f"{name}.json", mat)
    return outdir


def _format_part(x: float) -> str:
    short = f"{x:+.4f}"
    return short if abs(float(short) - x) <= 1e-12 else f"{x:+.12f}"


def _format_complex(value: complex) -> str:
    # 4 decimals when exact to 1e-12, else 12: biunitary's V and W are its only output and must match its residual
    return _format_part(value.real) + _format_part(value.imag) + "i"


def _print_matrix(mat: np.ndarray, label: str):
    print(label)
    for row in mat:
        print("  " + "  ".join(_format_complex(v) for v in row))


def _finite_or_none(values: dict) -> dict:
    """values with every NaN or infinite float as None, which JSON writes as
    null: RFC 8259 has no NaN or Infinity, so the JSON this module writes is
    dumped with allow_nan=False, which raises rather than write such a token."""
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in values.items()}


def _write_report(args, cfg: IterationConfig, outdir: Path, digest: str, p: BlockPartition, residuals: dict,
                  converged: bool, started: float, psi_trace=()) -> None:
    """Write <outdir>/report.json, and print it under --json.  digest is the
    input's, taken on loading: a saved factor may have overwritten it since."""
    text = json.dumps({
        "command": shlex.join(args.argv),
        "input_digest": digest,
        "partition": {"n": p.n, "m": p.m, "r": p.r, "q": p.q},
        "config": {"max_iter": cfg.max_iter, "psi_tol": cfg.psi_tol, "polar_iters": cfg.polar.newton_iters},
        "psi_trace": [[t, value] for t, value in psi_trace],
        "residuals": _finite_or_none(residuals),
        "converged": converged,
        "wall_time_s": time.perf_counter() - started,
    }, indent=2, allow_nan=False)
    (outdir / "report.json").write_text(text)
    if args.json:
        print(text)


def cmd_decompose(args) -> int:
    started = time.perf_counter()
    u = load_matrix(args.input)
    digest = _digest(args.input)
    cfg, dec = _decompose(args, u)
    outdir = _save_factors(args.output, D=dec.D, X=dec.X, Z=dec.Z)
    # the tolerance decompose certified a converged run at, so converged implies passed;
    # an unconverged run fails, however close its factors come
    verification = verify_decomposition(u, dec, line_sum_tolerance(cfg.psi_tol, dec.partition.n)).as_dict()
    verification["passed"] = verification["passed"] and dec.converged
    _write_report(args, cfg, outdir, digest, dec.partition, verification, dec.converged, started, dec.psi_trace)
    if not args.json:
        final_t, final_psi = dec.psi_trace[-1]
        print(f"converged: {dec.converged} after {final_t} iterations, psi = {final_psi:.3e}")
        print(f"reconstruction residual: {verification['reconstruction']:.3e}")
    return EXIT_OK if dec.converged else EXIT_NOT_CONVERGED


def cmd_trace(args) -> int:
    _, dec = _decompose(args, load_matrix(args.input))
    print(f"  t  psi (m={args.m})")
    for t, value in dec.psi_trace:
        print(f"{t:3d}  {value:.3f}")
    return EXIT_OK if dec.converged else EXIT_NOT_CONVERGED


def cmd_verify(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise _UsageError("tol must be finite and non-negative")
    u = load_matrix(args.u)
    p = _from_argv(BlockPartition, u.shape[0], args.m)  # a bad --m exits before D, X and Z are read
    d, x, z = map(load_matrix, (args.d, args.x, args.z))
    report = verify_decomposition(u, DxzDecomposition(D=d, X=x, Z=z, partition=p), args.tol)
    if args.json:
        print(json.dumps(_finite_or_none(report.as_dict()), indent=2, allow_nan=False))
    else:
        for key, value in report.as_dict().items():
            print(f"{key}: {value}")
    return EXIT_OK if report.passed else EXIT_NOT_CONVERGED


def cmd_perm(args) -> int:
    perm = _from_argv(Permutation.from_string, " ".join(args.perm))
    dec = _from_argv(perm_dxz, perm, args.m)  # a bad --m fails perm_dxz's first step, its BlockPartition
    # each factor is a 0/1 permutation matrix: a row is the row of zeros with its one 1 spliced in
    zeros = " 0" * dec.partition.n
    for label, mat in (("D", dec.D), ("X", dec.X), ("Z", dec.Z)):
        print(f"{label} =")
        print("\n".join(f" {zeros[: 2 * k]} 1{zeros[2 * k + 2 :]}" for k in np.argmax(mat.real, axis=1).tolist()))
    # perm_dxz raises unless the factors multiply to P exactly
    print("product check D X Z = P: exact")
    if args.output:
        _save_factors(args.output, D=dec.D, X=dec.X, Z=dec.Z)
    return EXIT_OK


def cmd_random(args) -> int:
    save_matrix(args.output, haar_random_unitary(_from_argv(RandomSpec, args.n, args.seed)))
    print(args.output)
    return EXIT_OK


def cmd_biunitary(args) -> int:
    u = load_matrix(args.input)
    _, dec = _decompose(args, u)
    v, w = normalize_biunitary(*biunitary_from_dxz(dec))
    residual = float(np.linalg.norm(u @ v.stacked - w.stacked))
    _print_matrix(v.stacked, "V =")
    _print_matrix(w.stacked, "W =")
    print(f"residual |U V - W|_F = {residual:.3e}")
    return EXIT_OK if dec.converged else EXIT_NOT_CONVERGED


def cmd_conjugate(args) -> int:
    started = time.perf_counter()
    u = load_matrix(args.input)
    digest = _digest(args.input)
    p = _from_argv(BlockPartition, u.shape[0], args.m)
    if p.q == 0:
        raise _UsageError(f"conjugate needs m < n (the core A would be 0 x 0), got m = n = {p.n}")
    cfg = _iteration_config(args)
    conj = _run_on(args.input, conjugate_decompose, u, args.m, cfg)
    outdir = _save_factors(args.output, C=conj.C, A=conj.A, Y=conj.Y)
    residuals = {
        "reconstruction": conj.reconstruction,
        "c_circulant": bool(is_block_circulant(conj.C, p)),
        "y_circulant": bool(is_block_circulant(conj.Y, p)),
    }
    _write_report(args, cfg, outdir, digest, p, residuals, conj.converged, started)
    if not args.json:
        print(f"converged: {conj.converged} after {conj.iterations_used} iterations")
        print(f"reconstruction residual: {residuals['reconstruction']:.3e}")
        print(f"C block-circulant: {residuals['c_circulant']}, Y block-circulant: {residuals['y_circulant']}")
    return EXIT_OK if conj.converged else EXIT_NOT_CONVERGED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockdxz",
        description="Block DXZ decomposition toolkit for unitary matrices (CMAT-JSON files)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # flags shared by the subcommands that run the iteration on one input
    target = argparse.ArgumentParser(add_help=False)
    target.add_argument("input")
    target.add_argument("--m", type=int, required=True)
    saved = argparse.ArgumentParser(add_help=False)
    saved.add_argument("--output", "-o", default=".")
    saved.add_argument("--json", action="store_true")
    iteration = argparse.ArgumentParser(add_help=False)
    iteration.add_argument("--max-iter", type=int, default=200)
    iteration.add_argument("--psi-tol", type=float, default=1e-6)
    iteration.add_argument("--polar-iters", type=int, default=10)

    s = sub.add_parser("decompose", parents=[target, saved, iteration], help="decompose a unitary into D, X, Z")
    s.set_defaults(func=cmd_decompose)

    s = sub.add_parser("trace", parents=[target, iteration], help="print the psi progress table")
    s.set_defaults(func=cmd_trace)

    s = sub.add_parser("verify", help="check a claimed decomposition")
    s.add_argument("u")
    s.add_argument("d")
    s.add_argument("x")
    s.add_argument("z")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--tol", type=float, default=1e-8)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_verify)

    s = sub.add_parser("perm", help="exact decomposition of a permutation")
    s.add_argument("perm", nargs="+", help='one-line notation, e.g. "5 1 2 4 6 3"')
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--output", "-o", default=None)
    s.set_defaults(func=cmd_perm)

    s = sub.add_parser("random", help="write a seeded Haar-random unitary")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--output", "-o", required=True)
    s.set_defaults(func=cmd_random)

    s = sub.add_parser("biunitary", parents=[target, iteration], help="extract the biunitary vector pair")
    s.set_defaults(func=cmd_biunitary)

    s = sub.add_parser("conjugate", parents=[target, saved, iteration], help="circulant-conjugate decomposition")
    s.set_defaults(func=cmd_conjugate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    args.argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
