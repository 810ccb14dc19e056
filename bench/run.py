"""Benchmark of the blockdxz package.

Runs one workload in this process: sets up its inputs from --seed, then
repeats whole rounds of timed operations until --seconds have passed and
every input has run once.  An operation is one library `decompose` plus
`verify_decomposition`, or one in-process `blockdxz.cli.main([...])`
command.  Every output is checked with the benchmark's own numpy code
(checks.py); an operation fails when it raises, breaks a check, or exits
with a code that disagrees with the benchmark's verdict.

    python3 bench/run.py --workload haar-small --seed 1 --seconds 25 --trace 0

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run (spans.py) with --trace 1.
"""

from __future__ import annotations

import os

# BLAS runs single-threaded: on a small shared machine a second thread adds
# contention noise rather than speed
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from spans import Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUPS = 3

# haar-small: every divisor m < n for n = 4..16, under the default
# IterationConfig; 16 inputs per shape keep the seed-to-seed spread of the
# geometric-mean residual small although only about a third converge
SMALL_SHAPES = [(n, m) for n in range(4, 17) for m in range(1, n) if n % m == 0]
SMALL_PER_SHAPE = 16
# haar-large: cost per sweep at m = 1 (dense apply) and m = n/2 (polar of
# two big blocks); the budget is far too short to converge.  512/1 comes
# twice, so a round has an odd count and the median operation is a 512/1
# run, not the mean of two neighbours of different shape
LARGE_SHAPES = [(256, 1), (256, 128), (512, 1), (512, 1), (512, 256)]
LARGE_PER_SHAPE = 4
LARGE_SWEEPS = 4
LIBRARY_VERIFY_TOL = 1e-3  # the README's library example
# cli-files: CMAT-JSON at n = 512, two rounds of distinct inputs; r = 64
# blocks for conjugate and perm
CLI_N = 512
CLI_ROUNDS = 2
CLI_DECOMPOSE_M = 1
CLI_BLOCK_M = 8
CLI_SWEEPS = 4
CLI_PSI_TOL = 1e-6
CLI_VERIFY_TOL = 1e-6

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import blockdxz, blockdxz.cli\n"
    "print(time.perf_counter() - t)\n"
)


@dataclass
class Op:
    """One timed call and the check of its result.

    check returns the problems found and, for a Sinkhorn decomposition, the
    largest line-sum residual of its X (None otherwise).
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple[list[str], float | None]]


def import_program():
    if not (SRC / "blockdxz" / "__init__.py").is_file():
        sys.exit(f"bench: no blockdxz sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import blockdxz
    import blockdxz.cli  # noqa: F401  (the CLI workload calls blockdxz.cli.main)

    return blockdxz


def import_seconds() -> float:
    """Time to import blockdxz (with numpy) in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout)


def library_op(bdx, u: np.ndarray, m: int, cfg) -> Op:
    n = u.shape[0]

    def call():
        dec = bdx.decompose(u, m, cfg)
        return dec, bdx.verify_decomposition(u, dec, LIBRARY_VERIFY_TOL)

    def check(result):
        dec, report = result
        res = checks.dxz_residuals(u, dec.D, dec.X, dec.Z, m)
        problems = checks.check_dxz(res, n, m, bool(dec.converged), cfg.psi_tol)
        if bool(report.passed) != checks.passes(res, LIBRARY_VERIFY_TOL):
            problems.append(f"verify_decomposition passed={report.passed} disagrees with the own verdict")
        return problems, res["max_line_sum"]

    return Op(f"decompose n={n} m={m}", call, check)


def _haar_rounds(bdx, seed: int, shapes, per_shape: int, cfg) -> list[list[Op]]:
    """Round k holds input k of every shape, so every round has the same mix."""
    rng = np.random.default_rng(seed)
    return [
        [
            library_op(bdx, bdx.haar_random_unitary(bdx.RandomSpec(n, int(rng.integers(2**63)))), m, cfg)
            for n, m in shapes
        ]
        for _ in range(per_shape)
    ]


def build_haar_small(bdx, seed: int, work: Path) -> list[list[Op]]:
    return _haar_rounds(bdx, seed, SMALL_SHAPES, SMALL_PER_SHAPE, bdx.IterationConfig())


def build_haar_large(bdx, seed: int, work: Path) -> list[list[Op]]:
    return _haar_rounds(bdx, seed, LARGE_SHAPES, LARGE_PER_SHAPE, bdx.IterationConfig(max_iter=LARGE_SWEEPS))


def run_cli(bdx, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bdx.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def build_cli_files(bdx, seed: int, work: Path) -> list[list[Op]]:
    rng = np.random.default_rng(seed)
    work.mkdir(parents=True, exist_ok=True)
    return [
        _cli_round(bdx, int(rng.integers(2**31)), rng.permutation(CLI_N) + 1, work)
        for _ in range(CLI_ROUNDS)
    ]


def _cli_round(bdx, u_seed: int, image: np.ndarray, work: Path) -> list[Op]:
    """random, decompose, verify, conjugate and perm at n = 512.

    The later checks of a round use the benchmark's own copy of U, read back
    after `random`, and its own residuals of the decompose output.  Both
    Sinkhorn runs of a round, decompose and the one inside conjugate, enter
    line_sum_residual.
    """
    u_path, dec_dir, conj_dir = work / "u.json", work / "dec", work / "conj"
    iteration = ["--max-iter", str(CLI_SWEEPS), "--psi-tol", str(CLI_PSI_TOL)]
    state: dict = {}

    def op(label, argv, check):
        return Op(label, lambda: run_cli(bdx, argv), check)

    def check_random(result):
        code, _, _ = result
        state.clear()
        state["u"] = checks.load_cmat(u_path)
        problems = checks.check_unitary_file(state["u"], CLI_N)
        return problems + checks.check_exit(code, not problems), None

    def check_decompose(result):
        code, _, _ = result
        d, x, z = (checks.load_cmat(dec_dir / f"{name}.json") for name in "DXZ")
        res = state["dxz"] = checks.dxz_residuals(state["u"], d, x, z, CLI_DECOMPOSE_M)
        converged = checks.is_converged(res["psi_x"], CLI_PSI_TOL, CLI_N)
        problems = checks.check_dxz(res, CLI_N, CLI_DECOMPOSE_M, converged, CLI_PSI_TOL)
        return problems + checks.check_exit(code, converged), res["max_line_sum"]

    def check_verify(result):
        code, _, _ = result
        return checks.check_exit(code, checks.passes(state["dxz"], CLI_VERIFY_TOL)), None

    def check_conjugate(result):
        code, _, _ = result
        c, a, y = (checks.load_cmat(conj_dir / f"{name}.json") for name in "CAY")
        problems, converged, residual = checks.check_conjugate(state["u"], c, a, y, CLI_BLOCK_M, CLI_PSI_TOL)
        return problems + checks.check_exit(code, converged), residual

    def check_perm(result):
        code, stdout, _ = result
        problems = checks.check_perm(image, *checks.parse_perm_output(stdout, CLI_N), CLI_BLOCK_M)
        return problems + checks.check_exit(code, not problems), None

    factors = [str(dec_dir / f"{name}.json") for name in "DXZ"]
    return [
        op("random", ["random", "--n", str(CLI_N), "--seed", str(u_seed), "-o", str(u_path)], check_random),
        op(
            "decompose",
            ["decompose", str(u_path), "--m", str(CLI_DECOMPOSE_M), "-o", str(dec_dir), *iteration],
            check_decompose,
        ),
        op(
            "verify",
            ["verify", str(u_path), *factors, "--m", str(CLI_DECOMPOSE_M), "--tol", str(CLI_VERIFY_TOL), "--json"],
            check_verify,
        ),
        op(
            "conjugate",
            ["conjugate", str(u_path), "--m", str(CLI_BLOCK_M), "-o", str(conj_dir), *iteration],
            check_conjugate,
        ),
        op("perm", ["perm", *map(str, image), "--m", str(CLI_BLOCK_M)], check_perm),
    ]


WORKLOADS = {
    "haar-small": build_haar_small,
    "haar-large": build_haar_large,
    "cli-files": build_cli_files,
}


def set_up(bdx, build, seed: int, work: Path, tracer: Tracer | None):
    """Import and build SETUPS times; the median of the sums is setup_s."""
    totals, rounds = [], None
    for k in range(SETUPS):
        imported = import_seconds()
        if tracer is not None:
            tracer.current_op = -(k + 1)
        started = time.perf_counter()
        rounds = build(bdx, seed, work)
        totals.append(imported + time.perf_counter() - started)
    return rounds, statistics.median(totals)


@dataclass
class Run:
    times: list[float]
    residuals: list[float]
    failures: list[str]
    rounds_done: int


def measure(rounds: list[list[Op]], seconds: float, tracer: Tracer | None) -> Run:
    """Whole rounds until every round has run once and `seconds` have passed."""
    ops_per_pass = sum(len(r) for r in rounds)
    run = Run([], [], [], 0)
    started = time.perf_counter()
    while run.rounds_done < len(rounds) or time.perf_counter() - started < seconds:
        for op in rounds[run.rounds_done % len(rounds)]:
            op_id = len(run.times)
            if tracer is not None:
                tracer.current_op = op_id
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a raising operation is a failed one
                run.times.append(time.perf_counter() - t0)
                run.failures.append(f"{op.label}: raised {type(exc).__name__}: {exc}")
                continue
            run.times.append(time.perf_counter() - t0)
            try:
                problems, residual = op.check(result)
            except Exception as exc:  # unreadable output fails the operation
                problems, residual = [f"check raised {type(exc).__name__}: {exc}"], None
            if problems:
                run.failures.append(f"{op.label}: {'; '.join(problems)}")
            elif residual is not None and op_id < ops_per_pass:
                run.residuals.append(residual)
        run.rounds_done += 1
    return run


def end_to_end(run: Run, rounds_per_pass: int, setup_s: float) -> dict:
    logs = [math.log(max(r, checks.EPS)) for r in run.residuals]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(run.times) / run.rounds_done * rounds_per_pass, "s"),
        "op_p50_ms": (1e3 * statistics.median(run.times), "ms"),
        "line_sum_residual": (math.exp(math.fsum(logs) / len(logs)) if logs else float("nan"), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def tail_note(times: list[float]) -> str:
    """The highest of p99 and p90 that has at least ten samples beyond it."""
    for pct in (99, 90):
        if len(times) * (100 - pct) / 100 >= 10:
            return f", p{pct} {1e3 * np.percentile(times, pct):.4g} ms"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bdx = import_program()
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        rounds, setup_s = set_up(bdx, WORKLOADS[args.workload], args.seed, work, tracer)
        run = measure(rounds, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    passes = run.rounds_done / len(rounds)
    e2e = end_to_end(run, len(rounds), setup_s)
    print(f"workload {args.workload} seed {args.seed}: {run.rounds_done} rounds ({passes:.3g} passes)")
    print(f"operations: {len(run.times)} attempted, {len(run.failures)} failed")
    print(f"op_p50 over {len(run.times)} operations{tail_note(run.times)}")
    for failure in run.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    if tracer is None:
        metrics = e2e
    else:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(path)
        metrics = layer_metrics(tracer, SETUPS, passes, sum(len(r) for r in rounds))
        print(f"traced wall_s = {e2e['wall_s'][0]:.6g} s (tracing on); spans written to {path}")
        if tracer.absent:
            print(f"absent layers (reported as 0): {', '.join(tracer.absent)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not run.failures,
        "attempted": len(run.times),
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
