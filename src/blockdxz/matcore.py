"""Dense complex matrix substrate: the block layout, special matrices, the
unitarity input gate, random unitaries and CMAT-JSON file I/O.

All matrices are plain numpy arrays of dtype complex128.  Block indices in
the public interface are 1-based (j, k = 1 .. r); a block covers consecutive
rows and columns of the parent matrix.  This module alone knows the block
layout; its block helpers take validated complex arrays and coerce nothing,
except block_row_sum and block_col_sum, which validate through as_partitioned.
"""

from __future__ import annotations

import json
import math
import mmap
import numbers
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "BlockPartition",
    "RandomSpec",
    "as_matrix",
    "as_partitioned",
    "block_row_sum",
    "block_col_sum",
    "block_grid",
    "row_sums",
    "col_sums",
    "line_sum_residual",
    "off_block_norm",
    "diag_blocks",
    "split_block_diagonal",
    "block_diag",
    "unitarity_residual",
    "require_unitary",
    "haar_random_unitary",
    "save_matrix",
    "load_matrix",
]


def _integer_at_least(value, minimum: int) -> bool:
    """Whether value is an integer >= minimum: numpy's integers are, a bool is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= minimum


@dataclass(frozen=True)
class BlockPartition:
    """Block grid of an n x n matrix: r = n/m blocks per side, each m x m."""

    n: int
    m: int
    r: int = field(init=False)
    q: int = field(init=False)

    def __post_init__(self):
        if not all(_integer_at_least(v, 1) for v in (self.n, self.m)):
            raise ValueError(f"need integers n >= 1 and m >= 1, got n={self.n!r}, m={self.m!r}")
        if self.n % self.m != 0:
            raise ValueError(f"block size m={self.m} does not divide n={self.n}")
        object.__setattr__(self, "r", self.n // self.m)
        object.__setattr__(self, "q", self.n - self.m)


@dataclass(frozen=True)
class RandomSpec:
    """Seeded request for one random unitary; equal seeds give equal matrices."""

    n: int
    seed: int

    def __post_init__(self):
        if not _integer_at_least(self.n, 1):
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        if not _integer_at_least(self.seed, 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")


def as_matrix(values) -> np.ndarray:
    """Coerce input to a C-contiguous 2-D complex128 array, rejecting
    non-finite entries.  An array that already is one comes back as itself:
    every caller only reads the result."""
    a = np.ascontiguousarray(values, dtype=complex)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def as_partitioned(a, p: BlockPartition) -> np.ndarray:
    """as_matrix(a), also requiring the n x n shape of the partition."""
    a = as_matrix(a)
    if a.shape != (p.n, p.n):
        raise ValueError(f"matrix shape {a.shape} does not match partition n={p.n}")
    return a


def unitarity_residual(a: np.ndarray) -> float:
    """||a^H a - I||_F of a square matrix, or of all blocks of an (r, m, m)
    stack together.  With a = P + iQ and S = [P; Q] stacked by rows,
    Re(a^H a) = S^T S is a symmetric product that BLAS forms at half the cost
    of a general one, and Im(a^H a) = K - K^T with K = P^T Q: 2 n^3 real
    multiply-adds per block against 4 n^3 for one complex product a^H a,
    from which the result may differ by rounding."""
    n = a.shape[-1]
    rows = a.shape[-2]
    s = np.concatenate((a.real, a.imag), axis=-2)
    re = s.swapaxes(-1, -2) @ s  # one buffer times its own transpose: syrk
    re.reshape(-1, n * n)[:, :: n + 1] -= 1.0
    k = s[..., :rows, :].swapaxes(-1, -2) @ s[..., rows:, :]
    return math.hypot(np.linalg.norm(re), np.linalg.norm(k - k.swapaxes(-1, -2)))


_UNITARY_INPUT_TOL = 1e-8


def require_unitary(a: np.ndarray, name: str) -> None:
    """The one input gate, as the DXZ family is stated for unitary U: raise
    ValueError unless ||a^H a - I||_F <= 1e-8, which an inf or NaN fails.  A
    finite a whose Gram overflows is decided here, without a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        residual = unitarity_residual(a)
    if not residual <= _UNITARY_INPUT_TOL:
        raise ValueError(f"{name} is not unitary within {_UNITARY_INPUT_TOL}")


def block_grid(a: np.ndarray, p: BlockPartition) -> np.ndarray:
    """The (r, r, m, m) view of an n x n matrix: [j, k] is block (j, k), 0-based."""
    return a.reshape(p.r, p.m, p.r, p.m).transpose(0, 2, 1, 3)


def row_sums(a: np.ndarray, p: BlockPartition) -> np.ndarray:
    """The r block row sums as an (r, m, m) stack."""
    return block_grid(a, p).sum(axis=1)


def col_sums(a: np.ndarray, p: BlockPartition) -> np.ndarray:
    """The r block column sums as an (r, m, m) stack."""
    return block_grid(a, p).sum(axis=0)


def line_sum_residual(a: np.ndarray, p: BlockPartition) -> float:
    """Largest ||S - I||_F over all 2r block line sums S."""
    sums = np.concatenate((row_sums(a, p), col_sums(a, p)))
    return float(np.linalg.norm(sums - np.eye(p.m), axis=(1, 2)).max())


def off_block_norm(a: np.ndarray, p: BlockPartition) -> float:
    """Frobenius norm of everything outside the r diagonal blocks."""
    weights = (np.abs(block_grid(a, p)) ** 2).sum(axis=(2, 3))
    return float(np.sqrt(weights[~np.eye(p.r, dtype=bool)].sum()))


def diag_blocks(a: np.ndarray, p: BlockPartition) -> np.ndarray:
    """The r diagonal blocks as an (r, m, m) stack (a copy)."""
    j = np.arange(p.r)
    return block_grid(a, p)[j, j]


def split_block_diagonal(a: np.ndarray, p: BlockPartition) -> tuple[np.ndarray, float]:
    """The diagonal blocks of a as an (r, m, m) stack and the off_block_norm
    of a.  When every nonzero real and imaginary part of a lies in a diagonal
    block (as in every D and Z this package builds), counting them finds it
    and the norm is exactly 0.0 without a pass over the squared entries."""
    blocks = diag_blocks(a, p)
    if np.count_nonzero(a.view(float)) == np.count_nonzero(blocks.view(float)):
        return blocks, 0.0
    return blocks, off_block_norm(a, p)


def block_diag(stack: np.ndarray) -> np.ndarray:
    """The n x n block-diagonal matrix with an (r, m, m) stack on its diagonal."""
    r, m, _ = stack.shape
    out = np.zeros((r * m, r * m), dtype=complex)
    j = np.arange(r)
    block_grid(out, BlockPartition(r * m, m))[j, j] = stack
    return out


def _adjoints(stack: np.ndarray) -> np.ndarray:
    return stack.conj().transpose(0, 2, 1)


def _apply_left(blocks: np.ndarray, x: np.ndarray, p: BlockPartition) -> np.ndarray:
    """block_diag(blocks) @ x as one batched matmul on the (r, m, n) view, or
    for m = 1 as a scaling of the rows."""
    if p.m == 1:
        return blocks.reshape(p.n, 1) * x
    return (blocks @ x.reshape(p.r, p.m, p.n)).reshape(p.n, p.n)


def _apply_right(x: np.ndarray, blocks: np.ndarray, p: BlockPartition) -> np.ndarray:
    """x @ block_diag(blocks) as one batched matmul on the (r, n, m) view, or
    for m = 1 as a scaling of the columns."""
    if p.m == 1:
        return x * blocks.reshape(1, p.n)
    y = x.reshape(p.n, p.r, p.m).transpose(1, 0, 2) @ blocks
    return y.transpose(1, 0, 2).reshape(p.n, p.n)


def block_row_sum(a, p: BlockPartition, j: int) -> np.ndarray:
    """Sum of the r blocks in block row j (1-based)."""
    a = as_partitioned(a, p)
    if not 1 <= j <= p.r:
        raise ValueError(f"block row {j} out of range 1..{p.r}")
    return row_sums(a, p)[j - 1]


def block_col_sum(a, p: BlockPartition, k: int) -> np.ndarray:
    """Sum of the r blocks in block column k (1-based)."""
    a = as_partitioned(a, p)
    if not 1 <= k <= p.r:
        raise ValueError(f"block column {k} out of range 1..{p.r}")
    return col_sums(a, p)[k - 1]


def haar_random_unitary(spec: RandomSpec) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian matrix with the
    R-diagonal phase correction.  Deterministic per seed."""
    rng = np.random.default_rng(spec.seed)
    z = (rng.standard_normal((spec.n, spec.n)) + 1j * rng.standard_normal((spec.n, spec.n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


# CMAT-JSON: {"rows": R, "cols": C, "data": [[[re, im], ...], ...]} row-major.
#
# save_matrix and the writer-layout read of load_matrix split a matrix by rows
# into two parts.  Where _forks says so, a forked child writes or reads the
# second part while this process does the first; otherwise the writer writes
# every row in one call and the reader reads the two parts one after the
# other, and the file or the matrix is the same.  A dense matrix takes about
# 1.2 us an entry to encode and 0.8 us to decode.  A fork and wait cost
# 1.3-2.0 ms from a bare interpreter and up to 4.9 ms from one holding 120 MB,
# and on one core the two halves cost up to a quarter more than the whole
# (copy-on-write faults, caches).  On a 2-vCPU host, whose vCPUs run two busy
# processes each 1.0-1.7 times slower than one alone, a 182 x 182 Haar matrix
# (2**15 entries) took 41-43 -> 26-33 ms to save but 28 -> 35 ms to load when
# forked, and a 256 x 256 one 79-80 -> 46-49 ms to save and 54 -> 37 ms to
# load (medians of 25, Python 3.11, numpy 2.4).  No benchmark workload has a
# file below the rule, so re-time it there before tuning it.
_FORK_MIN_ENTRIES = 1 << 16


def _forks(rows: int, cols: int) -> bool:
    """Whether a matrix of rows x cols is split with a forked child: it has two
    or more rows and _FORK_MIN_ENTRIES entries, the platform has os.fork, and
    this process may run on two or more CPUs where the platform says so (on one
    CPU, a 256 x 256 load took 52-56 -> 63-70 ms and a save 95-100 -> 102-112 ms
    when forked)."""
    return (
        rows >= 2
        and rows * cols >= _FORK_MIN_ENTRIES
        and hasattr(os, "fork")
        and (not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) > 1)
    )


def _in_two_processes(here, there) -> tuple[object, int] | None:
    """Run there() in a forked child while this process runs here(); return
    what here() returned and the child's exit code, 0 when there() returned
    True.  The child is reaped before this returns or raises.  If no child
    can be forked, return None having run neither, and the caller runs its
    one-process route.

    Forking is safe here even while BLAS holds threads: the writer's child
    runs only % formatting and numpy list conversion, the reader's only str
    methods, json and numpy array conversion, never BLAS or LAPACK, and each
    ends with os._exit, which flushes no inherited buffer and runs no exit
    handler.  Python 3.12 and later warn (DeprecationWarning) when a
    multi-threaded process forks; the warning is not raised as an exception
    under -W error."""
    try:
        pid = os.fork()
    except OSError:  # no process to spare, as at a process limit
        return None
    if pid == 0:
        code = 1
        try:
            code = 0 if there() else 1
        finally:
            os._exit(code)
    try:
        done_here = here()
    finally:
        status = os.waitpid(pid, 0)[1]
    return done_here, os.waitstatus_to_exitcode(status)


def _write_rows(fh, flat: np.ndarray, start: int, stop: int) -> bool:
    """Write rows start .. stop - 1 of the (R, 2C) float view, after ", "
    unless it is row 0, then flush, since a forked child ends with os._exit,
    which flushes nothing.  Each row is one % format of the row template with
    its floats from tolist(), "0.0" standing in for every part whose bits are
    all zero (-0.0 keeps its float).  str of a finite float is its repr, the
    text json.dumps writes, so the text equals json.dumps of the row."""
    row = "[" + ", ".join(["[%s, %s]"] * (flat.shape[1] // 2)) + "]"
    for i in range(start, stop):
        entries = flat[i].tolist()
        for k in np.flatnonzero(flat[i].view(np.uint64) == 0).tolist():
            entries[k] = "0.0"
        fh.write((", " if i else "") + row % tuple(entries))
    fh.flush()
    return True


def _write_in_two_processes(path, fh, flat: np.ndarray) -> bool:
    """Write every row of flat to fh, a forked child writing the second half
    to an unlinked temporary file that is copied into place after the first;
    False, having written nothing, when no temporary file can be made (a full
    /tmp, say) or no child forked."""
    import shutil  # imported here: this route alone needs them
    import tempfile

    rows, half = flat.shape[0], flat.shape[0] // 2
    try:
        rest = tempfile.TemporaryFile("w+")
    except OSError:
        return False
    with rest:
        forked = _in_two_processes(
            lambda: _write_rows(fh, flat, 0, half), lambda: _write_rows(rest, flat, half, rows)
        )
        if forked is None:
            return False
        _, code = forked
        if code:
            raise OSError(f"{path}: the process writing rows {half + 1} to {rows} failed with exit code {code}")
        rest.seek(0)
        shutil.copyfileobj(rest, fh)
    return True


def save_matrix(path, a) -> None:
    """Write a matrix as CMAT-JSON, one row at a time.  The text equals
    json.dumps of the whole payload, but neither that text nor the nested
    lists of every entry are ever held at once.  Where _forks says so, a
    forked child writes the second half of the rows (_write_in_two_processes);
    otherwise, or if that route cannot start, this process writes them all."""
    a = as_matrix(a)
    rows, cols = a.shape
    flat = a.view(float)
    with open(path, "w") as fh:
        fh.write(f'{{"rows": {rows}, "cols": {cols}, "data": [')
        if not (_forks(rows, cols) and _write_in_two_processes(path, fh, flat)):
            _write_rows(fh, flat, 0, rows)
        fh.write("]}")


# the text that save_matrix writes, read as one flat list of numbers: the header,
# then data whose non-number characters are exactly R rows of C "[, ]" pairs
_WRITER_HEADER = re.compile(r'\{"rows": ([1-9][0-9]*), "cols": ([1-9][0-9]*), "data": ')
_DROP_NUMBER_CHARS = str.maketrans("", "", "0123456789.eE+-")
# a bracket becomes a space, which json skips, so that "[1, 2]3" is not read as 1, 23
# but as two numbers in one slot, which json refuses
_BRACKETS_TO_SPACES = str.maketrans("[]", "  ")
_ROW_BOUNDARY = "]], [["


def _layout_part(part: str, rows: int, cols: int) -> np.ndarray | None:
    """The 2 * rows * cols numbers re, im, re, im, ... of part as one array,
    if part is rows rows of cols [re, im] pairs laid out as save_matrix writes
    them, joined by ", ", else None.  A number that json refuses (01, +1, .5,
    1., 1e, -, an empty slot, int's 4,300-digit limit) also gives None, so
    that the general parse, and its error message, decides it."""
    skeleton = part.translate(_DROP_NUMBER_CHARS)
    # the length test first: a short file may declare any rows and cols
    if len(skeleton) != 6 * rows * cols + 2 * max(rows - 1, 0):
        return None
    row = "[" + ", ".join(["[, ]"] * cols) + "]"
    if skeleton != ", ".join([row] * rows):
        return None
    del skeleton
    # with brackets as spaces, two numbers in one slot fail in json, but a
    # number next to an empty slot ("[, ]8") would fill it: refuse empty slots
    if "[," in part or " ]" in part:
        return None
    try:
        return np.array(json.loads("[" + part.translate(_BRACKETS_TO_SPACES) + "]"))
    except ValueError:
        return None


def _fill(out: np.ndarray, numbers: np.ndarray | None) -> bool:
    """Copy numbers into out; False if there are none or one is an integer
    beyond float range, which the general parse then reports."""
    if numbers is None:
        return False
    try:
        out[:] = numbers
    except OverflowError:
        return False
    return True


def _writer_layout_numbers(text: str) -> np.ndarray | None:
    """The (rows, cols, 2) array of re and im of text laid out exactly as
    save_matrix writes it, or None for any other text and for any number that
    json or int refuses, so that the general parse decides those.  The rows
    are cut at a row boundary next to the middle of the text, and each part
    is checked and parsed by _layout_part.  Where _forks says so, a forked
    child takes the second part and leaves its numbers in an
    anonymous shared mmap; if it fails, the general parse decides."""
    header = _WRITER_HEADER.match(text)
    if header is None or not text.startswith("[", header.end()) or not text.endswith("]]}"):
        return None
    try:  # ValueError: int's 4,300-digit limit
        rows, cols = int(header[1]), int(header[2])
    except ValueError:
        return None
    start, stop = header.end() + 1, len(text) - 2  # text[start:stop] is the rows joined by ", "
    # the first row boundary that starts in the second half, else the last one before it
    middle = (start + stop) // 2
    boundary = text.find(_ROW_BOUNDARY, middle, stop)
    if boundary < 0:
        boundary = text.rfind(_ROW_BOUNDARY, start, middle + len(_ROW_BOUNDARY) - 1)
    found = boundary >= 0
    # cut is the index of the ", " between rows k - 1 and k; with no boundary, the first part is every row
    cut = boundary + 2 if found else stop
    k = text.count(_ROW_BOUNDARY, start, cut) + 1 if found else rows

    def first():
        return _layout_part(text[start:cut], k, cols)

    def second():
        return _layout_part(text[cut + 2 : stop], rows - k, cols)

    # the child's text must hold its skeleton, so the mmap is at most 16/6 of that text's length
    if found and k < rows and stop - cut >= 6 * (rows - k) * cols and _forks(rows, cols):
        with mmap.mmap(-1, 16 * (rows - k) * cols) as shared:
            forked = _in_two_processes(first, lambda: _fill(np.frombuffer(shared), second()))
            if forked is not None:
                head, code = forked
                if head is None or code:
                    return None
                return np.concatenate((head, np.frombuffer(shared))).reshape(rows, cols, 2)
    head = first()
    tail = None if head is None else second()
    if tail is None:
        return None
    return np.concatenate((head, tail)).reshape(rows, cols, 2)


def load_matrix(path) -> np.ndarray:
    """Read a CMAT-JSON matrix, rejecting shape mismatches and entries that are
    not pairs of finite numbers.  Text laid out exactly as save_matrix writes
    it is parsed as one flat list of numbers, any other text as a JSON
    document whose every re and im must be an int or a float; both end in the
    same finiteness check."""
    try:  # ValueError: UnicodeDecodeError, JSONDecodeError and int's 4,300-digit limit
        text = Path(path).read_text(encoding="utf-8")
        values = _writer_layout_numbers(text)
        payload = json.loads(text) if values is None else None
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    del text  # from here on only the parsed numbers are held
    if values is None:
        if not isinstance(payload, dict) or not {"rows", "cols", "data"} <= payload.keys():
            raise ValueError(f"{path}: missing CMAT-JSON keys rows/cols/data")
        rows, cols, data = payload["rows"], payload["cols"], payload["data"]
        if not (type(rows) is int and type(cols) is int and rows >= 1 and cols >= 1):
            raise ValueError(f"{path}: invalid dimensions rows={rows}, cols={cols}")
        try:
            values = np.array(data)
        except ValueError as exc:  # ragged, or nested past numpy's 64 dimensions
            raise ValueError(f"{path}: malformed entries: {exc}") from exc
        if values.shape != (rows, cols, 2):
            raise ValueError(f"{path}: data is not a {rows}x{cols} array of [re, im] pairs")
        # the shape is valid, so data is rows lists of cols two-element lists;
        # JSON true/false decode to bool, which is not exactly int
        if not all(type(v) is int or type(v) is float for row in data for entry in row for v in entry):
            raise ValueError(f"{path}: malformed entries: re and im must be numbers, not strings, null or true/false")
    try:  # OverflowError: an integer beyond float range; ValueError: Infinity, NaN or 1e400
        return as_matrix(values.astype(float, copy=False).view(complex).reshape(values.shape[:2]))
    except (OverflowError, ValueError) as exc:
        raise ValueError(f"{path}: malformed entries: {exc}") from exc
