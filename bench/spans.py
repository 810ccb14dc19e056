"""Spans around the program's layers, recorded from outside the program.

`Tracer.install` replaces each function named in `LAYERS` by a wrapper in
every loaded module of the package that holds it by name (the CLI, for
example, imports `decompose`, `load_matrix` and `save_matrix` itself), so a
call is caught whichever module it is looked up in.  A span has a name,
start, end, parent span and operation id; spans are kept in memory and
written out at the end.  A function that is missing shows as an absent layer.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

# (defining module, function, span name)
LAYERS = (
    ("blockdxz.cli", "main", "cli.main"),
    ("blockdxz.cli", "cmd_random", "cli.random"),
    ("blockdxz.cli", "cmd_decompose", "cli.decompose"),
    ("blockdxz.cli", "cmd_verify", "cli.verify"),
    ("blockdxz.cli", "cmd_conjugate", "cli.conjugate"),
    ("blockdxz.cli", "cmd_perm", "cli.perm"),
    ("blockdxz.matcore", "load_matrix", "matcore.load_matrix"),
    ("blockdxz.matcore", "save_matrix", "matcore.save_matrix"),
    ("blockdxz.matcore", "haar_random_unitary", "matcore.haar_random_unitary"),
    ("blockdxz.blocksinkhorn", "decompose", "blocksinkhorn.decompose"),
    ("blockdxz.blocksinkhorn", "sinkhorn_step", "blocksinkhorn.sinkhorn_step"),
    ("blockdxz.blocksinkhorn", "psi", "blocksinkhorn.psi"),
    ("blockdxz.blocksinkhorn", "verify_decomposition", "blocksinkhorn.verify_decomposition"),
    ("blockdxz.polar", "polar_unitary_batch", "polar.polar_unitary_batch"),
    ("blockdxz.structure", "conjugate_decompose", "structure.conjugate_decompose"),
    ("blockdxz.structure", "fourier_transform", "structure.fourier_transform"),
    ("blockdxz.structure", "is_block_circulant", "structure.is_block_circulant"),
    ("blockdxz.permdecomp", "perm_dxz", "permdecomp.perm_dxz"),
    ("blockdxz.permdecomp", "edge_color", "permdecomp.edge_color"),
)

CLI_COMMANDS = ("random", "decompose", "verify", "conjugate", "perm")


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _polar_blocks(args, kwargs, result):
    return {"blocks": len(args[0]), "singular": int(sum(bool(s) for s in result[1]))}


def _decompose_outcome(args, kwargs, result):
    return {"sweeps": int(result.iterations_used), "converged": int(bool(result.converged))}


# counts read from a call's arguments and result; a count the program no
# longer offers is left out rather than raised
MEASURES = {
    "matcore.load_matrix": _file_bytes,
    "matcore.save_matrix": _file_bytes,
    "polar.polar_unitary_batch": _polar_blocks,
    "blocksinkhorn.decompose": _decompose_outcome,
}


class Tracer:
    """Spans in memory, one column per field; span i is entry i of each."""

    def __init__(self, layers=LAYERS, package: str = "blockdxz"):
        self.layers = layers
        self.package = package
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.counts: dict[int, dict] = {}
        self.stack: list[int] = []
        self.current_op = -1
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, span_name: str, func):
        index = len(self.names)
        self.names.append(span_name)
        measure = MEASURES.get(span_name)
        stack, clock = self.stack, time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = len(self.start)
            self.name.append(index)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0)
            stack.append(span)
            self.start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                self.end[span] = clock()
                stack.pop()
            if measure is not None:
                try:
                    self.counts[span] = measure(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    pass
            return result

        return traced

    def install(self):
        """Wrap every layer that exists; record the others as absent."""
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(self.package + "."))
        ]
        for module_name, attr, span_name in self.layers:
            func = getattr(sys.modules.get(module_name), attr, None)
            if not callable(func):
                self.absent.append(span_name)
                continue
            wrapper = self._wrap(span_name, func)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is func:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, func))

    def uninstall(self):
        for mod, key, func in reversed(self._patched):
            setattr(mod, key, func)
        self._patched.clear()

    def self_times(self) -> list[int]:
        """Each span's duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[span] - self.start[span]
        return own

    def write(self, path: Path):
        """All spans as columns; times in ns from the first span."""
        origin = self.start[0] if self.start else 0
        payload = {
            "names": self.names,
            "absent": self.absent,
            "name": list(self.name),
            "start_ns": [t - origin for t in self.start],
            "end_ns": [t - origin for t in self.end],
            "parent": list(self.parent),
            "op": list(self.op),
            "counts": {str(span): c for span, c in self.counts.items()},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


def layer_metrics(tracer: Tracer, setups: int, passes: float, first_pass_ops: int) -> dict:
    """Per-layer figures for one set-up plus one pass over the workload.

    Times add the set-up spans (operation id < 0) divided by the number of
    set-ups to the spans of the timed operations divided by the number of
    passes.  Counts come from the first set-up (id -1) and the first pass
    (ids below first_pass_ops), so they repeat exactly for one seed.
    """
    own = tracer.self_times()
    incl, excl, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    sums: dict[str, dict] = defaultdict(lambda: defaultdict(int))
    sweep_ns = all_sweeps = wasted = 0
    for span, (start, end, op) in enumerate(zip(tracer.start, tracer.end, tracer.op)):
        name = tracer.names[tracer.name[span]]
        scale = 1e-9 / (setups if op < 0 else passes)
        incl[name] += (end - start) * scale
        excl[name] += own[span] * scale
        counts = tracer.counts.get(span, {})
        if "sweeps" in counts:
            all_sweeps += counts["sweeps"]
            sweep_ns += end - start
        if op == -1 or 0 <= op < first_pass_ops:
            calls[name] += 1
            for key, value in counts.items():
                sums[name][key] += value
            if counts.get("converged") == 0:
                wasted += counts.get("sweeps", 0)

    dec = sums["blocksinkhorn.decompose"]
    polar = sums["polar.polar_unitary_batch"]
    decompose_calls = calls["blocksinkhorn.decompose"]
    metrics = {f"cli.{cmd}_s": (incl[f"cli.{cmd}"], "s") for cmd in CLI_COMMANDS}
    metrics.update(
        {
            "cli.self_s": (excl["cli.main"] + sum(excl[f"cli.{cmd}"] for cmd in CLI_COMMANDS), "s"),
            "matcore.load_matrix_s": (incl["matcore.load_matrix"], "s"),
            "matcore.load_matrix_calls": (calls["matcore.load_matrix"], "count"),
            "matcore.load_bytes": (sums["matcore.load_matrix"]["bytes"], "B"),
            "matcore.save_matrix_s": (incl["matcore.save_matrix"], "s"),
            "matcore.save_matrix_calls": (calls["matcore.save_matrix"], "count"),
            "matcore.save_bytes": (sums["matcore.save_matrix"]["bytes"], "B"),
            "matcore.haar_random_unitary_s": (incl["matcore.haar_random_unitary"], "s"),
            "blocksinkhorn.sinkhorn_step_s": (excl["blocksinkhorn.sinkhorn_step"], "s"),
            "blocksinkhorn.decompose_s": (excl["blocksinkhorn.decompose"], "s"),
            "blocksinkhorn.psi_s": (incl["blocksinkhorn.psi"], "s"),
            "blocksinkhorn.verify_decomposition_s": (incl["blocksinkhorn.verify_decomposition"], "s"),
            "blocksinkhorn.ms_per_sweep": (1e-6 * sweep_ns / all_sweeps if all_sweeps else 0.0, "ms"),
            "blocksinkhorn.sweeps": (dec["sweeps"], "count"),
            "blocksinkhorn.converged": (dec["converged"], "count"),
            "blocksinkhorn.converged_per_decompose": (
                dec["converged"] / decompose_calls if decompose_calls else 0.0,
                "1",
            ),
            "blocksinkhorn.wasted_sweeps": (wasted, "count"),
            "polar.polar_unitary_batch_s": (incl["polar.polar_unitary_batch"], "s"),
            "polar.calls": (calls["polar.polar_unitary_batch"], "count"),
            "polar.blocks": (polar["blocks"], "count"),
            "polar.singular": (polar["singular"], "count"),
            "structure.conjugate_decompose_s": (excl["structure.conjugate_decompose"], "s"),
            "structure.fourier_transform_s": (incl["structure.fourier_transform"], "s"),
            "structure.is_block_circulant_s": (incl["structure.is_block_circulant"], "s"),
            "permdecomp.perm_dxz_s": (incl["permdecomp.perm_dxz"], "s"),
            "permdecomp.edge_color_s": (incl["permdecomp.edge_color"], "s"),
        }
    )
    return metrics
