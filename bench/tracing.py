"""Span tracing of the hypersing layers, installed from outside the package.

``Tracer.install`` replaces each traced function on every hypersing
module attribute that holds it (``hypersing.crack.regular_kernel``,
``hypersing.fullkernel.lu_solve``, ...) with a wrapper that records a
span (name, start, end, parent) in memory; ``uninstall`` puts the
originals back.  A few wrappers also count work: the samples requested
from the integrand callable passed to a quadrature, the refinement
requests of ``lu_solve``, the evaluation points of ``nystrom_eval`` and
the bytes the CLI writes.  A traced function that the package no longer
has is skipped, and reports zero calls.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute path) of every traced layer
TARGETS = (
    ("grids", "build_grid"),
    ("linalg", "lu_solve"),
    ("linalg", "residual_norm"),
    ("quadrature", "halfline_cosine_integral"),
    ("quadrature", "pv_weighted_integral"),
    ("characteristic", "assemble_characteristic"),
    ("characteristic", "invert_characteristic"),
    ("fullkernel", "assemble_full"),
    ("fullkernel", "solve_full_collocation"),
    ("fullkernel", "fredholm_reduce"),
    ("fullkernel", "solve_fredholm"),
    ("fullkernel", "nystrom_eval"),
    ("crack", "symbol_asymptotics"),
    ("crack", "regular_kernel"),
    ("crack", "solve_crack"),
    ("crack", "porosity_sweep"),
    ("cli", "parse_config"),
    ("cli", "run"),
    ("cli", "ResultTable.write"),
)

# inclusive-time splits that name each workload's dominant layer
SPLITS = {
    "split.offset_table.share": ("crack.regular_kernel",),
    "split.assembly_lu.share": ("fullkernel.assemble_full", "linalg.lu_solve"),
    "split.route3.share": ("fullkernel.fredholm_reduce", "fullkernel.nystrom_eval"),
}

OP_SPAN = "bench.op"

# the per-layer metrics a traced run reports, with their units
PER_LAYER = (
    ("crack.regular_kernel.calls", "count"),
    ("crack.regular_kernel.self_s", "s"),
    ("quadrature.halfline_cosine_integral.calls", "count"),
    ("quadrature.halfline_cosine_integral.samples", "count"),
    ("quadrature.halfline_cosine_integral.self_s", "s"),
    ("crack.symbol_asymptotics.calls", "count"),
    ("crack.symbol_asymptotics.self_s", "s"),
    ("fullkernel.assemble_full.self_s", "s"),
    ("characteristic.assemble_characteristic.self_s", "s"),
    ("linalg.lu_solve.calls", "count"),
    ("linalg.lu_solve.refine_calls", "count"),
    ("linalg.lu_solve.self_s", "s"),
    ("linalg.residual_norm.self_s", "s"),
    ("fullkernel.solve_full_collocation.self_s", "s"),
    ("quadrature.pv_weighted_integral.calls", "count"),
    ("quadrature.pv_weighted_integral.samples", "count"),
    ("quadrature.pv_weighted_integral.self_s", "s"),
    ("fullkernel.fredholm_reduce.self_s", "s"),
    ("fullkernel.nystrom_eval.points", "count"),
    ("fullkernel.nystrom_eval.self_s", "s"),
    ("fullkernel.solve_fredholm.self_s", "s"),
    ("characteristic.invert_characteristic.self_s", "s"),
    ("grids.build_grid.calls", "count"),
    ("grids.build_grid.self_s", "s"),
    ("crack.solve_crack.self_s", "s"),
    ("crack.porosity_sweep.self_s", "s"),
    ("cli.parse_config.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("cli.ResultTable.write.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("split.offset_table.share", "ratio"),
    ("split.assembly_lu.share", "ratio"),
    ("split.route3.share", "ratio"),
    ("trace.op_s", "s"),
    ("trace.overhead_s", "s"),
)


def _argument(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


class Tracer:
    """In-memory span recorder for the traced operations of one run."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.counters = defaultdict(float)
        self._stack = []
        self._originals = []     # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def span(self, name, fn, *args, **kwargs):
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def _counting(self, key, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(t, *rest, **kw):
            counters[key] += np.size(t)
            return fn(t, *rest, **kw)
        return counted

    def _wrap(self, name, fn):
        tracer = self

        if name in ("quadrature.halfline_cosine_integral", "quadrature.pv_weighted_integral"):
            def before(args, kwargs):
                if not args:
                    return args, kwargs
                return (tracer._counting(name + ".samples", args[0]),) + args[1:], kwargs
        elif name == "fullkernel.nystrom_eval":
            def before(args, kwargs):
                tracer.counters[name + ".points"] += np.size(_argument(args, kwargs, 5, "xs"))
                return args, kwargs
        elif name == "linalg.lu_solve":
            def before(args, kwargs):
                if _argument(args, kwargs, 2, "refine"):
                    tracer.counters[name + ".refine_calls"] += 1
                return args, kwargs
        else:
            before = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            result = tracer.span(name, fn, *args, **kwargs)
            if name == "cli.ResultTable.write":
                tracer.counters["cli.bytes_written"] += os.path.getsize(
                    _argument(args, kwargs, 1, "path"))
            return result
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        package = [m for key, m in sys.modules.items()
                   if m is not None and (key == "hypersing" or key.startswith("hypersing."))]
        for module_name, path in TARGETS:
            module = sys.modules.get(f"hypersing.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            wrapper = self._wrap(f"{module_name}.{path}", original)
            holders = [owner] if owner_name else [
                m for m in package if any(v is original for v in vars(m).values())]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._originals.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original in reversed(self._originals):
            setattr(holder, key, original)
        self._originals.clear()

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self, untraced_op_s, traced_op_s):
        """Per-operation means of every layer metric over the traced operations.

        ``traced_op_s`` and ``untraced_op_s`` are the same statistic of the
        traced and untraced operation times; their difference is the
        tracing overhead.
        """
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        op_times = []
        for i, (name, start, end, _) in enumerate(self.spans):
            if name == OP_SPAN:
                op_times.append(end - start)
                continue
            calls[name] += 1
            self_s[name] += end - start - child_time[i]
            total_s[name] += end - start
        ops = max(len(op_times), 1)
        values = {}
        for name in calls:
            values[f"{name}.calls"] = calls[name] / ops
            values[f"{name}.self_s"] = self_s[name] / ops
        for key, value in self.counters.items():
            values[key] = value / ops
        for key, names in SPLITS.items():
            inclusive = sum(total_s[n] for n in names)
            values[key] = inclusive / sum(op_times) if op_times else 0.0
        values["trace.op_s"] = traced_op_s
        values["trace.overhead_s"] = traced_op_s - untraced_op_s
        return {key: (values.get(key, 0), unit) for key, unit in PER_LAYER}

    def write(self, path, **meta):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(dict(meta, columns=["name", "start", "end", "parent"],
                           spans=self.spans), handle)
