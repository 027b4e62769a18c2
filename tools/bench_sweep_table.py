#!/usr/bin/env python3
"""Time a porosity sweep layer by layer over its target count; write BENCH_sweep_table.json.

    python3 tools/bench_sweep_table.py [--out BENCH_sweep_table.json] [--repeats 5]

Run from the root of a checkout.  For half-length and size (b, n) =
(1, 200) and (100, 240), and K = 1, 5, 20 and 80 porous targets spread
over N in [0.02, 0.62], on lam = mu = alpha = xi = sigma0 = 1, it
records per K:

* ``sweep_s``: the median wall time of one ``porosity_sweep`` call;
* its split into the layers, each a median over the repeats:
  ``geometry_s``, the grid's shared chirp-z plan and sliver (a
  ``halfline_cosine_tables`` call with no integrand);
  ``transforms_s``, the rest of the kernel tables of all K targets (the
  symbol fits, the K remainder transforms, the one proxy transform and
  its one cosine-integral tail); ``singular_half_s``, the grid's
  finite-part rows, built once per sweep; ``fold_lu_s``, the folded
  assembly and the gated LU solve of every target; ``tip_fit_s``, every
  target's tip fit; and ``other_s``, what the sweep spends outside those
  five;
* ``tracemalloc_peak_kib``: the peak of Python-tracked allocations
  during one sweep, after a warm-up sweep;
* a SHA-256 of the rows as float64 bytes, which must agree across the
  repeats, next to the one the checkout's ``BENCH_sweep_table.json``
  held for the same case before this run, or null; and whether every
  row equals ``solve_crack`` plus ``stress_concentration`` at its target
  bitwise.  A digest that differs from the previous one is only
  recorded: other numpy builds may round differently.

The layer times come from wrappers put around the crack module's
private ``_kernel_tables``, ``_singular_half``, ``_folded_matrix``,
``_solve_weighted`` and ``_tip_amplitude`` for one instrumented sweep per
repeat; ``sweep_s`` comes from sweeps run without them.  The BLAS pool is pinned to one
thread through the environment before numpy loads, and the file records
that setting with the versions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import hypersing.crack as crack  # noqa: E402
from hypersing import (MaterialParams, OscIntSpec, TailOrder, build_grid,  # noqa: E402
                       halfline_cosine_tables, porosity_sweep, solve_crack,
                       stress_concentration)

BASE = MaterialParams(1.0, 1.0, 1.0, 0.0, 1.0, 1.0)
CASES = ((1.0, 200), (100.0, 240))
TARGET_COUNTS = (1, 5, 20, 80)
LAYERS = ("_kernel_tables", "_singular_half", "_folded_matrix", "_solve_weighted",
          "_tip_amplitude")


def _targets(count: int) -> list:
    return [float(t) for t in np.linspace(0.02, 0.62, count)] if count > 1 else [0.35]


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _instrumented_sweep(targets, half_length, n):
    """One sweep with the crack module's layers wrapped; seconds per layer."""
    spent = defaultdict(float)
    originals = {name: getattr(crack, name) for name in LAYERS}

    def wrap(name, fn):
        def timed(*args):
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent[name] += time.perf_counter() - start
        return timed

    for name, fn in originals.items():
        setattr(crack, name, wrap(name, fn))
    try:
        start = time.perf_counter()
        porosity_sweep(BASE, targets, half_length, n)
        spent["sweep"] = time.perf_counter() - start
    finally:
        for name, fn in originals.items():
            setattr(crack, name, fn)
    return spent


def _tracemalloc_peak_kib(targets, half_length, n) -> float:
    tracemalloc.start()
    try:
        porosity_sweep(BASE, targets, half_length, n)
        return tracemalloc.get_traced_memory()[1] / 1024.0
    finally:
        tracemalloc.stop()


def _rows_equal_single_solves(rows, half_length, n) -> bool:
    for n_target, center, ratio in rows:
        params = replace(BASE, beta=float(np.sqrt(n_target * BASE.xi * (BASE.lam + 2.0 * BASE.mu))))
        sol = solve_crack(params, half_length, n)
        if center != float(np.interp(0.0, sol.opening.points, sol.opening.values)) \
                or ratio != stress_concentration(sol):
            return False
    return True


def measure(half_length: float, n: int, count: int, repeats: int) -> dict:
    targets = _targets(count)
    h = build_grid(-half_length, half_length, n).h
    geometry_spec = replace(OscIntSpec(), tail=TailOrder.NONE)
    rows = porosity_sweep(BASE, targets, half_length, n)  # warm-up
    digests, sweeps, geometry, layers = set(), [], [], defaultdict(list)
    for _ in range(repeats):
        start = time.perf_counter()
        rows = porosity_sweep(BASE, targets, half_length, n)
        sweeps.append(time.perf_counter() - start)
        digests.add(hashlib.sha256(np.asarray(rows, dtype=float).tobytes()).hexdigest())
        geometry.append(_timed(halfline_cosine_tables, [], h, n, geometry_spec))
        for name, seconds in _instrumented_sweep(targets, half_length, n).items():
            layers[name].append(seconds)
    if len(digests) != 1:
        raise RuntimeError(f"sweep at b={half_length}, n={n}, K={count} is not deterministic")
    med = {name: statistics.median(values) for name, values in layers.items()}
    geometry_s = statistics.median(geometry)
    fold_lu = med["_folded_matrix"] + med["_solve_weighted"]
    sweep_s = statistics.median(sweeps)
    return {
        "targets": count,
        "sweep_s": sweep_s,
        "sweep_s_min": min(sweeps),
        "sweep_s_max": max(sweeps),
        "sweep_s_per_target": sweep_s / count,
        "geometry_s": geometry_s,
        "transforms_s": med["_kernel_tables"] - geometry_s,
        "transforms_s_per_target": (med["_kernel_tables"] - geometry_s) / count,
        "singular_half_s": med["_singular_half"],
        "fold_lu_s": fold_lu,
        "tip_fit_s": med["_tip_amplitude"],
        "other_s": med["sweep"] - med["_kernel_tables"] - med["_singular_half"] - fold_lu
                   - med["_tip_amplitude"],
        "instrumented_sweep_s": med["sweep"],
        "tracemalloc_peak_kib": _tracemalloc_peak_kib(targets, half_length, n),
        "repeats": repeats,
        "rows_sha256": digests.pop(),
        "rows_equal_single_solves": _rows_equal_single_solves(rows, half_length, n),
        "first_row": list(rows[0]),
    }


def _previous_digests() -> dict:
    """rows_sha256 by (half_length, n, targets) from the checkout's record, if any."""
    path = ROOT / "BENCH_sweep_table.json"
    if not path.is_file():
        return {}
    return {(case["half_length"], case["n"], row["targets"]): row["rows_sha256"]
            for case in json.loads(path.read_text())["cases"] for row in case["curve"]}


def _against(row) -> str:
    if row["previous_rows_sha256"] is None:
        return "with no previous digest"
    return "as before" if row["rows_sha256"] == row["previous_rows_sha256"] else "CHANGED"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_sweep_table.json"))
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    previous = _previous_digests()
    cases = []
    for half_length, n in CASES:
        curve = [measure(half_length, n, count, args.repeats) for count in TARGET_COUNTS]
        cases.append({"half_length": half_length, "n": n, "curve": curve})
        for row in curve:
            row["previous_rows_sha256"] = previous.get((half_length, n, row["targets"]))
            print(f"b={half_length:g} n={n} K={row['targets']}: sweep {row['sweep_s']:.4f} s "
                  f"({1e3 * row['sweep_s_per_target']:.2f} ms/target; geometry "
                  f"{1e3 * row['geometry_s']:.2f} ms, transforms "
                  f"{1e3 * row['transforms_s_per_target']:.2f} ms/target, singular half "
                  f"{1e3 * row['singular_half_s']:.2f} ms), "
                  f"peak {row['tracemalloc_peak_kib']:.0f} KiB, rows {_against(row)}")
    record = {
        "topic": "sweep_table",
        "layer": "crack.porosity_sweep: one crack._kernel_tables call for all targets "
                 "(quadrature.halfline_cosine_tables with the grid's chirp-z plan built once) "
                 "and one fullkernel._singular_half, then per target "
                 "fullkernel._folded_matrix, the gated LU and the tip fit",
        "material": {"lam": 1.0, "mu": 1.0, "alpha": 1.0, "xi": 1.0, "sigma0": 1.0},
        "targets": "K porosities evenly spaced over [0.02, 0.62]; N = 0.35 for K = 1",
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "cases": cases,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
