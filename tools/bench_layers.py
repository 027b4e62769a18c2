#!/usr/bin/env python3
"""Time and check one layer of the crack pipeline; write BENCH_<topic>.json.

    python3 tools/bench_layers.py TOPIC [--out BENCH_<TOPIC>.json] [--repeats R]

Run from the root of a checkout.  TOPIC is ``offset_table`` (R = 5 by
default), ``crack_assembly`` (R = 3) or ``sweep_table`` (R = 5); the
topic's function says what it records.  The material is lam = mu =
alpha = xi = sigma0 = 1, with porosity N = 0.35 where one is needed.
Times are ``time.perf_counter`` medians and ranges over the R repeats.
Every result comes with a SHA-256 of its float64 bytes, so that a faster
layer cannot come from a changed answer unnoticed.  The BLAS pool is
pinned to one thread before numpy loads, in every child process too, and
each file records that setting with the versions and the host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import hypersing.crack as crack  # noqa: E402
from hypersing import (MaterialParams, OscIntSpec, build_grid, crack_symbol,  # noqa: E402
                       derive_dimensionless, porosity_sweep, regular_kernel_table,
                       solve_crack, stress_concentration, symbol_asymptotics)
from hypersing.quadrature import _halfline_cosine_tables  # noqa: E402

POROSITY = 0.35
MATERIAL = {"lam": 1.0, "mu": 1.0, "alpha": 1.0, "xi": 1.0, "sigma0": 1.0}
BASE = MaterialParams(1.0, 1.0, 1.0, 0.0, 1.0, 1.0)
OFFSET_SIZES = [(100.0, n) for n in (240, 800, 1600, 4000, 16000)] + \
               [(1.0, n) for n in (200, 800, 3200)]
ASSEMBLY_HALF_LENGTH = 1.0
ASSEMBLY_SIZES = (400, 800, 1600, 3200, 6400)
SWEEP_CASES = ((1.0, 200), (100.0, 240))
TARGET_COUNTS = (1, 5, 20, 80)
LAYERS = ("_kernel_tables", "_folded_singular", "_solve_folded", "_tip_amplitude")


def _porous(porosity: float) -> MaterialParams:
    """BASE with ``beta = sqrt(N xi (lam + 2 mu))``, as ``porosity_sweep`` sets it."""
    return replace(BASE, beta=math.sqrt(porosity * BASE.xi * (BASE.lam + 2.0 * BASE.mu)))


def _sha256(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


def _spread(name: str, values, median_suffix: str = "_median") -> dict:
    return {name + median_suffix: statistics.median(values), name + "_min": min(values),
            name + "_max": max(values)}


def _timed(fn, *args):
    """Seconds that ``fn(*args)`` took, and its result."""
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def _only_digest(digests: set, what: str) -> str:
    if len(digests) != 1:
        raise RuntimeError(f"{what} is not deterministic")
    return digests.pop()


def _centre(sol) -> float:
    return float(np.interp(0.0, sol.opening.points, sol.opening.values))


def _offset_oracle(dp, u: float, s_max: float) -> float:
    # Imported here, so that the crack_assembly children do not load them.
    from oracles import cosine_transform_oracle
    from scipy.special import sici

    slope, decay = symbol_asymptotics(dp)
    remainder = lambda s: crack_symbol(s, dp) - slope * s + decay * s / (1.0 + s * s)
    proxy = lambda s: -decay * s / (1.0 + s * s)
    return (cosine_transform_oracle(remainder, u, s_max)
            + cosine_transform_oracle(proxy, u, s_max)
            + decay * float(sici(s_max * u)[1])) / math.pi


def _offset_row(half_length: float, n: int, repeats: int, previous: dict) -> dict:
    dp, spec = derive_dimensionless(_porous(POROSITY)), OscIntSpec()
    h = 2.0 * half_length / n
    table = regular_kernel_table(h, n, dp, spec)  # warm-up
    runs = [_timed(regular_kernel_table, h, n, dp, spec) for _ in range(repeats)]
    digest = _only_digest({_sha256(table)} | {_sha256(again) for _, again in runs},
                          f"table at b={half_length}, n={n}")
    cells = sorted({0, 1, n // 2, n - 1})
    error = max(abs(table[j] - _offset_oracle(dp, (j + 0.5) * h, spec.s_max)) for j in cells)
    return {"half_length": half_length, "n": n, "h": h,
            **_spread("time_s", [seconds for seconds, _ in runs]), "repeats": repeats,
            "oracle_cells": cells, "oracle_max_abs_error": error, "table_sha256": digest,
            "previous_table_sha256": previous.get((half_length, n))}


def _previous(topic: str, key: tuple, field: str) -> dict:
    """``field`` of every row of the checkout's ``BENCH_<topic>.json``, by
    the row's values of the names in ``key``; empty without that file.  A
    row in the curve of a case also reads the case's fields."""
    path = ROOT / f"BENCH_{topic}.json"
    if not path.is_file():
        return {}
    record = json.loads(path.read_text())
    rows = record["sizes"] if "sizes" in record else [
        {**case, **row} for case in record["cases"] for row in case["curve"]]
    return {tuple(row[name] for name in key): row[field] for row in rows}


def _against(digest: str, previous) -> str:
    if previous is None:
        return "with no previous digest"
    return "as before" if digest == previous else "CHANGED"


def offset_table(repeats: int):
    """The regular-kernel table at the n grid offsets ``(j + 1/2) h``, h =
    2b/n, per size: its time after a warm-up call; its largest difference
    at cells 0, 1, n/2 and n-1 from a QAWO oracle (scipy's adaptive
    oscillatory quadrature on [0, s_max] plus ``sici``); and its digest
    next to the one the checkout's file held before, or null.
    """
    previous = _previous("offset_table", ("half_length", "n"), "table_sha256")
    rows = [_offset_row(b, n, repeats, previous) for b, n in OFFSET_SIZES]
    fields = {
        "layer": "crack.regular_kernel_table (crack._kernel_tables, "
                 "quadrature._halfline_cosine_tables)",
        "material": {**MATERIAL, "porosity": POROSITY},
        "spec": {"s_max": OscIntSpec().s_max},
    }
    lines = [f"b={row['half_length']:g} n={row['n']}: {row['time_s_median'] * 1e3:.1f} ms "
             f"(oracle error {row['oracle_max_abs_error']:.1e}), table "
             f"{_against(row['table_sha256'], row['previous_table_sha256'])}" for row in rows]
    return fields, {"sizes": rows}, lines


def _rss_mib() -> float:
    """Current resident set size of this process, from /proc when it exists."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        return float("nan")


def _bytecode_cached() -> bool:
    """Whether every module of the package has its cached bytecode, so that
    this process loaded it rather than compiling the source: the RSS
    before the solve is about 1 MiB higher without it."""
    package = [module for name, module in sys.modules.items()
               if name == "hypersing" or name.startswith("hypersing.")]
    return all(module.__cached__ and os.path.exists(module.__cached__) for module in package)


def _assembly_child(n: int) -> dict:
    """One timed solve in this process, with its RSS before the solve and
    at its peak; then a second solve of the same size, with the RSS after
    it, which is back at the RSS before the solve when the solve's pages
    went back to the system."""
    before = _rss_mib()
    wall, sol = _timed(solve_crack, _porous(POROSITY), ASSEMBLY_HALF_LENGTH, n)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    again = solve_crack(_porous(POROSITY), ASSEMBLY_HALF_LENGTH, n)
    after = _rss_mib()
    if _sha256(again.opening.values) != _sha256(sol.opening.values):
        raise RuntimeError(f"solve at n={n} is not deterministic")
    return {"time_s": wall, "rss_before_solve_mib": before, "peak_rss_mib": peak,
            "rss_after_solve_mib": after, "bytecode_cached": _bytecode_cached(),
            "opening_sha256": _sha256(sol.opening.values), "centre_opening": _centre(sol),
            "tip_ratio": stress_concentration(sol)}


def _assembly_row(n: int, repeats: int, previous: dict) -> dict:
    command = [sys.executable, __file__, "crack_assembly", "--child", str(n)]
    runs = []
    for _ in range(repeats):
        done = subprocess.run(command, check=True, capture_output=True, text=True)
        runs.append(json.loads(done.stdout.splitlines()[-1]))
    digest = _only_digest({run["opening_sha256"] for run in runs},
                          f"solve at n={n} across processes")
    return {"n": n, **_spread("time_s", [run["time_s"] for run in runs]),
            **_spread("peak_rss_mib", [run["peak_rss_mib"] for run in runs]),
            "rss_before_solve_mib_median": statistics.median(
                run["rss_before_solve_mib"] for run in runs),
            "rss_after_solve_mib_median": statistics.median(
                run["rss_after_solve_mib"] for run in runs),
            "bytecode_cached": all(run["bytecode_cached"] for run in runs),
            "repeats": repeats, "opening_sha256": digest,
            "previous_opening_sha256": previous.get((n,)),
            "centre_opening": runs[0]["centre_opening"], "tip_ratio": runs[0]["tip_ratio"]}


def crack_assembly(repeats: int):
    """A dense ``solve_crack`` at b = 1 per n, each in a fresh process
    (``--child``): its wall time; the peak RSS and the RSS just before the
    solve, whose difference is the solve's own share; the RSS after a
    second solve, and whether the package's bytecode was cached, which
    moves the RSS by about 1 MiB; and the opening's digest next to the one
    the checkout's file held before, or null, with its centre value and
    tip ratio.
    """
    previous = _previous("crack_assembly", ("n",), "opening_sha256")
    rows = [_assembly_row(n, repeats, previous) for n in ASSEMBLY_SIZES]
    fields = {
        "layer": "crack.solve_crack end to end (offset table, n-entry node-mean table, "
                 "fullkernel._solve_folded: the folded half formed in its own memory map, "
                 "factored in place, its residual from singular chunks plus convolution), "
                 "one fresh process per run",
        "material": {**MATERIAL, "porosity": POROSITY},
        "half_length": ASSEMBLY_HALF_LENGTH,
    }
    lines = [f"n={row['n']}: {row['time_s_median']:.3f} s, "
             f"peak {row['peak_rss_mib_median']:.1f} MiB, "
             f"before {row['rss_before_solve_mib_median']:.1f} MiB, "
             f"after {row['rss_after_solve_mib_median']:.1f} MiB "
             f"(centre {row['centre_opening']:.8f}, tip ratio {row['tip_ratio']:.7f})"
             for row in rows]
    return fields, {"sizes": rows}, lines


def _instrumented_sweep(targets, half_length: float, n: int) -> dict:
    """One sweep with the crack module's layers wrapped; seconds per layer."""
    spent = defaultdict(float)
    originals = {name: getattr(crack, name) for name in LAYERS}

    def wrap(name, fn):
        def timed(*args):
            seconds, result = _timed(fn, *args)
            spent[name] += seconds
            return result
        return timed

    vars(crack).update({name: wrap(name, fn) for name, fn in originals.items()})
    try:
        spent["sweep"] = _timed(porosity_sweep, BASE, targets, half_length, n)[0]
    finally:
        vars(crack).update(originals)
    return spent


def _tracemalloc_peak_kib(targets, half_length: float, n: int) -> float:
    import tracemalloc  # here, as it would add 0.5 MiB to the crack_assembly children

    tracemalloc.start()
    try:
        porosity_sweep(BASE, targets, half_length, n)
        return tracemalloc.get_traced_memory()[1] / 1024.0
    finally:
        tracemalloc.stop()


def _rows_equal_single_solves(rows, half_length: float, n: int) -> bool:
    solves = ((solve_crack(_porous(porosity), half_length, n), centre, ratio)
              for porosity, centre, ratio in rows)
    return all(_centre(sol) == centre and stress_concentration(sol) == ratio
               for sol, centre, ratio in solves)


def _sweep_row(half_length: float, n: int, count: int, repeats: int, previous: dict) -> dict:
    targets = [float(t) for t in np.linspace(0.02, 0.62, count)] if count > 1 else [POROSITY]
    h = build_grid(-half_length, half_length, n).h
    rows = porosity_sweep(BASE, targets, half_length, n)  # warm-up
    digests, sweeps, geometry, layers = set(), [], [], defaultdict(list)
    for _ in range(repeats):
        seconds, rows = _timed(porosity_sweep, BASE, targets, half_length, n)
        sweeps.append(seconds)
        digests.add(_sha256(rows))
        geometry.append(_timed(_halfline_cosine_tables, [], h, n, OscIntSpec())[0])
        for name, seconds in _instrumented_sweep(targets, half_length, n).items():
            layers[name].append(seconds)
    digest = _only_digest(digests, f"sweep at b={half_length}, n={n}, K={count}")
    med = {name: statistics.median(values) for name, values in layers.items()}
    geometry_s = statistics.median(geometry)
    transforms_s = med["_kernel_tables"] - geometry_s
    fold_lu = med["_solve_folded"]
    return {
        "targets": count, **_spread("sweep_s", sweeps, median_suffix=""),
        "sweep_s_per_target": statistics.median(sweeps) / count,
        "geometry_s": geometry_s, "transforms_s": transforms_s,
        "transforms_s_per_target": transforms_s / count,
        "singular_block_s": med["_folded_singular"], "fold_lu_s": fold_lu,
        "tip_fit_s": med["_tip_amplitude"],
        "other_s": med["sweep"] - med["_kernel_tables"] - med["_folded_singular"] - fold_lu
                   - med["_tip_amplitude"],
        "instrumented_sweep_s": med["sweep"],
        "tracemalloc_peak_kib": _tracemalloc_peak_kib(targets, half_length, n),
        "repeats": repeats, "rows_sha256": digest,
        "rows_equal_single_solves": _rows_equal_single_solves(rows, half_length, n),
        "first_row": list(rows[0]),
        "previous_rows_sha256": previous.get((half_length, n, count)),
    }


def sweep_table(repeats: int):
    """A porosity sweep of K = 1, 5, 20 and 80 targets in N = [0.02, 0.62]
    per (b, n): ``sweep_s``, timed without instruments; its split into the
    crack module's private layers, wrapped in one sweep per repeat, with
    ``geometry_s`` a ``_halfline_cosine_tables`` call with no integrand;
    the tracemalloc peak; the rows' digest next to the one the checkout's
    file held before, or null (a change is only recorded: other numpy
    builds may round differently); and whether every row equals
    ``solve_crack`` at its target bitwise.
    """
    previous = _previous("sweep_table", ("half_length", "n", "targets"), "rows_sha256")
    cases = [{"half_length": b, "n": n,
              "curve": [_sweep_row(b, n, count, repeats, previous) for count in TARGET_COUNTS]}
             for b, n in SWEEP_CASES]
    fields = {
        "layer": "crack.porosity_sweep: one crack._kernel_tables call for all targets "
                 "(quadrature._halfline_cosine_tables with the grid's chirp-z plan built once) "
                 "and one fullkernel._folded_singular, then per target "
                 "fullkernel._solve_folded (fold, in-place LU, residual gate) and the tip fit",
        "material": MATERIAL,
        "targets": "K porosities evenly spaced over [0.02, 0.62]; N = 0.35 for K = 1",
    }
    lines = [f"b={case['half_length']:g} n={case['n']} K={row['targets']}: "
             f"sweep {row['sweep_s']:.4f} s ({1e3 * row['sweep_s_per_target']:.2f} ms/target; "
             f"geometry {1e3 * row['geometry_s']:.2f} ms, transforms "
             f"{1e3 * row['transforms_s_per_target']:.2f} ms/target, singular block "
             f"{1e3 * row['singular_block_s']:.2f} ms), "
             f"peak {row['tracemalloc_peak_kib']:.0f} KiB, "
             f"rows {_against(row['rows_sha256'], row['previous_rows_sha256'])}"
             for case in cases for row in case["curve"]]
    return fields, {"cases": cases}, lines


TOPICS = {"offset_table": (offset_table, 5), "crack_assembly": (crack_assembly, 3),
          "sweep_table": (sweep_table, 5)}


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("topic", choices=TOPICS)
    parser.add_argument("--out")
    parser.add_argument("--repeats", type=positive_int)
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(_assembly_child(args.child)))
        return

    run, default_repeats = TOPICS[args.topic]
    fields, rows, lines = run(args.repeats or default_repeats)
    record = {
        "topic": args.topic, **fields,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        **rows,
    }
    Path(args.out or ROOT / f"BENCH_{args.topic}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
