#!/usr/bin/env python3
"""Time and check the crack kernel's offset table; write BENCH_offset_table.json.

    python3 tools/bench_offset_table.py [--out BENCH_offset_table.json] [--repeats 5]

Run from the root of a checkout.  For each size the script builds the
regular-kernel table of a crack solve (``regular_kernel_table`` at the n
grid offsets ``(j + 1/2) h``, h = 2b/n) for lam = mu = alpha = xi = 1 and
porosity N = 0.35, and records:

* the median and range of the wall time over the repeats, after one
  untimed warm-up call (``time.perf_counter`` in this process only);
* the largest difference, at cells 0, 1, n/2 and n-1, from an
  independent QAWO oracle: scipy's adaptive oscillatory quadrature of
  the same two integrands on [0, s_max] plus scipy's ``sici`` tail;
* a SHA-256 of the table's float64 bytes, so that a faster table cannot
  come from a changed answer unnoticed.

The BLAS pool is pinned to one thread through the environment before
numpy loads, and the file records that setting with the versions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.special import sici  # noqa: E402

from hypersing import (  # noqa: E402
    MaterialParams,
    OscIntSpec,
    crack_symbol,
    derive_dimensionless,
    regular_kernel_table,
    symbol_asymptotics,
)
from oracles import cosine_transform_oracle  # noqa: E402

POROSITY = 0.35
SIZES = [(100.0, n) for n in (240, 800, 1600, 4000, 16000)] + \
        [(1.0, n) for n in (200, 800, 3200)]


def oracle(dp, u, s_max):
    slope, decay = symbol_asymptotics(dp)
    remainder = lambda s: crack_symbol(s, dp) - slope * s + decay * s / (1.0 + s * s)
    proxy = lambda s: -decay * s / (1.0 + s * s)
    return (cosine_transform_oracle(remainder, u, s_max)
            + cosine_transform_oracle(proxy, u, s_max)
            + decay * float(sici(s_max * u)[1])) / math.pi


def measure(half_length, n, dp, spec, repeats):
    h = 2.0 * half_length / n
    table = regular_kernel_table(h, n, dp, spec)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        again = regular_kernel_table(h, n, dp, spec)
        times.append(time.perf_counter() - start)
        if not np.array_equal(again, table):
            raise RuntimeError(f"table at b={half_length}, n={n} is not deterministic")
    cells = sorted({0, 1, n // 2, n - 1})
    error = max(abs(table[j] - oracle(dp, (j + 0.5) * h, spec.s_max)) for j in cells)
    return {
        "half_length": half_length,
        "n": n,
        "h": h,
        "time_s_median": statistics.median(times),
        "time_s_min": min(times),
        "time_s_max": max(times),
        "repeats": repeats,
        "oracle_cells": cells,
        "oracle_max_abs_error": error,
        "table_sha256": hashlib.sha256(np.ascontiguousarray(table).tobytes()).hexdigest(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_offset_table.json"))
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    material = MaterialParams(1.0, 1.0, 1.0, math.sqrt(3.0 * POROSITY), 1.0, 1.0)
    dp = derive_dimensionless(material)
    spec = OscIntSpec()
    rows = [measure(b, n, dp, spec, args.repeats) for b, n in SIZES]
    record = {
        "topic": "offset_table",
        "layer": "crack.regular_kernel_table (quadrature.halfline_cosine_table)",
        "material": {"lam": 1.0, "mu": 1.0, "alpha": 1.0, "xi": 1.0, "sigma0": 1.0,
                     "porosity": POROSITY},
        "spec": {"s_max": spec.s_max, "panels_per_period": spec.panels_per_period,
                 "tail": spec.tail.value},
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "sizes": rows,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    for row in rows:
        print(f"b={row['half_length']:g} n={row['n']}: {row['time_s_median'] * 1e3:.1f} ms "
              f"(oracle error {row['oracle_max_abs_error']:.1e})")


if __name__ == "__main__":
    main()
