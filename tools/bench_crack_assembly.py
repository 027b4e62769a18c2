#!/usr/bin/env python3
"""Time a dense crack solve and its peak memory; write BENCH_crack_assembly.json.

    python3 tools/bench_crack_assembly.py [--out BENCH_crack_assembly.json] [--repeats 3]

Run from the root of a checkout.  For each n the script runs
``solve_crack`` at half-length b = 1 for lam = mu = alpha = xi =
sigma0 = 1 and porosity N = 0.35, each run in a fresh Python process
because ``ru_maxrss`` is a per-process high-water mark.  Per size it
records:

* the median and range over the repeats of the solve's wall time
  (``time.perf_counter`` around the one ``solve_crack`` call);
* the peak resident set size of the process (``ru_maxrss``) and its
  resident size just before the solve, after the imports, so that the
  solve's own share shows as their difference;
* a SHA-256 of the opening's float64 bytes, which must agree across
  the repeats, with the centre opening and the tip ratio
  (``stress_concentration``), so that a faster or smaller solve cannot
  come from a changed answer unnoticed.

The BLAS pool is pinned to one thread through the environment before
numpy loads, in this process and in every child, and the file records
that setting with the versions.
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
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from hypersing import MaterialParams, solve_crack, stress_concentration  # noqa: E402

POROSITY = 0.35
HALF_LENGTH = 1.0
SIZES = (400, 800, 1600, 3200, 6400)


def _rss_mib() -> float:
    """Current resident set size of this process, from /proc when it exists."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        return float("nan")


def child(n: int) -> None:
    """One solve in this process; prints its record as one JSON line."""
    material = MaterialParams(1.0, 1.0, 1.0, math.sqrt(3.0 * POROSITY), 1.0, 1.0)
    before = _rss_mib()
    start = time.perf_counter()
    sol = solve_crack(material, HALF_LENGTH, n)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    values = sol.opening.values
    print(json.dumps({
        "time_s": wall,
        "rss_before_solve_mib": before,
        "peak_rss_mib": peak,
        "opening_sha256": hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest(),
        "centre_opening": float(np.interp(0.0, sol.opening.points, values)),
        "tip_ratio": stress_concentration(sol),
    }))


def measure(n: int, repeats: int) -> dict:
    runs = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, __file__, "--child", str(n)],
                              check=True, capture_output=True, text=True)
        runs.append(json.loads(done.stdout.splitlines()[-1]))
    digests = {run["opening_sha256"] for run in runs}
    if len(digests) != 1:
        raise RuntimeError(f"solve at n={n} is not deterministic across processes")
    times = [run["time_s"] for run in runs]
    peaks = [run["peak_rss_mib"] for run in runs]
    return {
        "n": n,
        "time_s_median": statistics.median(times),
        "time_s_min": min(times),
        "time_s_max": max(times),
        "peak_rss_mib_median": statistics.median(peaks),
        "peak_rss_mib_min": min(peaks),
        "peak_rss_mib_max": max(peaks),
        "rss_before_solve_mib_median": statistics.median(
            run["rss_before_solve_mib"] for run in runs),
        "repeats": repeats,
        "opening_sha256": digests.pop(),
        "centre_opening": runs[0]["centre_opening"],
        "tip_ratio": runs[0]["tip_ratio"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_crack_assembly.json"))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        child(args.child)
        return

    rows = [measure(n, args.repeats) for n in SIZES]
    record = {
        "topic": "crack_assembly",
        "layer": "crack.solve_crack end to end (offset table, node-mean Toeplitz view, "
                 "fullkernel._folded_matrix, LU solve of the folded half), "
                 "one fresh process per run",
        "material": {"lam": 1.0, "mu": 1.0, "alpha": 1.0, "xi": 1.0, "sigma0": 1.0,
                     "porosity": POROSITY},
        "half_length": HALF_LENGTH,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "sizes": rows,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    for row in rows:
        print(f"n={row['n']}: {row['time_s_median']:.3f} s, "
              f"peak {row['peak_rss_mib_median']:.1f} MiB "
              f"(centre {row['centre_opening']:.8f}, tip ratio {row['tip_ratio']:.7f})")


if __name__ == "__main__":
    main()
