#!/usr/bin/env python3
"""Time and check one layer of the crack pipeline; write BENCH_<topic>.json.

    python3 tools/bench_layers.py TOPIC [--out FILE] [--repeats R] [--against REV]

Run from the root of a checkout.  TOPIC is ``offset_table``,
``crack_assembly`` or ``sweep_table``; its function says what it
measures, and R is 5, 3 and 5 by default.  ``--repeats 1`` measures once,
in this process; ``crack_assembly`` runs each solve in a fresh child
(``--child``) for its peak RSS.  Any other R, or ``--against REV``, runs
``TOPIC --repeats 1`` R times in fresh processes for this checkout and,
with REV, for the commit REV exported by ``git archive``: both trees'
bytecode is compiled first, and the tree that runs first alternates.
Each tree's R records merge into one, rows matched by position: keys
ending ``_min`` take the minimum, ``_max`` the maximum, other floats the
median; integers and strings (digests, versions) must agree; booleans
take ``all``, lists merge elementwise and ``repeats`` becomes R.  With
REV each row gains ``pairs_won``, the runs in which this checkout took
less time than REV's run beside it, and the record gains REV's merged
record and its commit.

The material is lam = mu = alpha = xi = sigma0 = 1, with porosity
N = 0.35 where one is needed.  Every result comes with a SHA-256 of its
float64 bytes, so that a faster layer cannot come from a changed answer
unnoticed.  The BLAS pool is pinned to one thread before numpy loads, in
every child too, and each file records that setting, the versions and
the host.
"""

from __future__ import annotations

import argparse
import contextlib
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
from hypersing import (MaterialParams, OscIntSpec, build_grid,  # noqa: E402
                       derive_dimensionless, porosity_sweep, regular_kernel_table,
                       solve_crack, stress_concentration)
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
SWEEP_TIMINGS = 5  # timed sweeps per row after the warm-up; sweep_s is their minimum
LAYERS = ("_kernel_tables", "_FoldedGrid")  # wrapped in the crack module, with _FoldedGrid.solve


def _porous(porosity: float) -> MaterialParams:
    """BASE with ``beta = sqrt(N xi (lam + 2 mu))``, as ``porosity_sweep`` sets it."""
    return replace(BASE, beta=math.sqrt(porosity * BASE.xi * (BASE.lam + 2.0 * BASE.mu)))


def _sha256(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


def _spread(name: str, value: float) -> dict:
    """One measurement as the median, minimum and maximum that merged runs hold."""
    return {name + "_median": value, name + "_min": value, name + "_max": value}


def _timed(fn, *args):
    """Seconds that ``fn(*args)`` took, and its result."""
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def _same_digest(first, second, what: str) -> str:
    digest = _sha256(first)
    if _sha256(second) != digest:
        raise RuntimeError(f"{what} is not deterministic")
    return digest


def _centre(sol) -> float:
    return float(np.interp(0.0, sol.opening.points, sol.opening.values))


def _offset_row(half_length: float, n: int) -> dict:
    # imported here, so that the crack_assembly children do not load
    # scipy.integrate and scipy.special
    from oracles import regular_kernel_oracle

    dp, spec = derive_dimensionless(_porous(POROSITY)), OscIntSpec()
    h = 2.0 * half_length / n
    table = regular_kernel_table(h, n, dp, spec)  # warm-up
    seconds, again = _timed(regular_kernel_table, h, n, dp, spec)
    cells = sorted({0, 1, n // 2, n - 1})
    error = max(abs(table[j] - regular_kernel_oracle((j + 0.5) * h, dp.porosity, dp.c_sq,
                                                     spec.s_max)) for j in cells)
    return {"half_length": half_length, "n": n, "h": h, **_spread("time_s", seconds),
            "repeats": 1, "oracle_cells": cells, "oracle_max_abs_error": error,
            "table_sha256": _same_digest(table, again, f"table at b={half_length}, n={n}")}


def offset_table():
    """The regular-kernel table at the n grid offsets ``(j + 1/2) h``, h =
    2b/n, per size: its time after a warm-up call; its largest difference
    at cells 0, 1, n/2 and n-1 from a QAWO oracle (scipy's adaptive
    oscillatory quadrature on [0, s_max] plus ``sici``); and its digest.
    """
    fields = {
        "layer": "crack.regular_kernel_table (crack._kernel_tables, "
                 "quadrature._halfline_cosine_tables)",
        "material": {**MATERIAL, "porosity": POROSITY},
        "spec": {"s_max": OscIntSpec().s_max},
    }
    return fields, {"sizes": [_offset_row(b, n) for b, n in OFFSET_SIZES]}


def _offset_lines(record):
    return [f"b={row['half_length']:g} n={row['n']}: {row['time_s_median'] * 1e3:.1f} ms "
            f"(oracle error {row['oracle_max_abs_error']:.1e})" for row in record["sizes"]]


def _rss_mib() -> float:
    """Current resident set size of this process, from /proc when it exists."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        return float("nan")


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
    return {"time_s": wall, "rss_before_solve_mib": before, "peak_rss_mib": peak,
            "rss_after_solve_mib": after,
            "opening_sha256": _same_digest(sol.opening.values, again.opening.values,
                                           f"solve at n={n}"),
            "centre_opening": _centre(sol), "tip_ratio": stress_concentration(sol)}


def _assembly_row(n: int) -> dict:
    """The row of ``crack_assembly`` at n, from one ``--child`` solve."""
    command = [sys.executable, str(Path(__file__).resolve()), "crack_assembly",
               "--child", str(n)]
    done = subprocess.run(command, check=True, capture_output=True, text=True)
    run = json.loads(done.stdout.splitlines()[-1])
    return {"n": n, **_spread("time_s", run["time_s"]),
            **_spread("peak_rss_mib", run["peak_rss_mib"]),
            "rss_before_solve_mib_median": run["rss_before_solve_mib"],
            "rss_after_solve_mib_median": run["rss_after_solve_mib"],
            "repeats": 1, "opening_sha256": run["opening_sha256"],
            "centre_opening": run["centre_opening"], "tip_ratio": run["tip_ratio"]}


def crack_assembly():
    """A dense ``solve_crack`` at b = 1 per n, each in a fresh process
    (``--child``): its wall time; the peak RSS and the RSS just before the
    solve, whose difference is the solve's own share; the RSS after a
    second solve; and the opening's digest, its centre value and its tip
    ratio.
    """
    fields = {
        "layer": "crack.solve_crack end to end (offset table, n-entry node-mean table, "
                 "fullkernel._FoldedGrid.solve: the folded half formed in its own private "
                 "memory map, factored in place, its residual from the finite-part block's "
                 "product, by its structure above n = 1448, plus convolution), "
                 "one fresh process per run",
        "material": {**MATERIAL, "porosity": POROSITY},
        "half_length": ASSEMBLY_HALF_LENGTH,
    }
    return fields, {"sizes": [_assembly_row(n) for n in ASSEMBLY_SIZES]}


def _assembly_lines(record):
    return [f"n={row['n']}: {row['time_s_median']:.3f} s, "
            f"peak {row['peak_rss_mib_median']:.1f} MiB, "
            f"before {row['rss_before_solve_mib_median']:.1f} MiB, "
            f"after {row['rss_after_solve_mib_median']:.1f} MiB "
            f"(centre {row['centre_opening']:.8f}, tip ratio {row['tip_ratio']:.7f})"
            for row in record["sizes"]]


def _instrumented_sweep(targets, half_length: float, n: int) -> dict:
    """One sweep with the crack module's ``LAYERS`` and the ``solve``
    method of its ``_FoldedGrid`` class wrapped; seconds per layer."""
    spent = defaultdict(float)
    originals = [(crack, name, getattr(crack, name)) for name in LAYERS]
    originals.append((crack._FoldedGrid, "solve", crack._FoldedGrid.solve))

    def wrap(name, fn):
        def timed(*args):
            seconds, result = _timed(fn, *args)
            spent[name] += seconds
            return result
        return timed

    for owner, name, fn in originals:
        setattr(owner, name, wrap(name, fn))
    try:
        spent["sweep"] = _timed(porosity_sweep, BASE, targets, half_length, n)[0]
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)
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


def _sweep_row(half_length: float, n: int, count: int) -> dict:
    targets = [float(t) for t in np.linspace(0.02, 0.62, count)] if count > 1 else [POROSITY]
    h = build_grid(-half_length, half_length, n).h
    first = porosity_sweep(BASE, targets, half_length, n)  # warm-up
    times = []
    for _ in range(SWEEP_TIMINGS):
        seconds, rows = _timed(porosity_sweep, BASE, targets, half_length, n)
        digest = _same_digest(first, rows, f"sweep at b={half_length}, n={n}, K={count}")
        times.append(seconds)
    seconds = min(times)
    geometry_s = _timed(_halfline_cosine_tables, [], h, n, OscIntSpec())[0]
    layers = _instrumented_sweep(targets, half_length, n)
    transforms_s = layers["_kernel_tables"] - geometry_s
    fold_lu = layers["solve"]
    return {
        "targets": count, "sweep_s": seconds, "sweep_s_min": seconds,
        "sweep_s_max": max(times),
        "sweep_s_per_target": seconds / count,
        "geometry_s": geometry_s, "transforms_s": transforms_s,
        "transforms_s_per_target": transforms_s / count,
        "singular_block_s": layers["_FoldedGrid"], "fold_lu_s": fold_lu,
        "other_s": (layers["sweep"] - layers["_kernel_tables"] - layers["_FoldedGrid"]
                    - fold_lu),
        "instrumented_sweep_s": layers["sweep"],
        "tracemalloc_peak_kib": _tracemalloc_peak_kib(targets, half_length, n),
        "repeats": 1, "rows_sha256": digest,
        "rows_equal_single_solves": _rows_equal_single_solves(rows, half_length, n),
        "first_row": list(rows[0]),
    }


def sweep_table():
    """A porosity sweep of K = 1, 5, 20 and 80 targets in N = [0.02, 0.62]
    per (b, n), after a warm-up sweep: ``sweep_s``, the least of
    ``SWEEP_TIMINGS`` sweeps timed without instruments, each with the
    warm-up's rows bitwise, and ``sweep_s_max`` the most; its split into
    the crack module's private layers, wrapped in one more sweep:
    ``transforms_s`` in ``_kernel_tables``, ``singular_block_s`` building
    the ``_FoldedGrid`` and ``fold_lu_s`` in its ``solve``, with
    ``geometry_s`` a ``_halfline_cosine_tables`` call with no integrand;
    the tracemalloc peak; the rows' digest (other numpy builds may round
    differently); and whether every row equals ``solve_crack`` at its
    target bitwise.
    """
    cases = [{"half_length": b, "n": n,
              "curve": [_sweep_row(b, n, count) for count in TARGET_COUNTS]}
             for b, n in SWEEP_CASES]
    fields = {
        "layer": "crack.porosity_sweep: one crack._kernel_tables call for all targets "
                 "(quadrature._halfline_cosine_tables with the grid's chirp-z plan built once) "
                 "and one fullkernel._FoldedGrid (the grid's half-angle tables and its "
                 "folded finite-part block, kept whole for n <= 1448), then per target "
                 "fullkernel._FoldedGrid.solve (fold, in-place LU, residual gate); "
                 "crack.solve_crack is the same sweep of one target",
        "material": MATERIAL,
        "targets": "K porosities evenly spaced over [0.02, 0.62]; N = 0.35 for K = 1",
        "timed_sweeps": SWEEP_TIMINGS,
    }
    return fields, {"cases": cases}


def _sweep_lines(record):
    return [f"b={case['half_length']:g} n={case['n']} K={row['targets']}: "
            f"sweep {row['sweep_s']:.4f} s ({1e3 * row['sweep_s_per_target']:.2f} ms/target; "
            f"geometry {1e3 * row['geometry_s']:.2f} ms, transforms "
            f"{1e3 * row['transforms_s_per_target']:.2f} ms/target, singular block "
            f"{1e3 * row['singular_block_s']:.2f} ms), "
            f"peak {row['tracemalloc_peak_kib']:.0f} KiB"
            for case in record["cases"] for row in case["curve"]]


# per topic: its measurement, its printout, its default R and the time field that pairs won
TOPICS = {"offset_table": (offset_table, _offset_lines, 5, "time_s_median"),
          "crack_assembly": (crack_assembly, _assembly_lines, 3, "time_s_median"),
          "sweep_table": (sweep_table, _sweep_lines, 5, "sweep_s")}


def _rows(record) -> list:
    """The rows of a topic's record, in order: its sizes, or its cases' curves."""
    return record.get("sizes") or [row for case in record["cases"] for row in case["curve"]]


def _merged(values: list, key: str = "record"):
    """The entry ``key`` of R runs' records as one, by the rule of the
    module docstring."""
    first = values[0]
    if isinstance(first, dict):
        if any(list(value) != list(first) for value in values):
            raise RuntimeError(f"{key} has other keys in another run")
        return {name: len(values) if name == "repeats" else
                _merged([value[name] for value in values], name) for name in first}
    if isinstance(first, list):
        if any(len(value) != len(first) for value in values):
            raise RuntimeError(f"{key} has another length in another run")
        return [_merged(list(items), key) for items in zip(*values)]
    if isinstance(first, bool):
        return all(values)
    if isinstance(first, float):
        if key.endswith("_min"):
            return min(values)
        if key.endswith("_max"):
            return max(values)
        return statistics.median(values)
    if any(value != first for value in values):
        raise RuntimeError(f"{key} differs across runs: {sorted(set(map(str, values)))}")
    return first


def _repeated(topic: str, repeats: int, trees: list) -> list:
    """The merged records of ``repeats`` fresh ``TOPIC --repeats 1`` runs
    of the tool of each tree in ``trees``, in that order.  Both trees'
    bytecode is compiled first, and which runs first alternates.  With a
    second tree, each row of the first gains ``pairs_won`` against it."""
    import tempfile  # here, as it would add 0.2 MiB to the crack_assembly children

    for tree in trees:
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree / "src")],
                       check=True)
    runs = {tree: [] for tree in trees}
    with tempfile.TemporaryDirectory(prefix="bench-run-") as tmp:
        out = Path(tmp) / "run.json"
        for repeat in range(repeats):
            for tree in trees[::-1] if repeat % 2 else trees:
                subprocess.run([sys.executable, str(tree / "tools" / "bench_layers.py"), topic,
                                "--repeats", "1", "--out", str(out)],
                               check=True, stdout=subprocess.DEVNULL)
                runs[tree].append(json.loads(out.read_text()))
    merged = [_merged(runs[tree]) for tree in trees]
    if len(trees) == 2:
        if len(_rows(merged[0])) != len(_rows(merged[1])):
            raise RuntimeError(f"the two trees' {topic} records have other rows")
        field = TOPICS[topic][3]
        for index, row in enumerate(_rows(merged[0])):
            row["pairs_won"] = sum(_rows(own)[index][field] < _rows(other)[index][field]
                                   for own, other in zip(*runs.values()))
    return merged


def _paired_lines(lines, record, rev: str) -> list:
    """The printout of a record paired with REV's: per row, REV's time,
    the pairs won and whether every digest equals REV's; then one line
    for all rows."""
    field = TOPICS[record["topic"]][3]
    rows = list(zip(_rows(record), _rows(record["against"]["record"])))
    equal = [all(row[name] == other.get(name) for name in row if name.endswith("_sha256"))
             for row, other in rows]
    lines = [f"{line}; {rev}: {other[field]:.4g} s, won {row['pairs_won']}/{row['repeats']}, "
             f"digests {'equal' if same else 'DIFFER'}"
             for line, (row, other), same in zip(lines, rows, equal)]
    return lines + [f"every digest equals {rev}'s" if all(equal)
                    else f"digests DIFFER from {rev}'s"]


@contextlib.contextmanager
def _exported(rev):
    """The commit that ``rev`` names, and its tree in a temporary directory
    by ``git archive``, which only reads the repository."""
    import tempfile

    git = ["git", "-C", str(ROOT)]
    commit = subprocess.run(git + ["rev-parse", "--verify", rev + "^{commit}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(git + ["archive", commit], check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory(prefix="bench-against-") as tree:
        subprocess.run(["tar", "-xf", "-", "-C", tree], input=archive, check=True)
        yield commit, Path(tree)


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
    parser.add_argument("--against", metavar="REV",
                        help="pair every run with one of commit REV")
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(_assembly_child(args.child)))
        return

    measure, describe, default_repeats, _ = TOPICS[args.topic]
    repeats = args.repeats or default_repeats
    if args.against is not None:
        with _exported(args.against) as (commit, tree):
            record, theirs = _repeated(args.topic, repeats, [ROOT, tree])
        record["against"] = {"rev": args.against, "commit": commit, "record": theirs}
    elif repeats > 1:
        [record] = _repeated(args.topic, repeats, [ROOT])
    else:
        fields, rows = measure()
        record = {
            "topic": args.topic, **fields,
            "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
            "versions": {"python": platform.python_version(), "numpy": np.__version__,
                         "scipy": scipy.__version__},
            "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
            **rows,
        }
    lines = describe(record)
    if args.against is not None:
        lines = _paired_lines(lines, record, args.against)
    Path(args.out or ROOT / f"BENCH_{args.topic}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
