"""Run one benchmark workload and print its result as a JSON line.

    python3 bench/run.py --workload crack-long --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
A run measures set-up with fresh probe processes, does one untimed
warm-up operation on the workload's small instance plus the workload's
reference check, then runs full-size operations back to back until
``--seconds`` have passed (at least three) and checks every output
afterwards.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics
for ``--trace 1``.  A traced run alternates untraced and traced
operations, so the tracing overhead comes from the same run.

Times are per operation, as means over the run: the run length is
fixed, so a total over the run would only restate ``--seconds``.  The
host this was tuned on drifts by up to 50% in episodes of seconds to
minutes; the mean averages over those episodes, and across repeated
runs it spread less than the median, the lower quartile or the minimum.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bootstrap

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
MIN_OPS = 3
# the keys of workloads.WORKLOADS, which imports the package and so
# cannot load before the arguments are parsed and the path is set
WORKLOAD_NAMES = ("crack-long", "crack-dense", "sweep", "two-path")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def measure_setup(name, seed, out_dir):
    """Median seconds from process spawn to one warm-up operation done."""
    times = []
    for i in range(SETUP_PROBES):
        spawn = time.monotonic()
        cmd = [sys.executable, str(Path(__file__).with_name("probe.py")),
               name, str(seed * SETUP_PROBES + i), repr(spawn), str(out_dir)]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            stdout, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
        times.append(float(stdout.split()[-1]))
    return statistics.median(times)


def attempt(fn, *args):
    """Result of one operation, or the exception that ended it."""
    try:
        return fn(*args)
    except (Exception, SystemExit) as exc:  # counted as a failed operation
        return exc


def run(args, out_dir):
    import workloads
    from tracing import OP_SPAN, Tracer

    workload = workloads.WORKLOADS[args.workload]
    rng = bootstrap.rng_for(args.seed, args.workload)
    setup_s = None if args.trace else measure_setup(args.workload, args.seed, out_dir)

    # untimed warm-up and the once-per-run reference check
    problems = []
    warm = attempt(workload.run_op, workload.make_inputs(rng, out_dir, "warm", small=True))
    if isinstance(warm, BaseException):
        problems.append(f"warm-up: {type(warm).__name__}: {warm}")
    prepared = workload.prepare(rng, out_dir)
    if prepared:
        problems.append(f"reference check: {prepared}")

    tracer = Tracer() if args.trace else None
    inputs, results, times, cpu_times, traced_times = [], [], [], [], []
    deadline = time.perf_counter() + args.seconds
    # a traced run times every other operation untraced, so it stops on
    # an even count
    while (len(inputs) < MIN_OPS or time.perf_counter() < deadline
           or (tracer is not None and len(inputs) % 2)):
        traced = tracer is not None and len(inputs) % 2 == 1
        inputs.append(workload.make_inputs(rng, out_dir, len(inputs), small=False))
        if traced:
            tracer.install()
        start, cpu_start = time.perf_counter(), time.process_time()
        if traced:
            results.append(attempt(tracer.span, OP_SPAN, workload.run_op, inputs[-1]))
        else:
            results.append(attempt(workload.run_op, inputs[-1]))
        (traced_times if traced else times).append(time.perf_counter() - start)
        cpu_times.append(time.process_time() - cpu_start)
        if traced:
            tracer.uninstall()

    attempted = failed = 0
    for op_inputs, result in zip(inputs, results):
        for outcome in workload.outcomes(op_inputs, result):
            attempted += 1
            if outcome.error:
                failed += 1
                if not outcome.expected:
                    problems.append(f"{outcome.name}: {outcome.error}")
    for problem in problems:
        print(f"bench: FAILED {problem}", file=sys.stderr)

    op_s = statistics.fmean(times)
    if tracer is not None:
        spans_path = bootstrap.OUT_ROOT / f"spans-{args.workload}.json"
        tracer.write(spans_path, workload=args.workload, seed=args.seed)
        metrics = tracer.layer_metrics(op_s, statistics.fmean(traced_times))
        print(f"bench: {len(tracer.spans)} spans written to {spans_path}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_s": (op_s, "s"),
            "cpu_s": (statistics.fmean(cpu_times), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    print(f"bench: {args.workload} seed {args.seed}: {len(inputs)} operations, "
          f"mean {op_s:.4f} s, times " + " ".join(f"{t:.3f}" for t in times + traced_times),
          file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    bootstrap.prepare()
    out_dir = bootstrap.OUT_ROOT / f"run-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
