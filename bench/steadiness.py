"""Repeat each workload over fresh seeds and report the spread of its metrics.

    python3 bench/steadiness.py [--runs 10] [--sets 1] [--first-seed 1]
                                [--workloads crack-long,sweep] [--seconds N]

Runs the command of ``BENCHMARK.json`` with the arguments every run
takes, ``<command> --workload W --seed S --seconds N --trace 0``, once
per seed, one run at a time.  For every workload and end-to-end metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread ``(q3 - q1) / median`` next to the metric's bound, and the
share of failed operations.  With ``--sets 2`` it repeats the whole
series on new seeds and also prints how far each median moved between
the sets.  The bounds committed in ``BENCHMARK.json`` were chosen from
this report; a spread should stay below a third of its bound.  A summary
is written to ``.bench_build/hypersing-bench/steadiness.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys

import bootstrap

RUN_TIMEOUT_S = 900


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bootstrap.ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["log"] = [line for line in proc.stderr.splitlines() if line.startswith("bench:")]
    return result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None):
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        sets = []
        for k in range(args.sets):
            seeds = range(args.first_seed + k * args.runs, args.first_seed + (k + 1) * args.runs)
            results = [run_once(spec["command"], workload, s, args.seconds) for s in seeds]
            if not all(r["correct"] for r in results):
                print(f"{workload}: a run reported correct=false", file=sys.stderr)
            sets.append({
                "seeds": list(seeds),
                "failed_share": sorted({r["failed"] / r["attempted"] for r in results}),
                "metrics": {name: summarize([r["metrics"][name]["value"] for r in results])
                            for name in bounds},
                "values": {name: [r["metrics"][name]["value"] for r in results]
                           for name in bounds},
                "logs": [r["log"] for r in results],
            })
        report[workload] = sets
        for k, result in enumerate(sets):
            print(f"{workload} set {k + 1}: failed share {result['failed_share']}")
            for name, s in result["metrics"].items():
                moved = ""
                if k:
                    first = sets[0]["metrics"][name]["median"]
                    moved = f"  median moved {(s['median'] - first) / first:+.3%}"
                flag = "" if s["spread"] <= bounds[name] / 3 else "  ABOVE bound/3"
                print(f"  {name:13s} median {s['median']:10.4f}  q1 {s['q1']:10.4f}  "
                      f"q3 {s['q3']:10.4f}  spread {s['spread']:7.2%}  "
                      f"bound {bounds[name]:.0%}{flag}{moved}")
        sys.stdout.flush()
    bootstrap.OUT_ROOT.mkdir(parents=True, exist_ok=True)
    (bootstrap.OUT_ROOT / "steadiness.json").write_text(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
