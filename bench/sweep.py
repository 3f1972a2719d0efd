"""Run the benchmark over workloads and seeds and summarize the spread.

    python3 bench/sweep.py --out parent.jsonl                # 10 seeds each
    python3 bench/sweep.py --out s.jsonl --workloads certify-circle --seeds 1 2 3

Each run is the BENCHMARK.json command with --workload, --seed, --seconds
(run_seconds unless --seconds is given) and --trace, started from the root
of the checkout.  Its last stdout line is appended to --out with the
workload, seed and trace.  For untraced runs the summary gives, per
workload and end-to-end metric, the median, the quartiles and the quartile
distance as a share of the median next to a third of the metric's bound;
compare.py compares two such files.
"""

import argparse
import json
import subprocess
import sys
import time

import compare


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=compare.ROOT, capture_output=True,
                          text=True, timeout=900)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"sweep: {workload} seed {seed} exited with "
                         f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1]), wall


def summarize(runs, spec):
    for workload, results in sorted(runs.items()):
        print(f"{workload}: {len(results)} runs, "
              f"{sum(not r['correct'] for _, r in results)} incorrect")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for _, r in results]
            q1, med, q3 = compare.quartiles(values)
            share = (q3 - q1) / med
            print(f"  {m['name']:<12} median {med:.6g} [{q1:.6g}, {q3:.6g}]"
                  f"  spread {share:.4f}  bound/3 {m['bound'] / 3:.4f}"
                  f"{'' if share < m['bound'] / 3 else '  WIDE'}")


def main(argv=None):
    spec = compare.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="JSON-lines result set")
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(args.out, "a") as fh:
        for workload in args.workloads:
            for seed in args.seeds:
                result, wall = run_once(spec, workload, seed, args.seconds,
                                        args.trace)
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "trace": args.trace,
                                     "result": result}) + "\n")
                fh.flush()
                brief = {k: round(v["value"], 4)
                         for k, v in result["metrics"].items()}
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"{result['failed']}/{result['attempted']} failed, "
                      f"{wall:.1f} s wall, {brief}", flush=True)
    if args.trace == 0:
        summarize(compare.load(args.out), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
