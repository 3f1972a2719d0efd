"""Compare two result sets of the benchmark, per workload and metric.

    python3 bench/compare.py parent.jsonl change.jsonl

A result set is a JSON-lines file written by sweep.py, one line per run:
{"workload", "seed", "trace", "result"}.  Only untraced (--trace 0) runs
are compared.  For every workload and end-to-end metric of BENCHMARK.json
it prints each side's median and quartiles, the ratio change/parent, and
a verdict:

  better        the change wins at least 9 of 10 runs paired by seed
                order, and the medians differ by more than the parent's
                quartile distance;
  unresolved    the parent's quartile distance exceeds the metric's bound
                and the two sides' runs overlap;
  worse         the change's median is worse than the parent's by more
                than the bound;
  within bound  otherwise.
"""

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def load(path):
    """{workload: [(seed, result)]} of the untraced runs, sorted by seed."""
    runs = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if rec["trace"] == 0:
                    runs.setdefault(rec["workload"], []).append(
                        (rec["seed"], rec["result"]))
    return {w: sorted(rs, key=lambda r: r[0]) for w, rs in runs.items()}


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med


def judge(parent, change, bound, better="lower"):
    """Verdict for one metric on one workload; see the module docstring."""
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    # Negate higher-is-better values, so that lower is better below.
    sign = 1.0 if better == "lower" else -1.0
    parent = [sign * v for v in parent]
    change = [sign * v for v in change]
    loss = sign * (cm - pm)
    wins = sum(c < p for p, c in zip(parent, change))
    if loss < 0 and wins >= 0.9 * len(parent) and -loss > p3 - p1:
        return "better"
    apart = max(change) < min(parent) or min(change) > max(parent)
    if (p3 - p1) / pm > bound and not apart:
        return "unresolved"
    if loss > bound * pm:
        return "worse"
    return "within bound"


def compare(parent_runs, change_runs, spec, out=sys.stdout):
    """Print the table; return the number of (workload, metric) rows worse."""
    worse = 0
    for workload in sorted(set(parent_runs) | set(change_runs)):
        if workload not in parent_runs or workload not in change_runs:
            print(f"{workload}: only in one result set", file=out)
            continue
        sides = (parent_runs[workload], change_runs[workload])
        bad = [sum(not r["correct"] for _, r in runs) for runs in sides]
        print(f"{workload}: {len(sides[0])} parent runs ({bad[0]} incorrect), "
              f"{len(sides[1])} change runs ({bad[1]} incorrect)", file=out)
        for m in spec["end_to_end"]:
            name = m["name"]
            parent, change = ([r["metrics"][name]["value"] for _, r in runs]
                              for runs in sides)
            verdict = judge(parent, change, m["bound"], m["better"])
            worse += verdict == "worse"
            pq, cq = quartiles(parent), quartiles(change)
            print(f"  {name:<12} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
                  f"  change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]"
                  f"  ratio {cq[1] / pq[1]:.4f}  bound {m['bound']}"
                  f"  {verdict}", file=out)
    return worse


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    worse = compare(load(args.parent), load(args.change), load_spec())
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
