"""randhyp benchmark: time from a config to a checked certificate.

    python3 bench/run.py --workload certify-circle --seed 7 --seconds 30 --trace 0
    python3 bench/run.py --write-reference

Run from the root of a checkout; the program is imported from ./src.  The
workload's config is generated from --seed and driven through the public
API, ``parse_config`` then ``run_task(config, threads=1)``, the path the
CLI takes.  Every task output is checked (see workloads.py).

--trace 0 prints the end-to-end metrics: the median ``run_task`` time over
calls repeated for --seconds, the median import + parse time of fresh
interpreters, and the process's peak resident memory.  Both times are
wall times expressed at a fixed host speed (see hostspeed.py); the raw
wall times go to stderr.

--trace 1 alternates untraced and traced calls for --seconds, then makes
one call at threads=nproc, and prints the per-layer metrics reduced from
the traced calls' spans (see tracer.py).  Traced and threaded payload
bytes must equal the untraced ones.  The spans of the last traced call go
to .bench_out/<workload>.spans.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; notes go to stderr.  Metric names and
units are those listed in BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import hostspeed
import tracer
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

MIN_CALLS = 3            # timed task calls per run, even past --seconds
SETUP_REPEATS = 9        # fresh interpreters timed for setup_s

_SETUP_CHILD = """\
import sys, time
sys.path.append(sys.argv[1])
import hostspeed
with hostspeed.Sampler() as speed:
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[2])
    import randhyp
    randhyp.parse_config(sys.argv[3])
    wall = time.perf_counter() - t0
print(repr(wall), repr(speed.scaled(wall)))
"""


def import_program():
    sys.path.insert(0, str(SRC))
    try:
        import randhyp
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import randhyp from {SRC}: {exc}")
    if not pathlib.Path(randhyp.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: randhyp was imported from {randhyp.__file__}, "
                         f"not from {SRC}")
    return randhyp


def setup_seconds(text):
    """(wall, scaled) time of `import randhyp` + `parse_config` in a fresh
    interpreter; scaled is the wall time at hostspeed's reference speed.

    The child starts one BLAS thread: numpy's import otherwise starts one
    per core, and how long that takes swings with the load on the host's
    other cores, not with anything randhyp does.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-I", "-c", _SETUP_CHILD, str(HERE), str(SRC), text],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        check=True)
    wall, scaled = done.stdout.strip().splitlines()[-1].split()
    return float(wall), float(scaled)


def host_probe():
    """Seconds for a fixed pure-Python loop plus a fixed numpy kernel.

    Reported to show host drift during a run; never used to rescale.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += (i * i) % 7
    xs = np.arange(1 << 16) / (1 << 16)
    for _ in range(20):
        xs = np.sin(6.283185307179586 * xs) * 0.5 + 0.5
    return time.perf_counter() - t0


def machine_info():
    """nproc, versions and cache sizes; cache sizes read from sysfs."""
    info = {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__}
    cache_dir = pathlib.Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            info[f"L{level}"] = size
    return info


class Checker:
    """Runs tasks, checks each output and counts attempts and failures."""

    def __init__(self, randhyp, workload, seed, reference):
        self.rh = randhyp
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_bytes = None

    def fail(self, label, problem):
        self.problems.append(problem)
        print(f"bench: {self.workload} seed {self.seed} {label}: {problem}",
              file=sys.stderr)

    def run(self, config, threads, label):
        """One checked `run_task`; returns its (wall, scaled) time, or None
        if it raised.  Scaled is the wall time at hostspeed's reference
        speed."""
        self.attempted += 1
        try:
            with hostspeed.Sampler() as speed:
                t0 = time.perf_counter()
                report = self.rh.run_task(config, threads=threads)
                elapsed = time.perf_counter() - t0
            data = report.payload_bytes()
        except Exception as exc:
            traceback.print_exc()
            self.fail(label, f"raised {exc!r}")
            self.failed += 1
            return None
        problems = workloads.check_payload(self.workload, self.seed, data,
                                           self.reference)
        if self.first_bytes is None:
            self.first_bytes = data
        elif data != self.first_bytes:
            problems.append("payload bytes differ from the first call's")
        for problem in problems:
            self.fail(label, problem)
        self.failed += bool(problems)
        return elapsed, speed.scaled(elapsed)


def _median(timings, which):
    """Median of the wall (which=0) or scaled (which=1) times of the calls
    that completed."""
    values = [t[which] for t in timings if t is not None]
    if not values:
        raise SystemExit("bench: no task call completed")
    return statistics.median(values)


def _listed(timings, which):
    return " ".join(f"{t[which]:.3f}" for t in timings if t is not None)


def end_to_end(checker, text, seconds):
    config = checker.rh.parse_config(text)
    setup, times = [], []
    start = time.perf_counter()
    while True:
        # Spread the fresh interpreters over the run, as the task calls are,
        # so that both medians sample the same stretch of host load.
        elapsed = time.perf_counter() - start
        while len(setup) < min(SETUP_REPEATS,
                               1 + SETUP_REPEATS * elapsed / seconds):
            setup.append(setup_seconds(text))
        times.append(checker.run(config, 1, "untraced"))
        elapsed = time.perf_counter() - start
        if (len(times) >= MIN_CALLS
                and elapsed * (len(times) + 1) / len(times) > seconds):
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_seconds(text))
    print(f"bench: task_s is the median of {len(times)} calls, setup_s of "
          f"{len(setup)} interpreters; calls took {_listed(times, 0)} s wall, "
          f"{_listed(times, 1)} s scaled; set-up took {_listed(setup, 0)} s "
          f"wall, median {_median(setup, 0):.4f} s", file=sys.stderr)
    return {"task_s": _median(times, 1), "setup_s": _median(setup, 1),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0}


_COUNT_SUFFIXES = (".calls", ".positions", ".points", ".steps",
                   ".grid_steps", ".items")


def per_layer(checker, text, seconds, workload, seed):
    rh = checker.rh
    config = rh.parse_config(text)
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(checker.run(config, 1, "untraced"))
        spans = tracer.Tracer()
        with spans.installed(rh):
            traced.append(checker.run(rh.parse_config(text), 1, "traced"))
        layers.append(tracer.layer_metrics(spans.totals()))
        # Leave room for one more pair and the threaded call.
        elapsed = time.perf_counter() - start
        if elapsed * (len(layers) + 1.5) / len(layers) > seconds:
            break
    nproc = len(os.sched_getaffinity(0))
    threaded = checker.run(config, nproc, f"threads={nproc}")

    OUT_DIR.mkdir(exist_ok=True)
    spans.dump(OUT_DIR / f"{workload}.spans.json",
               {"workload": workload, "seed": seed})

    metrics = {}
    for name in layers[0]:
        values = [run[name] for run in layers]
        if name.endswith(_COUNT_SUFFIXES):
            if len(set(values)) != 1:
                checker.fail("traced", f"{name} differs between calls: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_frac"] = (_median(traced, 1)
                                      / _median(untraced, 1) - 1.0)
    metrics["parallel.speedup_nproc"] = (_median(untraced, 0) / threaded[0]
                                         if threaded else 0.0)
    print(f"bench: {len(layers)} traced and {len(untraced)} untraced calls, "
          f"1 call at threads={nproc}", file=sys.stderr)
    return metrics


def write_reference(randhyp):
    entries = {}
    for workload in workloads.WORKLOADS:
        config = randhyp.parse_config(
            workloads.config_text(workload, workloads.REFERENCE_SEED))
        first, again = (randhyp.run_task(config, threads=1).payload_bytes()
                        for _ in range(2))
        if first != again:
            raise SystemExit(f"bench: {workload} is not deterministic")
        entries[workload] = workloads.reference_entry(workload, first)
        print(f"bench: {workload}: {entries[workload]['verdict']}",
              file=sys.stderr)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(entries, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="rerun every workload at the reference seed and "
                             "rewrite reference.json")
    args = parser.parse_args(argv)

    randhyp = import_program()
    if args.write_reference:
        write_reference(randhyp)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    reference = workloads.load_reference()[args.workload]
    print("bench: machine " + json.dumps(machine_info(), sort_keys=True),
          file=sys.stderr)

    checker = Checker(randhyp, args.workload, args.seed, reference)
    text = workloads.config_text(args.workload, args.seed)
    probe_start = host_probe()
    if args.trace:
        values = per_layer(checker, text, args.seconds, args.workload,
                           args.seed)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(checker, text, args.seconds)
        wanted = spec["end_to_end"]
    probes = (probe_start, host_probe())
    values["host.probe_s"] = statistics.median(probes)
    print(f"bench: host probe {probes[0]:.4f} s at start, {probes[1]:.4f} s "
          f"at end", file=sys.stderr)
    if args.seed == reference["seed"] and checker.first_bytes is not None:
        digest = hashlib.sha256(checker.first_bytes).hexdigest()
        print(f"bench: payload sha256 {digest} "
              f"{'matches' if digest == reference['sha256'] else 'differs from'}"
              f" the reference", file=sys.stderr)

    result = {"correct": not checker.problems, "attempted": checker.attempted,
              "failed": checker.failed,
              "metrics": {m["name"]: {"value": values[m["name"]],
                                      "unit": m["unit"]} for m in wanted}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
