"""Peak resident memory of a fixed number of benchmark task calls.

    python3 tools/rss_probe.py pipeline-cat 20
    python3 tools/rss_probe.py certify-fine 2 --seed 3

Runs CALLS calls of `run_task(parse_config(config), threads=1)` on the
config of the benchmark workload WORKLOAD (`bench/workloads.py`, imported
read only) in a fresh interpreter, and prints one JSON line: the workload,
seed and calls, `ru_maxrss` of that interpreter (KiB on Linux) and the
same in MiB as `peak_rss_mb`, the unit of the benchmark's metric.  The
benchmark's own `peak_rss_mb` is the high-water mark of a closed loop of
fixed duration, so it grows with the number of calls that fit in the run;
a fixed call count makes the peak of two checkouts comparable.  Compiling
sources at import raises the peak by itself, so every run starts from the
same bytecode state: a first interpreter makes one call and compiles every
module it imports into a fresh temporary `-X pycache_prefix`, and the
measured interpreter reads its bytecode from there and writes none.  No
cache in the checkout or the Python installation is read or written.  The
program and the workloads are imported from this checkout's ./src and
./bench.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True                  # bench/ stays as it is
sys.path.insert(0, str(ROOT / "bench"))

import workloads                                                # noqa: E402

_CHILD = """\
import json, resource, sys
root, workload, seed, calls = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
sys.path.insert(0, root + "/src")
sys.path.insert(0, root + "/bench")
import randhyp
import workloads
config = randhyp.parse_config(workloads.config_text(workload, seed))
for _ in range(calls):
    randhyp.run_task(config, threads=1)
kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"workload": workload, "seed": seed, "calls": calls,
                  "ru_maxrss": kib, "peak_rss_mb": kib / 1024.0}))
"""


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("calls", type=int, help="task calls to make (>= 1)")
    parser.add_argument("--seed", type=int, default=7, help="config seed (default 7)")
    args = parser.parse_args(argv)
    if args.calls < 1:
        parser.error("calls must be >= 1")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    with tempfile.TemporaryDirectory() as cache:
        for calls in (1, args.calls):           # compile into the cache, then measure
            done = subprocess.run([sys.executable, "-X", f"pycache_prefix={cache}", "-c",
                                   _CHILD, str(ROOT), args.workload, str(args.seed),
                                   str(calls)], env=env, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            env["PYTHONDONTWRITEBYTECODE"] = "1"
    print(done.stdout.strip().splitlines()[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
