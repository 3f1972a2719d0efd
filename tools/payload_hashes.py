"""SHA-256 of every task's payload bytes and CSV files over a fixed grid of
small runs, to show that a change keeps the output byte for byte, and a
drift report for a change that moves it on purpose.

    python3 tools/payload_hashes.py --threads 1 > hashes-1.json
    python3 tools/payload_hashes.py --compare hashes-1.json hashes-4.json
    python3 tools/payload_hashes.py --payloads > payloads.json
    python3 tools/payload_hashes.py --drift parent.json change.json

The runs are every catalog family on every base kind, and on a second,
three-letter Bernoulli base, for each task that family supports, at seed
7 and small task parameters: certify-expansion, lyapunov, minimize and
full-pipeline for all five families, splitting for the torus families,
and the periodic-orbit search on the two-letter Bernoulli base.
A run that raises records its error text in place of the hashes.  The
program is imported from the checkout's ./src.  --compare exits 1 on any
difference between two files and names the runs that differ.  The hashes
go to stdout.  tests/payload_hashes.json holds the recorded --threads 1
hashes; CI compares a fresh run against it, and a change that moves
payloads on purpose re-records it and says why.

--payloads writes each run's payload JSON (the object `payload_bytes()`
encodes) instead of its hashes.  --drift compares two such files: it
prints the largest relative difference of the floats of each run that
moved, and exits 1 on any other difference (a verdict, an int, a string,
a key, a list length, an error text, a run in one file only).
"""

import argparse
import hashlib
import json
import math
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from randhyp import parse_config, run_task                      # noqa: E402
from randhyp.fibers import FAMILY_CATALOG, LinearTorusFamily     # noqa: E402

SEED = 7
BASES = {
    "bernoulli": {"kind": "bernoulli", "probabilities": [0.5, 0.5]},
    # three letters for the two-valued families: a zero-probability letter
    # repeats a CDF entry, and a letter past the values wraps around
    "bernoulli3": {"kind": "bernoulli", "probabilities": [0.25, 0.0, 0.75]},
    "markov": {"kind": "markov", "transition": [[0.9, 0.1], [0.3, 0.7]]},
    "rotation": {"kind": "rotation", "rotation_number": 0.6180339887498949},
    "dirac": {"kind": "dirac"},
}
_SWEEP = {"samples": 3, "n_max": 6, "grid_size": 128}
_CERTIFY = {"depth": 8, "curve_n_max": 8, "supadd_samples": 2, "supadd_N": 6}
_MINIMIZE = {"p_max": 4}
_SPLITTING = {"horizon": 12, "depth": 10, "curve_len": 10, "batches": 4}
TASK_PARAMS = {
    "certify-expansion": {**_SWEEP, **_CERTIFY},
    "lyapunov": {"samples": 3, "n": 400},
    "minimize": {**_SWEEP, **_MINIMIZE},
    "splitting": {"samples": 3, "n": 400, **_SPLITTING},
    "full-pipeline": {**_SWEEP, **_CERTIFY, **_MINIMIZE, **_SPLITTING, "n": 400},
}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def runs():
    """(run id, config dict) of every run, in a fixed order."""
    for family, cls in FAMILY_CATALOG.items():
        tasks = [t for t in TASK_PARAMS
                 if t != "splitting" or issubclass(cls, LinearTorusFamily)]
        for base, base_cfg in BASES.items():
            for task in tasks:
                params = dict(TASK_PARAMS[task])
                if task in ("minimize", "full-pipeline"):
                    params["include_periodic"] = base == "bernoulli"
                yield (f"{task}/{family}/{base}",
                       {"task": task, "seed": SEED, "base": base_cfg,
                        "fiber": {"family": family}, "task_params": params})


def reports(threads):
    """(run id, report, or the error text of a run that raised)."""
    for run_id, cfg in runs():
        try:
            yield run_id, run_task(parse_config(json.dumps(cfg)), threads=threads)
        except Exception as exc:     # recorded: a change must raise alike
            yield run_id, {"error": f"{type(exc).__name__}: {exc}"}


def hashes(threads):
    out = {}
    for run_id, report in reports(threads):
        if isinstance(report, dict):
            out[run_id] = report
            continue
        with tempfile.TemporaryDirectory() as tmp:   # the CSVs as written
            csvs = {path.name: _sha(path.read_bytes()) for path in
                    map(pathlib.Path, report.write(tmp)) if path.suffix == ".csv"}
        out[run_id] = {"payload": _sha(report.payload_bytes()), "csv": csvs}
    return out


def payloads(threads):
    return {run_id: report if isinstance(report, dict)
            else json.loads(report.payload_bytes())
            for run_id, report in reports(threads)}


def compare(path_a, path_b):
    a, b = (json.loads(pathlib.Path(p).read_text()) for p in (path_a, path_b))
    differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    for run_id in differ:
        print(f"differs: {run_id}", file=sys.stderr)
    print(f"{len(a.keys() | b.keys()) - len(differ)} runs equal, "
          f"{len(differ)} differ")
    return 1 if differ else 0


class Mismatch(Exception):
    """Two payloads differ other than in the value of a float."""


def drift(a, b, path="$"):
    """Largest relative difference |a - b| / max(|a|, |b|) over the floats
    of two parsed payloads (inf where only one is infinite); Mismatch names
    the first place where they differ otherwise."""
    if isinstance(a, float) and isinstance(b, float):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return 0.0
        scale = max(abs(a), abs(b))
        return abs(a - b) / scale if math.isfinite(scale) else math.inf
    if type(a) is not type(b):
        raise Mismatch(f"{path}: {a!r} != {b!r}")
    if isinstance(a, dict):
        if a.keys() != b.keys():
            raise Mismatch(f"{path}: keys {sorted(a.keys() ^ b.keys())} in one only")
        return max((drift(a[k], b[k], f"{path}.{k}") for k in a), default=0.0)
    if isinstance(a, list):
        if len(a) != len(b):
            raise Mismatch(f"{path}: length {len(a)} != {len(b)}")
        return max((drift(x, y, f"{path}[{i}]") for i, (x, y)
                    in enumerate(zip(a, b))), default=0.0)
    if a != b:
        raise Mismatch(f"{path}: {a!r} != {b!r}")
    return 0.0


def drift_report(path_a, path_b):
    a, b = (json.loads(pathlib.Path(p).read_text()) for p in (path_a, path_b))
    moved, differ = {}, []
    for run_id in sorted(a.keys() | b.keys()):
        if run_id not in a or run_id not in b:
            differ.append(run_id)
            print(f"differs: {run_id}: in one file only", file=sys.stderr)
            continue
        try:
            rel = drift(a[run_id], b[run_id])
        except Mismatch as exc:
            differ.append(run_id)
            print(f"differs: {run_id}: {exc}", file=sys.stderr)
            continue
        if rel:
            moved[run_id] = rel
            print(f"drift {rel:.3g}: {run_id}")
    print(f"{len(a.keys() | b.keys()) - len(moved) - len(differ)} runs equal, "
          f"{len(moved)} moved by floats only (largest relative "
          f"{max(moved.values(), default=0.0):.3g}), {len(differ)} differ otherwise")
    return 1 if differ else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--threads", type=int, default=1,
                        help="threads passed to run_task (default 1)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      help="compare two hash files instead of running")
    mode.add_argument("--payloads", action="store_true",
                      help="write each run's payload JSON instead of its hashes")
    mode.add_argument("--drift", nargs=2, metavar=("A", "B"),
                      help="report the float drift between two payload files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.drift:
        return drift_report(*args.drift)
    out = payloads(args.threads) if args.payloads else hashes(args.threads)
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
