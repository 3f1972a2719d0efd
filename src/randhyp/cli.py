"""Experiment orchestration and the `randhyp` command line.

Every task writes a versioned JSON report whose numeric payload is a
deterministic function of the config (seed included), independent of thread
count; series go to CSV side files.  Exit codes: 0 when certified or
complete, 2 on an inconclusive (or violated) verdict, 1 on error.
"""

import argparse
import csv
import json
import math
import os
import sys
import time

from . import __version__
from ._record import Record
from .config import TASKS, parse_config
from .ergodic import lambda_estimate
from .errors import ConfigurationError, RandhypError
from .expansion import (build_expansion_certificate, uniform_rate_estimate,
                        variable_rate_corollary)
from .base import random_point, sample_base
from .cocycle import iterate, orbit_log_stretches, unit_tangent
from .fibers import LinearTorusFamily, ManifoldPoint
from .lyapunov import exponent_positivity_report
from .splitting import hyperbolicity_certificate

_OK_VERDICTS = {"certified-expanding", "certified", "complete", "positive"}


def _finite(obj):
    """`obj` with each non-finite float as None: JSON has no NaN or Infinity."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


class RunReport(Record):
    task: str
    config_echo: dict
    payload: dict
    verdict: str
    wall_time_s: float
    csv_files: dict

    @property
    def exit_code(self):
        return 0 if self.verdict in _OK_VERDICTS else 2

    def to_json_dict(self):
        return {
            "schema": "randhyp-report/1",
            "version": __version__,
            "task": self.task,
            "config": self.config_echo,
            "wall_time_s": self.wall_time_s,
            "payload": self.payload,
            "verdict": self.verdict,
        }

    @staticmethod
    def encode(doc, **kwargs):
        """Strict JSON text of `doc`, keys sorted; a non-finite float
        (a vacuous -inf bracket, a NaN constant) is written as null."""
        return json.dumps(_finite(doc), sort_keys=True, allow_nan=False, **kwargs)

    def payload_bytes(self):
        """Canonical bytes of the numeric payload, for determinism checks."""
        return self.encode({"payload": self.payload, "verdict": self.verdict}).encode()

    def write(self, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "report.json")
        with open(path, "w") as fh:
            fh.write(self.encode(self.to_json_dict(), indent=2) + "\n")
        written = [path]
        for name, (header, rows) in self.csv_files.items():
            cpath = os.path.join(out_dir, name)
            with open(cpath, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
            written.append(cpath)
        return written


def _certify_expansion(config, threads):
    """The certificate, then the certify-expansion payload, verdict, CSVs."""
    p = config.task_params
    cert = build_expansion_certificate(
        config.fiber, config.base, config.seed,
        samples=p["samples"], n_max=p["n_max"], grid_size=p["grid_size"],
        lam=p.get("lambda"), depth=p["depth"],
        curve_n_max=p.get("curve_n_max"),
        temperedness_threshold=p["temperedness_threshold"],
        supadd_samples=p["supadd_samples"], supadd_N=p.get("supadd_N"),
        threads=threads)
    payload = cert.to_payload()
    verdict = cert.verdict
    if p["corollary"]:
        rep = variable_rate_corollary(config.fiber, config.base, config.seed,
                                      samples=max(p["samples"], 100),
                                      a_estimate=cert.a_estimate)
        payload["corollary"] = {
            "estimate": rep.estimate, "std_err": rep.std_err,
            "samples": rep.samples, "verdict": rep.verdict,
            "lambda_const": rep.lambda_const,
        }

    sweep = cert.rate.sweeps[0]
    an_rows = [(n, repr(lo), repr(up)) for n, (lo, up) in
               enumerate(zip(sweep.lowers.tolist(), sweep.uppers.tolist()), 1)]
    curve = cert.temperedness_curve
    curve_rows = [(int(n), repr(float(v))) for n, v in zip(curve.ns, curve.values)]
    csvs = {"an_table.csv": (("n", "lower", "upper"), an_rows),
            "temperedness.csv": (("n", "value"), curve_rows)}
    return cert, payload, verdict, csvs


def _task_lyapunov(config, threads):
    p = config.task_params
    report = exponent_positivity_report(config.fiber, config.base, config.seed,
                                        p["samples"], p["n"])
    omega0 = sample_base(config.base, config.seed, 1)[0]
    x0 = ManifoldPoint(random_point(config.seed, 0, config.fiber.manifold_dim))
    steps = min(p["n"], 1000)
    points = iterate(config.fiber, omega0, x0, steps)
    v0 = tuple(1.0 if i == 0 else 0.0 for i in range(config.fiber.manifold_dim))
    stretches = orbit_log_stretches(
        config.fiber, unit_tangent(omega0, x0, v0), steps)
    rows = [(i, *(repr(c) for c in points[i].coords), repr(float(stretches[i])))
            for i in range(steps)]
    coords_header = tuple(f"x{j}" for j in range(config.fiber.manifold_dim))
    csvs = {"trajectory.csv": (("step",) + coords_header + ("log_deriv",), rows)}
    return report, "complete", csvs


def _task_minimize(config, threads, rate=None):
    p = config.task_params
    if rate is None:
        rate = uniform_rate_estimate(config.fiber, config.base, config.seed,
                                     p["samples"], p["n_max"], p["grid_size"],
                                     threads)
    report = lambda_estimate(config.fiber, config.base, config.seed, rate,
                             include_periodic=p["include_periodic"],
                             p_max=p["p_max"])
    csvs = {}
    if p["include_periodic"]:
        rows = [("".join(str(s) for s in r.symbol_word), r.period,
                 repr(r.x0.coords[0]), repr(r.phi_average), repr(r.residual))
                for r in report.periodic_orbits]
        csvs["orbits.csv"] = (("word", "period", "x0", "phi_average", "residual"),
                              rows)
    return report.to_payload(), "complete", csvs


def _splitting(config):
    """The certificate, then the splitting payload, verdict and CSVs."""
    p = config.task_params
    cert = hyperbolicity_certificate(config.fiber, config.base, config.seed,
                                     samples=p["samples"], horizon=p["horizon"],
                                     n=p["n"], depth=p["depth"], batches=p["batches"])
    rows = [(r["omega"], repr(r["angle"]), repr(r["rate1"]), repr(r["rate2"]),
             repr(r["residual"]))
            for r in cert.details["per_sample"]]
    csvs = {"samples.csv": (("omega", "angle", "rate1", "rate2", "residual"), rows)}
    return cert, cert.to_payload(), cert.verdict, csvs


def _task_full_pipeline(config, threads):
    cert, exp_payload, exp_verdict, csvs = _certify_expansion(config, threads)
    # torus spectra come from the splitting pass; minimize reuses the rate sweep
    sp = _splitting(config) if isinstance(config.fiber, LinearTorusFamily) else None
    payload = {"expansion": exp_payload, "lyapunov": exponent_positivity_report(
        config.fiber, config.base, config.seed, config.task_params["samples"],
        config.task_params["n"], sp[0].spectra if sp else None),
               "minimize": _task_minimize(config, threads, cert.rate)[0]}
    if sp:
        payload["splitting"] = sp[1]
        csvs.update(sp[3])
    # Overall verdict is the strongest certificate achieved: a hyperbolic
    # (non-expanding) system certifies through its splitting even though
    # expansion certification is rightly inconclusive for it.
    if exp_verdict in ("violated", "certified-expanding"):
        return payload, exp_verdict, csvs
    return payload, "certified" if sp and sp[2] == "certified" else "inconclusive", csvs


_DISPATCH = {
    "certify-expansion": lambda config, threads: _certify_expansion(config, threads)[1:],
    "lyapunov": _task_lyapunov,
    "minimize": _task_minimize,
    "splitting": lambda config, threads: _splitting(config)[1:],
    "full-pipeline": _task_full_pipeline,
}


def run_task(config, threads=1):
    """Execute the configured task and assemble the run report; `threads`
    (>= 1) walk the A_n sweeps of every family."""
    if threads < 1:
        raise ConfigurationError(f"threads must be >= 1, got {threads}")
    t0 = time.perf_counter()
    payload, verdict, csvs = _DISPATCH[config.task](config, threads)
    wall = time.perf_counter() - t0
    return RunReport(task=config.task, config_echo=config.echo,
                     payload=payload, verdict=verdict,
                     wall_time_s=wall, csv_files=csvs)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="randhyp",
        description="Numerical uniform-expansion and hyperbolicity "
                    "certification for random dynamical systems")
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--threads", type=int, default=None,
                        help="threads for the A_n sweep, >= 1 "
                             "(default: RANDHYP_THREADS or 1)")
    args = parser.parse_args(argv)

    if args.threads is not None:
        threads = args.threads
    else:
        try:
            threads = int(os.environ.get("RANDHYP_THREADS", "1"))
        except ValueError:
            print("error: RANDHYP_THREADS must be an integer", file=sys.stderr)
            return 1

    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1

    try:
        config = parse_config(text, task=args.task)
    except ConfigurationError as exc:
        print("configuration errors:", file=sys.stderr)
        for msg in exc.errors:
            print(f"  - {msg}", file=sys.stderr)
        return 1

    try:
        report = run_task(config, threads=threads)
    except Exception as exc:
        kind = "" if isinstance(exc, RandhypError) else f"{type(exc).__name__}: "
        print(f"error: {kind}{exc}", file=sys.stderr)
        return 1

    out_dir = args.out or config.out_dir
    if out_dir:
        try:
            for path in report.write(out_dir):
                print(f"wrote {path}")
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 1
    print(f"{config.task}: verdict={report.verdict} "
          f"wall_time={report.wall_time_s:.2f}s")
    return report.exit_code


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
