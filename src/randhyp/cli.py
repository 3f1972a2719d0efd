"""Experiment orchestration and the `randhyp` command line.

Every task writes a versioned JSON report whose numeric payload is a
deterministic function of the config (seed included), independent of thread
count; series go to CSV side files.  Exit codes: 0 when certified or
complete, 2 on an inconclusive (or violated) verdict, 1 on error.
"""

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import TASKS, parse_config
from .ergodic import enumerate_periodic_orbits, lambda_estimate
from .errors import ConfigurationError, RandhypError
from .expansion import (build_expansion_certificate, table_of_sweep,
                        variable_rate_corollary)
from .base import random_point, sample_base
from .cocycle import iterate, orbit_log_stretches, unit_tangent
from .fibers import LinearTorusFamily, ManifoldPoint
from .lyapunov import exponent_positivity_report
from .splitting import hyperbolicity_certificate

_OK_VERDICTS = {"certified-expanding", "certified", "complete", "positive"}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


@dataclass(frozen=True)
class RunReport:
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
            "config": _jsonable(self.config_echo),
            "wall_time_s": self.wall_time_s,
            "payload": _jsonable(self.payload),
            "verdict": self.verdict,
        }

    def payload_bytes(self):
        """Canonical bytes of the numeric payload, for determinism checks."""
        return json.dumps({"payload": _jsonable(self.payload),
                           "verdict": self.verdict},
                          sort_keys=True).encode()

    def write(self, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "report.json")
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
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
                                      a_estimate=cert.a_estimate
                                      if cert.a_estimate > 0 else None,
                                      grid_size=p["grid_size"])
        payload["corollary"] = {
            "estimate": rep.estimate, "std_err": rep.std_err,
            "samples": rep.samples, "verdict": rep.verdict,
            "lambda_const": rep.lambda_const,
        }

    omega0 = sample_base(config.base, config.seed, 1)[0]
    table = table_of_sweep(omega0, cert.rate.sweeps[0])
    an_rows = [(n, repr(lo), repr(up)) for (n, lo, up) in table.rows]
    curve = cert.temperedness_curve
    curve_rows = [(int(n), repr(float(v))) for n, v in zip(curve.ns, curve.values)]
    csvs = {"an_table.csv": (("n", "lower", "upper"), an_rows),
            "temperedness.csv": (("n", "value"), curve_rows)}
    return cert, payload, verdict, csvs


def _task_lyapunov(config, threads):
    p = config.task_params
    report = exponent_positivity_report(config.fiber, config.base, config.seed,
                                        p["samples"], p["n"])
    report["spectrum_first_sample"] = list(report["per_sample"][0]["exponents"])
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
    report = lambda_estimate(config.fiber, config.base, config.seed,
                             samples=p["samples"], n_max=p["n_max"],
                             grid_size=p["grid_size"],
                             birkhoff_steps=p["birkhoff_steps"],
                             birkhoff_starts=p["birkhoff_starts"],
                             include_periodic=p["include_periodic"],
                             p_max=p["p_max"], threads=threads, rate=rate)
    csvs = {}
    if p["include_periodic"] and config.base.kind == "bernoulli":
        records = enumerate_periodic_orbits(config.fiber, config.base, p["p_max"])
        rows = [("".join(str(s) for s in r.symbol_word), r.period,
                 repr(r.x0.coords[0]), repr(r.phi_average), repr(r.residual))
                for r in records]
        csvs["orbits.csv"] = (("word", "period", "x0", "phi_average", "residual"),
                              rows)
    return report.to_payload(), "complete", csvs


def _task_splitting(config, threads):
    p = config.task_params
    cert = hyperbolicity_certificate(config.fiber, config.base, config.seed,
                                     samples=p["samples"], horizon=p["horizon"],
                                     n=p["n"], depth=p["depth"],
                                     curve_len=p["curve_len"],
                                     batches=p["batches"])
    rows = [(r["omega"], repr(r["angle"]), repr(r["rate1"]), repr(r["rate2"]),
             repr(r["residual"]))
            for r in cert.details["per_sample"]]
    csvs = {"samples.csv": (("omega", "angle", "rate1", "rate2", "residual"), rows)}
    return cert.to_payload(), cert.verdict, csvs


def _task_full_pipeline(config, threads):
    payload = {}
    csvs = {}
    cert, exp_payload, exp_verdict, exp_csvs = _certify_expansion(config, threads)
    payload["expansion"] = exp_payload
    csvs.update(exp_csvs)
    ly_payload, _, _ = _task_lyapunov(config, threads)
    payload["lyapunov"] = ly_payload
    # minimize's empirical measure uses the certificate's rate sweep
    mn_payload, _, _ = _task_minimize(config, threads, cert.rate)
    payload["minimize"] = mn_payload
    sp_verdict = None
    if isinstance(config.fiber, LinearTorusFamily):
        sp_payload, sp_verdict, sp_csvs = _task_splitting(config, threads)
        payload["splitting"] = sp_payload
        csvs.update(sp_csvs)
    # Overall verdict is the strongest certificate achieved: a hyperbolic
    # (non-expanding) system certifies through its splitting even though
    # expansion certification is rightly inconclusive for it.
    if exp_verdict == "violated":
        verdict = "violated"
    elif exp_verdict == "certified-expanding":
        verdict = "certified-expanding"
    elif sp_verdict == "certified":
        verdict = "certified"
    else:
        verdict = "inconclusive"
    return payload, verdict, csvs


_DISPATCH = {
    "certify-expansion": lambda config, threads: _certify_expansion(config, threads)[1:],
    "lyapunov": _task_lyapunov,
    "minimize": _task_minimize,
    "splitting": _task_splitting,
    "full-pipeline": _task_full_pipeline,
}


def run_task(config, threads=1):
    """Execute the configured task and assemble the run report; `threads`
    (>= 1) walks the grid sweeps of x-dependent circle families."""
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
                        help="threads for the grid sweep, >= 1 "
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
