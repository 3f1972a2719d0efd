"""Workload configs, generated from a seed, and the output check.

Each workload is a randhyp JSON config whose only varying input is the
seed; the program sees nothing but the generated config text.  The check
reads a task's canonical payload bytes (``RunReport.payload_bytes()``)
and compares them with the recorded reference at the reference seed, or
with the invariants alone at any other seed.
"""

import hashlib
import json
import math
import pathlib

REFERENCE_PATH = pathlib.Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 7
SCALAR_RTOL = 1e-9
RESIDUAL_TOL = -1e-9

_BERNOULLI = {"kind": "bernoulli", "probabilities": [0.5, 0.5]}
_DOUBLING = {"family": "perturbed-doubling", "params": {"eps_max": 0.1}}

_CONFIGS = {
    "certify-circle": {
        "task": "certify-expansion", "base": _BERNOULLI, "fiber": _DOUBLING,
    },
    "certify-fine": {
        "task": "certify-expansion",
        "base": {"kind": "rotation", "rotation_number": 0.6180339887498949},
        "fiber": _DOUBLING,
        "task_params": {"grid_size": 65536, "samples": 4,
                        "supadd_samples": 2, "curve_n_max": 32},
    },
    "pipeline-cat": {
        "task": "full-pipeline", "base": _BERNOULLI,
        "fiber": {"family": "random-cat", "params": {}},
        "task_params": {"n": 10000, "samples": 20},
    },
    "pipeline-markov": {
        "task": "full-pipeline",
        "base": {"kind": "markov", "transition": [[0.9, 0.1], [0.3, 0.7]]},
        "fiber": _DOUBLING,
    },
}

WORKLOADS = tuple(_CONFIGS)


def config_text(workload, seed):
    """The JSON config the program receives for this workload and seed."""
    return json.dumps(dict(_CONFIGS[workload], seed=seed), sort_keys=True)


def _curve_last(expansion):
    return expansion["temperedness_curve"]["value"][-1]


def key_scalars(workload, payload):
    """The scalars compared against the reference, by name."""
    if workload.startswith("certify-"):
        return {"a_estimate": payload["a_estimate"],
                "lambda": payload["lambda"],
                "supadditivity_min_residual":
                    payload["supadditivity_min_residual"],
                "curve_last": _curve_last(payload)}
    if workload == "pipeline-cat":
        sp = payload["splitting"]
        return {"splitting.lambda": sp["lambda"],
                "splitting.angle_min": sp["angle_min"],
                "splitting.invariance_residual_max":
                    sp["invariance_residual_max"],
                "lyapunov.min_exponent": payload["lyapunov"]["min_exponent"]}
    return {"expansion.a_estimate": payload["expansion"]["a_estimate"],
            "lyapunov.min_exponent": payload["lyapunov"]["min_exponent"],
            "minimize.lambda_estimate":
                payload["minimize"]["lambda_estimate"]}


def _expansion_invariants(exp, where):
    problems = []
    res, lam, a = (exp["supadditivity_min_residual"], exp["lambda"],
                   exp["a_estimate"])
    if not res >= RESIDUAL_TOL:
        problems.append(f"{where}supadditivity residual {res} < {RESIDUAL_TOL}")
    if lam is None or not 0.0 < lam < a:
        problems.append(f"{where}lambda {lam} not in (0, a_estimate={a})")
    return problems


def invariant_problems(workload, payload):
    """Inequalities every seed must satisfy, as messages (empty = holds)."""
    if workload.startswith("certify-"):
        return _expansion_invariants(payload, "")
    if workload == "pipeline-markov":
        problems = _expansion_invariants(payload["expansion"], "expansion ")
        # The estimate is the least of its candidates, one of which is the
        # same mean as a_estimate summed in another order, so they may
        # differ in the last bits.
        mn = payload["minimize"]
        if not mn["lambda_estimate"] <= mn["a_estimate"] * (1.0 + SCALAR_RTOL):
            problems.append(
                f"minimize lambda_estimate {mn['lambda_estimate']} exceeds "
                f"its a_estimate {mn['a_estimate']}")
        return problems
    sp = payload["splitting"]
    rates = [min(r["rate1"], r["rate2"]) for r in sp["details"]["per_sample"]]
    problems = []
    if not 0.0 < sp["lambda"] < min(rates):
        problems.append(f"splitting lambda {sp['lambda']} not in "
                        f"(0, min rate={min(rates)})")
    if not 0.0 < sp["angle_min"] <= 0.5 * math.pi:
        problems.append(f"splitting angle_min {sp['angle_min']} not in (0, pi/2]")
    if not sp["invariance_residual_max"] >= 0.0:
        problems.append("splitting invariance residual is negative")
    return problems


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def reference_entry(workload, payload_bytes):
    """What the reference file records for one workload at the reference seed."""
    doc = json.loads(payload_bytes)
    return {"seed": REFERENCE_SEED, "verdict": doc["verdict"],
            "scalars": key_scalars(workload, doc["payload"]),
            "sha256": hashlib.sha256(payload_bytes).hexdigest()}


def check_payload(workload, seed, payload_bytes, reference):
    """Problems with one task's output; an empty list means it passed.

    `reference` is this workload's entry of reference.json.  It is used
    only when `seed` is the seed it was recorded at.
    """
    doc = json.loads(payload_bytes)
    problems = invariant_problems(workload, doc["payload"])
    if seed != reference["seed"]:
        return problems
    if doc["verdict"] != reference["verdict"]:
        problems.append(f"verdict {doc['verdict']!r} != reference "
                        f"{reference['verdict']!r}")
    got = key_scalars(workload, doc["payload"])
    for name, want in reference["scalars"].items():
        have = got[name]
        if not math.isclose(have, want, rel_tol=SCALAR_RTOL, abs_tol=0.0):
            problems.append(f"{name} = {have!r}, reference {want!r}")
    return problems
