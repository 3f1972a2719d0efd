"""Self-test of the benchmark's output check and of compare.py's verdicts.

    python3 bench/selftest.py

Runs every workload once at the reference seed and shows that the check
passes against reference.json, and fails when the reference verdict is
flipped, when any key scalar of the reference is nudged by 1e-6 relative,
when an invariant of the payload is broken, and when a repeated call
returns other payload bytes.  Then it feeds compare.judge synthetic runs
whose verdict is known.  Exits 1 if any expectation does not hold.
"""

import copy
import json
import sys

import compare
import run
import workloads

_FAILURES = []


def expect(condition, what):
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        _FAILURES.append(what)


def _break_invariant(workload, payload):
    """Mutate one payload so that one of its invariants no longer holds."""
    if workload.startswith("certify-"):
        payload["supadditivity_min_residual"] = -1e-6
    elif workload == "pipeline-cat":
        payload["splitting"]["lambda"] = 0.0
    else:
        mn = payload["minimize"]
        mn["lambda_estimate"] = mn["a_estimate"] + 1e-3


class _Report:
    def __init__(self, data):
        self.data = data

    def payload_bytes(self):
        return self.data


class _Replay:
    """Stands in for randhyp: run_task returns the given payloads in turn."""

    def __init__(self, *payloads):
        self.payloads = list(payloads)

    def run_task(self, config, threads=1):
        return _Report(self.payloads.pop(0))


def check_workload(randhyp, workload, reference):
    seed = reference["seed"]
    config = randhyp.parse_config(workloads.config_text(workload, seed))
    data = randhyp.run_task(config, threads=1).payload_bytes()

    def fails(ref, payload_bytes=data, at_seed=seed):
        return bool(workloads.check_payload(workload, at_seed, payload_bytes,
                                            ref))

    expect(not fails(reference), f"{workload}: passes against the reference")
    flipped = dict(reference, verdict="violated")
    expect(fails(flipped), f"{workload}: fails on a flipped verdict")
    for name in reference["scalars"]:
        nudged = copy.deepcopy(reference)
        nudged["scalars"][name] *= 1.0 + 1e-6
        expect(fails(nudged), f"{workload}: fails on {name} nudged by 1e-6")

    doc = json.loads(data)
    _break_invariant(workload, doc["payload"])
    broken = json.dumps(doc, sort_keys=True).encode()
    expect(fails(reference, broken, seed + 1),
           f"{workload}: fails on a broken invariant at another seed")

    doc = json.loads(data)
    doc["payload"]["selftest"] = 1
    checker = run.Checker(_Replay(data, json.dumps(doc).encode()), workload,
                          seed, reference)
    checker.run(config, 1, "first")
    checker.run(config, 1, "repeat")
    expect(checker.failed == 1,
           f"{workload}: fails when a repeat's payload bytes differ")


def check_judge():
    parent = [1.0 + 0.01 * (i % 5) for i in range(10)]
    cases = [
        ("same runs", parent, 0.15, "lower", "within bound"),
        ("30% slower", [1.3 * v for v in parent], 0.15, "lower", "worse"),
        ("30% faster", [0.7 * v for v in parent], 0.15, "lower", "better"),
        ("30% higher, higher is better", [1.3 * v for v in parent], 0.15,
         "higher", "better"),
    ]
    for what, change, bound, better, want in cases:
        got = compare.judge(parent, change, bound, better)
        expect(got == want, f"judge: {what} -> {got}")
    wide = [1.0, 1.5, 0.8, 1.2, 1.6, 0.9, 1.1, 1.4, 0.7, 1.3]
    got = compare.judge(wide, [v * 1.1 for v in reversed(wide)], 0.15)
    expect(got == "unresolved", f"judge: wide parent, overlapping change -> {got}")


def main():
    randhyp = run.import_program()
    references = workloads.load_reference()
    for workload in workloads.WORKLOADS:
        check_workload(randhyp, workload, references[workload])
    check_judge()
    if _FAILURES:
        print(f"selftest: {len(_FAILURES)} expectation(s) failed")
        return 1
    print("selftest: all expectations hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
