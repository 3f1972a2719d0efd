"""Payload bytes pinned at seed 7, one test per pinned run: the fresh
payload hash of each run equals its entry in the golden store
tests/payload_hashes.json, which holds the expected bytes.  The runs and
the reasons for their re-records are in tools/payload_hashes.py.

The perturbed-doubling pins are certify-expansion at grid 256 on four
bases; the torus pins are random-cat's `lyapunov`, `splitting` and
`full-pipeline` runs of the store's grid; the exact-path pins are
certify-expansion of the two families whose brackets need no grid.
"""

import pytest

from test_payload_drift import STORE, fresh

BASES = ["bernoulli", "markov", "rotation", "dirac"]
EXACT_RUNS = {
    "diagonal-cocycle": "certify-expansion/diagonal-cocycle/bernoulli/exact",
    "bernoulli-linear": "certify-expansion/bernoulli-linear-0.5-4/bernoulli/exact",
}


def assert_pinned(run_id):
    assert fresh(1)["runs"][run_id]["payload"] == STORE["runs"][run_id]["payload"], run_id


@pytest.mark.parametrize("base", BASES)
def test_certify_expansion_payload_bytes_are_pinned(base):
    assert_pinned(f"certify-expansion/perturbed-doubling/{base}/grid-256")


@pytest.mark.parametrize("task, base", [(task, base)
                                        for task in ("lyapunov", "splitting", "full-pipeline")
                                        for base in BASES])
def test_torus_payload_bytes_are_pinned(task, base):
    assert_pinned(f"{task}/random-cat/{base}")


@pytest.mark.parametrize("family", EXACT_RUNS)
def test_exact_certify_expansion_payload_bytes_are_pinned(family):
    assert_pinned(EXACT_RUNS[family])
