"""Payload bytes pinned at seed 7.

A change that claims to keep the output must leave these SHA-256 as they
are; a deliberate payload change records new ones and says why.  The
rotation pin was re-recorded when odd families began to sweep only the
grid points in [0, 1/2]: its minima over the mirrored half moved at the
rounding level, the other three pins kept their bytes.  The grid
sweeps read numpy's sin and cos, so the hashes hold for the numpy build
and CPU they were recorded on (numpy 2.4.6, x86-64).

The torus pins are random-cat's `lyapunov`, `splitting` and
`full-pipeline` payloads at the small task parameters of
`tools/payload_hashes.py`; they equal that tool's payload hashes.  The
full-pipeline pins were re-recorded when the Birkhoff candidate left the
minimize payload; the lyapunov and splitting pins kept their bytes.

The exact-path pins are certify-expansion payloads of the two families
whose brackets need no grid, diagonal-cocycle and bernoulli-linear with
multipliers [0.5, 4], at that tool's small certify parameters and the
task's other defaults; the [0.5, 4] samples attain their tempered
constants at every n from 1 to the depth, 8.
"""

import hashlib
import json

import pytest

from randhyp import parse_config, run_task

BASES = {
    "bernoulli": {"kind": "bernoulli", "probabilities": [0.5, 0.5]},
    "markov": {"kind": "markov", "transition": [[0.9, 0.1], [0.3, 0.7]]},
    "rotation": {"kind": "rotation", "rotation_number": 0.6180339887498949},
    "dirac": {"kind": "dirac"},
}
CERTIFY = {"grid_size": 256, "samples": 4, "curve_n_max": 16}

PINNED = {
    "bernoulli": "4f918b08907a011f5dd2cda211e60cdf2478561a2097f47cb75ee5cfede49ca7",
    "markov": "6b5f1533627a2b0c4fa19cf17ab30c6133aa6e0366a38d5882d9e38d7a91d139",
    "rotation": "dccc206b9259e3b4ed9eb6c5b95750737b8dd355ad5986dcf9e1dba0357c90f4",
    "dirac": "d4077f162d69fa3d8295da09f7828a88f8ed9cbf223d04dc08a3d9564892fbb9",
}


@pytest.mark.parametrize("base", BASES)
def test_certify_expansion_payload_bytes_are_pinned(base):
    cfg = {"task": "certify-expansion", "seed": 7, "base": BASES[base],
           "fiber": {"family": "perturbed-doubling"}, "task_params": CERTIFY}
    report = run_task(parse_config(json.dumps(cfg)))
    assert hashlib.sha256(report.payload_bytes()).hexdigest() == PINNED[base]


_SWEEP = {"samples": 3, "n_max": 6, "grid_size": 128}
_SPLITTING = {"horizon": 12, "depth": 10, "curve_len": 10, "batches": 4}
TORUS_PARAMS = {
    "lyapunov": {"samples": 3, "n": 400},
    "splitting": {"samples": 3, "n": 400, **_SPLITTING},
    "full-pipeline": {**_SWEEP, **_SPLITTING, "n": 400, "depth": 8,
                      "curve_n_max": 8, "supadd_samples": 2, "supadd_N": 6, "p_max": 4},
}
TORUS_PINNED = {
    ("lyapunov", "bernoulli"): "26433feaefc80526856386897b075953de4b25c2798d4f63e9ef84af14cc38ff",
    ("lyapunov", "markov"): "f423aab4642c250e03ca0b878ff83dd34c5274c7466d2d6ad53bb69572807076",
    ("lyapunov", "rotation"): "59cd99b1c83bb904a4bffdd22c0f722023b66c81a836cb96b2ba3c595d1a38b7",
    ("lyapunov", "dirac"): "20c8a5647c21a0cf379a94da67e2968523f70d5fa7697da08b5f0e35167ceb24",
    ("splitting", "bernoulli"): "77b6e4f3075685797db3d8bd6105d8453e4d4c85efc11b185a2c23db2e7ade70",
    ("splitting", "markov"): "4e6ae1f52abd72e601151d4ebe6f5c1183797b34b315593fdfa8ed6c4a9078d9",
    ("splitting", "rotation"): "f60f2d069af0e58299b41bd83348384aadff0e7c1ea8c3d6ab0ea66aadff572e",
    ("splitting", "dirac"): "dbf1fca2a2cf6d3861db5252ec051ea66f9ffd45b5068ae65c2673701d4348a1",
    ("full-pipeline", "bernoulli"): "725e4b83a6cbbcc17766f8ddb38c00113dc0aa348fb88b97f82fc7223afdb089",
    ("full-pipeline", "markov"): "fc403be935fa6efccdc1db630be8e461a8908dc35dc6ccde9507e4823d4f0f29",
    ("full-pipeline", "rotation"): "3780485f6f14d3647a483919744b959bb601168e1cd685b3269b2e238cc1e51b",
    ("full-pipeline", "dirac"): "89122c121db24453aed5d9ced1925b8dc01220f3ac00a72a3751892297ae5843",
}


@pytest.mark.parametrize("task, base", TORUS_PINNED)
def test_torus_payload_bytes_are_pinned(task, base):
    params = dict(TORUS_PARAMS[task])
    if task == "full-pipeline":
        params["include_periodic"] = base == "bernoulli"
    cfg = {"task": task, "seed": 7, "base": BASES[base],
           "fiber": {"family": "random-cat"}, "task_params": params}
    report = run_task(parse_config(json.dumps(cfg)))
    assert hashlib.sha256(report.payload_bytes()).hexdigest() == TORUS_PINNED[task, base]


_CERTIFY = {"depth": 8, "curve_n_max": 8, "supadd_samples": 2, "supadd_N": 6}
EXACT_FIBERS = {
    "diagonal-cocycle": {"family": "diagonal-cocycle"},
    "bernoulli-linear": {"family": "bernoulli-linear", "params": {"values": [0.5, 4]}},
}
EXACT_PINNED = {
    "diagonal-cocycle": "3de054785ccedae517d1e295638227617555ce2659c773583e4fef8ef68c58b0",
    "bernoulli-linear": "62935cc14c158534473e3f217d321c3ecf917f18e62d6b771573146d240bfa9c",
}


@pytest.mark.parametrize("family", EXACT_PINNED)
def test_exact_certify_expansion_payload_bytes_are_pinned(family):
    cfg = {"task": "certify-expansion", "seed": 7, "base": BASES["bernoulli"],
           "fiber": EXACT_FIBERS[family], "task_params": _CERTIFY}
    report = run_task(parse_config(json.dumps(cfg)))
    assert hashlib.sha256(report.payload_bytes()).hexdigest() == EXACT_PINNED[family]
