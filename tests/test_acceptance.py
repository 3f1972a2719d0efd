"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with pytest -s to see them inline)."""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

import randhyp as rh
from randhyp.base import base_step, symbol_window
from randhyp.expansion import temperedness_curve_at
from randhyp.splitting import finite_time_bundles

LOG2 = math.log(2)
LOG6_HALF = math.log(6) / 2
FLOOR = math.log(2 - 0.2 * math.pi)
CAT_RATE = math.log((3 + math.sqrt(5)) / 2)

ALL_FAMILIES = [
    ("doubling", {}),
    ("perturbed-doubling", {"eps_max": 0.1}),
    ("bernoulli-linear", {"values": [2, 3]}),
    ("diagonal-cocycle", {"a_values": [2, 4], "b_values": [3, 3]}),
    ("random-cat", {}),
]


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num}: FAIL - {desc}")
        raise
    print(f"[acceptance] criterion {num}: PASS - {desc}")


def bern_spec():
    return rh.BaseSystemSpec.bernoulli([0.5, 0.5])


def test_criterion_1_cocycle_identity_suite():
    with criterion(1, "cocycle chain rule and telescoping on all families"):
        spec = bern_spec()
        for name, params in ALL_FAMILIES:
            fam = rh.make_family(name, params)
            rng = np.random.default_rng(1)
            for i in range(200):
                w = rh.sample_base(spec, 1000 + i, 1)[0]
                x = rh.point(*rng.random(fam.manifold_dim))
                n = int(rng.integers(1, 15))
                k = int(rng.integers(1, 30 - n))
                full = rh.cocycle_product(fam, w, x, n + k)
                first = rh.cocycle_product(fam, w, x, n)
                mid_x = rh.iterate(fam, w, x, n)[-1]
                mid_w = w
                for _ in range(n):
                    mid_w = base_step(mid_w)
                second = rh.cocycle_product(fam, mid_w, mid_x, k)
                combined = second @ first
                rel = np.max(np.abs(combined - full) / (np.abs(full) + 1e-300))
                assert rel < 1e-9

                v = rng.normal(size=fam.manifold_dim)
                v /= np.linalg.norm(v)
                p = rh.unit_tangent(w, x, v)
                s = rh.birkhoff_sum_phi(fam, p, n + k)
                direct = math.log(np.linalg.norm(full @ v))
                assert abs(s - direct) < 1e-9 * (n + k)


def test_criterion_2_exact_system_golden_values():
    with criterion(2, "doubling exact at 1e-12; bernoulli-linear within 0.02"):
        dirac = rh.BaseSystemSpec.dirac()
        doubling = rh.make_family("doubling")
        w = rh.sample_base(dirac, 1, 1)[0]
        p = rh.unit_tangent(w, rh.point(0.37), (1.0,))
        assert abs(rh.top_exponent(doubling, p, 1000).value - LOG2) < 1e-12
        rate = rh.uniform_rate_estimate(doubling, dirac, 1, samples=3, n_max=1000)
        assert abs(rate.a_estimate - LOG2) < 1e-12
        lam_rep = rh.lambda_estimate(doubling, dirac, 1, rate)
        assert abs(lam_rep.lambda_estimate - LOG2) < 1e-12
        c = rh.tempered_constant(doubling, w, LOG2, 50)
        assert abs(c.value - 1.0) < 1e-12

        spec = bern_spec()
        bl = rh.make_family("bernoulli-linear", {"values": [2, 3]})
        n = 100_000
        exps = []
        for w in rh.sample_base(spec, 2024, 50):
            pt = rh.unit_tangent(w, rh.point(0.1), (1.0,))
            exps.append(rh.top_exponent(bl, pt, n).value)
        assert abs(np.mean(exps) - LOG6_HALF) < 0.02
        rate = rh.uniform_rate_estimate(bl, spec, 2024, samples=50, n_max=n,
                                        grid_size=1)
        assert abs(rate.a_estimate - LOG6_HALF) < 0.02
        lam_rep = rh.lambda_estimate(bl, spec, 2024, rate)
        assert abs(lam_rep.lambda_estimate - LOG6_HALF) < 0.02


def test_criterion_3_supadditivity():
    with criterion(3, "perturbed-doubling supadditivity residuals >= -1e-6"):
        fam = rh.make_family("perturbed-doubling", {"eps_max": 0.1})
        spec = bern_spec()
        worst = math.inf
        for seed in range(20):
            w = rh.sample_base(spec, seed, 1)[0]
            rep = rh.supadditivity_residuals(fam, w, N=12, grid_size=8192)
            worst = min(worst, rep.min_residual)
        assert worst >= -1e-6


def test_criterion_4_rate_equals_minimum_average():
    with criterion(4, "perturbed-doubling |A - Lambda| < 0.05, both in bracket"):
        fam = rh.make_family("perturbed-doubling", {"eps_max": 0.1})
        spec = bern_spec()
        rate = rh.uniform_rate_estimate(fam, spec, 11, samples=20, n_max=12,
                                        grid_size=8192)
        lam_rep = rh.lambda_estimate(fam, spec, 11, rate)
        assert abs(rate.a_estimate - lam_rep.lambda_estimate) < 0.05
        assert FLOOR <= rate.a_estimate <= LOG2
        assert FLOOR <= lam_rep.lambda_estimate <= LOG2


def test_criterion_5_temperedness():
    with criterion(5, "bernoulli-linear temperedness and constant recursion bound"):
        spec = bern_spec()
        fam = rh.make_family("bernoulli-linear", {"values": [2, 3]})
        lam = 0.6
        n_max, depth = 10_000, 50
        last_vals = []
        for seed in range(20):
            w = rh.sample_base(spec, seed, 1)[0]
            curve = temperedness_curve_at(fam, w, lam, n_max, depth)
            last_vals.append(curve.last())

            # recursion bound on every sample (and along a stretch of its
            # orbit): log C(Tw) - log C(w) <= log max(d(Tw), e^lam) - log d(w)
            syms = symbol_window(w, 0, 52)
            state = w
            c_cur = rh.tempered_constant(fam, state, lam, depth)
            for k in range(50):
                nxt = base_step(state)
                c_next = rh.tempered_constant(fam, nxt, lam, depth)
                d_cur = [2.0, 3.0][syms[k]]
                d_next = [2.0, 3.0][syms[k + 1]]
                lhs = c_next.log_value - c_cur.log_value
                rhs = math.log(max(d_next, math.exp(lam))) - math.log(d_cur)
                assert lhs <= rhs + 1e-12
                state, c_cur = nxt, c_next
        assert abs(np.mean(last_vals)) < 0.02


def test_criterion_6_oseledets_spectrum():
    with criterion(6, "cat spectrum within 1e-3; sum rule 1e-8 on all families"):
        dirac = rh.BaseSystemSpec.dirac()
        cat = rh.make_family("random-cat", {"matrices": [[[2, 1], [1, 1]]]})
        w = rh.sample_base(dirac, 1, 1)[0]
        est = rh.oseledets_spectrum(cat, w, rh.point(0.3, 0.4), 1000)
        assert abs(est.exponents[0] + CAT_RATE) < 1e-3
        assert abs(est.exponents[1] - CAT_RATE) < 1e-3

        spec = bern_spec()
        for name, params in ALL_FAMILIES:
            fam = rh.make_family(name, params)
            w = rh.sample_base(spec, 33, 1)[0]
            x = rh.point(*(0.3,) * fam.manifold_dim)
            n = 300
            est = rh.oseledets_spectrum(fam, w, x, n)
            state, y = w, x
            logdet = 0.0
            for _ in range(n):
                jac = rh.fiber_derivative(fam, state, y)
                logdet += math.log(abs(np.linalg.det(jac)))
                y = rh.ManifoldPoint(fam.apply_at(fam.param_at(state), y.coords))
                state = base_step(state)
            assert abs(sum(est.exponents) - logdet / n) < 1e-8


def test_criterion_7_hyperbolicity_certificate():
    with criterion(7, "random-cat splitting certified at acceptance scale"):
        spec = bern_spec()
        fam = rh.make_family("random-cat")
        cert = rh.hyperbolicity_certificate(fam, spec, 13, samples=50,
                                            horizon=50, n=10_000)
        assert cert.verdict == "certified"
        assert cert.invariance_residual_max < 1e-6
        for rec in cert.details["per_sample"]:
            tol = 3 * (rec["rate2_se"] + rec["top_se"])
            assert abs(rec["rate2"] - rec["top_exponent"]) <= tol

        def angle_between(u, v):
            u = np.asarray(u) / np.linalg.norm(u)
            v = np.asarray(v) / np.linalg.norm(v)
            return math.acos(min(1.0, abs(float(u @ v))))

        for i, w in enumerate(rh.sample_base(spec, 13, 50)):
            x = rh.point(0.2, 0.7)
            p40 = finite_time_bundles(fam, w, x, 40)
            p60 = finite_time_bundles(fam, w, x, 60)
            assert angle_between(p40.gamma2, p60.gamma2) < 1e-6
            assert angle_between(p40.gamma1, p60.gamma1) < 1e-6


def test_criterion_8_corollary_check():
    with criterion(8, "mean log rate: {2,3} positive, {1/2,2} inconclusive"):
        spec = bern_spec()
        expanding = rh.make_family("bernoulli-linear", {"values": [2, 3]})
        a_est = rh.uniform_rate_estimate(expanding, spec, 17, 20, 10, 1).a_estimate
        rep = rh.variable_rate_corollary(expanding, spec, 17, 1000, a_est)
        assert rep.verdict == "positive"
        assert rep.lambda_const > 0

        symmetric = rh.make_family("bernoulli-linear", {"values": [0.5, 2.0]})
        a_est = rh.uniform_rate_estimate(symmetric, spec, 17, 20, 10, 1).a_estimate
        rep = rh.variable_rate_corollary(symmetric, spec, 17, 1000, a_est)
        assert rep.verdict == "inconclusive"
        assert abs(rep.estimate) <= 3 * rep.std_err


def test_criterion_9_determinism():
    with criterion(9, "byte-identical payloads across reruns and thread counts"):
        cfg_dict = {
            "task": "full-pipeline",
            "seed": 9,
            "base": {"kind": "bernoulli", "alphabet_size": 2,
                     "probabilities": [0.5, 0.5]},
            "fiber": {"family": "bernoulli-linear", "params": {"values": [2, 3]}},
            "task_params": {"samples": 8, "n": 1000, "n_max": 10,
                            "grid_size": 64, "curve_n_max": 2000},
        }
        cfg = rh.parse_config(json.dumps(cfg_dict))
        runs = [rh.run_task(cfg, threads=t) for t in (1, 1, 8)]
        blobs = {r.payload_bytes() for r in runs}
        assert len(blobs) == 1

        cfg2_dict = dict(cfg_dict)
        cfg2_dict["task"] = "full-pipeline"
        cfg2_dict["fiber"] = {"family": "random-cat"}
        cfg2_dict["task_params"] = {"samples": 4, "n": 400, "n_max": 8,
                                    "grid_size": 64, "horizon": 30,
                                    "curve_n_max": 500}
        cfg2 = rh.parse_config(json.dumps(cfg2_dict))
        runs2 = [rh.run_task(cfg2, threads=t) for t in (1, 8)]
        assert runs2[0].payload_bytes() == runs2[1].payload_bytes()
