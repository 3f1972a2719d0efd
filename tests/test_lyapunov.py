import math

import numpy as np
import pytest

from randhyp import (BaseSystemSpec, ContractError, cocycle_product, make_family,
                     exponent_positivity_report, fiber_derivative,
                     oseledets_spectrum, point, sample_base, top_exponent,
                     unit_tangent)
from randhyp.base import random_point
from randhyp.fibers import ManifoldPoint

CAT_RATE = math.log((3 + math.sqrt(5)) / 2)


def dirac():
    return sample_base(BaseSystemSpec.dirac(), 0, 1)[0]


def test_doubling_exponent_exact():
    fam = make_family("doubling")
    p = unit_tangent(dirac(), point(0.37), (1.0,))
    est = top_exponent(fam, p, 1000)
    assert est.value == pytest.approx(math.log(2), abs=1e-12)
    assert est.batch_std_err == 0.0
    assert est.n == 1000


@pytest.mark.parametrize("batches", [1, 2, 7, 20])
def test_batch_stats_of_a_stack_equal_the_row_calls(batches):
    # the splitting certificate reduces every sample's three growths in one
    # call, cut at the batch ends by a fancy index (which leaves the batch
    # axis outermost in memory); each row must read as its own 1-d call
    import warnings
    from randhyp.lyapunov import _batch_stats
    rng = np.random.default_rng(batches)
    growth = np.cumsum(rng.normal(1.1, 0.05, (5, 3, 3 * batches)) * 50, axis=-1)
    for stack in (growth[:, :, 2::3], growth[:, :, np.arange(2, 3 * batches, 3)]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            means, ses = _batch_stats(stack, 50)
        want = [[_batch_stats(row.copy(), 50) for row in sample] for sample in stack]
        assert repr((means, ses)) == repr(([[m for m, _ in s] for s in want],
                                           [[se for _, se in s] for s in want]))
        if batches == 1:
            assert ses == [[0.0] * 3] * 5


def test_bernoulli_linear_exponent():
    spec = BaseSystemSpec.bernoulli([0.5, 0.5])
    fam = make_family("bernoulli-linear", {"values": [2, 3]})
    w = sample_base(spec, 42, 1)[0]
    p = unit_tangent(w, point(0.1), (1.0,))
    est = top_exponent(fam, p, 100_000)
    assert est.value == pytest.approx(math.log(6) / 2, abs=0.01)
    # oracle: count the symbols directly
    from randhyp.base import symbol_window
    syms = symbol_window(w, 0, est.n)
    oracle = np.where(syms == 0, math.log(2), math.log(3)).mean()
    assert est.value == pytest.approx(oracle, abs=1e-12)


def test_diagonal_invariant_axis():
    fam = make_family("diagonal-cocycle", {"a_values": [2.0], "b_values": [3.0]})
    p = unit_tangent(dirac(), point(0.1, 0.2), (1.0, 0.0))
    est = top_exponent(fam, p, 500)
    assert est.value == pytest.approx(math.log(2), abs=1e-12)


def test_cat_spectrum_golden():
    fam = make_family("random-cat", {"matrices": [[[2, 1], [1, 1]]]})
    est = oseledets_spectrum(fam, dirac(), point(0.3, 0.4), 1000)
    assert est.exponents[0] == pytest.approx(-CAT_RATE, abs=1e-3)
    assert est.exponents[1] == pytest.approx(CAT_RATE, abs=1e-3)
    assert est.exponents[0] <= est.exponents[1]


def test_diagonal_spectrum_exact():
    fam = make_family("diagonal-cocycle", {"a_values": [2.0], "b_values": [3.0]})
    est = oseledets_spectrum(fam, dirac(), point(0.0, 0.0), 200)
    assert est.exponents == pytest.approx((math.log(2), math.log(3)), abs=1e-9)


def test_random_diagonal_spectrum_with_oracle():
    # means: a in {2,4} -> (log2+log4)/2 = 1.039721, b = 3 -> log3 = 1.098612
    spec = BaseSystemSpec.bernoulli([0.5, 0.5])
    fam = make_family("diagonal-cocycle", {"a_values": [2, 4], "b_values": [3, 3]})
    w = sample_base(spec, 8, 1)[0]
    n = 100_000
    est = oseledets_spectrum(fam, w, point(0.0, 0.0), n)
    # brute-force oracle: the product of diagonal matrices is diagonal with
    # entry products, so the exponents are symbol-count means
    from randhyp.base import symbol_window
    syms = symbol_window(w, 0, n)
    mean_a = np.where(syms == 0, math.log(2), math.log(4)).mean()
    mean_b = math.log(3)
    expected = tuple(sorted((mean_a, mean_b)))
    assert est.exponents == pytest.approx(expected, abs=1e-9)
    assert est.exponents == pytest.approx((1.039721, 1.098612), abs=0.01)


def test_spectrum_sum_rule_all_families():
    spec = BaseSystemSpec.bernoulli([0.5, 0.5])
    families = [
        make_family("doubling"),
        make_family("perturbed-doubling", {"eps_max": 0.1}),
        make_family("bernoulli-linear", {"values": [2, 3]}),
        make_family("diagonal-cocycle", {"a_values": [2, 4], "b_values": [3, 3]}),
        make_family("random-cat"),
    ]
    from randhyp.base import base_step
    for fam in families:
        w = sample_base(spec, 77, 1)[0]
        x = ManifoldPoint(random_point(77, 0, fam.manifold_dim))
        n = 300
        est = oseledets_spectrum(fam, w, x, n)
        state, y = w, x
        logdet = 0.0
        for _ in range(n):
            jac = fiber_derivative(fam, state, y)
            logdet += math.log(abs(np.linalg.det(jac)))
            y = ManifoldPoint(fam.apply_at(fam.param_at(state), y.coords))
            state = base_step(state)
        assert sum(est.exponents) * n == pytest.approx(logdet, abs=1e-8 * n)


def test_renormalized_matches_raw_product():
    spec = BaseSystemSpec.bernoulli([0.5, 0.5])
    fam = make_family("random-cat")
    w = sample_base(spec, 4, 1)[0]
    x = point(0.3, 0.1)
    v = (0.6, 0.8)
    p = unit_tangent(w, x, v)
    for n in (5, 17, 30):
        est = top_exponent(fam, p, n, batches=1)
        raw = math.log(np.linalg.norm(cocycle_product(fam, w, x, n) @ v)) / n
        assert est.value == pytest.approx(raw, abs=1e-9)


def test_vector_independence_linear_hyperbolic():
    spec = BaseSystemSpec.bernoulli([0.5, 0.5])
    fam = make_family("random-cat")
    w = sample_base(spec, 6, 1)[0]
    x = point(0.4, 0.9)
    e1 = top_exponent(fam, unit_tangent(w, x, (0.6, 0.8)), 20_000)
    e2 = top_exponent(fam, unit_tangent(w, x, (-0.28, 0.96)), 20_000)
    tol = 2 * (e1.batch_std_err + e2.batch_std_err)
    assert abs(e1.value - e2.value) <= tol + 1e-6


def test_bottom_below_top():
    spec = BaseSystemSpec.bernoulli([0.5, 0.5])
    fam = make_family("random-cat")
    w = sample_base(spec, 9, 1)[0]
    x = point(0.2, 0.7)
    spectrum = oseledets_spectrum(fam, w, x, 2000)
    top = top_exponent(fam, unit_tangent(w, x, (1.0, 0.0)), 2000)
    assert spectrum.exponents[0] <= top.value + 1e-6


def test_positivity_report_doubling():
    spec = BaseSystemSpec.dirac()
    fam = make_family("doubling")
    rep = exponent_positivity_report(fam, spec, 3, samples=100, n=500)
    assert rep["min_exponent"] == pytest.approx(math.log(2), abs=1e-12)
    assert rep["fraction_positive"] == 1.0
    assert len(rep["per_sample"]) == 100


def test_positivity_report_perturbed_doubling():
    spec = BaseSystemSpec.bernoulli([0.5, 0.5])
    fam = make_family("perturbed-doubling", {"eps_max": 0.1})
    rep = exponent_positivity_report(fam, spec, 5, samples=100, n=10_000)
    assert rep["min_exponent"] >= math.log(2 - 0.2 * math.pi) - 1e-12
    assert rep["fraction_positive"] == 1.0


def test_positivity_report_random_cat():
    spec = BaseSystemSpec.bernoulli([0.5, 0.5])
    fam = make_family("random-cat")
    rep = exponent_positivity_report(fam, spec, 7, samples=100, n=1000)
    # products of positive hyperbolic matrices: top exponent positive always
    assert all(rec["exponents"][-1] > 0 for rec in rep["per_sample"])
    frac_top = np.mean([rec["exponents"][-1] > 0 for rec in rep["per_sample"]])
    assert frac_top == 1.0


def test_argmin_sample_ignores_last_ulp_ties(monkeypatch):
    # sample 1 sits one ulp below samples 0 and 2: within the tie tolerance,
    # so the first sample is reported; min_exponent stays the true minimum
    import randhyp.lyapunov as ly
    low = 0.25
    values = [low, np.nextafter(low, 0.0), low]

    def fake_spectrum(family, omega, x, n):
        return ly.SpectrumEstimate(exponents=(values.pop(0), 1.0), n=n)

    monkeypatch.setattr(ly, "oseledets_spectrum", fake_spectrum)
    rep = exponent_positivity_report(make_family("random-cat"),
                                     BaseSystemSpec.bernoulli([0.5, 0.5]),
                                     5, samples=3, n=10)
    assert rep["argmin_sample"] == 0
    assert rep["min_exponent"] == np.nextafter(low, 0.0)


@pytest.mark.parametrize("n, batches", [(5, 10), (5, 0)])
def test_top_exponent_needs_n_at_least_batches(n, batches):
    # fewer steps than batches leaves a batch empty, and no batch has no mean
    p = unit_tangent(dirac(), point(0.37), (1.0,))
    with pytest.raises(ContractError, match="^need n >= batches >= 1$"):
        top_exponent(make_family("doubling"), p, n, batches)
