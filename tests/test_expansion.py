import math

import numpy as np
import pytest

from randhyp import (BaseSystemSpec, ConfigurationError, ContractError,
                     birkhoff_sum_phi, cocycle_product, exponent_positivity_report,
                     finite_time_bundles, hyperbolicity_certificate, iterate,
                     make_family, min_log_expansion, oseledets_spectrum, point,
                     sample_base, supadditivity_residuals, symbol_at,
                     tempered_constant, uniform_rate_estimate, unit_tangent,
                     variable_rate_corollary, build_expansion_certificate,
                     min_expansion_table)
from randhyp.base import base_step, periodic_state, shift_by, symbol_rows, symbol_window
from randhyp.cocycle import orbit_log_stretches
from randhyp.splitting import bundle_rates
from randhyp.expansion import (certified_depth, lipschitz_slack,
                               min_expansion_sweep, one_step_min_expansions,
                               temperedness_curve_at)
import randhyp.expansion as expansion
from randhyp.fibers import PerturbedDoubling, param_windows

LOG2 = math.log(2)
FLOOR = math.log(2 - 0.2 * math.pi)


def dirac():
    return sample_base(BaseSystemSpec.dirac(), 0, 1)[0]


def bern_spec():
    return BaseSystemSpec.bernoulli([0.5, 0.5])


def test_doubling_min_expansion_exact():
    fam = make_family("doubling")
    for n in (1, 5, 12):
        lo, up = min_log_expansion(fam, dirac(), n)
        assert lo == up == pytest.approx(n * LOG2, abs=1e-12)


def test_bernoulli_linear_min_expansion():
    fam = make_family("bernoulli-linear", {"values": [2, 3]})
    w = sample_base(bern_spec(), 31, 1)[0]
    lo, up = min_log_expansion(fam, w, 3, grid_size=1)
    syms = symbol_window(w, 0, 3)
    expected = sum(math.log((2, 3)[s]) for s in syms)
    assert lo == up == pytest.approx(expected, abs=1e-12)


def test_perturbed_one_step_grid_vs_analytic():
    fam = make_family("perturbed-doubling", {"eps_max": 0.1})
    ws = sample_base(bern_spec(), 3, 8)
    w = next(w for w in ws if symbol_at(w, 0) == 1)  # eps = 0.1
    lo, up = min_log_expansion(fam, w, 1, grid_size=4096)
    assert up == pytest.approx(FLOOR, abs=1e-6)
    assert lo <= FLOOR <= up + 1e-15
    assert up - lo <= lipschitz_slack(fam, 1, 4096) + 1e-15


def test_perturbed_bracket_contains_brute_force():
    # brute-force oracle on a 10^6 grid for small n
    fam = make_family("perturbed-doubling", {"eps_max": 0.1})
    w = sample_base(bern_spec(), 17, 1)[0]
    for n in (1, 3, 6):
        lo, up = min_log_expansion(fam, w, n, grid_size=4096)
        xs = np.arange(1_000_000) / 1_000_000
        acc = np.zeros_like(xs)
        state = w
        for _ in range(n):
            eps = fam.param_at(state)
            acc += np.log(fam.deriv(eps, xs, np))
            xs = fam.apply(eps, xs, np)
            state = base_step(state)
        brute = float(acc.min())
        assert lo - 1e-12 <= brute <= up + 1e-12


def test_matrix_family_min_is_sigma_min():
    fam = make_family("random-cat")
    w = sample_base(bern_spec(), 5, 1)[0]
    lo, up = min_log_expansion(fam, w, 4)
    idx = fam.params_along([w], 4)[0]
    prod = np.eye(2)
    for j in idx:
        prod = fam.matrices[j] @ prod
    sigma_min = np.linalg.svd(prod, compute_uv=False)[-1]
    assert lo == up == pytest.approx(math.log(sigma_min), abs=1e-9)


def test_supadditivity_doubling_exact_zero():
    # zero up to accumulated ulps: every A_n is exactly n log 2
    fam = make_family("doubling")
    rep = supadditivity_residuals(fam, dirac(), N=10)
    assert all(abs(r) <= 1e-13 for (_, _, r) in rep.residuals)
    assert abs(rep.min_residual) <= 1e-13


def test_supadditivity_bernoulli_linear():
    fam = make_family("bernoulli-linear", {"values": [2, 3]})
    w = sample_base(bern_spec(), 23, 1)[0]
    rep = supadditivity_residuals(fam, w, N=12, grid_size=1)
    assert abs(rep.min_residual) <= 1e-12


def test_supadditivity_perturbed():
    fam = make_family("perturbed-doubling", {"eps_max": 0.1})
    w = sample_base(bern_spec(), 29, 1)[0]
    rep = supadditivity_residuals(fam, w, N=12, grid_size=8192)
    assert rep.min_residual >= -1e-6
    # table covers all pairs n+m <= N
    assert len(rep.residuals) == sum(1 for n in range(1, 12)
                                     for m in range(1, 12 - n + 1))


def test_uniform_rate_doubling():
    fam = make_family("doubling")
    est = uniform_rate_estimate(fam, BaseSystemSpec.dirac(), 1, samples=3, n_max=10)
    assert est.a_estimate == pytest.approx(LOG2, abs=1e-12)
    for (_, u, _) in est.trend:
        assert u == pytest.approx(LOG2, abs=1e-12)


def test_uniform_rate_bernoulli_linear():
    fam = make_family("bernoulli-linear", {"values": [2, 3]})
    est = uniform_rate_estimate(fam, bern_spec(), 2, samples=50, n_max=1000,
                                grid_size=1)
    assert est.a_estimate == pytest.approx(math.log(6) / 2, abs=0.02)


def test_uniform_rate_perturbed_bracket_and_trend():
    # every trend value is pinched by the pointwise derivative bounds; the
    # monotone climb toward A is the supadditivity residual test's job
    fam = make_family("perturbed-doubling", {"eps_max": 0.1})
    est = uniform_rate_estimate(fam, bern_spec(), 3, samples=10, n_max=12,
                                grid_size=8192)
    assert FLOOR <= est.a_estimate <= LOG2
    for (_, u, _) in est.trend:
        assert FLOOR - 1e-12 <= u <= LOG2 + 1e-12


def test_tempered_constant_doubling():
    fam = make_family("doubling")
    c = tempered_constant(fam, dirac(), 0.5 * LOG2, 20)
    assert c.value == pytest.approx(math.sqrt(2), abs=1e-12)
    assert c.attained_n == 1
    c_eq = tempered_constant(fam, dirac(), LOG2, 50)
    assert c_eq.value == pytest.approx(1.0, abs=1e-12)


def test_tempered_constant_monotone_in_depth():
    fam = make_family("bernoulli-linear", {"values": [2, 3]})
    w = sample_base(bern_spec(), 37, 1)[0]
    values = [tempered_constant(fam, w, 0.6, d).value for d in (1, 5, 20, 50)]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-15
    assert values[-1] > 0.0


def test_tempered_constant_finite_evaluation_oracle():
    fam = make_family("bernoulli-linear", {"values": [2, 3]})
    w = sample_base(bern_spec(), 41, 1)[0]
    c = tempered_constant(fam, w, 0.6, 30)
    syms = symbol_window(w, 0, 30)
    terms = []
    acc = 0.0
    for n, s in enumerate(syms, start=1):
        acc += math.log((2, 3)[s])
        terms.append(math.exp(acc - 0.6 * n))
    assert c.value == pytest.approx(min(terms), rel=1e-12)


def test_tempered_constant_validation():
    fam = make_family("doubling")
    with pytest.raises(ConfigurationError):
        tempered_constant(fam, dirac(), -0.1, 10)
    with pytest.raises(ConfigurationError):
        tempered_constant(fam, dirac(), 0.8, 10, a_estimate=LOG2)


def test_temperedness_curve_doubling_analytic():
    fam = make_family("doubling")
    curve = temperedness_curve_at(fam, dirac(), lam=0.5 * LOG2, n_max=200, depth=20)
    # C is constant along the one-point base, so the curve is log(sqrt 2)/n
    expected = 0.5 * LOG2 / curve.ns
    assert np.allclose(curve.values, expected, atol=1e-12)


def test_temperedness_curve_bernoulli_linear():
    fam = make_family("bernoulli-linear", {"values": [2, 3]})
    vals = []
    for seed in range(20):
        curve = temperedness_curve_at(fam, sample_base(bern_spec(), seed, 1)[0],
                                      lam=0.6, n_max=10_000, depth=50)
        vals.append(curve.last())
    assert abs(np.mean(vals)) < 0.02
    # no exponential drift: value at 2n within |value at n| + 0.01
    assert abs(curve.values[-1]) <= abs(curve.values[4999]) + 0.01


def test_curve_matches_direct_constant():
    # the vectorized sliding-window path equals the direct computation
    fam = make_family("bernoulli-linear", {"values": [2, 3]})
    w = sample_base(bern_spec(), 53, 1)[0]
    from randhyp.expansion import temperedness_curve_at
    curve = temperedness_curve_at(fam, w, 0.6, 30, depth=10)
    state = base_step(w)
    for i, n in enumerate(curve.ns):
        direct = tempered_constant(fam, state, 0.6, 10).log_value / n
        assert curve.values[i] == pytest.approx(direct, abs=1e-12)
        state = base_step(state)


@pytest.mark.parametrize("name", ["bernoulli-linear", "perturbed-doubling"])
def test_curve_checks_lambda_and_depth_on_both_paths(name):
    # bernoulli-linear takes the sliding-window path, perturbed doubling the
    # sweep: both refuse a rate or a depth that no constant has
    from randhyp import ContractError
    from randhyp.expansion import temperedness_curve_at
    fam = make_family(name)
    w = sample_base(bern_spec(), 7, 1)[0]
    for lam in (-1.0, 0.0):
        with pytest.raises(ConfigurationError, match="lambda must be positive"):
            temperedness_curve_at(fam, w, lam, 8, depth=4, grid_size=64)
    with pytest.raises(ContractError, match="depth must be >= 1"):
        temperedness_curve_at(fam, w, 0.1, 8, depth=0, grid_size=64)


def test_recursion_bound_attained_beyond_first():
    # with lambda between log2 and log3 the infimum can move past n = 1,
    # exercising C(w) >= C(Tw) e^{-lam} D_1(w)
    fam = make_family("bernoulli-linear", {"values": [2, 3]})
    lam = 0.8
    hit = 0
    for seed in range(40):
        w = sample_base(bern_spec(), seed, 1)[0]
        c_w = tempered_constant(fam, w, lam, 50)
        c_tw = tempered_constant(fam, base_step(w), lam, 50)
        d1, d1_tw = one_step_min_expansions(fam, [w, base_step(w)])
        if c_w.attained_n >= 2:
            hit += 1
            assert c_w.log_value >= (c_tw.log_value - lam + math.log(d1)) - 1e-12
        # combined bound holds in every case
        lhs = c_tw.log_value - c_w.log_value
        rhs = math.log(max(d1_tw, math.exp(lam))) \
            - math.log(d1)
        assert lhs <= rhs + 1e-12
    assert hit > 0


def test_corollary_positive_for_two_three():
    fam = make_family("bernoulli-linear", {"values": [2, 3]})
    a_est = uniform_rate_estimate(fam, bern_spec(), 11, 20, 10, 1).a_estimate
    rep = variable_rate_corollary(fam, bern_spec(), 11, 400, a_est)
    assert rep.verdict == "positive"
    assert rep.estimate == pytest.approx(math.log(6) / 2, abs=0.1)
    assert rep.lambda_const > 0


def test_corollary_inconclusive_for_symmetric_rates():
    fam = make_family("bernoulli-linear", {"values": [0.5, 2.0]})
    a_est = uniform_rate_estimate(fam, bern_spec(), 11, 20, 10, 1).a_estimate
    rep = variable_rate_corollary(fam, bern_spec(), 11, 1000, a_est)
    assert rep.verdict == "inconclusive"
    assert abs(rep.estimate) <= 3 * rep.std_err


def test_corollary_doubling():
    fam = make_family("doubling")
    a_est = uniform_rate_estimate(fam, BaseSystemSpec.dirac(), 1, 10, 10).a_estimate
    rep = variable_rate_corollary(fam, BaseSystemSpec.dirac(), 1, 10, a_est)
    assert rep.verdict == "positive"
    assert rep.estimate == pytest.approx(LOG2, abs=1e-12)


def test_certificate_doubling_certified():
    fam = make_family("doubling")
    cert = build_expansion_certificate(fam, BaseSystemSpec.dirac(), 1,
                                       samples=3, n_max=10, curve_n_max=500)
    assert cert.verdict == "certified-expanding"
    assert cert.a_estimate == pytest.approx(LOG2, abs=1e-12)
    assert cert.lam == pytest.approx(0.5 * LOG2, abs=1e-12)
    assert all(c > 0 for (_, c, _, _) in cert.c_samples)
    assert cert.supadditivity_min_residual >= -1e-9


def test_certificate_marginal_family_inconclusive():
    fam = make_family("bernoulli-linear", {"values": [0.5, 2.0]})
    cert = build_expansion_certificate(fam, bern_spec(), 3, samples=20,
                                       n_max=12, grid_size=1, curve_n_max=500)
    assert cert.verdict == "inconclusive"


class NoSlackDoubling(PerturbedDoubling):
    """Perturbed doubling that claims x -> log|D_x phi| is constant."""

    def __init__(self):
        super().__init__(0.1)
        self.log_deriv_lipschitz = 0.0


def test_certificate_violated_by_an_unsound_lipschitz_bound():
    # with no Lipschitz slack the lower brackets are grid minima, which can
    # exceed A_n, so upper(A_{n+m}) - lower(A_n) - lower(A_m) goes negative
    kw = {"samples": 20, "n_max": 12, "grid_size": 64}
    cert = build_expansion_certificate(NoSlackDoubling(), bern_spec(), 7, **kw)
    assert cert.verdict == "violated"
    assert cert.supadditivity_min_residual == pytest.approx(-0.122, abs=1e-3)
    honest = build_expansion_certificate(PerturbedDoubling(0.1), bern_spec(), 7, **kw)
    assert honest.verdict == "certified-expanding"
    assert honest.supadditivity_min_residual == pytest.approx(0.045, abs=1e-3)


def test_certificate_lambda_validation():
    fam = make_family("doubling")
    with pytest.raises(ConfigurationError):
        build_expansion_certificate(fam, BaseSystemSpec.dirac(), 1, samples=2,
                                    n_max=6, lam=5.0, curve_n_max=100)


def test_certified_depth_limits_slack():
    fam = make_family("perturbed-doubling", {"eps_max": 0.1})
    d = certified_depth(fam, 8192, 50)
    assert 1 <= d <= 50
    assert lipschitz_slack(fam, d, 8192) <= 0.1
    assert lipschitz_slack(fam, d + 1, 8192) > 0.1
    assert certified_depth(fam, 8192, 3) == min(d, 3)
    exact = make_family("doubling")
    assert certified_depth(exact, 8192, 50) == 50
    assert certified_depth(exact, 8192, 80) == 80


def test_long_horizon_lower_bracket_is_vacuous_not_an_overflow():
    # (sup |Dphi|)^n overflows a float near n = 735 for eps_max 0.1
    fam = make_family("perturbed-doubling", {"eps_max": 0.1})
    assert lipschitz_slack(fam, 800, 64) == math.inf
    sweep = min_expansion_sweep(fam, dirac(), 800, 64)
    assert np.isfinite(sweep.uppers).all()
    assert sweep.lowers[-1] == -math.inf
    assert certified_depth(fam, 64, 800) < 800


def test_min_expansion_table_rows():
    fam = make_family("perturbed-doubling", {"eps_max": 0.1})
    w = sample_base(bern_spec(), 3, 1)[0]
    table = min_expansion_table(fam, w, 6, grid_size=4096)
    assert len(table.rows) == 6
    for (n, lo, up) in table.rows:
        assert lo <= up
        assert up - lo <= table.slack + 1e-15


def test_ordering_chain_perturbed():
    # sampled exponents dominate the uniform rate estimate
    fam = make_family("perturbed-doubling", {"eps_max": 0.1})
    spec = bern_spec()
    rate = uniform_rate_estimate(fam, spec, 7, samples=10, n_max=12,
                                 grid_size=4096)
    from randhyp import exponent_positivity_report
    rep = exponent_positivity_report(fam, spec, 7, samples=20, n=5000)
    assert rep["min_exponent"] >= rate.a_estimate - 0.05


@pytest.mark.parametrize("seed", [8, 10])
def test_single_sample_certificate_is_inconclusive(seed):
    # mean log rate (log 0.8 + log 1.2) / 2 < 0; one sample has no error
    # bar, so a lucky draw must not certify
    fam = make_family("bernoulli-linear", {"values": [0.8, 1.2]})
    cert = build_expansion_certificate(fam, bern_spec(), seed, samples=1)
    assert cert.a_estimate > 0.0
    assert cert.verdict == "inconclusive"


def test_single_sample_corollary_is_inconclusive():
    fam = make_family("bernoulli-linear", {"values": [0.8, 1.2]})
    a_est = uniform_rate_estimate(fam, bern_spec(), 10, 1, 10).a_estimate
    rep = variable_rate_corollary(fam, bern_spec(), 10, 1, a_est)
    assert rep.estimate == pytest.approx(math.log(1.2), abs=1e-15)
    assert rep.verdict == "inconclusive"


TWO_DIAGONALS = {"a_values": [2.0, 1.5], "b_values": [3.0, 4.0]}


@pytest.mark.parametrize("name, params, spec", [
    ("perturbed-doubling", None, bern_spec()),
    ("perturbed-doubling", None, BaseSystemSpec.markov([[0.9, 0.1], [0.3, 0.7]])),
    ("perturbed-doubling", None, BaseSystemSpec.rotation(0.6180339887498949)),
    ("perturbed-doubling", None, BaseSystemSpec.dirac()),
    ("diagonal-cocycle", TWO_DIAGONALS, bern_spec()),
])
def test_certificate_constants_match_per_position_sweeps(name, params, spec):
    fam = make_family(name, params)
    samples, curve_n_max, grid = 3, 12, 256
    cert = build_expansion_certificate(fam, spec, 5, samples=samples, n_max=6,
                                       grid_size=grid, depth=5,
                                       curve_n_max=curve_n_max,
                                       supadd_samples=1, supadd_N=4)
    assert cert.lam is not None
    depth = cert.details["depth"]
    omegas = sample_base(spec, 5, samples)
    ns = np.arange(1, curve_n_max + 1)
    curves = [np.array([tempered_constant(fam, shift_by(w, k), cert.lam, depth,
                                          grid_size=grid).log_value
                        for k in ns]) / ns
              for w in omegas]
    expected = np.mean(np.stack(curves), axis=0)
    assert cert.temperedness_curve.values.tobytes() == expected.tobytes()
    cs = [tempered_constant(fam, w, cert.lam, depth, a_estimate=cert.a_estimate,
                            grid_size=grid) for w in omegas]
    assert cert.c_samples == tuple((w.describe(), c.value, c.log_value,
                                    c.attained_n) for w, c in zip(omegas, cs))
    # the rate and the residual come from one sweep of the rate and
    # supadditivity windows; each must be what its public function gives
    assert cert.supadditivity_min_residual == min(
        supadditivity_residuals(fam, w, 4, grid).min_residual for w in omegas[:1])
    rate = uniform_rate_estimate(fam, spec, 5, samples, 6, grid)
    assert (cert.rate, cert.rate.trend) == (rate, rate.trend)
    assert len(cert.rate.sweeps) == len(rate.sweeps) == samples
    for got, want in zip(cert.rate.sweeps, rate.sweeps):
        assert got.uppers.tobytes() == want.uppers.tobytes()
        assert got.lowers.tobytes() == want.lowers.tobytes()


@pytest.mark.parametrize("name, params", [("perturbed-doubling", None),
                                          ("diagonal-cocycle", TWO_DIAGONALS)])
def test_equal_parameter_windows_give_equal_sweeps(name, params):
    fam = make_family(name, params)
    a = periodic_state(2, (0, 1, 1, 0))
    b = periodic_state(2, (0, 1, 1, 0, 1))
    assert fam.params_along([a], 5).tobytes() != fam.params_along([b], 5).tobytes()
    sa, sb = (min_expansion_sweep(fam, w, 4, 256) for w in (a, b))
    assert sa.uppers.tobytes() == sb.uppers.tobytes()
    assert sa.lowers.tobytes() == sb.lowers.tobytes()


def test_certificate_steps_each_parameter_prefix_once(monkeypatch):
    # a grid step is one log_deriv call on an array of fiber points
    fam, spec, seed = make_family("perturbed-doubling"), bern_spec(), 7
    samples, n_max, curve_n_max, supadd_N = 4, 6, 64, 4
    steps, log_deriv = [], fam.log_deriv

    def counted(p, x, xp=math, terms=None):
        if isinstance(x, np.ndarray):
            steps.append(x.size)
        return log_deriv(p, x, xp, terms)

    monkeypatch.setattr(fam, "log_deriv", counted)
    cert = build_expansion_certificate(fam, spec, seed, samples=samples,
                                       n_max=n_max, grid_size=256,
                                       curve_n_max=curve_n_max,
                                       supadd_samples=1, supadd_N=supadd_N)
    depth = cert.details["depth"]
    omegas = sample_base(spec, seed, samples)
    # the first call: the rate windows, then the supadditivity windows of
    # the first sample, neither depending on lambda
    first = list(fam.params_along(omegas, n_max))
    first += [fam.params_along([shift_by(omegas[0], k)], supadd_N - k)[0]
              for k in range(supadd_N)]
    # the second: c_samples at offset 0 and the curve at offsets
    # 1..curve_n_max, each cut to its settled depth at lambda
    later = param_windows(fam, omegas, [(range(curve_n_max + 1), depth)])[0]
    cuts = expansion.settled_depths(fam, later, cert.lam, 256)
    second = [w[:d] for w, d in zip(later, cuts)]

    def prefixes(windows):
        return len({w[:n].tobytes() for w in windows
                    for n in range(1, len(w) + 1)})

    assert len(steps) == prefixes(first) + prefixes(second)
    assert len(steps) < sum(len(w) for w in first + list(later)) / 4


def test_curve_averages_every_sample():
    # past 20 samples the curve still averages all of them, and the 20-orbit
    # mean differs, so a capped curve fails here
    fam, samples, curve_n_max, grid = make_family("perturbed-doubling"), 22, 8, 64
    cert = build_expansion_certificate(fam, bern_spec(), 7, samples=samples, n_max=5,
                                       grid_size=grid, curve_n_max=curve_n_max,
                                       supadd_samples=1, supadd_N=4)
    log_c, _ = expansion.tempered_constants(
        fam, sample_base(bern_spec(), 7, samples), range(1, curve_n_max + 1), cert.lam,
        cert.details["depth"], grid)
    ns = np.arange(1, curve_n_max + 1)
    assert log_c.shape == (samples, curve_n_max)
    assert np.array_equal(cert.temperedness_curve.values, np.mean(log_c / ns, axis=0))
    assert not np.array_equal(cert.temperedness_curve.values,
                              np.mean(log_c[:20] / ns, axis=0))


def test_torus_corollary_reads_the_family_svals(monkeypatch):
    fam = make_family("random-cat")
    calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a))
    rep = variable_rate_corollary(fam, bern_spec(), 7, 100, 1.0)
    assert calls == []
    smallest = {p: math.log(fam.svals[p, -1]) for p in range(len(fam.matrices))}
    logs = [smallest[fam.param_at(w)] for w in sample_base(bern_spec(), 7, 100)]
    assert rep.estimate == float(np.mean(logs))


@pytest.mark.parametrize("name, call", [
    ("windows", lambda: expansion.sweep_windows(make_family("perturbed-doubling"),
                                                [], 64)),
    ("offsets", lambda: expansion.tempered_constants(
        make_family("perturbed-doubling"), [dirac()], [], 0.1, 4, 64)),
    ("n_max", lambda: expansion.temperedness_curve_at(
        make_family("perturbed-doubling"), dirac(), 0.1, 0, 4, 64)),
    ("n_max", lambda: expansion.temperedness_curve_at(
        make_family("bernoulli-linear"), dirac(), 0.1, 0, 4)),
    ("N", lambda: supadditivity_residuals(make_family("perturbed-doubling"),
                                          dirac(), N=1, grid_size=64)),
    ("curve_n_max", lambda: build_expansion_certificate(
        make_family("doubling"), BaseSystemSpec.dirac(), 1, samples=3, n_max=6,
        curve_n_max=0)),
    ("curve_n_max", lambda: build_expansion_certificate(
        make_family("perturbed-doubling"), BaseSystemSpec.dirac(), 1, samples=3,
        n_max=6, grid_size=64, depth=4, curve_n_max=0)),
    ("supadd_samples", lambda: build_expansion_certificate(
        make_family("doubling"), BaseSystemSpec.dirac(), 1, samples=3, n_max=6,
        curve_n_max=8, supadd_samples=0)),
    ("depth", lambda: build_expansion_certificate(
        make_family("perturbed-doubling"), BaseSystemSpec.dirac(), 1, samples=3,
        n_max=6, grid_size=64, depth=0)),
    ("depth", lambda: tempered_constant(make_family("perturbed-doubling"), dirac(),
                                        0.1, depth=0, grid_size=64)),
    ("depth", lambda: hyperbolicity_certificate(
        make_family("random-cat"), bern_spec(), 7, 2, 8, 40, depth=0, batches=4)),
    ("depth", lambda: bundle_rates(make_family("random-cat"), dirac(), None, None, 8,
                                   depth=0)),
    ("n", lambda: hyperbolicity_certificate(
        make_family("random-cat"), bern_spec(), 7, 2, 8, 20, batches=4)),
    ("n", lambda: bundle_rates(make_family("random-cat"), dirac(), None, None, 10,
                               depth=11)),
    ("omegas", lambda: make_family("perturbed-doubling").params_along([], 4)),
    ("omegas", lambda: make_family("bernoulli-linear", {"values": [2.0]}).params_along(
        [], 4)),
    ("omegas", lambda: expansion.tempered_constants(
        make_family("perturbed-doubling"), [], [0], 0.1, 4, 64)),
    ("omegas", lambda: one_step_min_expansions(make_family("random-cat"), [])),
    ("states", lambda: symbol_rows([], 0, 4)),
    ("n", lambda: iterate(make_family("doubling"), dirac(), point(0.3), -1)),
    ("n", lambda: cocycle_product(make_family("doubling"), dirac(), point(0.3), 0)),
    ("n", lambda: birkhoff_sum_phi(make_family("doubling"),
                                   unit_tangent(dirac(), point(0.3), (1.0,)), 0)),
    ("n", lambda: orbit_log_stretches(make_family("random-cat"),
                                      unit_tangent(dirac(), point(0.1, 0.2), (1.0, 0.0)), 0)),
    ("n", lambda: orbit_log_stretches(make_family("perturbed-doubling"),
                                      unit_tangent(dirac(), point(0.3), (1.0,)), 0)),
    ("n", lambda: oseledets_spectrum(make_family("random-cat"), dirac(),
                                     point(0.1, 0.2), 1)),
    ("samples", lambda: exponent_positivity_report(make_family("doubling"),
                                                   BaseSystemSpec.dirac(), 7, 0, 10)),
    ("n", lambda: exponent_positivity_report(make_family("random-cat"),
                                             BaseSystemSpec.dirac(), 7, 2, 1)),
    ("n", lambda: exponent_positivity_report(  # spectra read, not computed
        make_family("random-cat"), BaseSystemSpec.dirac(), 7, 1, 1,
        [oseledets_spectrum(make_family("random-cat"), dirac(), point(0.1, 0.2), 2)])),
    ("horizon", lambda: finite_time_bundles(make_family("random-cat"), dirac(), None, 1)),
    ("n_max", lambda: min_expansion_sweep(make_family("perturbed-doubling"), dirac(),
                                          -1, 64)),
    ("n_max", lambda: uniform_rate_estimate(make_family("perturbed-doubling"),
                                            BaseSystemSpec.dirac(), 7, 3, 3, 64)),
    ("count", lambda: sample_base(BaseSystemSpec.dirac(), 7, 0)),
])
def test_empty_horizons_raise_contract_errors(name, call):
    # each ended in min() of an empty sequence or an empty curve's last
    # value, ran at depth 1, read a NaN mean, indexed an empty state list or
    # cut fewer stretches than the depth; a step count below its floor (0
    # for an orbit, 1 for a product or a sum, the fiber dimension for a
    # spectrum) is refused before any read
    with pytest.raises(ContractError, match=f"^{name} must be"):
        call()


@pytest.mark.parametrize("n_max, supadd_N, message", [
    (3, None, "^n_max must be >= 4"),
    (12, 1, "^N must be >= 2"),
    (12, 21, "N <= 20"),
])
def test_bad_certificate_horizons_raise_before_any_read(monkeypatch, n_max, supadd_N,
                                                        message):
    # random-cat fails the rate gate, so a horizon checked after the rate
    # sweep would never be checked at all
    fam, reads = make_family("random-cat"), []
    monkeypatch.setattr(fam, "params_along", lambda *a: reads.append(a))
    with pytest.raises(ContractError, match=message):
        build_expansion_certificate(fam, bern_spec(), 7, n_max=n_max, supadd_N=supadd_N)
    assert reads == []
