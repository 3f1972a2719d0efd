import math
from collections import Counter

import mpmath
import numpy as np
import pytest

from randhyp import (BaseSystemSpec, UnsupportedOperationError,
                     enumerate_periodic_orbits, lambda_estimate, make_family,
                     sample_base)
from randhyp.expansion import (min_log_expansion, uniform_rate_estimate,
                               variable_rate_corollary)
from randhyp.base import periodic_state
from randhyp.fibers import CircleFamily, LinearTorusFamily

LOG2 = math.log(2)
FLOOR = math.log(2 - 0.2 * math.pi)


def bern_spec():
    return BaseSystemSpec.bernoulli([0.5, 0.5])


def test_periodic_orbits_doubling():
    spec = BaseSystemSpec.bernoulli([1.0])
    fam = make_family("doubling")
    recs = enumerate_periodic_orbits(fam, spec, p_max=3)
    assert all(r.phi_average == pytest.approx(LOG2, abs=1e-12) for r in recs)
    by_period = {}
    for r in recs:
        by_period.setdefault(r.period, []).append(r)
    assert len(by_period[1]) == 1 and by_period[1][0].x0.x == 0.0
    assert len(by_period[2]) == 1
    assert by_period[2][0].x0.x == pytest.approx(1 / 3, abs=1e-10)
    assert len(by_period[3]) == 2
    assert all(r.residual < 1e-8 for r in recs)


def test_periodic_orbits_closure():
    spec = bern_spec()
    fam = make_family("perturbed-doubling", {"eps_max": 0.1})
    recs = enumerate_periodic_orbits(fam, spec, p_max=5)
    assert all(r.residual < 1e-8 for r in recs)
    # re-iterating the orbit for `period` steps returns to x0
    from randhyp.base import periodic_state, shift_by
    for r in recs[:20]:
        states = [shift_by(periodic_state(2, r.symbol_word), i)
                  for i in range(r.period)]
        x = r.x0.x
        for st in states:
            x = fam.apply(fam.param_at(st), x)
        d = abs(x - r.x0.x) % 1.0
        assert min(d, 1 - d) < 1e-8


def test_periodic_orbits_perturbed_bracket():
    spec = bern_spec()
    fam = make_family("perturbed-doubling", {"eps_max": 0.1})
    recs = enumerate_periodic_orbits(fam, spec, p_max=8)
    lo = min(r.phi_average for r in recs)
    assert FLOOR - 1e-9 <= lo <= LOG2 + 1e-9
    assert recs[0].phi_average == lo  # sorted ascending


def test_periodic_orbits_bernoulli_linear_words():
    spec = bern_spec()
    fam = make_family("bernoulli-linear", {"values": [2, 3]})
    recs = enumerate_periodic_orbits(fam, spec, p_max=4)
    for r in recs:
        expected = np.mean([math.log((2, 3)[s]) for s in r.symbol_word])
        assert r.phi_average == pytest.approx(expected, abs=1e-12)
    assert recs[0].phi_average == pytest.approx(LOG2, abs=1e-12)
    assert recs[0].symbol_word == (0,)


def test_periodic_orbits_linear_torus_uses_eigen_directions():
    spec = bern_spec()
    fam = make_family("random-cat")
    recs = enumerate_periodic_orbits(fam, spec, p_max=3)
    for r in recs:
        prod = np.eye(2)
        from randhyp.base import periodic_state, shift_by
        for i in range(r.period):
            state = shift_by(periodic_state(2, r.symbol_word), i)
            prod = fam.matrices[fam.params_along([state], 1)[0, 0]] @ prod
        lam_min = min(abs(v) for v in np.linalg.eigvals(prod).real)
        assert r.phi_average == pytest.approx(math.log(lam_min) / r.period, abs=1e-9)


def test_torus_periodic_averages_match_exact_arithmetic():
    # |lambda_min| of an integer product from its exact trace and det:
    # lambda_max = (|tr| + sqrt(tr^2 - 4 det)) / 2 and |lambda_min| =
    # |det| / lambda_max; eig's own lambda_min was off by up to 5e-5 at p 12
    fam = make_family("random-cat")
    mats = [[[int(v) for v in row] for row in m] for m in fam.matrices.tolist()]
    recs = enumerate_periodic_orbits(fam, bern_spec(), p_max=12)
    assert len(recs) > 700
    for r in recs:
        (p, q), (u, s) = (1, 0), (0, 1)
        for j in r.symbol_word:
            (a, b), (c, d) = mats[j]
            p, q, u, s = a * p + b * u, a * q + b * s, c * p + d * u, c * q + d * s
        tr, det = p + s, p * s - q * u
        with mpmath.workdps(60):
            lam_max = (abs(tr) + mpmath.sqrt(tr * tr - 4 * det)) / 2
            exact = (mpmath.log(abs(det)) - mpmath.log(lam_max)) / r.period
        assert abs(r.phi_average - float(exact)) <= 1e-14


def _moebius(n):
    sign, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            sign = -sign
        k += 1
    return -sign if n > 1 else sign


@pytest.mark.parametrize("name, params, probs, p_max, D", [
    ("doubling", {}, [1.0], 10, 2),
    ("perturbed-doubling", {"eps_max": 0.1}, [0.5, 0.5], 8, 4),
    ("bernoulli-linear", {"values": [2, 3]}, [0.5, 0.5], 6, 5),
])
def test_periodic_orbit_counts_are_exact(name, params, probs, p_max, D):
    # over a full shift on k symbols of degrees d_s, D = sum d_s, a p-word's
    # composite has deg - 1 fixed points, so D^p - k^p points have period
    # dividing p, and (1/p) sum_{e | p} mu(p/e) (D^e - k^e) orbits have least
    # period p
    fam, k = make_family(name, params), len(probs)
    recs = enumerate_periodic_orbits(fam, BaseSystemSpec.bernoulli(probs), p_max)
    exact = {p: sum(_moebius(p // e) * (D ** e - k ** e)
                    for e in range(1, p + 1) if p % e == 0) // p
             for p in range(1, p_max + 1)}
    assert Counter(r.period for r in recs) == exact
    # an orbit over the primitive word u visits the state of u every len(u)
    # steps; the least of those points names it
    anchors = {}
    for r in recs:
        q = next(q for q in range(1, r.period + 1)
                 if r.symbol_word == r.symbol_word[q:] + r.symbol_word[:q])
        xs = [r.x0.x]
        for c in fam.params_along([periodic_state(k, r.symbol_word)], r.period)[0].tolist():
            xs.append(fam.apply(c, xs[-1]))
        assert min(abs(xs[-1] - xs[0]), 1 - abs(xs[-1] - xs[0])) == r.residual
        anchors.setdefault(r.symbol_word[:q], []).append(min(xs[:-1:q]))
    for points in anchors.values():
        assert np.diff(sorted(points)).min(initial=1.0) > 1e-6


def test_periodic_orbits_need_an_expanding_circle_family():
    # the word (0) of multipliers (1, 2) has degree 1: every point is fixed,
    # and the bisection, which assumes degree >= 2, found x = 0 alone
    fam = make_family("bernoulli-linear", {"values": [1, 2]})
    with pytest.raises(UnsupportedOperationError, match="expanding"):
        enumerate_periodic_orbits(fam, bern_spec(), 3)


def test_periodic_orbits_need_full_shift():
    fam = make_family("doubling")
    with pytest.raises(UnsupportedOperationError):
        enumerate_periodic_orbits(fam, BaseSystemSpec.dirac(), 3)


def test_lambda_doubling_exact():
    fam = make_family("doubling")
    rate = uniform_rate_estimate(fam, BaseSystemSpec.dirac(), 1, 3, 100)
    rep = lambda_estimate(fam, BaseSystemSpec.dirac(), 1, rate)
    assert rep.lambda_estimate == pytest.approx(LOG2, abs=1e-12)


def test_lambda_bernoulli_linear():
    fam = make_family("bernoulli-linear", {"values": [2, 3]})
    rate = uniform_rate_estimate(fam, bern_spec(), 5, 20, 2000, grid_size=1)
    rep = lambda_estimate(fam, bern_spec(), 5, rate)
    assert rep.lambda_estimate == pytest.approx(math.log(6) / 2, abs=0.02)


def test_lambda_perturbed_gap():
    fam = make_family("perturbed-doubling", {"eps_max": 0.1})
    rate = uniform_rate_estimate(fam, bern_spec(), 7, 10, 12, grid_size=8192)
    rep = lambda_estimate(fam, bern_spec(), 7, rate)
    assert FLOOR <= rep.lambda_estimate <= LOG2
    assert FLOOR <= rep.a_estimate <= LOG2


def test_lambda_ordering_vs_lower_bound():
    # the estimate never falls below the certified lower bracket
    fam = make_family("perturbed-doubling", {"eps_max": 0.1})
    spec = bern_spec()
    rate = uniform_rate_estimate(fam, spec, 7, 10, 10, grid_size=4096)
    rep = lambda_estimate(fam, spec, 7, rate)
    lowers = []
    for w in sample_base(spec, 7, 10):
        lo, _ = min_log_expansion(fam, w, 10, grid_size=4096)
        lowers.append(lo / 10)
    assert rep.lambda_estimate >= np.mean(lowers) - 1e-9


def test_lambda_and_corollary_read_a_and_sweep_nothing(monkeypatch):
    fam = make_family("perturbed-doubling", {"eps_max": 0.1})
    rate = uniform_rate_estimate(fam, bern_spec(), 7, 5, 8, grid_size=256)
    steps = []
    for cls in (CircleFamily, LinearTorusFamily):
        def counted(self, *args, _sweep_steps=cls.sweep_steps):
            steps.append(len(args[0]))
            return _sweep_steps(self, *args)
        monkeypatch.setattr(cls, "sweep_steps", counted)
    rep = lambda_estimate(fam, bern_spec(), 7, rate)
    cor = variable_rate_corollary(fam, bern_spec(), 7, 50, rate.a_estimate)
    cor_negative_a = variable_rate_corollary(fam, bern_spec(), 7, 50, -rate.a_estimate)
    assert steps == []
    assert rep.candidates == (("uniform_rate", rate.a_estimate),)
    assert cor.verdict == cor_negative_a.verdict == "positive"
    assert cor.lambda_const == 0.5 * rate.a_estimate
    assert cor_negative_a.lambda_const is None
    uniform_rate_estimate(fam, bern_spec(), 7, 5, 8, grid_size=256)
    assert steps   # the counter does see a sweep


@pytest.mark.parametrize("name", ["perturbed-doubling", "random-cat"])
def test_lambda_is_the_rate_estimate_and_steps_no_orbit(name, monkeypatch):
    # the estimate reads the run's rate; it steps no orbit and pushes no vector
    import randhyp.cocycle as cocycle
    import randhyp.ergodic as ergodic
    fam = make_family(name)
    rate = uniform_rate_estimate(fam, bern_spec(), 7, 5, 8, grid_size=256)
    calls = []

    def counted(label, fn):
        def run(*args, **kwargs):
            calls.append(label)
            return fn(*args, **kwargs)
        return run
    monkeypatch.setattr(CircleFamily, "orbit_log_derivs",
                        counted("orbit", CircleFamily.orbit_log_derivs))
    push = counted("push", cocycle.push_log_stretches)
    monkeypatch.setattr(cocycle, "push_log_stretches", push)
    monkeypatch.setattr(ergodic, "push_log_stretches", push, raising=False)
    rep = lambda_estimate(fam, bern_spec(), 7, rate)
    assert calls == []
    assert rep.candidates == (("uniform_rate", rate.a_estimate),)
    assert rep.lambda_estimate.hex() == rep.a_estimate.hex() == rate.a_estimate.hex()
    assert "gap_vs_a" not in rep.to_payload()


def test_lambda_includes_periodic_context():
    fam = make_family("bernoulli-linear", {"values": [2, 3]})
    rate = uniform_rate_estimate(fam, bern_spec(), 5, 5, 50, grid_size=1)
    rep = lambda_estimate(fam, bern_spec(), 5, rate, include_periodic=True, p_max=3)
    assert rep.periodic_orbits
    words = [r.symbol_word for r in rep.periodic_orbits]
    assert (0,) in words


def test_torus_words_with_complex_eigenvalues_are_skipped():
    # [[1, -1], [1, 0]] has trace 1: its eigenvalues are complex, so the word
    # (1,) has no real invariant direction and no record
    fam = make_family("random-cat", {"matrices": [[[2, 1], [1, 1]], [[1, -1], [1, 0]]]})
    words = {r.symbol_word for r in enumerate_periodic_orbits(fam, bern_spec(), 3)}
    assert (0,) in words and (0, 1) in words
    assert (1,) not in words
