import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from randhyp import (BaseSystemSpec, ConfigurationError, UnsupportedOperationError,
                     derivative_bounds, fiber_apply, fiber_derivative,
                     fiber_inverse, make_family, point, sample_base)
from randhyp.base import random_point
from randhyp.fibers import ManifoldPoint, mod1

TWO_PI = 2 * math.pi


def dirac_state():
    return sample_base(BaseSystemSpec.dirac(), 0, 1)[0]


def bern_state(seed=7, want_symbol=None):
    spec = BaseSystemSpec.bernoulli([0.5, 0.5])
    ws = sample_base(spec, seed, 64)
    if want_symbol is None:
        return ws[0]
    from randhyp import symbol_at
    for w in ws:
        if symbol_at(w, 0) == want_symbol:
            return w
    raise AssertionError("no sample with requested symbol")


def test_mod1_seam_snap():
    assert mod1(1.0 - 1e-16) == 0.0
    assert mod1(0.999999) == pytest.approx(0.999999)
    assert point(1.25).x == 0.25
    assert point(-0.25).x == 0.75


def test_doubling_apply():
    fam = make_family("doubling")
    assert fiber_apply(fam, dirac_state(), point(0.3)).x == pytest.approx(0.6, abs=1e-15)
    assert fiber_derivative(fam, dirac_state(), point(0.123)).entries[0, 0] == 2.0
    assert derivative_bounds(fam) == (2.0, 0.5, 0.0)


def test_bernoulli_linear_apply():
    fam = make_family("bernoulli-linear", {"values": [2, 3]})
    w = bern_state(want_symbol=1)
    assert fiber_apply(fam, w, point(0.5)).x == pytest.approx(0.5, abs=1e-15)
    assert derivative_bounds(fam) == (3.0, 0.5, 0.0)


def test_perturbed_doubling_values():
    fam = make_family("perturbed-doubling", {"eps_max": 0.1})
    w = bern_state(want_symbol=1)  # eps = 0.1
    got = fiber_apply(fam, w, point(0.25)).x
    assert got == pytest.approx(0.5 + 0.1 * math.sin(math.pi / 2), abs=1e-15)
    d = fiber_derivative(fam, w, point(0.5)).entries[0, 0]
    assert d == pytest.approx(2 - 0.2 * math.pi, abs=1e-12)
    assert d == pytest.approx(1.371681, abs=1e-6)


def test_perturbed_doubling_bounds():
    fam = make_family("perturbed-doubling", {"eps_max": 0.1})
    sup, sup_inv, lip = derivative_bounds(fam)
    assert sup == pytest.approx(2 + 0.2 * math.pi, abs=1e-12)
    assert sup == pytest.approx(2.628319, abs=1e-6)
    assert sup_inv == pytest.approx(1 / (2 - 0.2 * math.pi), abs=1e-12)
    assert lip == pytest.approx(4 * math.pi ** 2 * 0.1 / (2 - 0.2 * math.pi), abs=1e-12)
    assert lip == pytest.approx(2.8781, abs=1e-4)


def test_perturbed_doubling_lipschitz_bound_sound_on_dense_grid():
    # the declared constant must dominate the true sup of |d/dx log deriv|
    fam = make_family("perturbed-doubling", {"eps_max": 0.1})
    w = bern_state(want_symbol=1)
    xs = np.linspace(0, 1, 200_001)
    eps = 0.1
    dlog = np.abs(-4 * math.pi ** 2 * eps * np.sin(TWO_PI * xs)
                  / (2 + TWO_PI * eps * np.cos(TWO_PI * xs)))
    assert dlog.max() <= fam.log_deriv_lipschitz + 1e-12


def test_eps_max_validation():
    with pytest.raises(ConfigurationError):
        make_family("perturbed-doubling", {"eps_max": 1 / TWO_PI})


def test_random_cat_matrices():
    fam = make_family("random-cat")
    w = bern_state(want_symbol=0)
    jac = fiber_derivative(fam, w, point(0.1, 0.9)).entries
    assert np.array_equal(jac, [[2, 1], [1, 1]])


def test_random_cat_inverse_round_trip():
    fam = make_family("random-cat")
    w = bern_state(want_symbol=0)
    assert fiber_inverse(fam, w, point(0.0, 0.0)).coords == (0.0, 0.0)
    x = point(0.3, 0.7)
    y = fiber_apply(fam, w, x)
    back = fiber_inverse(fam, w, y)
    assert back.coords == pytest.approx(x.coords, abs=1e-12)
    # and inverse-then-apply as well
    z = fiber_apply(fam, w, fiber_inverse(fam, w, x))
    assert z.coords == pytest.approx(x.coords, abs=1e-12)


def test_doubling_not_invertible():
    fam = make_family("doubling")
    with pytest.raises(UnsupportedOperationError):
        fiber_inverse(fam, dirac_state(), point(0.5))


def test_dimension_mismatch_rejected():
    fam = make_family("random-cat")
    from randhyp.errors import ContractError
    with pytest.raises(ContractError):
        fiber_apply(fam, bern_state(), point(0.5))


def test_diagonal_cocycle():
    fam = make_family("diagonal-cocycle", {"a_values": [2.0], "b_values": [3.0]})
    w = dirac_state()
    got = fiber_apply(fam, w, point(0.4, 0.4))
    assert got.coords == pytest.approx((0.8, 0.2), abs=1e-12)
    sup, sup_inv, lip = derivative_bounds(fam)
    assert (sup, sup_inv, lip) == (3.0, 0.5, 0.0)


def test_bound_soundness_sampled():
    # 10^5 (base point, fiber point) pairs per circle family via the
    # vectorized derivative; matrix families are x-independent, so the sweep
    # reduces to the sampled base points
    spec = BaseSystemSpec.bernoulli([0.5, 0.5])
    ws = sample_base(spec, 5, 100)
    rng = np.random.default_rng(3)
    for name, params in [("doubling", {}),
                         ("perturbed-doubling", {"eps_max": 0.1}),
                         ("bernoulli-linear", {"values": [2, 3]})]:
        fam = make_family(name, params)
        sup, sup_inv, _ = derivative_bounds(fam)
        smallest = math.inf
        for w in ws:
            derivs = np.abs(np.broadcast_to(
                fam.deriv(fam.param_at(w), rng.random(1000), np), 1000))
            assert derivs.max() <= sup + 1e-12
            assert (1.0 / derivs).max() <= sup_inv + 1e-12
            smallest = min(smallest, derivs.min())
        assert smallest > 1.0  # all three are expanding

    for name, params in [("diagonal-cocycle",
                          {"a_values": [2, 4], "b_values": [3, 3]}),
                         ("random-cat", {})]:
        fam = make_family(name, params)
        sup, sup_inv, _ = derivative_bounds(fam)
        smallest = math.inf
        for i, w in enumerate(ws):
            x = ManifoldPoint(random_point(5, i, 2))
            jac = fiber_derivative(fam, w, x).entries
            svals = np.linalg.svd(jac, compute_uv=False)
            assert svals[0] <= sup + 1e-12
            assert 1.0 / svals[-1] <= sup_inv + 1e-12
            smallest = min(smallest, svals[-1])
        assert smallest > 0.0
        if fam.expanding:
            assert smallest > 1.0


def test_lipschitz_soundness_sampled():
    fam = make_family("perturbed-doubling", {"eps_max": 0.1})
    spec = BaseSystemSpec.bernoulli([0.5, 0.5])
    ws = sample_base(spec, 9, 100)
    rng = np.random.default_rng(0)
    for w in ws:
        xs = rng.random(100)
        dx = (rng.random(100) - 0.5) * 2e-3
        eps = fam.param_at(w)
        for x, d in zip(xs, dx):
            x2 = (x + d) % 1.0
            f1 = math.log(abs(fam.deriv(eps, x)))
            f2 = math.log(abs(fam.deriv(eps, x2)))
            assert abs(f1 - f2) <= fam.log_deriv_lipschitz * abs(d) + 1e-9


def test_finite_difference_consistency():
    spec = BaseSystemSpec.bernoulli([0.5, 0.5])
    ws = sample_base(spec, 31, 20)
    h = 1e-6
    for name, params in [("doubling", {}),
                         ("perturbed-doubling", {"eps_max": 0.1}),
                         ("bernoulli-linear", {"values": [2, 3]})]:
        fam = make_family(name, params)
        for i, w in enumerate(ws):
            x = 0.05 + 0.9 * random_point(31, i, 1)[0]
            p = fam.param_at(w)
            fd = (fam.lift(p, x + h) - fam.lift(p, x - h)) / (2 * h)
            exact = fam.deriv(p, x)
            assert fd == pytest.approx(exact, rel=1e-6)


def test_linear_families_jacobian_matches_matrix():
    fam = make_family("random-cat")
    w = bern_state(want_symbol=1)
    assert np.array_equal(fiber_derivative(fam, w, point(0.2, 0.9)).entries,
                          [[3, 1], [2, 1]])


STREAM_FAMILIES = {
    "doubling": {},
    "perturbed-doubling": {"eps_max": 0.1},
    "bernoulli-linear": {"values": [2, 3]},
    "diagonal-cocycle": {"a_values": [2.0, 0.5], "b_values": [3.0, 4.0]},
    "random-cat": {},
}
STREAM_BASES = {
    "bernoulli": BaseSystemSpec.bernoulli([0.5, 0.5]),
    "markov": BaseSystemSpec.markov([[0.9, 0.1], [0.3, 0.7]]),
    "rotation": BaseSystemSpec.rotation(0.6180339887498949),
    "dirac": BaseSystemSpec.dirac(),
}
CIRCLE_FAMILIES = ("doubling", "perturbed-doubling", "bernoulli-linear")


@pytest.mark.parametrize("offset", [0, 100_000, -100_000, 999_000])
@pytest.mark.parametrize("base", STREAM_BASES)
def test_params_along_matches_shifted_states(base, offset):
    # a stream entry is exactly the one-step parameter of the shifted state
    from randhyp import shift_by
    from randhyp.fibers import LinearTorusFamily
    omega = shift_by(sample_base(STREAM_BASES[base], 11, 1)[0], offset)
    n = 120
    for name, params in STREAM_FAMILIES.items():
        fam = make_family(name, params)
        stream = fam.params_along(omega, n)
        assert len(stream) == n
        for i in range(n):
            assert fam.params_along(shift_by(omega, i), 1)[0] == stream[i]
        if isinstance(fam, LinearTorusFamily):
            back = fam.matrix_indices_back(omega, n)
            for i in range(n):
                assert fam.matrix_indices_back(shift_by(omega, -i), 1)[0] == back[i]
            assert list(back[::-1]) == list(
                fam.matrix_indices(shift_by(omega, -n), n))
    if base == "rotation":
        # the drive is the state's own angle, bit for bit
        fam = make_family("perturbed-doubling", {"eps_max": 0.1})
        stream = fam.params_along(omega, n)
        assert all(stream[i] == 0.1 * shift_by(omega, i).angle for i in range(n))


@pytest.mark.parametrize("name", CIRCLE_FAMILIES)
def test_circle_formula_numpy_matches_math(name):
    # grid sweeps evaluate each formula with numpy, single orbits with math
    fam = make_family(name, STREAM_FAMILIES[name])
    omega = sample_base(STREAM_BASES["bernoulli"], 4, 1)[0]
    n = 400
    ps = fam.params_along(omega, n)
    xs = [0.123456789]
    for p in ps.tolist():
        xs.append(fam.apply(p, xs[-1]))
    assert np.array_equal(fam.orbit_log_derivs(omega, xs[0], n),
                          [fam.log_deriv(p, x) for p, x in zip(ps.tolist(), xs)])
    seam = [0.0, 1e-16, 0.5 - 1e-16, 0.5, 0.5 + 1e-16, 1.0 - 2e-16]
    pts = np.array(xs[:n] + seam)
    qs = np.concatenate([ps, ps[:len(seam)]])
    img = np.broadcast_to(fam.apply(qs, pts, np), pts.shape)
    logd = np.broadcast_to(fam.log_deriv(qs, pts, np), pts.shape)
    for q, x, y, d in zip(qs.tolist(), pts.tolist(), img, logd):
        dist = abs(fam.apply(q, x) - y)
        assert min(dist, 1.0 - dist) <= 1e-15
        assert abs(fam.log_deriv(q, x) - d) <= 1e-15


_ENTRIES = st.floats(1e-6, 1e6)


@given(st.lists(st.tuples(_ENTRIES, _ENTRIES), min_size=1, max_size=6))
@example([(642308.1945317535, 730503.9375)])
def test_diagonal_bounds_are_the_extreme_entries(pairs):
    # the singular values of diag(a, b) are a and b; LAPACK's SVD may miss
    # them by an ulp, so the family sets its bounds from the entries
    a, b = ([p[i] for p in pairs] for i in (0, 1))
    fam = make_family("diagonal-cocycle", {"a_values": a, "b_values": b})
    assert derivative_bounds(fam) == (max(a + b), 1.0 / min(a + b), 0.0)
    assert fam.expanding == (min(a + b) > 1.0)
