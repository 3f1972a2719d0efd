import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from randhyp import (BaseSystemSpec, ConfigurationError, ContractError,
                     derivative_bounds, fiber_derivative, make_family, point,
                     sample_base, unit_tangent)
from randhyp.base import random_point
from randhyp.fibers import (FAMILY_CATALOG, CircleFamily, LinearTorusFamily,
                            ManifoldPoint, mod1, mod1_array)

TWO_PI = 2 * math.pi


def apply_point(fam, w, x):
    """phi_w(x) from the family's point-level map."""
    return ManifoldPoint(fam.apply_at(fam.param_at(w), x.coords))


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
    assert apply_point(fam, dirac_state(), point(0.3)).x == pytest.approx(0.6, abs=1e-15)
    assert fiber_derivative(fam, dirac_state(), point(0.123))[0, 0] == 2.0
    assert derivative_bounds(fam) == (2.0, 0.5, 0.0)


def test_bernoulli_linear_apply():
    fam = make_family("bernoulli-linear", {"values": [2, 3]})
    w = bern_state(want_symbol=1)
    assert apply_point(fam, w, point(0.5)).x == pytest.approx(0.5, abs=1e-15)
    assert derivative_bounds(fam) == (3.0, 0.5, 0.0)


def test_perturbed_doubling_values():
    fam = make_family("perturbed-doubling", {"eps_max": 0.1})
    w = bern_state(want_symbol=1)  # eps = 0.1
    got = apply_point(fam, w, point(0.25)).x
    assert got == pytest.approx(0.5 + 0.1 * math.sin(math.pi / 2), abs=1e-15)
    d = fiber_derivative(fam, w, point(0.5))[0, 0]
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
    jac = fiber_derivative(fam, w, point(0.1, 0.9))
    assert np.array_equal(jac, [[2, 1], [1, 1]])


@pytest.mark.parametrize("name, params, k", [
    ("random-cat", {}, 2),
    ("random-cat", {"matrices": [[[1, 1], [0, 1]], [[1, 0], [1, 1]], [[2, 1], [1, 1]]]}, 3),
    ("diagonal-cocycle", {"a_values": [2.0, 0.5], "b_values": [3.0, 4.0]}, 2),
])
def test_torus_tables_are_read_only_matrices_and_inverses(name, params, k):
    fam = make_family(name, params)
    for table in (fam.matrices, fam.inverses):
        assert isinstance(table, np.ndarray) and table.dtype == np.float64
        assert table.shape == (k, 2, 2)
        with pytest.raises(ValueError):
            table[0, 0, 0] = 5.0
    assert np.abs(fam.inverses @ fam.matrices - np.eye(2)).max() <= 1e-12
    for gone in ("entries", "inverse_entries", "matrix_indices",
                 "matrix_indices_back", "matrix"):
        assert not hasattr(fam, gone)


@pytest.mark.parametrize("fam", [
    make_family("random-cat"),
    make_family("random-cat", {"matrices": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]}),
    make_family("diagonal-cocycle", {"a_values": [2.0, 0.5], "b_values": [3.0, 4.0]}),
    make_family("diagonal-cocycle", {"a_values": [642308.1945317535],
                                     "b_values": [730503.9375]}),
    LinearTorusFamily(np.random.default_rng(7).normal(size=(2000, 2, 2))),
])
def test_torus_svals_are_each_matrix_lone_svd(fam):
    # the stacked SVD gives every matrix the bytes of its own SVD
    assert fam.svals.shape == (len(fam.matrices), 2)
    with pytest.raises(ValueError):
        fam.svals[0, 0] = 5.0
    for m, row in zip(fam.matrices, fam.svals):
        assert row.tobytes() == np.linalg.svd(m, compute_uv=False).tobytes()


@pytest.mark.parametrize("call, got, need", [
    pytest.param(lambda w: fiber_derivative(make_family("random-cat"), w, point(0.5)),
                 1, 2, id="derivative-cat"),
    pytest.param(lambda w: fiber_derivative(make_family("doubling"), w, point(0.5, 0.5)),
                 2, 1, id="derivative-doubling"),
    pytest.param(lambda w: unit_tangent(w, point(0.5), (0.6, 0.8)),
                 2, 1, id="unit-tangent"),
])
def test_dimension_checks_share_one_message(call, got, need):
    # one message, naming both dimensions, wherever a dimension is checked
    with pytest.raises(ContractError, match=f"^dimension mismatch: got dim {got}, need {need}$"):
        call(bern_state())


def test_diagonal_cocycle():
    fam = make_family("diagonal-cocycle", {"a_values": [2.0], "b_values": [3.0]})
    w = dirac_state()
    got = apply_point(fam, w, point(0.4, 0.4))
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
            jac = fiber_derivative(fam, w, x)
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
    assert np.array_equal(fiber_derivative(fam, w, point(0.2, 0.9)),
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
        stream = fam.params_along([omega], n)[0]
        assert len(stream) == n
        for i in range(n):
            assert fam.params_along([shift_by(omega, i)], 1)[0, 0] == stream[i]
        if isinstance(fam, LinearTorusFamily):
            back = fam.params_along([shift_by(omega, -n)], n)[0, ::-1]
            for i in range(n):
                assert fam.params_along([shift_by(omega, -i - 1)], 1)[0, 0] == back[i]
            assert list(back[::-1]) == list(
                fam.params_along([shift_by(omega, -n)], n)[0])
    if base == "rotation":
        # the drive is the state's own angle, bit for bit
        fam = make_family("perturbed-doubling", {"eps_max": 0.1})
        stream = fam.params_along([omega], n)[0]
        assert all(stream[i] == 0.1 * shift_by(omega, i).angle for i in range(n))


CUT_BASES = dict(STREAM_BASES, bernoulli3=BaseSystemSpec.bernoulli([0.25, 0.0, 0.75]))
CUT_GROUPS = [((-7, 0, 4), 5), ((2,), 9), (range(-3, 1), 3)]


@pytest.mark.parametrize("name, params", [("perturbed-doubling", {"eps_max": 0.1}),
                                          ("random-cat", {})])
@pytest.mark.parametrize("base", CUT_BASES)
def test_param_windows_are_the_shifted_states_windows(base, name, params, monkeypatch):
    # each window of the cutter (and each forward and backward bundle
    # window built on it) is the plain read of its shifted state, and a call
    # reads once, the span from the least offset to the last window's end
    from randhyp import shift_by
    from randhyp.fibers import param_windows
    from randhyp.splitting import _windows
    fam = make_family(name, params)
    ws = sample_base(CUT_BASES[base], 9, 3)
    reads, read = [], fam.params_along
    monkeypatch.setattr(fam, "params_along",
                        lambda states, n: reads.append(n) or read(states, n))

    def plain(w, k, h):
        return read([shift_by(w, k)], h)[0]
    cut = param_windows(fam, ws, CUT_GROUPS)
    assert reads == [18]   # positions -7..10
    for (ks, h), windows in zip(CUT_GROUPS, cut):
        want = np.array([plain(w, k, h) for w in ws for k in ks])
        assert windows.dtype == want.dtype and np.array_equal(windows, want)
    for (ks, h), count in zip(CUT_GROUPS, (21, 18, 9)):
        del reads[:]
        back, fwd = _windows(fam, ws, ks, h)
        assert reads == [count]   # positions min(ks) - h..max(ks) + h - 1
        assert np.array_equal(fwd, [plain(w, k, h) for w in ws for k in ks])
        assert np.array_equal(back, [plain(w, k - h, h)[::-1] for w in ws for k in ks])


def test_unit_vectors_norm_is_linalg_norm_bit_for_bit():
    # np.linalg.norm(a, axis=1) differs in the last bit on about 6% of these
    from randhyp.fibers import unit_vectors
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4000, 2)) * 10.0 ** rng.uniform(-5, 5, (4000, 2))
    units, norms = unit_vectors(a)
    want = np.array([np.linalg.norm(v) for v in a])
    assert norms.shape == (4000, 1)
    assert norms[:, 0].tobytes() == want.tobytes()
    assert units.tobytes() == (a / want[:, None]).tobytes()
    for v, n in zip(a[:300], want[:300]):   # one vector at a time, as 1-D
        u, norm = unit_vectors(v)
        assert norm.tolist() == [n] and u.tobytes() == (v / n).tobytes()


def test_sign_rule_reads_the_first_nonzero_coordinate():
    from randhyp.fibers import flips_sign, unit_direction
    assert flips_sign(0.0, -1.0) and flips_sign(-0.5, 2.0)
    assert not (flips_sign(-0.0, 1.0) or flips_sign(0.0, 0.0) or flips_sign(0.5, -2.0))
    assert np.signbit(unit_direction(np.array([0.0, -2.0]))).tolist() == [True, False]
    assert np.signbit(unit_direction(np.array([-0.0, 3.0]))).tolist() == [True, False]
    assert unit_direction(np.array([-3.0, 4.0])).tolist() == [0.6, -0.8]
    assert unit_direction(np.array([0.0, -2.0])).tolist() == [0.0, 1.0]
    # the (B, 2) forms sign every row as its scalar call does, bit for bit:
    # zero and signed-zero first coordinates, the exact axes a diagonal
    # matrix's SVD returns (diagonal-cocycle's bundles), and random rows
    signed = [(0.0, -1.0), (-0.0, -1.0), (0.0, 1.0), (-0.0, 1.0), (0.0, 0.0),
              (-0.0, -0.0), (-1.0, 0.0), (-1.0, -0.0), (1.0, -0.0), (-3.0, 4.0)]
    axes = [w for d in ([2.0, 3.0], [0.5, 4.0], [-2.0, 3.0], [2.0, -0.5])
            for uv in np.linalg.svd(np.diag(d)) if uv.ndim == 2 for w in (*uv, *uv.T)]
    rows = np.concatenate([signed, axes,
                           np.random.default_rng(3).normal(size=(200, 2))])
    flips = flips_sign(rows[:, 0], rows[:, 1])
    assert flips.tolist() == [bool(flips_sign(u0, u1)) for u0, u1 in rows.tolist()]
    assert flips[:10].tolist() == [True, True] + [False] * 4 + [True, True, False, True]
    want = np.array([unit_direction(r) for r in rows])
    assert unit_direction(rows).tobytes() == want.tobytes()
    assert unit_direction(rows.reshape(-1, 2, 2)).tobytes() == want.tobytes()
    assert unit_direction(rows.T.copy().T).tobytes() == want.tobytes()


READ_BASES = dict(STREAM_BASES, **{
    "bernoulli-3": BaseSystemSpec.bernoulli([0.2, 0.3, 0.5]),
    "bernoulli-1": BaseSystemSpec.bernoulli([1.0]),
    "periodic": None,
})
READ_OFFSETS = (-70, 0, 45)


def read_states(base, offsets=READ_OFFSETS):
    """Three states of `base` (of different words for the periodic base),
    each shifted by every offset."""
    from randhyp import shift_by
    from randhyp.base import periodic_state
    if base == "periodic":
        states = [periodic_state(3, w) for w in ((0, 1), (2, 0, 1), (1,))]
    else:
        states = sample_base(READ_BASES[base], 5, 3)
    return [shift_by(w, k) for w in states for k in offsets]


def one_by_one(read, states):
    """`read` of each state on its own, stacked: the one-row case."""
    return np.stack([read([w])[0] for w in states])


@pytest.mark.parametrize("base", READ_BASES)
def test_batched_read_is_the_one_state_reads(base):
    from randhyp.fibers import base_drive
    states = read_states(base)
    for name, params in STREAM_FAMILIES.items():
        fam = make_family(name, params)
        got = fam.params_along(states, 50)
        assert got.shape == (len(states), 50)
        assert got.tobytes() == one_by_one(lambda ws: fam.params_along(ws, 50),
                                           states).tobytes()
    for choices in (None, 1, 2, 3):   # windows reaching behind the origin
        got = base_drive(states, -30, 20, choices)
        assert got.tobytes() == one_by_one(
            lambda ws: base_drive(ws, -30, 20, choices), states).tobytes()


@pytest.mark.parametrize("base", ["bernoulli", "bernoulli-3", "markov", "periodic"])
def test_batched_read_raises_the_one_state_window_error(base):
    from randhyp import WindowLimitError, shift_by
    from randhyp.base import WINDOW_LIMIT
    fam = make_family("perturbed-doubling")
    for k, n in ((WINDOW_LIMIT - 5, 10), (-WINDOW_LIMIT - 1, 10)):
        ok, far = read_states(base, (0,))[0], read_states(base, (k,))[1]
        with pytest.raises(WindowLimitError) as one:
            fam.params_along([far], n)
        with pytest.raises(WindowLimitError) as batch:
            fam.params_along([ok, far, ok], n)
        assert str(batch.value) == str(one.value)
        fam.params_along([ok, shift_by(far, -k)], n)   # back in range


@pytest.mark.parametrize("base", READ_BASES)
@pytest.mark.parametrize("choices", [None, 1, 2])
def test_reversed_drive_window_raises(base, choices):
    # a rotation angle and the one-choice index read no symbols, yet refuse
    # a reversed window as the symbol read does
    from randhyp.base import rotation_angles
    from randhyp.fibers import base_drive
    states = read_states(base, (0,))
    with pytest.raises(ContractError, match="^hi must be >= lo"):
        base_drive(states, 5, 3, choices)
    if base == "rotation":
        with pytest.raises(ContractError, match="^hi must be >= lo"):
            rotation_angles(states, 5, 3)
    assert base_drive(states, 4, 4, choices).shape == (3, 0)   # empty is legal


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(READ_BASES)),
       st.lists(st.integers(-3000, 3000), min_size=1, max_size=6),
       st.integers(-100, 100), st.integers(0, 80))
def test_batched_drive_matches_shifted_one_step_reads(base, offsets, lo, n):
    from randhyp import shift_by
    from randhyp.fibers import base_drive
    states = read_states(base, offsets)
    got = base_drive(states, lo, lo + n)
    assert got.shape == (len(states), n)
    assert got.tobytes() == one_by_one(lambda ws: base_drive(ws, lo, lo + n),
                                       states).tobytes()
    for w, row in zip(states[::5], got[::5]):
        assert row.tolist() == [base_drive([shift_by(w, lo + j)], 0, 1)[0, 0]
                                for j in range(n)]


@pytest.mark.parametrize("name", CIRCLE_FAMILIES)
def test_circle_formula_numpy_matches_math(name):
    # grid sweeps evaluate each formula with numpy, single orbits with math
    fam = make_family(name, STREAM_FAMILIES[name])
    omega = sample_base(STREAM_BASES["bernoulli"], 4, 1)[0]
    n = 400
    ps = fam.params_along([omega], n)[0]
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


# x -> 2x + eps sin(2 pi x) stays expanding for eps_max < 1/(2 pi) = 0.15915...
_EPS_MAX = 0.159


@given(x0=st.floats(0.0, 1.0, exclude_max=True), eps_max=st.floats(0.0, _EPS_MAX),
       seed=st.integers(-2 ** 63, 2 ** 64 - 1))
@example(x0=0.0, eps_max=0.0, seed=7)
@example(x0=0.5, eps_max=_EPS_MAX, seed=7)
@example(x0=1.0 - 1e-16, eps_max=_EPS_MAX, seed=-1)
@example(x0=1.0 - 1e-16, eps_max=0.0, seed=2 ** 64 - 1)
def test_orbit_log_derivs_matches_the_step_loop(x0, eps_max, seed):
    # on a two-letter base each step's eps is 0 or eps_max
    fam = make_family("perturbed-doubling", {"eps_max": eps_max})
    omega = sample_base(STREAM_BASES["bernoulli"], seed, 1)[0]
    n = 200
    x, ref = x0, []
    for p in fam.params_along([omega], n)[0].tolist():
        ref.append(fam.log_deriv(p, x))
        x = fam.apply(p, x)
    got = fam.orbit_log_derivs(omega, x0, n)
    assert got.dtype == np.float64 and np.array_equal(got, ref)


SEAM = [0.0, 1e-16, 0.5 - 1e-16, 0.5, 0.5 + 1e-16, 1.0 - 2e-16]


def general_at_zero_eps(xp, x):
    """lift, deriv, apply and log_deriv of perturbed doubling at eps = 0.0,
    written out in its general formula, sin and cos included."""
    eps = 0.0
    lift = 2.0 * x + eps * xp.sin(TWO_PI * x)
    deriv = 2.0 + TWO_PI * eps * xp.cos(TWO_PI * x)
    image = mod1(lift) if xp is math else mod1_array(lift)
    return lift, deriv, image, xp.log(deriv)


def zero_eps_ops(x, xp):
    fam = make_family("perturbed-doubling")
    return (fam.lift(0.0, x, xp), fam.deriv(0.0, x, xp), fam.apply(0.0, x, xp),
            fam.log_deriv(0.0, x, xp))


@given(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
def test_zero_eps_skips_trig_bit_for_bit(xs):
    # the doubling-map shortcut gives the general formula's bytes, on the
    # scalar (math) and grid (numpy) paths; on a grid the lift and image stay
    # grids, and the derivative and its log are the one scalar they hold
    xs = SEAM + xs
    for x in xs:
        got, want = zero_eps_ops(x, math), general_at_zero_eps(math, x)
        assert [np.float64(v).tobytes() for v in got] == \
               [np.float64(v).tobytes() for v in want]
    grid = np.array(xs)
    got, want = zero_eps_ops(grid, np), general_at_zero_eps(np, grid)
    assert [np.shape(v) for v in got] == [grid.shape, (), grid.shape, ()]
    for g, w in zip(got, want):
        assert np.broadcast_to(g, grid.shape).tobytes() == w.tobytes()


# Parameters of every catalog circle family; a family added to the catalog
# fails the coverage test until it is given a strategy here.
CIRCLE_PARAMS = {
    "doubling": st.just({}),
    "perturbed-doubling": st.builds(lambda e: {"eps_max": e}, st.floats(0.0, _EPS_MAX)),
    "bernoulli-linear": st.builds(lambda v: {"values": v},
                                  st.lists(st.floats(0.1, 8.0), min_size=1, max_size=4)),
}
# drives cover a family's parameter range: every value of a finite set on
# four symbols, continuous values on the rotation
PARAM_BASES = (BaseSystemSpec.bernoulli([0.25] * 4),
               BaseSystemSpec.rotation(0.6180339887498949))


def test_every_catalog_circle_family_has_a_strategy():
    assert set(CIRCLE_PARAMS) == {name for name, cls in FAMILY_CATALOG.items()
                                  if issubclass(cls, CircleFamily)}


def family_cases(names):
    """(name, params) of the catalog families `names`."""
    return st.sampled_from(sorted(names)).flatmap(
        lambda name: st.tuples(st.just(name), CIRCLE_PARAMS[name]))


ODD_FAMILIES = [name for name in CIRCLE_PARAMS if FAMILY_CATALOG[name].odd]


def circle_case(name, params, seed):
    """The family and 32 of its per-step parameters from each base."""
    fam = make_family(name, params)
    ps = np.concatenate([fam.params_along(sample_base(spec, seed, 1), 32)[0]
                         for spec in PARAM_BASES])
    return fam, ps.tolist()


@settings(max_examples=60, deadline=None)
@given(family_cases(CIRCLE_PARAMS), st.integers(0, 2 ** 32))
def test_derivative_bounds_hold_on_dense_finite_differences(case, seed):
    # difference quotients are mean values of the derivative and of its log,
    # so the declared global bounds must dominate them up to rounding
    fam, ps = circle_case(*case, seed)
    m = 2048
    xs = np.arange(m + 1) / m
    for p in ps:
        slope = np.diff(fam.lift(p, xs, np)) * m
        assert slope.max() <= fam.sup_dphi * (1 + 1e-9)
        assert (1.0 / slope).max() <= fam.sup_dphi_inv * (1 + 1e-9)
        logd = np.broadcast_to(fam.log_deriv(p, xs, np), xs.shape)
        assert np.abs(np.diff(logd)).max() * m <= fam.log_deriv_lipschitz + 1e-9


@settings(max_examples=60, deadline=None)
@given(family_cases(ODD_FAMILIES), st.integers(0, 2 ** 32),
       st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=16))
def test_odd_families_commute_with_the_mirror(case, seed, xs):
    # an odd family's sweep covers [0, 1/2] only: phi(1 - x) = -phi(x) mod 1
    # and D phi(1 - x) = D phi(x), on the scalar and the grid path, up to a
    # few ulps of values below 4 (1 - x and 2 pi x round on each side: a
    # derivative pair differs by 3 ulps, 1.3e-15, near x = 1/4)
    fam, ps = circle_case(*case, seed)
    grid = np.array(SEAM + xs)
    for p in ps:
        for xp, x in [(math, x) for x in grid.tolist()] + [(np, grid)]:
            total = np.asarray(fam.apply(p, 1.0 - x, xp) + fam.apply(p, x, xp)) % 1.0
            assert np.all(np.minimum(total, 1.0 - total) <= 4e-15)
            assert np.all(np.abs(fam.deriv(p, 1.0 - x, xp) - fam.deriv(p, x, xp))
                          <= 4e-15)
