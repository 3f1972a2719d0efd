import math

import numpy as np
import pytest

from randhyp import (BaseSystemSpec, CocycleOverflowError, base_step,
                     birkhoff_sum_phi, cocycle_product, fiber_apply, iterate,
                     make_family, phi, point, sample_base, symbol_at,
                     unit_tangent, unit_tangent_step)
from randhyp.base import random_point
from randhyp.fibers import ManifoldPoint

ALL_FAMILIES = [
    ("doubling", {}),
    ("perturbed-doubling", {"eps_max": 0.1}),
    ("bernoulli-linear", {"values": [2, 3]}),
    ("diagonal-cocycle", {"a_values": [2, 4], "b_values": [3, 3]}),
    ("random-cat", {}),
]


def bern(seed=7):
    return BaseSystemSpec.bernoulli([0.5, 0.5])


def state_with_symbols(seed, prefix):
    """First sampled state whose leading symbols match the prefix."""
    ws = sample_base(bern(), seed, 4096)
    for w in ws:
        if all(symbol_at(w, k) == s for k, s in enumerate(prefix)):
            return w
    raise AssertionError(f"no sample starting with {prefix}")


def test_iterate_doubling():
    fam = make_family("doubling")
    w = sample_base(BaseSystemSpec.dirac(), 0, 1)[0]
    pts = iterate(fam, w, point(0.1), 3)
    assert [p.x for p in pts] == pytest.approx([0.1, 0.2, 0.4, 0.8], abs=1e-15)


def test_iterate_n0_identity():
    fam = make_family("random-cat")
    w = sample_base(bern(), 3, 1)[0]
    pts = iterate(fam, w, point(0.3, 0.4), 0)
    assert pts == [point(0.3, 0.4)]


def test_iterate_bernoulli_linear_symbols_23():
    fam = make_family("bernoulli-linear", {"values": [2, 3]})
    w = state_with_symbols(11, (0, 1))  # multipliers 2 then 3
    pts = iterate(fam, w, point(0.1), 2)
    assert [p.x for p in pts] == pytest.approx([0.1, 0.2, 0.6], abs=1e-14)


def test_cocycle_product_doubling():
    fam = make_family("doubling")
    w = sample_base(BaseSystemSpec.dirac(), 0, 1)[0]
    prod = cocycle_product(fam, w, point(0.1), 5)
    assert prod[0, 0] == 32.0
    assert prod.shape == (1, 1) and prod.dtype == np.float64


def test_cocycle_product_cat_squared():
    fam = make_family("random-cat")
    w = state_with_symbols(5, (0, 0))
    prod = cocycle_product(fam, w, point(0.0, 0.0), 2)
    assert np.array_equal(prod, [[5, 3], [3, 2]])


def test_cocycle_product_perturbed_matches_step_product():
    fam = make_family("perturbed-doubling", {"eps_max": 0.1})
    w = sample_base(bern(), 13, 1)[0]
    x = point(0.2)
    pts = iterate(fam, w, x, 3)
    state = w
    expected = 1.0
    for i in range(3):
        expected *= fam.deriv(fam.param_at(state), pts[i].x)
        state = base_step(state)
    got = cocycle_product(fam, w, x, 3)[0, 0]
    assert got == pytest.approx(expected, rel=1e-14)


def test_cocycle_overflow_error():
    fam = make_family("doubling")
    w = sample_base(BaseSystemSpec.dirac(), 0, 1)[0]
    with pytest.raises(CocycleOverflowError):
        cocycle_product(fam, w, point(0.1), 1100)


def test_unit_tangent_step_doubling():
    fam = make_family("doubling")
    w = sample_base(BaseSystemSpec.dirac(), 0, 1)[0]
    p = unit_tangent(w, point(0.3), (1.0,))
    q = unit_tangent_step(fam, p)
    assert q.v == (1.0,)
    assert q.x.x == pytest.approx(0.6, abs=1e-15)


def test_unit_tangent_step_cat_normalizes_column():
    fam = make_family("random-cat")
    w = state_with_symbols(5, (0,))
    p = unit_tangent(w, point(0.0, 0.0), (1.0, 0.0))
    q = unit_tangent_step(fam, p)
    assert q.v == pytest.approx((2 / math.sqrt(5), 1 / math.sqrt(5)), abs=1e-12)
    assert q.v == pytest.approx((0.894427, 0.447214), abs=1e-6)


def test_projection_equivariance():
    # the (base, point) components of the tangent step equal the skew product step
    for name, params in ALL_FAMILIES:
        fam = make_family(name, params)
        w = sample_base(bern(), 17, 1)[0]
        x = ManifoldPoint(random_point(17, 1, fam.manifold_dim))
        v = tuple(1.0 if i == 0 else 0.0 for i in range(fam.manifold_dim))
        p = unit_tangent(w, x, v)
        q = unit_tangent_step(fam, p)
        assert q.omega == base_step(w)
        assert q.x == fiber_apply(fam, w, x)


def test_phi_values():
    w = sample_base(BaseSystemSpec.dirac(), 0, 1)[0]
    fam = make_family("doubling")
    p = unit_tangent(w, point(0.1), (1.0,))
    assert phi(fam, p) == pytest.approx(math.log(2), abs=1e-15)

    bl = make_family("bernoulli-linear", {"values": [2, 3]})
    w3 = state_with_symbols(7, (1,))
    p3 = unit_tangent(w3, point(0.1), (1.0,))
    assert phi(bl, p3) == pytest.approx(math.log(3), abs=1e-15)

    cat = make_family("random-cat")
    w0 = state_with_symbols(7, (0,))
    pc = unit_tangent(w0, point(0.0, 0.0), (1.0, 0.0))
    assert phi(cat, pc) == pytest.approx(math.log(math.sqrt(5)), abs=1e-12)
    assert phi(cat, pc) == pytest.approx(0.804719, abs=1e-6)


def test_birkhoff_sum_doubling():
    fam = make_family("doubling")
    w = sample_base(BaseSystemSpec.dirac(), 0, 1)[0]
    p = unit_tangent(w, point(0.3), (1.0,))
    assert birkhoff_sum_phi(fam, p, 10) == pytest.approx(10 * math.log(2), abs=1e-12)


def test_birkhoff_sum_cat_two_steps():
    fam = make_family("random-cat")
    w = state_with_symbols(5, (0, 0))
    p = unit_tangent(w, point(0.0, 0.0), (1.0, 0.0))
    # product [[5,3],[3,2]] applied to (1,0) is (5,3)
    assert birkhoff_sum_phi(fam, p, 2) == pytest.approx(0.5 * math.log(34), abs=1e-12)


@pytest.mark.parametrize("name,params", ALL_FAMILIES)
def test_telescoping_identity(name, params):
    fam = make_family(name, params)
    for i in range(20):
        w = sample_base(bern(), 100 + i, 1)[0]
        x = ManifoldPoint(random_point(100 + i, 0, fam.manifold_dim))
        v = np.asarray(random_point(100 + i, 1, fam.manifold_dim)) - 0.5
        if np.linalg.norm(v) < 1e-6:
            v = np.ones(fam.manifold_dim)
        p = unit_tangent(w, x, v)
        n = 5 + (i % 20)
        s = birkhoff_sum_phi(fam, p, n)
        direct = math.log(np.linalg.norm(cocycle_product(fam, w, x, n) @ p.v))
        assert abs(s - direct) < 1e-9 * n


@pytest.mark.parametrize("name,params", ALL_FAMILIES)
def test_cocycle_identity(name, params):
    # D phi^{(n+k)} = D phi^{(k)} at the advanced point times D phi^{(n)}
    fam = make_family(name, params)
    for i in range(50):
        w = sample_base(bern(), 200 + i, 1)[0]
        x = ManifoldPoint(random_point(200 + i, 0, fam.manifold_dim))
        n = 1 + (i % 10)
        k = 1 + ((i * 7) % 10)
        full = cocycle_product(fam, w, x, n + k)
        first = cocycle_product(fam, w, x, n)
        mid_x = iterate(fam, w, x, n)[-1]
        mid_w = w
        for _ in range(n):
            mid_w = base_step(mid_w)
        second = cocycle_product(fam, mid_w, mid_x, k)
        combined = second @ first
        assert np.allclose(combined, full, rtol=1e-9, atol=1e-12)


def test_normalization_long_orbit():
    fam = make_family("random-cat")
    w = sample_base(bern(), 23, 1)[0]
    p = unit_tangent(w, point(0.2, 0.3), (0.6, 0.8))
    for _ in range(100_000):
        p = unit_tangent_step(fam, p)
        assert abs(sum(c * c for c in p.v) - 1.0) < 1e-12
