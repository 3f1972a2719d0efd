import math

import numpy as np
import pytest

from randhyp import (BaseSystemSpec, ContractError, UnsupportedOperationError,
                     bundle_rates, finite_time_bundles, hyperbolicity_certificate,
                     invariance_residual, make_family, oseledets_spectrum,
                     point, sample_base, top_exponent, unit_tangent)
from randhyp.base import random_point, shift_by
from randhyp.cocycle import push_log_stretches
from randhyp.fibers import LinearTorusFamily, ManifoldPoint
from randhyp.lyapunov import _batch_cuts, _batch_stats

CAT_RATE = math.log((3 + math.sqrt(5)) / 2)
GOLD = (math.sqrt(5) - 1) / 2          # unstable eigvec slope of [[2,1],[1,1]]


def dirac():
    return sample_base(BaseSystemSpec.dirac(), 0, 1)[0]


def bern_spec():
    return BaseSystemSpec.bernoulli([0.5, 0.5])


def det_cat():
    return make_family("random-cat", {"matrices": [[[2, 1], [1, 1]]]})


def angle_between(u, v):
    u = np.asarray(u) / np.linalg.norm(u)
    v = np.asarray(v) / np.linalg.norm(v)
    return math.acos(min(1.0, abs(float(u @ v))))


def test_deterministic_cat_bundles_golden():
    pair = finite_time_bundles(det_cat(), dirac(), point(0.0, 0.0), 25)
    unstable = np.array([1.0, GOLD])
    stable = np.array([1.0, -(math.sqrt(5) + 1) / 2])
    assert angle_between(pair.gamma2, unstable) < 1e-8
    assert angle_between(pair.gamma1, stable) < 1e-8
    # symmetric matrix: eigenvectors are orthogonal, so the angle is pi/2
    assert pair.angle == pytest.approx(math.pi / 2, abs=1e-10)


def test_diagonal_bundles_exact_axes():
    fam = make_family("diagonal-cocycle", {"a_values": [2.0], "b_values": [0.5]})
    pair = finite_time_bundles(fam, dirac(), point(0.0, 0.0), 10)
    assert pair.gamma2 == pytest.approx((1.0, 0.0), abs=1e-15)
    assert pair.gamma1 == pytest.approx((0.0, 1.0), abs=1e-15)
    assert pair.angle == pytest.approx(math.pi / 2, abs=1e-15)


def test_horizon_self_consistency_random_cat():
    fam = make_family("random-cat")
    for i in range(10):
        w = sample_base(bern_spec(), 100 + i, 1)[0]
        p40 = finite_time_bundles(fam, w, point(0.1, 0.2), 40)
        p60 = finite_time_bundles(fam, w, point(0.1, 0.2), 60)
        assert angle_between(p40.gamma2, p60.gamma2) < 1e-6
        assert angle_between(p40.gamma1, p60.gamma1) < 1e-6


def test_horizon_convergence_is_exponential():
    # at short horizons the drift is visible and shrinks when doubled
    fam = make_family("random-cat")
    ref_h = 80
    for i in range(10):
        w = sample_base(bern_spec(), 500 + i, 1)[0]
        ref = finite_time_bundles(fam, w, point(0.1, 0.2), ref_h)
        p6 = finite_time_bundles(fam, w, point(0.1, 0.2), 6)
        p12 = finite_time_bundles(fam, w, point(0.1, 0.2), 12)
        err6 = angle_between(p6.gamma2, ref.gamma2)
        err12 = angle_between(p12.gamma2, ref.gamma2)
        assert err12 <= err6 + 1e-12


def test_invariance_residual_deterministic_cat():
    pair = finite_time_bundles(det_cat(), dirac(), point(0.0, 0.0), 40)
    res = invariance_residual(det_cat(), dirac(), point(0.0, 0.0), pair)
    assert res < 1e-10


def test_invariance_residual_diagonal_zero():
    fam = make_family("diagonal-cocycle", {"a_values": [2.0], "b_values": [0.5]})
    pair = finite_time_bundles(fam, dirac(), point(0.0, 0.0), 10)
    assert invariance_residual(fam, dirac(), point(0.0, 0.0), pair) == 0.0


def test_invariance_residual_random_cat_samples():
    fam = make_family("random-cat")
    worst = 0.0
    for i in range(100):
        w = sample_base(bern_spec(), 300 + i, 1)[0]
        pair = finite_time_bundles(fam, w, point(0.3, 0.8), 50)
        worst = max(worst, invariance_residual(fam, w, point(0.3, 0.8), pair))
    assert worst < 1e-6


def test_residual_shrinks_with_horizon():
    fam = make_family("random-cat")
    w = sample_base(bern_spec(), 55, 1)[0]
    x = point(0.2, 0.6)
    res_small = invariance_residual(fam, w, x, finite_time_bundles(fam, w, x, 8))
    res_big = invariance_residual(fam, w, x, finite_time_bundles(fam, w, x, 30))
    assert res_big <= res_small + 1e-12


def test_bundle_rates_deterministic_cat():
    pair = finite_time_bundles(det_cat(), dirac(), point(0.0, 0.0), 30)
    rates = bundle_rates(det_cat(), dirac(), point(0.0, 0.0), pair, 1000)
    assert rates.rate1 == pytest.approx(CAT_RATE, abs=1e-3)
    assert rates.rate2 == pytest.approx(CAT_RATE, abs=1e-3)
    assert rates.c1 > 0 and rates.c2 > 0


def test_bundle_rates_diagonal_exact():
    fam = make_family("diagonal-cocycle", {"a_values": [2.0], "b_values": [0.5]})
    pair = finite_time_bundles(fam, dirac(), point(0.0, 0.0), 10)
    rates = bundle_rates(fam, dirac(), point(0.0, 0.0), pair, 100)
    assert rates.rate1 == pytest.approx(math.log(2), abs=1e-12)
    assert rates.rate2 == pytest.approx(math.log(2), abs=1e-12)


def test_rate2_matches_top_exponent():
    fam = make_family("random-cat")
    w = sample_base(bern_spec(), 71, 1)[0]
    x = point(0.5, 0.1)
    pair = finite_time_bundles(fam, w, x, 50)
    rates = bundle_rates(fam, w, x, pair, 10_000)
    top = top_exponent(fam, unit_tangent(w, x, (0.6, 0.8)), 10_000)
    assert abs(rates.rate2 - top.value) <= 3 * (top.batch_std_err + 1e-4)


def test_rate1_matches_bottom_exponent():
    fam = make_family("random-cat")
    w = sample_base(bern_spec(), 72, 1)[0]
    x = point(0.5, 0.1)
    pair = finite_time_bundles(fam, w, x, 50)
    rates = bundle_rates(fam, w, x, pair, 10_000)
    spectrum = oseledets_spectrum(fam, w, x, 10_000)
    assert rates.rate1 == pytest.approx(-spectrum.exponents[0], abs=0.02)


def test_angle_stays_above_threshold_along_orbit():
    fam = make_family("random-cat")
    w = sample_base(bern_spec(), 91, 1)[0]
    from randhyp.base import base_step
    state = w
    angles = []
    for _ in range(1000):
        pair = finite_time_bundles(fam, state, point(0.0, 0.0), 25)
        angles.append(pair.angle)
        state = base_step(state)
    assert min(angles) > 0.1


def test_certificate_random_cat():
    fam = make_family("random-cat")
    cert = hyperbolicity_certificate(fam, bern_spec(), 13, samples=20,
                                     horizon=50, n=4000)
    assert cert.verdict == "certified"
    assert cert.invariance_residual_max < 1e-6
    assert cert.angle_min > 0.1
    assert cert.lam > 0
    assert all(c1 > 0 and c2 > 0 for (_, c1, c2) in cert.c_samples)


def test_certificate_payload_shape():
    fam = make_family("random-cat")
    cert = hyperbolicity_certificate(fam, bern_spec(), 13, samples=4,
                                     horizon=30, n=500)
    payload = cert.to_payload()
    assert set(payload) >= {"lambda", "c_samples", "angle_min",
                            "invariance_residual_max", "verdict"}
    assert list(cert.details) == ["horizon", "n", "samples", "rate1_mean",
                                  "rate2_mean", "per_sample"]
    rec = cert.details["per_sample"][0]
    assert set(rec) == {"omega", "x", "angle", "residual", "rate1", "rate1_se",
                       "rate2", "rate2_se", "top_exponent", "top_se"}


@pytest.mark.parametrize("batches, verdict", [(1, "inconclusive"),
                                              (20, "certified")])
def test_single_batch_certificate_is_inconclusive(batches, verdict):
    # one batch gives every rate a zero standard error: no error bar
    fam = make_family("random-cat")
    cert = hyperbolicity_certificate(fam, bern_spec(), 13, samples=4,
                                     horizon=30, n=500, batches=batches)
    assert cert.verdict == verdict


def test_unsupported_families_rejected():
    with pytest.raises(UnsupportedOperationError):
        finite_time_bundles(make_family("doubling"), dirac(), point(0.1), 10)
    with pytest.raises(UnsupportedOperationError):
        hyperbolicity_certificate(make_family("doubling"), BaseSystemSpec.dirac(),
                                  1, samples=2, horizon=10, n=100)


TORUS = {"random-cat": {},
         "diagonal-cocycle": {"a_values": [2.0, 0.5], "b_values": [3.0, 4.0]}}
BASES = {
    "dirac": BaseSystemSpec.dirac(),
    "bernoulli": BaseSystemSpec.bernoulli([0.5, 0.5]),
    "markov": BaseSystemSpec.markov([[0.9, 0.1], [0.3, 0.7]]),
    "rotation": BaseSystemSpec.rotation(0.6180339887498949),
}
# (family, base, horizon, n, batches); batches divide n, so the batch mean
# is bundle_rates' mean over all n steps
PASS_CASES = ([(f, b, 12, 400, 4) for f in TORUS for b in BASES]
              + [("random-cat", "markov", 40, 30, 3)])


def _public_per_sample(fam, spec, seed, samples, horizon, n, batches, depth, lam):
    """The certificate's per-sample values from the public functions."""
    recs, cs = [], []
    for i, w in enumerate(sample_base(spec, seed, samples)):
        x = ManifoldPoint(random_point(seed, i, 2))
        pair = finite_time_bundles(fam, w, x, horizon)
        grow1, grow2 = push_log_stretches(
            np.concatenate([fam.matrices, fam.inverses]),
            [fam.params_along([shift_by(w, -n)], n)[0, ::-1] + len(fam.matrices),
             fam.params_along([w], n)[0]], [pair.gamma1, pair.gamma2],
            _batch_cuts(n, batches))
        rates = bundle_rates(fam, w, x, pair, n, lam=lam, depth=depth)
        v = np.asarray(random_point(seed, samples + i, 2)) - 0.5
        top = top_exponent(fam, unit_tangent(w, x, v), n, batches)
        recs.append((pair.angle, invariance_residual(fam, w, x, pair),
                     rates.rate1, _batch_stats(grow1, n // batches)[1],
                     rates.rate2, _batch_stats(grow2, n // batches)[1],
                     top.value, top.batch_std_err))
        cs.append((w.describe(), rates.c1, rates.c2))
    return recs, cs


@pytest.mark.parametrize("family, base, horizon, n, batches", PASS_CASES)
def test_certificate_pass_matches_public_functions(family, base, horizon, n,
                                                  batches):
    fam = make_family(family, TORUS[family])
    seed, samples, depth = 5, 3, 10
    cert = hyperbolicity_certificate(fam, BASES[base], seed, samples, horizon,
                                     n, depth=depth, batches=batches)
    got = [tuple(r[k] for k in ("angle", "residual", "rate1", "rate1_se",
                                "rate2", "rate2_se", "top_exponent", "top_se"))
           for r in cert.details["per_sample"]]
    want, want_c = _public_per_sample(fam, BASES[base], seed, samples, horizon,
                                      n, batches, depth, cert.lam)
    assert repr(got) == repr(want)          # byte for byte, nan included
    assert repr(list(cert.c_samples)) == repr(want_c)


@pytest.mark.parametrize("horizon, n", [(12, 400), (40, 30)])
def test_certificate_reads_each_position_once(horizon, n, monkeypatch):
    reads, read = [], LinearTorusFamily.params_along

    def counted(self, omegas, k):
        reads.append(len(omegas) * k)
        return read(self, omegas, k)
    monkeypatch.setattr(LinearTorusFamily, "params_along", counted)
    hyperbolicity_certificate(make_family("random-cat"), bern_spec(), 5,
                              samples=3, horizon=horizon, n=n, depth=10, batches=3)
    # one read of positions -horizon..horizon for every sample's bundles,
    # then one of -n..n-1 per sample for its pushes
    assert reads == [3 * (2 * horizon + 1)] + [2 * n] * 3


@pytest.mark.parametrize("base", ["bernoulli", "markov", "rotation", "dirac"])
def test_a_samples_record_does_not_depend_on_the_batch(base):
    import randhyp.splitting as sp
    fam = make_family("random-cat")

    def first_two(samples):
        cert = hyperbolicity_certificate(fam, BASES[base], 5, samples, horizon=12,
                                         n=40, depth=10, batches=4)
        # the top-exponent start vector of sample i is indexed samples + i
        return [{k: v for k, v in r.items() if k not in ("top_exponent", "top_se")}
                for r in cert.details["per_sample"][:2]]
    assert repr(first_two(2)) == repr(first_two(4))

    ws = sample_base(BASES[base], 9, 3)
    for ks, h in [((0, 1, 3), 5), ((0,), 7)]:
        back, fwd = sp._windows(fam, ws, ks, h)
        one_state = [sp._windows(fam, [w], ks, h) for w in ws]
        assert np.array_equal(back, np.concatenate([o[0] for o in one_state]))
        assert np.array_equal(fwd, np.concatenate([o[1] for o in one_state]))


@pytest.mark.parametrize("horizon, depth", [(12, 20), (20, 12)])
@pytest.mark.parametrize("base", ["bernoulli", "markov", "rotation", "dirac"])
def test_bundle_pairs_batch_matches_per_offset(base, horizon, depth):
    # the batched windows and bundles at offsets k >= 1 are those of T^k w:
    # bundles at the horizon, push windows at the depth
    import randhyp.splitting as sp
    fam = make_family("random-cat")
    w = sample_base(BASES[base], 9, 1)[0]
    ks = np.arange(1, 7)
    pairs = sp._bundle_pairs(fam, *sp._windows(fam, [w], ks, horizon))
    back, fwd = sp._windows(fam, [w], ks, depth)
    for k, pair, b, f in zip(ks, pairs, back, fwd):
        state = shift_by(w, int(k))
        assert repr(pair) == repr(finite_time_bundles(fam, state, point(0.0, 0.0),
                                                      horizon))
        assert np.array_equal(b, fam.params_along([shift_by(state, -depth)], depth)[0, ::-1])
        assert np.array_equal(f, fam.params_along([state], depth)[0])


def test_fewer_steps_than_batches_rejected_before_any_read(monkeypatch):
    def no_read(self, omegas, k):
        raise AssertionError("index stream read before the batch check")
    monkeypatch.setattr(LinearTorusFamily, "params_along", no_read)
    with pytest.raises(ContractError, match="n >= batches"):
        hyperbolicity_certificate(make_family("random-cat"), bern_spec(), 1,
                                  samples=2, horizon=10, n=5, batches=20)
