import hashlib
import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import randhyp.base as base
from randhyp import (BaseSystemSpec, ConfigurationError, UnsupportedOperationError,
                     WindowLimitError, base_inverse_step, base_step, sample_base,
                     symbol_at)
from randhyp.base import (STREAM_ANGLE, STREAM_POINT, STREAM_SAMPLE, STREAM_SYMBOL,
                          WINDOW_LIMIT, BaseState, _hashes, _mix64, _uniforms,
                          derive_seed, periodic_state, random_point, shift_by,
                          symbol_rows, symbol_window)
from randhyp.errors import ContractError


def bernoulli_half():
    return BaseSystemSpec.bernoulli([0.5, 0.5])


def test_dirac_step_is_identity():
    spec = BaseSystemSpec.dirac()
    w = sample_base(spec, 1, 1)[0]
    assert base_step(w) == w
    assert base_inverse_step(w) == w


def test_dirac_samples_identical():
    spec = BaseSystemSpec.dirac()
    a, b, c = sample_base(spec, 99, 3)
    assert a == b == c


def test_shift_identity_bernoulli():
    w = sample_base(bernoulli_half(), 7, 1)[0]
    wn = base_step(w)
    for k in range(-100, 101):
        assert symbol_at(wn, k) == symbol_at(w, k + 1)


def test_shift_identity_markov():
    spec = BaseSystemSpec.markov([[0.9, 0.1], [0.4, 0.6]])
    w = sample_base(spec, 3, 1)[0]
    wn = base_step(w)
    for k in range(-50, 51):
        assert symbol_at(wn, k) == symbol_at(w, k + 1)


def test_invertibility_on_symbols():
    w = sample_base(bernoulli_half(), 11, 1)[0]
    rt = base_inverse_step(base_step(w))
    for k in range(-100, 101):
        assert symbol_at(rt, k) == symbol_at(w, k)


def test_rotation_step_and_inverse():
    spec = BaseSystemSpec.rotation(0.5)
    w = sample_base(spec, 5, 1)[0]
    angle = w.angle
    stepped = base_step(w)
    assert stepped.angle == pytest.approx((angle + 0.5) % 1.0, abs=1e-15)
    assert base_inverse_step(stepped).angle == angle


def test_rotation_specific_angles():
    # construct by shifting until the angle matches the scenario
    spec = BaseSystemSpec.rotation(0.5)
    from randhyp.base import BaseState
    w = BaseState(spec, seed=0, origin_offset=0, angle0=0.25)
    assert base_step(w).angle == pytest.approx(0.75, abs=1e-15)
    assert base_inverse_step(BaseState(spec, 0, 0, angle0=0.75)).angle == pytest.approx(0.25, abs=1e-15)


def test_seed_determinism_and_query_order():
    w1 = sample_base(bernoulli_half(), 7, 2)
    w2 = sample_base(bernoulli_half(), 7, 2)
    # query in different orders; streams must agree position by position
    ks = list(range(-20, 21))
    a = [symbol_at(w1[0], k) for k in ks]
    b = [symbol_at(w2[0], k) for k in reversed(ks)][::-1]
    assert a == b
    assert [symbol_at(w1[1], k) for k in ks] == [symbol_at(w2[1], k) for k in ks]


def test_memoization_repeat_queries():
    w = sample_base(bernoulli_half(), 13, 1)[0]
    assert all(symbol_at(w, 5) == symbol_at(w, 5) for _ in range(10))


def test_window_matches_scalar():
    spec = BaseSystemSpec.markov([[0.5, 0.5], [0.2, 0.8]])
    for base_spec in (bernoulli_half(), spec):
        w = sample_base(base_spec, 21, 1)[0]
        win = symbol_window(w, -10, 10)
        assert list(win) == [symbol_at(w, k) for k in range(-10, 10)]


def test_rows_of_mixed_bernoulli_specs_are_each_states_window():
    # states of two specs cannot share one batched hash, so symbol_rows reads
    # each through its own source's window; the symbols must not change
    specs = (BaseSystemSpec.bernoulli([0.9, 0.1]), BaseSystemSpec.bernoulli([0.1, 0.9]))
    states = [shift_by(w, k) for spec in specs for w in sample_base(spec, 11, 3)
              for k in (-25, 0, 30)]
    rows = symbol_rows(states, -40, 40)
    for w, row in zip(states, rows):
        assert row.tobytes() == symbol_window(w, -40, 40).tobytes()
    assert len({row.tobytes() for row in rows}) == len(rows)


def test_bernoulli_frequency():
    # law of large numbers at position 0 over many sampled states
    ws = sample_base(bernoulli_half(), 7, 10_000)
    freq = np.mean([symbol_at(w, 0) == 0 for w in ws])
    assert abs(freq - 0.5) < 0.02


@pytest.mark.parametrize("positions", [range(-5, 6)])
def test_stationarity_three_sigma(positions):
    probs = (0.3, 0.7)
    spec = BaseSystemSpec.bernoulli(probs)
    n = 10_000
    ws = sample_base(spec, 123, n)
    for k in positions:
        freq = np.mean([symbol_at(w, k) == 0 for w in ws])
        se = np.sqrt(probs[0] * (1 - probs[0]) / n)
        assert abs(freq - probs[0]) < 3 * se + 1e-9


def test_markov_stationarity():
    t = [[0.9, 0.1], [0.4, 0.6]]
    spec = BaseSystemSpec.markov(t)
    pi = np.asarray(spec.stationary)
    assert pi == pytest.approx([0.8, 0.2], abs=1e-12)
    n = 10_000
    ws = sample_base(spec, 17, n)
    for k in range(-5, 6):
        freq = np.mean([symbol_at(w, k) == 0 for w in ws])
        se = np.sqrt(pi[0] * (1 - pi[0]) / n)
        assert abs(freq - pi[0]) < 3 * se + 1e-9


def test_markov_transition_consistency():
    t = [[0.9, 0.1], [0.4, 0.6]]
    spec = BaseSystemSpec.markov(t)
    ws = sample_base(spec, 29, 4000)
    counts = np.zeros((2, 2))
    for w in ws:
        for k in range(-3, 3):
            counts[symbol_at(w, k), symbol_at(w, k + 1)] += 1
    rows = counts / counts.sum(axis=1, keepdims=True)
    assert np.allclose(rows, t, atol=0.03)


def test_reducible_markov_rejected():
    with pytest.raises(ConfigurationError):
        BaseSystemSpec.markov([[1.0, 0.0], [0.0, 1.0]])


def test_bad_probabilities_rejected():
    with pytest.raises(ConfigurationError) as err:
        BaseSystemSpec.bernoulli([0.5, 0.4])
    assert "sum to 1" in str(err.value)


@pytest.mark.parametrize("make", [
    lambda: BaseSystemSpec.bernoulli([math.nan, 1.0]),
    lambda: BaseSystemSpec.bernoulli([0.5, math.inf]),
    lambda: BaseSystemSpec.markov([[math.nan, 1.0], [0.5, 0.5]]),
], ids=["bernoulli-nan", "bernoulli-inf", "markov-nan"])
def test_non_finite_probabilities_rejected(make):
    with pytest.raises(ConfigurationError):
        make()


def test_window_limit():
    w = sample_base(bernoulli_half(), 7, 1)[0]
    with pytest.raises(WindowLimitError):
        symbol_at(w, 1_000_001)
    far = shift_by(w, 999_999)
    with pytest.raises(WindowLimitError):
        symbol_at(far, 2)


def test_rotation_has_no_symbols():
    w = sample_base(BaseSystemSpec.rotation(0.1234), 2, 1)[0]
    with pytest.raises(UnsupportedOperationError):
        symbol_at(w, 0)


def test_shift_states_have_no_angle():
    w = sample_base(bernoulli_half(), 2, 1)[0]
    with pytest.raises(UnsupportedOperationError, match="rotation bases only"):
        base.rotation_angles([w], 0, 3)


@pytest.mark.parametrize("word", [(0, 2), (-1,), ()])
def test_periodic_word_must_lie_in_the_alphabet(word):
    with pytest.raises(ConfigurationError, match="word symbols must lie in the alphabet"):
        periodic_state(2, word)


def test_sample_determinism_bitwise():
    a = sample_base(bernoulli_half(), 7, 2)
    b = sample_base(bernoulli_half(), 7, 2)
    for w1, w2 in zip(a, b):
        assert [symbol_at(w1, k) for k in range(-50, 50)] == \
               [symbol_at(w2, k) for k in range(-50, 50)]


def test_window_edges_match_symbol_at():
    w = sample_base(BaseSystemSpec.markov([[0.9, 0.1], [0.3, 0.7]]), 5, 1)[0]
    assert list(symbol_window(w, 999_990, 1_000_001)) == [
        symbol_at(w, k) for k in range(999_990, 1_000_001)]
    with pytest.raises(WindowLimitError):
        symbol_window(w, 999_990, 1_000_002)


SAMPLE_SPECS = {
    "bernoulli": BaseSystemSpec.bernoulli([0.2, 0.3, 0.5]),
    "markov": BaseSystemSpec.markov([[0.9, 0.1], [0.3, 0.7]]),
    "rotation": BaseSystemSpec.rotation(0.6180339887498949),
    "dirac": BaseSystemSpec.dirac(),
}


def state_by_index(spec, seed, i):
    """Sample i of sample_base(spec, seed, ...), hashed on its own."""
    if spec.kind == "dirac":
        return BaseState(spec, seed)
    sub = derive_seed(seed, STREAM_SAMPLE, i)
    angle0 = float(_uniforms(sub, STREAM_ANGLE, 0)) if spec.kind == "rotation" else 0.0
    return BaseState(spec, sub, 0, angle0=angle0)


@pytest.mark.parametrize("seed", [-1, 0, 7, 2 ** 64 - 1])
@pytest.mark.parametrize("count", [1, 500])
@pytest.mark.parametrize("kind", SAMPLE_SPECS)
def test_batched_sampling_matches_states_built_one_by_one(kind, count, seed):
    spec = SAMPLE_SPECS[kind]
    for i, w in enumerate(sample_base(spec, seed, count)):
        ref = state_by_index(spec, seed, i)
        assert w.describe() == ref.describe()
        assert type(w.seed) is int
        if kind == "rotation":
            assert w.angle == ref.angle
        else:
            assert np.array_equal(symbol_window(w, -64, 64), symbol_window(ref, -64, 64))


def test_sampled_states_pinned_at_a_negative_seed():
    # seed -1 is 2^64 - 1 modulo 2^64; these values predate batched sampling
    ws = sample_base(SAMPLE_SPECS["markov"], -1, 3)
    assert [w.describe() for w in ws] == [
        "markov:7647512804587202476@0", "markov:5137479938701114785@0",
        "markov:5634008852960791372@0"]
    assert ["".join(map(str, symbol_window(w, -8, 8))) for w in ws] == [
        "0000000000001111", "1110000000110000", "0000000000000000"]
    ws = sample_base(SAMPLE_SPECS["rotation"], 2 ** 64 - 1, 3)
    assert [w.angle for w in ws] == [0.05380702845165575, 0.6598948826945339,
                                     0.5399307988314591]


def test_sampled_states_share_their_specs_tables():
    markov, bernoulli = SAMPLE_SPECS["markov"], SAMPLE_SPECS["bernoulli"]
    _, fwd, rev, _ = markov.tables
    for w in sample_base(markov, 3, 5) + [BaseState(markov, 11)]:
        assert w._source.fwd_cdf is fwd and w._source.rev_cdf is rev
    assert all(w._source.thresholds is bernoulli.tables[3] for w in sample_base(bernoulli, 3, 5))
    # the tables stay out of equality, hashing and repr
    again = BaseSystemSpec.markov([[0.9, 0.1], [0.3, 0.7]])
    assert again == markov and hash(again) == hash(markov)
    assert again.tables[1] is not fwd and "tables" not in repr(markov)
    assert symbol_window(BaseState(markov, 11), 0, 1)[0] == int(
        np.searchsorted(markov.tables[0], _uniforms(11, STREAM_SYMBOL, 0), side="right"))


@pytest.mark.parametrize("spec", [
    BaseSystemSpec.bernoulli([0.1] * 10),
    BaseSystemSpec.markov([[0.1] * 10] * 10),
])
def test_cdf_tables_end_at_one(spec):
    # float cumsums of [0.1] * 10 end at 0.9999999999999999 (0.9999999999999998
    # for the reversed rows); the largest uniform, 1 - 2^-53, must still draw
    # a symbol of the alphabet
    cdf, fwd, rev, _ = spec.tables
    for row in [cdf] + (fwd or []) + (rev or []):
        assert row[-1] == 1.0
        assert bisect_right(row, 1 - 2 ** -53) < spec.alphabet_size


def float_cdf_draw(spec, h):
    """The symbols the float CDF draws for hashes h: the searched uniforms
    (h >> 11) * 2^-53."""
    us = (h >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    return np.searchsorted(spec.tables[0], us, side="right")


@settings(max_examples=300, deadline=None)
@given(weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-9, 1.0)), min_size=2,
                        max_size=10).filter(any),
       hashes=st.lists(st.integers(0, 2 ** 64 - 1), max_size=20))
@example(weights=[0.1] * 10, hashes=[])
@example(weights=[0.25, 0.0, 0.75], hashes=[])     # a repeated threshold
@example(weights=[0.5, 0.5, 0.0], hashes=[])       # a CDF entry at 1.0 before the last
@example(weights=[0.0, 1.0], hashes=[])            # the threshold 0
@example(weights=[1.0, 0.0], hashes=[])            # no threshold at all
def test_threshold_draw_is_the_float_cdf_draw(weights, hashes):
    spec = BaseSystemSpec.bernoulli([w / sum(weights) for w in weights])
    cdf, _, _, thresholds = spec.tables
    assert thresholds.dtype == np.uint64 and len(thresholds) == np.sum(cdf < 1.0)
    edges = [int(t) + d for t in thresholds for d in (-1, 0, 1)] + [0, 2 ** 64 - 1]
    h = np.array([v for v in edges + hashes if 0 <= v < 2 ** 64], dtype=np.uint64)
    with pytest.MonkeyPatch.context() as mp:    # draw from the chosen hashes
        mp.setattr(base, "_hashes", lambda seed, stream, positions: h)
        drawn = sample_base(spec, 7, 1)[0]._source.symbols(None)
    assert drawn.dtype == np.int64
    assert drawn.tolist() == float_cdf_draw(spec, h).tolist()
    states = sample_base(spec, 7, 3)            # and from hashed positions
    h = _hashes(np.array([w.seed for w in states], dtype=np.uint64)[:, None],
                STREAM_SYMBOL, np.arange(-50, 50))
    assert symbol_rows(states, -50, 50).tolist() == float_cdf_draw(spec, h).tolist()


def test_mix64_leaves_its_argument_and_agrees_with_its_scalar_form():
    # a scalar is mixed by operators, an array by ufuncs with out=
    fixed = np.array([0, 1, 2 ** 63, 2 ** 64 - 1, 0x9E3779B97F4A7C15], dtype=np.uint64)
    z = np.concatenate([fixed, np.random.default_rng(11).integers(
        0, 2 ** 64 - 1, size=2000, dtype=np.uint64, endpoint=True)])
    before = z.tobytes()
    positions = np.arange(-5, 5)
    with np.errstate(over="ignore"):
        mixed, scalars = _mix64(z), [_mix64(v) for v in z]
    _hashes(7, STREAM_SYMBOL, positions)
    assert z.tobytes() == before
    assert positions.tolist() == list(range(-5, 5))
    assert all(type(v) is np.uint64 for v in scalars)
    assert mixed.tobytes() == np.array(scalars, dtype=np.uint64).tobytes()
    assert int(scalars[0]) == 0xE220A8397B1DCDAF     # SplitMix64's first output at state 0


@pytest.mark.parametrize("probabilities, digest", [
    ([0.5, 0.5], "7308001322c5c95249c0626a995b290d122f64cc3db1f771e3b74e901a3ec0b3"),
    ([0.25, 0.0, 0.75], "eddae3b8d3993146dc594eda204969dbe2ac59cc9bb0a51ae3bbf1bce00a14f7"),
    ([0.1] * 10, "126da2ea4677119a29f3b18d906f7eaf51f561e13de898be37ec2d623fe6aa5e"),
])
def test_symbol_rows_pinned(probabilities, digest):
    # recorded with the float CDF draw, before symbols were drawn by thresholds
    states = sample_base(BaseSystemSpec.bernoulli(probabilities), 7, 3)
    sha = hashlib.sha256()
    for lo, hi in ((-10_000, 10_000), (-WINDOW_LIMIT, 100 - WINDOW_LIMIT),
                   (WINDOW_LIMIT - 99, WINDOW_LIMIT + 1)):
        rows = symbol_rows(states, lo, hi)
        assert rows.dtype == np.int64 and rows.shape == (3, hi - lo)
        sha.update(rows.tobytes())
    assert sha.hexdigest() == digest


@pytest.mark.parametrize("make", [
    lambda: sample_base(bernoulli_half(), 7, 2),
    lambda: sample_base(BaseSystemSpec.markov([[0.9, 0.1], [0.3, 0.7]]), 7, 2),
    lambda: sample_base(BaseSystemSpec.dirac(), 7, 2),
    lambda: [periodic_state(2, (0, 1)), periodic_state(3, (2,))],
], ids=["bernoulli", "markov", "dirac", "periodic"])
def test_reversed_window_raises(make):
    states = make()
    with pytest.raises(ContractError, match="^hi must be >= lo"):
        symbol_rows(states, 5, 3)
    with pytest.raises(ContractError, match="^hi must be >= lo"):
        symbol_window(states[0], 0, -1)
    assert symbol_rows(states, 4, 4).shape == (2, 0)    # an empty window is legal


@pytest.mark.parametrize("indices", [range(0, 6, 2), range(5, -1, -2), range(3, 9),
                                     range(4, 4)])
def test_random_point_rows_are_the_points_of_the_ranges_indices(indices):
    points = random_point(7, indices, 2)
    assert points.shape == (len(indices), 2)
    assert [tuple(p) for p in points.tolist()] == [random_point(7, i, 2) for i in indices]
    if indices.step == 1:       # the bytes of the one-hash-call form
        flat = _uniforms(7, STREAM_POINT, np.arange(indices.start * 2, indices.stop * 2))
        assert points.tobytes() == flat.tobytes()
