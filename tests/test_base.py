import math
from bisect import bisect_right

import numpy as np
import pytest

from randhyp import (BaseSystemSpec, ConfigurationError, UnsupportedOperationError,
                     WindowLimitError, base_inverse_step, base_step, sample_base,
                     symbol_at)
from randhyp.base import (STREAM_ANGLE, STREAM_SAMPLE, STREAM_SYMBOL, BaseState,
                          _uniforms, derive_seed, shift_by, symbol_rows, symbol_window)


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
    _, fwd, rev = markov.tables
    for w in sample_base(markov, 3, 5) + [BaseState(markov, 11)]:
        assert w._source.fwd_cdf is fwd and w._source.rev_cdf is rev
    assert all(w._source.cdf is bernoulli.tables[0] for w in sample_base(bernoulli, 3, 5))
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
    cdf, fwd, rev = spec.tables
    for row in [cdf] + (fwd or []) + (rev or []):
        assert row[-1] == 1.0
        assert bisect_right(row, 1 - 2 ** -53) < spec.alphabet_size
