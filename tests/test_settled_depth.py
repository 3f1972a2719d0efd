"""Tempered-constant windows cut to their settled depth: the same log C and
attained n as the full-depth sweep, from fewer grid steps."""

import json

import numpy as np
from hypothesis import example, given, settings, strategies as st

from randhyp import BaseSystemSpec, make_family, parse_config, run_task, sample_base
from randhyp.expansion import (_brackets, build_expansion_certificate, settled_depths,
                               truncated_infimum)
from randhyp.fibers import CircleFamily, param_windows


def full_depth(family, windows, lam, grid_size):
    """`truncated_infimum` of the uncut windows' lowers: what the cut must give."""
    _, lowers = _brackets(family, windows, [windows.shape[1]] * len(windows), grid_size)
    return truncated_infimum(lowers, lam)


def cut(family, windows, lam, grid_size):
    """The same from each window swept only to its settled depth."""
    _, lowers = _brackets(family, windows, settled_depths(family, windows, lam, grid_size),
                          grid_size)
    return truncated_infimum(lowers, lam)


def test_bernoulli_linear_samples_equal_the_full_depth_infimum():
    # multipliers 0.5 and 4 attain their infimum anywhere from n = 1 to the
    # depth, so the rows settle at many depths
    fam = make_family("bernoulli-linear", {"values": [0.5, 4.0]})
    spec = BaseSystemSpec.bernoulli([0.5, 0.5])
    cert = build_expansion_certificate(fam, spec, 7, depth=8, curve_n_max=8,
                                       supadd_samples=2, supadd_N=6)
    windows = param_windows(fam, sample_base(spec, 7, 20), [([0], 8)])[0]
    log_c, ks = full_depth(fam, windows, cert.lam, 4096)
    assert [(lc, k) for (_, _, lc, k) in cert.c_samples] == list(zip(log_c.tolist(),
                                                                    ks.tolist()))
    assert min(ks) == 1 and max(ks) == 8
    depths = settled_depths(fam, windows, cert.lam, 4096)
    assert np.all(depths >= ks) and depths.min() < 8


# parameter alphabets: eps in [0, eps_max] and torus matrix indices
FAMILIES = {
    "perturbed-doubling": (make_family("perturbed-doubling"),
                           st.one_of(st.sampled_from([0.0, 0.05, 0.1]),
                                     st.floats(0.0, 0.1))),
    "diagonal-cocycle": (make_family("diagonal-cocycle",
                                     {"a_values": [1.1, 2.0, 0.9],
                                      "b_values": [1.3, 1.5, 4.0]}),
                         st.sampled_from([0, 1, 2])),
}


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(FAMILIES)))
    fam, params = FAMILIES[name]
    depth = draw(st.integers(1, 20))
    rows = draw(st.lists(st.lists(params, min_size=depth, max_size=depth),
                         min_size=1, max_size=6))
    return (name, np.array(rows, dtype=np.float64 if fam.manifold_dim == 1 else np.int64),
            draw(st.sampled_from([64, 65, 127, 128])),
            draw(st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                           st.integers(2, 20))))


@settings(max_examples=80, deadline=None)
@given(cases())
@example(("perturbed-doubling", np.zeros((2, 12)), 65, 1.0 - 2.0 ** -52))
@example(("perturbed-doubling", np.full((1, 20), 0.1), 64, 7))
@example(("diagonal-cocycle", np.ones((2, 20), np.int64), 64, 3))   # needs eta
@example(("diagonal-cocycle", np.tile([1, 2], (3, 10)), 64, 1.0 - 2.0 ** -52))
def test_cut_windows_give_the_full_depth_bytes(case):
    # lambda is a share of A, the rows' mean full-depth rate, or the slope
    # that ties the first row's term m with its term 1 in floats, where
    # rounding alone picks the attained n; an odd grid leaves
    # min_deriv_x = 1/2 off the grid
    name, windows, grid_size, pick = case
    fam = FAMILIES[name][0]
    uppers, lowers = _brackets(fam, windows, [windows.shape[1]] * len(windows), grid_size)
    a_rate = uppers[:, -1].mean() / windows.shape[1]
    m = min(pick, windows.shape[1]) if isinstance(pick, int) else None
    lam = (pick * a_rate if m is None else m > 1
           and (lowers[0, m - 1] - lowers[0, 0]) / (m - 1))
    if not 0.0 < lam < a_rate:
        return
    got, want = cut(fam, windows, lam, grid_size), full_depth(fam, windows, lam, grid_size)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


# the benchmark's certify-fine config at seed 7
CERTIFY_FINE = {"task": "certify-expansion", "seed": 7,
                "base": {"kind": "rotation", "rotation_number": 0.6180339887498949},
                "fiber": {"family": "perturbed-doubling", "params": {"eps_max": 0.1}},
                "task_params": {"grid_size": 65536, "samples": 4, "supadd_samples": 2,
                                "curve_n_max": 32}}


def counted_steps(monkeypatch):
    """The lengths of the parameter runs of every circle `sweep_steps` call."""
    steps, sweep_steps = [], CircleFamily.sweep_steps

    def counted(self, ps, state, own, leaf):
        steps.append(len(ps))
        return sweep_steps(self, ps, state, own, leaf)

    monkeypatch.setattr(CircleFamily, "sweep_steps", counted)
    return steps


def test_certify_fine_sweeps_a_third_of_its_grid_steps(monkeypatch):
    # 1 248 grid steps at full depth, where all 132 tempered-constant
    # windows settle at n = 1
    steps = counted_steps(monkeypatch)
    payload = json.loads(run_task(parse_config(json.dumps(CERTIFY_FINE))).payload_bytes())
    assert {c["attained_n"] for c in payload["payload"]["c_samples"]} == {1}
    assert 0 < sum(steps) <= 1248 // 3


def grid_work(monkeypatch, config, grid_size):
    """Grid steps, grid `cos` and grid `sin` of one run of `config`."""
    points = grid_size // 2 + 1
    calls = {"sin": 0, "cos": 0}

    def counted(name, f):
        def call(x, *args, **kwargs):
            calls[name] += np.shape(x) == (points,)
            return f(x, *args, **kwargs)
        return call

    monkeypatch.setattr(np, "sin", counted("sin", np.sin))
    monkeypatch.setattr(np, "cos", counted("cos", np.cos))
    steps = counted_steps(monkeypatch)
    run_task(parse_config(json.dumps(config)))
    return sum(steps), calls["cos"], calls["sin"]


def test_certify_fine_evaluates_no_grid_trig_at_root_steps(monkeypatch):
    # 158 of its 312 grid steps start a trie root, each at its own nonzero
    # eps: they read the start grid's sin and cos, evaluated once per engine
    # call, instead of evaluating a grid cos and most a grid sin.  22 of the
    # roots are supadditivity rows at offsets 1..11, swept in the rate's
    # call; in the curve's call each would extend a curve window's root, and
    # its first step would evaluate trig
    steps, cos, sin = grid_work(monkeypatch, CERTIFY_FINE, 65536)
    assert steps == 312
    assert cos <= 156 and sin <= 132


CERTIFY_CIRCLE = {"task": "certify-expansion", "seed": 7,
                  "base": {"kind": "bernoulli", "probabilities": [0.5, 0.5]},
                  "fiber": {"family": "perturbed-doubling", "params": {"eps_max": 0.1}}}


def test_certify_circle_sweeps_each_rate_prefix_once(monkeypatch):
    # the supadditivity rows at offset 0 are prefixes of the rate windows,
    # so they cost no grid step in the rate's call; 2 507 of the 2 580
    # constant and curve windows are cut to depth 1, so the curve's call
    # shares few prefixes with them
    steps, cos, sin = grid_work(monkeypatch, CERTIFY_CIRCLE, 4096)
    assert steps == 287
    assert cos <= 139 and sin <= 120
