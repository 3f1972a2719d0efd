import inspect
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import randhyp
from randhyp import (BaseSystemSpec, ConfigurationError, ContractError,
                     ExperimentConfig, enumerate_periodic_orbits, make_family,
                     oseledets_spectrum, parse_config, run_task, sample_base,
                     supadditivity_residuals, sweep_windows)
from randhyp.base import BASE_CATALOG, random_point
from randhyp.cli import main
from randhyp.config import TASK_DEFAULTS, TASKS
from randhyp.ergodic import MAX_PERIOD
from randhyp.expansion import MAX_SUPADD_N, MIN_GRID, certified_depth
from randhyp.fibers import FAMILY_CATALOG, ManifoldPoint

HUGE = 10 ** 400   # a JSON integer with no float value

DOUBLING_FULL = {
    "task": "full-pipeline",
    "seed": 7,
    "base": {"kind": "dirac"},
    "fiber": {"family": "doubling"},
}


def test_parse_minimal_config_fills_defaults():
    cfg = parse_config(json.dumps(DOUBLING_FULL))
    assert cfg.task == "full-pipeline"
    assert cfg.seed == 7
    assert cfg.task_params["samples"] == 10
    assert cfg.task_params["grid_size"] == 1024
    assert cfg.echo["task_params"]["samples"] == 10
    assert cfg.fiber.family_id == "doubling"


def test_parse_reports_all_errors_with_paths():
    bad = {
        "base": {"kind": "bernoulli", "alphabet_size": 2,
                 "probabilities": [0.5, 0.4]},
        "fiber": {"family": "no-such-map"},
        "task_params": {"grid_size": 2, "bogus": 1},
    }
    with pytest.raises(ConfigurationError) as err:
        parse_config(json.dumps(bad), task="lyapunov")
    msgs = err.value.errors
    assert any("base.probabilities" in m for m in msgs)
    assert any("fiber.family" in m for m in msgs)
    assert any("task_params.grid_size" in m for m in msgs)
    assert any("task_params.bogus" in m for m in msgs)
    assert any("seed" in m for m in msgs)
    assert len(msgs) >= 5


def test_cli_lambda_at_or_above_rate_exit_one(tmp_path, capsys):
    # A = log 2 for the doubling map; the certificate measures it
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(DOUBLING_FULL,
                                        task_params={"lambda": 0.8})))
    assert main(["full-pipeline", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: lambda must satisfy 0 < lambda < A = 0.69")
    assert err.count("\n") == 1


def test_parse_rejects_task_conflict():
    with pytest.raises(ConfigurationError) as err:
        parse_config(json.dumps(DOUBLING_FULL), task="lyapunov")
    assert any("conflicts" in m for m in err.value.errors)


def test_parse_rejects_non_json():
    with pytest.raises(ConfigurationError):
        parse_config("{not json")


def test_run_doubling_full_pipeline_exit_zero():
    cfg = parse_config(json.dumps(DOUBLING_FULL))
    report = run_task(cfg)
    assert report.verdict == "certified-expanding"
    assert report.exit_code == 0
    assert "expansion" in report.payload
    assert "lyapunov" in report.payload
    assert "minimize" in report.payload


def test_run_symmetric_rates_inconclusive_exit_two():
    cfg_dict = {
        "task": "certify-expansion",
        "seed": 5,
        "base": {"kind": "bernoulli", "alphabet_size": 2,
                 "probabilities": [0.5, 0.5]},
        "fiber": {"family": "bernoulli-linear", "params": {"values": [0.5, 2.0]}},
        "task_params": {"samples": 20, "n_max": 12, "grid_size": 64},
    }
    report = run_task(parse_config(json.dumps(cfg_dict)))
    assert report.verdict == "inconclusive"
    assert report.exit_code == 2
    assert report.payload["corollary"]["verdict"] == "inconclusive"


def test_report_schema_and_echo(tmp_path):
    cfg = parse_config(json.dumps(DOUBLING_FULL))
    report = run_task(cfg)
    doc = report.to_json_dict()
    assert doc["schema"] == "randhyp-report/1"
    assert doc["config"]["seed"] == 7
    assert doc["task"] == "full-pipeline"
    files = report.write(tmp_path / "out")
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "an_table.csv").exists()
    assert (tmp_path / "out" / "temperedness.csv").exists()
    loaded = json.loads((tmp_path / "out" / "report.json").read_text())
    assert loaded["verdict"] == "certified-expanding"


FAMILIES = {
    "doubling": {},
    "perturbed-doubling": {"eps_max": 0.1},
    "bernoulli-linear": {"values": [2, 3]},
    "diagonal-cocycle": {"a_values": [2.0, 0.5], "b_values": [3.0, 4.0]},
    "random-cat": {},
}
BASES = {
    "bernoulli": {"kind": "bernoulli", "probabilities": [0.5, 0.5]},
    "markov": {"kind": "markov", "transition": [[0.9, 0.1], [0.3, 0.7]]},
    "rotation": {"kind": "rotation", "rotation_number": 0.6180339887498949},
    "dirac": {"kind": "dirac"},
}
TINY_PIPELINE = {
    "samples": 3, "n": 200, "n_max": 5, "grid_size": 64, "depth": 6,
    "curve_n_max": 40, "supadd_samples": 2, "supadd_N": 4, "horizon": 10,
    "batches": 4,
}


def own_params(task, params=TINY_PIPELINE):
    """The entries of `params` that `task` reads."""
    return {k: v for k, v in params.items() if k in TASK_DEFAULTS[task]}


@pytest.mark.parametrize("task", TASKS)
def test_rerun_with_echoed_config_is_bit_identical(task):
    family = "random-cat" if task == "splitting" else "perturbed-doubling"
    cfg = parse_config(json.dumps({
        "task": task, "seed": 7, "base": BASES["markov"],
        "fiber": {"family": family}, "task_params": own_params(task)}))
    rep1 = run_task(cfg)
    cfg2 = parse_config(json.dumps(rep1.to_json_dict()["config"]))
    assert cfg2.echo == cfg.echo
    assert rep1.payload_bytes() == run_task(cfg2).payload_bytes()


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("family", FAMILIES)
def test_determinism_across_threads(family, base):
    cfg_dict = {
        "task": "full-pipeline",
        "seed": 3,
        "base": BASES[base],
        "fiber": {"family": family, "params": FAMILIES[family]},
        "task_params": TINY_PIPELINE,
    }
    cfg = parse_config(json.dumps(cfg_dict))
    a = run_task(cfg, threads=1)
    b = run_task(cfg, threads=8)
    assert a.payload_bytes() == b.payload_bytes()


def plain_leaves(obj, path="$"):
    """(path, type) of every leaf or key of `obj` that JSON would not
    write as a plain None, bool, int, float or str."""
    if isinstance(obj, dict):
        return [bad for k, v in obj.items()
                for bad in ([] if type(k) is str else [(path, type(k))])
                + plain_leaves(v, f"{path}.{k}")]
    if type(obj) in (list, tuple):
        return [bad for i, v in enumerate(obj) for bad in plain_leaves(v, f"{path}[{i}]")]
    return [] if type(obj) in (type(None), bool, int, float, str) else [(path, type(obj))]


@pytest.mark.parametrize("family, base, task", [
    (family, base, task) for family in FAMILIES for base in BASES for task in TASKS
    if task != "splitting" or family in ("random-cat", "diagonal-cocycle")])
def test_payload_and_echo_leaves_are_plain(family, base, task):
    # reports are written with json.dumps as they are, at default
    # parameters: a numpy scalar must not reach them
    report = run_task(parse_config(json.dumps({
        "task": task, "seed": 7, "base": BASES[base], "fiber": {"family": family}})))
    assert plain_leaves(report.payload) == []
    assert plain_leaves(report.config_echo) == []


def test_full_pipeline_sweeps_the_rate_once(monkeypatch):
    # minimize reuses the certificate's rate sweep: full-pipeline makes no
    # grid step beyond certify-expansion's, and minimize's payload is the
    # one the minimize task computes with its own sweep
    from randhyp.fibers import CircleFamily
    steps = []
    log_deriv = CircleFamily.log_deriv

    def counted(self, p, x, xp=math, terms=None):
        steps.append(xp is np)
        return log_deriv(self, p, x, xp, terms)

    monkeypatch.setattr(CircleFamily, "log_deriv", counted)
    configs = {task: parse_config(json.dumps({
        "task": task, "seed": 7, "base": BASES["markov"],
        "fiber": {"family": "perturbed-doubling",
                  "params": FAMILIES["perturbed-doubling"]},
        "task_params": own_params(task)}))
        for task in ("certify-expansion", "minimize", "full-pipeline")}
    grid_steps = {}
    reports = {}
    for task, cfg in configs.items():
        steps.clear()
        reports[task] = run_task(cfg)
        grid_steps[task] = sum(steps)
    assert grid_steps["certify-expansion"] > 0
    assert grid_steps["full-pipeline"] == grid_steps["certify-expansion"]
    assert (json.dumps(reports["full-pipeline"].payload["minimize"], sort_keys=True)
            == json.dumps(reports["minimize"].payload, sort_keys=True))


TORUS = ("random-cat", "diagonal-cocycle")


def torus_config(task, family, base, params=None):
    return parse_config(json.dumps({
        "task": task, "seed": 7, "base": BASES[base],
        "fiber": {"family": family, "params": FAMILIES[family]},
        "task_params": own_params(task) if params is None else params}))


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("family", TORUS)
def test_full_pipeline_spectra_are_the_lyapunov_task_spectra(family, base):
    # full-pipeline takes its torus spectra from the splitting pass; its
    # lyapunov payload is the lyapunov task's, which takes them directly
    full = run_task(torus_config("full-pipeline", family, base))
    alone = run_task(torus_config("lyapunov", family, base))
    assert (json.dumps(full.payload["lyapunov"], sort_keys=True)
            == json.dumps(alone.payload, sort_keys=True))


def counted_stages(monkeypatch):
    """Index-stream positions read (states times steps), and rows scanned
    and calls made by the push kernel, per stage of a run: `expansion` and `minimize` (their cli steps),
    `lyapunov` (the exponent report) and `other`."""
    import randhyp.cli as cli
    import randhyp.cocycle as cocycle
    import randhyp.lyapunov as lyapunov
    import randhyp.splitting as splitting
    from randhyp.fibers import LinearTorusFamily
    stage, counts = ["other"], {}

    def count(kind, k):
        key = (stage[-1], kind)
        counts[key] = counts.get(key, 0) + k

    def staged(name, fn):
        def run(*args, **kwargs):
            stage.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                stage.pop()
        return run

    read, push = LinearTorusFamily.params_along, cocycle.push_log_stretches

    def counted_read(self, omegas, n):
        count("positions", len(omegas) * n)
        return read(self, omegas, n)

    def counted_push(table, idx, v, cuts, rows=None):
        count("rows", len(np.unique(np.arange(len(v)) if rows is None else rows)))
        count("pushes", 1)
        return push(table, idx, v, cuts, rows)

    monkeypatch.setattr(LinearTorusFamily, "params_along", counted_read)
    for module in (cocycle, lyapunov, splitting):
        monkeypatch.setattr(module, "push_log_stretches", counted_push)
    for name, attr in (("expansion", "_certify_expansion"), ("minimize", "_task_minimize"),
                       ("lyapunov", "exponent_positivity_report")):
        monkeypatch.setattr(cli, attr, staged(name, getattr(cli, attr)))
    return counts


@pytest.mark.parametrize("family", TORUS)
def test_full_pipeline_reads_no_more_than_splitting_alone(family, monkeypatch):
    # past the certificate and minimize, full-pipeline reads the index
    # streams and scans rows exactly as the splitting task does; its
    # spectra read no stream and scan no row
    counts = counted_stages(monkeypatch)
    runs = {}
    for task in ("lyapunov", "splitting", "full-pipeline"):
        counts.clear()
        run_task(torus_config(task, family, "markov"))
        runs[task] = dict(counts)
    assert runs["lyapunov"][("lyapunov", "positions")] > 0
    assert runs["lyapunov"][("lyapunov", "rows")] > 0
    assert ("lyapunov", "positions") not in runs["full-pipeline"]
    assert ("lyapunov", "rows") not in runs["full-pipeline"]
    for kind in ("positions", "rows"):
        assert runs["splitting"][("other", kind)] > 0
        assert runs["full-pipeline"][("other", kind)] == runs["splitting"][("other", kind)]


@pytest.mark.parametrize("family", TORUS)
def test_minimize_reads_and_pushes_nothing(family, monkeypatch):
    # the estimate is the rate the certificate swept: no index stream is
    # read and no vector pushed for it
    counts = counted_stages(monkeypatch)
    run_task(torus_config("full-pipeline", family, "bernoulli"))
    assert [key for key in counts if key[0] == "minimize"] == []
    assert counts[("other", "pushes")] > 0   # the counter does see a push


def test_certificate_hash_calls_do_not_grow_with_samples(monkeypatch):
    # each sample set is hashed in one call, whatever its size
    import randhyp.base as base
    calls, hashed = [], base._hashes

    def counted(*args):
        calls.append(args)
        return hashed(*args)
    monkeypatch.setattr(base, "_hashes", counted)
    counts = []
    for samples in (20, 40):
        calls.clear()
        run_task(parse_config(json.dumps({
            "task": "certify-expansion", "seed": 7, "base": BASES["bernoulli"],
            "fiber": {"family": "perturbed-doubling", "params": {"eps_max": 0.1}},
            "task_params": {"samples": samples}})))
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 10


@pytest.mark.parametrize("task, family, params, message", [
    ("full-pipeline", "random-cat", {"n": 3}, "task_params.n must be >= batches = 20, got 3"),
    ("full-pipeline", "diagonal-cocycle", {"n": 8, "batches": 9},
     "task_params.n must be >= batches = 9, got 8"),
    ("splitting", "random-cat", {"n": 19}, "task_params.n must be >= batches = 20, got 19"),
    ("full-pipeline", "random-cat", {"n": 1, "batches": 1},
     "task_params.n must be >= 2, the fiber dimension, got 1"),
    ("lyapunov", "diagonal-cocycle", {"n": 1},
     "task_params.n must be >= 2, the fiber dimension, got 1"),
    ("splitting", "random-cat",
     {"samples": 2, "horizon": 8, "n": 20, "depth": 50, "batches": 4},
     "task_params.n must be >= depth = 50, got 20"),
    ("full-pipeline", "diagonal-cocycle", {"n": 30, "batches": 4},
     "task_params.n must be >= depth = 50, got 30"),
])
def test_torus_n_too_small_exits_one_before_any_read(task, family, params, message,
                                                    tmp_path, capsys, monkeypatch):
    from randhyp.fibers import LinearTorusFamily

    def no_read(self, omegas, n):
        raise AssertionError("index stream read before the config check")
    monkeypatch.setattr(LinearTorusFamily, "params_along", no_read)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "seed": 7, "base": BASES["bernoulli"], "fiber": {"family": family},
        "task_params": dict(params, bogus=1)}))
    assert main([task, "--config", str(cfg_path)]) == 1
    # reported with the other config errors
    err = capsys.readouterr().err
    assert f"  - {message}\n" in err
    assert f"  - task_params.bogus is not read by {task}\n" in err


@pytest.mark.parametrize("task, family, params", [
    ("full-pipeline", "perturbed-doubling", {"n": 3}),       # no splitting runs
    ("lyapunov", "doubling", {"n": 1}),                       # a circle's one exponent
    ("splitting", "random-cat", {"n": 1, "batches": 1, "depth": 1}),  # no spectrum taken
    ("full-pipeline", "random-cat", {"n": 2, "batches": 2, "depth": 2}),
])
def test_torus_n_rules_leave_other_runs_alone(task, family, params):
    parse_config(json.dumps({"task": task, "seed": 7, "base": BASES["dirac"],
                             "fiber": {"family": family}, "task_params": params}))


@pytest.mark.parametrize("family", ["perturbed-doubling", "random-cat"])
def test_lyapunov_first_spectrum_is_the_direct_spectrum(family):
    cfg = parse_config(json.dumps({
        "task": "lyapunov", "seed": 4, "base": BASES["markov"],
        "fiber": {"family": family, "params": FAMILIES[family]},
        "task_params": {"samples": 3, "n": 500},
    }))
    report = run_task(cfg)
    omega0 = sample_base(cfg.base, cfg.seed, 1)[0]
    x0 = ManifoldPoint(random_point(cfg.seed, 0, cfg.fiber.manifold_dim))
    direct = oseledets_spectrum(cfg.fiber, omega0, x0, 500)
    assert report.payload["spectrum_first_sample"] == list(direct.exponents)


@pytest.mark.parametrize("task, key, value", [
    ("certify-expansion", "grid_size", 4096.5),
    ("splitting", "n", 1000.5),
    ("lyapunov", "samples", 12.0),
    ("minimize", "p_max", True),
    ("full-pipeline", "supadd_N", "4"),
])
def test_count_params_must_be_integers(task, key, value, tmp_path, capsys):
    cfg_dict = {
        "task": task,
        "seed": 3,
        "base": BASES["bernoulli"],
        "fiber": {"family": "random-cat"},
        "task_params": {key: value},
    }
    with pytest.raises(ConfigurationError) as err:
        parse_config(json.dumps(cfg_dict))
    assert err.value.errors == [f"task_params.{key} must be an integer"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_dict))
    assert main([task, "--config", str(cfg_path)]) == 1
    assert f"task_params.{key} must be an integer" in capsys.readouterr().err


def test_cli_main_writes_report(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(DOUBLING_FULL))
    code = main(["full-pipeline", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict=certified-expanding" in out
    assert (tmp_path / "out" / "report.json").exists()


def test_long_rate_horizon_exits_zero(tmp_path, capsys):
    # the lower brackets past n = 735 are -inf, not an OverflowError
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "seed": 7, "base": {"kind": "dirac"},
        "fiber": {"family": "perturbed-doubling"},
        "task_params": {"samples": 2, "n_max": 800, "grid_size": 64,
                        "corollary": False}}))
    code = main(["certify-expansion", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    trend = json.loads((tmp_path / "out" / "report.json").read_text())[
        "payload"]["details"]["trend"]
    assert trend[0][2] > 0.0
    assert trend[-1][2] is None   # -inf, which JSON cannot write


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("cfg, non_finite", [
    # a vacuous -inf lower bracket past n = 735
    ({"task": "certify-expansion", "base": BASES["dirac"],
      "fiber": {"family": "perturbed-doubling"},
      "task_params": {"samples": 2, "n_max": 800, "grid_size": 64, "corollary": False}},
     lambda payload: payload["details"]["trend"][-1][2]),
    # NaN bundle constants: lambda <= 0 for the default diagonal cocycle
    ({"task": "splitting", "base": BASES["bernoulli"],
      "fiber": {"family": "diagonal-cocycle"},
      "task_params": {"samples": 3, "n": 400, "horizon": 12, "depth": 10,
                      "batches": 4}},
     lambda payload: payload["c_samples"][0]["c1"]),
], ids=["certify-long", "splitting-diagonal"])
def test_reports_are_strict_json(cfg, non_finite, tmp_path):
    report = run_task(parse_config(json.dumps(dict(cfg, seed=7))))
    assert not math.isfinite(non_finite(report.payload))
    report.write(tmp_path)
    for text in (report.payload_bytes(), (tmp_path / "report.json").read_text()):
        doc = json.loads(text, parse_constant=_no_constant)
        assert non_finite(doc["payload"]) is None


def test_supadd_n_is_capped_before_any_sweep(tmp_path, capsys, monkeypatch):
    from randhyp.fibers import CircleFamily

    def no_sweep(self, *args):
        raise AssertionError("swept before the config check")
    monkeypatch.setattr(CircleFamily, "sweep_steps", no_sweep)
    cfg = {"seed": 7, "base": BASES["dirac"], "fiber": {"family": "doubling"},
           "task_params": {"n_max": 24, "supadd_N": 21}}
    for task in ("certify-expansion", "full-pipeline"):
        code, err = cli_errors(tmp_path, capsys, task, json.dumps(cfg))
        assert code == 1
        assert err == "configuration errors:\n  - task_params.supadd_N is capped at 20\n"
    parse_config(json.dumps(dict(cfg, task="certify-expansion",
                                 task_params={"n_max": 24, "supadd_N": 20})))


@pytest.mark.parametrize("task, key, ok, bad, message, call", [
    ("minimize", "p_max", MAX_PERIOD, MAX_PERIOD + 1, "is capped at",
     lambda v: enumerate_periodic_orbits(make_family("doubling"),
                                         BaseSystemSpec.bernoulli([1.0]), v)),
    ("certify-expansion", "supadd_N", MAX_SUPADD_N, MAX_SUPADD_N + 1, "is capped at",
     lambda v: supadditivity_residuals(make_family("perturbed-doubling"),
                                       sample_base(BaseSystemSpec.dirac(), 0, 1)[0],
                                       N=v, grid_size=64)),
    ("certify-expansion", "grid_size", MIN_GRID, MIN_GRID - 1, "must be >=",
     lambda v: sweep_windows(make_family("perturbed-doubling"), [np.zeros(3)], v)),
], ids=["p_max", "supadd_N", "grid_size"])
def test_config_bounds_are_the_functions_bounds(task, key, ok, bad, message, call):
    # the config refuses exactly the value the function refuses
    def config(value):
        return json.dumps(dict(DOUBLING_FULL, task=task,
                               task_params={"n_max": 24, key: value}))
    parse_config(config(ok))
    call(ok)
    with pytest.raises(ConfigurationError) as err:
        parse_config(config(bad))
    assert err.value.errors == [f"task_params.{key} {message} {ok}"]
    with pytest.raises(ContractError):
        call(bad)


def test_long_horizon_cat_map_is_not_certified(tmp_path, capsys):
    # the cat map contracts at rate log((3 + sqrt 5) / 2) along its stable
    # direction; a sigma_min taken from the SVD of the float product read
    # rounding noise past n = 20 and certified it as expanding
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "seed": 7, "base": {"kind": "dirac"}, "fiber": {"family": "random-cat"},
        "task_params": {"samples": 20, "n_max": 60, "supadd_N": 4,
                        "temperedness_threshold": 0.25, "corollary": False}}))
    code = main(["certify-expansion", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    payload = json.loads((tmp_path / "out" / "report.json").read_text())["payload"]
    assert payload["verdict"] == "inconclusive"
    assert payload["a_estimate"] == pytest.approx(-math.log((3 + math.sqrt(5)) / 2),
                                                  rel=1e-12)
    # it stops at the rate gate: without a rate there is no lambda, so no
    # constant and no curve, and temperedness.csv holds only its header;
    # the supadditivity residuals swept with the rate are reported
    assert payload["temperedness_curve"] == {"n": [], "value": []}
    assert payload["lambda"] is None and payload["c_samples"] == []
    assert payload["supadditivity_min_residual"] != 0.0
    assert (tmp_path / "out" / "temperedness.csv").read_text() == "n,value\n"


def test_cli_main_bad_config_exit_one(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"seed": "x"}))
    code = main(["lyapunov", "--config", str(cfg_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration errors" in err


def test_cli_missing_file_exit_one(tmp_path, capsys):
    code = main(["lyapunov", "--config", str(tmp_path / "absent.json")])
    assert code == 1


def test_cli_unwritable_out_dir_exit_one(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(DOUBLING_FULL))
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["full-pipeline", "--config", str(cfg_path),
                 "--out", str(blocker / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write report")
    assert "Traceback" not in err


def test_cli_unexpected_error_exit_one(tmp_path, capsys, monkeypatch):
    import randhyp.cli as cli

    def broken(config, threads=1):
        raise ValueError("broken task")

    monkeypatch.setattr(cli, "run_task", broken)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(DOUBLING_FULL))
    assert main(["full-pipeline", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == "error: ValueError: broken task\n"


def test_cli_non_integer_env_threads_exit_one(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(DOUBLING_FULL))
    monkeypatch.setenv("RANDHYP_THREADS", "two")
    assert main(["full-pipeline", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == "error: RANDHYP_THREADS must be an integer\n"


def test_cli_env_threads(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(DOUBLING_FULL))
    monkeypatch.setenv("RANDHYP_THREADS", "4")
    code = main(["full-pipeline", "--config", str(cfg_path)])
    assert code == 0


@pytest.mark.parametrize("flag, env", [(["--threads", "0"], None),
                                       (["--threads", "-3"], None),
                                       ([], "0")])
def test_cli_threads_below_one_exit_one(flag, env, tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(DOUBLING_FULL))
    if env is not None:
        monkeypatch.setenv("RANDHYP_THREADS", env)
    value = flag[1] if flag else env
    assert main(["full-pipeline", "--config", str(cfg_path)] + flag) == 1
    assert capsys.readouterr().err == f"error: threads must be >= 1, got {value}\n"
    with pytest.raises(ConfigurationError):
        run_task(parse_config(json.dumps(DOUBLING_FULL)), threads=int(value))


def test_splitting_task_csv(tmp_path):
    cfg_dict = {
        "task": "splitting",
        "seed": 11,
        "base": {"kind": "bernoulli", "alphabet_size": 2,
                 "probabilities": [0.5, 0.5]},
        "fiber": {"family": "random-cat"},
        "task_params": {"samples": 4, "horizon": 30, "n": 400},
    }
    report = run_task(parse_config(json.dumps(cfg_dict)))
    assert report.verdict == "certified"
    report.write(tmp_path)
    header = (tmp_path / "samples.csv").read_text().splitlines()[0]
    assert header == "omega,angle,rate1,rate2,residual"


def test_minimize_task_with_orbits(tmp_path):
    cfg_dict = {
        "task": "minimize",
        "seed": 2,
        "base": {"kind": "bernoulli", "alphabet_size": 2,
                 "probabilities": [0.5, 0.5]},
        "fiber": {"family": "bernoulli-linear", "params": {"values": [2, 3]}},
        "task_params": {"samples": 5, "n_max": 50, "grid_size": 64,
                        "include_periodic": True, "p_max": 3},
    }
    report = run_task(parse_config(json.dumps(cfg_dict)))
    assert report.exit_code == 0
    report.write(tmp_path)
    lines = (tmp_path / "orbits.csv").read_text().splitlines()
    assert lines[0] == "word,period,x0,phi_average,residual"
    assert len(lines) > 3


def cli_errors(tmp_path, capsys, task, text):
    """Exit code and stderr of the CLI on a config given as JSON text."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    return main([task, "--config", str(cfg_path)]), capsys.readouterr().err


@pytest.mark.parametrize("cfg_dict, message", [
    ({"fiber": {"family": "perturbed-doubling", "params": {"epsmax": 0.15}}},
     "fiber.params.epsmax is not read by perturbed-doubling"),
    ({"fiber": {"family": "doubling", "params": {"values": [5, 6]}}},
     "fiber.params.values is not read by doubling"),
    ({"task_param": {"samples": 5}}, "task_param is not read; config fields are "
     "['task', 'seed', 'base', 'fiber', 'task_params', 'out_dir']"),
    ({"fiber": {"family": "doubling", "parms": {}}},
     "fiber.parms is not read; fiber fields are ['family', 'params']"),
    ({"task": "lyapunov", "task_params": {"grid_size": 64}},
     "task_params.grid_size is not read by lyapunov"),
    ({"task": "lyapunov", "task_params": {"horizon": 5}},
     "task_params.horizon is not read by lyapunov"),
    ({"task": "lyapunov", "task_params": {"depth": 5}},
     "task_params.depth is not read by lyapunov"),
    ({"task": "lyapunov", "task_params": {"batches": 5}},
     "task_params.batches is not read by lyapunov"),
])
def test_unread_keys_exit_one_with_path(cfg_dict, message, tmp_path, capsys):
    cfg_dict = dict(DOUBLING_FULL, **cfg_dict)
    code, err = cli_errors(tmp_path, capsys, cfg_dict["task"], json.dumps(cfg_dict))
    assert code == 1
    assert err.splitlines() == ["configuration errors:", f"  - {message}"]


@pytest.mark.parametrize("task, key", [
    ("certify-expansion", "n"), ("lyapunov", "n_max"), ("minimize", "depth"),
    ("splitting", "lambda"), ("full-pipeline", "a_bound"),
])
def test_each_task_rejects_a_parameter_it_does_not_read(task, key):
    with pytest.raises(ConfigurationError) as err:
        parse_config(json.dumps(dict(DOUBLING_FULL, task=task,
                                     task_params={key: 1})))
    assert err.value.errors == [f"task_params.{key} is not read by {task}"]


@pytest.mark.parametrize("task", ["minimize", "full-pipeline"])
@pytest.mark.parametrize("key", ["birkhoff_steps", "birkhoff_starts"])
def test_birkhoff_keys_exit_one(task, key, tmp_path, capsys):
    # no task reads them since the Birkhoff candidate left lambda_estimate
    cfg_dict = dict(DOUBLING_FULL, task=task, task_params={key: 100})
    code, err = cli_errors(tmp_path, capsys, task, json.dumps(cfg_dict))
    assert code == 1
    assert err.splitlines() == ["configuration errors:",
                                f"  - task_params.{key} is not read by {task}"]


@pytest.mark.parametrize("task", ["splitting", "full-pipeline"])
def test_curve_len_exits_one(task, tmp_path, capsys):
    # no task reads it since the splitting certificate's bundle-constant
    # curve was retired
    cfg_dict = dict(DOUBLING_FULL, task=task, fiber={"family": "random-cat"},
                    task_params={"curve_len": 10})
    code, err = cli_errors(tmp_path, capsys, task, json.dumps(cfg_dict))
    assert code == 1
    assert err.splitlines() == ["configuration errors:",
                                f"  - task_params.curve_len is not read by {task}"]


class Recording(dict):
    """A dict that records which keys are read."""

    def __init__(self, items):
        super().__init__(items)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("task", TASKS)
def test_each_task_reads_exactly_its_parameters(task):
    cfg = parse_config(json.dumps({
        "task": task, "seed": 3, "base": BASES["bernoulli"],
        "fiber": {"family": "random-cat"}, "task_params": own_params(task)}))
    params = Recording(cfg.task_params)
    run_task(ExperimentConfig(cfg.base, cfg.fiber, cfg.seed, cfg.task, params,
                              cfg.out_dir, cfg.echo))
    assert params.read == set(TASK_DEFAULTS[task])


@pytest.mark.parametrize("task, text, message", [
    ("certify-expansion",
     '"task_params": {"temperedness_threshold": NaN}',
     "task_params.temperedness_threshold must be a finite number, got NaN"),
    ("lyapunov", '"fiber": {"family": "bernoulli-linear", '
     '"params": {"values": [Infinity, 2]}}',
     "fiber.params.values[0] must be a finite number, got Infinity"),
    ("lyapunov", '"fiber": {"family": "diagonal-cocycle", '
     '"params": {"a_values": [NaN], "b_values": [3.0]}}',
     "fiber.params.a_values[0] must be a finite number, got NaN"),
    ("lyapunov", '"base": {"kind": "markov", "transition": [[NaN, 1.0], [0.5, 0.5]]}',
     "base.transition[0][0] must be a finite number, got NaN"),
    ("lyapunov", '"fiber": {"family": "perturbed-doubling", '
     '"params": {"eps_max": -1e400}}',
     "fiber.params.eps_max must be a finite number, got -1e400"),
    ("lyapunov", '"task_params": {"n": -Infinity}',
     "task_params.n must be a finite number, got -Infinity"),
])
def test_non_finite_numbers_exit_one_with_path(task, text, message, tmp_path,
                                               capsys):
    fields = {"task": task, "seed": 7, "base": {"kind": "dirac"},
              "fiber": {"family": "doubling"}}
    fields.pop(text.split('"')[1], None)
    code, err = cli_errors(tmp_path, capsys, task,
                           json.dumps(fields)[:-1] + ", " + text + "}")
    assert code == 1
    assert err.splitlines() == ["configuration errors:", f"  - {message}"]


def catalog_config(section, name, params):
    """A lyapunov config whose `section` is catalog entry `name` with `params`."""
    cfg = dict(DOUBLING_FULL, task="lyapunov")
    if section == "fiber":
        cfg["fiber"] = {"family": name, "params": params}
    else:
        cfg["base"] = dict(params, kind=name)
    return cfg


CATALOG_ENTRIES = ([("fiber", name) for name in FAMILY_CATALOG]
                   + [("base", kind) for kind in BASE_CATALOG])
CATALOGS = {"fiber": FAMILY_CATALOG, "base": BASE_CATALOG}
PARAMS_PATH = {"fiber": "fiber.params", "base": "base"}


def example_params(section, name):
    if section == "fiber":
        return dict(FAMILIES[name])
    return {k: v for k, v in BASES[name].items() if k != "kind"}


def catalog_errors(cfg):
    with pytest.raises(ConfigurationError) as err:
        parse_config(json.dumps(cfg))
    return err.value.errors


@pytest.mark.parametrize("section, name", CATALOG_ENTRIES)
def test_catalog_reader_rejects_a_key_the_constructor_does_not_take(section, name):
    params = dict(example_params(section, name), bogus=1)
    assert catalog_errors(catalog_config(section, name, params)) == [
        f"{PARAMS_PATH[section]}.bogus is not read by {name}"]


@pytest.mark.parametrize("section, name", CATALOG_ENTRIES)
def test_catalog_reader_requires_keys_without_default(section, name):
    signature = inspect.signature(CATALOGS[section][name]).parameters
    required = [k for k, arg in signature.items() if arg.default is arg.empty]
    for key in required:
        params = example_params(section, name)
        del params[key]
        assert catalog_errors(catalog_config(section, name, params)) == [
            f"{PARAMS_PATH[section]}.{key} is required by {name}"]
    if not required:
        parse_config(json.dumps(catalog_config(section, name, {})))


@pytest.mark.parametrize("kind", BASE_CATALOG)
def test_base_alphabet_size_must_equal_the_derived_value(kind):
    cfg = parse_config(json.dumps(catalog_config("base", kind, example_params("base", kind))))
    size = cfg.base.alphabet_size
    params = dict(example_params("base", kind), alphabet_size=size)
    assert parse_config(json.dumps(catalog_config("base", kind, params))).base == cfg.base
    params["alphabet_size"] = size + 3
    assert catalog_errors(catalog_config("base", kind, params)) == [
        f"base.alphabet_size is {size} for this {kind} base, got {size + 3}"]


@pytest.mark.parametrize("kind", BASE_CATALOG)
def test_echoed_config_reparses_for_every_base_kind(kind):
    cfg = parse_config(json.dumps(dict(DOUBLING_FULL, base=BASES[kind])))
    again = parse_config(json.dumps(cfg.echo))
    assert again.echo == cfg.echo
    assert again.base == cfg.base


@pytest.mark.parametrize("base, messages", [
    ({"kind": "bernoulli", "probabilities": [0.5, 0.5], "alphabet_size": 5,
      "transition": [[1]]},
     ["base.transition is not read by bernoulli"]),
    ({"kind": "bernoulli", "probabilities": [0.5, 0.5], "alphabet_size": 5},
     ["base.alphabet_size is 2 for this bernoulli base, got 5"]),
    ({"kind": "rotation", "rotation_numer": 0.3},
     ["base.rotation_numer is not read by rotation",
      "base.rotation_number is required by rotation"]),
    ({"kind": ["dirac"]}, ["base.kind unknown: ['dirac']; catalog: "
                           "['bernoulli', 'dirac', 'markov', 'rotation']"]),
    ({"kind": "bernoulli", "probabilities": [[0.5, 0.5]]},
     ["base.probabilities must be a list of numbers"]),
    ({"kind": "markov", "transition": [0.9, 0.1]},
     ["base.transition must be a list of lists of numbers"]),
    ({"kind": "markov", "transition": []}, ["base.transition must not be empty"]),
    ({"kind": "rotation", "rotation_number": [0.3]},
     ["base.rotation_number must be a number"]),
    ({"kind": "rotation", "rotation_number": 1.5},
     ["base.rotation_number must lie in (0, 1)"]),
    ({"kind": "rotation", "rotation_number": HUGE},
     ["base.rotation_number must lie within the float range"]),
    ({"kind": "bernoulli", "probabilities": [HUGE, 0.5]},
     ["base.probabilities must lie within the float range"]),
])
def test_bad_base_exits_one_with_path(base, messages, tmp_path, capsys):
    code, err = cli_errors(tmp_path, capsys, "full-pipeline",
                           json.dumps(dict(DOUBLING_FULL, base=base)))
    assert code == 1
    assert err.splitlines() == ["configuration errors:"] + [f"  - {m}" for m in messages]


@pytest.mark.parametrize("cfg, messages", [
    ([DOUBLING_FULL], ["config must be a JSON object"]),
    ({k: v for k, v in DOUBLING_FULL.items() if k != "task"},
     ["task is required (in the config or on the command line)"]),
    (dict(DOUBLING_FULL, task="certify"),
     [f"task must be one of {list(TASKS)}, got 'certify'"]),
    (dict(DOUBLING_FULL, task_params=[]), ["task_params must be an object"]),
    (dict(DOUBLING_FULL, fiber={"family": "doubling", "params": []}),
     ["fiber.params must be an object"]),
    (dict(DOUBLING_FULL, out_dir=3), ["out_dir must be a string path"]),
    (dict(DOUBLING_FULL, task_params={"corollary": 1}),
     ["task_params.corollary must be a boolean"]),
])
def test_malformed_config_is_one_error_each(cfg, messages):
    with pytest.raises(ConfigurationError) as err:
        parse_config(json.dumps(cfg))
    assert err.value.errors == messages


def test_out_dir_reaches_the_echo():
    cfg = parse_config(json.dumps(dict(DOUBLING_FULL, out_dir="runs/a")))
    assert cfg.out_dir == cfg.echo["out_dir"] == "runs/a"


@pytest.mark.parametrize("fiber, message", [
    ({"family": ["doubling"]}, "fiber.family unknown: ['doubling']; catalog: "
     "['bernoulli-linear', 'diagonal-cocycle', 'doubling', 'perturbed-doubling', "
     "'random-cat']"),
    ({"family": "bernoulli-linear", "params": {"values": []}},
     "fiber.params.values must be nonempty and positive"),
    ({"family": "random-cat", "params": {"matrices": 3}},
     "fiber.params.matrices must be 2x2"),
    ({"family": "perturbed-doubling", "params": {"eps_max": [0.1]}},
     "fiber.params.eps_max must be a number"),
    ({"family": "bernoulli-linear", "params": {"values": [HUGE, 2]}},
     "fiber.params.values must lie within the float range"),
    ({"family": "random-cat", "params": {"matrices": [[[HUGE, 1], [1, 1]]]}},
     "fiber.params.matrices must lie within the float range"),
    ({"family": "random-cat", "params": {"matrices": []}},
     "fiber.params.matrices must be nonempty"),
    ({"family": "random-cat", "params": {"matrices": [[[1, 1], [1, 1]]]}},
     "fiber.params.matrices must be nonsingular"),
    ({"family": "diagonal-cocycle", "params": {"a_values": [2, 3], "b_values": [3]}},
     "fiber.params.a_values and b_values must be nonempty and of equal length"),
    ({"family": "diagonal-cocycle", "params": {"a_values": [2], "b_values": [0]}},
     "fiber.params.a_values and b_values must be positive"),
])
def test_bad_fiber_exits_one_with_path(fiber, message, tmp_path, capsys):
    code, err = cli_errors(tmp_path, capsys, "full-pipeline",
                           json.dumps(dict(DOUBLING_FULL, fiber=fiber)))
    assert code == 1
    assert err.splitlines() == ["configuration errors:", f"  - {message}"]


@pytest.mark.parametrize("section, value, messages", [
    ("fiber", {"family": "bernoulli-linear", "params": {"values": ["2", True]}},
     ["fiber.params.values[0] must be a number", "fiber.params.values[1] must be a number"]),
    ("base", {"kind": "rotation", "rotation_number": "0.3"},
     ["base.rotation_number must be a number"]),
    ("base", {"kind": "bernoulli", "probabilities": ["0.5", 0.5]},
     ["base.probabilities[0] must be a number"]),
    ("base", {"kind": "dirac", "alphabet_size": True},
     ["base.alphabet_size is 1 for this dirac base, got True"]),
])
def test_strings_and_booleans_are_not_numbers(section, value, messages):
    assert catalog_errors(dict(DOUBLING_FULL, **{section: value})) == messages


@pytest.mark.parametrize("family", ["bernoulli-linear", "perturbed-doubling"])
def test_configured_depth_is_the_certificate_cap(family):
    grid_size = 1024
    cfg = parse_config(json.dumps({
        "task": "certify-expansion", "seed": 7, "base": BASES["bernoulli"],
        "fiber": {"family": family},
        "task_params": {"samples": 3, "n_max": 5, "grid_size": grid_size,
                        "depth": 80, "curve_n_max": 20, "supadd_samples": 1,
                        "supadd_N": 4, "corollary": False}}))
    depth = run_task(cfg).payload["details"]["depth"]
    assert depth == certified_depth(cfg.fiber, grid_size, 80)
    # exact brackets need no slack cap; the grid slack caps x-dependent maps
    assert (depth == 80) == (family == "bernoulli-linear")


MINIMIZE_PERIODIC = {"samples": 2, "n_max": 4, "grid_size": 64,
                     "include_periodic": True, "p_max": 3}


@pytest.mark.parametrize("kind", ["markov", "rotation", "dirac"])
def test_include_periodic_needs_a_full_shift_base(kind, tmp_path, capsys):
    cfg = {"task": "minimize", "seed": 7, "base": BASES[kind],
           "fiber": {"family": "bernoulli-linear"}, "task_params": MINIMIZE_PERIODIC}
    code, err = cli_errors(tmp_path, capsys, "minimize", json.dumps(cfg))
    assert code == 1
    assert err == "error: periodic-orbit search needs a full shift base\n"


def test_include_periodic_needs_an_expanding_circle_family(tmp_path, capsys):
    cfg = {"task": "minimize", "seed": 7, "base": BASES["bernoulli"],
           "fiber": {"family": "bernoulli-linear", "params": {"values": [1, 2]}},
           "task_params": MINIMIZE_PERIODIC}
    code, err = cli_errors(tmp_path, capsys, "minimize", json.dumps(cfg))
    assert code == 1
    assert err == "error: periodic-orbit search needs an expanding circle family\n"


def test_include_periodic_needs_integer_multipliers(tmp_path, capsys):
    cfg = {"task": "minimize", "seed": 7, "base": BASES["bernoulli"],
           "fiber": {"family": "bernoulli-linear", "params": {"values": [2.5, 3]}},
           "task_params": MINIMIZE_PERIODIC}
    code, err = cli_errors(tmp_path, capsys, "minimize", json.dumps(cfg))
    assert code == 1
    assert err == "error: periodic-orbit search needs integer multipliers\n"


def test_minimize_enumerates_periodic_orbits_once(monkeypatch):
    import randhyp.ergodic as ergodic
    lengths = []
    necklaces = ergodic._necklaces

    def counted(alphabet, p):
        lengths.append(p)
        return necklaces(alphabet, p)

    monkeypatch.setattr(ergodic, "_necklaces", counted)
    report = run_task(parse_config(json.dumps({
        "task": "minimize", "seed": 7, "base": BASES["bernoulli"],
        "fiber": {"family": "bernoulli-linear"}, "task_params": MINIMIZE_PERIODIC})))
    assert lengths == [1, 2, 3]
    header, rows = report.csv_files["orbits.csv"]
    assert [r[0] for r in rows] == ["".join(map(str, c["word"]))
                                    for c in report.payload["periodic_candidates"]]


def test_package_import_leaves_the_cli_to_python_m(tmp_path):
    # `python -m randhyp.cli` warns (an error here) if `import randhyp`
    # already imported randhyp.cli
    src = os.path.dirname(os.path.dirname(randhyp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    cfg_path = tmp_path / "ok.json"
    cfg_path.write_text(json.dumps({
        "seed": 7, "base": {"kind": "dirac"}, "fiber": {"family": "doubling"},
        "task_params": {"samples": 3, "n": 200}}))
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "randhyp.cli",
                          "lyapunov", "--config", str(cfg_path)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("lyapunov: verdict=complete")
    probe = ("import sys, randhyp; loaded = 'randhyp.cli' in sys.modules; "
             "print(loaded, randhyp.run_task.__module__, randhyp.RunReport.__module__)")
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True)
    assert run.stdout.split() == ["False", "randhyp.cli", "randhyp.cli"], run.stderr
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        randhyp.no_such_name


@pytest.mark.parametrize("matrices", [
    [[2, 1, 1, 1]],                      # flat rows
    [[[2, 1], [1, 1], [0, 1]]],          # 3x2
    [[[2, 1], [1, 1]], [[1, 1], [1]]],   # ragged
])
def test_torus_matrices_must_be_2x2(matrices, tmp_path, capsys):
    fiber = {"family": "random-cat", "params": {"matrices": matrices}}
    code, err = cli_errors(tmp_path, capsys, "lyapunov", json.dumps(
        {"seed": 7, "base": {"kind": "dirac"}, "fiber": fiber}))
    assert code == 1
    assert err.splitlines() == ["configuration errors:",
                                "  - fiber.params.matrices must be 2x2"]


@pytest.mark.parametrize("matrices, message", [
    ([[[2, 1], [1, 1 + 1e-13]]], "must be integer with |det| = 1"),
    ([[[1e300, 0], [0, 1e-300]]], "must have finite, nonzero singular values"),
    ([[[2, 1], [1, 1]], [[2, 0.5], [2, 1]]], "must be integer with |det| = 1"),
])
def test_cat_matrices_must_be_exactly_unimodular(matrices, message, tmp_path, capsys):
    fiber = {"family": "random-cat", "params": {"matrices": matrices}}
    code, err = cli_errors(tmp_path, capsys, "certify-expansion", json.dumps(
        {"seed": 7, "base": BASES["bernoulli"], "fiber": fiber}))
    assert code == 1
    assert err.splitlines() == ["configuration errors:",
                                f"  - fiber.params.matrices {message}"]


@pytest.mark.parametrize("a_values, b_values, message", [
    ([1e300, 2], [1e-300, 3], "must have finite, nonzero singular values"),
    ([1e300, 2], [1e300, 3], "must have finite determinants"),
])
def test_torus_tables_need_finite_nonzero_singular_values(a_values, b_values, message,
                                                          tmp_path, capsys):
    fiber = {"family": "diagonal-cocycle",
             "params": {"a_values": a_values, "b_values": b_values}}
    code, err = cli_errors(tmp_path, capsys, "certify-expansion", json.dumps(
        {"seed": 7, "base": BASES["bernoulli"], "fiber": fiber}))
    assert code == 1
    assert err.splitlines() == [
        "configuration errors:",
        f"  - fiber.params.diag(a_values, b_values) {message}"]


@pytest.mark.parametrize("family, params, field", [
    ("diagonal-cocycle", {"a_values": [[2]], "b_values": [3]}, "a_values"),
    ("diagonal-cocycle", {"a_values": [2], "b_values": 3}, "b_values"),
    ("bernoulli-linear", {"values": 2}, "values"),
    ("bernoulli-linear", {"values": [2, [3]]}, "values"),
])
def test_number_lists_must_be_flat(family, params, field, tmp_path, capsys):
    fiber = {"family": family, "params": params}
    code, err = cli_errors(tmp_path, capsys, "lyapunov", json.dumps(
        {"seed": 7, "base": {"kind": "dirac"}, "fiber": fiber}))
    assert code == 1
    assert err.splitlines() == ["configuration errors:",
                                f"  - fiber.params.{field} must be a list of numbers"]


@pytest.mark.parametrize("task", ["certify-expansion", "full-pipeline"])
@pytest.mark.parametrize("key", ["lambda", "temperedness_threshold"])
@pytest.mark.parametrize("value", [0, 0.0, -0.5])
def test_rate_and_threshold_must_be_positive(task, key, value, tmp_path, capsys):
    code, err = cli_errors(tmp_path, capsys, task, json.dumps(
        dict(DOUBLING_FULL, task=task, task_params={key: value})))
    assert code == 1
    assert err.splitlines() == ["configuration errors:",
                                f"  - task_params.{key} must be positive"]
