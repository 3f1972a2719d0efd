import json
import math
import os

import numpy as np
import pytest

from randhyp import (ConfigurationError, oseledets_spectrum, parse_config,
                     run_task, sample_base)
from randhyp.base import random_point
from randhyp.cli import main
from randhyp.fibers import ManifoldPoint

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


def test_parse_lambda_vs_declared_bound():
    bad = dict(DOUBLING_FULL)
    bad["task_params"] = {"lambda": 0.8, "a_bound": math.log(2)}
    with pytest.raises(ConfigurationError) as err:
        parse_config(json.dumps(bad))
    assert any("A > lambda > 0" in m for m in err.value.errors)


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


def test_rerun_with_echoed_config_is_bit_identical():
    cfg = parse_config(json.dumps(DOUBLING_FULL))
    rep1 = run_task(cfg)
    cfg2 = parse_config(json.dumps(rep1.config_echo))
    rep2 = run_task(cfg2)
    assert rep1.payload_bytes() == rep2.payload_bytes()


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
    "curve_n_max": 40, "supadd_samples": 2, "supadd_N": 4,
    "birkhoff_steps": 100, "birkhoff_starts": 3, "horizon": 10,
    "curve_len": 4, "batches": 4,
}


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


def test_full_pipeline_sweeps_the_rate_once(monkeypatch):
    # minimize reuses the certificate's rate sweep: full-pipeline makes no
    # grid step beyond certify-expansion's, and minimize's payload is the
    # one the minimize task computes with its own sweep
    from randhyp.fibers import CircleFamily
    steps = []
    log_deriv = CircleFamily.log_deriv

    def counted(self, p, x, xp=math):
        steps.append(xp is np)
        return log_deriv(self, p, x, xp)

    monkeypatch.setattr(CircleFamily, "log_deriv", counted)
    configs = {task: parse_config(json.dumps({
        "task": task, "seed": 7, "base": BASES["markov"],
        "fiber": {"family": "perturbed-doubling",
                  "params": FAMILIES["perturbed-doubling"]},
        "task_params": TINY_PIPELINE}))
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
    ("minimize", "birkhoff_starts", True),
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
        "task_params": {"samples": 4, "horizon": 30, "n": 400, "curve_len": 20},
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
                        "birkhoff_steps": 500, "birkhoff_starts": 5,
                        "include_periodic": True, "p_max": 3},
    }
    report = run_task(parse_config(json.dumps(cfg_dict)))
    assert report.exit_code == 0
    report.write(tmp_path)
    lines = (tmp_path / "orbits.csv").read_text().splitlines()
    assert lines[0] == "word,period,x0,phi_average,residual"
    assert len(lines) > 3
