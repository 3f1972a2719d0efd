"""Experiment configuration: JSON parsing with exhaustive validation.

Validation collects every problem (with a dotted field path) before
raising, so a bad config is fixed in one round trip.
"""

import json
from dataclasses import dataclass, field

from .base import BaseSystemSpec
from .errors import ConfigurationError
from .fibers import FAMILY_CATALOG, make_family

TASKS = ("certify-expansion", "lyapunov", "minimize", "splitting", "full-pipeline")

# Documented defaults, merged under user-provided task_params.
TASK_DEFAULTS = {
    "certify-expansion": {
        "samples": 20, "n_max": 12, "grid_size": 4096, "depth": 50,
        "temperedness_threshold": 0.02, "supadd_samples": 5, "corollary": True,
    },
    "lyapunov": {"samples": 50, "n": 10_000, "batches": 20},
    "minimize": {
        "samples": 20, "n_max": 12, "grid_size": 4096,
        "birkhoff_steps": 10_000, "birkhoff_starts": 20,
        "include_periodic": False, "p_max": 6,
    },
    "splitting": {
        "samples": 50, "horizon": 50, "n": 10_000, "depth": 50,
        "curve_len": 200, "batches": 20,
    },
    "full-pipeline": {
        "samples": 10, "n": 2_000, "n_max": 10, "grid_size": 1024,
        "depth": 50, "temperedness_threshold": 0.02, "supadd_samples": 3,
        "birkhoff_steps": 2_000, "birkhoff_starts": 10,
        "include_periodic": False, "p_max": 4, "horizon": 40,
        "curve_len": 100, "batches": 20, "corollary": True,
    },
}

# (type, min value, description) for every recognized numeric parameter;
# counts must be integers, the rest may be any number.
_PARAM_RULES = {
    "n": (int, 1, "orbit length"),
    "n_max": (int, 4, "rate-estimate horizon"),
    "grid_size": (int, 64, "fiber grid resolution"),
    "samples": (int, 1, "number of sampled base points"),
    "lambda": (float, None, "certified expansion rate"),
    "horizon": (int, 2, "bundle window length"),
    "batches": (int, 1, "batch count for error bars"),
    "depth": (int, 1, "truncation depth of the constant's infimum"),
    "p_max": (int, 1, "maximal periodic word length"),
    "birkhoff_steps": (int, 1, "Birkhoff orbit length"),
    "birkhoff_starts": (int, 1, "number of Birkhoff starts"),
    "curve_n_max": (int, 1, "temperedness curve length"),
    "curve_len": (int, 1, "bundle constant curve length"),
    "temperedness_threshold": (float, None, "curve decay threshold"),
    "supadd_samples": (int, 1, "supadditivity sample count"),
    "supadd_N": (int, 2, "supadditivity horizon"),
    "a_bound": (float, None, "declared uniform-rate bound"),
}
_BOOL_PARAMS = {"include_periodic", "corollary"}


@dataclass(frozen=True)
class ExperimentConfig:
    base: BaseSystemSpec
    fiber: object
    seed: int
    task: str
    task_params: dict
    out_dir: str = None
    echo: dict = field(default_factory=dict)


def _validate_task_params(params, errors):
    for key, value in params.items():
        path = f"task_params.{key}"
        if key in _BOOL_PARAMS:
            if not isinstance(value, bool):
                errors.append(f"{path} must be a boolean")
            continue
        if key not in _PARAM_RULES:
            errors.append(f"{path} is not a recognized parameter")
            continue
        kind, low, _ = _PARAM_RULES[key]
        if not isinstance(value, (int, kind)) or isinstance(value, bool):
            errors.append(f"{path} must be {'an integer' if kind is int else 'numeric'}")
            continue
        if low is not None and value < low:
            errors.append(f"{path} must be >= {low}")
    lam = params.get("lambda")
    if lam is not None and isinstance(lam, (int, float)) and lam <= 0:
        errors.append("task_params.lambda must be positive")
    a_bound = params.get("a_bound")
    if (isinstance(lam, (int, float)) and isinstance(a_bound, (int, float))
            and lam >= a_bound > 0):
        errors.append(
            f"task_params.lambda must lie strictly between 0 and the "
            f"uniform expansion rate (declared a_bound={a_bound}); "
            f"the certified regime requires A > lambda > 0")
    p_max = params.get("p_max")
    if isinstance(p_max, (int, float)) and p_max > 12:
        errors.append("task_params.p_max is capped at 12")


def parse_config(text, task=None):
    """Parse and validate a JSON experiment config.

    Raises ConfigurationError carrying all validation messages at once.
    The optional `task` argument (from the command line) fills or checks
    the config's own task field.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError([f"config is not valid JSON: {exc}"])
    if not isinstance(raw, dict):
        raise ConfigurationError(["config must be a JSON object"])

    errors = []

    cfg_task = raw.get("task", task)
    if cfg_task is None:
        errors.append("task is required (in the config or on the command line)")
    elif cfg_task not in TASKS:
        errors.append(f"task must be one of {list(TASKS)}, got {cfg_task!r}")
    if task is not None and raw.get("task") is not None and raw["task"] != task:
        errors.append(
            f"task {raw['task']!r} in the config conflicts with {task!r}")

    seed = raw.get("seed")
    if seed is None:
        errors.append("seed is required")
    elif not isinstance(seed, int) or isinstance(seed, bool):
        errors.append("seed must be an integer")

    base_spec = None
    base_raw = raw.get("base")
    if not isinstance(base_raw, dict):
        errors.append("base must be an object with a 'kind' field")
    else:
        kind = base_raw.get("kind")
        try:
            if kind == "bernoulli":
                base_spec = BaseSystemSpec.bernoulli(base_raw.get("probabilities", ()))
            elif kind == "markov":
                base_spec = BaseSystemSpec.markov(base_raw.get("transition", ()))
            elif kind == "rotation":
                base_spec = BaseSystemSpec.rotation(base_raw.get("rotation_number", -1.0))
            elif kind == "dirac":
                base_spec = BaseSystemSpec.dirac()
            else:
                errors.append(f"base.kind must be one of "
                              f"['bernoulli', 'markov', 'rotation', 'dirac'], got {kind!r}")
        except ConfigurationError as exc:
            errors.extend(f"base.{msg}" for msg in exc.errors)
        except (TypeError, ValueError) as exc:
            errors.append(f"base: {exc}")

    family = None
    fiber_raw = raw.get("fiber")
    if not isinstance(fiber_raw, dict):
        errors.append("fiber must be an object with a 'family' field")
    else:
        name = fiber_raw.get("family")
        if name not in FAMILY_CATALOG:
            errors.append(f"fiber.family unknown: {name!r}; "
                          f"catalog: {sorted(FAMILY_CATALOG)}")
        else:
            try:
                family = make_family(name, fiber_raw.get("params", {}))
            except ConfigurationError as exc:
                errors.extend(f"fiber.params: {msg}" for msg in exc.errors)
            except (TypeError, ValueError) as exc:
                errors.append(f"fiber.params: {exc}")

    params_raw = raw.get("task_params", {})
    if not isinstance(params_raw, dict):
        errors.append("task_params must be an object")
        params_raw = {}
    else:
        _validate_task_params(params_raw, errors)

    out_dir = raw.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        errors.append("out_dir must be a string path")

    if errors:
        raise ConfigurationError(errors)

    task_params = dict(TASK_DEFAULTS.get(cfg_task, {}))
    task_params.update(params_raw)

    echo = {
        "task": cfg_task,
        "seed": seed,
        "base": base_spec.to_json_dict(),
        "fiber": family.describe(),
        "task_params": task_params,
    }
    if out_dir is not None:
        echo["out_dir"] = out_dir
    return ExperimentConfig(base=base_spec, fiber=family, seed=seed,
                            task=cfg_task, task_params=task_params,
                            out_dir=out_dir, echo=echo)
