"""Experiment configuration: JSON parsing with exhaustive validation.

Validation collects every problem (with a dotted field path) before
raising, so a bad config is fixed in one round trip.
"""

import inspect
import json
import math
from dataclasses import dataclass, field

from .base import BaseSystemSpec
from .errors import ConfigurationError
from .fibers import FAMILY_CATALOG, make_family

TASKS = ("certify-expansion", "lyapunov", "minimize", "splitting", "full-pipeline")
_FIELDS = ("task", "seed", "base", "fiber", "task_params", "out_dir")

# The parameters each task reads, with the defaults merged under the
# user's task_params; None marks an optional parameter with no default.
TASK_DEFAULTS = {
    "certify-expansion": {
        "samples": 20, "n_max": 12, "grid_size": 4096, "depth": 50,
        "temperedness_threshold": 0.02, "supadd_samples": 5, "corollary": True,
        "lambda": None, "curve_n_max": None, "supadd_N": None,
    },
    "lyapunov": {"samples": 50, "n": 10_000},
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
        "lambda": None, "curve_n_max": None, "supadd_N": None,
    },
}

# (type, min value) of every task parameter; counts must be integers,
# floats may be any finite number.
_PARAM_RULES = {
    "n": (int, 1), "n_max": (int, 4), "grid_size": (int, 64), "samples": (int, 1),
    "lambda": (float, None), "horizon": (int, 2), "batches": (int, 1),
    "depth": (int, 1), "p_max": (int, 1), "birkhoff_steps": (int, 1),
    "birkhoff_starts": (int, 1), "curve_n_max": (int, 1), "curve_len": (int, 1),
    "temperedness_threshold": (float, None), "supadd_samples": (int, 1),
    "supadd_N": (int, 2), "include_periodic": (bool, None), "corollary": (bool, None),
}


class _NonFinite(str):
    """A JSON number literal with no finite float value (NaN, Infinity, 1e400)."""


def _parse_float(text):
    value = float(text)
    return value if math.isfinite(value) else _NonFinite(text)


def _non_finite_errors(obj, path):
    """One message per non-finite number in the parsed JSON, by dotted path."""
    if isinstance(obj, _NonFinite):
        return [f"{path} must be a finite number, got {obj}"]
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    return [msg for k, v in items for msg in _non_finite_errors(
        v, f"{path}[{k}]" if isinstance(k, int) else f"{path}.{k}" if path else k)]


@dataclass(frozen=True)
class ExperimentConfig:
    base: BaseSystemSpec
    fiber: object
    seed: int
    task: str
    task_params: dict
    out_dir: str = None
    echo: dict = field(default_factory=dict)


def _validate_task_params(task, params, errors):
    read = TASK_DEFAULTS[task]
    for key, value in params.items():
        path = f"task_params.{key}"
        if key not in read:
            errors.append(f"{path} is not read by {task}")
            continue
        kind, low = _PARAM_RULES[key]
        if kind is bool:
            if not isinstance(value, bool):
                errors.append(f"{path} must be a boolean")
        elif not isinstance(value, (int, kind)) or isinstance(value, bool):
            errors.append(f"{path} must be {'an integer' if kind is int else 'numeric'}")
        elif low is not None and value < low:
            errors.append(f"{path} must be >= {low}")
    lam = params.get("lambda")
    if isinstance(lam, (int, float)) and lam <= 0:
        errors.append("task_params.lambda must be positive")
    p_max = params.get("p_max")
    if isinstance(p_max, (int, float)) and p_max > 12:
        errors.append("task_params.p_max is capped at 12")


def _parse_family(fiber_raw, errors):
    """The family of a config's `fiber` object, or None after an error."""
    errors.extend(f"fiber.{key} is not read; fiber fields are ['family', 'params']"
                  for key in fiber_raw if key not in ("family", "params"))
    name, params = fiber_raw.get("family"), fiber_raw.get("params", {})
    if name not in FAMILY_CATALOG:
        errors.append(f"fiber.family unknown: {name!r}; "
                      f"catalog: {sorted(FAMILY_CATALOG)}")
        return None
    if not isinstance(params, dict):
        errors.append("fiber.params must be an object")
        return None
    accepted = inspect.signature(FAMILY_CATALOG[name]).parameters
    unread = [f"fiber.params.{key} is not read by {name}"
              for key in params if key not in accepted]
    errors.extend(unread)
    try:
        return None if unread else make_family(name, params)
    except ConfigurationError as exc:
        errors.extend(f"fiber.params: {msg}" for msg in exc.errors)
    except (TypeError, ValueError, OverflowError) as exc:
        errors.append(f"fiber.params: {exc}")
    return None


def parse_config(text, task=None):
    """Parse and validate a JSON experiment config.

    Raises ConfigurationError carrying all validation messages at once.
    The optional `task` argument (from the command line) fills or checks
    the config's own task field.  Keys that no code reads and numbers
    with no finite float value are errors.
    """
    try:
        raw = json.loads(text, parse_constant=_NonFinite, parse_float=_parse_float)
    except json.JSONDecodeError as exc:
        raise ConfigurationError([f"config is not valid JSON: {exc}"])
    if not isinstance(raw, dict):
        raise ConfigurationError(["config must be a JSON object"])
    errors = _non_finite_errors(raw, "")
    if errors:
        raise ConfigurationError(errors)

    errors.extend(f"{key} is not read; config fields are {list(_FIELDS)}"
                  for key in raw if key not in _FIELDS)

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
        except (TypeError, ValueError, OverflowError) as exc:
            errors.append(f"base: {exc}")

    family = None
    fiber_raw = raw.get("fiber")
    if not isinstance(fiber_raw, dict):
        errors.append("fiber must be an object with a 'family' field")
    else:
        family = _parse_family(fiber_raw, errors)

    params_raw = raw.get("task_params", {})
    if not isinstance(params_raw, dict):
        errors.append("task_params must be an object")
    elif cfg_task in TASKS:
        _validate_task_params(cfg_task, params_raw, errors)

    out_dir = raw.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        errors.append("out_dir must be a string path")

    if errors:
        raise ConfigurationError(errors)

    task_params = {k: v for k, v in TASK_DEFAULTS[cfg_task].items() if v is not None}
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
