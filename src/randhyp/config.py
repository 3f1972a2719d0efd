"""Experiment configuration: JSON parsing with exhaustive validation.

Validation collects every problem (with a dotted field path) before
raising, so a bad config is fixed in one round trip.
"""

import inspect
import json
import math

from ._record import Record, field
from .base import BASE_CATALOG, BaseSystemSpec
from .errors import ConfigurationError
from .fibers import FAMILY_CATALOG, LinearTorusFamily

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
        "include_periodic": False, "p_max": 6,
    },
    "splitting": {
        "samples": 50, "horizon": 50, "n": 10_000, "depth": 50,
        "curve_len": 200, "batches": 20,
    },
    "full-pipeline": {
        "samples": 10, "n": 2_000, "n_max": 10, "grid_size": 1024,
        "depth": 50, "temperedness_threshold": 0.02, "supadd_samples": 3,
        "include_periodic": False, "p_max": 4, "horizon": 40,
        "curve_len": 100, "batches": 20, "corollary": True,
        "lambda": None, "curve_n_max": None, "supadd_N": None,
    },
}

# (type, min value) of every task parameter; counts must be integers,
# floats may be any finite number unless _POSITIVE lists them.
_PARAM_RULES = {
    "n": (int, 1), "n_max": (int, 4), "grid_size": (int, 64), "samples": (int, 1),
    "lambda": (float, None), "horizon": (int, 2), "batches": (int, 1),
    "depth": (int, 1), "p_max": (int, 1), "curve_n_max": (int, 1), "curve_len": (int, 1),
    "temperedness_threshold": (float, None), "supadd_samples": (int, 1),
    "supadd_N": (int, 2), "include_periodic": (bool, None), "corollary": (bool, None),
}
_POSITIVE = ("lambda", "temperedness_threshold")


class _NonFinite(str):
    """A JSON number literal with no finite float value (NaN, Infinity, 1e400)."""


def _parse_float(text):
    value = float(text)
    return value if math.isfinite(value) else _NonFinite(text)


def _leaves(obj, path):
    """(dotted path, value) of every leaf of the parsed JSON `obj`."""
    if not isinstance(obj, (dict, list)):
        return [(path, obj)]
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    return [leaf for k, v in items for leaf in _leaves(
        v, f"{path}[{k}]" if isinstance(k, int) else f"{path}.{k}" if path else k)]


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class ExperimentConfig(Record):
    base: BaseSystemSpec
    fiber: object
    seed: int
    task: str
    task_params: dict
    out_dir: str = None
    echo: dict = field(default_factory=dict)


def _validate_task_params(task, params, family, errors):
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
        elif key in _POSITIVE and value <= 0:
            errors.append(f"{path} must be positive")
    for key, cap in (("p_max", 12), ("supadd_N", 20)):   # the functions' caps
        value = params.get(key)
        if _is_number(value) and value > cap:
            errors.append(f"task_params.{key} is capped at {cap}")
    n, batches = ({**read, **params}.get(k) for k in ("n", "batches"))
    torus = isinstance(family, LinearTorusFamily) and type(n) is int
    if torus and type(batches) is int and n < batches:
        errors.append(f"task_params.n must be >= batches = {batches}, got {n}")
    if torus and task != "splitting" and n < 2:
        errors.append(f"task_params.n must be >= 2, the fiber dimension, got {n}")


def _read_catalog(catalog, name_path, name, path, params, errors):
    """catalog[name](**params), or None after an error; the constructor's
    signature says which keys are read and which are required, and every
    leaf of `params` must be a number.  `name_path` and `path` are the
    dotted paths of the name and of the params object."""
    if not isinstance(name, str) or name not in catalog:
        errors.append(f"{name_path} unknown: {name!r}; catalog: {sorted(catalog)}")
        return None
    accepted = inspect.signature(catalog[name]).parameters
    problems = ([f"{path}.{key} is not read by {name}"
                 for key in params if key not in accepted]
                + [f"{path}.{key} is required by {name}"
                   for key, arg in accepted.items()
                   if arg.default is arg.empty and key not in params]
                + [f"{leaf} must be a number" for leaf, value in _leaves(params, path)
                   if not _is_number(value)])
    errors.extend(problems)
    try:
        return None if problems else catalog[name](**params)
    except ConfigurationError as exc:
        errors.extend(f"{path}.{msg}" for msg in exc.errors)
    except (TypeError, ValueError, OverflowError) as exc:
        errors.append(f"{path}: {exc}")
    return None


def _parse_family(fiber_raw, errors):
    """The family of a config's `fiber` object, or None after an error."""
    if not isinstance(fiber_raw, dict):
        errors.append("fiber must be an object with a 'family' field")
        return None
    errors.extend(f"fiber.{key} is not read; fiber fields are ['family', 'params']"
                  for key in fiber_raw if key not in ("family", "params"))
    params = fiber_raw.get("params", {})
    if not isinstance(params, dict):
        errors.append("fiber.params must be an object")
        return None
    return _read_catalog(FAMILY_CATALOG, "fiber.family", fiber_raw.get("family"),
                         "fiber.params", params, errors)


def _parse_base(base_raw, errors):
    """The spec of a config's `base` object, or None after an error.  The
    kind's factory derives `alphabet_size`; the echo carries it, so it is
    accepted when it equals the derived value."""
    if not isinstance(base_raw, dict):
        errors.append("base must be an object with a 'kind' field")
        return None
    params = {k: v for k, v in base_raw.items() if k not in ("kind", "alphabet_size")}
    spec = _read_catalog(BASE_CATALOG, "base.kind", base_raw.get("kind"),
                         "base", params, errors)
    if spec is None or "alphabet_size" not in base_raw:
        return spec
    size = base_raw["alphabet_size"]
    if size == spec.alphabet_size and _is_number(size):
        return spec
    errors.append(f"base.alphabet_size is {spec.alphabet_size} for this {spec.kind} "
                  f"base, got {size!r}")
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
    errors = [f"{path} must be a finite number, got {value}"
              for path, value in _leaves(raw, "") if isinstance(value, _NonFinite)]
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

    base_spec = _parse_base(raw.get("base"), errors)
    family = _parse_family(raw.get("fiber"), errors)

    params_raw = raw.get("task_params", {})
    if not isinstance(params_raw, dict):
        errors.append("task_params must be an object")
    elif cfg_task in TASKS:
        _validate_task_params(cfg_task, params_raw, family, errors)

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
