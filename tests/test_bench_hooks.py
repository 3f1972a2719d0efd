"""The benchmark's tracer hooks randhyp functions by name; a function it
names must exist, or every traced benchmark run fails at install."""

import importlib
import runpy
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
FUNCTIONS = runpy.run_path(str(TRACER))["FUNCTIONS"]   # compiled from source, no cache written


@pytest.mark.parametrize("mod_name, fn_name",
                         [(mod, fn) for mod, fn, _, _ in FUNCTIONS],
                         ids=[f"{mod}.{fn}" for mod, fn, _, _ in FUNCTIONS])
def test_every_traced_function_resolves(mod_name, fn_name):
    assert callable(getattr(importlib.import_module(f"randhyp.{mod_name}"), fn_name))
