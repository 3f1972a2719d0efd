"""The benchmark's tracer hooks randhyp functions by name; a function it
names must exist, or every traced benchmark run fails at install.  The
benchmark's configs at one thread must import no module that only costs
it time or memory."""

import importlib
import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
FUNCTIONS = runpy.run_path(str(TRACER))["FUNCTIONS"]   # compiled from source, no cache written


@pytest.mark.parametrize("mod_name, fn_name",
                         [(mod, fn) for mod, fn, _, _ in FUNCTIONS],
                         ids=[f"{mod}.{fn}" for mod, fn, _, _ in FUNCTIONS])
def test_every_traced_function_resolves(mod_name, fn_name):
    assert callable(getattr(importlib.import_module(f"randhyp.{mod_name}"), fn_name))


# every benchmark config at seed 7, in a fresh interpreter; the configs are
# compiled from source, so no cache is written under bench/
_PROBE = """
import json, runpy, sys
sys.path.insert(0, {src!r})
from randhyp import parse_config, run_task
workloads = runpy.run_path({workloads!r})
for name in workloads["WORKLOADS"]:
    run_task(parse_config(workloads["config_text"](name, 7)), threads={threads})
print(json.dumps([m for m in ("concurrent.futures", "numpy.ma") if m in sys.modules]))
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_benchmark_configs_leave_the_thread_pool_and_masked_arrays_unimported(threads):
    # the thread pool's import adds 6-13 % to setup_s and numpy.ma about
    # 1 MB of RSS; two threads import the pool, so the probe sees imports
    probe = _PROBE.format(src=str(ROOT / "src"), workloads=str(ROOT / "bench" / "workloads.py"),
                          threads=threads)
    run = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    loaded = json.loads(run.stdout)
    if threads == 1:
        assert loaded == []
    else:
        assert "concurrent.futures" in loaded
