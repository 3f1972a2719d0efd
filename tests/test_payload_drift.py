"""tools/payload_hashes.py: a fresh grid equals the recorded hashes, and
its drift report lets floats move, nothing else."""

import importlib.util
import json
import math
import pathlib
import re

import pytest

_TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "payload_hashes.py"
_spec = importlib.util.spec_from_file_location("payload_hashes", _TOOL)
payload_hashes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(payload_hashes)


def test_the_grid_equals_the_recorded_hashes():
    # the golden store: every run of the grid at threads 1, byte for byte
    recorded = json.loads((pathlib.Path(__file__).parent / "payload_hashes.json").read_text())
    fresh = payload_hashes.hashes(1)
    runs = recorded.keys() | fresh.keys()
    differ = sorted(k for k in runs if recorded.get(k) != fresh.get(k))
    assert not differ, f"{len(differ)} of {len(runs)} runs differ: {differ}"


RUN = {"payload": {"a": 2.0, "curve": [1.0, -4.0], "n": 6, "name": "x"},
       "verdict": "certified-expanding"}


def moved(**changes):
    run = json.loads(json.dumps(RUN))
    run["payload"].update(changes)
    return run


def test_equal_runs_do_not_drift():
    assert payload_hashes.drift(RUN, json.loads(json.dumps(RUN))) == 0.0


def test_the_largest_relative_float_difference_is_reported():
    assert payload_hashes.drift(RUN, moved(a=2.0 * (1 + 1e-13), curve=[1.0, -4.0 - 4e-14])) \
        == pytest.approx(1e-13, rel=1e-3)
    assert payload_hashes.drift(RUN, moved(a=math.inf)) == math.inf
    assert payload_hashes.drift(moved(a=math.nan), moved(a=math.nan)) == 0.0


@pytest.mark.parametrize("other, where", [
    (dict(RUN, verdict="inconclusive"), "$.verdict"),
    (moved(n=7), "$.payload.n"),
    (moved(n=6.0), "$.payload.n"),
    (moved(name="y"), "$.payload.name"),
    (moved(curve=[1.0]), "$.payload.curve: length"),
    (dict(RUN, extra=1), "$: keys ['extra']"),
    ({"error": "ValueError: boom"}, "$: keys"),
])
def test_any_other_difference_is_a_mismatch(other, where):
    with pytest.raises(payload_hashes.Mismatch, match="^" + re.escape(where)):
        payload_hashes.drift(RUN, other)


def test_drift_report_exits_one_only_on_other_differences(tmp_path, capsys):
    paths = [tmp_path / name for name in ("a.json", "b.json", "c.json")]
    for path, runs in zip(paths, [{"r": RUN, "s": RUN},
                                  {"r": moved(a=2.5), "s": RUN},
                                  {"r": RUN, "s": moved(n=5)}]):
        path.write_text(json.dumps(runs))
    assert payload_hashes.drift_report(paths[0], paths[1]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "drift 0.2: r",
        "1 runs equal, 1 moved by floats only (largest relative 0.2), 0 differ otherwise"]
    assert payload_hashes.drift_report(paths[0], paths[2]) == 1
    assert "differs: s: $.payload.n: 6 != 5" in capsys.readouterr().err
