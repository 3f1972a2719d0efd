"""tools/payload_hashes.py: a fresh run of the grid and the named runs, at
threads 1 and 4, equals the golden store tests/payload_hashes.json;
--compare names each run that differs with its verdicts; and the drift
report lets floats move, nothing else.  tests/test_payload_pins.py reads
single runs of the same fresh run at threads 1.

A change that moves payloads on purpose re-records the store with
`python3 tools/payload_hashes.py > tests/payload_hashes.json` and says why.
"""

import functools
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


# the golden store: every run, byte for byte, recorded at threads 1
STORE = json.loads((pathlib.Path(__file__).parent / "payload_hashes.json").read_text())
# each thread count's fresh run is made once per session
fresh = functools.lru_cache(maxsize=None)(payload_hashes.hashes)


def assert_a_fresh_run_equals_the_store(threads):
    new = fresh(threads)
    differ = payload_hashes.differing(STORE, new)
    assert not differ, (f"{len(differ)} runs differ at threads {threads}: {differ}; the "
                        f"store was recorded with numpy {STORE['numpy']}, this is "
                        f"numpy {new['numpy']}")


def test_the_grid_equals_the_recorded_hashes():
    assert_a_fresh_run_equals_the_store(1)


def test_a_fresh_run_at_threads_4_equals_the_store():
    assert_a_fresh_run_equals_the_store(4)


def test_compare_names_each_run_that_differs_with_its_verdicts(tmp_path, capsys):
    entry = {"payload": "a" * 64, "csv": {}, "verdict": "certified"}
    paths = [tmp_path / name for name in ("a.json", "b.json", "c.json")]
    for path, runs in zip(paths, [{"r": entry, "s": entry},
                                  {"r": entry, "s": dict(entry)},
                                  {"r": entry, "s": dict(entry, payload="b" * 64,
                                                         verdict="inconclusive")}]):
        path.write_text(json.dumps({"numpy": "2.4.6", "runs": runs}))
    assert payload_hashes.compare(paths[0], paths[1]) == 0
    assert capsys.readouterr().out == "2 runs equal, 0 differ\n"
    assert payload_hashes.compare(paths[0], paths[2]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("1 runs equal, 1 differ\n",
                          "differs: s: verdict certified -> inconclusive\n")


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
