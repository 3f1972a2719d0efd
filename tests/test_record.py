"""The frozen record base behind randhyp's value classes."""

import pathlib
import subprocess
import sys

import pytest

from randhyp import BaseState, BaseSystemSpec, ExperimentConfig, ManifoldPoint
from randhyp._record import Record, field
from randhyp.expansion import CorollaryReport, UniformRateEstimate

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _config(**changes):
    spec = BaseSystemSpec.dirac()
    return ExperimentConfig(**{"base": spec, "fiber": None, "seed": 1, "task": "lyapunov",
                               "task_params": {}, **changes})


def test_position_keyword_and_defaults_build_equal_records():
    a = CorollaryReport(0.5, 0.1, 20, "positive")
    b = CorollaryReport(estimate=0.5, std_err=0.1, samples=20, verdict="positive",
                        lambda_const=None)
    assert a == b and hash(a) == hash(b) and a.lambda_const is None
    assert a != CorollaryReport(0.5, 0.1, 20, "positive", 0.25)
    assert a.__eq__((0.5, 0.1, 20, "positive", None)) is NotImplemented


def test_complete_positional_call_matches_keyword_and_defaulted_calls():
    class Triple(Record):
        a: int
        b: tuple = field(default_factory=tuple)
        c: int = field(default=2, compare=False)

    by_position = Triple(1, (), 2)      # every field by position
    for other in (Triple(a=1, b=(), c=2), Triple(1), Triple(1, c=2), Triple(1, ())):
        assert other == by_position and hash(other) == hash(by_position)
        assert list(vars(other).items()) == list(vars(by_position).items())


def test_each_instance_gets_its_own_default_factory_dict():
    a, b = _config(), _config()
    assert a.echo == {} and a.echo is not b.echo
    a.echo["seen"] = True
    assert b.echo == {}


def test_specs_differing_only_in_uncompared_fields_are_equal():
    markov = BaseSystemSpec.markov([[0.9, 0.1], [0.3, 0.7]])
    given = BaseSystemSpec("markov", 2, None, markov.transition, None, (0.5, 0.5))
    assert given.stationary != markov.stationary
    assert given.tables[0].tolist() != markov.tables[0].tolist()
    assert given == markov and hash(given) == hash(markov)
    assert {markov: "found"}[given] == "found"
    assert isinstance(hash(BaseState(given, 3)), int)   # BaseState hashes its spec
    assert given != BaseSystemSpec.markov([[0.8, 0.2], [0.3, 0.7]])


def test_init_false_field_is_refused_as_an_argument():
    with pytest.raises(TypeError, match="unexpected argument 'tables'"):
        BaseSystemSpec(kind="dirac", tables=())


def test_post_init_runs_and_can_set_fields():
    assert ManifoldPoint((1.25, -0.25)).coords == (0.25, 0.75)
    spec = BaseSystemSpec.bernoulli([0.25, 0.75])
    assert spec.stationary == (0.25, 0.75) and spec.tables is not None


def test_assignment_and_deletion_raise_attribute_error():
    x = ManifoldPoint((0.5,))
    with pytest.raises(AttributeError):
        x.coords = (0.25,)
    with pytest.raises(AttributeError):
        x.other = 1
    with pytest.raises(AttributeError):
        del x.coords
    assert x.coords == (0.5,)


def test_repr_names_the_class_and_leaves_out_repr_false_fields():
    est = UniformRateEstimate(0.5, 0.01, 12, 3, (), sweeps=("not shown",))
    assert repr(est) == ("UniformRateEstimate(a_estimate=0.5, a_std_err=0.01, "
                         "n_max=12, samples=3, trend=())")
    assert "tables" not in repr(BaseSystemSpec.bernoulli([0.5, 0.5]))


@pytest.mark.parametrize("args, kwargs, message", [
    ((0.5, 0.1, 20), {}, "missing argument 'verdict'"),
    ((0.5,), {"estimate": 0.5}, "multiple values for 'estimate'"),
    ((0.5, 0.1, 20, "positive"), {"lambda_cons": 0.1}, "unexpected argument 'lambda_cons'"),
    ((0.5, 0.1, 20, "positive", 0.1, 0.2), {}, "takes 5 arguments but 6 were given"),
])
def test_bad_arguments_raise_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        CorollaryReport(*args, **kwargs)


def test_class_attributes_hold_plain_defaults_only():
    class Point(Record):
        a: int
        b: dict = field(default_factory=dict, init=False)
        c: int = field(default=2, repr=False)

    assert Point(1, 3) == Point(a=1, c=3) and Point(1).b == {}
    assert repr(Point(1)).endswith("<locals>.Point(a=1, b={})")
    assert Point.c == 2 and not hasattr(Point, "b")


def test_import_leaves_dataclasses_unimported():
    probe = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import randhyp; "
             "print('dataclasses' in sys.modules)")
    run = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True,
                         text=True)
    assert run.stdout.strip() == "False", run.stderr
