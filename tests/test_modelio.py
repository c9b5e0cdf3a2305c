import copy
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pervml import gbrt, svr
from pervml.modelio import ModelIOError, field_types, typed


class TestTyped:
    @pytest.mark.parametrize(
        "value, kind, expected",
        [
            (3, int, 3),
            (3.0, int, 3),
            (2, float, 2.0),
            (0.25, float, 0.25),
            (False, bool, False),
            ("rbf", str, "rbf"),
            ({}, dict, {}),
            ([1, 2.5], list[float], [1.0, 2.5]),
            (["a", "b"], list[str], ["a", "b"]),
        ],
    )
    def test_accepts_and_converts(self, value, kind, expected):
        got = typed(value, kind, "field")
        assert got == expected
        assert type(got) is type(expected)
        if isinstance(got, list):
            assert [type(v) for v in got] == [type(v) for v in expected]

    @pytest.mark.parametrize(
        "value, kind, message",
        [
            (1.5, int, "field must be an integer, got 1.5"),
            (True, int, "field must be an integer, got True"),
            ("3", int, "field must be an integer"),
            (True, float, "field must be a number, got True"),
            (None, float, "field must be a number"),
            (1, bool, "field must be true or false, got 1"),
            ("no", bool, "field must be true or false"),
            (5, str, "field must be a string, got 5"),
            ([], dict, "field must be an object, got []"),
            ("abcd", list[str], "field must be a list of strings, got 'abcd'"),
            ({"a": 1}, list[float], "field must be a list of numbers"),
            ([1.0, "2"], list[float], "field entry must be a number, got '2'"),
            (["a", False], list[str], "field entry must be a string, got False"),
        ],
    )
    def test_rejects_with_field_name(self, value, kind, message):
        with pytest.raises(ModelIOError, match=re.escape(message)):
            typed(value, kind, "field")


@pytest.mark.parametrize("params_cls", [gbrt.GbrtParams, svr.SvrParams])
def test_every_float_param_rejects_non_finite(params_cls):
    floats = [name for name, kind in field_types(params_cls).items() if kind is float]
    assert floats
    for name in floats:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                params_cls(**{name: bad})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: gbrt.GbrtParams(n_estimators=2.5), "n_estimators must be an integer, got 2.5"),
        (lambda: gbrt.GbrtParams(n_estimators=3.0), "n_estimators must be an integer, got 3.0"),
        (lambda: svr.SvrParams(degree=2.0), "degree must be an integer, got 2.0"),
        (lambda: svr.SvrParams(max_passes=50.0), "max_passes must be an integer, got 50.0"),
    ],
)
def test_int_params_reject_non_integers(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_field_types_follow_the_declarations():
    assert field_types(svr.SvrParams) == {
        "C": float, "epsilon": float, "kernel": str, "gamma": float,
        "degree": int, "coef0": float, "tol": float, "max_passes": int,
    }
    assert list(field_types(gbrt.GbrtParams))[:2] == ["n_estimators", "max_depth"]


# Values of other JSON types, non-finite numbers among them, swapped in for
# any value of a saved model.
OTHER_VALUES = [None, True, 0, -1, 2.5, "x", [], [1.0], {}, {"a": 1}, math.nan, -math.inf]
MODULES = {"gbrt": gbrt, "svr": svr}


@pytest.fixture(scope="module")
def saved_models(train_slices, tmp_path_factory):
    """The parsed JSON of one small saved model per family, and a scratch file."""
    train = train_slices["compressive"]
    models = {
        "gbrt": gbrt.fit(train.X, train.y, gbrt.GbrtParams(n_estimators=3, max_depth=2)),
        "svr": svr.fit(train.X[:8], train.y[:8], svr.SvrParams(kernel="polynomial")),
    }
    tmp = tmp_path_factory.mktemp("models")
    payloads = {}
    for family, model in models.items():
        MODULES[family].save_model(model, tmp / f"{family}.json")
        payloads[family] = json.loads((tmp / f"{family}.json").read_text())
    return payloads, tmp / "mutated.json"


def _paths(obj, prefix=()):
    """The key/index path of every value inside a JSON document."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutate(payload, path, mutation, other):
    """One mutation of the value at `path`: drop it, replace it, or resize a list."""
    *parents, last = path
    container = payload
    for key in parents:
        container = container[key]
    if mutation == "drop":
        del container[last]
    elif mutation == "swap":
        container[last] = other
    elif isinstance(container[last], list):
        if mutation == "grow":
            container[last].append(container[last][-1] if container[last] else other)
        elif container[last]:
            container[last].pop()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_one_mutation_loads_or_raises_model_io_error(saved_models, data):
    """Any one mutation of a saved model either loads or raises ModelIOError,
    never another exception."""
    payloads, mutated = saved_models
    family = data.draw(st.sampled_from(list(MODULES)))
    payload = copy.deepcopy(payloads[family])
    path = data.draw(st.sampled_from(list(_paths(payload))))
    mutation = data.draw(st.sampled_from(["drop", "swap", "grow", "shrink"]))
    _mutate(payload, path, mutation, data.draw(st.sampled_from(OTHER_VALUES)))
    mutated.write_text(json.dumps(payload))
    try:
        MODULES[family].load_model(mutated)
    except ModelIOError:
        pass
