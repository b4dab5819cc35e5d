import itertools
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from gclbench.config import (
    CONFIG_SCHEMA,
    DEFAULT_HYPERS,
    HYPERPARAMETERS,
    SYNTH_SCHEMA,
    ConfigError,
    _GRID_ITEMS,
    expand_grid,
    load_config,
    resolve_hypers,
    resolve_point,
    validate_config,
)
from gclbench.synth import SynthConfig
from gclbench.trainers import config_hash


def _doc(hypers):
    return {"version": 1, "hyperparameters": hypers}


def test_grid_keys_are_the_schema_keys_that_take_a_list():
    props = CONFIG_SCHEMA["properties"]["hyperparameters"]["properties"]
    assert {k for k, v in props.items() if v.get("if") == {"type": "array"}} == set(_GRID_ITEMS)
    assert set(_GRID_ITEMS) <= set(DEFAULT_HYPERS)


def test_the_table_is_the_schema():
    props = CONFIG_SCHEMA["properties"]["hyperparameters"]["properties"]
    assert list(props) == list(HYPERPARAMETERS) and len(props) == 17
    assert set(HYPERPARAMETERS) - set(DEFAULT_HYPERS) == {"sample_num", "provider", "cache_path"}


def test_default_config_hash_is_pinned():
    # Guards each default's value and type: 100.0 is not 100.
    assert config_hash(resolve_hypers(None)) == "acf2a644316b67fb"


def test_resolve_hypers_rejects_a_key_outside_the_table():
    with pytest.raises(ConfigError, match="unknown hyperparameter epoch, lrr; the keys are lr, "):
        resolve_hypers({"lrr": 0.1, "epoch": 2})


@pytest.mark.parametrize("key", sorted(_GRID_ITEMS))
def test_every_grid_key_expands(key):
    doc = validate_config(_doc({key: [1, 2]}))
    points = expand_grid(resolve_hypers(doc["hyperparameters"]))
    assert [p[key] for p in points] == [1, 2]
    for p in points:
        assert {k: v for k, v in p.items() if k != key} == {
            k: v for k, v in DEFAULT_HYPERS.items() if k != key}


def test_all_grid_keys_expand_to_their_cross_product():
    grids = {k: [1, 2] for k in _GRID_ITEMS}
    points = expand_grid(resolve_hypers(validate_config(_doc(grids))["hyperparameters"]))
    keys = sorted(grids)
    assert [tuple(p[k] for k in keys) for p in points] == list(
        itertools.product(*(grids[k] for k in keys)))


def test_a_list_for_a_key_outside_the_table_is_rejected():
    with pytest.raises(ConfigError, match="hyperparameters/dropout"):
        validate_config(_doc({"dropout": [0.1, 0.2]}))


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_load_config_rejects_non_finite_literals(tmp_path, literal):
    # Python's json reads these, and a NaN passes every schema bound.
    path = tmp_path / "config.json"
    path.write_text('{"version": 1, "hyperparameters": {"strength": %s}}' % literal)
    with pytest.raises(ConfigError, match=f"{literal} is not a JSON number"):
        load_config(path)


def test_synth_schema_has_one_entry_per_synth_field():
    assert set(SYNTH_SCHEMA["properties"]) == {f.name for f in fields(SynthConfig)}
    assert SYNTH_SCHEMA["properties"]["seed"] == {"type": "integer"}
    assert SYNTH_SCHEMA["properties"]["intra_p"] == {"type": "number"}


@pytest.mark.parametrize("value", [1.0, True])
def test_an_integer_setting_takes_only_a_json_integer(value):
    # A float with an integral value used to pass as an integer.
    with pytest.raises(ConfigError, match="max_node_text_len: .* is not of type 'integer'"):
        validate_config(_doc({"max_node_text_len": value}))


def test_the_config_schema_is_a_valid_draft_2020_12_schema():
    # validate_config builds its validator once and does not re-check the schema.
    Draft202012Validator.check_schema(CONFIG_SCHEMA)


@pytest.mark.parametrize("value, ok", [
    (1, True), (0.5, True), (np.float64(0.5), True), (10 ** 30, True),
    (True, False), (float("nan"), False), (float("inf"), False), (-float("inf"), False),
    (np.float64("inf"), False), ("1", False),
])
def test_a_number_is_a_finite_int_or_float(value, ok):
    # An inf used to pass every bound: "strength": 1e999 ran ewc into a non-finite loss.
    doc = _doc({"strength": value})
    if ok:
        assert validate_config(doc) is doc
    else:
        with pytest.raises(ConfigError, match="hyperparameters/strength: .* is not of type 'number'"):
            validate_config(doc)


# One value of each JSON kind; small lists and provider-like objects can be valid.
_ONE_OF_EACH_KIND = st.tuples(
    st.none(),
    st.booleans(),
    st.integers(max_value=0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.integers(-1, 3) | st.floats(0.1, 0.9), max_size=3),
    st.dictionaries(st.sampled_from(["kind", "endpoint", "matrix", "index", "model", "typo"]),
                    st.sampled_from(["http", "file", ""]) | st.integers(0, 2), max_size=4),
)


@pytest.mark.parametrize("key", list(HYPERPARAMETERS))
@settings(max_examples=20, deadline=None, derandomize=True)
@given(values=_ONE_OF_EACH_KIND)
def test_resolve_point_applies_each_rule_of_the_table(key, values):
    # A library run takes a value as it is or fails naming its key, and decides
    # as the CLI's validate_config does; only a grid list is refused in addition.
    for value in values:
        try:
            point = resolve_point({key: value})
        except ConfigError as exc:
            assert f"hyperparameters/{key}" in str(exc)
            taken = False
        else:
            assert point[key] is value
            taken = True
        if not isinstance(value, list):
            try:
                validate_config(_doc({key: value}))
                valid = True
            except ConfigError:
                valid = False
            assert taken == valid, (key, value)
