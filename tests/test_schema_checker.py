"""chartio's schema checker gives jsonschema's verdict on every payload.

The checker implements the draft 2020-12 keywords that the shipped schemas
use; jsonschema (Draft202012Validator) is the oracle here.  Besides the
cases below, ``conftest.py`` compares the two verdicts on every payload
that any test validates.
"""

import copy
import json
import math
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planefield import chartio
from planefield.errors import ConfigError

SCHEMAS = sorted(p.name.removesuffix(".schema.json")
                 for p in resources.files("planefield.schemas").iterdir()
                 if p.name.endswith(".schema.json"))

# One valid payload per schema, with every property its schema names.
BASES = {
    "atlas": {
        "atlas_id": "annulus", "charts": [{"coords": ["x", "y", "z"]}],
        "transitions": [{"source": "a", "target": "b", "forward": ["x", "y", "z"],
                         "overlap": [[0.0, 1.0], [0, 1], [-2.5, 3]]}]},
    "chart": {
        "chart_id": "box", "model_id": "box", "coords": ["x", "y_1", "_z"],
        "domain": [[-1.0, 1.0], [0, 2], [0.0, 6.283185307179586]],
        "periodic": [False, False, True],
        "singular_loci": [{"coordinate": "x", "value": 0.0, "note": "axis"}],
        "metric": ["1", "0", "0", "1 + x^2", "0", "1"],
        "forms": {"alpha": ["0", "x", "1"]}, "vectors": {"e1": ["1", "0", "0"]},
        "parameters": {"eps": 0.05, "rise": [0.25, 0.5]},
        "named_frames": {"paper": [["1", "0", "0"], ["0", "1", "0"]]},
        "foliation": "alpha"},
    "integrate-report": {
        "body": {"chart": "torus", "distribution": "graph-foliation", "grid": [8, 8, 8],
                 "integral_h": -1.5e-17, "max_pointwise_defect": 2e-12, "n_points": 512},
        "timings": {"seconds": 0.25}},
    "report": {
        "body": {"chart": "reeb", "grid": [8, 4, 4], "tol": 1e-8, "frame": "paper",
                 "distribution": "foliation", "classification": "parabolic",
                 "aggregates": {"k_e": {"min": -1e-12, "max": 0.0, "mean": 1.0}},
                 "worst_points": [{"point": [0.1, 0.2, 0.3]}], "errors": ["x"],
                 "n_points": 128, "n_valid": 128},
        "timings": {"seconds": 0.1}},
    "scan-report": {
        "body": {"chart": "torus", "grid": [4, 4, 4], "alpha": "vertical",
                 "beta": "winding-contact",
                 "rows": [{"s": 0.5, "contact_volume_min": -1.0, "contact_volume_max": 2.0,
                           "min_abs_contact_volume": 0.0, "transversality_angle_min": 0.1,
                           "transversality_angle_max": 1.5, "degenerate_points": 3}]},
        "timings": {}},
    "suite": {
        "suite": "custom",
        "checks": [{"name": "c", "operation": "classify-expect", "target": "reeb",
                    "grid": [8, 4, 4], "tolerance": 1e-6, "expectation": "parabolic",
                    "params": {"seed": 3}}]},
    "suite-report": {
        "body": {"suite": "s", "vacuous": False, "passed": 1, "total": 2,
                 "all_passed": False,
                 "checks": [{"name": "a", "passed": True, "measured": 1e-9, "bound": "max",
                             "detail": {"n": 3}, "error": ""},
                            {"name": "b", "passed": False, "measured": None, "bound": None}]},
        "timings": {"seconds": 1.0}},
    "transfer-report": {
        "body": {"chart": "torus", "grid": [4, 4, 4], "n_points": 64,
                 "form_residual": {"max": 1e-15, "mean": 1e-16},
                 "det_residual": {"max": 2e-15, "mean": 1e-16},
                 "min_transversality": 0.5, "new_metric_spd": True},
        "timings": {}},
}

REPLACEMENTS = [None, math.nan, math.inf, -math.inf, "", "9lives", [], {}, True, False,
                1e308, 0, -1]


def _schema(name):
    ref = resources.files("planefield.schemas").joinpath(f"{name}.schema.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def _agree(name, payload) -> bool:
    verdict = chartio._accepts(chartio._schema(name), payload)
    assert verdict == jsonschema.Draft202012Validator(_schema(name)).is_valid(payload), payload
    return verdict


def _nodes(value, path=()):
    """(path, value) of the payload and of every value nested in it."""
    yield path, value
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield from _nodes(inner, path + (key,))


def _mutations(value):
    """(kind, new value) for the value at one node."""
    out = [("replace", r) for r in REPLACEMENTS]
    if isinstance(value, int) and not isinstance(value, bool):
        out.append(("replace", float(value)))
    if isinstance(value, dict):
        out.append(("extra key", {**value, "extra": 1}))
        out += [("drop " + key, {k: v for k, v in value.items() if k != key})
                for key in value]
    if isinstance(value, list) and value:
        out += [("shorten", value[:-1]), ("lengthen", value + value[-1:])]
    return out


def _replace(payload, path, new):
    if not path:
        return new
    payload = copy.deepcopy(payload)
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return payload


def test_the_checked_schemas_are_the_eight_shipped_ones():
    assert SCHEMAS == sorted(BASES)
    assert len(SCHEMAS) == 8


@pytest.mark.parametrize("name", SCHEMAS)
def test_shipped_schemas_are_valid_draft_2020_12_schemas(name):
    """The success path no longer meta-validates the schemas, so this does."""
    schema = _schema(name)
    assert jsonschema.validators.validator_for(schema) is jsonschema.Draft202012Validator
    jsonschema.Draft202012Validator.check_schema(schema)


@pytest.mark.parametrize("name", SCHEMAS)
def test_each_single_mutation_gets_jsonschemas_verdict(name):
    assert _agree(name, BASES[name])
    verdicts = [_agree(name, _replace(BASES[name], path, new))
                for path, value in list(_nodes(BASES[name]))
                for _, new in _mutations(value)]
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("name", SCHEMAS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_compound_mutations_get_jsonschemas_verdict(name, data):
    payload = BASES[name]
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        path, value = data.draw(st.sampled_from(list(_nodes(payload))), label="node")
        _, new = data.draw(st.sampled_from(_mutations(value)), label="mutation")
        payload = _replace(payload, path, new)
    _agree(name, payload)


@pytest.mark.parametrize("schema, instance, valid", [
    ({"type": "integer"}, 1.0, True),
    ({"type": "integer"}, 1.5, False),
    ({"type": "integer"}, True, False),
    ({"type": "number"}, False, False),
    ({"type": "number"}, math.inf, True),
    ({"type": "number"}, math.nan, True),
    ({"type": ["number", "string", "null"]}, None, True),
    ({"type": ["number", "string", "null"]}, True, False),
    ({"enum": [1]}, True, False),
    ({"enum": [1]}, 1.0, True),
    ({"enum": [True]}, 1, False),
    ({"enum": ["a", "b"]}, ["a"], False),
    ({"minimum": 1}, math.nan, True),
    ({"minimum": 1}, 0.999, False),
    ({"minimum": 1}, 1, True),
    ({"minimum": 1}, "0", True),
    ({"exclusiveMinimum": 0}, math.nan, True),
    ({"exclusiveMinimum": 0}, 0.0, False),
    ({"exclusiveMinimum": 0}, 5e-324, True),
    ({"pattern": "^[a-z]+$"}, "abc1", False),
    ({"pattern": "b"}, "abc", True),
    ({"pattern": "b"}, 7, True),
    ({"minItems": 2, "maxItems": 2}, [1], False),
    ({"minItems": 2, "maxItems": 2}, [1, 2, 3], False),
    ({"minItems": 2, "maxItems": 2}, (1, 2), True),
    ({"type": "array"}, (1, 2), False),
    ({"items": False}, [], True),
    ({"items": False}, [1], False),
    ({"additionalProperties": {"type": "string"}, "properties": {"a": {}}},
     {"a": 1, "b": "x"}, True),
    ({"additionalProperties": False, "required": ["a"]}, {}, False),
])
def test_checker_follows_jsonschema_semantics(schema, instance, valid):
    schema = {"$schema": "https://json-schema.org/draft/2020-12/schema", **schema}
    assert chartio._accepts(schema, instance) is valid
    assert jsonschema.Draft202012Validator(schema).is_valid(instance) is valid


@pytest.fixture()
def schema_dir(tmp_path, monkeypatch):
    """Serve schemas from ``tmp_path`` in place of the shipped ones."""
    monkeypatch.setattr(chartio.resources, "files", lambda package: tmp_path)
    chartio._schema.cache_clear()
    yield tmp_path
    chartio._schema.cache_clear()


@pytest.mark.parametrize("schema, named", [
    ({"type": "object", "oneOf": [{"required": ["a"]}]}, "oneOf"),
    ({"properties": {"a": {"$ref": "#/$defs/b"}}}, "$ref"),
    ({"items": {"items": {"patternProperties": {"^x": {}}}}}, "patternProperties"),
    ({"additionalProperties": {"format": "uri"}}, "format"),
    ({"enum": [[1, 2]]}, "an enum of arrays or objects"),
])
def test_a_schema_outside_the_checkers_subset_is_refused_when_loaded(
        schema_dir, schema, named):
    (schema_dir / "odd.schema.json").write_text(json.dumps(schema), encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        chartio.validate_payload({}, "odd")
    assert str(err.value) == (f"odd schema uses {named}, which chartio's schema "
                              "checker does not implement")
