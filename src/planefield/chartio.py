"""JSON file formats: charts with fields, models, atlases, reports.

A chart file carries {coords, domain, periodic, singular_loci, metric,
forms, vectors} with every expression in the DSL; model files extend that
with {model_id, parameters, named_frames, foliation}.  Atlas files list
chart payloads plus transition maps (an expression triple per direction).
All writers emit deterministic JSON (sorted keys); readers refuse the
NaN and Infinity literals that the writers never emit.

Payloads are checked against the schemas shipped with the package by a
verdict-only checker of the JSON Schema (draft 2020-12) keywords those
schemas use.  jsonschema is imported only when that checker rejects a
payload: it words the error, and it stays the authority on that path.
"""

from __future__ import annotations

import json
import numbers
import re
from functools import cache
from importlib import resources
from pathlib import Path

from .errors import ConfigError, open_output
from .expr import to_string
from .geometry import Chart, MetricField, OneForm, SingularLocus, VectorField, _as_nodes
from .models.base import Model
from .models.openbook import Transition

__all__ = [
    "validate_payload", "dump_json", "read_json",
    "chart_payload", "model_payload", "model_from_payload",
    "load_model", "save_model", "atlas_payload", "atlas_from_payload",
    "save_atlas", "load_atlas",
]


# The draft 2020-12 keywords the checker implements, with jsonschema's
# type predicates: a bool is neither a number nor an integer, 1.0 is an integer.
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "number": lambda x: isinstance(x, numbers.Number) and not isinstance(x, bool),
    "integer": lambda x: not isinstance(x, bool) and (
        isinstance(x, int) or isinstance(x, float) and x.is_integer()),
}
_KEYWORDS = {"$schema", "$id", "title", "type", "properties", "required",
             "additionalProperties", "items", "minItems", "maxItems",
             "minimum", "exclusiveMinimum", "pattern", "enum"}


def _subset_only(schema, name: str) -> None:
    """Raise ConfigError where ``schema`` leaves the checker's keyword subset."""
    if isinstance(schema, bool):
        return
    unknown = sorted(schema.keys() - _KEYWORDS)
    if any(isinstance(e, (list, dict)) for e in schema.get("enum", ())):
        unknown.append("an enum of arrays or objects")
    if unknown:
        raise ConfigError(f"{name} schema uses {', '.join(unknown)}, "
                          "which chartio's schema checker does not implement")
    for sub in [*schema.get("properties", {}).values(),
                schema.get("additionalProperties", True), schema.get("items", True)]:
        _subset_only(sub, name)


@cache
def _schema(name: str):
    """A shipped schema, loaded once per process and held to the subset."""
    ref = resources.files("planefield.schemas").joinpath(f"{name}.schema.json")
    schema = json.loads(ref.read_text(encoding="utf-8"))
    _subset_only(schema, name)
    return schema


def _accepts(schema, x) -> bool:
    """jsonschema's verdict on ``x`` for a schema within the subset."""
    if isinstance(schema, bool):
        return schema
    types = schema.get("type")
    if types is not None and not any(
            _TYPES[t](x) for t in ([types] if isinstance(types, str) else types)):
        return False
    # enum members are scalars, and jsonschema's equality tells bools apart
    if "enum" in schema and not any(
            e is x or isinstance(e, bool) == isinstance(x, bool) and e == x
            for e in schema["enum"]):
        return False
    if _TYPES["number"](x) and (
            "minimum" in schema and x < schema["minimum"]
            or "exclusiveMinimum" in schema and x <= schema["exclusiveMinimum"]):
        return False
    if isinstance(x, str) and "pattern" in schema and not re.search(schema["pattern"], x):
        return False
    if isinstance(x, list):
        if not schema.get("minItems", 0) <= len(x) <= schema.get("maxItems", len(x)):
            return False
        return all(_accepts(schema.get("items", True), v) for v in x)
    if isinstance(x, dict):
        props, extra = schema.get("properties", {}), schema.get("additionalProperties", True)
        return (all(k in x for k in schema.get("required", ()))
                and all(_accepts(props.get(k, extra), v) for k, v in x.items()))
    return True


@cache
def _validator(name: str):
    """jsonschema's validator of a shipped schema, checked once per process."""
    import jsonschema
    schema = _schema(name)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_payload(payload: dict, schema_name: str) -> None:
    """Raise ConfigError when a payload does not match a shipped schema."""
    if _accepts(_schema(schema_name), payload):
        return
    import jsonschema
    err = jsonschema.exceptions.best_match(
        _validator(schema_name).iter_errors(payload))
    if err is not None:
        raise ConfigError(
            f"payload fails {schema_name} schema: {err.message}") from err


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def read_json(path):
    """Parse a JSON file, refusing the NaN and Infinity dump_json never writes."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"{p}: cannot read ({err.strerror or err})") from err
    try:
        return json.loads(text, parse_constant=_refuse_constant)
    except ValueError as err:
        raise ConfigError(f"{p}: not valid JSON ({err})") from err


def dump_json(payload: dict, path) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open_output(path) as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# chart / model payloads


def chart_payload(model: Model) -> dict:
    chart = model.chart
    return {
        "chart_id": chart.chart_id,
        "coords": list(chart.coord_names),
        "domain": [[lo, hi] for lo, hi in chart.domain],
        "periodic": list(chart.periodic),
        "singular_loci": [
            {"coordinate": l.coordinate, "value": l.value, "note": l.note}
            for l in chart.singular_loci],
        "metric": [to_string(e) for e in model.metric.entries],
        "forms": {name: [to_string(c) for c in form.components]
                  for name, form in sorted(model.forms.items())},
        "vectors": {name: [to_string(c) for c in vec.components]
                    for name, vec in sorted(model.vectors.items())},
    }


def model_payload(model: Model) -> dict:
    payload = chart_payload(model)
    payload["model_id"] = model.model_id
    payload["parameters"] = model.parameters
    payload["named_frames"] = {
        name: [[to_string(c) for c in f.components] for f in pair]
        for name, pair in sorted(model.named_frames.items())}
    if model.foliation is not None:
        payload["foliation"] = model.foliation
    return payload


def model_from_payload(payload: dict, default_id: str = "chart") -> Model:
    validate_payload(payload, "chart")
    chart = Chart(
        coord_names=tuple(payload["coords"]),
        domain=tuple((lo, hi) for lo, hi in payload["domain"]),
        periodic=tuple(payload["periodic"]),
        singular_loci=tuple(
            SingularLocus(l["coordinate"], float(l["value"]), l.get("note", ""))
            for l in payload.get("singular_loci", [])),
        chart_id=payload.get("chart_id") or payload.get("model_id") or default_id,
    )
    metric = MetricField.from_strings(chart, payload["metric"])
    forms = {name: OneForm(chart, comps)
             for name, comps in payload.get("forms", {}).items()}
    vectors = {name: VectorField(chart, comps)
               for name, comps in payload.get("vectors", {}).items()}
    named_frames = {
        name: tuple(VectorField(chart, comps) for comps in pair)
        for name, pair in payload.get("named_frames", {}).items()}
    foliation = payload.get("foliation")
    if foliation is None and len(forms) == 1:
        foliation = next(iter(forms))
    if foliation is not None and foliation not in forms:
        raise ConfigError(f"foliation {foliation!r} names no form in the file")
    return Model(
        model_id=payload.get("model_id", chart.chart_id),
        chart=chart, metric=metric, forms=forms, vectors=vectors,
        named_frames=named_frames,
        parameters=payload.get("parameters", {}),
        foliation=foliation)


def load_model(path) -> Model:
    return model_from_payload(read_json(path), default_id=Path(path).stem)


def save_model(model: Model, path) -> None:
    payload = model_payload(model)
    validate_payload(payload, "chart")
    dump_json(payload, path)


# ---------------------------------------------------------------------------
# atlases


def atlas_payload(atlas_id: str, models: list, transitions: list) -> dict:
    return {
        "atlas_id": atlas_id,
        "charts": [model_payload(m) for m in models],
        "transitions": [{
            "source": t.source,
            "target": t.target,
            "forward": [to_string(e) for e in t.forward],
            "overlap": [[lo, hi] for lo, hi in t.overlap],
        } for t in transitions],
    }


def atlas_from_payload(payload: dict) -> tuple:
    validate_payload(payload, "atlas")
    models = [model_from_payload(c) for c in payload["charts"]]
    by_id = {m.model_id: m for m in models}
    transitions = []
    for t in payload["transitions"]:
        if t["source"] not in by_id or t["target"] not in by_id:
            raise ConfigError(
                f"transition {t['source']}->{t['target']} names unknown charts")
        src = by_id[t["source"]]
        transitions.append(Transition(
            source=t["source"], target=t["target"],
            forward=_as_nodes(src.chart, t["forward"]),
            overlap=tuple((lo, hi) for lo, hi in t["overlap"])))
    return payload["atlas_id"], models, transitions


def save_atlas(atlas_id: str, models: list, transitions: list, path) -> None:
    payload = atlas_payload(atlas_id, models, transitions)
    validate_payload(payload, "atlas")
    dump_json(payload, path)


def load_atlas(path) -> tuple:
    return atlas_from_payload(read_json(path))
