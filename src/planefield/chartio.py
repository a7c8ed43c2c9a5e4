"""JSON file formats: charts with fields, models, atlases, reports.

A chart file carries {coords, domain, periodic, singular_loci, metric,
forms, vectors} with every expression in the DSL; model files extend that
with {model_id, parameters, named_frames, foliation}.  Atlas files list
chart payloads plus transition maps (an expression triple per direction).
All writers emit deterministic JSON (sorted keys); readers validate
against the schemas shipped with the package.
"""

from __future__ import annotations

import json
from functools import cache
from importlib import resources
from pathlib import Path

import jsonschema

from .errors import ConfigError
from .expr import to_string
from .geometry import Chart, MetricField, OneForm, SingularLocus, VectorField, _as_nodes
from .models.base import Model
from .models.openbook import Transition

__all__ = [
    "validate_payload", "dump_json",
    "chart_payload", "model_payload", "model_from_payload",
    "load_model", "save_model", "atlas_payload", "atlas_from_payload",
    "save_atlas", "load_atlas",
]


@cache
def _validator(name: str):
    """The shipped schema's validator, its schema checked once per process."""
    ref = resources.files("planefield.schemas").joinpath(f"{name}.schema.json")
    schema = json.loads(ref.read_text(encoding="utf-8"))
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_payload(payload: dict, schema_name: str) -> None:
    """Raise ConfigError when a payload does not match a shipped schema."""
    err = jsonschema.exceptions.best_match(
        _validator(schema_name).iter_errors(payload))
    if err is not None:
        raise ConfigError(
            f"payload fails {schema_name} schema: {err.message}") from err


def dump_json(payload: dict, path) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


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
    p = Path(path)
    try:
        payload = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigError(f"{p}: not valid JSON ({err})") from err
    return model_from_payload(payload, default_id=p.stem)


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
    p = Path(path)
    try:
        payload = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigError(f"{p}: not valid JSON ({err})") from err
    return atlas_from_payload(payload)
