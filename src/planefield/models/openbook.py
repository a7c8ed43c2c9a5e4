"""Desk-scale open-book atlas: annulus pages, two binding circles.

Five charts cover the demo manifold: a solid-torus model around each
binding circle, a collar easing torus leaves into page leaves on each
side, and one product chart for the mapping cylinder of the annulus page
(identity monodromy).  All transition maps are affine, every piece is
flat where it meets its neighbour, and each chart's foliation classifies
parabolic on its own.

The assembly check pulls the neighbouring metric back through each
transition and measures the worst entry mismatch, plus how far the
neighbour's leaves are from being tangent to the local ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..distributions import classify, distribution_frames
from ..errors import ConfigError, OverlapMismatchError
from ..expr import Tape
from ..geometry import Chart, MetricField, OneForm, VectorField, _as_nodes
from .base import Model
from .collar import collar_model
from .reeb import reeb_solid_torus

__all__ = ["Transition", "AtlasReport", "assemble_open_book_demo", "page_cylinder_model"]

_DELTA = 0.05                 # radial width of each binding/collar overlap
_OVERLAP_GRID = (6, 8, 8)     # points per axis of each overlap check
_PAGE_LENGTH = 1.0            # radial extent of the page cylinder


@dataclass
class Transition:
    source: str
    target: str
    forward: tuple          # 3 expression nodes over the source coordinates
    overlap: tuple          # 3 (lo, hi) ranges in source coordinates


@dataclass
class AtlasReport:
    atlas_id: str
    charts: list
    overlaps: list
    max_metric_mismatch: float
    max_leaf_residual: float
    all_parabolic: bool

    def body(self) -> dict:
        return {
            "atlas": self.atlas_id,
            "charts": self.charts,
            "overlaps": self.overlaps,
            "max_metric_mismatch": self.max_metric_mismatch,
            "max_leaf_residual": self.max_leaf_residual,
            "all_parabolic": self.all_parabolic,
        }


def page_cylinder_model() -> Model:
    """Flat product chart (rho, phi, t) for the annulus-page mapping
    cylinder; pages are the constant-phi slices."""
    chart = Chart(
        coord_names=("rho", "phi", "t"),
        domain=((0.0, _PAGE_LENGTH), (0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi)),
        periodic=(False, True, True),
        chart_id="page-cylinder",
    )
    metric = MetricField.from_strings(chart, ("1", "0", "0", "1", "0", "1"))
    alpha = OneForm(chart, ("0", "1", "0"))
    frame = (VectorField(chart, ("1", "0", "0")),
             VectorField(chart, ("0", "0", "1")))
    return Model(model_id="page-cylinder", chart=chart, metric=metric,
                 forms={"foliation": alpha},
                 named_frames={"page": frame},
                 parameters={"length": _PAGE_LENGTH}, foliation="foliation")


def check_transition(src: Model, dst: Model, tr: Transition) -> dict:
    """Pull the target metric and foliation back through the transition and
    compare against the source on the overlap."""
    pts = Chart(src.chart.coord_names, tr.overlap,
                (False,) * 3).quadrature_grid(_OVERLAP_GRID).points
    qval, jac = Tape(tr.forward).arrays(pts)
    qpts = np.moveaxis(qval, -1, 0)
    if not np.all(dst.chart.contains(qpts)):
        raise ConfigError(
            f"transition {tr.source}->{tr.target} leaves the target domain")

    g_dst = dst.metric.eval(qpts).val
    pulled = np.einsum("...ik,...kl,...jl->...ij", jac, g_dst, jac)
    g_src = src.metric.eval(pts).val
    metric_mismatch = float(np.max(np.abs(pulled - g_src)))

    fd = distribution_frames(src.distribution(), pts)
    push = np.einsum("...ai,...ik->...ak", fd.val, jac)
    aval, _ = dst.form().eval(qpts)
    num = np.abs(np.einsum("...ak,...k->...a", push, aval))
    den = (np.linalg.norm(push, axis=-1)
           * np.linalg.norm(aval, axis=-1)[..., None])
    leaf_residual = float(np.max(num / den))

    return {
        "source": tr.source,
        "target": tr.target,
        "metric_mismatch": metric_mismatch,
        "leaf_residual": leaf_residual,
        "n_points": int(pts.shape[1]),
    }


def assemble_open_book_demo(eps: float = 0.05, classify_grid=(48, 8, 8),
                            tolerance: float = 1e-9, jobs: int = 1) -> tuple:
    """Build the demo atlas, check all overlaps and classify every chart
    (at classify's default K_e tolerance).

    Returns (models, transitions, report); raises OverlapMismatch if any
    pullback disagrees beyond ``tolerance`` (the report rides along on the
    exception).
    """
    if not 0 < eps <= 0.25:
        raise ConfigError("eps must lie in (0, 0.25] for the demo layout")
    binding_a = reeb_solid_torus()
    binding_a.model_id = binding_a.chart.chart_id = "binding-a"
    collar_a = collar_model(eps, r_lo=1.0 - _DELTA)
    collar_a.model_id = collar_a.chart.chart_id = "collar-a"
    pages = page_cylinder_model()
    collar_b = collar_model(eps, r_lo=1.0 - _DELTA)
    collar_b.model_id = collar_b.chart.chart_id = "collar-b"
    binding_b = reeb_solid_torus()
    binding_b.model_id = binding_b.chart.chart_id = "binding-b"
    models = [binding_a, collar_a, pages, collar_b, binding_b]

    two_pi = 2.0 * math.pi
    full = (0.0, two_pi)

    transitions = [
        Transition("binding-a", "collar-a",
                   _as_nodes(binding_a.chart, ("r", "phi", "t")),
                   ((1.0 - _DELTA, 1.0), full, full)),
        Transition("collar-a", "page-cylinder",
                   _as_nodes(collar_a.chart, (f"r - {1.0 + eps!r}", "phi", "t")),
                   ((1.0 + eps, 1.0 + 2.0 * eps), full, full)),
        Transition("page-cylinder", "collar-b",
                   _as_nodes(pages.chart, (f"{1.0 + eps + _PAGE_LENGTH!r} - rho",
                                           "phi", "t")),
                   ((_PAGE_LENGTH - eps, _PAGE_LENGTH), full, full)),
        Transition("collar-b", "binding-b",
                   _as_nodes(collar_b.chart, ("r", "phi", "t")),
                   ((1.0 - _DELTA, 1.0), full, full)),
    ]

    by_id = {m.model_id: m for m in models}
    overlaps = []
    for tr in transitions:
        overlaps.append(check_transition(by_id[tr.source], by_id[tr.target], tr))

    charts = []
    all_parabolic = True
    for m in models:
        rep = classify(m.metric, m.distribution(), grid=classify_grid, jobs=jobs)
        ke = rep.aggregates.get("k_e", {})
        charts.append({
            "chart": m.model_id,
            "classification": rep.classification,
            "max_abs_k_e": max(abs(ke.get("min", 0.0)), abs(ke.get("max", 0.0))),
            "n_valid": rep.n_valid,
        })
        all_parabolic &= rep.classification == "parabolic"

    report = AtlasReport(
        atlas_id="annulus-open-book",
        charts=charts,
        overlaps=overlaps,
        max_metric_mismatch=max(o["metric_mismatch"] for o in overlaps),
        max_leaf_residual=max(o["leaf_residual"] for o in overlaps),
        all_parabolic=all_parabolic,
    )
    if report.max_metric_mismatch > tolerance:
        worst = max(overlaps, key=lambda o: o["metric_mismatch"])
        raise OverlapMismatchError(worst["source"], worst["target"],
                                   worst["metric_mismatch"], tolerance,
                                   report=report)
    return models, transitions, report
