"""Product fibrations over the circle and Dehn-twist pullback metrics.

For a t-independent surface metric G the product metric dt^2 + G makes the
fibers {t = const} totally geodesic (the mixed Christoffel symbols all
involve a t-derivative of G), hence parabolic.

A Dehn twist supported in an annulus r in [a, b] is the shear

    (r, th) -> (r, th + 2*pi*k*s(r)),      s = step rising on (a, b),

whose Jacobian is unit lower-triangular, so the pullback metric has the
same determinant as the original one along the twist.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DomainError
from ..expr import substitute
from ..geometry import Chart, VectorField
from .base import Model, SurfaceMetric, require_static

__all__ = ["product_fibration", "TwistSpec", "dehn_twist_pullback",
           "torus_surface_chart", "annulus_surface_chart"]


def torus_surface_chart() -> Chart:
    """(u, v) on a flat 2-torus, third coordinate t in [0, 1]."""
    return Chart(
        coord_names=("u", "v", "t"),
        domain=((0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi), (0.0, 1.0)),
        periodic=(True, True, True),
        chart_id="torus-surface",
    )


def annulus_surface_chart() -> Chart:
    """(r, th) on the annulus 0.5 <= r <= 2, third coordinate t in [0, 1]."""
    return Chart(
        coord_names=("r", "th", "t"),
        domain=((0.5, 2.0), (0.0, 2.0 * math.pi), (0.0, 1.0)),
        periodic=(False, True, True),
        chart_id="annulus-surface",
    )


def product_fibration(surface: SurfaceMetric, model_id: str = "product-fibration") -> Model:
    """Model dt^2 + G on (surface) x S^1 with the fiber foliation ker(dt)."""
    require_static(surface.entries, "product fibration")
    chart = surface.chart
    metric = surface.product_metric()
    from ..geometry import OneForm
    alpha = OneForm(chart, ("0", "0", "1"))
    frame = (VectorField(chart, ("1", "0", "0")),
             VectorField(chart, ("0", "1", "0")))
    return Model(
        model_id=model_id,
        chart=chart,
        metric=metric,
        forms={"foliation": alpha},
        named_frames={"surface": frame},
        parameters={},
        foliation="foliation",
    )


@dataclass(frozen=True)
class TwistSpec:
    """Dehn twist supported in the annulus [a, b], winding k times."""

    a: float
    b: float
    k: int = 1

    def __post_init__(self):
        if not self.a < self.b:
            raise ConfigError(f"twist annulus needs a < b, got [{self.a}, {self.b}]")
        if self.k != int(self.k):
            raise ConfigError("twist count k must be an integer")


def dehn_twist_pullback(surface: SurfaceMetric, tw: TwistSpec) -> SurfaceMetric:
    """Pullback of a surface metric under the twist shear.

    H(p) = Dphi(p)^T G(phi(p)) Dphi(p) with Dphi = [[1, 0], [c, 1]] and
    c = 2*pi*k*s'(r); entries are built symbolically so the result is a
    first-class surface metric (its own jets, paths, fibrations).
    """
    chart = surface.chart
    r_name, th_name = chart.coord_names[0], chart.coord_names[1]
    lo, hi = chart.domain[0]
    if tw.a < lo or tw.b > hi:
        raise DomainError("dehn_twist_pullback", (tw.a, tw.b),
                          "twist annulus must lie inside the chart")
    if tw.k == 0:
        return surface
    two_pi_k = repr(2.0 * math.pi * float(tw.k))
    shift = chart.parse_expr(
        f"{th_name} + {two_pi_k}*smoothstep({tw.a!r}, {tw.b!r}, {r_name})")
    c = chart.parse_expr(
        f"{two_pi_k}*dsmoothstep({tw.a!r}, {tw.b!r}, {r_name})")
    g11, g12, g22 = (substitute(e, {th_name: shift}) for e in surface.entries)
    h11 = g11 + c * g12 + c * (g12 + c * g22)
    h12 = g12 + c * g22
    h22 = g22
    return SurfaceMetric(chart, (h11, h12, h22))


def twist_map_points(tw: TwistSpec, points: np.ndarray) -> np.ndarray:
    """Apply the twist to a (3, N) batch (third coordinate untouched)."""
    from ..expr import smoothstep
    out = np.array(points, dtype=float)
    out[1] = out[1] + 2.0 * math.pi * tw.k * smoothstep(tw.a, tw.b, out[0])
    return out
