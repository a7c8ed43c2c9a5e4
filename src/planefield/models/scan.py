"""Sweep a family of deformed 1-forms alpha_s = alpha0 + s*beta.

For each s the scan records the range of the contact volume
alpha_s ^ d(alpha_s) over the grid and how far the plane ker(alpha_s) has
tilted away from the start: the transversality angle is the angle between
the g-normal of ker(alpha_s) and the g-normal n0 of ker(alpha0), so it is
0 at s = 0 and reaches pi/2 exactly when n0 falls into the deformed plane
(transversality to the start foliation fails).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..distributions import _unit_normal
from ..errors import ConfigError
from ..geometry import MetricField, OneForm, d_oneform_raw, wedge3
from ..jetalg import dense

__all__ = ["ScanReport", "contact_deformation_scan"]


@dataclass
class ScanReport:
    chart_id: str
    grid: tuple
    alpha: str
    beta: str
    rows: list

    def body(self) -> dict:
        return {
            "chart": self.chart_id,
            "grid": list(self.grid),
            "alpha": self.alpha,
            "beta": self.beta,
            "rows": self.rows,
        }


def _normal(mj, aval: np.ndarray) -> tuple:
    n, ok = _unit_normal(mj, [aval[..., k] for k in range(3)], 1)
    return dense(n, aval.shape[:-1]), ok


def contact_deformation_scan(metric: MetricField, alpha0: OneForm,
                             beta: OneForm, s_values, grid=(16, 16, 16),
                             margin: float = 1e-3,
                             alpha_name: str = "alpha", beta_name: str = "beta"
                             ) -> ScanReport:
    """Pure reporting: no value of s is rejected, degenerate points are
    counted instead."""
    s_values = [float(s) for s in s_values]
    if not s_values:
        raise ConfigError("scan needs at least one deformation parameter")
    chart = metric.chart
    pts = chart.sample_grid(grid, margin=margin).points
    mj = metric.eval(pts)
    aval0, ajac0 = alpha0.eval(pts)
    bval, bjac = beta.eval(pts)
    n0, ok0 = _normal(mj, aval0)
    if not np.all(ok0 & mj.spd):
        raise ConfigError("base form or metric degenerates on the grid")

    rows = []
    for s in s_values:
        aval = aval0 + s * bval
        ajac = ajac0 + s * bjac
        cv = wedge3(aval, d_oneform_raw(ajac))
        ns, good = _normal(mj, aval)
        n_degenerate = int(np.count_nonzero(~good))
        if np.any(good):
            cosang = np.abs(mj.dot(ns, n0))[good]
            angles = np.arccos(np.clip(cosang, 0.0, 1.0))
            ang_min, ang_max = float(np.min(angles)), float(np.max(angles))
        else:
            ang_min = ang_max = float(np.pi / 2.0)
        rows.append({
            "s": s,
            "contact_volume_min": float(np.min(cv)),
            "contact_volume_max": float(np.max(cv)),
            "min_abs_contact_volume": float(np.min(np.abs(cv))),
            "transversality_angle_min": ang_min,
            "transversality_angle_max": ang_max,
            "degenerate_points": n_degenerate,
        })
    return ScanReport(chart_id=chart.chart_id, grid=tuple(grid),
                      alpha=alpha_name, beta=beta_name, rows=rows)
