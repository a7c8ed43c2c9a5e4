"""Sweep a family of deformed 1-forms alpha_s = alpha0 + s*beta.

For each s the scan records the range of the contact volume
alpha_s ^ d(alpha_s) over the grid and how far the plane ker(alpha_s) has
tilted away from the start: the transversality angle is the angle between
the g-normal of ker(alpha_s) and the g-normal n0 of ker(alpha0), so it is
0 at s = 0 and reaches pi/2 exactly when n0 falls into the deformed plane
(transversality to the start foliation fails).

The grid is swept in blocks on the classify kernel's entries: each block
evaluates the metric, alpha0 and beta once and is reduced, per s, to its
contact-volume min and max, min |contact volume|, angle min and max and
degenerate count.  Blocks merge by min, max and sum, so the report does not
depend on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..distributions import _contact_volume, _unit_normal
from ..errors import ConfigError
from ..geometry import MetricField, OneForm, chunked_eval
from ..jetalg import add, column, dot3, matvec, mul

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


def contact_deformation_scan(metric: MetricField, alpha0: OneForm,
                             beta: OneForm, s_values, grid=(16, 16, 16),
                             alpha_name: str = "alpha", beta_name: str = "beta"
                             ) -> ScanReport:
    """Pure reporting: no value of s is rejected, degenerate points are
    counted instead.  Where no point of the grid has a defined deformed
    normal both angles are pi/2."""
    s_values = [float(s) for s in s_values]
    if not s_values:
        raise ConfigError("scan needs at least one deformation parameter")
    if not np.isfinite(s_values).all():
        raise ConfigError(f"deformation parameters must be finite, got {s_values}")
    chart = metric.chart

    def kernel(pts):
        """Per s: contact-volume min, max and min |cv|, transversality angle
        min and max (+inf and -inf where no normal is defined) and the
        degenerate count."""
        mj = metric.eval(pts)
        shape = mj.shape
        a0, da0 = alpha0._tape.entries(pts)
        b, db = beta._tape.entries(pts)
        n0, ok0 = _unit_normal(mj, a0, 1)
        if not np.all(ok0):
            raise ConfigError("base form or metric degenerates on the grid")
        gn0 = matvec(mj.g, n0)
        rows = []
        for s in s_values:
            a = [add(x, mul(s, y)) for x, y in zip(a0, b)]
            da = [[add(x, mul(s, y)) for x, y in zip(r0, r)] for r0, r in zip(da0, db)]
            cv = column(_contact_volume(a, da), shape)
            ns, good = _unit_normal(mj, a, 1)
            cosang = np.abs(column(dot3(ns, gn0), shape))[good]
            angles = np.arccos(np.clip(cosang, 0.0, 1.0))
            rows.append([np.min(cv), np.max(cv), np.min(np.abs(cv)),
                         np.min(angles, initial=np.inf), np.max(angles, initial=-np.inf),
                         np.count_nonzero(~good)])
        return np.array(rows) + 0.0          # reported zeros are +0.0

    sample = chart.sample_grid(grid)
    blocks = chunked_eval(kernel, sample.axes)
    rows = []
    for j, s in enumerate(s_values):
        cv_min, cv_max, cv_abs, ang_min, ang_max, degenerate = np.array([b[j] for b in blocks]).T
        defined = np.sum(degenerate) < np.prod(sample.shape)
        rows.append({
            "s": s,
            "contact_volume_min": float(np.min(cv_min)),
            "contact_volume_max": float(np.max(cv_max)),
            "min_abs_contact_volume": float(np.min(cv_abs)),
            "transversality_angle_min": float(np.min(ang_min)) if defined else np.pi / 2.0,
            "transversality_angle_max": float(np.max(ang_max)) if defined else np.pi / 2.0,
            "degenerate_points": int(np.sum(degenerate)),
        })
    return ScanReport(chart_id=chart.chart_id, grid=tuple(grid),
                      alpha=alpha_name, beta=beta_name, rows=rows)
