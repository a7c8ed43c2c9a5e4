"""Carry a metric adapted to one plane field over to another one.

Given a metric g, a plane field xi with unit normal n, and a second plane
field eta transverse to n, declare the frame

    { P X_1,  P X_2,  n }

to be orthonormal for a new metric, where (X_1, X_2) is a g-orthonormal
frame of xi and P is the g-orthogonal projection onto eta.  The new metric
is independent of the frame choice (any two g-orthonormal frames of xi
differ by a rotation of the projected pair).  The target relation

    B~_eta(P X, P Y) = B_xi(X, Y)

is *reported*, not assumed: the report carries both the entrywise residual
against B_xi and |det B~_eta| pointwise, because the construction here is
the simplest candidate rather than a derived identity.

Everything is evaluated through first-order jets, so the new metric comes
with exact partials and its own connection.  The metric and the covectors
of xi and eta are evaluated once on the whole grid, and both second
fundamental forms come from the sweeps' curvature kernel, which reads the
jets' values and partials as entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import jetalg
from ..distributions import (Distribution, _covector, _curvature, _dense_frame,
                             _entries, _frame, _jets, _normal_jets,
                             _require_plane, _unit_normal)
from ..errors import NotTransverseError
from ..expr import Jet1, jet_sqrt
from ..geometry import ExactSum, MetricField, MetricJets
from ..jetalg import adjugate3, det3, dot3, matvec

__all__ = ["TransferReport", "transfer_metric"]

# |g(n_xi, m_eta)| below this counts as eta containing the normal of xi
_TRANSVERSALITY_TOL = 1e-8


@dataclass
class TransferReport:
    chart_id: str
    grid: tuple
    n_points: int
    max_form_residual: float
    mean_form_residual: float
    max_det_residual: float
    mean_det_residual: float
    min_transversality: float
    new_metric_spd: bool

    def body(self) -> dict:
        return {
            "chart": self.chart_id,
            "grid": list(self.grid),
            "n_points": self.n_points,
            "form_residual": {"max": self.max_form_residual,
                              "mean": self.mean_form_residual},
            "det_residual": {"max": self.max_det_residual,
                             "mean": self.mean_det_residual},
            "min_transversality": self.min_transversality,
            "new_metric_spd": self.new_metric_spd,
        }


def transfer_metric(metric: MetricField, xi: Distribution, eta: Distribution,
                    grid=(8, 8, 8)) -> TransferReport:
    """Build the transferred metric on a grid and report both residuals."""
    chart = metric.chart
    pts = chart.sample_grid(grid).points
    shape = pts.shape[1:]
    mj = metric.eval(pts)
    mj.require_spd(pts)

    g = jetalg.jets_from_metric(mj)
    a_xi = _covector(xi, pts)
    groups, ok = _frame(xi, pts, a_xi)
    _require_plane(ok, pts, "xi degenerates")
    val, jac = _dense_frame(groups, shape)
    v1, v2 = ([Jet1(val[:, b, k], [jac[:, b, i, k] for i in range(3)]) for k in range(3)]
              for b in range(2))

    def inner(u, v):
        return dot3(u, matvec(g, v))

    def project(x, unit):
        """x minus its g-component along the unit vector ``unit``."""
        c = inner(x, unit)
        return [p - c * q for p, q in zip(x, unit)]

    # g-orthonormal frame of xi
    n1 = jet_sqrt(inner(v1, v1))
    x1 = [c / n1 for c in v1]
    w2 = project(v2, x1)
    n2 = jet_sqrt(inner(w2, w2))
    x2 = [c / n2 for c in w2]

    n_xi = _normal_jets(mj, _jets(*a_xi, shape), xi.co_orientation)
    a_eta = _covector(eta, pts)
    m_eta = _normal_jets(mj, _jets(*a_eta, shape), eta.co_orientation)

    trans = inner(n_xi, m_eta).value
    if np.any(np.abs(trans) < _TRANSVERSALITY_TOL):
        i = int(np.argmax(np.abs(trans) < _TRANSVERSALITY_TOL))
        angle = float(np.arccos(np.clip(np.abs(trans[i]), 0.0, 1.0)))
        raise NotTransverseError(pts[:, i], angle)

    p1, p2 = project(x1, m_eta), project(x2, m_eta)

    # declare (p1, p2, n_xi) orthonormal: g~ = F^-T F^-1 for F = [p1 p2 n],
    # so g~_ij is the dot product of columns i and j of F^-1 = adj(F) / det F
    f = [[p1[i], p2[i], n_xi[i]] for i in range(3)]
    adj = adjugate3(f)
    det_f = det3(f, adj)
    cols = [[adj[k][i] / det_f for k in range(3)] for i in range(3)]
    gt = [[dot3(cols[i], cols[j]) for j in range(3)] for i in range(3)]

    mj_new = MetricJets([gt[i][j] for i in range(3) for j in range(i, 3)], shape)

    # B of xi under g in the orthonormal frame
    e, de = zip(*map(_entries, (x1, x2)))
    arrs_xi = _curvature(mj, e, de, _entries(n_xi)[0], ok)
    # B of eta under the new metric in the projected frame
    n_eta, ok = _unit_normal(mj_new, a_eta[0], eta.co_orientation)
    _require_plane(ok, pts, "transferred metric degenerate")
    e, de = zip(*map(_entries, (p1, p2)))
    arrs_eta = _curvature(mj_new, e, de, n_eta, ok)

    form_res = np.maximum.reduce([
        np.abs(arrs_eta["b00"] - arrs_xi["b00"]),
        np.abs(arrs_eta["b01"] - arrs_xi["b01"]),
        np.abs(arrs_eta["b11"] - arrs_xi["b11"]),
    ])
    det_res = np.abs(arrs_eta["b00"] * arrs_eta["b11"] - arrs_eta["b01"] ** 2)

    return TransferReport(
        chart_id=chart.chart_id,
        grid=tuple(grid),
        n_points=int(pts.shape[1]),
        max_form_residual=float(np.max(form_res)),
        mean_form_residual=float(ExactSum(form_res)) / form_res.size,
        max_det_residual=float(np.max(det_res)),
        mean_det_residual=float(ExactSum(det_res)) / det_res.size,
        min_transversality=float(np.min(np.abs(trans))),
        new_metric_spd=bool(np.all(mj_new.spd)),
    )
