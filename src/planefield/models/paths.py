"""Families of surface metrics interpolating G -> H with degenerate speed.

For the product metric dt^2 + G_t on (surface) x [0, 1] the second
fundamental form of the slices {t = const} is -(1/2) d_t G_t, so the slice
foliation is parabolic exactly when det(d_t G_t) = 0 along the family.
``verify_metric_path`` measures that determinant (plus the end-collar and
boundary conditions) on a grid; ``rank_one_path`` builds a default family
whose t-derivative has rank at most one by construction:

* split D = H - G pointwise into its two spectral pieces mu_a u_a u_a^T,
* raise them one at a time through disjoint smoothstep time windows,
* subdivide D into D/m chunks (m doubling up to 2^8) until every
  intermediate metric stays positive definite.

At points where the eigenvalues of D collide the eigenvectors need not
vary smoothly; those points are flagged (EigenCrossing) rather than
rejected, and the determinant check simply reports them separately.

``verify_metric_path`` evaluates a path once, on one batch of points, so a
path's ``eval`` must be pointwise: each point gets the same bits whatever
else is in the batch, as numpy elementwise ops, batched ``eigh`` and
``einsum`` give.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .. import expr
from ..errors import ConfigError, NonSPDPathError, NotSPDError
from ..geometry import Chart, _as_nodes
from .base import SurfaceMetric

__all__ = ["ExprMetricPath", "RankOnePath", "rank_one_path",
           "straight_line_path", "verify_metric_path"]

_DELTA0 = 0.05            # collar widths: G_t is frozen for t <= _DELTA0 ...
_DELTA1 = 0.05            # ... and for t >= 1 - _DELTA1
_BOUNDARY_MARGIN = 0.1    # width of the t-independent band at open surface edges
_CROSSING_TOL = 1e-8      # eigenvalue gap of H - G flagged as a crossing
_DET_TOL = 1e-8           # largest |det d_t G_t| of a parabolic path
_COLLAR_SAMPLES = 5


def _entry_eval(nodes, points) -> tuple:
    """(G (..., 2, 2), dG/dt (..., 2, 2)) for 3 upper-triangle entries,
    given as nodes or as their compiled tape."""
    tape = nodes if isinstance(nodes, expr.Tape) else expr.Tape(nodes)
    val, jac = tape.arrays(points)
    rows = ([0, 1], [1, 2])
    return (np.stack([val[..., r] for r in rows], axis=-2),
            np.stack([jac[..., 2, r] for r in rows], axis=-2))


@dataclass
class ExprMetricPath:
    """Path given directly as expressions in (u, v, t), t in [0, 1]."""

    chart: Chart
    entries: tuple            # (g11, g12, g22) over (u, v, t)
    _tape: expr.Tape = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.entries = _as_nodes(self.chart, self.entries)
        if len(self.entries) != 3:
            raise ConfigError("metric path needs (g11, g12, g22)")
        self._tape = expr.Tape(self.entries)

    def eval(self, points) -> tuple:
        return _entry_eval(self._tape, points)

    def crossing_mask(self, points) -> np.ndarray:
        return np.zeros(points.shape[1:], dtype=bool)


def straight_line_path(g: SurfaceMetric, h: SurfaceMetric) -> ExprMetricPath:
    """Naive interpolation G + t (H - G); generically *not* parabolic."""
    if g.chart is not h.chart:
        raise ConfigError("both surface metrics must share one chart")
    t = expr.Coord(g.chart.coord_names[2], 2)
    entries = tuple(ge + t * (he - ge)
                    for ge, he in zip(g.entries, h.entries))
    return ExprMetricPath(g.chart, entries)


@dataclass
class RankOnePath:
    """Staged spectral interpolation with rank-one time derivative."""

    chart: Chart
    base_entries: tuple       # G, t-independent
    diff_entries: tuple       # H - G, t-independent
    substeps: int             # 0 means the constant path
    _cuts: np.ndarray = field(default=None, repr=False)
    _base: expr.Tape = field(init=False, repr=False, compare=False)
    _diff: expr.Tape = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._base, self._diff = expr.Tape(self.base_entries), expr.Tape(self.diff_entries)
        if self.substeps:
            self._cuts = np.linspace(_DELTA0, 1.0 - _DELTA1, 2 * self.substeps + 1)

    @property
    def stages(self) -> int:
        return 2 * self.substeps

    def _spectral(self, points) -> tuple:
        gb, _ = _entry_eval(self._base, points)
        d, _ = _entry_eval(self._diff, points)
        mu, u = np.linalg.eigh(d)
        return gb, mu, u

    def _time_weights(self, t: np.ndarray) -> tuple:
        """Accumulated smoothstep weight and speed per eigen-slot."""
        coef = np.zeros((2,) + t.shape)
        dcoef = np.zeros((2,) + t.shape)
        inv_m = 1.0 / self.substeps
        for q in range(self.stages):
            lo, hi = self._cuts[q], self._cuts[q + 1]
            w = (t - lo) / (hi - lo)
            step, dstep = expr._transition(w, 1)
            coef[q % 2] += step * inv_m
            dcoef[q % 2] += dstep / (hi - lo) * inv_m
        return coef, dcoef

    def eval(self, points) -> tuple:
        points = np.asarray(points, dtype=float)
        if self.substeps == 0:
            gb, _ = _entry_eval(self._base, points)
            return gb, np.zeros_like(gb)
        gb, mu, u = self._spectral(points)
        coef, dcoef = self._time_weights(points[2])
        proj = np.einsum("...ia,...ja->...aij", u, u)
        g = gb + np.einsum("a...,...a,...aij->...ij",
                           coef, mu, proj)
        dg = np.einsum("a...,...a,...aij->...ij", dcoef, mu, proj)
        return g, dg

    def crossing_mask(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if self.substeps == 0:
            return np.zeros(points.shape[1:], dtype=bool)
        d, _ = _entry_eval(self._diff, points)
        mu = np.linalg.eigvalsh(d)
        return np.abs(mu[..., 1] - mu[..., 0]) < _CROSSING_TOL


def _first_not_spd(g: np.ndarray) -> Optional[tuple]:
    """(i, k, minor) for the first point i of a batch of symmetric 2x2
    matrices ``g[..., i, j]`` whose leading principal minor k is not
    positive, or None where all are SPD."""
    minors = np.stack([g[..., 0, 0],
                       g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] ** 2], axis=-1)
    bad = ~np.all(minors > 0, axis=-1)
    if not np.any(bad):
        return None
    i = int(np.argmax(bad))
    k = int(np.argmax(~(minors[i] > 0)))
    return i, k, minors[i, k]


def _spd_failure(path, grid) -> Optional[tuple]:
    """First (t, p) where a path metric leaves the SPD cone, or None."""
    nu, nv, nt = grid
    upts, _ = path.chart.axis_points(0, nu, margin=1e-6)
    vpts, _ = path.chart.axis_points(1, nv, margin=1e-6)
    tline = np.linspace(0.0, 1.0, nt)
    mu, mv, mt = np.meshgrid(upts, vpts, tline, indexing="ij")
    pts = np.stack([mu.reshape(-1), mv.reshape(-1), mt.reshape(-1)], axis=0)
    g, _ = path.eval(pts)
    failure = _first_not_spd(g)
    if failure is None:
        return None
    i = failure[0]
    return float(pts[2, i]), (float(pts[0, i]), float(pts[1, i]))


def rank_one_path(g: SurfaceMetric, h: SurfaceMetric, grid=(9, 9, 33),
                  max_depth: int = 8) -> RankOnePath:
    """Default parabolic path from G to H (SPD-validated, see module doc)."""
    if g.chart is not h.chart:
        raise ConfigError("both surface metrics must share one chart")
    diff = tuple(he - ge for ge, he in zip(g.entries, h.entries))
    probe = g.chart.sample_grid((grid[0], grid[1], 1), margin=1e-6)
    dval, _ = _entry_eval(diff, probe.points)
    if float(np.max(np.abs(dval))) < 1e-14:
        return RankOnePath(g.chart, g.entries, diff, substeps=0)
    failure = None
    for depth in range(max_depth + 1):
        path = RankOnePath(g.chart, g.entries, diff, substeps=2 ** depth)
        nt = max(grid[2], 8 * path.substeps + 1)
        failure = _spd_failure(path, (grid[0], grid[1], nt))
        if failure is None:
            return path
    raise NonSPDPathError(failure[0], failure[1], max_depth)


def verify_metric_path(path, grid=(9, 9, 17)) -> dict:
    """Measure everything the gluing conditions require of a path.

    Reports the largest |det d_t G_t| away from (and at) eigen-crossing
    flags, the residuals of the two end collars (G_t frozen for t <= 0.05
    and t >= 0.95), the t-independence residual near non-periodic
    surface boundaries, and whether the family stays SPD (failure raises
    NotSPD with the offending (t, p)).

    The path is evaluated once, on one batch in this order: the grid; the
    t = 0 reference slice of the surface points and its collar-0 slices;
    the t = 1 reference slice and its collar-1 slices; the t = 0 reference
    slice of the points near non-periodic edges and its slices over [0, 1].
    A residual is the largest |G(slice) - G(reference)| of its group, or
    0.0 for an empty group (no edge points on a chart periodic in u and v).
    """
    chart = path.chart
    pts = chart.sample_grid(grid, margin=1e-9).points
    n = pts.shape[1]
    surf = chart.sample_grid((grid[0], grid[1], 1), margin=1e-9).points[:2]
    near_edge = np.zeros(surf.shape[1], dtype=bool)
    for axis in range(2):
        if chart.periodic[axis]:
            continue
        lo, hi = chart.domain[axis]
        near_edge |= (surf[axis] - lo <= _BOUNDARY_MARGIN) | (hi - surf[axis] <= _BOUNDARY_MARGIN)
    groups = [(surf, [0.0, *np.linspace(0.0, _DELTA0, _COLLAR_SAMPLES)]),
              (surf, [1.0, *np.linspace(1.0 - _DELTA1, 1.0, _COLLAR_SAMPLES)]),
              (surf[:, near_edge], [0.0, *np.linspace(0.0, 1.0, 2 * _COLLAR_SAMPLES + 1)])]
    slices = [np.vstack([p, np.full((1, p.shape[1]), t)])
              for p, ts in groups for t in ts]
    g_all, dg_all = path.eval(np.hstack([pts] + slices))
    g, dg = g_all[:n], dg_all[:n]

    failure = _first_not_spd(g)
    if failure is not None:
        raise NotSPDError(pts[:, failure[0]], *failure[1:])

    det_dt = dg[..., 0, 0] * dg[..., 1, 1] - dg[..., 0, 1] ** 2
    flagged = path.crossing_mask(pts)
    max_det = float(np.max(np.abs(det_dt[~flagged]), initial=0.0))
    max_det_flagged = float(np.max(np.abs(det_dt[flagged]), initial=0.0))

    residuals, start = [], n
    for p, ts in groups:
        m = p.shape[1]
        g_group = g_all[start:start + len(ts) * m].reshape(len(ts), m, 2, 2)
        residuals.append(float(np.max(np.abs(g_group[1:] - g_group[0]), initial=0.0)))
        start += len(ts) * m
    collar0, collar1, boundary_residual = residuals

    return {
        "grid": list(grid),
        "stages": int(getattr(path, "stages", 0)),
        "max_abs_det_dt": max_det,
        "max_abs_det_dt_flagged": max_det_flagged,
        "n_flagged": int(np.count_nonzero(flagged)),
        "n_points": n,
        "collar0_residual": collar0,
        "collar1_residual": collar1,
        "boundary_points": int(np.count_nonzero(near_edge)),
        "boundary_residual": boundary_residual,
        "parabolic": bool(max_det <= _DET_TOL),
        "det_tol": _DET_TOL,
    }
