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

``eval_product`` evaluates a path on S surface points (2, S) times T times
(T,): G_t and d_t G_t shaped (T, S, 2, 2), and the crossing mask (S,).
``RankOnePath`` splits H - G once per surface point and broadcasts over t.
Each point gets the bits ``eval`` gives it alone, as numpy elementwise ops,
batched ``eigh`` and broadcasting ``einsum`` do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .. import expr
from ..errors import ConfigError, DomainError, NonSPDPathError, NotSPDError
from ..geometry import Chart, _as_nodes, first_failing_minor
from .base import SurfaceMetric, require_static

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

    def eval_product(self, surf, times) -> tuple:
        """(G_t, d_t G_t) on (2, S) surface points x (T,) times; no crossings."""
        pts = np.broadcast_arrays(surf[0], surf[1], np.asarray(times, dtype=float)[:, None])
        return (*self.eval(np.stack(pts)), np.zeros(surf.shape[1], dtype=bool))


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
    _base: expr.Tape = field(init=False, repr=False, compare=False)
    _diff: expr.Tape = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        require_static(self.base_entries + self.diff_entries, "rank-one path")
        self._base, self._diff = expr.Tape(self.base_entries), expr.Tape(self.diff_entries)

    @property
    def stages(self) -> int:
        return 2 * self.substeps

    def _spectral(self, points) -> tuple:
        """G, H - G, and the eigenvalues and projections (..., a, i, j) of H - G."""
        gb, _ = _entry_eval(self._base, points)
        d, _ = _entry_eval(self._diff, points)
        mu, u = np.linalg.eigh(d)
        return gb, d, mu, np.einsum("...ia,...ja->...aij", u, u)

    def _time_weights(self, t: np.ndarray) -> tuple:
        """Accumulated smoothstep weight and speed per eigen-slot."""
        coef, dcoef = np.zeros((2, 2) + t.shape)
        cuts = np.linspace(_DELTA0, 1.0 - _DELTA1, self.stages + 1)
        inv_m = 1.0 / self.substeps
        for q in range(self.stages):
            lo, hi = cuts[q], cuts[q + 1]
            w = (t - lo) / (hi - lo)
            step, dstep = expr._transition(w, 1)
            coef[q % 2] += step * inv_m
            dcoef[q % 2] += dstep / (hi - lo) * inv_m
        return coef, dcoef

    def _mix(self, pieces, t: np.ndarray) -> tuple:
        """(G_t, d_t G_t) from ``_spectral`` pieces and times broadcast to them."""
        gb, _, mu, proj = pieces
        if self.substeps == 0:
            g = np.broadcast_to(gb, np.broadcast_shapes(t.shape, gb.shape[:-2]) + (2, 2)).copy()
            return g, np.zeros_like(g)
        g, dg = (np.einsum("a...,...a,...aij->...ij", c, mu, proj)
                 for c in self._time_weights(t))
        return gb + g, dg

    def eval(self, points) -> tuple:
        points = np.asarray(points, dtype=float)
        return self._mix(self._spectral(points), points[2])

    def eval_product(self, surf, times) -> tuple:
        """(G_t, d_t G_t) on (2, S) surface points x (T,) times, and where the
        eigenvalues of H - G collide.  Only a DomainError's point reads t."""
        times = np.asarray(times, dtype=float)
        pieces = self._spectral(np.vstack([surf, np.full((1, surf.shape[1]), times[0])]))
        mu = pieces[2]
        return (*self._mix(pieces, times[:, None]),
                (np.abs(mu[..., 1] - mu[..., 0]) < _CROSSING_TOL) & (self.substeps > 0))


def _first_not_spd(g: np.ndarray) -> Optional[tuple]:
    """(i, k, minor) for the first point i of a batch of symmetric 2x2
    matrices ``g[..., i, j]`` whose leading principal minor k is not
    positive, or None where all are SPD."""
    minors = np.stack([g[..., 0, 0],
                       g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] ** 2], axis=-1)
    failure = first_failing_minor(minors)
    return None if failure is None else (*failure, minors[failure])


def rank_one_path(g: SurfaceMetric, h: SurfaceMetric, grid=(9, 9, 33),
                  max_depth: int = 8) -> RankOnePath:
    """Default parabolic path from G to H (SPD-validated, see module doc);
    H - G is split once, on the probe surface, for every subdivision depth."""
    if g.chart is not h.chart:
        raise ConfigError("both surface metrics must share one chart")
    path = RankOnePath(g.chart, g.entries,
                       tuple(he - ge for ge, he in zip(g.entries, h.entries)), substeps=0)
    probe = g.chart.sample_grid((grid[0], grid[1], 1), margin=1e-6).points
    pieces = path._spectral(probe)
    bad = ~np.isfinite(np.stack(pieces[:2], axis=1))
    if bad.any():
        s, which, i, j = np.unravel_index(np.argmax(bad), bad.shape)
        raise DomainError("rank_one_path", float(pieces[which][s, i, j]),
                          f"{('G', 'H - G')[which]} entry g{i + 1}{j + 1} is not finite",
                          point=probe[:2, s])
    if float(np.max(np.abs(pieces[1]))) < 1e-14:
        return path
    for depth in range(max_depth + 1):
        path.substeps = 2 ** depth
        tline = np.linspace(0.0, 1.0, max(grid[2], 8 * path.substeps + 1))
        g_t, _ = path._mix(pieces, tline[:, None])
        failure = _first_not_spd(g_t.swapaxes(0, 1).reshape(-1, 2, 2))
        if failure is None:
            return path
    s, it = divmod(failure[0], len(tline))
    raise NonSPDPathError(tline[it], probe[:2, s], max_depth)


def verify_metric_path(path, grid=(9, 9, 17)) -> dict:
    """Measure everything the gluing conditions require of a path.

    Reports the largest |det d_t G_t| away from (and at) eigen-crossing
    flags, the residuals of the two end collars (G_t frozen for t <= 0.05
    and t >= 0.95), the t-independence residual near non-periodic
    surface boundaries, and whether the family stays SPD (failure raises
    NotSPD with the offending (t, p)).

    One ``eval_product`` covers the grid's surface points at the grid's t
    axis, at t = 0 and the collar-0 times, at t = 1 and the collar-1 times
    and, if points lie near an edge, at t = 0 and times over [0, 1]; its grid
    part is read in the grid's u-major, t-fastest order.  A residual is the
    largest |G(t) - G(reference)| of its group, or 0.0 without edge points.
    """
    chart = path.chart
    surf = chart.sample_grid((grid[0], grid[1], 1), margin=1e-9).points[:2]
    tgrid, _ = chart.axis_points(2, grid[2], margin=1e-9)
    nt = len(tgrid)
    near_edge = np.zeros(surf.shape[1], dtype=bool)
    for axis in range(2):
        if chart.periodic[axis]:
            continue
        lo, hi = chart.domain[axis]
        near_edge |= (surf[axis] - lo <= _BOUNDARY_MARGIN) | (hi - surf[axis] <= _BOUNDARY_MARGIN)
    groups = [([0.0, *np.linspace(0.0, _DELTA0, _COLLAR_SAMPLES)], slice(None)),
              ([1.0, *np.linspace(1.0 - _DELTA1, 1.0, _COLLAR_SAMPLES)], slice(None))]
    if np.any(near_edge):
        groups.append(([0.0, *np.linspace(0.0, 1.0, 2 * _COLLAR_SAMPLES + 1)], near_edge))
    g_all, dg_all, flagged = path.eval_product(
        surf, np.concatenate([tgrid] + [ts for ts, _ in groups]))
    g, dg = g_all[:nt], dg_all[:nt]

    failure = _first_not_spd(g.swapaxes(0, 1).reshape(-1, 2, 2))
    if failure is not None:
        s, it = divmod(failure[0], nt)
        raise NotSPDError((*surf[:, s], tgrid[it]), *failure[1:])

    det_dt = dg[..., 0, 0] * dg[..., 1, 1] - dg[..., 0, 1] ** 2
    flagged = np.broadcast_to(flagged, det_dt.shape)
    max_det = float(np.max(np.abs(det_dt[~flagged]), initial=0.0))
    max_det_flagged = float(np.max(np.abs(det_dt[flagged]), initial=0.0))

    residuals, start = [0.0, 0.0, 0.0], nt
    for k, (ts, cols) in enumerate(groups):
        g_group = g_all[start:start + len(ts), cols]
        residuals[k] = float(np.max(np.abs(g_group[1:] - g_group[0]), initial=0.0))
        start += len(ts)
    collar0, collar1, boundary_residual = residuals

    return {
        "grid": list(grid),
        "stages": int(getattr(path, "stages", 0)),
        "max_abs_det_dt": max_det,
        "max_abs_det_dt_flagged": max_det_flagged,
        "n_flagged": int(np.count_nonzero(flagged)),
        "n_points": nt * surf.shape[1],
        "collar0_residual": collar0,
        "collar1_residual": collar1,
        "boundary_points": int(np.count_nonzero(near_edge)),
        "boundary_residual": boundary_residual,
        "parabolic": bool(max_det <= _DET_TOL),
        "det_tol": _DET_TOL,
    }
