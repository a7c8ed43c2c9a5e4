import math

import numpy as np
import pytest

from planefield.distributions import (Distribution, classify,
                                      frobenius_residual,
                                      second_fundamental_form)
from planefield.errors import (ConfigError, DomainError, NonSPDPathError,
                               NotSPDError, NotTransverseError,
                               OverlapMismatchError)
from planefield.expr import smoothstep, smoothstep_deriv
from planefield.geometry import OneForm
from planefield.models import (ExprMetricPath, SurfaceMetric, TwistSpec,
                               annulus_surface_chart, assemble_open_book_demo,
                               closed_form_B_reeb, collar_model,
                               contact_deformation_scan, dehn_twist_pullback,
                               product_fibration, rank_one_path,
                               straight_line_path, torus_surface_chart,
                               transfer_metric, twist_map_points,
                               verify_metric_path)
from planefield.models import paths
from planefield.models.base import require_static
from planefield.models.paths import _entry_eval
from planefield.verify import _spd_pairs


# ---------------------------------------------------------------------------
# solid-torus model


def test_reeb_profile_breakpoints(reeb):
    f = reeb.parameters["f_rise"]
    assert smoothstep(*f, 0.30) == 0.0 and smoothstep(*f, 1 / 3) == 0.0
    assert smoothstep(*f, 0.70) == 1.0
    g = reeb.parameters["g_rise"]
    gs = [smoothstep(*g, r) for r in (0.24, 0.35)]
    assert gs == [0.0, 1.0]


def test_reeb_inner_region_flat_disks(reeb):
    b = second_fundamental_form(reeb.metric, reeb.distribution(),
                                np.array([0.2, 0.4, 1.0]),
                                frame=reeb.frame("paper"))
    assert np.all(b == 0)


def test_reeb_outer_region_flat_tori(reeb):
    b = second_fundamental_form(reeb.metric, reeb.distribution(),
                                np.array([0.9, 0.4, 1.0]),
                                frame=reeb.frame("paper"))
    assert np.all(b == 0)


def test_reeb_transition_region_rank_one(reeb):
    p = np.array([0.5, 0.4, 1.0])
    b = second_fundamental_form(reeb.metric, reeb.distribution(), p,
                                frame=reeb.frame("paper"))
    f = smoothstep(1 / 3, 2 / 3, 0.5)
    fp = smoothstep_deriv(1 / 3, 2 / 3, 0.5)
    expected_b11 = -(1 - f) * fp / math.sqrt(2 * f * f - 2 * f + 1)
    assert b[0, 0] == pytest.approx(0.0, abs=1e-15)    # G' = 0 there
    assert b[0, 1] == 0.0
    assert b[1, 1] == pytest.approx(expected_b11, rel=1e-12)


def test_closed_form_matches_numeric_everywhere(reeb):
    rng = np.random.default_rng(17)
    pts = np.stack([rng.uniform(1e-3, 1.0, 200),
                    rng.uniform(0, 2 * math.pi, 200),
                    rng.uniform(0, 2 * math.pi, 200)])
    b_num = second_fundamental_form(reeb.metric, reeb.distribution(), pts,
                                    frame=reeb.frame("paper"))
    b_closed = closed_form_B_reeb(pts[0])
    assert np.max(np.abs(b_num - b_closed)) <= 1e-9


def test_closed_form_is_degenerate_for_every_radius():
    rs = np.linspace(1e-3, 1.0, 500)
    b = closed_form_B_reeb(rs)
    det = b[:, 0, 0] * b[:, 1, 1] - b[:, 0, 1] ** 2
    assert np.max(np.abs(det)) == 0.0


def test_closed_form_rejects_bad_radius():
    with pytest.raises(DomainError):
        closed_form_B_reeb(0.0)
    with pytest.raises(DomainError):
        closed_form_B_reeb(1.2)


def test_reeb_classifies_parabolic(reeb):
    rep = classify(reeb.metric, reeb.distribution(), grid=(32, 8, 8), tol=1e-8)
    assert rep.classification == "parabolic"
    frob = rep.aggregates["frobenius_residual"]
    assert max(abs(frob["min"]), abs(frob["max"])) <= 1e-10


# ---------------------------------------------------------------------------
# collar model


def test_collar_regions(collar):
    eps = collar.parameters["eps"]
    # inner region: torus leaves; outer region: page leaves; both flat
    for r in (1.0 + eps / 4, 1.0 + 1.5 * eps):
        b = second_fundamental_form(collar.metric, collar.distribution(),
                                    np.array([r, 0.3, 0.2]),
                                    frame=collar.frame("page"))
        assert np.max(np.abs(b)) < 1e-15


def test_collar_principal_direction_row_vanishes(collar):
    pts = collar.chart.sample_grid((32, 6, 6), margin=1e-6).points
    b = second_fundamental_form(collar.metric, collar.distribution(), pts,
                                frame=collar.frame("page"))
    assert np.max(np.abs(b[..., 1, :])) <= 1e-10
    det = b[..., 0, 0] * b[..., 1, 1] - b[..., 0, 1] ** 2
    assert np.max(np.abs(det)) <= 1e-10


def test_collar_form_is_integrable(collar):
    pts = collar.chart.sample_grid((16, 6, 6), margin=1e-6).points
    res = frobenius_residual(collar.metric, collar.distribution(), pts)
    assert np.max(np.abs(res)) <= 1e-10


def test_collar_rejects_bad_width():
    with pytest.raises(ConfigError):
        collar_model(0.0)


# ---------------------------------------------------------------------------
# product fibrations and twists


def test_product_fibration_flat():
    sm = SurfaceMetric.from_strings(torus_surface_chart(), ("1", "0", "1"))
    model = product_fibration(sm)
    rep = classify(model.metric, model.distribution(), grid=(8, 8, 6))
    assert rep.classification == "parabolic"
    b = rep.aggregates["b_norm"]
    assert max(abs(b["min"]), abs(b["max"])) == 0.0


def test_product_fibration_curved_surface_still_geodesic():
    sm = SurfaceMetric.from_strings(torus_surface_chart(),
                                    ("1 + 0.5*sin(u)^2", "0", "1"))
    model = product_fibration(sm)
    pts = model.chart.sample_grid((10, 10, 4)).points
    b = second_fundamental_form(model.metric, model.distribution(), pts,
                                frame=model.frame("surface"))
    assert np.max(np.abs(b)) == 0.0


def test_product_fibration_rejects_fiber_dependence():
    sm = SurfaceMetric.from_strings(torus_surface_chart(),
                                    ("1 + 0.1*sin(t)", "0", "1"))
    with pytest.raises(ConfigError):
        product_fibration(sm)


def test_twist_is_identity_outside_annulus():
    chart = annulus_surface_chart()
    g = SurfaceMetric.from_strings(chart, ("1 + 0.2*sin(th)^2", "0.1", "1"))
    h = dehn_twist_pullback(g, TwistSpec(1.0, 1.5, 1))
    pts = chart.sample_grid((10, 8, 1), margin=1e-6).points
    outside = (pts[0] <= 1.0) | (pts[0] >= 1.5)
    hval, _ = _entry_eval(h.entries, pts)
    gval, _ = _entry_eval(g.entries, pts)
    assert np.max(np.abs(hval[outside] - gval[outside])) < 1e-15


def test_twist_preserves_determinant():
    chart = annulus_surface_chart()
    g = SurfaceMetric.from_strings(chart, ("1 + 0.2*sin(th)^2", "0.1", "1"))
    tw = TwistSpec(1.0, 1.5, 2)
    h = dehn_twist_pullback(g, tw)
    pts = chart.sample_grid((14, 10, 1), margin=1e-6).points
    hval, _ = _entry_eval(h.entries, pts)
    gval, _ = _entry_eval(g.entries, twist_map_points(tw, pts))
    det_h = hval[..., 0, 0] * hval[..., 1, 1] - hval[..., 0, 1] ** 2
    det_g = gval[..., 0, 0] * gval[..., 1, 1] - gval[..., 0, 1] ** 2
    assert np.max(np.abs(det_h - det_g)) <= 1e-10


def test_twist_zero_count_is_identity():
    chart = annulus_surface_chart()
    g = SurfaceMetric.from_strings(chart, ("1", "0", "1"))
    assert dehn_twist_pullback(g, TwistSpec(1.0, 1.5, 0)) is g


def test_twist_roundtrip_restores_metric():
    chart = annulus_surface_chart()
    g = SurfaceMetric.from_strings(chart, ("1 + 0.2*sin(th)^2", "0.1", "1"))
    back = dehn_twist_pullback(dehn_twist_pullback(g, TwistSpec(1.0, 1.5, 1)),
                               TwistSpec(1.0, 1.5, -1))
    pts = chart.sample_grid((14, 10, 1), margin=1e-6).points
    gval, _ = _entry_eval(g.entries, pts)
    bval, _ = _entry_eval(back.entries, pts)
    assert np.max(np.abs(gval - bval)) <= 1e-9


def test_twist_annulus_must_fit_chart():
    chart = annulus_surface_chart()
    g = SurfaceMetric.from_strings(chart, ("1", "0", "1"))
    with pytest.raises(DomainError):
        dehn_twist_pullback(g, TwistSpec(0.2, 1.0, 1))


# ---------------------------------------------------------------------------
# metric paths


def test_constant_path_verifies_clean():
    chart = torus_surface_chart()
    g = SurfaceMetric.from_strings(chart, ("2", "0.3", "1.5"))
    path = rank_one_path(g, g)
    assert path.stages == 0
    rep = verify_metric_path(path, grid=(6, 6, 9))
    assert rep["max_abs_det_dt"] == 0.0
    assert rep["collar0_residual"] == 0.0
    assert rep["collar1_residual"] == 0.0


@pytest.mark.parametrize("entries, index, value", [
    (("-1", "0", "-1"), 0, -1.0),      # g11 < 0: the first minor fails
    (("1", "2", "1"), 1, -3.0),        # g11 g22 - g12^2 = 1 - 4
])
def test_non_spd_path_names_its_failing_minor(entries, index, value):
    path = ExprMetricPath(torus_surface_chart(), entries)
    with pytest.raises(NotSPDError) as err:
        verify_metric_path(path, grid=(3, 3, 3))
    assert err.value.minor_index == index
    assert err.value.minor_value == value
    assert f"leading minor {index + 1} = {value!r}" in str(err.value)
    first = torus_surface_chart().sample_grid((3, 3, 3), margin=1e-9).points[:, 0]
    assert err.value.point == tuple(first)


def test_non_spd_path_names_the_first_point_a_grid_sweep_meets():
    """G_11 <= 0 for u > 3 early in t and for u < 3 late in t: the reported
    point is the first in the grid's u-major, t-fastest order."""
    chart = torus_surface_chart()
    path = ExprMetricPath(chart, ("(u - 3)*(t - 0.5)", "0", "1"))
    with pytest.raises(NotSPDError) as err:
        verify_metric_path(path, grid=(9, 9, 13))
    pts = chart.sample_grid((9, 9, 13), margin=1e-9).points
    bad = (pts[0] - 3) * (pts[2] - 0.5) <= 0
    assert err.value.point == tuple(pts[:, np.argmax(bad)])
    t_major = np.lexsort((pts[1], pts[0], pts[2]))
    assert err.value.point != tuple(pts[:, t_major[np.argmax(bad[t_major])]])


def test_overflowing_path_reports_a_nan_collar_residual():
    """At t >= 0.95 this metric is inf, and inf - inf shows no frozen collar."""
    path = ExprMetricPath(torus_surface_chart(), ("exp(800*t)", "0", "1"))
    with np.errstate(over="ignore", invalid="ignore"):
        rep = verify_metric_path(path, grid=(3, 3, 5))
    assert math.isnan(rep["collar1_residual"])
    assert not rep["parabolic"]


def test_single_direction_stretch_is_degenerate_but_breaks_collars():
    chart = torus_surface_chart()
    path = ExprMetricPath(chart, ("1 + t", "0", "1"))
    rep = verify_metric_path(path, grid=(4, 4, 16))
    assert rep["max_abs_det_dt"] == 0.0          # rank-one time derivative
    assert rep["parabolic"]
    assert rep["collar0_residual"] > 1e-3        # varies immediately at t=0
    assert rep["collar1_residual"] > 1e-3


def test_straight_line_between_generic_pair_is_flagged():
    chart = torus_surface_chart()
    bump = ("smoothstep(1.5, 2.5, u)*(1 - smoothstep(3.8, 4.8, u))"
            "*smoothstep(1.5, 2.5, v)*(1 - smoothstep(3.8, 4.8, v))")
    g = SurfaceMetric.from_strings(chart, ("1", "0", "1"))
    h = SurfaceMetric.from_strings(chart, (f"1 + 2*{bump}", f"0.5*{bump}",
                                           f"1 + {bump}"))
    rep = verify_metric_path(straight_line_path(g, h), grid=(9, 9, 9))
    assert rep["max_abs_det_dt"] > 1e-3
    assert not rep["parabolic"]


def test_rank_one_path_single_axis_stretch():
    chart = torus_surface_chart()
    g = SurfaceMetric.from_strings(chart, ("1", "0", "1"))
    h = SurfaceMetric.from_strings(chart, ("4", "0", "1"))
    path = rank_one_path(g, h)
    assert path.substeps == 1
    rep = verify_metric_path(path, grid=(4, 4, 17))
    assert rep["max_abs_det_dt"] <= 1e-12
    assert rep["parabolic"]
    # endpoints reached exactly
    end, _ = path.eval(np.array([[0.3], [0.4], [1.0]]))
    assert np.allclose(end[0], [[4, 0], [0, 1]], atol=1e-12)


def test_rank_one_path_on_twist_pullback():
    chart = annulus_surface_chart()
    g = SurfaceMetric.from_strings(chart, ("1", "0", "1"))
    h = dehn_twist_pullback(g, TwistSpec(1.0, 1.5, 1))
    path = rank_one_path(g, h, grid=(9, 9, 17))
    rep = verify_metric_path(path, grid=(9, 9, 13))
    assert rep["max_abs_det_dt"] <= 1e-8
    assert rep["n_flagged"] > 0          # eigenvalues collide where H = G
    assert rep["collar0_residual"] <= 1e-12
    assert rep["collar1_residual"] <= 1e-12


def test_rank_one_path_subdivides_until_spd():
    chart = torus_surface_chart()
    g = SurfaceMetric.from_strings(chart, ("1", "0.9", "1"))
    h = SurfaceMetric.from_strings(chart, ("0.5", "0.9", "3"))
    for depth, t in [(0, 0.25), (1, 0.21875)]:
        with pytest.raises(NonSPDPathError) as err:
            rank_one_path(g, h, max_depth=depth)
        assert (err.value.t, err.value.depth) == (t, depth)
        assert err.value.point == (0.3490658503988659, 0.3490658503988659)
    path = rank_one_path(g, h, max_depth=8)
    assert path.substeps >= 4
    rep = verify_metric_path(path, grid=(4, 4, 33))
    assert rep["max_abs_det_dt"] <= 1e-10


def test_rank_one_path_rejects_t_dependent_metrics():
    """d_t G_t of a rank-one path leaves out any t-derivative of G or H."""
    chart = torus_surface_chart()
    g = SurfaceMetric.from_strings(chart, ("1", "0", "1"))
    h = SurfaceMetric.from_strings(chart, ("2+t", "0", "1"))
    for pair in [(g, h), (h, g)]:
        with pytest.raises(ConfigError, match="rank-one path needs a t-independent"):
            rank_one_path(*pair)


def test_require_static_accepts_every_shipped_surface_metric_and_refuses_t():
    """The shipped surface metrics (the twist checks' annulus metric and its
    pullbacks, the product fibration's torus metric, the metric-path
    checks' seeded pairs) and the rank-one paths built on them read no t,
    so they pass; a straight-line path, whose entries read t, and a
    surface metric that reads t are refused."""
    annulus = SurfaceMetric.from_strings(annulus_surface_chart(),
                                         ("1 + 0.2*sin(th)^2", "0.1", "1"))
    torus = SurfaceMetric.from_strings(torus_surface_chart(), ("1 + 0.5*sin(u)^2", "0", "1"))
    pairs = _spd_pairs({}, 7, 20) + _spd_pairs({}, 77, 3)
    surfaces = [annulus, torus, *(m for pair in pairs for m in pair)]
    surfaces += [dehn_twist_pullback(annulus, TwistSpec(1.0, 1.5, k)) for k in (1, -1, 2)]
    for surface in surfaces:
        require_static(surface.entries, "surface")
    assert product_fibration(torus).metric is not None
    for g, h in pairs[-3:]:
        path = rank_one_path(g, h)
        require_static(path.base_entries + path.diff_entries, "rank-one path")
        with pytest.raises(ConfigError, match="path needs a t-independent"):
            require_static(straight_line_path(g, h).entries, "path")
    t_metric = SurfaceMetric.from_strings(torus_surface_chart(), ("2 + 0*t", "0", "1"))
    with pytest.raises(ConfigError, match="product fibration needs a t-independent"):
        product_fibration(t_metric)


def test_rank_one_path_names_a_non_finite_entry_before_subdividing(monkeypatch):
    chart = torus_surface_chart()
    g = SurfaceMetric.from_strings(chart, ("1", "0", "1"))
    h = SurfaceMetric.from_strings(chart, ("exp(800*u)", "0", "1"))

    def subdivide(*args):
        raise AssertionError("rank_one_path subdivided a non-finite H - G")

    monkeypatch.setattr(paths.RankOnePath, "_time_weights", subdivide)
    with np.errstate(over="ignore"), pytest.raises(DomainError) as err:
        rank_one_path(g, h)
    upts, _ = chart.axis_points(0, 9, margin=1e-6)
    vpts, _ = chart.axis_points(1, 9, margin=1e-6)
    assert upts[0] < math.log(np.finfo(float).max) / 800 < upts[1]
    assert err.value.point == (upts[1], vpts[0])
    assert err.value.value == math.inf
    assert "(H - G entry g11 is not finite)" in str(err.value)


def _crossing_mask(path, points):
    """Points where the eigenvalues of H - G collide, from the difference
    tape and ``eigvalsh``: the mask a path computed apart from its ``eigh``."""
    if getattr(path, "substeps", 0) == 0:
        return np.zeros(points.shape[1:], dtype=bool)
    d, _ = _entry_eval(path.diff_entries, points)
    mu = np.linalg.eigvalsh(d)
    return np.abs(mu[..., 1] - mu[..., 0]) < paths._CROSSING_TOL


def _verify_metric_path_per_slice(path, grid):
    """The report of ``verify_metric_path`` as it was computed with one
    ``path.eval`` per probe slice, kept as a reference for the batch."""
    chart = path.chart
    pts = chart.sample_grid(grid, margin=1e-9).points
    g, dg = path.eval(pts)
    failure = paths._first_not_spd(g)
    if failure is not None:
        raise NotSPDError(pts[:, failure[0]], *failure[1:])
    det_dt = dg[..., 0, 0] * dg[..., 1, 1] - dg[..., 0, 1] ** 2
    flagged = _crossing_mask(path, pts)
    clear = ~flagged
    max_det = float(np.max(np.abs(det_dt[clear]))) if np.any(clear) else 0.0
    max_det_flagged = (float(np.max(np.abs(det_dt[flagged])))
                       if np.any(flagged) else 0.0)
    surf = chart.sample_grid((grid[0], grid[1], 1), margin=1e-9).points[:2]

    def freeze_residual(points, t_ref, t_window):
        g_ref, _ = path.eval(np.vstack([points, np.full((1, points.shape[1]), t_ref)]))
        worst = 0.0
        for tc in t_window:
            probe = np.vstack([points, np.full((1, points.shape[1]), tc)])
            g_probe, _ = path.eval(probe)
            worst = max(worst, float(np.max(np.abs(g_probe - g_ref))))
        return worst

    near_edge = np.zeros(surf.shape[1], dtype=bool)
    for axis in range(2):
        if chart.periodic[axis]:
            continue
        lo, hi = chart.domain[axis]
        near_edge |= ((surf[axis] - lo <= paths._BOUNDARY_MARGIN)
                      | (hi - surf[axis] <= paths._BOUNDARY_MARGIN))
    n = paths._COLLAR_SAMPLES
    boundary = 0.0
    if np.any(near_edge):
        boundary = freeze_residual(surf[:, near_edge], 0.0,
                                   np.linspace(0.0, 1.0, 2 * n + 1))
    return {
        "grid": list(grid),
        "stages": int(getattr(path, "stages", 0)),
        "max_abs_det_dt": max_det,
        "max_abs_det_dt_flagged": max_det_flagged,
        "n_flagged": int(np.count_nonzero(flagged)),
        "n_points": int(pts.shape[1]),
        "collar0_residual": freeze_residual(
            surf, 0.0, np.linspace(0.0, paths._DELTA0, n)),
        "collar1_residual": freeze_residual(
            surf, 1.0, np.linspace(1.0 - paths._DELTA1, 1.0, n)),
        "boundary_points": int(np.count_nonzero(near_edge)),
        "boundary_residual": boundary,
        "parabolic": bool(max_det <= paths._DET_TOL),
        "det_tol": paths._DET_TOL,
    }


def _torus_pair():
    """The pair whose rank-one path needs at least four substeps."""
    chart = torus_surface_chart()
    return (SurfaceMetric.from_strings(chart, ("1", "0.9", "1")),
            SurfaceMetric.from_strings(chart, ("0.5", "0.9", "3")))


def _annulus_pair():
    """The annulus metric and its Dehn-twist pullback."""
    g = SurfaceMetric.from_strings(annulus_surface_chart(), ("1", "0", "1"))
    return g, dehn_twist_pullback(g, TwistSpec(1.0, 1.5, 1))


@pytest.mark.parametrize("pair, edge_points", [(_torus_pair, 0),
                                               (_annulus_pair, 18)],
                         ids=["torus", "annulus"])
@pytest.mark.parametrize("make_path", [
    straight_line_path,
    lambda g, h: rank_one_path(g, h, grid=(9, 9, 17)),
    lambda g, h: rank_one_path(g, g),
    lambda g, h: ExprMetricPath(g.chart, ("1 + t*t", "0.1*t", "1 + t"))],
    ids=["straight-line", "rank-one", "constant", "edge-stretch"])
def test_batched_path_verifier_matches_per_slice_evaluation(
        pair, edge_points, make_path):
    """One batched ``path.eval`` gives every bit of the per-slice report;
    the stretch in t also moves the metric at the annulus edges."""
    g, h = pair()
    path = make_path(g, h)
    rep = verify_metric_path(path, grid=(9, 9, 13))
    assert rep == _verify_metric_path_per_slice(path, (9, 9, 13))
    assert rep["boundary_points"] == edge_points


def _product_cases():
    """The 20 default rank-one-pass pairs (seed 7) and the torus and annulus
    pairs above, each with the paths the verifier sees on them."""
    cases = [(f"seed-7-pair-{i}", lambda g=g, h=h: rank_one_path(g, h, grid=(9, 9, 17)))
             for i, (g, h) in enumerate(_spd_pairs({}, 7, 20))]
    makers = [("rank-one", lambda g, h: rank_one_path(g, h, grid=(9, 9, 17))),
              ("constant", lambda g, h: rank_one_path(g, g)),
              ("straight-line", straight_line_path)]
    for name, pair in [("torus", _torus_pair), ("annulus", _annulus_pair)]:
        cases += [(f"{name}-{kind}", lambda p=pair, m=make: m(*p())) for kind, make in makers]
    return cases


@pytest.mark.parametrize("make_path", [m for _, m in _product_cases()],
                         ids=[name for name, _ in _product_cases()])
def test_product_evaluation_matches_pointwise_eval(make_path):
    """``eval_product`` gives every (surface point, t) the bits of ``eval``
    at that point, and the crossing mask of ``eigvalsh``."""
    path = make_path()
    chart = path.chart
    surf = chart.sample_grid((9, 9, 1), margin=1e-9).points[:2]
    times = np.concatenate([chart.axis_points(2, 13, margin=1e-9)[0],
                            [0.0, *np.linspace(0.0, 0.05, 5)],
                            [1.0, *np.linspace(0.95, 1.0, 5)],
                            np.linspace(0.0, 1.0, 11)])
    g, dg, flagged = path.eval_product(surf, times)
    s = surf.shape[1]
    assert g.shape == dg.shape == (len(times), s, 2, 2)
    g_ref, dg_ref = path.eval(np.vstack([np.tile(surf, len(times)), np.repeat(times, s)]))
    assert np.array_equal(g.reshape(-1, 2, 2), g_ref)
    assert np.array_equal(dg.reshape(-1, 2, 2), dg_ref)
    assert np.array_equal(flagged, _crossing_mask(path, np.vstack([surf, np.zeros(s)])))


def test_path_time_derivative_matches_finite_difference():
    chart = torus_surface_chart()
    g = SurfaceMetric.from_strings(chart, ("1", "0", "1"))
    bump = "smoothstep(1.5, 2.5, u)*(1 - smoothstep(3.8, 4.8, u))"
    h = SurfaceMetric.from_strings(chart, (f"1 + {bump}", f"0.4*{bump}", "1"))
    path = rank_one_path(g, h)
    p = np.array([[2.7], [0.5], [0.37]])
    _, dg = path.eval(p)
    eps = 1e-6
    up, _ = path.eval(p + [[0], [0], [eps]])
    dn, _ = path.eval(p - [[0], [0], [eps]])
    fd = (up - dn) / (2 * eps)
    assert np.max(np.abs(dg - fd)) < 1e-8


# ---------------------------------------------------------------------------
# metric transfer


def test_transfer_identity_distribution(torus):
    xi = torus.distribution("vertical")
    rep = transfer_metric(torus.metric, xi, torus.distribution("vertical"),
                          grid=(4, 4, 4))
    assert rep.max_form_residual <= 1e-14
    assert rep.max_det_residual <= 1e-14
    assert rep.new_metric_spd


def test_transfer_tilted_plane_field(torus):
    xi = torus.distribution("vertical")
    eta = torus.distribution("tilted")
    rep = transfer_metric(torus.metric, xi, eta, grid=(6, 6, 6))
    assert rep.new_metric_spd
    assert rep.min_transversality == pytest.approx(math.cos(0.1), rel=1e-12)
    assert rep.max_det_residual <= 1e-12
    body = rep.body()
    assert set(body) >= {"form_residual", "det_residual", "min_transversality"}


def test_transfer_evaluates_each_field_once(torus, monkeypatch):
    """One tape run each for the metric, xi's form and eta's form."""
    from planefield import expr
    xi, eta = torus.distribution("vertical"), torus.distribution("tilted")
    runs = []
    real = expr.Tape.run
    monkeypatch.setattr(expr.Tape, "run", lambda tape, p: runs.append(tape) or real(tape, p))
    transfer_metric(torus.metric, xi, eta, grid=(4, 4, 4))
    assert [sum(r is t._tape for r in runs) for t in (torus.metric, xi.alpha, eta.alpha)] \
        == [1, 1, 1]
    assert len(runs) == 3


def test_transfer_requires_transversality(torus):
    xi = torus.distribution("vertical")
    eta = Distribution.kernel(OneForm(torus.chart, ("0", "1", "0")))
    with pytest.raises(NotTransverseError):
        transfer_metric(torus.metric, xi, eta, grid=(4, 4, 4))


# ---------------------------------------------------------------------------
# open-book atlas


def test_atlas_overlaps_and_classifications():
    models, transitions, rep = assemble_open_book_demo(classify_grid=(32, 6, 6))
    assert rep.max_metric_mismatch <= 1e-9
    assert rep.max_leaf_residual <= 1e-10
    assert rep.all_parabolic
    assert [m.model_id for m in models] == ["binding-a", "collar-a",
                                            "page-cylinder", "collar-b",
                                            "binding-b"]
    assert len(transitions) == 4


def test_atlas_mismatch_raises_with_report():
    with pytest.raises(OverlapMismatchError) as err:
        assemble_open_book_demo(classify_grid=(16, 4, 4), tolerance=-1.0)
    assert err.value.report is not None


# ---------------------------------------------------------------------------
# deformation scans


def test_scan_zero_deformation(torus):
    beta = OneForm(torus.chart, ("0", "0", "0"))
    rep = contact_deformation_scan(torus.metric, torus.form("vertical"),
                                   beta, [0.0, 0.5, 1.0], grid=(5, 5, 5))
    assert all(r["contact_volume_min"] == 0.0 == r["contact_volume_max"]
               for r in rep.rows)


def test_scan_quadratic_contact_volume():
    from planefield.catalog import two_pi_torus_model
    model = two_pi_torus_model()
    rep = contact_deformation_scan(model.metric, model.form("vertical"),
                                   model.form("winding-contact"),
                                   [0.1, 0.3, 0.5], grid=(6, 6, 6))
    for row in rep.rows:
        assert row["contact_volume_min"] == pytest.approx(-row["s"] ** 2,
                                                          abs=1e-12)
        assert row["contact_volume_max"] == pytest.approx(-row["s"] ** 2,
                                                          abs=1e-12)
        assert row["transversality_angle_max"] \
            == pytest.approx(math.atan(row["s"]), abs=1e-12)


def test_scan_solid_torus_pattern(reeb):
    beta = OneForm(reeb.chart, ("0", "1", "0"))
    grid = (24, 5, 5)
    s_values = [0.25, 0.75]
    rep = contact_deformation_scan(reeb.metric, reeb.form(), beta, s_values,
                                   grid=grid)
    r_axis = reeb.chart.sample_grid(grid, margin=1e-3).axes[0]
    fp = smoothstep_deriv(1 / 3, 2 / 3, r_axis)
    for row, s in zip(rep.rows, s_values):
        assert row["contact_volume_max"] == pytest.approx(s * fp.max(),
                                                          rel=1e-12)
        assert row["contact_volume_min"] == pytest.approx(0.0, abs=1e-15)


def test_scan_needs_parameters(torus):
    beta = OneForm(torus.chart, ("0", "0", "0"))
    with pytest.raises(ConfigError):
        contact_deformation_scan(torus.metric, torus.form("vertical"), beta,
                                 [], grid=(4, 4, 4))
