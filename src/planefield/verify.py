"""Suite runner: bind the built-in models to their numeric checks.

A suite is an ordered list of checks, each naming an operation from the
registry below plus parameters.  Built-in suites group the checks by the
claim they exercise:

* ``reeb-solid-torus``       parabolic solid torus, closed-form B oracle
* ``metric-path-interface``  straight-line flagging / rank-one families
* ``open-book-collar``       collar model and the demo atlas gluing
* ``fibration-pullback``     product fibrations and Dehn-twist pullbacks
* ``mean-curvature-divergence``  H = div(-n) pointwise and on average
* ``no-elliptic-closed``     elliptic obstruction on periodic charts
* ``metric-transfer``        plane-field metric transfer (report mode)
* ``contact-deformation``    deformation scans of foliation forms
* ``quadrature``             divergence integral under grid refinement

A custom suite's checks name keys of ``OPERATIONS``.  A check passes when
its measured value is at most its bound, unless its operation states its
own verdict.  A ``target`` is a catalog name (``reeb`` and ``collar``
included) or a chart file, with an optional ``#form``.

Check failures (including raised exceptions) are recorded, never abort a
run; reports are deterministic apart from the timing section.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field
from functools import cache, reduce
from typing import Optional

import numpy as np

from . import catalog
from .chartio import load_model, validate_payload
from .distributions import (Distribution, _block_arrays, _normal_divergence,
                            classify, extrinsic_curvature, frobenius_residual,
                            integral_mean_curvature, mean_curvature,
                            second_fundamental_form)
from .errors import ConfigError
from .expr import Num, parse, smoothstep_deriv
from .geometry import OneForm, VectorField, divergence, integrate_scalar
from .models import (SurfaceMetric, TwistSpec, annulus_surface_chart,
                     assemble_open_book_demo, closed_form_B_reeb, collar_model,
                     dehn_twist_pullback, contact_deformation_scan,
                     product_fibration, rank_one_path, reeb_solid_torus,
                     straight_line_path, torus_surface_chart, transfer_metric,
                     twist_map_points, verify_metric_path)
from .models.paths import _entry_eval

__all__ = [
    "CheckSpec", "SuiteSpec", "CheckResult", "SuiteReport",
    "run_suite", "builtin_suite", "builtin_suite_names",
    "suite_from_payload", "elliptic_contradiction", "OPERATIONS",
]


@dataclass
class CheckSpec:
    name: str
    operation: str
    params: dict = field(default_factory=dict)


@dataclass
class SuiteSpec:
    suite: str
    checks: list


def _jsonable(value):
    """Recursively coerce numpy scalars/arrays so reports serialize."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    return value


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: Optional[float] = None
    bound: Optional[float] = None
    detail: dict = field(default_factory=dict)
    error: Optional[str] = None
    seconds: float = 0.0

    def body(self) -> dict:
        out = {"name": self.name, "passed": bool(self.passed),
               "measured": _jsonable(self.measured),
               "bound": _jsonable(self.bound),
               "detail": _jsonable(self.detail)}
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass
class SuiteReport:
    suite: str
    results: list
    vacuous: bool

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def body(self) -> dict:
        return {
            "suite": self.suite,
            "vacuous": self.vacuous,
            "checks": [r.body() for r in self.results],
            "passed": sum(1 for r in self.results if r.passed),
            "total": len(self.results),
            "all_passed": self.all_passed,
        }

    def timings(self) -> dict:
        return {r.name: r.seconds for r in self.results}


def elliptic_contradiction(classification: str, periodic: bool,
                           integral_h: float, integral_tol: float = 1e-6
                           ) -> bool:
    """True when a report is internally impossible: a plane field with
    K_e > 0 everywhere has a mean curvature of constant sign, so its
    integral over a closed (fully periodic) chart cannot vanish."""
    return (classification == "elliptic" and periodic
            and abs(integral_h) <= integral_tol)


# ---------------------------------------------------------------------------
# target resolution


def _resolve_target(target: str):
    """'reeb', 'flat-torus#tilted' or 'path/file.json#form' ->
    (model, distribution)."""
    base, _, form = target.partition("#")
    try:
        model = catalog.catalog_model(base)
    except ConfigError:
        model = load_model(base)
    return model, model.distribution(form or None)


# ---------------------------------------------------------------------------
# check operations


def _check(measured, bound, detail: dict, passed=None) -> CheckResult:
    """The one pass rule: ``measured <= bound``, unless the operation
    states its own verdict in ``passed``."""
    if passed is None:
        passed = measured <= bound
    return CheckResult(name="", passed=passed, measured=measured, bound=bound,
                       detail=detail)


def _nonempty(items, what: str):
    """Suite files are outside input: refuse a check that would measure
    nothing, naming the empty input."""
    if len(items) == 0:
        raise ConfigError(f"{what}: the check would measure nothing")
    return items


def _max_abs(aggregate: dict) -> float:
    return max(abs(aggregate["min"]), abs(aggregate["max"]))


def _reeb_b(pts):
    """B of the Reeb foliation in the paper frame."""
    model = reeb_solid_torus()
    return second_fundamental_form(model.metric, model.distribution(), pts,
                                   frame=model.frame("paper"))


def _twist_case() -> tuple:
    """Annulus metric and sample of the Dehn-twist checks."""
    chart = annulus_surface_chart()
    g = SurfaceMetric.from_strings(chart, ("1 + 0.2*sin(th)^2", "0.1", "1"))
    return g, chart.sample_grid((14, 10, 1), margin=1e-6).points


def _op_classify_expect(params: dict, jobs: int) -> CheckResult:
    model, dist = _resolve_target(params["target"])
    grid = tuple(params.get("grid", (16, 16, 16)))
    tol = params.get("tolerance", 1e-8)
    rep = classify(model.metric, dist, grid=grid, tol=tol, jobs=jobs)
    max_abs = _max_abs(rep.aggregates.get("k_e", {"min": math.nan,
                                                   "max": math.nan}))
    expect = params["expectation"]
    bound = params.get("max_abs_ke")
    passed = rep.classification == expect and (bound is None
                                               or max_abs <= bound)
    return _check(max_abs, bound, {"classification": rep.classification,
                                   "expected": expect, "n_valid": rep.n_valid},
                  passed)


def _op_reeb_closed_form(params: dict, jobs: int) -> CheckResult:
    n = params.get("n_points", 200)
    rng = np.random.default_rng(params.get("seed", 20240901))
    pts = np.stack([rng.uniform(1e-3, 1.0, n),
                    rng.uniform(0.0, 2 * math.pi, n),
                    rng.uniform(0.0, 2 * math.pi, n)], axis=0)
    measured = float(np.max(np.abs(_reeb_b(pts) - closed_form_B_reeb(pts[0]))))
    return _check(measured, params.get("tolerance", 1e-9), {"n_points": n})


def _op_reeb_geodesic_regions(params: dict, jobs: int) -> CheckResult:
    rs = np.concatenate([np.linspace(0.01, 0.30, 40),
                         np.linspace(0.70, 1.0, 40)])
    pts = np.stack([rs, np.full_like(rs, 0.7), np.full_like(rs, 1.3)], axis=0)
    measured = float(np.max(np.abs(_reeb_b(pts))))
    return _check(measured, params.get("tolerance", 1e-10),
                  {"regions": "[0.01,0.30]+[0.70,1.0]"})


def _op_quantity_bound(params: dict, jobs: int) -> CheckResult:
    """max |quantity| <= tolerance over a classification grid."""
    model, dist = _resolve_target(params["target"])
    grid = tuple(params.get("grid", (32, 8, 8)))
    tol = params["tolerance"]
    quantity = params.get("quantity", "frobenius_residual")
    rep = classify(model.metric, dist, grid=grid, jobs=jobs)
    return _check(_max_abs(rep.aggregates[quantity]), tol,
                  {"quantity": quantity})


def _op_collar_checks(params: dict, jobs: int) -> CheckResult:
    model = collar_model(params.get("eps", 0.05))
    grid = tuple(params.get("grid", (48, 8, 8)))
    pts = model.chart.sample_grid(grid, margin=1e-6).points
    b = second_fundamental_form(model.metric, model.distribution(), pts,
                                frame=model.frame("page"))
    t_row = float(np.max(np.abs(b[..., 1, :])))
    det_b = float(np.max(np.abs(b[..., 0, 0] * b[..., 1, 1]
                                - b[..., 0, 1] ** 2)))
    rep = classify(model.metric, model.distribution(), grid=grid, jobs=jobs)
    frob_max = _max_abs(rep.aggregates["frobenius_residual"])
    return _check(max(t_row, det_b, frob_max), params.get("tolerance", 1e-10),
                  {"t_row": t_row, "det_b": det_b, "frobenius": frob_max})


def _op_frame_invariance(params: dict, jobs: int) -> CheckResult:
    """Constant reframings E' = A E: K_e and H invariant, B -> A^T B A."""
    n_frames = params.get("n_reframings", 100)
    seed = params.get("seed", 1234)
    rng = np.random.default_rng(seed)
    targets = _nonempty(params.get("targets", ["reeb", "spheres", "collar"]),
                        "targets is empty")
    per_target = _nonempty(range(n_frames // len(targets)),
                           f"n_reframings {n_frames} over {len(targets)} targets")
    worst = 0.0
    for target in targets:
        model, dist = _resolve_target(target)
        frame = next(iter(model.named_frames.values()), None)
        pts = model.chart.random_points(5, seed=seed, margin=1e-2)
        b_ref = second_fundamental_form(model.metric, dist, pts, frame=frame)
        h_ref = mean_curvature(model.metric, dist, pts, frame=frame)
        ke_ref = extrinsic_curvature(model.metric, dist, pts, frame=frame)
        for _ in per_target:
            a = rng.uniform(-1.0, 1.0, size=(2, 2))
            while abs(np.linalg.det(a)) < 0.3:
                a = rng.uniform(-1.0, 1.0, size=(2, 2))
            new_frame = _reframe(model, frame, a)
            b_new = second_fundamental_form(model.metric, dist, pts,
                                            frame=new_frame)
            h_new = mean_curvature(model.metric, dist, pts, frame=new_frame)
            ke_new = extrinsic_curvature(model.metric, dist, pts, frame=new_frame)
            b_expect = np.einsum("ca,...cd,db->...ab", a, b_ref, a)
            scale = max(1.0, float(np.max(np.abs(b_expect))))
            worst = max(worst, float(np.max(np.abs(b_new - b_expect))) / scale)
            worst = max(worst, float(np.max(np.abs(ke_new - ke_ref)
                                            / np.maximum(1.0, np.abs(ke_ref)))))
            worst = max(worst, float(np.max(np.abs(h_new - h_ref)
                                            / np.maximum(1.0, np.abs(h_ref)))))
    return _check(worst, params.get("tolerance", 1e-9),
                  {"n_reframings": n_frames, "targets": list(targets)})


def _reframe(model, frame, a):
    if frame is None:
        # materialise the derived kernel frame at expression level is not
        # possible in general (the plane index choice varies); built-in
        # targets always carry a named frame
        raise ConfigError("frame invariance check needs a named frame")
    s, t = frame
    return tuple(VectorField(model.chart,
                             tuple(a[0, j] * cs + a[1, j] * ct
                                   for cs, ct in zip(s.components,
                                                     t.components)))
                 for j in (0, 1))


def _op_h_divergence_pointwise(params: dict, jobs: int) -> CheckResult:
    n = params.get("n_points", 100)
    seeds = _nonempty(params.get("seeds", [1, 2, 3]), "seeds is empty")
    model = catalog.flat_torus_model()
    worst = 0.0
    for seed in seeds:
        alpha = catalog.random_periodic_form(seed)
        dist = Distribution.kernel(alpha)
        pts = model.chart.random_points(n, seed=1000 + seed)
        mj = model.metric.eval(pts)
        b = _block_arrays(mj, dist, pts)
        div_n = _normal_divergence(mj, b, dist.co_orientation)
        worst = max(worst, float(np.max(np.abs(b.arrs["h"] + div_n))))
    return _check(worst, params.get("tolerance", 1e-9),
                  {"seeds": list(seeds), "n_points": n})


def _op_integral_h_bound(params: dict, jobs: int) -> CheckResult:
    grid = tuple(params.get("grid", (64, 64, 64)))
    torus = catalog.flat_torus_model()
    cases = [(f"seed-{seed}", torus,
              Distribution.kernel(catalog.random_periodic_form(seed)))
             for seed in params.get("seeds", [])]
    cases += [(target, *_resolve_target(target))
              for target in params.get("targets", [])]
    detail = {}
    for key, model, dist in _nonempty(cases, "neither seeds nor targets given"):
        detail[key] = integral_mean_curvature(model.metric, dist, grid=grid,
                                              jobs=jobs,
                                              defect=False)["integral_h"]
    worst = max(abs(value) for value in detail.values())
    return _check(worst, params.get("tolerance", 1e-6), detail)


def _op_no_elliptic_shipped(params: dict, jobs: int) -> CheckResult:
    grid = tuple(params.get("grid", (16, 16, 16)))
    h_grid = tuple(params.get("h_grid", (64, 64, 64)))
    h_tol = params.get("integral_tolerance", 1e-6)
    worst_h = 0.0
    offenders = []
    for ex in catalog.shipped_examples():
        if not ex.periodic:
            continue
        model, dist = ex.build()
        rep = classify(model.metric, dist, grid=grid, jobs=jobs)
        res = integral_mean_curvature(model.metric, dist, grid=h_grid,
                                      jobs=jobs, defect=False)
        worst_h = max(worst_h, abs(res["integral_h"]))
        if rep.classification == "elliptic":
            offenders.append(ex.example_id)
        if elliptic_contradiction(rep.classification, True,
                                  res["integral_h"], h_tol):
            offenders.append(f"{ex.example_id}(contradiction)")
    return _check(worst_h, h_tol, {"offenders": offenders},
                  not offenders and worst_h <= h_tol)


def _op_obstruction_mock(params: dict, jobs: int) -> CheckResult:
    # hand-built inconsistent report, standing for a pipeline that skipped
    # its SPD validation: the detector must fire on it
    fired = elliptic_contradiction("elliptic", periodic=True, integral_h=0.0)
    calm = elliptic_contradiction("parabolic", periodic=True, integral_h=0.0)
    open_chart = elliptic_contradiction("elliptic", periodic=False,
                                        integral_h=0.0)
    return _check(1.0 if fired else 0.0, 1.0,
                  {"fired_on_mock": fired, "quiet_on_parabolic": not calm,
                   "quiet_on_open_chart": not open_chart},
                  fired and not calm and not open_chart)


def _op_dichotomy_shipped(params: dict, jobs: int) -> CheckResult:
    grid = tuple(params.get("grid", (12, 12, 12)))
    cv_floor = params.get("contact_floor", 0.1)
    frob_ceiling = params.get("foliation_ceiling", 1e-8)
    offenders = []
    detail = {}
    for ex in catalog.shipped_examples():
        model, dist = ex.build()
        rep = classify(model.metric, dist, grid=grid, jobs=jobs)
        cv = rep.aggregates["contact_volume"]
        min_abs_cv = min(abs(cv["min"]), abs(cv["max"]))
        if cv["min"] < 0 < cv["max"]:
            min_abs_cv = 0.0
        max_frob = _max_abs(rep.aggregates["frobenius_residual"])
        is_contact = min_abs_cv > cv_floor
        is_foliation = max_frob < frob_ceiling
        detail[ex.example_id] = {"min_abs_cv": min_abs_cv,
                                 "max_frobenius": max_frob}
        if is_contact == is_foliation:
            offenders.append(ex.example_id)
        if is_contact != (ex.kind == "contact"):
            offenders.append(f"{ex.example_id}(kind)")
    return _check(float(len(offenders)), 0.0,
                  {"offenders": offenders, "examples": detail})


def _op_contact_volume_constant(params: dict, jobs: int) -> CheckResult:
    model, dist = _resolve_target(params["target"])
    expected = params["expectation"]
    grid = tuple(params.get("grid", (10, 10, 10)))
    rep = classify(model.metric, dist, grid=grid, jobs=jobs)
    cv = rep.aggregates["contact_volume"]
    measured = max(abs(cv["min"] - expected), abs(cv["max"] - expected))
    return _check(measured, params.get("tolerance", 1e-12),
                  {"expected": expected})


def _op_frobenius_floor(params: dict, jobs: int) -> CheckResult:
    model, dist = _resolve_target(params["target"])
    floor = params.get("floor", 0.4)
    half = params.get("half_width", 0.5)
    n = params.get("n_points", 64)
    rng = np.random.default_rng(params.get("seed", 5))
    pts = rng.uniform(-half, half, size=(3, n))
    measured = float(np.min(np.abs(frobenius_residual(model.metric, dist,
                                                      pts))))
    return _check(measured, floor, {"region_half_width": half},
                  measured >= floor)


@cache
def _bump_factors(coords: tuple) -> tuple:
    """The factors, in order, of the smoothstep bump on the first two
    coordinates, parsed once per coordinate names."""
    return tuple(parse(text, coords) for c in coords[:2] for text in (
        f"smoothstep(1.5, 2.5, {c})", f"1 - smoothstep(3.8, 4.8, {c})"))


def _random_spd_pair(chart, rng) -> tuple:
    """Constant SPD base plus a bump-supported symmetric change; the pair
    agrees outside the bump's box.  Each entry of the change, ``a + b*bump``,
    is the tree the parser gives for that text: b times each bump factor in
    turn."""
    a = rng.uniform(-1.0, 1.0, size=(2, 2))
    g0 = a.T @ a + 0.3 * np.eye(2)
    while True:
        m = rng.uniform(-1.0, 1.0, size=(2, 2))
        m = 0.5 * (m + m.T)
        if abs(np.linalg.det(m)) >= 0.25:
            break
    lam_min = float(np.linalg.eigvalsh(g0)[0])
    rho = float(np.max(np.abs(np.linalg.eigvalsh(m))))
    m *= 0.8 * lam_min / rho
    bump = _bump_factors(chart.coord_names)
    upper = ((0, 0), (0, 1), (1, 1))
    g = SurfaceMetric(chart, tuple(Num(float(g0[i])) for i in upper))
    h = SurfaceMetric(chart, tuple(
        Num(float(g0[i])) + reduce(operator.mul, bump, Num(float(m[i])))
        for i in upper))
    return g, h


def _spd_pairs(params: dict, seed: int, n_pairs: int) -> list:
    """The seeded metric pairs of the metric-path checks; ``seed`` and
    ``n_pairs`` are the defaults."""
    n_pairs = params.get("n_pairs", n_pairs)
    rng = np.random.default_rng(params.get("seed", seed))
    chart = torus_surface_chart()
    return _nonempty([_random_spd_pair(chart, rng) for _ in range(n_pairs)],
                     f"n_pairs is {n_pairs}")


def _op_straight_line_flag(params: dict, jobs: int) -> CheckResult:
    bound = params.get("bound", 1e-3)
    grid = tuple(params.get("grid", (9, 9, 9)))
    pairs = _spd_pairs(params, 77, 3)
    least = min(verify_metric_path(straight_line_path(g, h),
                                   grid=grid)["max_abs_det_dt"]
                for g, h in pairs)
    return _check(least, bound, {"n_pairs": len(pairs),
                                 "direction": "must exceed bound"},
                  least > bound)


def _op_rank_one_pass(params: dict, jobs: int) -> CheckResult:
    grid = tuple(params.get("grid", (9, 9, 13)))
    pairs = _spd_pairs(params, 7, 20)
    worst = 0.0
    stage_counts = []
    for g, h in pairs:
        rep = verify_metric_path(rank_one_path(g, h, grid=(9, 9, 17)),
                                 grid=grid)
        stage_counts.append(rep["stages"])
        worst = max(worst, rep["max_abs_det_dt"], rep["collar0_residual"],
                    rep["collar1_residual"], rep["boundary_residual"])
    return _check(worst, params.get("tolerance", 1e-8),
                  {"n_pairs": len(pairs), "stage_counts": stage_counts})


def _op_twist_det(params: dict, jobs: int) -> CheckResult:
    g, pts = _twist_case()
    tw = TwistSpec(1.0, 1.5, params.get("k", 1))
    hval, _ = _entry_eval(dehn_twist_pullback(g, tw).entries, pts)
    gval, _ = _entry_eval(g.entries, twist_map_points(tw, pts))
    det_h = hval[..., 0, 0] * hval[..., 1, 1] - hval[..., 0, 1] ** 2
    det_g = gval[..., 0, 0] * gval[..., 1, 1] - gval[..., 0, 1] ** 2
    measured = float(np.max(np.abs(det_h - det_g)))
    return _check(measured, params.get("tolerance", 1e-10), {"k": tw.k})


def _op_twist_roundtrip(params: dict, jobs: int) -> CheckResult:
    k = params.get("k", 1)
    g, pts = _twist_case()
    back = dehn_twist_pullback(dehn_twist_pullback(g, TwistSpec(1.0, 1.5, k)),
                               TwistSpec(1.0, 1.5, -k))
    gval, _ = _entry_eval(g.entries, pts)
    bval, _ = _entry_eval(back.entries, pts)
    measured = float(np.max(np.abs(gval - bval)))
    return _check(measured, params.get("tolerance", 1e-9), {"k": k})


def _op_product_geodesic(params: dict, jobs: int) -> CheckResult:
    tol = params.get("tolerance", 1e-10)
    chart = torus_surface_chart()
    sm = SurfaceMetric.from_strings(chart, ("1 + 0.5*sin(u)^2", "0", "1"))
    model = product_fibration(sm)
    rep = classify(model.metric, model.distribution(),
                   grid=tuple(params.get("grid", (12, 12, 6))), jobs=jobs)
    measured = _max_abs(rep.aggregates["b_norm"])
    return _check(measured, tol, {"classification": rep.classification},
                  measured <= tol and rep.classification == "parabolic")


def _op_atlas_overlaps(params: dict, jobs: int) -> CheckResult:
    tol = params.get("tolerance", 1e-9)
    leaf_tol = params.get("leaf_tolerance", 1e-10)
    _, _, rep = assemble_open_book_demo(
        classify_grid=tuple(params.get("classify_grid", (48, 8, 8))),
        tolerance=tol, jobs=jobs)
    measured = rep.max_metric_mismatch
    return _check(measured, tol, {"leaf_residual": rep.max_leaf_residual,
                                  "all_parabolic": rep.all_parabolic,
                                  "charts": rep.charts},
                  measured <= tol and rep.max_leaf_residual <= leaf_tol
                  and rep.all_parabolic)


def _op_transfer_pipeline(params: dict, jobs: int) -> CheckResult:
    model = catalog.flat_torus_model()
    xi = model.distribution("vertical")
    eta = model.distribution(params.get("eta", "tilted"))
    rep = transfer_metric(model.metric, xi, eta,
                          grid=tuple(params.get("grid", (8, 8, 8))))
    payload = {"body": rep.body(), "timings": {}}
    validate_payload(payload, "transfer-report")
    measured = max(rep.max_form_residual, rep.max_det_residual)
    # report mode: completing with a schema-valid payload is the pass
    # condition; the residuals are information, not an assertion
    bound = params.get("tolerance")
    return _check(measured, bound, rep.body(),
                  rep.new_metric_spd and (bound is None or measured <= bound))


def _op_scan_zero_beta(params: dict, jobs: int) -> CheckResult:
    model = catalog.flat_torus_model()
    beta = OneForm(model.chart, ("0", "0", "0"))
    rep = contact_deformation_scan(model.metric, model.form("vertical"), beta,
                                   [0.0, 0.3, 1.0], grid=(6, 6, 6))
    measured = max(max(abs(r["contact_volume_min"]),
                       abs(r["contact_volume_max"])) for r in rep.rows)
    return _check(measured, params.get("tolerance", 1e-15), {})


def _op_scan_torus_quadratic(params: dict, jobs: int) -> CheckResult:
    model = catalog.two_pi_torus_model()
    tol = params.get("tolerance", 1e-10)
    s_values = params.get("s_values", [0.05, 0.1, 0.2, 0.4])
    rep = contact_deformation_scan(model.metric, model.form("vertical"),
                                   model.form("winding-contact"),
                                   s_values, grid=(8, 8, 8))
    worst = 0.0
    angle_small_s = rep.rows[0]["transversality_angle_max"]
    for row in rep.rows:
        expected = -row["s"] ** 2
        worst = max(worst, abs(row["contact_volume_min"] - expected),
                    abs(row["contact_volume_max"] - expected))
    return _check(worst, tol, {"angle_at_smallest_s": angle_small_s},
                  worst <= tol and angle_small_s <= 2.0 * abs(s_values[0]))


def _op_scan_reeb_pattern(params: dict, jobs: int) -> CheckResult:
    model = reeb_solid_torus()
    s_values = params.get("s_values", [0.2, 0.5])
    beta = OneForm(model.chart, ("0", "1", "0"))
    grid = (24, 6, 6)
    rep = contact_deformation_scan(model.metric, model.form(), beta,
                                   s_values, grid=grid)
    r_axis = model.chart.sample_grid(grid, margin=1e-3).axes[0]
    fp_max = float(np.max(smoothstep_deriv(1.0 / 3.0, 2.0 / 3.0, r_axis)))
    worst = 0.0
    for row, s in zip(rep.rows, s_values):
        worst = max(worst, abs(row["contact_volume_max"] - s * fp_max))
        worst = max(worst, abs(row["contact_volume_min"]))   # zero off the rise
    return _check(worst, params.get("tolerance", 1e-9),
                  {"f_prime_max_on_grid": fp_max})


def _op_quadrature_convergence(params: dict, jobs: int) -> CheckResult:
    tol = params.get("tolerance", 1e-10)
    model = catalog.flat_torus_model()
    probe = model.vectors["quadrature-probe"]
    levels = params.get("levels", [8, 16, 32, 64])
    _nonempty(levels[1:], f"levels {list(levels)} has fewer than two entries")
    values = [abs(integrate_scalar(model.metric,
                                   lambda p: divergence(model.metric, probe, p),
                                   (n, n, n), jobs=jobs))
              for n in levels]
    monotone = all(values[i] > values[i + 1]
                   for i in range(len(levels) - 1))
    measured = values[-1]
    return _check(measured, tol, {"levels": list(levels),
                                  "abs_integrals": values,
                                  "monotone": monotone},
                  monotone and measured <= tol)


OPERATIONS: dict = {
    "classify-expect": _op_classify_expect,
    "reeb-closed-form": _op_reeb_closed_form,
    "reeb-geodesic-regions": _op_reeb_geodesic_regions,
    "quantity-bound": _op_quantity_bound,
    "collar-checks": _op_collar_checks,
    "frame-invariance": _op_frame_invariance,
    "h-divergence-pointwise": _op_h_divergence_pointwise,
    "integral-h-bound": _op_integral_h_bound,
    "no-elliptic-shipped": _op_no_elliptic_shipped,
    "elliptic-obstruction-mock": _op_obstruction_mock,
    "dichotomy-shipped": _op_dichotomy_shipped,
    "contact-volume-constant": _op_contact_volume_constant,
    "frobenius-floor": _op_frobenius_floor,
    "straight-line-flag": _op_straight_line_flag,
    "rank-one-pass": _op_rank_one_pass,
    "twist-det-preservation": _op_twist_det,
    "twist-roundtrip": _op_twist_roundtrip,
    "product-fibration-geodesic": _op_product_geodesic,
    "atlas-overlaps": _op_atlas_overlaps,
    "transfer-pipeline": _op_transfer_pipeline,
    "scan-zero-beta": _op_scan_zero_beta,
    "scan-torus-quadratic": _op_scan_torus_quadratic,
    "scan-reeb-pattern": _op_scan_reeb_pattern,
    "quadrature-convergence": _op_quadrature_convergence,
}


# ---------------------------------------------------------------------------
# suite assembly / execution


def suite_from_payload(payload: dict) -> SuiteSpec:
    validate_payload(payload, "suite")
    checks = []
    for row in payload["checks"]:
        if row["operation"] not in OPERATIONS:
            raise ConfigError(f"check {row['name']!r} names unknown operation "
                              f"{row['operation']!r}")
        params = dict(row.get("params", {}))
        for key in ("target", "grid", "tolerance", "expectation"):
            if key in row:
                params[key] = row[key]
        tol = params.get("tolerance")
        if tol is not None and not 0 < tol < math.inf:
            raise ConfigError(f"check {row['name']!r}: tolerance must be "
                              f"positive and finite, got {tol}")
        checks.append(CheckSpec(name=row["name"], operation=row["operation"],
                                params=params))
    return SuiteSpec(suite=payload["suite"], checks=checks)


def run_suite(spec: SuiteSpec, jobs: int = 1) -> SuiteReport:
    """Run every check; exceptions become failures, order is preserved."""
    results = []
    for check in spec.checks:
        start = time.perf_counter()
        try:
            op = OPERATIONS[check.operation]
        except KeyError:
            raise ConfigError(f"unknown operation {check.operation!r}")
        try:
            result = op(check.params, jobs)
            result.name = check.name
        except Exception as err:   # checks must never abort the suite
            result = CheckResult(name=check.name, passed=False,
                                 error=f"{type(err).__name__}: {err}")
        result.seconds = time.perf_counter() - start
        results.append(result)
    return SuiteReport(suite=spec.suite, results=results,
                       vacuous=len(results) == 0)


def _builtin_specs() -> dict:
    return {
        "reeb-solid-torus": [
            CheckSpec("classify-parabolic", "classify-expect",
                      {"target": "reeb", "grid": (64, 16, 16),
                       "tolerance": 1e-8, "expectation": "parabolic",
                       "max_abs_ke": 1e-8}),
            CheckSpec("closed-form-oracle", "reeb-closed-form",
                      {"n_points": 200, "tolerance": 1e-9}),
            CheckSpec("geodesic-regions", "reeb-geodesic-regions",
                      {"tolerance": 1e-10}),
            CheckSpec("integrable", "quantity-bound",
                      {"target": "reeb", "grid": (48, 8, 8),
                       "quantity": "frobenius_residual", "tolerance": 1e-10}),
            CheckSpec("zero-contact-volume", "quantity-bound",
                      {"target": "reeb", "grid": (48, 8, 8),
                       "quantity": "contact_volume", "tolerance": 1e-12}),
        ],
        "metric-path-interface": [
            CheckSpec("straight-line-flagged", "straight-line-flag",
                      {"n_pairs": 3, "seed": 77, "bound": 1e-3}),
            CheckSpec("rank-one-passes", "rank-one-pass",
                      {"n_pairs": 20, "seed": 7, "tolerance": 1e-8}),
        ],
        "open-book-collar": [
            CheckSpec("collar-model", "collar-checks", {"tolerance": 1e-10}),
            CheckSpec("atlas-gluing", "atlas-overlaps",
                      {"tolerance": 1e-9, "leaf_tolerance": 1e-10}),
        ],
        "fibration-pullback": [
            CheckSpec("product-totally-geodesic", "product-fibration-geodesic",
                      {"tolerance": 1e-10}),
            CheckSpec("twist-determinant", "twist-det-preservation",
                      {"tolerance": 1e-10}),
            CheckSpec("twist-roundtrip", "twist-roundtrip",
                      {"tolerance": 1e-9}),
        ],
        "mean-curvature-divergence": [
            CheckSpec("pointwise-identity", "h-divergence-pointwise",
                      {"seeds": [1, 2, 3], "n_points": 100,
                       "tolerance": 1e-9}),
            CheckSpec("integral-vanishes", "integral-h-bound",
                      {"seeds": [1, 2, 3], "grid": (64, 64, 64),
                       "tolerance": 1e-6}),
        ],
        "no-elliptic-closed": [
            CheckSpec("shipped-periodic-examples", "no-elliptic-shipped",
                      {"grid": (16, 16, 16), "h_grid": (64, 64, 64),
                       "integral_tolerance": 1e-6}),
            CheckSpec("contradiction-detector", "elliptic-obstruction-mock", {}),
            CheckSpec("open-chart-elliptic-ok", "classify-expect",
                      {"target": "spheres", "grid": (12, 12, 12),
                       "tolerance": 1e-8, "expectation": "elliptic"}),
        ],
        "metric-transfer": [
            CheckSpec("tilted-plane-pipeline", "transfer-pipeline",
                      {"grid": (8, 8, 8)}),
        ],
        "contact-deformation": [
            CheckSpec("zero-deformation", "scan-zero-beta", {}),
            CheckSpec("quadratic-contact-volume", "scan-torus-quadratic",
                      {"tolerance": 1e-10}),
            CheckSpec("solid-torus-pattern", "scan-reeb-pattern",
                      {"tolerance": 1e-9}),
        ],
        "quadrature": [
            CheckSpec("divergence-integral-convergence",
                      "quadrature-convergence", {"tolerance": 1e-10}),
        ],
    }


def builtin_suite_names() -> list:
    return sorted(_builtin_specs())


def builtin_suite(name: str) -> SuiteSpec:
    specs = _builtin_specs()
    if name not in specs:
        raise ConfigError(f"unknown builtin suite {name!r}; "
                          f"available: {builtin_suite_names()}")
    return SuiteSpec(suite=name, checks=specs[name])
