"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured value so `pytest -v -s tests/test_acceptance.py` reads as a
checklist.  Tolerances are fixed here, not configurable."""

import json
import math
import time

import numpy as np
import pytest

from planefield.catalog import (flat_torus_model, random_periodic_form,
                                shipped_examples, sphere_model)
from planefield.chartio import save_model, validate_payload
from planefield.cli import main
from planefield.distributions import (Distribution, classify,
                                      curvature_arrays, distribution_frames,
                                      frobenius_residual,
                                      integral_mean_curvature, normal_arrays,
                                      normal_jets, second_fundamental_form)
from planefield.geometry import divergence, divergence_raw, integrate_scalar
from planefield.models import (assemble_open_book_demo, closed_form_B_reeb,
                               rank_one_path, reeb_solid_torus,
                               straight_line_path, torus_surface_chart,
                               transfer_metric, verify_metric_path)
from planefield.verify import OPERATIONS, _random_spd_pair


def _report(criterion: int, text: str):
    print(f"\n[criterion {criterion:2d}] PASS  {text}")


def test_criterion_01_solid_torus_classifies_parabolic():
    model = reeb_solid_torus()
    start = time.monotonic()
    rep = classify(model.metric, model.distribution(), grid=(64, 16, 16),
                   tol=1e-8, jobs=1)
    elapsed = time.monotonic() - start
    ke = rep.aggregates["k_e"]
    max_abs = max(abs(ke["min"]), abs(ke["max"]))
    assert rep.classification == "parabolic"
    assert max_abs <= 1e-8
    assert elapsed <= 10.0
    _report(1, f"solid torus parabolic on 64x16x16, max|K_e|={max_abs:.2e}, "
               f"{elapsed:.2f}s single worker")


def test_criterion_02_closed_form_oracle():
    model = reeb_solid_torus()
    rng = np.random.default_rng(20240901)
    pts = np.stack([rng.uniform(1e-3, 1.0, 200),
                    rng.uniform(0, 2 * math.pi, 200),
                    rng.uniform(0, 2 * math.pi, 200)])
    b_num = second_fundamental_form(model.metric, model.distribution(), pts,
                                    frame=model.frame("paper"))
    gap = float(np.max(np.abs(b_num - closed_form_B_reeb(pts[0]))))
    assert gap <= 1e-9

    rs = np.concatenate([np.linspace(0.01, 0.30, 60),
                         np.linspace(0.70, 1.0, 60)])
    flat_pts = np.stack([rs, np.full_like(rs, 0.8), np.full_like(rs, 0.4)])
    b_flat = second_fundamental_form(model.metric, model.distribution(),
                                     flat_pts, frame=model.frame("paper"))
    flat_norm = float(np.max(np.abs(b_flat)))
    assert flat_norm <= 1e-10
    _report(2, f"closed-form B matches at 200 points (gap {gap:.2e}); "
               f"geodesic regions |B|<= {flat_norm:.2e}")


def test_criterion_03_frame_invariance():
    res = OPERATIONS["frame-invariance"](
        {"n_reframings": 100, "seed": 1234, "tolerance": 1e-9,
         "targets": ["reeb", "spheres", "collar"]}, 1)
    assert res.passed, res.detail
    _report(3, f"100 reframings on 3 models, worst relative drift "
               f"{res.measured:.2e} <= 1e-9")


def test_criterion_04_mean_curvature_divergence_and_no_elliptic():
    torus = flat_torus_model()
    worst_defect = 0.0
    worst_integral = 0.0
    for seed in (1, 2, 3):
        dist = Distribution.kernel(random_periodic_form(seed))
        pts = torus.chart.random_points(100, seed=1000 + seed)
        mj = torus.metric.eval(pts)
        fd = distribution_frames(dist, pts)
        nval, _ = normal_arrays(mj, dist, pts)
        arrs = curvature_arrays(mj, fd, nval)
        njets = normal_jets(mj, dist, pts)
        div_n = divergence_raw(mj, np.stack([c.value for c in njets], axis=-1),
                               np.stack([np.moveaxis(c.gradient, 0, -1) for c in njets],
                                        axis=-1))
        worst_defect = max(worst_defect,
                           float(np.max(np.abs(arrs["h"] + div_n))))
        res = integral_mean_curvature(torus.metric, dist, grid=(64, 64, 64),
                                      defect=False)
        worst_integral = max(worst_integral, abs(res["integral_h"]))
    assert worst_defect <= 1e-9
    assert worst_integral <= 1e-6

    spheres = sphere_model()
    rep = classify(spheres.metric, spheres.distribution(), grid=(10, 10, 10))
    assert rep.classification == "elliptic"

    for ex in shipped_examples():
        if not ex.periodic:
            continue
        model, dist = ex.build()
        assert classify(model.metric, dist,
                        grid=(12, 12, 12)).classification != "elliptic", \
            ex.example_id
    _report(4, f"H=div(-n) defect {worst_defect:.2e} at 100x3 points; "
               f"|int H| {worst_integral:.2e} at 64^3; spheres elliptic on "
               f"the open chart; no periodic example elliptic")


def test_criterion_05_contact_and_foliation_dichotomy():
    from planefield.catalog import box_contact_model
    box = box_contact_model()
    dist = box.distribution("standard-contact")
    rep = classify(box.metric, dist, grid=(10, 10, 10))
    cv = rep.aggregates["contact_volume"]
    cv_gap = max(abs(cv["min"] - 2.0), abs(cv["max"] - 2.0))
    assert cv_gap <= 1e-12

    rng = np.random.default_rng(5)
    near_origin = rng.uniform(-0.5, 0.5, size=(3, 64))
    res = np.abs(frobenius_residual(box.metric, dist, near_origin))
    min_res = float(np.min(res))
    assert min_res >= 0.4

    worst_frob = 0.0
    worst_cv = 0.0
    for ex in shipped_examples():
        if ex.kind != "foliation":
            continue
        model, dist = ex.build()
        rep = classify(model.metric, dist, grid=(10, 10, 10))
        frob = rep.aggregates["frobenius_residual"]
        cva = rep.aggregates["contact_volume"]
        worst_frob = max(worst_frob, abs(frob["min"]), abs(frob["max"]))
        worst_cv = max(worst_cv, abs(cva["min"]), abs(cva["max"]))
    assert worst_frob <= 1e-10
    assert worst_cv <= 1e-12
    _report(5, f"contact volume 2 +/- {cv_gap:.1e}, residual >= {min_res:.2f} "
               f"near origin; foliations: residual <= {worst_frob:.1e}, "
               f"|contact volume| <= {worst_cv:.1e}")


def test_criterion_06_metric_path_interface():
    chart = torus_surface_chart()
    rng = np.random.default_rng(7)
    flagged_min = math.inf
    worst = 0.0
    for _ in range(20):
        g, h = _random_spd_pair(chart, rng)
        line = verify_metric_path(straight_line_path(g, h), grid=(9, 9, 9))
        flagged_min = min(flagged_min, line["max_abs_det_dt"])
        path = rank_one_path(g, h, grid=(9, 9, 17))
        rep = verify_metric_path(path, grid=(9, 9, 13))
        worst = max(worst, rep["max_abs_det_dt"], rep["collar0_residual"],
                    rep["collar1_residual"], rep["boundary_residual"])
    assert flagged_min > 1e-3
    assert worst <= 1e-8
    _report(6, f"20 pairs: straight-line det >= {flagged_min:.2e} (flagged), "
               f"rank-one residual <= {worst:.2e}")


def test_criterion_07_open_book_assembly():
    _, _, rep = assemble_open_book_demo(classify_grid=(48, 8, 8),
                                        tolerance=1e-9)
    assert rep.max_metric_mismatch <= 1e-9
    assert rep.all_parabolic
    _report(7, f"atlas overlaps mismatch <= {rep.max_metric_mismatch:.1e}, "
               f"leaf residual <= {rep.max_leaf_residual:.1e}, "
               f"all 5 charts parabolic at 1e-8")


def test_criterion_08_metric_transfer_report():
    torus = flat_torus_model()
    rep = transfer_metric(torus.metric, torus.distribution("vertical"),
                          torus.distribution("tilted"), grid=(8, 8, 8))
    payload = {"body": rep.body(), "timings": {}}
    validate_payload(payload, "transfer-report")
    body = payload["body"]
    assert "form_residual" in body and "det_residual" in body
    assert rep.new_metric_spd
    _report(8, f"transfer pipeline complete; residuals reported "
               f"(form {rep.max_form_residual:.2e}, "
               f"det {rep.max_det_residual:.2e}), schema-valid")


def test_criterion_09_quadrature_convergence():
    torus = flat_torus_model()
    probe = torus.vectors["quadrature-probe"]
    values = []
    for n in (8, 16, 32, 64):
        v = integrate_scalar(torus.metric,
                             lambda p: divergence(torus.metric, probe, p),
                             (n, n, n))
        values.append(abs(v))
    assert values[0] > values[1] > values[2]
    assert values[3] <= 1e-10
    _report(9, "divergence integral decays "
               + " > ".join(f"{v:.1e}" for v in values[:3])
               + f", {values[3]:.1e} at 64^3")


def test_criterion_10_reports_identical_across_workers(tmp_path):
    chart_file = tmp_path / "torus.json"
    save_model(flat_torus_model(), chart_file)
    bodies = []
    for jobs in (1, 2, 8):
        out = tmp_path / f"rep-{jobs}.json"
        code = main(["classify", str(chart_file),
                     "--distribution", "graph-foliation",
                     "--grid", "16,16,16", "--jobs", str(jobs),
                     "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        bodies.append(json.dumps(payload["body"], sort_keys=True))
    assert bodies[0] == bodies[1] == bodies[2]
    _report(10, "classify bodies byte-identical across 1, 2 and 8 workers")
