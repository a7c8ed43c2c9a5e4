import json

import numpy as np
import pytest

from planefield.errors import ConfigError
from planefield.models import SurfaceMetric, annulus_surface_chart, torus_surface_chart
from planefield.verify import (CheckSpec, SuiteSpec, _random_spd_pair, _spd_pairs,
                               builtin_suite, builtin_suite_names,
                               elliptic_contradiction, run_suite, suite_from_payload)


def test_contradiction_detector_semantics():
    # impossible: positive curvature everywhere on a closed chart forces a
    # nonzero mean-curvature integral
    assert elliptic_contradiction("elliptic", periodic=True, integral_h=0.0)
    assert not elliptic_contradiction("parabolic", periodic=True, integral_h=0.0)
    assert not elliptic_contradiction("elliptic", periodic=False, integral_h=0.0)
    assert not elliptic_contradiction("elliptic", periodic=True, integral_h=0.5)


def test_empty_suite_passes_vacuously():
    report = run_suite(SuiteSpec(suite="empty", checks=[]))
    assert report.vacuous
    assert report.all_passed
    assert report.body()["total"] == 0


def test_negative_tolerance_rejected():
    payload = {"suite": "bad", "checks": [
        {"name": "x", "operation": "classify-expect", "tolerance": -1.0,
         "target": "reeb", "expectation": "parabolic"}]}
    with pytest.raises(ConfigError):
        suite_from_payload(payload)


def test_unknown_operation_rejected():
    payload = {"suite": "bad", "checks": [
        {"name": "x", "operation": "no-such-op"}]}
    with pytest.raises(ConfigError):
        suite_from_payload(payload)


def test_malformed_payload_rejected():
    with pytest.raises(ConfigError):
        suite_from_payload({"suite": "x"})


def test_check_errors_recorded_not_fatal():
    spec = SuiteSpec(suite="mixed", checks=[
        CheckSpec("broken", "classify-expect",
                  {"target": "no/such/file.json", "expectation": "parabolic"}),
        CheckSpec("fine", "elliptic-obstruction-mock", {}),
    ])
    report = run_suite(spec)
    assert not report.results[0].passed
    assert report.results[0].error
    assert report.results[1].passed
    assert not report.all_passed


def test_report_body_is_deterministic():
    spec = builtin_suite("contact-deformation")
    a = json.dumps(run_suite(spec).body(), sort_keys=True)
    b = json.dumps(run_suite(spec).body(), sort_keys=True)
    assert a == b


def test_builtin_names_stable():
    names = builtin_suite_names()
    assert "reeb-solid-torus" in names
    assert "mean-curvature-divergence" in names
    with pytest.raises(ConfigError):
        builtin_suite("nope")


def test_suite_payload_round_trip():
    payload = {"suite": "custom", "checks": [
        {"name": "sphere-elliptic", "operation": "classify-expect",
         "target": "spheres", "grid": [8, 8, 8], "tolerance": 1e-8,
         "expectation": "elliptic"},
    ]}
    report = run_suite(suite_from_payload(payload))
    assert report.all_passed


@pytest.mark.parametrize("name", builtin_suite_names())
def test_builtin_suites_pass(name):
    report = run_suite(builtin_suite(name))
    failures = [(r.name, r.measured, r.error)
                for r in report.results if not r.passed]
    assert report.all_passed, failures
    json.dumps({"body": report.body(), "timings": report.timings()})


def _run_one(operation: str, params: dict):
    report = run_suite(SuiteSpec(suite="one", checks=[
        CheckSpec("only", operation, params)]))
    return report.results[0]


@pytest.mark.parametrize("expectation, passed, measured", [
    (2.0, True, 0.0), (1.0, False, 1.0)])
def test_contact_volume_constant_on_the_standard_contact_box(
        expectation, passed, measured):
    """alpha ^ d(alpha) = 2 dx dy dz for alpha = dz + x dy - y dx."""
    result = _run_one("contact-volume-constant",
                      {"target": "contact-box#standard-contact",
                       "expectation": expectation})
    assert result.error is None
    assert result.passed == passed
    assert result.measured == measured


@pytest.mark.parametrize("target, params, passed, measured", [
    ("contact-box#standard-contact", {}, True, 1.3486746396799707),
    ("contact-box#standard-contact", {"floor": 2.0}, False, 1.3486746396799707),
    ("flat-torus#vertical", {}, False, 0.0)])
def test_frobenius_floor_separates_contact_from_foliation(
        target, params, passed, measured):
    result = _run_one("frobenius-floor", {"target": target, **params})
    assert result.error is None
    assert result.passed == passed
    assert result.measured == pytest.approx(measured, abs=1e-12)


@pytest.mark.parametrize("operation, params, names", [
    ("integral-h-bound", {}, "neither seeds nor targets"),
    ("h-divergence-pointwise", {"seeds": []}, "seeds is empty"),
    ("rank-one-pass", {"n_pairs": 0}, "n_pairs is 0"),
    ("straight-line-flag", {"n_pairs": 0}, "n_pairs is 0"),
    ("frame-invariance", {"n_reframings": 2}, "n_reframings 2 over 3 targets"),
    ("frame-invariance", {"targets": []}, "targets is empty")])
def test_a_check_that_measures_nothing_fails(operation, params, names):
    """A suite input that leaves an operation nothing to measure fails the
    check with a ConfigError naming that input; it does not pass vacuously."""
    result = _run_one(operation, params)
    assert not result.passed
    assert result.error.startswith("ConfigError: ")
    assert names in result.error


@pytest.mark.parametrize("levels, monotone", [
    ([8, 64, 32], False),      # |integral| rises 6.35e-16 -> 1.42e-15 last
    ([64, 8], False),
    ([64], None)])             # one level compares nothing
def test_quadrature_convergence_compares_every_consecutive_pair(levels,
                                                                monotone):
    result = _run_one("quadrature-convergence", {"levels": levels})
    assert not result.passed
    if monotone is None:
        assert result.error.startswith("ConfigError: levels [64]")
    else:
        assert result.error is None
        assert result.detail["monotone"] is monotone


def _spd_pair_from_text(chart, rng):
    """The seeded metric pair written as expression text and parsed back:
    the reference for the node trees that ``_random_spd_pair`` builds."""
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
    u0, u1 = chart.coord_names[0], chart.coord_names[1]
    bump = (f"smoothstep(1.5, 2.5, {u0})*(1 - smoothstep(3.8, 4.8, {u0}))"
            f"*smoothstep(1.5, 2.5, {u1})*(1 - smoothstep(3.8, 4.8, {u1}))")
    upper = ((0, 0), (0, 1), (1, 1))
    g = SurfaceMetric.from_strings(chart, [repr(float(g0[i])) for i in upper])
    h = SurfaceMetric.from_strings(chart, [
        f"{float(g0[i])!r} + {float(m[i])!r}*{bump}" for i in upper])
    return g, h


@pytest.mark.parametrize("default_seed, n_pairs", [(77, 3), (7, 20)],
                         ids=["straight-line-flag", "rank-one-pass"])
def test_seeded_metric_pairs_equal_their_parsed_text(default_seed, n_pairs):
    """For seeds 0-49 the pairs of both metric-path checks are the trees
    that parsing their expression text gives, so every check body keeps its
    bits."""
    for seed in [None, *range(50)]:
        params = {} if seed is None else {"seed": seed}
        rng = np.random.default_rng(default_seed if seed is None else seed)
        want = [_spd_pair_from_text(torus_surface_chart(), rng) for _ in range(n_pairs)]
        got = _spd_pairs(params, default_seed, n_pairs)
        assert [(g.entries, h.entries) for g, h in got] \
            == [(g.entries, h.entries) for g, h in want]


def test_seeded_metric_pairs_follow_the_chart_coordinates():
    chart = annulus_surface_chart()
    got = _random_spd_pair(chart, np.random.default_rng(0))
    want = _spd_pair_from_text(chart, np.random.default_rng(0))
    assert [s.entries for s in got] == [s.entries for s in want]
