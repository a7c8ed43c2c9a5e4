import math
import multiprocessing
import os
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planefield import geometry
from planefield.errors import ConfigError, NotSPDError, SingularSampleError
from planefield.expr import Jet1
from planefield.geometry import (Chart, ExactSum, MetricField, OneForm, SingularLocus,
                                 VectorField, christoffel, chunked_eval,
                                 covariant_derivative, d_oneform, divergence,
                                 integrate_scalar, metric_at, pairwise_sum,
                                 wedge3)

EUCLID = ("1", "0", "0", "1", "0", "1")


def box_chart():
    return Chart(("x", "y", "z"), ((-1, 1), (-1, 1), (-1, 1)),
                 (False, False, False))


def torus_chart():
    return Chart(("x", "y", "z"), ((0, 1), (0, 1), (0, 1)),
                 (True, True, True))


# ---------------------------------------------------------------------------
# charts and grids


def test_chart_rejects_empty_interval():
    with pytest.raises(ConfigError):
        Chart(("x", "y", "z"), ((1, 1), (0, 1), (0, 1)), (False,) * 3)


@pytest.mark.parametrize("domain, loci, message", [
    (((0, math.inf), (0, 1), (0, 1)), (), "interval for 'x' is not finite: [0.0, inf]"),
    (((0, 1), (-math.inf, 1), (0, 1)), (), "interval for 'y' is not finite: [-inf, 1.0]"),
    (((0, 1), (0, 1), (math.nan, 1)), (), "interval for 'z' is not finite: [nan, 1.0]"),
    (((0, 1),) * 3, (SingularLocus("y", math.inf),), "singular locus of 'y' is not finite: inf"),
    (((0, 1),) * 3, (SingularLocus("x", math.nan),), "singular locus of 'x' is not finite: nan"),
])
def test_chart_rejects_non_finite_bounds_and_loci(domain, loci, message):
    with pytest.raises(ConfigError) as err:
        Chart(("x", "y", "z"), domain, (False,) * 3, singular_loci=loci)
    assert str(err.value) == message


def test_chart_rejects_duplicate_names():
    with pytest.raises(ConfigError):
        Chart(("x", "x", "z"), ((0, 1),) * 3, (False,) * 3)


def test_sample_grid_avoids_singular_locus(polar_chart):
    grid = polar_chart.sample_grid((16, 4, 4), margin=1e-3)
    assert np.all(grid.points[0] >= 1e-3)


def test_quadrature_grid_spans_full_domain(polar_chart):
    grid = polar_chart.quadrature_grid((10, 4, 4))
    h = 2.0 / 10
    assert grid.points[0].min() == pytest.approx(h / 2)
    assert grid.cell_volume == pytest.approx(h * (2 * np.pi / 4) * (1.0 / 4))


@pytest.mark.parametrize("shape", [(5, 7, 3), (1, 4, 2), (6, 1, 1)])
@pytest.mark.parametrize("read", [(), (0,), (1,), (2,), (0, 2), (1, 2), (0, 1, 2)])
def test_grid_quotient_and_fibres_match_the_full_mesh(shape, read):
    """Each quotient point is the first grid point of its fibre; the
    members of a fibre are its grid points in C order, and ``point`` gives
    their coordinates as the mesh holds them."""
    grid = Chart(("x", "y", "z"), ((0, 1), (-2, 3), (1, 4)), (True,) * 3).quadrature_grid(shape)
    axes, fibre = grid.quotient(read)
    assert [len(a) for a in axes] == [n if i in read else 1 for i, n in enumerate(shape)]
    points = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])
    full = grid.points
    key = [tuple(p[list(read)]) for p in full.T]
    fibres = {}
    for i, k in enumerate(key):
        fibres.setdefault(k, []).append(i)
    assert points.shape[1] * fibre == full.shape[1] and len(fibres) == points.shape[1]
    q = np.arange(points.shape[1])
    for k in (1, 4, 1000):
        members = grid.members(read, q, k)
        assert members.shape == (q.size, min(k, fibre))
        for j, row in zip(q, members):
            assert row.tolist() == fibres[tuple(points[list(read), j])][:k]
            assert (full[:, row[0]] == points[:, j]).all()
    for i in range(full.shape[1]):
        assert grid.point(i) == full[:, i].tolist()
    assert grid.members(read, q[:0], 5).shape == (0, min(5, fibre))


def test_quadrature_grid_refuses_interior_locus_hit():
    chart = Chart(("x", "y", "z"), ((0, 1),) * 3, (True,) * 3,
                  singular_loci=(SingularLocus("x", 0.5),))
    with pytest.raises(SingularSampleError):
        chart.quadrature_grid((1, 4, 4))   # lone midpoint lands on 0.5


def test_random_points_respect_margin(polar_chart):
    pts = polar_chart.random_points(256, seed=9, margin=1e-3)
    assert np.all(pts[0] >= 1e-3)
    again = polar_chart.random_points(256, seed=9, margin=1e-3)
    assert np.array_equal(pts, again)


# ---------------------------------------------------------------------------
# metric evaluation


def test_metric_at_identity():
    g = MetricField.from_strings(box_chart(), EUCLID)
    val, dval = metric_at(g, np.array([0.3, -0.2, 0.9]))
    assert np.array_equal(val, np.eye(3))
    assert np.all(dval == 0)


def test_metric_at_polar(polar_metric):
    val, _ = metric_at(polar_metric, np.array([0.2, 1.0, 0.5]))
    assert np.allclose(np.diag(val), [1.0, 0.04, 1.0])


def test_metric_at_reeb_outer_region_is_flat(reeb):
    val, _ = metric_at(reeb.metric, np.array([0.5, 0.0, 0.0]))
    assert np.allclose(val, np.eye(3), atol=1e-15)


def test_metric_not_spd_raises():
    g = MetricField.from_strings(box_chart(),
                                 ("-1", "0", "0", "1", "0", "1"))
    with pytest.raises(NotSPDError) as err:
        metric_at(g, np.zeros(3))
    assert err.value.minor_index == 0


def test_a_nan_leading_minor_is_the_failing_one():
    """A minor that is NaN is not > 0: the error names it, not the positive
    minor before it."""
    g = MetricField.from_strings(box_chart(), ("1", "0", "0", "0*x^2 + 1", "0", "1"))
    with np.errstate(all="ignore"), pytest.raises(NotSPDError) as err:
        metric_at(g, np.array([1e300, 0.0, 0.0]))
    assert err.value.minor_index == 1 and math.isnan(err.value.minor_value)
    assert geometry.first_failing_minor(np.array([[1.0, 2.0], [1.0, np.nan]])) == (1, 1)
    assert geometry.first_failing_minor(np.array([[1.0, 2.0]])) is None


def test_metric_batch_flags_invalid_points():
    chart = Chart(("r", "y", "z"), ((0.1, 2.0), (0, 1), (0, 1)),
                  (False, True, True))
    g = MetricField.from_strings(chart, ("r - 1", "0", "0", "1", "0", "1"))
    pts = np.stack([np.linspace(0.2, 1.8, 9), np.zeros(9), np.zeros(9)])
    mj = g.eval(pts)
    assert np.array_equal(mj.spd, pts[0] > 1.0)


def _random_symmetric(n, seed):
    """Random symmetric 3x3 matrices, about half of them SPD."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, 3, 3))
    m = a @ np.swapaxes(a, -1, -2) + rng.uniform(-1.5, 1.5, size=(n, 1, 1)) * np.eye(3)
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _metric_jets(val, dval):
    """Jets of a symmetric metric given as dense arrays."""
    return geometry.MetricJets([Jet1(val[..., i, j], [dval[..., l, i, j] for l in range(3)])
                                for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))],
                               val.shape[:-2])


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def test_leading_minors_bit_identical_to_cofactor_expansions():
    """Minors and the SPD mask equal, bit for bit, the cofactor expansions
    that MetricField.eval and the transferred metric wrote out before the
    adjugate helper: the general ``_det3`` and the symmetric-entry form."""
    m = _random_symmetric(20000, seed=11)
    mj = _metric_jets(m, np.zeros(m.shape[:-2] + (3, 3, 3)))
    det3 = (m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
            - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
            + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0]))
    det_sym = (m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] ** 2)
               - m[..., 0, 1] * (m[..., 0, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 0, 2])
               + m[..., 0, 2] * (m[..., 0, 1] * m[..., 1, 2] - m[..., 1, 1] * m[..., 0, 2]))
    m1 = m[..., 0, 0]
    m2 = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] ** 2
    assert np.array_equal(_bits(mj.minors), _bits(np.stack([m1, m2, det3], axis=-1)))
    assert np.array_equal(_bits(det3), _bits(det_sym))
    assert np.array_equal(mj.spd, (m1 > 0) & (m2 > 0) & (det3 > 0))
    assert 0.2 < np.mean(mj.spd) < 0.8


def test_closed_form_inverse_matches_linalg_and_is_identity_off_spd():
    m = _random_symmetric(5000, seed=12)
    mj = _metric_jets(m, np.zeros(m.shape[:-2] + (3, 3, 3)))
    inv = mj.inv()
    spd = mj.spd
    assert np.any(spd) and np.any(~spd)
    want = np.linalg.inv(m[spd])
    cond = np.linalg.cond(m[spd])[:, None, None]
    scale = cond * np.abs(want).max(axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(inv[spd] - want) <= 1e-13 * scale)
    assert np.array_equal(inv[~spd], np.broadcast_to(np.eye(3), inv[~spd].shape))
    single = _metric_jets(m[0], np.zeros((3, 3, 3)))
    assert single.inv().shape == (3, 3)
    assert np.array_equal(single.inv(), inv[0])


def test_christoffel_matches_second_kind_einsum():
    chart = box_chart()
    g = MetricField.from_strings(chart, ("2 + sin(x)^2", "0.2*x*y", "0.1*z*x",
                                         "1.5 + 0.3*cos(z)", "0.1*y", "1 + x*x"))
    pts = np.random.default_rng(5).uniform(-0.9, 0.9, size=(3, 50))
    mj = g.eval(pts)
    dg = mj.dval
    c = dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)
    want = 0.5 * np.einsum("...kl,...ijl->...kij", np.linalg.inv(mj.val), c)
    np.testing.assert_allclose(christoffel(g, pts), want, rtol=1e-12, atol=1e-13)


# ---------------------------------------------------------------------------
# connection


def test_christoffel_flat_is_zero():
    g = MetricField.from_strings(box_chart(), EUCLID)
    gamma = christoffel(g, np.array([0.1, 0.2, 0.3]))
    assert np.all(gamma == 0)


def test_christoffel_constant_metric_is_zero():
    g = MetricField.from_strings(box_chart(),
                                 ("2", "0.3", "0.1", "1.5", "0.2", "1.1"))
    gamma = christoffel(g, np.array([0.4, -0.5, 0.6]))
    assert np.all(gamma == 0)


def test_christoffel_polar_values(polar_metric):
    gamma = christoffel(polar_metric, np.array([0.2, 0.7, 0.1]))
    assert gamma[0, 1, 1] == pytest.approx(-0.2, rel=1e-14)
    assert gamma[1, 0, 1] == pytest.approx(5.0, rel=1e-14)
    assert gamma[1, 1, 0] == pytest.approx(5.0, rel=1e-14)
    mask = np.ones((3, 3, 3), dtype=bool)
    mask[0, 1, 1] = mask[1, 0, 1] = mask[1, 1, 0] = False
    assert np.allclose(gamma[mask], 0.0, atol=1e-14)


def test_christoffel_symmetric_in_lower_indices():
    chart = box_chart()
    g = MetricField.from_strings(chart, ("2 + sin(x)^2", "0.2*x*y", "0",
                                         "1.5 + 0.3*cos(z)", "0.1*y", "1"))
    rng = np.random.default_rng(4)
    pts = rng.uniform(-0.9, 0.9, size=(3, 20))
    gamma = christoffel(g, pts)
    assert np.allclose(gamma, np.swapaxes(gamma, -2, -1), atol=1e-13)


def test_covariant_derivative_flat():
    chart = box_chart()
    g = MetricField.from_strings(chart, EUCLID)
    x = VectorField(chart, ("1", "0", "0"))
    y = VectorField(chart, ("0", "1", "0"))
    out = covariant_derivative(g, x, y, np.array([0.1, 0.2, 0.3]))
    assert np.all(out == 0)


def test_covariant_derivative_polar_circle(polar_chart, polar_metric):
    dphi = VectorField(polar_chart, ("0", "1", "0"))
    out = covariant_derivative(polar_metric, dphi, dphi,
                               np.array([0.7, 0.3, 0.1]))
    assert np.allclose(out, [-0.7, 0.0, 0.0], atol=1e-14)


def test_covariant_derivative_ignores_flat_directions(polar_chart, polar_metric):
    dz = VectorField(polar_chart, ("0", "0", "1"))
    y = VectorField(polar_chart, ("sin(r)", "r^2", "0"))
    out = covariant_derivative(polar_metric, dz, y, np.array([0.7, 0.3, 0.1]))
    assert np.allclose(out, 0.0, atol=1e-14)


def test_metric_compatibility_of_connection():
    # d_k g(X, Y) = g(nabla_k X, Y) + g(X, nabla_k Y) at random points
    chart = box_chart()
    g = MetricField.from_strings(chart, ("2 + 0.5*sin(x)^2", "0.2*sin(y)", "0",
                                         "1.5 + 0.3*cos(z)^2", "0.1*sin(x)", "1.2"))
    x = VectorField(chart, ("sin(y)", "cos(z)", "x^2"))
    y = VectorField(chart, ("exp(0.3*x)", "y", "sin(z)"))
    rng = np.random.default_rng(11)
    pts = rng.uniform(-0.9, 0.9, size=(3, 30))

    mj = g.eval(pts)
    gamma = christoffel(g, pts)
    xv, xj = x.eval(pts)
    yv, yj = y.eval(pts)
    # left side assembled from exact jets of the entries and components
    lhs = (np.einsum("...kij,...i,...j->...k", mj.dval, xv, yv)
           + np.einsum("...ij,...ki,...j->...k", mj.val, xj, yv)
           + np.einsum("...ij,...i,...kj->...k", mj.val, xv, yj))
    basis = np.eye(3)
    rhs = np.zeros_like(lhs)
    for k in range(3):
        ek = np.broadcast_to(basis[k], xv.shape)
        zero_jac = np.zeros(xv.shape + (3,))
        from planefield.geometry import covariant_derivative_raw
        dx = covariant_derivative_raw(gamma, ek, zero_jac, xv, xj)
        dy = covariant_derivative_raw(gamma, ek, zero_jac, yv, yj)
        rhs[..., k] = (np.einsum("...ij,...i,...j->...", mj.val, dx, yv)
                       + np.einsum("...ij,...i,...j->...", mj.val, xv, dy))
    assert np.max(np.abs(lhs - rhs)) < 1e-9


# ---------------------------------------------------------------------------
# exterior calculus


def test_d_of_closed_form_vanishes():
    chart = box_chart()
    alpha = OneForm(chart, ("0", "0", "1"))
    assert np.all(d_oneform(alpha, np.array([0.1, 0.2, 0.3])) == 0)


def test_d_of_x_dy():
    chart = box_chart()
    alpha = OneForm(chart, ("0", "x", "0"))
    da = d_oneform(alpha, np.array([0.5, -0.3, 0.2]))
    expected = np.zeros((3, 3))
    expected[0, 1], expected[1, 0] = 1.0, -1.0
    assert np.array_equal(da, expected)


def test_d_of_interpolating_form(reeb):
    from planefield.expr import smoothstep_deriv
    da = d_oneform(reeb.form(), np.array([0.5, 0.0, 0.0]))
    fp = smoothstep_deriv(1 / 3, 2 / 3, 0.5)
    assert da[0, 2] == pytest.approx(-fp, rel=1e-13)
    assert da[2, 0] == pytest.approx(fp, rel=1e-13)


def test_wedge3_normalization():
    omega = np.zeros((3, 3))
    omega[1, 2], omega[2, 1] = 1.0, -1.0
    assert wedge3([1, 0, 0], omega) == pytest.approx(1.0)
    omega_xy = np.zeros((3, 3))
    omega_xy[0, 1], omega_xy[1, 0] = 1.0, -1.0
    assert wedge3([0, 0, 1], omega_xy) == pytest.approx(1.0)
    assert wedge3([1, 0, 0], omega_xy) == 0.0


def test_wedge3_mixed_terms():
    omega = np.zeros((3, 3))
    omega[0, 1], omega[1, 0] = 2.0, -2.0
    for p in ([0.5, 0.7, 0.1], [0.0, 0.0, 0.0]):
        x, y, _ = p
        assert wedge3([-y, x, 1.0], omega) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# divergence and quadrature


def test_divergence_flat_constant_field():
    chart = box_chart()
    g = MetricField.from_strings(chart, EUCLID)
    assert divergence(g, VectorField(chart, ("1", "0", "0")),
                      np.array([0.1, 0.2, 0.3])) == 0.0


def test_divergence_flat_linear_field():
    chart = box_chart()
    g = MetricField.from_strings(chart, EUCLID)
    assert divergence(g, VectorField(chart, ("x", "0", "0")),
                      np.array([0.1, 0.2, 0.3])) == pytest.approx(1.0)


@pytest.mark.parametrize("entries", [("2", "0.5", "0", "1", "0", "3"),
                                     ("1e308*10", "0", "0", "1", "0", "1")])
def test_divergence_on_a_constant_metric_matches_the_einsums(entries):
    """A constant metric skips the d log sqrt(det g) contraction and keeps
    the bits of the dense einsums, NaN where its inverse is not finite."""
    chart = box_chart()
    pts = chart.random_points(200, seed=2)
    xval, xjac = VectorField(chart, ("-sin(3*y)", "x*cos(2*z)", "-0.5")).eval(pts)
    with np.errstate(over="ignore", invalid="ignore"):
        mj = MetricField.from_strings(chart, entries).eval(pts)
        dlog = 0.5 * np.einsum("...lm,...ilm->...i", mj.inv(), mj.dval)
        want = np.einsum("...ii->...", xjac) + np.einsum("...i,...i->...", xval, dlog)
        got = geometry.divergence_raw(mj, xval, xjac)
    assert got.tobytes() == want.tobytes()


def test_divergence_polar_radial(polar_chart, polar_metric):
    out = divergence(polar_metric, VectorField(polar_chart, ("1", "0", "0")),
                     np.array([0.2, 0.3, 0.4]))
    assert out == pytest.approx(5.0, rel=1e-13)


def test_integral_of_one_is_the_volume():
    g = MetricField.from_strings(torus_chart(), EUCLID)
    for grid in ((16, 16, 16), (10, 6, 4)):
        assert integrate_scalar(g, lambda p: np.ones(p.shape[1]), grid) \
            == pytest.approx(1.0, abs=1e-12)


def test_integral_of_full_period_sine_vanishes():
    g = MetricField.from_strings(torus_chart(), EUCLID)
    out = integrate_scalar(g, lambda p: np.sin(2 * np.pi * p[0]), (16, 16, 16))
    assert abs(out) < 1e-14


def test_integral_of_divergence_vanishes():
    chart = torus_chart()
    g = MetricField.from_strings(chart, EUCLID)
    x = VectorField(chart, ("sin(2*pi*x)", "0", "0"))
    out = integrate_scalar(g, lambda p: divergence(g, x, p), (32, 32, 32))
    assert abs(out) <= 1e-12


def test_integral_of_divergence_random_periodic_field():
    chart = torus_chart()
    g = MetricField.from_strings(chart, EUCLID)
    x = VectorField(chart, ("sin(2*pi*x + 0.3)*cos(2*pi*y)",
                            "cos(2*pi*(y + z) + 1.1)",
                            "sin(2*pi*z)*sin(2*pi*x + 0.5)"))
    out = integrate_scalar(g, lambda p: divergence(g, x, p), (64, 64, 64))
    assert abs(out) <= 1e-10


def test_integral_on_open_chart_needs_explicit_support_claim():
    g = MetricField.from_strings(box_chart(), EUCLID)
    with pytest.raises(ConfigError):
        integrate_scalar(g, lambda p: np.ones(p.shape[1]), (4, 4, 4))
    out = integrate_scalar(g, lambda p: np.ones(p.shape[1]), (4, 4, 4),
                           assume_compact_support=True)
    assert out == pytest.approx(8.0)


def test_integral_rejects_a_metric_that_is_not_spd_despite_positive_det():
    # diag(-1, -1, 1) has det 1 but fails the first leading minor
    g = MetricField.from_strings(torus_chart(), ("-1", "0", "0", "-1", "0", "1"))
    with pytest.raises(NotSPDError) as err:
        integrate_scalar(g, lambda p: np.ones(p.shape[1]), (4, 4, 4))
    assert err.value.point == (0.125, 0.125, 0.125)
    assert (err.value.minor_index, err.value.minor_value) == (0, -1.0)


def test_quadrature_weight_includes_volume_element(polar_metric):
    # area of the r <= 2 disk times unit height, in polar coordinates
    out = integrate_scalar(polar_metric, lambda p: np.ones(p.shape[1]),
                           (64, 16, 4), assume_compact_support=True)
    assert out == pytest.approx(4.0 * np.pi, rel=1e-4)


# ---------------------------------------------------------------------------
# deterministic reductions


def test_pairwise_sum_matches_math_fsum():
    rng = np.random.default_rng(8)
    a = rng.uniform(-1, 1, size=10001)
    assert pairwise_sum(a) == math.fsum(a)
    assert pairwise_sum(rng.permutation(a)) == pairwise_sum(a)
    assert pairwise_sum([1e16, 1.0, -1e16]) == 1.0
    assert pairwise_sum([]) == 0.0


def test_pairwise_sum_of_non_finite_values_does_not_raise():
    assert pairwise_sum([np.inf, 1.0]) == np.inf
    assert math.isnan(pairwise_sum([np.nan, 1.0]))
    assert math.isnan(pairwise_sum([np.inf, -np.inf]))


def test_exact_sum_of_blocks_is_the_correctly_rounded_total():
    rng = np.random.default_rng(9)
    a = rng.uniform(-1, 1, size=5000) * 10.0 ** rng.integers(-20, 20, size=5000)
    for size in (1, 7, 1000, 5000):
        blocks = [ExactSum(a[i:i + size]) for i in range(0, a.size, size)]
        assert float(sum(blocks, ExactSum())) == math.fsum(a)
    assert float(ExactSum([1e16, 1.0, -1e16]) + ExactSum([1e-30])) == 1.0


def test_exact_sum_of_non_finite_values_terminates():
    assert float(ExactSum([np.inf, 1.0])) == np.inf
    assert math.isnan(float(ExactSum([np.nan, 1.0])))
    assert math.isnan(float(ExactSum([np.inf, -np.inf])))
    assert math.isnan(float(ExactSum([np.inf]) + ExactSum([-np.inf])))


def _oracle_sum(values) -> float:
    """The correctly rounded sum from exact rationals, ±inf past the largest
    double; with any non-finite value, the IEEE sum of the non-finite ones."""
    vals = np.asarray(values, dtype=float).ravel().tolist()
    special = [v for v in vals if not math.isfinite(v)]
    if special:
        return sum(special)
    exact = sum(map(Fraction, vals), Fraction(0))
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def _assert_sum_matches_oracle(values):
    assert float(ExactSum(values)).hex() == _oracle_sum(values).hex()


_TINY = 2.0 ** -1022
_cancelling = st.lists(st.floats(-1e20, 1e20), min_size=1, max_size=60).flatmap(
    lambda xs: st.permutations(xs + [-x for x in xs] + [xs[0] * 1e-17, 1e-300]))
_moderate_arrays = st.one_of(
    st.just([]),
    st.lists(st.sampled_from([0.0, -0.0]), min_size=1, max_size=40),
    st.builds(lambda x, n: [x] * n, st.floats(-1e30, 1e30), st.integers(1, 300)),
    st.lists(st.floats(-_TINY, _TINY), min_size=1, max_size=60),
    _cancelling,
    st.lists(st.builds(lambda m, k: m * 10.0 ** k, st.floats(-1, 1),
                       st.integers(-300, 300)), min_size=1, max_size=200),
    st.lists(st.one_of(st.floats(2.0 ** 52, 2.0 ** 70), st.floats(-2.0 ** 70, -2.0 ** 52),
                       st.floats(-1, 1)), min_size=1, max_size=60),
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.one_of(_moderate_arrays,
                 st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20)))
def test_exact_sum_parts_are_the_shewchuk_parts(values):
    """The rounded total is the exact rational sum, rounded once."""
    _assert_sum_matches_oracle(values)


@pytest.mark.parametrize("values", [
    [np.inf], [np.nan], [np.inf, 1.0], [np.inf, -np.inf], [1.0, np.nan, -np.inf],
    [1.7e308, 1.7e308], [1.7e308, 1.7e308, -1.7e308], [2.0 ** 1000, 2.0 ** 1001],
    [2.0 ** 1018] * 4, [-2.0 ** 1018] * 4 + [2.0 ** -1074],
    [2.0 ** 1023, 2.0 ** 1023, -2.0 ** 1023],
    # one binade whose high and low mantissa halves sum to opposite totals
    [2.0 ** 52, -(2.0 ** 52 + 2.0 ** 51) + 2.0 ** 25],
])
def test_exact_sum_parts_on_edge_cases_are_the_shewchuk_parts(values):
    _assert_sum_matches_oracle(values)


@pytest.mark.parametrize("values, total", [
    ([1.7e308, 1.7e308, -1.7e308], 1.7e308),
    ([2.0 ** 1023, 2.0 ** 1023, -2.0 ** 1023], 8.98846567431158e+307),
    ([1.7e308, 1.7e308, -np.inf], -np.inf),
])
def test_a_finite_sum_past_an_overflowing_partial_sum_is_finite(values, total):
    assert float(ExactSum(values)) == total
    assert float(ExactSum(values[:1]) + ExactSum(values[1:])) == total
    assert pairwise_sum(values) == total
    assert pairwise_sum(values[::-1]) == total


@pytest.mark.parametrize("values, copies", [
    ([0.1], 3), ([0.1, -0.3, 1e-300], 10 ** 15), ([], 7), ([-0.0], 2),
    ([1e308], 2), ([-1e308, 1e300], 10), ([1.0], 2 ** 62),
    ([np.inf], 3), ([-np.inf, 1.0], 2), ([np.nan], 5), ([np.inf, -np.inf], 4),
    ([np.inf, 1e308], 10 ** 15),
])
def test_exact_sum_times_copies_is_the_sum_of_the_copies(values, copies):
    """``ExactSum(v) * m`` is the sum of m copies of v, rounded once: exact
    where finite, ±inf where it overflows, and inf or nan kept."""
    got = float(ExactSum(values) * copies)
    if len(values) * copies <= 40:
        assert got.hex() == _oracle_sum(list(values) * copies).hex()
    special = [v for v in values if not math.isfinite(v)]
    if special:
        assert got.hex() == (sum(special) * copies).hex()
    else:
        exact = sum(map(Fraction, values), Fraction(0)) * copies
        try:
            assert got == float(exact)
        except OverflowError:
            assert got == (math.inf if exact > 0 else -math.inf)


def test_exact_sum_is_the_same_over_bincount_chunks(monkeypatch):
    rng = np.random.default_rng(10)
    a = rng.uniform(-1, 1, size=1000) * 10.0 ** rng.integers(-300, 300, size=1000)
    whole = float(ExactSum(a)).hex()
    for chunk in (1, 7, 999):
        monkeypatch.setattr(geometry, "_SUM_CHUNK", chunk)
        assert float(ExactSum(a)).hex() == whole == _oracle_sum(a).hex()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_moderate_arrays, st.lists(st.integers(0, 400), max_size=6))
def test_exact_sum_of_any_split_in_block_order_is_the_fsum_of_the_whole(values, cuts):
    edges = [0] + sorted(c for c in cuts if c <= len(values)) + [len(values)]
    blocks = [ExactSum(values[a:b]) for a, b in zip(edges, edges[1:])]
    assert float(sum(blocks, ExactSum())) == math.fsum(values)


def _first_point(p) -> list:
    """The first point of a block given as coordinate arrays."""
    return [c.flat[0] for c in p]


def test_chunked_eval_is_worker_count_invariant(monkeypatch):
    """Blocks of whole planes (64 points each, 100 at most) whose results,
    in block order, are the kernel's on the whole grid."""
    monkeypatch.setattr(geometry, "BLOCK_POINTS", 100)
    g = MetricField.from_strings(torus_chart(), EUCLID)
    chart = g.chart
    x = VectorField(chart, ("exp(sin(2*pi*x))", "cos(2*pi*y)", "x*z"))
    grid = chart.quadrature_grid((8, 8, 8))

    def kernel(p):
        return divergence(g, x, p)

    base = chunked_eval(kernel, grid.axes, jobs=1)
    assert [b.shape for b in base] == [(1, 8, 8)] * 8
    assert np.array_equal(np.concatenate([b.ravel() for b in base]), kernel(grid.points))
    for jobs in (2, 3, 8):
        blocks = chunked_eval(kernel, grid.axes, jobs=jobs)
        assert len(blocks) == len(base)
        assert all(np.array_equal(b, c) for b, c in zip(blocks, base))


def test_chunked_eval_uses_no_more_processes_than_blocks(monkeypatch):
    """A sweep forks min(jobs, blocks) - 1 children: the caller is one of
    the min(jobs, blocks) processes that run blocks."""
    monkeypatch.setattr(geometry, "BLOCK_POINTS", 64)
    forks = []
    start = multiprocessing.context.ForkProcess.start
    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start",
                        lambda self: forks.append(self) or start(self))

    def kernel(p):
        return os.getpid()

    # 4 planes of 16 points per block, or 1 plane of 56
    for grid, jobs, n_blocks, n_forks in (((8, 4, 4), 8, 2, 1), ((8, 8, 7), 3, 8, 2),
                                          ((8, 4, 4), 1, 2, 0)):
        axes = torus_chart().quadrature_grid(grid).axes
        forks.clear()
        pids = chunked_eval(kernel, axes, jobs=jobs)
        assert len(pids) == n_blocks
        assert len(forks) == n_forks
        assert set(pids) <= {os.getpid()} | {child.pid for child in forks}
        assert multiprocessing.active_children() == []


def test_each_block_runs_once_on_more_processes_than_cores(monkeypatch, deadline):
    """No block is lost or run twice."""
    monkeypatch.setattr(geometry, "BLOCK_POINTS", 2)
    grid = torus_chart().quadrature_grid((8, 8, 4))     # 128 blocks of half a row
    pts = grid.points
    runs = multiprocessing.get_context("fork").Value("q", 0)

    def kernel(p):
        with runs.get_lock():
            runs.value += 1
        return _first_point(p)

    with deadline(60):
        firsts = chunked_eval(kernel, grid.axes, jobs=(os.cpu_count() or 1) + 2)
    assert runs.value == 128
    assert firsts == pts[:, ::2].T.tolist()


def test_two_block_sweep_runs_its_blocks_on_two_workers(monkeypatch, deadline):
    """Each block waits at a barrier for the other, so the two blocks must
    run at once, one on the caller and one on the one child that ``jobs=2``
    forks."""
    monkeypatch.setattr(geometry, "BLOCK_POINTS", 64)
    axes = torus_chart().quadrature_grid((8, 4, 4)).axes     # 2 blocks
    barrier = multiprocessing.get_context("fork").Barrier(2)

    def kernel(p):
        barrier.wait(timeout=10)
        return os.getpid()

    with deadline(60):
        pids = chunked_eval(kernel, axes, jobs=2)
    assert len(set(pids)) == 2 and os.getpid() in pids


def test_chunked_eval_gives_block_b_to_process_b_mod_p(monkeypatch, deadline):
    """Blocks go to the caller and its children by fixed stride: with three
    processes over seven blocks, block b runs where block b mod 3 does."""
    monkeypatch.setattr(geometry, "BLOCK_POINTS", 64)
    axes = torus_chart().quadrature_grid((7, 8, 8)).axes     # 7 blocks

    with deadline(60):
        pids = chunked_eval(lambda p: os.getpid(), axes, jobs=3)
    assert len(pids) == 7
    assert all(pids[b] == pids[b % 3] for b in range(7))
    assert pids[0] == os.getpid()
    assert len(set(pids)) == 3


def test_chunked_eval_raises_the_first_error_in_block_order(monkeypatch, deadline):
    monkeypatch.setattr(geometry, "BLOCK_POINTS", 16)
    grid = torus_chart().quadrature_grid((8, 4, 4))     # 8 blocks
    pts = grid.points
    caller = os.getpid()
    caller_failed = []

    def block_of(p):
        return int(np.flatnonzero((pts.T == _first_point(p)).all(axis=1))[0]) // 16

    def kernel(p):
        block = block_of(p)
        if block == 3:
            time.sleep(0.3)     # so that block 6 fails first on the other process
        if block in (3, 6):
            raise NotSPDError(_first_point(p), block, -1.0)
        return block

    for jobs in (1, 2, 4):
        with deadline(30), pytest.raises(NotSPDError) as err:
            chunked_eval(kernel, grid.axes, jobs=jobs)
        assert err.value.minor_index == 3
        assert err.value.point == tuple(pts[:, 48])
        assert multiprocessing.active_children() == []

    def callers_block_fails(p):
        if os.getpid() != caller:
            time.sleep(0.05)
            return block_of(p)
        caller_failed.append(block_of(p))
        raise NotSPDError(_first_point(p), caller_failed[-1], -1.0)

    def caller_interrupted(p):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(0.05)
        return 0

    for jobs in (2, 4):
        with deadline(30), pytest.raises(NotSPDError) as err:
            chunked_eval(callers_block_fails, grid.axes, jobs=jobs)
        assert err.value.minor_index == caller_failed[-1]
        assert multiprocessing.active_children() == []
        with deadline(30), pytest.raises(KeyboardInterrupt):
            chunked_eval(caller_interrupted, grid.axes, jobs=jobs)
        assert multiprocessing.active_children() == []


def test_a_child_that_dies_mid_sweep_raises_child_process_error(monkeypatch, deadline):
    """A child that exits without sending its blocks fails the sweep with
    its exit code instead of hanging it."""
    monkeypatch.setattr(geometry, "BLOCK_POINTS", 64)
    axes = torus_chart().quadrature_grid((8, 8, 4)).axes     # 4 blocks
    caller = os.getpid()

    def kernel(p):
        if os.getpid() != caller:
            os._exit(3)
        time.sleep(0.5)     # so that the child runs its block first
        return 0

    with deadline(20), pytest.raises(ChildProcessError, match="exited with code 3"):
        chunked_eval(kernel, axes, jobs=2)
    assert multiprocessing.active_children() == []


def test_chunked_eval_runs_serially_while_other_threads_live(monkeypatch):
    """Forking a process that runs other threads is unsafe."""
    monkeypatch.setattr(geometry, "BLOCK_POINTS", 64)
    axes = torus_chart().quadrature_grid((8, 4, 4)).axes     # 2 blocks
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        pids = chunked_eval(lambda p: os.getpid(), axes, jobs=2)
    finally:
        release.set()
        other.join(30)
    assert not other.is_alive()
    assert pids == [os.getpid()] * 2
