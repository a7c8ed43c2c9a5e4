import hashlib
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planefield import distributions, geometry
from planefield.catalog import (box_contact_model, flat_torus_model,
                                polar_cylinder_model, random_periodic_form,
                                shipped_examples, sphere_model,
                                two_pi_torus_model)
from planefield.distributions import (Distribution, classify, contact_volume,
                                      curvature_arrays, distribution_frames,
                                      extrinsic_curvature, frobenius_residual,
                                      integral_mean_curvature, mean_curvature,
                                      normal_arrays, normal_field,
                                      second_fundamental_form, tangent_frame,
                                      write_point_csv)
from planefield.distributions import (_block_arrays, _canonical, _dense_frame,
                                      _kernel_frame, _normal_divergence, _sweep_arrays,
                                      _top)
from planefield.errors import (ConfigError, DegenerateDistributionError,
                               DomainError, NonSPDPathError, NotSPDError,
                               NotTransverseError, PlanefieldError)
from planefield.geometry import (Chart, MetricField, OneForm, VectorField,
                                 christoffel, integrate_scalar)
from planefield.chartio import save_model
from planefield.cli import main
from planefield.expr import Jet1, Num, jet_sqrt
from planefield.models import (Model, contact_deformation_scan, reeb_solid_torus,
                               transfer_metric)


# ---------------------------------------------------------------------------
# frames and normals


def test_frame_of_horizontal_foliation_has_no_vertical_part(torus):
    dist = torus.distribution("vertical")
    s, t = tangent_frame(torus.metric, dist, np.array([0.3, 0.4, 0.5]))
    assert s[2] == 0.0 and t[2] == 0.0


def test_frame_annihilates_the_form(contact_box):
    chart = contact_box.chart
    alpha = OneForm(chart, ("-y", "0", "1"))   # ker(dz - y dx)
    dist = Distribution.kernel(alpha)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.9, 0.9, size=(3, 40))
    fd = distribution_frames(dist, pts)
    aval, _ = alpha.eval(pts)
    pairing = np.einsum("...ak,...k->...a", fd.val, aval)
    assert np.max(np.abs(pairing)) < 1e-12


def _oracle_kernel_frame(aval, ajac):
    """The kernel frame written with one boolean-mask scatter per plane."""
    n = aval.shape[0]
    val = np.zeros((n, 2, 3))
    jac = np.zeros((n, 2, 3, 3))
    idx = np.argmax(np.abs(aval), axis=-1)
    am = np.take_along_axis(aval, idx[:, None], axis=-1)[:, 0]
    for m, (j1, j2) in enumerate(((1, 2), (0, 2), (0, 1))):
        mask = idx == m
        for a, j in ((0, j1), (1, j2)):
            val[mask, a, j] = aval[mask, m]
            val[mask, a, m] = -aval[mask, j]
            jac[mask, a, :, j] = ajac[mask, :, m]
            jac[mask, a, :, m] = -ajac[mask, :, j]
    return val, jac, np.abs(am) > 0.0


def test_kernel_frame_matches_the_mask_scatter(reeb, torus, contact_box):
    cases = [(reeb.form(), reeb.chart.random_points(400, seed=1)),
             (random_periodic_form(2), torus.chart.random_points(400, seed=2))]
    pts = np.random.default_rng(3).uniform(-0.9, 0.9, size=(3, 400))
    cases.append((OneForm(contact_box.chart, ("-y", "0", "1")), pts))
    for alpha, p in cases:
        aval, ajac = alpha.eval(p)
        if alpha is cases[-1][0]:
            aval[::7], ajac[::7] = 0.0, 0.0        # vanishing form
        n = aval.shape[:1]
        groups, ok = _kernel_frame([aval[:, k] for k in range(3)],
                                   [[ajac[:, i, k] for k in range(3)] for i in range(3)], n)
        for got, want in zip((*_dense_frame(groups, n), ok),
                             _oracle_kernel_frame(aval, ajac)):
            assert got.tobytes() == want.tobytes()
    assert not np.all(ok) and np.any(ok)


def test_span_frame_returned_unchanged(reeb):
    chart = reeb.chart
    x, y = reeb.frame("paper")
    dist = Distribution.span(x, y)
    p = np.array([0.5, 1.0, 2.0])
    s, t = tangent_frame(reeb.metric, dist, p)
    xv, _ = x.eval(p)
    yv, _ = y.eval(p)
    assert np.array_equal(s, xv) and np.array_equal(t, yv)


def test_degenerate_form_rejected(torus):
    chart = torus.chart
    vanishing = OneForm(chart, ("x - 0.5", "0", "0"))
    dist = Distribution.kernel(vanishing)
    with pytest.raises(DegenerateDistributionError):
        tangent_frame(torus.metric, dist, np.array([0.5, 0.1, 0.1]))


_POINT_APIS = [normal_field, mean_curvature, extrinsic_curvature,
               second_fundamental_form, frobenius_residual]
_BATCH = np.array([[0.5, -0.5], [0.1, 0.2], [0.3, 0.4]])


@pytest.mark.parametrize("api", _POINT_APIS + [tangent_frame], ids=lambda f: f.__name__)
def test_point_api_names_the_non_spd_point_of_a_batch(api):
    chart = Chart(("x", "y", "z"), ((-1.0, 1.0),) * 3, (False,) * 3)
    metric = MetricField.from_strings(chart, ("x", "0", "0", "1", "0", "1"))
    dist = Distribution.kernel(OneForm(chart, ("0", "0", "1")))
    with pytest.raises(NotSPDError) as err:
        api(metric, dist, _BATCH)
    assert err.value.point == (-0.5, 0.2, 0.4)
    assert (err.value.minor_index, err.value.minor_value) == (0, -0.5)
    assert str(err.value) == ("metric is not positive definite at "
                              "(-0.5, 0.2, 0.4): leading minor 1 = -0.5")


@pytest.mark.parametrize("api", _POINT_APIS + [tangent_frame],
                         ids=lambda f: f.__name__)
def test_point_api_names_the_degenerate_point_of_a_batch(api, torus):
    dist = Distribution.kernel(OneForm(torus.chart, ("0", "0", "x + 0.5")))
    with pytest.raises(DegenerateDistributionError) as err:
        api(torus.metric, dist, _BATCH)
    assert err.value.point == (-0.5, 0.2, 0.4)
    assert str(err.value).startswith("distribution degenerates at (-0.5, 0.2, 0.4)")


def test_tangent_frame_names_the_point_of_a_degenerate_gram(torus):
    s = VectorField(torus.chart, ("1", "0", "0"))
    t = VectorField(torus.chart, ("1", "0", "x + 0.5"))
    with pytest.raises(DegenerateDistributionError) as err:
        tangent_frame(torus.metric, torus.distribution("vertical"), _BATCH,
                      frame=(s, t))
    assert str(err.value) == ("distribution degenerates at (-0.5, 0.2, 0.4): "
                              "frame Gram degenerate")


def test_each_defining_field_runs_once_per_block(reeb, monkeypatch):
    """A span's S and T give both the covector S x T and the frame, so a
    span classify runs each field's tape once per block; tangent_frame runs
    the form's tape and each explicit frame field's tape once."""
    runs = []
    run = geometry.expr.Tape.run
    monkeypatch.setattr(geometry.expr.Tape, "run",
                        lambda tape, points: runs.append(tape) or run(tape, points))
    monkeypatch.setattr(geometry, "BLOCK_POINTS", 16)
    s, t = reeb.frame("paper")
    classify(reeb.metric, Distribution.span(s, t), grid=(40, 4, 4))   # 40 values of r
    blocks = runs.count(reeb.metric._tape)
    assert blocks > 1 and runs.count(s._tape) == runs.count(t._tape) == blocks
    assert len(runs) == 3 * blocks

    runs.clear()
    dist = reeb.distribution()
    tangent_frame(reeb.metric, dist, reeb.chart.random_points(5, seed=2), frame=(s, t))
    assert sorted(map(id, runs)) == sorted(map(id, (reeb.metric._tape, dist.alpha._tape,
                                                    s._tape, t._tape)))


@pytest.mark.parametrize("api", _POINT_APIS + [tangent_frame, distribution_frames],
                         ids=lambda f: f.__name__)
def test_point_api_on_a_zero_point_batch(api, reeb, torus):
    """An empty batch gives empty arrays of the batch's shapes, for a kernel
    whose points may pick any plane, a span and an explicit frame."""
    shapes = {normal_field: [(0, 3)], second_fundamental_form: [(0, 2, 2)],
              tangent_frame: [(0, 3), (0, 3)], distribution_frames: [(0, 2, 3), (0, 2, 3, 3), (0,)]}
    cases = [(torus.metric, Distribution.kernel(random_periodic_form(5)), {}),
             (reeb.metric, Distribution.span(*reeb.frame("paper")), {}),
             (reeb.metric, reeb.distribution(), {"frame": reeb.frame("paper")})]
    for metric, dist, frame in cases:
        if api is normal_field and frame:
            continue
        if api is distribution_frames:
            fd = api(dist, np.empty((3, 0)), **frame)
            got = [fd.val, fd.jac, fd.ok]
        else:
            got = api(metric, dist, np.empty((3, 0)), **frame)
            got = list(got) if isinstance(got, tuple) else [got]
        assert [x.shape for x in got] == shapes.get(api, [(0,)])


def test_error_messages_print_plain_floats():
    p = np.array([0.5, 0.1, 0.3])
    errors = [NotSPDError(p, np.int64(1), np.float64(-2.0)),
              DegenerateDistributionError(p, "detail"),
              NotTransverseError(p, np.float64(0.25)),
              NonSPDPathError(np.float64(0.75), p, 3)]
    for err in errors:
        assert "(0.5, 0.1, 0.3)" in str(err) and "np." not in str(err)
        assert all(type(x) is float for x in err.point)
    assert "leading minor 2 = -2.0" in str(errors[0])
    assert "angle 0.25 rad" in str(errors[2])
    assert "t=0.75," in str(errors[3])


def test_normal_of_horizontal_foliation(torus):
    n = normal_field(torus.metric, torus.distribution("vertical"),
                     np.array([0.2, 0.8, 0.1]))
    assert np.allclose(n, [0, 0, 1])


def test_normal_matches_interpolating_transversal(reeb):
    from planefield.expr import smoothstep
    p = np.array([0.5, 1.0, 2.0])
    f = smoothstep(1 / 3, 2 / 3, p[0])
    expected = np.array([f, 0.0, 1 - f]) / np.sqrt(2 * f * f - 2 * f + 1)
    n = normal_field(reeb.metric, reeb.distribution(), p)
    assert np.allclose(n, expected, atol=1e-14)


def test_normal_invariant_under_form_scaling(torus):
    chart = torus.chart
    alpha = OneForm(chart, ("0.2*pi*cos(2*pi*x)", "-0.14*pi*sin(2*pi*y)", "1"))
    scaled = OneForm(chart, tuple(Num(5.0) * c for c in alpha.components))
    p = np.array([0.3, 0.6, 0.2])
    n1 = normal_field(torus.metric, Distribution.kernel(alpha), p)
    n2 = normal_field(torus.metric, Distribution.kernel(scaled), p)
    assert np.allclose(n1, n2, atol=1e-15)


def test_co_orientation_flips_normal(torus):
    dist = torus.distribution("vertical")
    p = np.array([0.1, 0.2, 0.3])
    n_plus = normal_field(torus.metric, dist, p)
    n_minus = normal_field(torus.metric, dist.flipped(), p)
    assert np.array_equal(n_plus, -n_minus)


# ---------------------------------------------------------------------------
# second fundamental form, H, K_e


def test_product_leaves_are_totally_geodesic(torus):
    b = second_fundamental_form(torus.metric, torus.distribution("vertical"),
                                np.array([0.7, 0.1, 0.4]))
    assert np.all(b == 0)


def test_cylinder_second_fundamental_form(polar_chart, polar_metric):
    dist = Distribution.kernel(OneForm(polar_chart, ("1", "0", "0")))
    p = np.array([0.7, 0.3, 0.2])
    b = second_fundamental_form(polar_metric, dist, p)
    assert np.allclose(b, [[-0.7, 0.0], [0.0, 0.0]], atol=1e-14)
    assert mean_curvature(polar_metric, dist, p) == pytest.approx(-1 / 0.7)
    assert extrinsic_curvature(polar_metric, dist, p) == pytest.approx(0.0)


def test_sphere_extrinsic_curvature_is_inverse_square_radius():
    model = sphere_model()
    for rho in (0.6, 1.0, 1.4):
        p = np.array([rho, 1.1, 0.3])
        assert extrinsic_curvature(model.metric, model.distribution(), p) \
            == pytest.approx(1.0 / rho ** 2, rel=1e-12)


def _weingarten_fd_b(metric, dist, p, h=1e-6):
    """Independent route: B(E_a, E_b) = -<nabla_{E_a} n, E_b>, with the
    derivative of the unit normal taken by central differences."""
    p = p.reshape(3, 1)
    mj = metric.eval(p)
    fd = distribution_frames(dist, p)
    nval, _ = normal_arrays(mj, dist, p)
    gamma = christoffel(metric, p)

    dn = np.zeros((3, 3))   # dn[i, k] = d_i n^k
    for i in range(3):
        shift = np.zeros((3, 1))
        shift[i, 0] = h
        n_plus, _ = normal_arrays(metric.eval(p + shift), dist, p + shift)
        n_minus, _ = normal_arrays(metric.eval(p - shift), dist, p - shift)
        dn[i] = (n_plus[0] - n_minus[0]) / (2 * h)

    e = fd.val[0]           # (2, 3)
    b = np.zeros((2, 2))
    for a in range(2):
        nabla_a_n = e[a] @ dn + np.einsum("kij,i,j->k", gamma[0], e[a], nval[0])
        for c in range(2):
            b[a, c] = -float(mj.val[0] @ e[c] @ nabla_a_n)
    return 0.5 * (b + b.T)


@pytest.mark.parametrize("builder,point", [
    (sphere_model, np.array([1.2, 1.0, 0.5])),
    (polar_cylinder_model, np.array([0.8, 0.4, 0.3])),
])
def test_b_matches_finite_difference_weingarten(builder, point):
    model = builder()
    dist = model.distribution()
    b = second_fundamental_form(model.metric, dist, point)
    b_fd = _weingarten_fd_b(model.metric, dist, point)
    assert np.max(np.abs(b - b_fd)) < 1e-6


def test_b_weingarten_on_generic_periodic_plane_field(torus):
    alpha = random_periodic_form(5)
    dist = Distribution.kernel(alpha)
    p = np.array([0.37, 0.81, 0.24])
    b = second_fundamental_form(torus.metric, dist, p)
    b_fd = _weingarten_fd_b(torus.metric, dist, p)
    assert np.max(np.abs(b - b_fd)) < 1e-6


# ---------------------------------------------------------------------------
# integrability and contact residuals


def test_foliation_brackets_stay_tangent(torus):
    res = frobenius_residual(torus.metric, torus.distribution("vertical"),
                             np.array([0.2, 0.5, 0.8]))
    assert res == 0.0


def test_graph_plane_field_residual_near_origin(contact_box):
    chart = contact_box.chart
    dist = Distribution.kernel(OneForm(chart, ("-y", "0", "1")))
    for y in (0.0, 0.3, -0.4):
        p = np.array([0.1, y, 0.2])
        res = frobenius_residual(contact_box.metric, dist, p)
        assert res == pytest.approx(-1.0 / (1 + y * y), rel=1e-12)
        assert abs(res) >= 0.5


def test_contact_volume_standard_form(contact_box):
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, size=(3, 50))
    cv = contact_volume(contact_box.form("standard-contact"), pts)
    assert np.max(np.abs(cv - 2.0)) < 1e-12


def test_contact_volume_of_closed_form_vanishes(torus):
    cv = contact_volume(torus.form("vertical"), np.array([0.1, 0.2, 0.3]))
    assert cv == 0.0


def test_contact_volume_winding_form():
    model = two_pi_torus_model()
    rng = np.random.default_rng(6)
    pts = rng.uniform(0, 2 * np.pi, size=(3, 50))
    cv = contact_volume(model.form("winding-contact"), pts)
    assert np.max(np.abs(cv - (-1.0))) < 1e-12


# ---------------------------------------------------------------------------
# classification


def test_cylinder_foliation_classifies_parabolic(polar_metric):
    dist = Distribution.kernel(OneForm(polar_metric.chart, ("1", "0", "0")))
    rep = classify(polar_metric, dist, grid=(24, 8, 8))
    assert rep.classification == "parabolic"
    assert rep.n_valid == rep.n_points


def test_sphere_foliation_classifies_elliptic():
    model = sphere_model()
    rep = classify(model.metric, model.distribution(), grid=(10, 10, 10))
    assert rep.classification == "elliptic"
    assert rep.aggregates["k_e"]["min"] >= 1.0 / 1.5 ** 2 - 1e-9


def test_classification_consistent_with_aggregates():
    model = sphere_model()
    rep = classify(model.metric, model.distribution(), grid=(8, 8, 8))
    ke = rep.aggregates["k_e"]
    assert ke["min"] >= rep.tol            # elliptic per the stored minimum
    assert ke["min"] <= ke["mean"] <= ke["max"]


def test_classify_rejects_nonpositive_tolerance(torus):
    with pytest.raises(ConfigError):
        classify(torus.metric, torus.distribution("vertical"), tol=-1.0)


def _not_spd_for_r_below_one(g_zz: str = "1") -> tuple:
    chart = Chart(("r", "y", "z"), ((0.1, 2.0), (0, 1), (0, 1)),
                  (False, True, True))
    g = MetricField.from_strings(chart, ("r - 1", "0", "0", "1", "0", g_zz))
    return g, Distribution.kernel(OneForm(chart, ("0", "0", "1")))


_BOX3 = Chart(("x", "y", "z"), ((-1.0, 1.0),) * 3, (False,) * 3)
_EUCLID = MetricField.from_strings(_BOX3, ("1", "0", "0", "1", "0", "1"))


@pytest.mark.parametrize("component,message", [
    ("sqrt(x)", "sqrt: argument value -0.75 outside domain at (-0.75, -0.75, -0.75)"),
    # the first failing grid point, not the one with the smallest argument (-1.5)
    ("sqrt(x - y)", "sqrt: argument value -0.5 outside domain at (-0.75, -0.25, -0.75)"),
])
def test_sweep_domain_error_names_the_first_failing_point(component, message):
    dist = Distribution.kernel(OneForm(_BOX3, ("0", "0", component)))
    with pytest.raises(DomainError) as err:
        classify(_EUCLID, dist, grid=(4, 4, 4))
    assert str(err.value) == message


def test_point_api_domain_error_names_its_point():
    dist = Distribution.kernel(OneForm(_BOX3, ("0", "0", "sqrt(x - y)")))
    with pytest.raises(DomainError) as err:
        mean_curvature(_EUCLID, dist, np.array([-0.5, 0.1, 0.2]))
    assert str(err.value) == "sqrt: argument value -0.6 outside domain at (-0.5, 0.1, 0.2)"
    with pytest.raises(DomainError) as err:
        extrinsic_curvature(_EUCLID, dist, _BATCH)
    assert (err.value.point, err.value.value) == ((-0.5, 0.2, 0.4), -0.7)


def test_classify_records_invalid_points_without_aborting():
    g, dist = _not_spd_for_r_below_one()
    rep = classify(g, dist, grid=(8, 4, 4))
    assert rep.errors
    assert rep.n_valid < rep.n_points
    assert all(e["reason"] == "not-spd" for e in rep.errors if e["point"])


def test_worst_points_sorted_by_extrinsic_curvature():
    model = sphere_model()
    rep = classify(model.metric, model.distribution(), grid=(8, 8, 8))
    magnitudes = [abs(w["k_e"]) for w in rep.worst_points]
    assert magnitudes == sorted(magnitudes, reverse=True)
    assert len(rep.worst_points) == 10


# ---------------------------------------------------------------------------
# block sweeps

# 13,225 points: one partial block at the shipped size, 4 blocks of 4,096
# (the last one partial) or 14 of 1,000.
BLOCK_GRID = (23, 23, 25)
SHIPPED_BLOCK = geometry.BLOCK_POINTS


@pytest.fixture()
def swept(monkeypatch):
    """The number of points of each batch that ``classify``, the H integral
    and the CSV hand to the block sweep."""
    sizes = []

    def spy(fn, axes, jobs=1):
        sizes.append(math.prod(len(a) for a in axes))
        return geometry.chunked_eval(fn, axes, jobs)

    monkeypatch.setattr(distributions, "chunked_eval", spy)
    return sizes


def _bodies_across_blocks(monkeypatch, sweep) -> set:
    bodies = set()
    for block in (SHIPPED_BLOCK, 4096, 1000):
        monkeypatch.setattr(geometry, "BLOCK_POINTS", block)
        for jobs in (1, 2, 4):
            bodies.add(json.dumps(sweep(jobs), sort_keys=True))
    return bodies


def _body_and_csv(metric, dist, grid, jobs, path) -> dict:
    """The classify body, and the per-point CSV's bytes and invalid count."""
    n_invalid = write_point_csv(metric, dist, path, grid=grid, jobs=jobs)
    return {"body": classify(metric, dist, grid=grid, jobs=jobs).body(),
            "csv": path.read_bytes().hex(), "n_invalid": n_invalid}


def test_classify_body_independent_of_jobs_and_block_size(reeb, swept, monkeypatch,
                                                          tmp_path):
    """The body and the per-point CSV, byte for byte.  The Reeb fields read
    r alone, so classify sweeps the 23 values of r in one block."""
    def sweep(jobs):
        return _body_and_csv(reeb.metric, reeb.distribution(), BLOCK_GRID, jobs,
                             tmp_path / "points.csv")

    assert len(_bodies_across_blocks(monkeypatch, sweep)) == 1
    assert set(swept) == {math.prod(BLOCK_GRID), 23}


def test_all_axes_classify_body_independent_of_jobs_and_block_size(torus, swept,
                                                                   monkeypatch, tmp_path):
    """As above for a form that reads every axis: both sweeps run on all
    13,225 points, over 4 blocks of 4,096 or 14 of 1,000."""
    dist = Distribution.kernel(random_periodic_form(3))

    def sweep(jobs):
        return _body_and_csv(torus.metric, dist, BLOCK_GRID, jobs, tmp_path / "points.csv")

    assert len(_bodies_across_blocks(monkeypatch, sweep)) == 1
    assert set(swept) == {math.prod(BLOCK_GRID)}


def _mixed_plane_cases(reeb, torus, contact_box):
    """Reeb at 64x16x16, one block of the shipped size whose points pick
    two kernel planes; a random form on the torus over two blocks, the
    first with points on two planes and the second partial; and
    ker(exp(800x) dx + dz) on the contact box at 24x8x8, which picks plane
    2 for x < 0 and plane 0 for x > 0, where its entries overflow.
    Each case ends with whether its frame Gram is non-degenerate at every
    point; the steep form's overflows for x > 0.222."""
    steep = Distribution.kernel(OneForm(contact_box.chart, ("exp(800*x)", "0", "1")))
    return [(reeb.metric, reeb.distribution(), (64, 16, 16), True),
            (torus.metric, Distribution.kernel(random_periodic_form(5)), (32, 32, 24), True),
            (contact_box.metric, steep, (24, 8, 8), False)]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_mixed_plane_blocks_independent_of_block_size(reeb, torus, contact_box, swept,
                                                      monkeypatch, tmp_path):
    """The CSV sweeps every grid point.  The random form reads every axis, so
    its classify does too, over two blocks of the shipped size."""
    assert 64 * 16 * 16 == SHIPPED_BLOCK
    for metric, dist, grid, _ in _mixed_plane_cases(reeb, torus, contact_box):
        pts = metric.chart.sample_grid(grid).points
        planes = np.argmax(np.abs(dist.alpha.eval(pts)[0]), axis=-1)
        assert len(set(planes[:SHIPPED_BLOCK])) > 1

        def sweep(jobs):
            return _body_and_csv(metric, dist, grid, jobs, tmp_path / "points.csv")

        assert len(_bodies_across_blocks(monkeypatch, sweep)) == 1
    assert sorted(set(swept)) == [24, 64, 24 * 8 * 8, 64 * 16 * 16, 32 * 32 * 24]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_frames_of_mixed_plane_batches_match_the_mask_scatter(reeb, torus, contact_box):
    """Where the frame Gram overflows (the steep form's, for x > 0.222),
    tangent_frame names the first such point and is checked on the rest."""
    for metric, dist, grid, gram_valid in _mixed_plane_cases(reeb, torus, contact_box):
        pts = metric.chart.sample_grid(grid).points
        val, jac, ok = _oracle_kernel_frame(*dist.alpha.eval(pts))
        fd = distribution_frames(dist, pts)
        for got, want in ((fd.val, val), (fd.jac, jac)):
            assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
        assert fd.ok.tobytes() == ok.tobytes()
        if gram_valid:
            s, t = tangent_frame(metric, dist, pts)
            assert s.tobytes() == val[:, 0].tobytes() and t.tobytes() == val[:, 1].tobytes()
            continue
        gram_ok = _block_arrays(metric.eval(pts), dist, pts).gram_ok
        assert 0 < np.count_nonzero(gram_ok) < gram_ok.size and np.isinf(val).any()
        with pytest.raises(DegenerateDistributionError, match="frame Gram degenerate") as err:
            tangent_frame(metric, dist, pts)
        assert err.value.point == tuple(pts[:, np.argmax(~gram_ok)])
        s, t = tangent_frame(metric, dist, pts[:, gram_ok])
        assert s.tobytes() == val[gram_ok, 0].tobytes() and t.tobytes() == val[gram_ok, 1].tobytes()


def _lexsort_top(valid, k_e):
    return valid[np.lexsort((valid, -np.abs(k_e[valid])))[:10]]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0, np.nan]),
                                    st.floats(allow_nan=True, allow_infinity=True)),
                          st.booleans()), max_size=80))
@example([(0.0, True)] * 40)                      # Reeb: K_e vanishes everywhere
@example([(-2.0, True), (2.0, False)] * 20)       # all equal, half valid
@example([(1.0, True)] * 3 + [(5.0, False)] * 30)  # fewer than 10 valid points
@example([(np.nan, True)] * 12 + [(1.0, True)] * 3)  # NaN at the cut sorts last
def test_top_points_match_the_full_lexsort(points):
    k_e = np.array([k for k, _ in points], dtype=float)
    valid = np.flatnonzero([ok for _, ok in points]).astype(np.intp)
    assert _top(valid, k_e).tobytes() == _lexsort_top(valid, k_e).tobytes()


def _check_invalid_points_merge(g_zz: str, monkeypatch) -> None:
    g, dist = _not_spd_for_r_below_one(g_zz)
    grid = (24, 24, 24)       # r < 1 on the first 11 slabs: 6,336 points
    bodies = _bodies_across_blocks(monkeypatch, lambda jobs: classify(
        g, dist, grid=grid, jobs=jobs).body())
    assert len(bodies) == 1
    body = json.loads(bodies.pop())
    points = g.chart.sample_grid(grid).points
    assert body["n_valid"] == body["n_points"] - 6336
    assert [e["point"] for e in body["errors"][:32]] == points[:, :32].T.tolist()
    assert body["errors"][32:] == [{"point": None,
                                    "reason": "... 6304 more invalid points"}]
    # K_e vanishes everywhere, so the worst points are the first valid ones
    assert [w["point"] for w in body["worst_points"]] == \
        points[:, 6336:6346].T.tolist()


def test_classify_invalid_points_merge_across_blocks(swept, monkeypatch):
    """The fields read r alone: the sweep runs on the 24 values of r, each
    standing for 576 grid points."""
    _check_invalid_points_merge("1", monkeypatch)
    assert set(swept) == {24}


def test_all_axes_invalid_points_merge_across_blocks(swept, monkeypatch):
    """A g_zz that reads y and z makes the sweep run on all 13,824 points,
    over 4 or 14 blocks.  The leaves z = const stay totally geodesic, since
    no entry of the leaf metric depends on z."""
    _check_invalid_points_merge("1 + 0.5*sin(2*pi*y)*cos(2*pi*z)", monkeypatch)
    assert set(swept) == {24 ** 3}


def test_integral_h_independent_of_jobs_and_block_size(torus, monkeypatch):
    dist = Distribution.kernel(random_periodic_form(4))
    bodies = _bodies_across_blocks(monkeypatch, lambda jobs:
                                   integral_mean_curvature(torus.metric, dist,
                                                           grid=BLOCK_GRID,
                                                           jobs=jobs))
    assert len(bodies) == 1


def test_integrate_scalar_independent_of_jobs_and_block_size(torus, monkeypatch):
    def f(pts):
        return np.sin(2 * np.pi * pts[0]) * np.cos(2 * np.pi * pts[1]) + pts[2]

    bodies = _bodies_across_blocks(monkeypatch, lambda jobs: integrate_scalar(
        torus.metric, f, BLOCK_GRID, jobs=jobs).hex())
    assert len(bodies) == 1


def test_scan_body_independent_of_block_size(reeb, torus, monkeypatch):
    """Per-block minima, maxima and counts merge into one body, also where
    whole blocks have no deformed normal (at s = 1 no point with x >= 0.6
    has one) and where no point has one (both angles pi/2)."""
    dz = OneForm(torus.chart, ("0", "0", "1"))
    step = OneForm(torus.chart, ("0", "0", "-smoothstep(0.4, 0.6, x)"))
    scans = [(reeb.metric, reeb.form(), OneForm(reeb.chart, ("0", "1", "0")), [0.2, -0.5]),
             (_CURVED_TORUS, torus.form("graph-foliation"), torus.form("winding-contact"),
              [0.0, 1.0, -2.0]),
             (torus.metric, dz, step, [0.5, 1.0]),
             (torus.metric, dz, OneForm(torus.chart, ("0", "0", "-1")), [1.0])]
    bodies = []
    for metric, alpha, beta, s_values in scans:
        found = _bodies_across_blocks(monkeypatch, lambda jobs: contact_deformation_scan(
            metric, alpha, beta, s_values, grid=BLOCK_GRID).body())
        assert len(found) == 1
        bodies.append(json.loads(found.pop()))
    x = torus.chart.sample_grid(BLOCK_GRID).points[0]
    partly, nowhere = bodies[2]["rows"][1], bodies[3]["rows"][0]
    assert partly["degenerate_points"] == np.count_nonzero(x >= 0.6) > 0
    assert partly["transversality_angle_max"] == 0.0
    assert nowhere["degenerate_points"] == x.size
    assert nowhere["transversality_angle_min"] == nowhere["transversality_angle_max"] == math.pi / 2


def _worker_error(alpha: tuple, deadline) -> None:
    """g_zz = sin(2 pi x) is negative from x = 1/2 on; the sweep raises the
    same error at jobs 1 and 2, at the first failing grid point."""
    chart = Chart(("x", "y", "z"), ((0, 1),) * 3, (True,) * 3)
    g = MetricField.from_strings(chart, ("1", "0", "0", "1", "0", "sin(2*pi*x)"))
    dist = Distribution.kernel(OneForm(chart, alpha))
    raised = []
    for jobs in (1, 2):
        with deadline(30), pytest.raises(NotSPDError) as err:
            integral_mean_curvature(g, dist, grid=(32, 32, 32), jobs=jobs)
        raised.append((type(err.value), str(err.value), err.value.point))
    assert raised[0] == raised[1]
    assert raised[0][2] == (0.515625, 0.015625, 0.015625)


def test_worker_error_matches_the_serial_sweep(swept, deadline):
    """The fields read x alone: the sweep runs on the 32 values of x in one
    block, whose first failing point has y and z at their first values."""
    _worker_error(("0", "0", "1"), deadline)
    assert set(swept) == {32}


def test_all_axes_worker_error_matches_the_serial_sweep(swept, deadline):
    """A form that reads y and z makes the sweep run on all 32^3 points: the
    first of the 2 blocks passes and the first failing point opens the
    second, which at jobs 2 runs in the child."""
    _worker_error(("0.1*sin(2*pi*y)", "0.1*cos(2*pi*z)", "1"), deadline)
    assert set(swept) == {32 ** 3} and 32 ** 3 == 2 * geometry.BLOCK_POINTS


# Equivalence with the full sweep: the quotient sweep's bodies, byte for
# byte, against a sweep that reads every axis.  (5, 7, 3) has fibres
# shorter than the ten worst points and the 32 first errors; the larger
# grids span several blocks once every axis is swept.
QUOTIENT_GRIDS = ((5, 7, 3), (23, 23, 25), (48, 40, 24))
# kernel of d(z + 0.07 cos(2 pi y)): reads y alone, and K_e vanishes, so the
# worst points are the first ten grid points, which lie on several fibres
_Y_ONLY = ("0", "-0.14*pi*sin(2*pi*y)", "1")
_QUOTIENT_CASES = ["reeb", "reeb-paper-frame", "not-spd-for-r-below-one", "y-only",
                   "spheres", "torus-vertical", "torus-tilted", "torus-graph-foliation",
                   "torus-winding-contact"]


def _quotient_case(name, reeb, torus) -> tuple:
    if name.startswith("reeb"):
        return reeb.metric, reeb.distribution(), reeb.frame("paper") if "frame" in name else None
    if name == "not-spd-for-r-below-one":
        return (*_not_spd_for_r_below_one(), None)
    if name == "spheres":
        model = sphere_model()
        return model.metric, model.distribution(), None
    if name == "y-only":
        return torus.metric, Distribution.kernel(OneForm(torus.chart, _Y_ONLY)), None
    return torus.metric, torus.distribution(name[len("torus-"):]), None


def _full_sweep_equals_the_quotient_sweep(monkeypatch, metric, dist, frame, sweep) -> list:
    """The bodies ``sweep(grid, jobs)`` at every grid and jobs 1 and 2, as
    JSON, after checking that they equal those of the full sweep."""
    assert distributions._read_axes(metric, dist, frame) != {0, 1, 2}

    def bodies():
        return [json.dumps(sweep(grid, jobs), sort_keys=True)
                for grid in QUOTIENT_GRIDS for jobs in (1, 2)]

    quotient = bodies()
    monkeypatch.setattr(distributions, "_read_axes", lambda *args: {0, 1, 2})
    assert bodies() == quotient
    return quotient


@pytest.mark.parametrize("name", _QUOTIENT_CASES)
def test_quotient_classify_equals_the_full_sweep(name, reeb, torus, monkeypatch):
    metric, dist, frame = _quotient_case(name, reeb, torus)
    bodies = _full_sweep_equals_the_quotient_sweep(
        monkeypatch, metric, dist, frame,
        lambda grid, jobs: classify(metric, dist, grid=grid, jobs=jobs, frame=frame).body())
    small = json.loads(bodies[0])
    points = metric.chart.sample_grid(QUOTIENT_GRIDS[0]).points
    if name == "y-only":
        assert [w["point"] for w in small["worst_points"]] == points[:, :10].T.tolist()
    if name == "not-spd-for-r-below-one":
        # the first two values of r, fibres of 21 points each, are invalid
        assert [e["point"] for e in small["errors"][:32]] == points[:, :32].T.tolist()
        assert small["errors"][32:] == [{"point": None, "reason": "... 10 more invalid points"}]


@pytest.mark.parametrize("name", ["y-only"] + [n for n in _QUOTIENT_CASES
                                               if n.startswith("torus")])
def test_quotient_integral_h_equals_the_full_sweep(name, reeb, torus, monkeypatch):
    metric, dist, _ = _quotient_case(name, reeb, torus)
    _full_sweep_equals_the_quotient_sweep(
        monkeypatch, metric, dist, None,
        lambda grid, jobs: integral_mean_curvature(metric, dist, grid=grid, jobs=jobs))


# Grid-aligned blocks with broadcast coordinates against the same blocks
# handed to the kernel as materialised (3, n) point arrays, the flat batches
# sweeps ran on before.  Each block size gets grids that it cuts into slabs
# of planes (level 0), of rows (level 1) and of one row's points (level 2).
_ORACLE_GRIDS = {16: [((5, 7, 3), 1), ((3, 4, 20), 2)],
                 1000: [((23, 23, 25), 0), ((3, 50, 30), 1), ((2, 2, 1500), 2)],
                 SHIPPED_BLOCK: [((23, 23, 25), 0), ((2, 130, 130), 1)]}


@pytest.fixture()
def materialised(monkeypatch):
    """``use(True)`` makes every sweep hand its kernel each block's points
    as one (3, n) array in C order; ``use(False)`` restores the broadcast
    coordinate arrays.  The CSV's coordinate columns do not depend on it."""
    real = geometry.grid_blocks

    def flat_blocks(axes):
        for pts in real(axes):
            yield np.stack([c.ravel() for c in np.broadcast_arrays(*pts)])

    return lambda on: monkeypatch.setattr(geometry, "grid_blocks", flat_blocks if on else real)


def _sweeps(torus, grid, jobs, path) -> dict:
    """The SHA-256 of the classify bodies (a random form under a curved
    metric, and a y-only form), of the check CSV's bytes and invalid count,
    of the H integral and of a scan body."""
    dist = Distribution.kernel(random_periodic_form(2))
    n_invalid = write_point_csv(_CURVED_TORUS, dist, path, grid=grid, jobs=jobs)
    out = {
        "classify": classify(_CURVED_TORUS, dist, grid=grid, jobs=jobs).body(),
        "classify-y": classify(_CURVED_TORUS, Distribution.kernel(OneForm(torus.chart, _Y_ONLY)),
                               grid=grid, jobs=jobs).body(),
        "csv": [n_invalid, path.read_bytes().hex()],
        "integral": integral_mean_curvature(_CURVED_TORUS, dist, grid=grid, jobs=jobs),
        "scan": contact_deformation_scan(_CURVED_TORUS, torus.form("graph-foliation"),
                                         random_periodic_form(1), [0.0, 1.0], grid=grid).body(),
    }
    return {k: hashlib.sha256(json.dumps(v, sort_keys=True).encode()).hexdigest()
            for k, v in out.items()}


@pytest.mark.parametrize("block", sorted(_ORACLE_GRIDS))
def test_broadcast_blocks_equal_the_materialised_blocks(block, torus, materialised, monkeypatch,
                                                        tmp_path):
    monkeypatch.setattr(geometry, "BLOCK_POINTS", block)
    for grid, level in _ORACLE_GRIDS[block]:
        assert geometry._layout(grid)[0] == level
        materialised(True)
        want = _sweeps(torus, grid, 1, tmp_path / "points.csv")
        materialised(False)
        for jobs in (1, 2, 3):
            assert _sweeps(torus, grid, jobs, tmp_path / "points.csv") == want


def _error_of(materialised, sweep) -> tuple:
    """The error a sweep raises at jobs 1 and 2, after checking that it is
    the one the sweep raises on materialised blocks."""
    raised = []
    for flat, jobs in ((True, 1), (False, 1), (False, 2)):
        materialised(flat)
        with pytest.raises(PlanefieldError) as err:
            sweep(jobs)
        raised.append((type(err.value), str(err.value), err.value.point))
    assert raised[0] == raised[1] == raised[2]
    return raised[0]


# On 4^3 the sweep is one block.  On 32^3 it is two; the failing point,
# the first grid point past the x where the one-axis register fails,
# opens the second block, which at jobs 2 runs in the child.
@pytest.mark.parametrize("grid,point", [((4, 4, 4), (0.75, -0.75, -0.75)),
                                        ((32, 32, 32), (0.53125, -0.96875, -0.96875))])
def test_a_domain_error_of_a_one_axis_register_names_a_full_grid_point(grid, point,
                                                                       materialised):
    """sqrt(0.5 - x) is a register of x alone, shaped (k, 1, 1) on a block."""
    form = OneForm(_BOX3, ("sqrt(0.5 - x)", "sin(pi*y)", "2 + cos(pi*z)"))
    kind, text, named = _error_of(materialised, lambda jobs: classify(
        _EUCLID, Distribution.kernel(form), grid=grid, jobs=jobs))
    assert kind is DomainError and named == point
    assert text == f"sqrt: argument value {0.5 - point[0]!r} outside domain at {point}"


@pytest.mark.parametrize("grid,point", [((4, 4, 4), (0.625, 0.125, 0.125)),
                                        ((32, 32, 32), (0.515625, 0.015625, 0.015625))])
def test_integral_not_spd_error_of_a_one_axis_entry_names_a_full_grid_point(grid, point, torus,
                                                                          materialised):
    """g_zz = 0.5 - x reads x alone; the first grid point past x = 0.5 fails
    the third leading minor."""
    g = MetricField.from_strings(torus.chart, ("1", "0", "0", "1", "0", "0.5 - x"))
    dist = Distribution.kernel(OneForm(torus.chart, ("0.1*sin(2*pi*y)", "0.1*cos(2*pi*z)",
                                                     "1 + 0.1*sin(2*pi*x)")))
    kind, _, named = _error_of(materialised, lambda jobs: integral_mean_curvature(
        g, dist, grid=grid, jobs=jobs))
    assert kind is NotSPDError and named == point


@pytest.mark.parametrize("grid,point", [((4, 4, 4), (0.625, 0.125, 0.125)),
                                        ((32, 32, 32), (0.640625, 0.015625, 0.015625))])
def test_integral_degenerate_error_of_a_one_axis_factor_names_a_full_grid_point(grid, point,
                                                                              torus,
                                                                              materialised):
    """Every component carries the factor x - c, a register of x alone, so
    the form vanishes on the plane x = c, a plane of grid points."""
    c = point[0]
    dist = Distribution.kernel(OneForm(torus.chart, (
        "0", f"(x - {c!r})*sin(2*pi*y)", f"(x - {c!r})*(2 + cos(2*pi*z))")))
    kind, text, named = _error_of(materialised, lambda jobs: integral_mean_curvature(
        torus.metric, dist, grid=grid, jobs=jobs))
    assert kind is DegenerateDistributionError and named == point
    assert text == f"distribution degenerates at {point}"


def _classify_peak_below_one_grid_array(metric, dist) -> None:
    grid = (64, 64, 16)
    one_array = math.prod(grid) * 27 * 8     # N x 3 x 3 x 3 float64: 13.5 MB
    tracemalloc.start()
    try:
        classify(metric, dist, grid=grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < one_array


def test_classify_peak_memory_below_one_grid_array(reeb):
    _classify_peak_below_one_grid_array(reeb.metric, reeb.distribution())


def test_all_axes_classify_peak_memory_below_one_grid_array(torus, swept):
    """The random form reads every axis, so the sweep holds all 65,536
    points in 4 blocks."""
    _classify_peak_below_one_grid_array(torus.metric, Distribution.kernel(random_periodic_form(1)))
    assert swept == [64 * 64 * 16]


# ---------------------------------------------------------------------------
# invariance properties


def _curvatures_in_frame(model, dist, pts, frame):
    mj = model.metric.eval(pts)
    fd = distribution_frames(dist, pts, frame)
    nval, _ = normal_arrays(mj, dist, pts)
    return curvature_arrays(mj, fd, nval)


def test_reframing_transforms_b_and_preserves_h_ke():
    model = sphere_model()
    dist = model.distribution()
    frame = (VectorField(model.chart, ("0", "1", "0")),
             VectorField(model.chart, ("0", "0", "1")))
    pts = model.chart.random_points(6, seed=3)
    base = _curvatures_in_frame(model, dist, pts, frame)
    rng = np.random.default_rng(12)
    for _ in range(25):
        a = rng.uniform(-1, 1, size=(2, 2))
        if abs(np.linalg.det(a)) < 0.3:
            continue
        s, t = frame
        sa = VectorField(model.chart, tuple(a[0, 0] * cs + a[1, 0] * ct
                                            for cs, ct in zip(s.components, t.components)))
        ta = VectorField(model.chart, tuple(a[0, 1] * cs + a[1, 1] * ct
                                            for cs, ct in zip(s.components, t.components)))
        new = _curvatures_in_frame(model, dist, pts, (sa, ta))
        assert np.allclose(new["k_e"], base["k_e"], rtol=1e-9)
        assert np.allclose(new["h"], base["h"], rtol=1e-9)
        b_old = np.stack([np.stack([base["b00"], base["b01"]], -1),
                          np.stack([base["b01"], base["b11"]], -1)], -2)
        b_new = np.stack([np.stack([new["b00"], new["b01"]], -1),
                          np.stack([new["b01"], new["b11"]], -1)], -2)
        expected = np.einsum("ca,...cd,db->...ab", a, b_old, a)
        assert np.max(np.abs(b_new - expected)) < 1e-9 * max(
            1.0, float(np.max(np.abs(expected))))


def test_co_orientation_flip_negates_b_and_h_keeps_ke():
    model = sphere_model()
    dist = model.distribution()
    p = np.array([1.1, 1.3, 0.7])
    b = second_fundamental_form(model.metric, dist, p)
    b_flip = second_fundamental_form(model.metric, dist.flipped(), p)
    assert np.allclose(b_flip, -b, atol=1e-12)
    assert mean_curvature(model.metric, dist.flipped(), p) \
        == pytest.approx(-mean_curvature(model.metric, dist, p), rel=1e-12)
    assert extrinsic_curvature(model.metric, dist.flipped(), p) \
        == pytest.approx(extrinsic_curvature(model.metric, dist, p), abs=1e-12)


def test_constant_rescaling_of_the_metric():
    model = sphere_model()
    dist = model.distribution()
    scaled = MetricField(model.chart,
                         tuple(Num(4.0) * e for e in model.metric.entries))
    pts = model.chart.random_points(10, seed=21)
    ke = extrinsic_curvature(model.metric, dist, pts)
    h = mean_curvature(model.metric, dist, pts)
    ke_scaled = extrinsic_curvature(scaled, dist, pts)
    h_scaled = mean_curvature(scaled, dist, pts)
    assert np.allclose(ke_scaled, ke / 4.0, rtol=1e-9)
    assert np.allclose(h_scaled, h / 2.0, rtol=1e-9)


def test_contact_or_integrable_dichotomy_for_shipped_forms():
    for ex in shipped_examples():
        model, dist = ex.build()
        rep = classify(model.metric, dist, grid=(10, 10, 10))
        cv = rep.aggregates["contact_volume"]
        frob = rep.aggregates["frobenius_residual"]
        min_abs_cv = min(abs(cv["min"]), abs(cv["max"]))
        if cv["min"] < 0 < cv["max"]:
            min_abs_cv = 0.0
        is_contact = min_abs_cv > 0.1
        is_integrable = max(abs(frob["min"]), abs(frob["max"])) < 1e-8
        assert is_contact != is_integrable, ex.example_id
        assert is_contact == (ex.kind == "contact"), ex.example_id


# ---------------------------------------------------------------------------
# mean curvature integral


def test_integral_h_of_flat_foliation_vanishes(torus):
    res = integral_mean_curvature(torus.metric,
                                  torus.distribution("vertical"),
                                  grid=(8, 8, 8))
    assert res["integral_h"] == 0.0
    assert res["max_pointwise_defect"] <= 1e-12


def test_integral_h_small_for_generic_periodic_plane_field(torus):
    dist = Distribution.kernel(random_periodic_form(4))
    res = integral_mean_curvature(torus.metric, dist, grid=(32, 32, 32))
    assert abs(res["integral_h"]) <= 1e-8
    assert res["max_pointwise_defect"] <= 1e-9


def test_integral_h_requires_periodic_chart(reeb):
    with pytest.raises(ConfigError):
        integral_mean_curvature(reeb.metric, reeb.distribution(), grid=(4, 4, 4))


# ---------------------------------------------------------------------------
# the component-wise curvature kernel against the einsum formula


def _oracle_inverse(mj):
    eye = np.broadcast_to(np.eye(3), mj.val.shape)
    return np.linalg.inv(np.where(mj.spd[..., None, None], mj.val, eye))


def _einsum_curvature_oracle(mj, fd, nval):
    """B, Gram, H, K_e and the residual from the second-kind Christoffel
    symbols, ``np.linalg.inv`` and einsum: an independent reference for
    ``curvature_arrays``."""
    dg = mj.dval
    c = dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)
    gamma = 0.5 * np.einsum("...kl,...ijl->...kij", _oracle_inverse(mj), c)
    e0, e1 = fd.val[..., 0, :], fd.val[..., 1, :]
    j0, j1 = fd.jac[..., 0, :, :], fd.jac[..., 1, :, :]

    def cov(xv, yv, yj):
        return (np.einsum("...i,...ik->...k", xv, yj)
                + np.einsum("...kij,...i,...j->...k", gamma, xv, yv))

    def gdot(u, v):
        return np.einsum("...ij,...i,...j->...", mj.val, u, v)

    out = {"b00": gdot(cov(e0, e0, j0), nval),
           "b01": 0.5 * (gdot(cov(e0, e1, j1), nval) + gdot(cov(e1, e0, j0), nval)),
           "b11": gdot(cov(e1, e1, j1), nval),
           "gram00": gdot(e0, e0), "gram01": gdot(e0, e1), "gram11": gdot(e1, e1)}
    det_gram = out["gram00"] * out["gram11"] - out["gram01"] ** 2
    bracket = (np.einsum("...i,...ik->...k", e0, j1)
               - np.einsum("...i,...ik->...k", e1, j0))
    b00, b01, b11 = out["b00"], out["b01"], out["b11"]
    with np.errstate(invalid="ignore", divide="ignore"):
        out["h"] = (b00 * out["gram11"] + b11 * out["gram00"]
                    - 2.0 * b01 * out["gram01"]) / det_gram
        out["k_e"] = (b00 * b11 - b01 ** 2) / det_gram
        out["frobenius_residual"] = gdot(bracket, nval) / np.sqrt(det_gram)
    out["b_norm"] = np.sqrt(b00 ** 2 + 2.0 * b01 ** 2 + b11 ** 2)
    out["det_gram"] = det_gram
    out["ok"] = fd.ok & mj.spd & (
        det_gram > 1e-12 * np.maximum(out["gram00"] * out["gram11"], 1e-300))
    return out


_BOX = Chart(("x", "y", "z"), ((-1.0, 1.0),) * 3, (False,) * 3, chart_id="box")
# non-constant off-diagonal entries; not SPD where x is near -1
_WARPED_ENTRIES = ("2 + x", "0.3*sin(y)", "0.2*x*z", "1 + y*y",
                   "0.1*x*z + 0.2*y", "x + 0.5")
_WARPED = MetricField.from_strings(_BOX, _WARPED_ENTRIES)
_WARPED_PLANES = {
    # alpha vanishes on the line y = z = 0
    "kernel": Distribution.kernel(OneForm(_BOX, ("x*z", "y", "z"))),
    # T is parallel to S on the line y = z = 0
    "span": Distribution.span(VectorField(_BOX, ("1", "0.5*z", "0")),
                              VectorField(_BOX, ("0.2*x", "y", "z"))),
}


@pytest.mark.parametrize("kind", sorted(_WARPED_PLANES))
def test_curvature_arrays_match_einsum_oracle(kind):
    dist = _WARPED_PLANES[kind]
    axis = np.array([-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9])
    pts = np.stack([m.ravel() for m in np.meshgrid(axis, axis, axis,
                                                    indexing="ij")])
    mj = _WARPED.eval(pts)
    fd = distribution_frames(dist, pts)
    nval, nok = normal_arrays(mj, dist, pts)
    got = curvature_arrays(mj, fd, nval)
    want = _einsum_curvature_oracle(mj, fd, nval)

    assert np.array_equal(got["ok"], want["ok"])
    ok = got["ok"] & nok
    assert np.any(~mj.spd), "grid should include non-SPD points"
    assert np.any(mj.spd & ~got["ok"]), "grid should include degenerate frames"
    assert np.count_nonzero(ok) > 100
    for key in want:
        if key == "ok":
            continue
        scale = np.max(np.abs(want[key][ok]))
        np.testing.assert_allclose(got[key][ok], want[key][ok], rtol=1e-12,
                                   atol=1e-12 * scale, err_msg=key)

    aval, _ = _oracle_annihilator(dist, pts)
    raised = np.einsum("...kl,...l->...k", _oracle_inverse(mj), aval)
    norm2 = np.einsum("...k,...k->...", aval, raised)
    assert np.array_equal(nok, mj.spd & (norm2 > 0.0))
    with np.errstate(invalid="ignore", divide="ignore"):
        want_n = dist.co_orientation * raised / np.sqrt(norm2)[:, None]
    np.testing.assert_allclose(nval[nok], want_n[nok], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("which", ["reeb", "warped"])
def test_single_point_api_bit_identical_to_block_sweep(which, reeb, tmp_path):
    """A point alone through the single-point API and the same point inside
    one full sweep block give the same bits for H, K_e and B; the block's
    values are read back from its CSV rows, whose ``repr`` fields round-trip
    every float exactly."""
    if which == "reeb":
        metric, dist = reeb.metric, reeb.distribution()
    else:
        chart = Chart(("x", "y", "z"), ((0.0, 1.0),) * 3, (False,) * 3)
        metric = MetricField.from_strings(chart, _WARPED_ENTRIES)
        dist = Distribution.kernel(OneForm(chart, ("x*z + 1", "y", "z")))
    path = tmp_path / "points.csv"
    assert write_point_csv(metric, dist, path,
                           grid=(16, 16, geometry.BLOCK_POINTS // 256)) == 0
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    header = header.split(",")
    assert len(rows) == geometry.BLOCK_POINTS
    for i in range(0, len(rows), 97):
        row = dict(zip(header, map(float, rows[i].split(","))))
        p = np.array([row["p1"], row["p2"], row["p3"]])
        b = second_fundamental_form(metric, dist, p)
        got = [mean_curvature(metric, dist, p), extrinsic_curvature(metric, dist, p),
               b[0, 0], b[0, 1], b[1, 0], b[1, 1]]
        want = [row[k] for k in ("h", "k_e", "b00", "b01", "b01", "b11")]
        assert np.array_equal(np.array(got).view(np.uint64),
                              np.array(want).view(np.uint64)), i


# ---------------------------------------------------------------------------
# the component-first block kernel against the dense kernel it replaced:
# the mask scatter frame, the inverse-based normal, the dense curvature
# assembly, the Levi-Civita einsum and the jet divergence, bit for bit


def _odot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _omatvec(m, v):
    return [_odot(m[i], v) for i in range(3)]


def _ocross(u, v):
    return [u[(l + 1) % 3] * v[(l + 2) % 3] - u[(l + 2) % 3] * v[(l + 1) % 3]
            for l in range(3)]


def _oadjugate(m):
    adj = [[None] * 3 for _ in range(3)]
    for i in range(3):
        i1, i2 = (i + 1) % 3, (i + 2) % 3
        for j in range(3):
            j1, j2 = (j + 1) % 3, (j + 2) % 3
            adj[j][i] = m[i1][j1] * m[i2][j2] - m[i1][j2] * m[i2][j1]
    return adj


def _comp(x, rank):
    return x.transpose([*range(x.ndim - rank, x.ndim), *range(x.ndim - rank)])


def _oracle_annihilator(dist, pts):
    if dist.kind == "kernel":
        return dist.alpha.eval(pts)
    (sval, sjac), (tval, tjac) = (f.eval(pts) for f in dist.span_fields)
    bval = np.stack(_ocross(_comp(sval, 1), _comp(tval, 1)), axis=-1)
    s_i, t_i = _comp(sval[..., None, :], 1), _comp(tval[..., None, :], 1)
    bjac = np.stack([p + q for p, q in zip(_ocross(_comp(sjac, 1), t_i),
                                           _ocross(s_i, _comp(tjac, 1)))], axis=-1)
    return bval, bjac


def _oracle_minors(mj):
    """Adjugate, determinant and SPD mask (leading principal minors) of the
    dense metric values."""
    g = _comp(mj.val, 2)
    adj = _oadjugate(g)
    det = _odot(g[0], [adj[0][0], adj[1][0], adj[2][0]])
    return adj, det, (g[0][0] > 0.0) & (adj[2][2] > 0.0) & (det > 0.0)


def _oracle_inv(mj):
    adj, det, spd = _oracle_minors(mj)
    det = np.where(spd, det, 1.0)
    inv = np.empty(mj.val.shape)
    for i in range(3):
        for j in range(3):
            inv[..., i, j] = adj[i][j] / det
    return np.where(spd[..., None, None], inv, np.eye(3))


def _oracle_christoffel(dg, v):
    p = [_omatvec(dg[i], v) for i in range(3)]
    m = [[None] * 3 for _ in range(3)]
    for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
        m[i][j] = m[j][i] = 0.5 * (p[i][j] + p[j][i] - _odot(dg[:, i, j], v))
    return m


def _oracle_block(metric, dist, pts, frame=None):
    """Every field ``_summarise`` receives, from the dense kernel, as a report
    gives it: exact zeros are +0.0, and at invalid points every field but
    the contact volume is NaN."""
    mj = metric.eval(pts)
    spd = _oracle_minors(mj)[2]
    aval, ajac = _oracle_annihilator(dist, pts)
    if frame is not None or dist.kind == "span":
        (sval, sjac), (tval, tjac) = (f.eval(pts) for f in frame or dist.span_fields)
        val, jac = np.stack([sval, tval], axis=-2), np.stack([sjac, tjac], axis=-3)
        frame_ok = np.ones(pts.shape[1], dtype=bool)
    else:
        val, jac, frame_ok = _oracle_kernel_frame(aval, ajac)
    raised = _omatvec(_comp(_oracle_inv(mj), 2), _comp(aval, 1))
    norm2 = _odot(_comp(aval, 1), raised)
    with np.errstate(invalid="ignore", divide="ignore"):
        nval = dist.co_orientation * np.stack(raised, axis=-1) / np.sqrt(norm2)[..., None]
    g, e, n = _comp(mj.val, 2), _comp(val, 2), _comp(nval, 1)
    de = _comp(np.swapaxes(jac, -2, -1), 3)
    nu = _omatvec(g, n)
    m = _oracle_christoffel(_comp(mj.dval, 3), n)
    w = [[_omatvec(de[b], e[a]) for b in range(2)] for a in range(2)]
    d = [[_odot(w[a][b], nu) for b in range(2)] for a in range(2)]
    me = [_omatvec(m, e[b]) for b in range(2)]
    ge = [_omatvec(g, e[b]) for b in range(2)]
    b00 = d[0][0] + _odot(e[0], me[0])
    b01 = 0.5 * (d[0][1] + d[1][0]) + _odot(e[0], me[1])
    b11 = d[1][1] + _odot(e[1], me[1])
    gram00, gram01, gram11 = _odot(e[0], ge[0]), _odot(e[0], ge[1]), _odot(e[1], ge[1])
    scale = gram00 * gram11
    det_gram = scale - gram01 ** 2
    ok = frame_ok & spd & (det_gram > 1e-12 * np.maximum(scale, 1e-300))
    with np.errstate(invalid="ignore", divide="ignore"):
        h = (b00 * gram11 + b11 * gram00 - 2.0 * b01 * gram01) / det_gram
        k_e = (b00 * b11 - b01 ** 2) / det_gram
        frob = _odot([p - q for p, q in zip(w[0][1], w[1][0])], nu) / np.sqrt(det_gram)
    ok = ok & spd & (norm2 > 0.0)
    fields = {"b00": b00, "b01": b01, "b11": b11, "gram00": gram00,
              "gram01": gram01, "gram11": gram11, "det_gram": det_gram,
              "h": h, "k_e": k_e, "frobenius_residual": frob,
              "b_norm": np.sqrt(b00 ** 2 + 2.0 * b01 ** 2 + b11 ** 2)}
    out = {k: np.where(ok, v + 0.0, np.nan) for k, v in fields.items()}
    cv = 0.5 * np.einsum("ijk,...i,...jk->...", geometry.LEVI, aval,
                         ajac - np.swapaxes(ajac, -2, -1))
    return {**out, "ok": ok, "contact_volume": cv + 0.0}


def _oracle_integrand(metric, dist, pts):
    """Weighted H and the pointwise defect |H + div n| of the integral."""
    mj = metric.eval(pts)
    aval, ajac = _oracle_annihilator(dist, pts)
    a = [Jet1(aval[..., k], [ajac[..., i, k] for i in range(3)]) for k in range(3)]
    g = mj.jets
    adj = _oadjugate(g)
    w = _omatvec(adj, a)
    det = g[0][0] * adj[0][0] + g[0][1] * adj[1][0] + g[0][2] * adj[2][0]
    denom = jet_sqrt(det * _odot(a, w))
    n = [float(dist.co_orientation) * c / denom for c in w]
    xval = np.stack([c.value for c in n], axis=-1)
    xjac = np.stack([np.moveaxis(c.gradient, 0, -1) for c in n], axis=-1)   # [..., i, k]
    dlog = 0.5 * np.einsum("...lm,...ilm->...i", _oracle_inv(mj), mj.dval)
    div = np.einsum("...ii->...", xjac) + np.einsum("...i,...i->...", xval, dlog)
    h = _oracle_block(metric, dist, pts)["h"]
    return h * np.sqrt(_oracle_minors(mj)[1]), np.abs(h + div)


def _kernel_block(metric, dist, pts, frame=None):
    """The block kernel's arrays as a report gives them."""
    arrs, _ = _sweep_arrays(metric, dist, pts, frame)
    return _canonical(arrs, arrs["ok"])


def _assert_same_bits(got: dict, want: dict, where: str):
    for key, value in want.items():
        x = np.broadcast_to(got[key], value.shape)
        assert x.dtype == value.dtype and x.tobytes() == value.tobytes(), (where, key)


_FLAT_BOX = MetricField.from_strings(_BOX, ("1", "0", "0", "1", "0", "1"))
_AXIS = np.array([-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9])
_BOX_POINTS = np.stack([m.ravel() for m in np.meshgrid(_AXIS, _AXIS, _AXIS, indexing="ij")])


def _reeb_slices():
    rs = np.repeat([0.05, 0.2, 0.3, 1 / 3, 0.4, 0.5, 0.6, 2 / 3, 0.8, 1.0], 64)
    angles = np.random.default_rng(8).uniform(0.0, 2 * np.pi, size=(2, rs.size))
    return np.concatenate([rs[None], angles])


def _oracle_cases():
    reeb = reeb_solid_torus()
    torus = flat_torus_model()
    pts = torus.chart.sample_grid((16, 16, 16)).points
    cases = {}
    for co in (1, -1):
        dist = Distribution.kernel(reeb.form(), co_orientation=co)
        cases[f"reeb-slices{co:+d}"] = (reeb.metric, dist, _reeb_slices(), None)
        cases[f"reeb-paper{co:+d}"] = (reeb.metric, dist, _reeb_slices(), reeb.frame("paper"))
    for seed in range(6):
        cases[f"torus-form{seed}"] = (torus.metric, Distribution.kernel(
            random_periodic_form(seed)), pts, None)
    for name in torus.forms:
        cases[f"torus-{name}"] = (torus.metric, torus.distribution(name).flipped(), pts, None)
    cases["torus-constant-form"] = (torus.metric, Distribution.kernel(
        OneForm(torus.chart, ("-1", "-2", "-3"))), pts, None)
    cases["box-standard-contact"] = (_FLAT_BOX, box_contact_model().distribution(
        "standard-contact"), _BOX_POINTS, None)
    for kind, dist in _WARPED_PLANES.items():
        kind = "vanishing-form" if kind == "kernel" else kind
        cases[f"box-{kind}"] = (_FLAT_BOX, dist, _BOX_POINTS, None)
        cases[f"warped-{kind}"] = (_WARPED, dist, _BOX_POINTS, None)
    return cases


_ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_block_kernel_bit_identical_to_the_dense_kernel(case):
    metric, dist, pts, frame = _ORACLE_CASES[case]
    want = _oracle_block(metric, dist, pts, frame)
    _assert_same_bits(_kernel_block(metric, dist, pts, frame), want, case)
    for i in range(0, pts.shape[1], 37):      # 1-point batches
        one = _kernel_block(metric, dist, pts[:, i:i + 1], frame)
        _assert_same_bits(one, {k: v[i:i + 1] for k, v in want.items()}, (case, i))


def test_oracle_cases_cover_the_kernel_paths():
    """Kernel forms whose winning coordinate plane changes inside a batch,
    a vanishing form, a metric that is not SPD everywhere and a span frame
    that degenerates."""
    mixed = set()
    for name, (metric, dist, pts, frame) in _ORACLE_CASES.items():
        if dist.kind == "kernel" and frame is None:
            m = np.argmax(np.abs(dist.alpha.eval(pts)[0]), axis=-1)
            if m.min() != m.max():
                mixed.add(name)
    assert {"reeb-slices+1", "torus-form5", "torus-winding-contact",
            "box-vanishing-form", "warped-vanishing-form"} <= mixed
    for name in ("box-vanishing-form", "box-span"):
        metric, dist, pts, frame = _ORACLE_CASES[name]
        assert np.all(metric.eval(pts).spd)
        assert not np.all(_oracle_block(metric, dist, pts, frame)["ok"]), name
    metric, _, pts, _ = _ORACLE_CASES["warped-vanishing-form"]
    assert not np.all(metric.eval(pts).spd)


_CURVED_TORUS = MetricField.from_strings(flat_torus_model().chart, (
    "1.5 + 0.3*sin(2*pi*x)", "0.1*cos(2*pi*y)", "0.05*sin(2*pi*z)",
    "1.2 + 0.2*cos(2*pi*z)", "0.1*sin(2*pi*(x + y))", "1 + 0.25*sin(2*pi*y)"))


@pytest.mark.parametrize("curved", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_integrand_bit_identical_to_the_jet_divergence(seed, curved):
    torus = flat_torus_model()
    metric = _CURVED_TORUS if curved else torus.metric
    dist = Distribution.kernel(random_periodic_form(seed), co_orientation=1 - 2 * (seed % 2))
    pts = torus.chart.quadrature_grid((16, 16, 16)).points
    mj = metric.eval(pts)
    b = _block_arrays(mj, dist, pts)
    got = (b.arrs["h"] * np.sqrt(mj.det()),
           np.abs(b.arrs["h"] + _normal_divergence(mj, b, dist.co_orientation)))
    for x, y in zip(got, _oracle_integrand(metric, dist, pts)):
        assert x.tobytes() == y.tobytes()


def _refuse(*args, **kwargs):
    raise AssertionError("dense array built on a sweep")


def test_sweeps_build_no_dense_metric_or_field_arrays(monkeypatch, reeb, torus):
    """Classify, the mean-curvature integral on a constant metric, the metric
    transfer and the deformation scan run on jetalg entries only: no dense
    metric jets, inverse or field arrays, and classify and the integral
    build no dense kernel frame, also where a block's points pick more than
    one coordinate plane (Reeb at 16^3, random_periodic_form(5))."""
    for name in ("val", "dval"):
        monkeypatch.setattr(geometry.MetricJets, name, property(_refuse))
    monkeypatch.setattr(geometry.MetricJets, "inv", _refuse)
    monkeypatch.setattr(geometry.VectorField, "eval", _refuse)
    monkeypatch.setattr(geometry.expr.Tape, "arrays", _refuse)
    monkeypatch.setattr(distributions, "_dense_frame", _refuse)
    classify(reeb.metric, reeb.distribution(), grid=(16, 16, 16))
    classify(reeb.metric, reeb.distribution(), grid=(8, 8, 8), frame=reeb.frame("paper"))
    classify(torus.metric, Distribution.kernel(random_periodic_form(5)), grid=(8, 8, 8))
    classify(_CURVED_TORUS, torus.distribution("winding-contact"), grid=(8, 8, 8))
    integral_mean_curvature(torus.metric, Distribution.kernel(random_periodic_form(1)),
                            grid=(8, 8, 8))
    transfer_metric(_CURVED_TORUS, torus.distribution("vertical"), torus.distribution("tilted"),
                    grid=(4, 4, 4))
    contact_deformation_scan(reeb.metric, reeb.form(), OneForm(reeb.chart, ("0", "1", "0")),
                             [0.5], grid=(8, 8, 8))


@pytest.mark.parametrize("n", [16, 64, "overflow"])
def test_reeb_classify_body_has_no_negative_zero(reeb, n):
    """K_e vanishes identically on the Reeb foliation and is reported as
    0.0; no aggregate or worst point carries a -0.0.  The same holds for
    ker(exp(800x) dx + dz) on the flat box at 8^3, whose kernel overflows
    (the frame Gram product from x = 0.375 on, |alpha|^2 from x = 0.5 on):
    the three slabs x >= 0.375 are reported invalid and the rest valid."""
    if n == "overflow":
        grid = (8, 8, 8)
        with np.errstate(over="ignore", invalid="ignore"):
            body = classify(_FLAT_BOX, Distribution.kernel(OneForm(_BOX, ("exp(800*x)", "0", "1"))),
                            grid=grid).body()
        points = _BOX.sample_grid(grid).points
        assert body["n_valid"] == 320
        assert body["errors"] == [{"point": p, "reason": "degenerate-frame"}
                                  for p in points[:, 320:352].T.tolist()] + [
            {"point": None, "reason": "... 160 more invalid points"}]
    else:
        body = classify(reeb.metric, reeb.distribution(), grid=(n, n, n)).body()
    assert body["aggregates"]["k_e"] == {"min": 0.0, "max": 0.0, "mean": 0.0}
    assert "-0.0" not in json.dumps(body)


def test_an_overflowing_form_sweeps_without_warnings(tmp_path):
    """ker(exp(800x) dx + dz) on the flat box at 8^3 overflows in the unit
    normal's |alpha|^2 and in the frame Gram entries; classify and check
    --format csv both report its invalid points and raise no
    RuntimeWarning."""
    model = Model(model_id="steep-box", chart=_BOX, metric=_FLAT_BOX,
                  forms={"steep": OneForm(_BOX, ("exp(800*x)", "0", "1"))}, foliation="steep")
    chart, report, csv = (tmp_path / name for name in ("model.json", "rep.json", "points.csv"))
    save_model(model, chart)
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["classify", str(chart), "--grid", "8,8,8", "--output", str(report)]) == 1
        assert main(["check", str(chart), "--grid", "8,8,8", "--format", "csv",
                     "--output", str(csv)]) == 1
    assert json.loads(report.read_text(encoding="utf-8"))["body"]["n_valid"] == 320
    values = np.array([line.split(",") for line in csv.read_text(encoding="utf-8")
                       .splitlines()[1:]], dtype=float)
    assert np.count_nonzero(~np.isnan(values[:, 9])) == 320


def _check_csv(model, tmp_path, grid: str, code: int) -> list:
    """Rows of ``planefield check --format csv`` as lists of fields; the
    command exits with ``code`` (1 when the grid has invalid points)."""
    chart, out = tmp_path / "model.json", tmp_path / "points.csv"
    save_model(model, chart)
    assert main(["check", str(chart), "--grid", grid, "--format", "csv",
                 "--output", str(out)]) == code
    return [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]


def test_check_csv_writes_no_negative_zero(reeb, tmp_path):
    rows = _check_csv(reeb, tmp_path, "16,16,16", 0)
    assert len(rows) == 16 ** 3
    assert "-0.0" not in {f for row in rows for f in row}


def test_check_csv_rows_of_invalid_points_are_nan_but_the_contact_volume(tmp_path):
    """The warped metric is not SPD where x < -0.5: every curvature column
    of those rows, Gram entries included, reads nan, and the contact volume,
    which needs no metric, stays finite on every row."""
    model = Model(model_id="warped-box", chart=_BOX, metric=_WARPED,
                  forms={"vanishing": _WARPED_PLANES["kernel"].alpha}, foliation="vanishing")
    rows = _check_csv(model, tmp_path, "8,8,8", 1)
    values = np.array(rows, dtype=float)
    invalid = np.isnan(values[:, 3:12]).any(axis=1)
    assert np.isnan(values[invalid, 3:12]).all()
    assert np.isfinite(values[:, 12]).all()
    assert np.count_nonzero(invalid) == 8 ** 3 - classify(
        _WARPED, _WARPED_PLANES["kernel"], grid=(8, 8, 8)).n_valid
    assert invalid[values[:, 0] < -0.5].all() and invalid.any() and not invalid.all()
