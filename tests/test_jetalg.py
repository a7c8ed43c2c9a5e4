"""The one 3x3 algebra of ``jetalg``, on batch columns and on jets.

The oracles below are the implementations the shared helpers replaced:
the sign-multiplied jet adjugate with its own cofactor-expansion
determinant, and the Levi-Civita einsum cross product.  The derived
quantities built on the helpers must match them bit for bit."""

import numpy as np
import pytest

from planefield import distributions, geometry, jetalg
from planefield.catalog import flat_torus_model, random_periodic_form
from planefield.expr import Jet1, jet_sqrt
from planefield.geometry import LEVI, MetricField, VectorField


def _oracle_adjugate3(m):
    c = [[None] * 3 for _ in range(3)]
    for a in range(3):
        for b in range(3):
            i1, i2 = [x for x in range(3) if x != a]
            j1, j2 = [x for x in range(3) if x != b]
            minor = m[i1][j1] * m[i2][j2] - m[i1][j2] * m[i2][j1]
            sign = -1.0 if (a + b) % 2 else 1.0
            c[b][a] = minor * sign
    return c


def _oracle_det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _jets_from_components(val, jac):
    """Jet-vector from field evaluation arrays (values, Jacobian)."""
    return [Jet1(val[..., k], [jac[..., i, k] for i in range(3)]) for k in range(3)]


def _oracle_normal_jets(mj, aval, ajac, co_orientation):
    a = _jets_from_components(aval, ajac)
    g = jetalg.jets_from_metric(mj)
    adj = _oracle_adjugate3(g)
    w = [adj[i][0] * a[0] + adj[i][1] * a[1] + adj[i][2] * a[2]
         for i in range(3)]
    denom = jet_sqrt(_oracle_det3(g) * (a[0] * w[0] + a[1] * w[1] + a[2] * w[2]))
    return [float(co_orientation) * c / denom for c in w]


def _cross(s, t):
    """``distributions._cross`` on dense (values, Jacobian) pairs."""
    def entries(v):
        val, jac = v
        return [val[:, k] for k in range(3)], [[jac[:, i, k] for k in range(3)] for i in range(3)]
    a, da = distributions._cross(entries(s), entries(t))
    return jetalg.dense(a, s[0].shape[:1]), jetalg.dense(da, s[0].shape[:1])


def _oracle_cross(s, t):
    (sval, sjac), (tval, tjac) = s, t
    bval = np.einsum("ljk,...j,...k->...l", LEVI, sval, tval)
    bjac = (np.einsum("ljk,...ij,...k->...il", LEVI, sjac, tval)
            + np.einsum("ljk,...j,...ik->...il", LEVI, sval, tjac))
    return bval, bjac


def _curved_metric(chart):
    return MetricField.from_strings(chart, (
        "1.5 + 0.3*sin(2*pi*x)", "0.1*cos(2*pi*y)", "0.05*sin(2*pi*z)",
        "1.2 + 0.2*cos(2*pi*z)", "0.1*sin(2*pi*(x + y))", "1 + 0.25*sin(2*pi*y)"))


def _assert_same_jets(got, want):
    for g, w in zip(got, want):
        assert g.value.tobytes() == w.value.tobytes()
        assert g.gradient.tobytes() == w.gradient.tobytes()


@pytest.mark.parametrize("curved", [False, True])
@pytest.mark.parametrize("co_orientation", [1, -1])
def test_normal_jets_match_the_sign_multiplied_adjugate(curved, co_orientation):
    torus = flat_torus_model()
    metric = _curved_metric(torus.chart) if curved else torus.metric
    pts = torus.chart.random_points(300, seed=3)
    mj = metric.eval(pts)
    for seed in range(3):
        aval, ajac = random_periodic_form(seed).eval(pts)
        a = _jets_from_components(aval, ajac)
        _assert_same_jets(
            distributions._normal_jets(mj, a, co_orientation),
            _oracle_normal_jets(mj, aval, ajac, co_orientation))


def test_cross_matches_the_levi_civita_einsum():
    rng = np.random.default_rng(4)
    s = (rng.normal(size=(500, 3)), rng.normal(size=(500, 3, 3)))
    t = (rng.normal(size=(500, 3)), rng.normal(size=(500, 3, 3)))
    for got, want in zip(_cross(s, t), _oracle_cross(s, t)):
        assert got.tobytes() == want.tobytes()


def test_cross_with_exact_zeros_differs_from_the_einsum_only_in_zero_signs():
    """The einsum adds its terms to a +0.0 start, so it never returns -0.0;
    ``cross`` keeps the IEEE sign of a difference of signed zeros."""
    chart = flat_torus_model().chart
    pts = chart.random_points(300, seed=5)
    s = VectorField(chart, ("1", "0.3*sin(2*pi*z)", "-0.2*cos(2*pi*y)")).eval(pts)
    t = VectorField(chart, ("-0.1*cos(2*pi*x)", "1", "0.4*sin(2*pi*x)")).eval(pts)
    for got, want in zip(_cross(s, t), _oracle_cross(s, t)):
        assert np.array_equal(got, want)
        moved = got.view(np.uint64) != want.view(np.uint64)
        assert np.all(got[moved] == 0.0)


def _random_columns(seed, n=2000, symmetric=False):
    m = np.random.default_rng(seed).normal(size=(3, 3, n))
    return 0.5 * (m + m.transpose(1, 0, 2)) if symmetric else m


@pytest.mark.parametrize("symmetric", [False, True])
def test_adjugate_times_matrix_is_det_times_identity(symmetric):
    m = _random_columns(7, symmetric=symmetric)
    adj = jetalg.adjugate3(m)
    det = jetalg.det3(m, adj)
    want = np.linalg.det(np.moveaxis(m, -1, 0))
    assert np.allclose(det, want, rtol=1e-12, atol=1e-12)
    scale = 1.0 + np.abs(m).max(axis=(0, 1)) ** 3
    for i in range(3):
        for j in range(3):
            delta = det if i == j else 0.0
            left = jetalg.dot3(adj[i], m[:, j])            # (adj m)_ij
            right = jetalg.dot3(m[i], [a[j] for a in adj])  # (m adj)_ij
            assert np.all(np.abs(left - delta) <= 1e-13 * scale)
            assert np.all(np.abs(right - delta) <= 1e-13 * scale)


def test_adjugate_of_symmetric_columns_has_the_symmetric_entry_bits():
    """The cyclic cofactors of a symmetric matrix give, bit for bit, the
    six upper-triangle entries of its adjugate as written by hand."""
    m = _random_columns(8, symmetric=True)
    adj = jetalg.adjugate3(m)
    m00, m01, m02, m11, m12, m22 = m[0, 0], m[0, 1], m[0, 2], m[1, 1], m[1, 2], m[2, 2]
    upper = {(0, 0): m11 * m22 - m12 * m12, (0, 1): m02 * m12 - m01 * m22,
             (0, 2): m01 * m12 - m02 * m11, (1, 1): m00 * m22 - m02 * m02,
             (1, 2): m01 * m02 - m00 * m12, (2, 2): m00 * m11 - m01 * m01}
    for (i, j), want in upper.items():
        assert adj[i][j].tobytes() == want.tobytes()
        assert adj[j][i].tobytes() == want.tobytes()
    det = m00 * upper[0, 0] + m01 * upper[0, 1] + m02 * upper[0, 2]
    assert jetalg.det3(m, adj).tobytes() == det.tobytes()


@pytest.mark.parametrize("symmetric", [False, True])
def test_jet_adjugate_and_det_match_the_oracles(symmetric):
    rng = np.random.default_rng(9)
    val = _random_columns(10, n=400, symmetric=symmetric)
    grad = rng.normal(size=(3, 3, 3, 400))
    if symmetric:
        grad = 0.5 * (grad + grad.transpose(1, 0, 2, 3))
    m = [[Jet1(val[i, j], grad[i, j]) for j in range(3)] for i in range(3)]
    adj = jetalg.adjugate3(m)
    for row, want_row in zip(adj, _oracle_adjugate3(m)):
        assert np.array_equal([c.value for c in row], [c.value for c in want_row])
        assert np.array_equal([c.gradient for c in row], [c.gradient for c in want_row])
    det, want = jetalg.det3(m, adj), _oracle_det3(m)
    assert det.value.tobytes() == want.value.tobytes()
    assert det.gradient.tobytes() == want.gradient.tobytes()


def test_jacobi_formula_on_jets():
    """d(det m) = tr(adj(m) dm) along each chart direction."""
    rng = np.random.default_rng(12)
    val = _random_columns(11, n=500)
    grad = rng.normal(size=(3, 3, 3, 500))         # grad[i, j, l] = d_l m_ij
    m = [[Jet1(val[i, j], grad[i, j]) for j in range(3)] for i in range(3)]
    adj = jetalg.adjugate3(m)
    det = jetalg.det3(m, adj)
    for l in range(3):
        want = sum(adj[i][k].value * grad[k, i, l]
                   for i in range(3) for k in range(3))
        scale = 1.0 + np.abs(val).max(axis=(0, 1)) ** 2 * np.abs(grad[..., l, :]).max(axis=(0, 1))
        assert np.all(np.abs(det.gradient[l] - want) <= 1e-13 * scale)


def test_metric_inverse_reuses_the_adjugate_of_the_minors(monkeypatch):
    calls = []
    real = geometry.adjugate3
    monkeypatch.setattr(geometry, "adjugate3",
                        lambda m: calls.append(1) or real(m))
    torus = flat_torus_model()
    mj = _curved_metric(torus.chart).eval(torus.chart.random_points(50, seed=1))
    assert len(calls) == 1
    inv = mj.inv()
    assert len(calls) == 1
    assert np.allclose(inv @ mj.val, np.eye(3), atol=1e-13)


def test_jets_from_metric_hands_out_the_metric_entry_jets():
    torus = flat_torus_model()
    mj = _curved_metric(torus.chart).eval(torus.chart.random_points(40, seed=4))
    g = jetalg.jets_from_metric(mj)
    for i in range(3):
        for j in range(3):
            assert g[i][j] is g[j][i] is mj.jets[i][j]
            assert np.array_equal(g[i][j].value, mj.val[:, i, j])
            assert np.array_equal(np.moveaxis(g[i][j].gradient, 0, -1), mj.dval[:, :, i, j])


# ---------------------------------------------------------------------------
# the entry rules, against numpy on dense operands

_VALUES = np.array([0.0, -0.0, 1.5, np.inf, -np.inf, np.nan])
_N = _VALUES.size ** 2
# every pair of the values meets once between the two columns
_OPERANDS = [None, 0.0, -0.0, 1.0, 2.5, np.repeat(_VALUES, _VALUES.size),
             np.tile(_VALUES, _VALUES.size)]
_DENSE_OPS = {jetalg.add: np.add, jetalg.sub: np.subtract,
              jetalg.mul: np.multiply, jetalg.div: np.divide}


def _is_zero(x):
    return x is None or not isinstance(x, np.ndarray) and x == 0.0


@pytest.mark.parametrize("op", list(_DENSE_OPS), ids=lambda op: op.__name__)
def test_entry_ops_equal_numpy_on_dense_operands(op):
    """Equal up to the sign of a zero, except for the exact zero a folded
    zero gives: a zero constant or None times a column, or over one."""
    for u in _OPERANDS:
        for v in _OPERANDS:
            with np.errstate(all="ignore"):
                got = jetalg.column(op(u, v), (_N,))
                want = _DENSE_OPS[op](jetalg.column(u, (_N,)), jetalg.column(v, (_N,)))
            folded = ((op is jetalg.mul and (_is_zero(u) and isinstance(v, np.ndarray)
                                             or _is_zero(v) and isinstance(u, np.ndarray)))
                      or op is jetalg.div and _is_zero(u) and isinstance(v, np.ndarray))
            if folded:
                assert np.all(got == 0.0), (u, v)
                assert np.array_equal(got[np.isfinite(want)], want[np.isfinite(want)])
            else:
                assert np.array_equal(got, want, equal_nan=True), (u, v)


def test_neg_equals_numpy_on_dense_operands():
    for u in _OPERANDS:
        assert np.array_equal(jetalg.column(jetalg.neg(u), (_N,)),
                              -jetalg.column(u, (_N,)), equal_nan=True)


def test_structural_and_constant_zeros_cost_no_array_work():
    col = _OPERANDS[-1]
    assert jetalg.mul(None, col) is None and jetalg.mul(col, None) is None
    assert jetalg.neg(None) is None
    for zero in (None, 0.0, -0.0):
        assert jetalg.add(col, zero) is col and jetalg.add(zero, col) is col
        assert jetalg.sub(col, zero) is col
    folded = [jetalg.mul(0.0, col), jetalg.mul(col, -0.0)]
    folded += [jetalg.div(zero, col) for zero in (None, 0.0, -0.0)]
    for x in folded:
        assert type(x) is float and x == 0.0
