import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planefield import expr
from planefield.errors import ArityError, DomainError, ParseError, UnknownIdentifierError
from planefield.geometry import Chart
from planefield.expr import (BinOp, Call, Coord, Const, Neg, Num, eval_jet,
                             parse, smoothstep, smoothstep_deriv, substitute,
                             to_string)

COORDS = ("r", "phi", "t")


# ---------------------------------------------------------------------------
# parsing


def test_parse_power_of_coordinate():
    node = parse("r^2", COORDS)
    assert isinstance(node, BinOp) and node.op == "^"
    assert node.left == Coord("r", 0)
    assert node.right == Num(2.0)


def test_parse_incomplete_call_reports_position():
    with pytest.raises(ParseError) as err:
        parse("sin(", COORDS)
    assert err.value.position == 4
    assert err.value.expected


def test_parse_smoothstep_call_has_three_children():
    node = parse("smoothstep(1/3, 2/3, r)", COORDS)
    assert isinstance(node, Call) and node.func == "smoothstep"
    assert len(node.args) == 3


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse("r + q", COORDS)
    with pytest.raises(UnknownIdentifierError):
        parse("foo(r)", COORDS)


def test_arity_error():
    with pytest.raises(ArityError):
        parse("sin(r, t)", COORDS)
    with pytest.raises(ArityError):
        parse("smoothstep(r)", COORDS)


def test_empty_expression():
    with pytest.raises(ParseError):
        parse("   ", COORDS)


def test_trailing_garbage():
    with pytest.raises(ParseError):
        parse("r r", COORDS)


def test_unary_minus_binds_looser_than_power():
    node = parse("-r^2", COORDS)
    assert isinstance(node, Neg)
    assert isinstance(node.arg, BinOp) and node.arg.op == "^"


def test_power_accepts_negative_exponent():
    assert expr.evaluate(parse("2^-3", COORDS), np.zeros(3)) == 0.125


def test_power_right_associative():
    v = expr.evaluate(parse("2^3^2", COORDS), np.zeros(3))
    assert v == 2.0 ** 9


def test_pi_constant():
    assert expr.evaluate(parse("pi", COORDS), np.zeros(3)) == math.pi


def test_coordinate_validation():
    with pytest.raises(ValueError):
        parse("r", ("r", "r", "t"))
    with pytest.raises(ValueError):
        parse("r", ("pi", "phi", "t"))
    with pytest.raises(ValueError):
        parse("r", ("sin", "phi", "t"))


# ---------------------------------------------------------------------------
# evaluation


def test_eval_square():
    jet = eval_jet(parse("r^2", COORDS), np.array([2.0, 0.0, 0.0]))
    assert jet.value == 4.0
    assert np.allclose(jet.gradient, [4.0, 0.0, 0.0])


def test_eval_sine():
    jet = eval_jet(parse("sin(phi)", COORDS), np.zeros(3))
    assert jet.value == 0.0
    assert np.allclose(jet.gradient, [0.0, 1.0, 0.0])


def test_eval_smoothstep_jet_against_finite_difference():
    node = parse("smoothstep(1/3, 2/3, r)", COORDS)
    p = np.array([0.5, 0.0, 0.0])
    jet = eval_jet(node, p)
    assert jet.value == pytest.approx(0.5, abs=1e-12)
    assert jet.gradient[0] > 0
    h = 1e-6
    fd = (expr.evaluate(node, p + [h, 0, 0])
          - expr.evaluate(node, p - [h, 0, 0])) / (2 * h)
    assert jet.gradient[0] == pytest.approx(fd, abs=1e-8)


def test_eval_batched_matches_single_points():
    node = parse("sin(r)*exp(0.3*t) + r/(2 + phi^2)", COORDS)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 1.0, size=(3, 17))
    batch = eval_jet(node, pts)
    for i in range(pts.shape[1]):
        single = eval_jet(node, pts[:, i])
        assert batch.value[i] == single.value
        assert np.array_equal(batch.gradient[:, i], single.gradient)


def test_division_by_zero():
    with pytest.raises(DomainError):
        expr.evaluate(parse("1/r", COORDS), np.zeros(3))


def test_sqrt_of_negative():
    with pytest.raises(DomainError):
        expr.evaluate(parse("sqrt(r)", COORDS), np.array([-1.0, 0, 0]))


def test_fractional_power_of_negative_base():
    with pytest.raises(DomainError):
        expr.evaluate(parse("r^0.5", COORDS), np.array([-2.0, 0, 0]))


def test_integer_power_of_negative_base():
    assert expr.evaluate(parse("r^3", COORDS), np.array([-2.0, 0, 0])) == -8.0


def test_point_must_be_finite():
    with pytest.raises(DomainError):
        expr.evaluate(parse("r", COORDS), np.array([np.inf, 0, 0]))


# ---------------------------------------------------------------------------
# smoothstep


def test_smoothstep_clamps():
    assert smoothstep(1 / 3, 2 / 3, 0.2) == 0.0
    assert smoothstep(1 / 3, 2 / 3, 0.9) == 1.0


def test_smoothstep_midpoint_symmetry():
    assert smoothstep(1 / 3, 2 / 3, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_smoothstep_requires_ordered_interval():
    with pytest.raises(DomainError):
        smoothstep(0.7, 0.3, 0.5)
    with pytest.raises(DomainError):
        expr.evaluate(parse("smoothstep(1, 1, r)", COORDS), np.zeros(3))


def test_smoothstep_strictly_increasing_inside():
    # away from the extreme tails, where the values round to exactly 0 or 1
    xs = np.linspace(0.03, 0.97, 100)
    vals = smoothstep(0.0, 1.0, xs)
    assert np.all(np.diff(vals) > 0)


@pytest.mark.parametrize("edge", [1 / 3, 2 / 3])
def test_smoothstep_continuous_across_edges(edge):
    node = parse("smoothstep(1/3, 2/3, r)", COORDS)
    eps = 1e-9
    left = eval_jet(node, np.array([edge - eps, 0, 0]))
    right = eval_jet(node, np.array([edge + eps, 0, 0]))
    assert abs(left.value - right.value) < 1e-12
    assert np.all(np.abs(left.gradient - right.gradient) < 1e-12)


def test_smoothstep_derivative_matches_finite_difference():
    xs = np.linspace(0.05, 0.95, 41)
    h = 1e-6
    fd = (smoothstep(0.0, 1.0, xs + h) - smoothstep(0.0, 1.0, xs - h)) / (2 * h)
    assert np.allclose(smoothstep_deriv(0.0, 1.0, xs), fd, atol=1e-7)


# The step as it was computed before the exp passes were fused: each bump
# and bump derivative with its own masked exp.  Kept as the oracle of the
# fused ``expr._transition``, which must give the same bits.


def _old_bump(u):
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape)
    pos = u > 0.0
    out[pos] = np.exp(-1.0 / u[pos])
    return out


def _old_bump_d1(u):
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape)
    pos = u > 0.0
    up = u[pos]
    out[pos] = np.exp(-1.0 / up) / (up * up)
    return out


def _old_bump_d2(u):
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape)
    pos = u > 0.0
    up = u[pos]
    out[pos] = np.exp(-1.0 / up) * (1.0 - 2.0 * up) / up ** 4
    return out


def _old_transition(w):
    n = _old_bump(w)
    return n / (n + _old_bump(1.0 - w))


def _old_transition_d1(w):
    n, m = _old_bump(w), _old_bump(1.0 - w)
    d = n + m
    return (_old_bump_d1(w) * m + n * _old_bump_d1(1.0 - w)) / (d * d)


def _old_transition_d2(w):
    n, m = _old_bump(w), _old_bump(1.0 - w)
    n1, m1 = _old_bump_d1(w), _old_bump_d1(1.0 - w)
    d = n + m
    a = n1 * m + n * m1
    a1 = _old_bump_d2(w) * m - n * _old_bump_d2(1.0 - w)
    d1 = n1 - m1
    return (a1 * d - 2.0 * a * d1) / d ** 3


# both ends, the smallest steps inside and outside them, and the tails
# where a bump or its fourth-power denominator underflows
_EDGE_W = [0.0, 1.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-100, 1e-3, 0.5,
           np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 1.0 - 1e-3,
           -1.0, 2.0, 1e300, -1e300]


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_fused_transition_matches_separate_exp_passes_bit_for_bit():
    ws = np.concatenate([np.random.default_rng(11).uniform(-0.5, 1.5, 4000),
                         _EDGE_W])
    with np.errstate(all="ignore"):
        want = [f(ws) for f in (_old_transition, _old_transition_d1,
                                _old_transition_d2)]
        for order in (0, 1, 2):
            got = expr._transition(ws, order)
            assert len(got) == order + 1
            assert all(_same_bits(g, w) for g, w in zip(got, want))
        for w in _EDGE_W:      # 0-d arrays, as constant folding passes them
            got = expr._transition(np.asarray(w), 2)
            assert all(_same_bits(g, f(np.asarray(w))) for g, f in zip(
                got, (_old_transition, _old_transition_d1, _old_transition_d2)))
        assert _same_bits(smoothstep(0.0, 1.0, ws), want[0])
        assert _same_bits(smoothstep_deriv(0.0, 1.0, ws), want[1])


def test_fused_step_jets_match_oracle_on_edge_arguments():
    """Values and partials of both steps through the tape, with w = r on
    the edge values and w = r*phi + t off them."""
    rng = np.random.default_rng(12)
    n = len(_EDGE_W) + 200
    pts = rng.uniform(-0.5, 1.5, size=(3, n))
    pts[0, :len(_EDGE_W)] = _EDGE_W
    nodes = [parse(f"{f}(0, 1, {arg})", COORDS)
             for f in ("smoothstep", "dsmoothstep") for arg in ("r", "r*phi + t")]
    _assert_tape_matches_oracle(nodes, pts)


# ---------------------------------------------------------------------------
# randomized jet/finite-difference agreement (1000 expressions)


def _random_expression(rng: random.Random, depth: int):
    if depth == 0:
        if rng.random() < 0.5:
            return Num(rng.uniform(0.5, 2.0))
        return Coord(COORDS[rng.randrange(3)], rng.randrange(3))
    pick = rng.random()
    sub = lambda: _random_expression(rng, depth - 1)  # noqa: E731
    if pick < 0.18:
        return sub() + sub()
    if pick < 0.30:
        return sub() - sub()
    if pick < 0.45:
        return Num(0.3) * sub() * sub()
    if pick < 0.55:
        return sub() / (Num(2.2) + Call("sin", (sub(),)))
    if pick < 0.65:
        return Call(rng.choice(["sin", "cos"]), (sub(),))
    if pick < 0.72:
        return Call("exp", (Num(1.5) * Call("sin", (sub(),)),))
    if pick < 0.79:
        return Call("sqrt", (Num(2.5) + Call("sin", (sub(),)),))
    if pick < 0.86:
        base = Num(1.5) + Call("cos", (sub(),))
        return base ** Num(float(rng.choice([2, 3, -1])))
    if pick < 0.93:
        return Call("smoothstep", (Num(-1.5), Num(1.5), sub()))
    return Call("dsmoothstep", (Num(-1.5), Num(1.5), sub()))


def test_thousand_random_jets_match_central_differences():
    rng = random.Random(20240817)
    h = 1e-6
    shifts = h * np.eye(3)
    for _ in range(1000):
        node = _random_expression(rng, rng.randint(1, 4))
        p = np.array([rng.uniform(-1.8, 1.8) for _ in range(3)])
        jet = eval_jet(node, p)
        for axis in range(3):
            fd = (expr.evaluate(node, p + shifts[axis])
                  - expr.evaluate(node, p - shifts[axis])) / (2 * h)
            tol = 1e-6 * max(1.0, abs(jet.gradient[axis]), abs(fd))
            assert abs(jet.gradient[axis] - fd) <= tol, to_string(node)


# ---------------------------------------------------------------------------
# printing round-trip


_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False,
              allow_infinity=False).map(Num),
    st.sampled_from([Coord(n, i) for i, n in enumerate(COORDS)] + [Const("pi")]),
)


def _compound(children):
    # build through the same smart constructors parsing uses, so literal
    # subtrees fold exactly as they would coming out of the parser
    binop = st.tuples(st.sampled_from("+-*/^"), children, children).map(
        lambda t: expr._binop(t[0], t[1], t[2]))
    neg = children.map(lambda n: -n)
    unary = st.tuples(st.sampled_from(["sin", "cos", "exp", "sqrt"]),
                      children).map(lambda t: Call(t[0], (t[1],)))
    step = st.tuples(st.sampled_from(["smoothstep", "dsmoothstep"]),
                     children, children, children).map(
        lambda t: Call(t[0], (t[1], t[2], t[3])))
    return st.one_of(binop, neg, unary, step)


_ast = st.recursive(_leaf, _compound, max_leaves=25)


@settings(max_examples=300, derandomize=True)
@given(_ast)
def test_printed_normal_form_is_a_fixed_point(node):
    text = to_string(node)
    reparsed = parse(text, COORDS)
    assert to_string(reparsed) == text
    assert to_string(parse(to_string(reparsed), COORDS)) == text


@pytest.mark.parametrize("source", [
    "-r^2", "2^-3", "r - -3", "r*phi/t", "(r + phi)*t", "r^phi^t",
    "smoothstep(1/3, 2/3, r)*(1 - smoothstep(1/3, 2/3, r))",
    "-(r + t)^2", "1.5e-3*r", "r/(2.2 + sin(phi))",
])
def test_parse_print_parse_round_trip(source):
    node = parse(source, COORDS)
    text = to_string(node)
    assert parse(text, COORDS) == node
    assert to_string(parse(text, COORDS)) == text


# ---------------------------------------------------------------------------
# substitution


def test_substitute_coordinate_by_expression():
    node = parse("sin(phi) + r", COORDS)
    shifted = substitute(node, {"phi": parse("phi + 2*t", COORDS)})
    p = np.array([0.3, 0.4, 0.2])
    expected = math.sin(0.4 + 2 * 0.2) + 0.3
    assert expr.evaluate(shifted, p) == pytest.approx(expected, rel=1e-15)


def test_substitute_keeps_other_coordinates():
    node = parse("r + t", COORDS)
    assert substitute(node, {"phi": Num(0.0)}) == node


# ---------------------------------------------------------------------------
# the jet tape against the recursive evaluator it replaced
#
# The oracle is the old evaluator: every node gets a dense (3, N) gradient,
# constants are full arrays, and shared subtrees are evaluated again.


class _DenseJet:
    def __init__(self, value, gradient):
        self.value = np.asarray(value, dtype=float)
        self.gradient = np.asarray(gradient, dtype=float)

    @classmethod
    def constant(cls, value, shape):
        return cls(np.full(shape, float(value)), np.zeros((3,) + shape))

    def __add__(self, o):
        return _DenseJet(self.value + o.value, self.gradient + o.gradient)

    def __sub__(self, o):
        return _DenseJet(self.value - o.value, self.gradient - o.gradient)

    def __mul__(self, o):
        return _DenseJet(self.value * o.value,
                         self.gradient * o.value + self.value * o.gradient)

    def __truediv__(self, o):
        if np.any(o.value == 0.0):
            raise DomainError("divide", 0.0)
        inv = 1.0 / o.value
        return _DenseJet(self.value * inv,
                         (self.gradient - self.value * inv * o.gradient) * inv)


def _oracle_unary(j, f, fd):
    return _DenseJet(f(j.value), fd(j.value) * j.gradient)


def _oracle_sqrt(j):
    if np.any(j.value < 0.0):
        raise DomainError("sqrt", 0.0)
    root = np.sqrt(j.value)
    with np.errstate(divide="ignore"):
        d = np.where(root > 0.0, 0.5 / np.where(root > 0.0, root, 1.0), np.inf)
    return _DenseJet(root, np.where(j.gradient == 0.0, 0.0, d * j.gradient))


def _oracle_pow_number(base, e, shape):
    if float(e).is_integer():
        n = int(e)
        if n == 0:
            return _DenseJet.constant(1.0, shape)
        if n < 0 and np.any(base.value == 0.0):
            raise DomainError("power", 0.0)
        return _DenseJet(base.value ** n, n * base.value ** (n - 1) * base.gradient)
    if np.any(base.value <= 0.0):
        raise DomainError("power", 0.0)
    val = base.value ** e
    return _DenseJet(val, e * val / base.value * base.gradient)


def _oracle_step(a, b, x, f, fd, derivative):
    if not np.all(a.value < b.value):
        raise DomainError("smoothstep", 0.0)
    w = (x - a) / (b - a)
    out = _oracle_unary(w, f, fd)
    return out / (b - a) if derivative else out


def _oracle_eval(node, p, shape):
    if isinstance(node, Num):
        return _DenseJet.constant(node.value, shape)
    if isinstance(node, Const):
        return _DenseJet.constant(expr.CONSTANTS[node.name], shape)
    if isinstance(node, Coord):
        grad = np.zeros((3,) + shape)
        grad[node.index] = 1.0
        return _DenseJet(np.broadcast_to(p[node.index], shape).copy(), grad)
    if isinstance(node, Neg):
        arg = _oracle_eval(node.arg, p, shape)
        return _DenseJet(-arg.value, -arg.gradient)
    if isinstance(node, BinOp):
        left = _oracle_eval(node.left, p, shape)
        if node.op == "^":
            if isinstance(node.right, Num):
                return _oracle_pow_number(left, node.right.value, shape)
            ex = _oracle_eval(node.right, p, shape)
            if np.any(left.value <= 0.0):
                raise DomainError("power", 0.0)
            logb = np.log(left.value)
            val = np.exp(ex.value * logb)
            return _DenseJet(val, val * (ex.gradient * logb
                                         + ex.value / left.value * left.gradient))
        right = _oracle_eval(node.right, p, shape)
        return {"+": left.__add__, "-": left.__sub__, "*": left.__mul__,
                "/": left.__truediv__}[node.op](right)
    args = [_oracle_eval(a, p, shape) for a in node.args]
    if node.func == "sin":
        return _oracle_unary(args[0], np.sin, np.cos)
    if node.func == "cos":
        return _oracle_unary(args[0], np.cos, lambda v: -np.sin(v))
    if node.func == "exp":
        return _oracle_unary(args[0], np.exp, np.exp)
    if node.func == "sqrt":
        return _oracle_sqrt(args[0])
    if node.func == "smoothstep":
        return _oracle_step(*args, _old_transition, _old_transition_d1, False)
    return _oracle_step(*args, _old_transition_d1, _old_transition_d2, True)


def _assert_tape_matches_oracle(nodes, pts):
    """Values bit for bit; partials bit for bit up to the sign of a zero and
    the payload of a NaN.  A structural zero is exact where the dense
    evaluation multiplied a non-finite derivative by a zero partial."""
    with np.errstate(all="ignore"):
        try:
            want = [_oracle_eval(n, pts, pts.shape[1:]) for n in nodes]
        except DomainError:
            with pytest.raises(DomainError):
                expr.Tape(nodes).run(pts)
            return
        got = expr.Tape(nodes).run(pts)
    for node, g, w in zip(nodes, got, want):
        value = np.broadcast_to(g.value, w.value.shape)
        assert np.array_equal(value.view(np.uint64), w.value.view(np.uint64)), to_string(node)
        for d, want in zip(g.partials, w.gradient):
            if d is None:
                assert np.all((want == 0.0) | np.isnan(want)), to_string(node)
                continue
            d = np.broadcast_to(d, want.shape)
            same = ((d.view(np.uint64) == want.view(np.uint64))
                    | ((d == 0.0) & (want == 0.0)) | (np.isnan(d) & np.isnan(want)))
            assert np.all(same), to_string(node)


def _model_fields():
    from planefield.catalog import catalog_model, random_periodic_form
    from planefield.models import assemble_open_book_demo, collar_model, reeb_solid_torus
    from planefield.models.fibration import product_fibration, torus_surface_chart
    from planefield.models.base import SurfaceMetric
    models = [catalog_model(n) for n in ("flat-torus", "flat-torus-2pi", "polar-cylinder",
                                         "spheres", "contact-box")]
    models += [reeb_solid_torus(), collar_model(),
               product_fibration(SurfaceMetric.from_strings(
                   torus_surface_chart(), ("1 + 0.5*sin(u)^2", "0", "1")))]
    book, transitions, _ = assemble_open_book_demo(classify_grid=(4, 4, 4))
    models += book
    for m in models:
        yield m.model_id + ":metric", m.chart, m.metric.entries
        for name, f in list(m.forms.items()) + list(m.vectors.items()):
            yield f"{m.model_id}:{name}", m.chart, f.components
        for name, (s, t) in m.named_frames.items():
            yield f"{m.model_id}:{name}", m.chart, s.components + t.components
    for tr in transitions:
        yield f"{tr.source}->{tr.target}", None, tr.forward
    flat = catalog_model("flat-torus").chart
    for seed in range(6):
        yield f"random-{seed}", flat, random_periodic_form(seed).components


_FIELDS = list(_model_fields())


@pytest.mark.parametrize("name,chart,nodes", _FIELDS, ids=[f[0] for f in _FIELDS])
def test_tape_matches_recursive_oracle_on_model_fields(name, chart, nodes):
    if chart is None:
        pts = np.random.default_rng(1).uniform(0.2, 0.8, size=(3, 64))
    else:
        pts = chart.random_points(64, seed=7)
    _assert_tape_matches_oracle(tuple(nodes), pts)


_const_leaf = st.one_of(st.floats(min_value=0.1, max_value=3.0).map(Num),
                        st.just(Const("pi")))


@st.composite
def _shared_expressions(draw):
    """A few expressions drawn from one pool of subtrees, so they share
    subtrees with each other and with themselves, including constant ones
    (built from literals and pi) that the tape folds."""
    pool = [Coord(n, i) for i, n in enumerate(COORDS)] + [draw(_const_leaf)]
    consts = [pool[-1]]
    for _ in range(draw(st.integers(4, 14))):
        kind = draw(st.sampled_from(["bin", "bin", "call", "neg", "pow", "step", "const"]))
        a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        if kind == "bin":
            node = BinOp(draw(st.sampled_from("+-*/")), a, b)
        elif kind == "call":
            node = Call(draw(st.sampled_from(["sin", "cos", "exp", "sqrt"])), (a,))
        elif kind == "neg":
            node = Neg(a)
        elif kind == "pow":     # exp(a) keeps some bases positive
            base = draw(st.sampled_from([a, Call("exp", (a,))]))
            node = BinOp("^", base, draw(st.one_of(
                st.sampled_from([Num(2.0), Num(3.0), Num(-1.0), Num(0.5), Num(0.0)]),
                st.sampled_from(pool))))
        elif kind == "step":
            lo, hi = sorted(draw(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2)))
            fn = draw(st.sampled_from(["smoothstep", "dsmoothstep"]))
            node = Call(fn, (Num(lo), Num(hi + 0.5), a))
        else:
            node = BinOp(draw(st.sampled_from("+-*/^")), draw(st.sampled_from(consts)),
                         draw(_const_leaf))
            node = Call(draw(st.sampled_from(["sin", "cos", "exp"])), (node,))
            consts.append(node)
        pool.append(node)
    return tuple(draw(st.lists(st.sampled_from(pool[3:]), min_size=1, max_size=4)))


_ALL = {0, 1, 2}
# The coordinates each shipped field's expressions read, by reading them.
_READ_AXES = {
    "flat-torus:metric": set(), "flat-torus:vertical": set(), "flat-torus:tilted": set(),
    "flat-torus:graph-foliation": {0, 1}, "flat-torus:winding-contact": {2},
    "flat-torus:quadrature-probe": _ALL, "flat-torus:horizontal": set(),
    "flat-torus-2pi:metric": set(), "flat-torus-2pi:vertical": set(),
    "flat-torus-2pi:winding-contact": {2},
    "polar-cylinder:metric": {0}, "polar-cylinder:radial": set(), "polar-cylinder:leaf": set(),
    "spheres:metric": {0, 1}, "spheres:radial": set(), "spheres:leaf": set(),
    "contact-box:metric": set(), "contact-box:standard-contact": {0, 1},
    "reeb-solid-torus:metric": {0}, "reeb-solid-torus:foliation": {0},
    "reeb-solid-torus:paper": {0},
    "collar:metric": set(), "collar:foliation": {0}, "collar:page": {0},
    "product-fibration:metric": {0}, "product-fibration:foliation": set(),
    "product-fibration:surface": set(),
    "binding-a:metric": {0}, "binding-a:foliation": {0}, "binding-a:paper": {0},
    "collar-a:metric": set(), "collar-a:foliation": {0}, "collar-a:page": {0},
    "page-cylinder:metric": set(), "page-cylinder:foliation": set(),
    "page-cylinder:page": set(),
    "collar-b:metric": set(), "collar-b:foliation": {0}, "collar-b:page": {0},
    "binding-b:metric": {0}, "binding-b:foliation": {0}, "binding-b:paper": {0},
    "binding-a->collar-a": _ALL, "collar-a->page-cylinder": _ALL,
    "page-cylinder->collar-b": _ALL, "collar-b->binding-b": _ALL,
    **{f"random-{seed}": _ALL for seed in range(6)},
}


@pytest.mark.parametrize("name,chart,nodes", _FIELDS, ids=[f[0] for f in _FIELDS])
def test_tape_axes_are_the_coordinates_its_expressions_read(name, chart, nodes):
    assert expr.Tape(nodes).axes == _READ_AXES[name]


# Grids of the broadcast bit-identity test: fewer points than a block, one
# block's worth of planes, and 46,080 points.
_BIT_GRIDS = ((5, 7, 3), (23, 23, 25), (48, 40, 24))
_TRANSITION_BOX = Chart(("x", "y", "z"), ((0.2, 0.8),) * 3, (False,) * 3)


def _bits(x, shape) -> bytes:
    """The bytes of an entry of a grid run, flat ``(N,)`` or in broadcast
    shape, over the grid's ``shape`` in C order."""
    x = np.asarray(x, dtype=float)
    return np.broadcast_to(x.reshape(shape) if x.ndim == 1 else x, shape).tobytes()


@pytest.mark.parametrize("name,chart,nodes", _FIELDS, ids=[f[0] for f in _FIELDS])
def test_tape_on_broadcast_grid_coordinates_equals_the_mesh_bit_for_bit(name, chart, nodes):
    """A grid sweep seeds each leaf with its axis in broadcast shape, so a
    register keeps only the axes it reads.  Values and every partial equal
    the run on the materialised (3, N) mesh bit for bit after
    ``broadcast_to``, a domain error names the same point, and each partial
    is structurally zero, constant or an array in both runs alike.  This
    rests on numpy's elementwise ufuncs giving an element the same bits
    whatever the array's shape or stride."""
    tape = expr.Tape(tuple(nodes))
    for shape in _BIT_GRIDS:
        grid = (chart or _TRANSITION_BOX).sample_grid(shape)
        coords = (grid.axes[0][:, None, None], grid.axes[1][None, :, None],
                  grid.axes[2][None, None, :])
        with np.errstate(all="ignore"):
            try:
                flat = tape.run(grid.points)
            except DomainError as err:
                with pytest.raises(DomainError) as again:
                    tape.run(coords)
                assert (str(again.value), again.value.point) == (str(err), err.point)
                continue
            broadcast = tape.run(coords)
        for f, b in zip(flat, broadcast):
            assert _bits(b.value, shape) == _bits(f.value, shape), name
            for df, db in zip(f.partials, b.partials):
                assert type(df) is type(db), name
                if df is not None:
                    assert _bits(db, shape) == _bits(df, shape), name


def test_tape_registers_keep_the_axes_they_read():
    coords = (np.arange(4.0)[:, None, None], np.arange(5.0)[None, :, None],
              np.arange(6.0)[None, None, :])
    y, xz, c = expr.Tape([parse(t, COORDS) for t in ("sin(phi)", "r*t", "2*pi")]).run(coords)
    assert (y.value.shape, xz.value.shape, np.shape(c.value)) == ((1, 5, 1), (4, 1, 6), ())
    assert y.partials[1].shape == (1, 5, 1) and xz.partials[0].shape == (1, 1, 6)
    assert expr.batch_shape(coords) == (4, 5, 6)
    assert expr.point_at(coords, 4 * 5 * 6 - 1) == [3.0, 4.0, 5.0]


def test_tape_axes_count_a_coordinate_only_a_zero_multiplies():
    """Structural: a leaf is read even where its operation folds to +0.0."""
    names = ("x", "y", "z")
    assert expr.Tape((expr.parse("2*pi", names), expr.parse("1", names))).axes == set()
    assert expr.Tape((expr.parse("0*y + sin(z)", names),)).axes == {1, 2}


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_shared_expressions())
def test_tape_matches_recursive_oracle_on_shared_subtrees(nodes):
    pts = np.random.default_rng(5).uniform(-1.8, 1.8, size=(3, 16))
    _assert_tape_matches_oracle(nodes, pts)


def test_tape_evaluates_a_shared_subtree_once_per_block(reeb, monkeypatch):
    """smoothstep(1/3, 2/3, r) appears in two components of the Reeb form."""
    calls = []
    real = expr._transition
    monkeypatch.setattr(expr, "_transition",
                        lambda w, order: calls.append(1) or real(w, order))
    alpha = reeb.form()
    pts = reeb.chart.random_points(100, seed=3)
    aval, _ = alpha.eval(pts)
    assert len(calls) == 1
    assert sum(to_string(c).count("smoothstep(") for c in alpha.components) == 2
    with np.errstate(all="ignore"):
        want = [_oracle_eval(c, pts, pts.shape[1:]).value for c in alpha.components]
    assert np.array_equal(aval, np.stack(want, axis=-1))


def test_constant_metric_jets_carry_no_array_partials(torus):
    mj = torus.metric.eval(torus.chart.random_points(50, seed=2))
    for row in mj.jets:
        for jet in row:
            assert np.ndim(jet.value) == 0
            assert jet.partials == (None, None, None)
    assert np.array_equal(mj.val, np.broadcast_to(np.eye(3), (50, 3, 3)))
    assert not np.any(mj.dval)


def test_domain_error_names_the_first_failing_point_and_its_own_value():
    pts = np.array([[0.5, 0.2, -0.1, -0.9], [0.0, 0.3, 0.4, 0.0], [1.0, 1.0, 1.0, 1.0]])
    with pytest.raises(DomainError) as err:
        eval_jet(parse("sqrt(r - phi)", COORDS), pts)
    assert err.value.point == (0.2, 0.3, 1.0)
    assert err.value.value == pytest.approx(-0.1)
    assert str(err.value) == ("sqrt: argument value -0.09999999999999998 outside "
                              "domain at (0.2, 0.3, 1.0)")
    with pytest.raises(DomainError, match=r"at \(-0.1, 0.4, 1.0\) \(division by zero\)"):
        eval_jet(parse("1/(r + 0.1)", COORDS), pts)
    with pytest.raises(DomainError, match=r"point: argument value inf .* at \(0.0, inf, 1.0\)"):
        eval_jet(parse("r", COORDS), np.array([[1.0, 0.0], [0.0, np.inf], [1.0, 1.0]]))
