"""Scalar expression DSL with exact first-order differentiation.

Every metric entry, 1-form component and vector-field component in the
toolkit is a closed-form expression over the three coordinates of a chart.
Expressions are parsed once into an immutable AST and evaluated with
first-order jets (value plus the three chart partials), so downstream
geometry sees exact derivatives instead of finite differences.

Evaluation runs a :class:`Tape`: each field compiles all its component
expressions once into one straight-line program of forward-mode jet
operations (Griewank & Walther, *Evaluating Derivatives*, 2008) and runs
it once per point batch.  Compiling shares equal subexpressions (hash
consing), folds constant subtrees to plain floats with the IEEE operations
a batch would apply, and tracks structural zeros: a partial along a
coordinate the value does not depend on is ``None`` and never computed.
Partials are computed with ``jetalg.add``, ``sub``, ``mul`` and ``neg``
and follow their rules: anything times ``None`` is ``None``, adding
``None`` or a zero constant returns the other operand, and a zero
constant times a column is ``+0.0``.  Values are those of the dense
computation bit for bit; a partial may differ from it in the sign of a
zero, and is an exact zero where the dense computation multiplied a zero
by a non-finite number.

Grammar::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := number | ident | ident '(' expr (',' expr)* ')' | '(' expr ')'

``^`` is right-associative and binds tighter than unary minus, so
``-r^2`` is ``-(r^2)`` while ``2^-3`` still parses.  Numbers are decimal
with an optional exponent, identifiers are ``[a-zA-Z_][a-zA-Z0-9_]*``.

Built-in functions: ``sin``, ``cos``, ``exp``, ``sqrt``,
``smoothstep(a, b, x)`` and ``dsmoothstep(a, b, x)`` (the x-derivative of
``smoothstep``; emitted by code that constructs twisted metrics).  The
named constant ``pi`` is always in scope.

``smoothstep`` is the exp-based C-infinity step: with ``w = (x-a)/(b-a)``
and ``sigma(u) = exp(-1/u)`` for ``u > 0`` (0 otherwise), it returns
``sigma(w) / (sigma(w) + sigma(1-w))``: identically 0 for ``x <= a``,
identically 1 for ``x >= b`` and strictly increasing in between, with all
derivatives vanishing at both ends.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ArityError, DomainError, ParseError, UnknownIdentifierError
from .jetalg import add, dense, mul, neg, sub

__all__ = [
    "Jet1", "Tape", "Node", "Num", "Coord", "Const", "Neg", "BinOp", "Call",
    "parse", "eval_jet", "evaluate", "to_string", "substitute",
    "smoothstep", "smoothstep_deriv", "batch_shape", "point_at",
    "CONSTANTS", "FUNCTIONS",
]

CONSTANTS: dict[str, float] = {"pi": math.pi}

# function name -> arity
FUNCTIONS: dict[str, int] = {
    "sin": 1, "cos": 1, "exp": 1, "sqrt": 1,
    "smoothstep": 3, "dsmoothstep": 3,
}


# ---------------------------------------------------------------------------
# first-order jets: each operation takes jets or plain numbers, and the
# ``(3, ...)`` batch being evaluated, if any, for its domain errors to name

_NO_PARTIALS = (None, None, None)


def _jet(value, partials) -> "Jet1":
    out = Jet1.__new__(Jet1)
    out.value, out.partials = value, tuple(partials)
    return out


def _split(x) -> tuple:
    return (x.value, x.partials) if isinstance(x, Jet1) else (x, _NO_PARTIALS)


def _require(bad, arg, points, function: str, message: str = "") -> None:
    """Raise DomainError at the first point of the batch where ``bad``
    holds (both broadcast to it), with the offending argument ``arg`` there."""
    if np.any(bad):
        shape = np.shape(bad) if points is None else batch_shape(points)
        bad, arg = (np.broadcast_to(x, shape).ravel() for x in (bad, arg))
        if bad.any():       # else a constant argument over an empty batch
            i = int(np.argmax(bad))
            raise DomainError(function, float(arg[i]), message,
                              None if points is None else point_at(points, i))


def _add(x, y, points=None) -> "Jet1":
    (xv, xp), (yv, yp) = _split(x), _split(y)
    return _jet(xv + yv, map(add, xp, yp))


def _sub(x, y, points=None) -> "Jet1":
    (xv, xp), (yv, yp) = _split(x), _split(y)
    return _jet(xv - yv, map(sub, xp, yp))


def _neg(x, points=None) -> "Jet1":
    xv, xp = _split(x)
    return _jet(-xv, map(neg, xp))


def _mul(x, y, points=None) -> "Jet1":
    (xv, xp), (yv, yp) = _split(x), _split(y)
    return _jet(xv * yv, [add(mul(yv, a), mul(xv, b)) for a, b in zip(xp, yp)])


def _div(x, y, points=None) -> "Jet1":
    (xv, xp), (yv, yp) = _split(x), _split(y)
    _require(yv == 0.0, yv, points, "divide", "division by zero")
    inv = 1.0 / yv
    val = xv * inv
    return _jet(val, [mul(inv, sub(a, mul(val, b))) for a, b in zip(xp, yp)])


def _chain(x, value, deriv) -> "Jet1":
    """f(x) from the value and the derivative of f at the value of x."""
    return _jet(value, [mul(deriv, a) for a in _split(x)[1]])


def _unary(f, df):
    return lambda x, points=None: _chain(x, f(_split(x)[0]), df(_split(x)[0]))


_sin = _unary(np.sin, np.cos)
_cos = _unary(np.cos, lambda v: -np.sin(v))
_exp = _unary(np.exp, np.exp)


def _sqrt(x, points=None) -> "Jet1":
    v, xp = _split(x)
    _require(v < 0.0, v, points, "sqrt")
    root = np.sqrt(v)
    d = np.where(root > 0.0, 0.5 / np.where(root > 0.0, root, 1.0), np.inf)
    # 0 * inf at the apex of sqrt: a constant argument has zero gradient there
    return _jet(root, [None if a is None else np.where(a == 0.0, 0.0, d * a)
                       for a in xp])


jet_sqrt = _sqrt


def _pow_number(base, e, points=None) -> "Jet1":
    """base ^ e for an exponent written as a literal number."""
    v, e = np.asarray(_split(base)[0]), float(e)
    if e.is_integer():
        n = int(e)
        if n == 0:
            return _jet(np.ones(v.shape), _NO_PARTIALS)
        if n < 0:
            _require(v == 0.0, v, points, "power", f"0 raised to {n}")
        return _chain(base, v ** n, n * v ** (n - 1))
    _require(v <= 0.0, v, points, "power", "non-integer exponent requires a positive base")
    val = v ** e
    return _chain(base, val, e * val / v)


def _pow(base, expo, points=None) -> "Jet1":
    """base ^ expo = exp(expo log base), for any other exponent."""
    (bv, bp), (ev, ep) = _split(base), _split(expo)
    _require(bv <= 0.0, bv, points, "power", "non-integer exponent requires a positive base")
    logb = np.log(bv)
    val = np.exp(ev * logb)
    q = ev / bv
    return _jet(val, [mul(val, add(mul(logb, a), mul(q, b))) for a, b in zip(ep, bp)])


class Jet1:
    """Value of a scalar together with its three chart partials.

    ``value`` has a batch shape S.  ``partials[l]``, the partial along
    coordinate l, is ``None`` where structurally zero, a plain float where
    it does not vary, or an array of shape S; ``gradient`` is the dense
    ``(3,) + S`` array.  Arithmetic obeys the exact product, quotient and
    chain rules and takes plain numbers as constants.
    """

    __slots__ = ("value", "partials")

    def __init__(self, value, partials):
        if len(partials) != 3:
            raise ValueError(f"need 3 partials, got {len(partials)}")
        self.value = np.asarray(value, dtype=float)
        self.partials = tuple(None if d is None else np.asarray(d, dtype=float)
                              for d in partials)

    @property
    def gradient(self) -> np.ndarray:
        return np.stack([np.broadcast_to(0.0 if d is None else d, np.shape(self.value))
                         for d in self.partials])

    __add__ = __radd__ = _add
    __sub__ = _sub
    __mul__ = __rmul__ = _mul
    __truediv__ = _div
    __neg__ = _neg

    def __rsub__(self, other):
        return _sub(other, self)

    def __rtruediv__(self, other):
        return _div(other, self)

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("Jet1 ** expects a plain number")
        return _pow_number(self, exponent)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Jet1(value={self.value!r}, partials={self.partials!r})"


# ---------------------------------------------------------------------------
# the C-infinity step and its first two derivatives


def _bumps(u: np.ndarray, order: int) -> list:
    """exp(-1/u) and its first ``order`` (at most 2) derivatives for u > 0,
    else 0, all from one exp."""
    u = np.asarray(u, dtype=float)
    pos = u > 0.0
    up = u[pos]
    e = np.exp(-1.0 / up)
    vals = [e, e / (up * up)] if order else [e]
    if order > 1:
        vals.append(e * (1.0 - 2.0 * up) / up ** 4)
    outs = [np.zeros(u.shape) for _ in vals]
    for out, v in zip(outs, vals):
        out[pos] = v
    return outs


def _transition(w: np.ndarray, order: int) -> list:
    """sigma(w) / (sigma(w) + sigma(1-w)) and its first ``order`` (at most
    2) derivatives in w, from one bump on each side."""
    n, m = _bumps(w, order), _bumps(1.0 - w, order)
    d = n[0] + m[0]
    out = [n[0] / d]
    if order:
        a = n[1] * m[0] + n[0] * m[1]
        out.append(a / (d * d))
    if order > 1:
        a1 = n[2] * m[0] - n[0] * m[2]
        d1 = n[1] - m[1]
        out.append((a1 * d - 2.0 * a * d1) / d ** 3)
    return out


def smoothstep(a, b, x):
    """C-infinity step: 0 for x <= a, 1 for x >= b, strictly increasing
    in between.  Accepts floats, arrays or :class:`Jet1` in any slot."""
    if any(isinstance(v, Jet1) for v in (a, b, x)):
        return _smoothstep(a, b, x)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not np.all(a < b):
        raise DomainError("smoothstep", float(np.max(a - b)), "requires a < b")
    out = _transition((np.asarray(x, dtype=float) - a) / (b - a), 0)[0]
    return float(out) if out.ndim == 0 else out


def smoothstep_deriv(a, b, x):
    """d/dx of :func:`smoothstep`; zero outside (a, b)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not np.all(a < b):
        raise DomainError("smoothstep", float(np.max(a - b)), "requires a < b")
    out = _transition((np.asarray(x, dtype=float) - a) / (b - a), 1)[1] / (b - a)
    return float(out) if out.ndim == 0 else out


def _step_arg(a, b, x, points) -> Jet1:
    """w = (x - a) / (b - a), after checking a < b."""
    av, bv = _split(a)[0], _split(b)[0]
    _require(~np.less(av, bv), np.subtract(av, bv), points, "smoothstep", "requires a < b")
    return _div(_sub(x, a), _sub(b, a), points)


def _smoothstep(a, b, x, points=None) -> Jet1:
    w = _step_arg(a, b, x, points)
    return _chain(w, *_transition(w.value, 1))


def _dsmoothstep(a, b, x, points=None) -> Jet1:
    w = _step_arg(a, b, x, points)
    return _div(_chain(w, *_transition(w.value, 2)[1:]), _sub(b, a), points)


# ---------------------------------------------------------------------------
# AST


class Node:
    """Base class of AST nodes.  Arithmetic operators build new trees, so
    expressions compose programmatically the same way they parse."""

    __slots__ = ()

    def __add__(self, other):
        return _binop("+", self, _coerce(other))

    def __radd__(self, other):
        return _binop("+", _coerce(other), self)

    def __sub__(self, other):
        return _binop("-", self, _coerce(other))

    def __rsub__(self, other):
        return _binop("-", _coerce(other), self)

    def __mul__(self, other):
        return _binop("*", self, _coerce(other))

    def __rmul__(self, other):
        return _binop("*", _coerce(other), self)

    def __truediv__(self, other):
        return _binop("/", self, _coerce(other))

    def __rtruediv__(self, other):
        return _binop("/", _coerce(other), self)

    def __pow__(self, other):
        return _binop("^", self, _coerce(other))

    def __neg__(self):
        child = self
        if isinstance(child, Num):
            return Num(-child.value)
        return Neg(child)

    def __str__(self):
        return to_string(self)


@dataclass(frozen=True, eq=True)
class Num(Node):
    value: float


@dataclass(frozen=True, eq=True)
class Coord(Node):
    name: str
    index: int


@dataclass(frozen=True, eq=True)
class Const(Node):
    name: str


@dataclass(frozen=True, eq=True)
class Neg(Node):
    arg: Node


@dataclass(frozen=True, eq=True)
class BinOp(Node):
    op: str
    left: Node
    right: Node


@dataclass(frozen=True, eq=True)
class Call(Node):
    func: str
    args: tuple


def _coerce(value) -> Node:
    if isinstance(value, Node):
        return value
    if isinstance(value, (int, float)):
        return Num(float(value))
    raise TypeError(f"cannot use {type(value).__name__} in an expression")


_FOLD = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "^": lambda a, b: math.pow(a, b),
}


def _binop(op: str, left: Node, right: Node) -> Node:
    # constant folding on literal pairs; anything invalid stays a node and
    # surfaces as a DomainError at evaluation time
    if isinstance(left, Num) and isinstance(right, Num):
        try:
            folded = _FOLD[op](left.value, right.value)
        except (ZeroDivisionError, OverflowError, ValueError):
            folded = None
        if folded is not None and math.isfinite(folded):
            return Num(float(folded))
    return BinOp(op, left, right)


# ---------------------------------------------------------------------------
# tokenizer / parser

_NUM_RE = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_TOKEN_RE = re.compile(
    rf"(?P<num>{_NUM_RE})|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^(),])"
)


@dataclass(frozen=True)
class _Token:
    kind: str   # 'num' | 'ident' | one of + - * / ^ ( ) , | 'end'
    text: str
    pos: int


def _tokenize(text: str) -> list:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        if m.lastgroup == "num":
            tokens.append(_Token("num", m.group(), i))
        elif m.lastgroup == "ident":
            tokens.append(_Token("ident", m.group(), i))
        else:
            tokens.append(_Token(m.group(), m.group(), i))
        i = m.end()
    tokens.append(_Token("end", "", n))
    return tokens


_ATOM_EXPECTED = ("number", "identifier", "'('", "'-'")


class _Parser:
    def __init__(self, tokens, coords):
        self.tokens = tokens
        self.pos = 0
        self.coords = {name: i for i, name in enumerate(coords)}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"got {tok.text or 'end of input'!r}", tok.pos,
                             (f"'{kind}'",))
        return self.advance()

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            node = _binop(op, node, self.parse_term())
        return node

    def parse_term(self) -> Node:
        node = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            node = _binop(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Node:
        if self.peek().kind == "-":
            self.advance()
            return -self.parse_factor()
        return self.parse_power()

    def parse_power(self) -> Node:
        node = self.parse_atom()
        if self.peek().kind == "^":
            self.advance()
            node = _binop("^", node, self.parse_factor())
        return node

    def parse_atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if self.peek().kind == "(":
                if name not in FUNCTIONS:
                    raise UnknownIdentifierError(name, tok.pos)
                self.advance()
                args = [self.parse_expr()]
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.parse_expr())
                self.expect(")")
                arity = FUNCTIONS[name]
                if len(args) != arity:
                    raise ArityError(name, arity, len(args), tok.pos)
                return Call(name, tuple(args))
            if name in self.coords:
                return Coord(name, self.coords[name])
            if name in CONSTANTS:
                return Const(name)
            raise UnknownIdentifierError(name, tok.pos)
        raise ParseError(f"got {tok.text or 'end of input'!r}", tok.pos,
                         _ATOM_EXPECTED)


def parse(text: str, coords: Sequence[str]) -> Node:
    """Parse ``text`` into an AST over exactly three chart coordinates."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty expression", 0, _ATOM_EXPECTED)
    coords = tuple(coords)
    if len(coords) != 3 or len(set(coords)) != 3:
        raise ValueError(f"need 3 distinct coordinate names, got {coords!r}")
    for name in coords:
        if name in CONSTANTS or name in FUNCTIONS:
            raise ValueError(f"coordinate name {name!r} shadows a built-in")
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise ValueError(f"invalid coordinate name {name!r}")
    parser = _Parser(_tokenize(text), coords)
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
    return node


# ---------------------------------------------------------------------------
# evaluation: the jet tape

_BINARY = {"+": _add, "-": _sub, "*": _mul, "/": _div, "^": _pow}
_CALLS = {"sin": _sin, "cos": _cos, "exp": _exp, "sqrt": _sqrt,
          "smoothstep": _smoothstep, "dsmoothstep": _dsmoothstep}
_UNIT = ((1.0, None, None), (None, 1.0, None), (None, None, 1.0))


def _coords(points) -> tuple:
    """The coordinate arrays of a point ``(3,)``, a batch ``(3, ...)``, or a
    tuple of three arrays that broadcast together (a grid block's)."""
    if isinstance(points, tuple) and len(points) == 3:
        return tuple(np.asarray(c, dtype=float) for c in points)
    p = np.asarray(points, dtype=float)
    if p.ndim < 1 or p.shape[0] != 3:
        raise ValueError(f"point must have shape (3, ...), got {p.shape}")
    return p[0, ...], p[1, ...], p[2, ...]


def batch_shape(points) -> tuple:
    """The broadcast shape of a point batch's coordinate arrays."""
    if isinstance(points, np.ndarray):
        return points.shape[1:]
    return np.broadcast_shapes(*(np.shape(c) for c in _coords(points)))


def point_at(points, i: int) -> list:
    """The three coordinates of point ``i``, in C order, of a point batch."""
    shape = batch_shape(points)
    return [float(np.broadcast_to(c, shape).flat[i]) for c in _coords(points)]


def _check_points(points) -> tuple:
    p = _coords(points)
    if not (np.isfinite(points).all() if isinstance(points, np.ndarray)
            else all(np.isfinite(c).all() for c in p)):
        full = np.stack(np.broadcast_arrays(*p))
        finite = np.isfinite(full)
        first = np.take_along_axis(full, np.argmin(finite, axis=0)[None], axis=0)[0]
        _require(~finite.all(axis=0), first, p, "point", "point must be finite")
    return p


class Tape:
    """One straight-line jet program for a tuple of expressions.

    Compiling walks each AST once and keys every node by its operation and
    operand registers, so equal subtrees share one register.  Operations on
    constants only are folded by running them on 0-d arrays; a fold that
    leaves the function's domain stays an operation and raises at run time,
    at the first point of the batch.  Registers are released after their
    last use.
    """

    __slots__ = ("_consts", "_leaves", "_code", "_outputs")

    def __init__(self, exprs: Sequence[Node]):
        self._consts, self._leaves, code, keys = [], [], [], {}
        self._outputs = [self._lower(e, code, keys) for e in exprs]
        last = {r: step for step, (_, _, args) in enumerate(code) for r in args}
        free = [[] for _ in code]
        for r, step in last.items():
            if self._consts[r] is None and r not in self._outputs:
                free[step].append(r)
        self._code = [(reg, op, args, f) for (reg, op, args), f in zip(code, free)]

    def _lower(self, node: Node, code: list, keys: dict) -> int:
        if isinstance(node, (Num, Const)):
            value = float(node.value if isinstance(node, Num) else CONSTANTS[node.name])
            return self._register(keys, ("const", value.hex()), value)
        if isinstance(node, Coord):
            return self._register(keys, ("coord", node.index), leaf=node.index)
        if isinstance(node, Neg):
            op, args = _neg, (node.arg,)
        elif isinstance(node, BinOp):
            # a literal exponent takes the power rule, any other exp(e log b)
            literal = node.op == "^" and isinstance(node.right, Num)
            op, args = _pow_number if literal else _BINARY[node.op], (node.left, node.right)
        elif isinstance(node, Call):
            op, args = _CALLS[node.func], node.args
        else:
            raise TypeError(f"not an expression node: {node!r}")
        key = (op, tuple(self._lower(a, code, keys) for a in args))
        if key not in keys:
            value = self._fold(*key)
            if value is None:
                code.append((self._register(keys, key),) + key)
            else:
                keys[key] = self._register(keys, ("const", value.hex()), value)
        return keys[key]

    def _fold(self, op, regs: tuple):
        """The float an operation on constants gives, or None."""
        consts = [self._consts[r] for r in regs]
        if any(c is None for c in consts):
            return None
        try:
            return float(op(*map(np.asarray, consts)).value)
        except DomainError:     # kept as an operation, to raise at run time
            return None

    def _register(self, keys: dict, key, const=None, leaf=None) -> int:
        if key not in keys:
            keys[key] = len(self._consts)
            self._consts.append(const)
            if leaf is not None:
                self._leaves.append((keys[key], leaf))
        return keys[key]

    @property
    def axes(self) -> set:
        """The coordinate indices the tape's leaves read."""
        return {index for _, index in self._leaves}

    def run(self, points) -> list:
        """Jets of the expressions at a point batch (see ``_coords``); a
        constant expression gives a scalar value, no partials.  Leaves are
        the coordinate arrays, so broadcasting keeps each register on the
        axes it reads: on a grid block, an expression of y is (1, n2, 1)."""
        p = _check_points(points)
        regs = list(self._consts)
        for reg, index in self._leaves:
            regs[reg] = _jet(p[index].copy(), _UNIT[index])
        for reg, op, args, free in self._code:
            regs[reg] = op(*[regs[a] for a in args], points=p)
            for r in free:
                regs[r] = None
        return [x if isinstance(x, Jet1) else _jet(np.float64(x), _NO_PARTIALS)
                for x in (regs[r] for r in self._outputs)]

    def entries(self, points) -> tuple:
        """Values ``v[k]`` and partials ``dv[i][k] = d_i e_k`` of the tape's
        expressions e_k as entries: floats where constant, ``None`` where
        structurally zero, else arrays."""
        jets = self.run(points)
        return [j.value for j in jets], [[j.partials[i] for j in jets] for i in range(3)]

    def arrays(self, points) -> tuple:
        """Values ``(..., m)`` and Jacobian ``(..., i, k) = d_i e_k`` of the
        tape's m expressions e_k, as dense arrays."""
        return tuple(dense(x, batch_shape(points)) for x in self.entries(points))


def eval_jet(expr: Node, point) -> Jet1:
    """Evaluate ``expr`` at a point (shape ``(3,)``) or a batch of points
    (shape ``(3, ...)``), returning value plus exact partials."""
    jet = Tape((expr,)).run(point)[0]
    return Jet1(np.broadcast_to(jet.value, batch_shape(point)).copy(), jet.partials)


def evaluate(expr: Node, point) -> float:
    """Value-only convenience wrapper around :func:`eval_jet`."""
    out = eval_jet(expr, point).value
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# printing (normal form), substitution, inspection

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node: Node) -> int:
    if isinstance(node, BinOp):
        return {"+": _PREC_ADD, "-": _PREC_ADD,
                "*": _PREC_MUL, "/": _PREC_MUL,
                "^": _PREC_POW}[node.op]
    if isinstance(node, Neg):
        return _PREC_NEG
    return _PREC_ATOM


def _leads_with_minus(node: Node) -> bool:
    return isinstance(node, Neg) or (isinstance(node, Num) and node.value < 0)


def _fmt_number(value: float) -> str:
    if value == 0.0 and math.copysign(1.0, value) < 0:
        return "-0.0"
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def to_string(node: Node) -> str:
    """Print a stable normal form: ``parse(to_string(e))`` rebuilds ``e``
    (up to folding a negated literal into the literal)."""
    if isinstance(node, Num):
        return _fmt_number(node.value)
    if isinstance(node, (Coord, Const)):
        return node.name
    if isinstance(node, Neg):
        # a negation chain over a literal reparses as a folded literal, so
        # print it that way in the first place
        depth, cur = 0, node
        while isinstance(cur, Neg):
            depth += 1
            cur = cur.arg
        if isinstance(cur, Num):
            return _fmt_number(cur.value if depth % 2 == 0 else -cur.value)
        inner = to_string(node.arg)
        if _prec(node.arg) < _PREC_NEG or _leads_with_minus(node.arg):
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.func}({', '.join(to_string(a) for a in node.args)})"
    if isinstance(node, BinOp):
        lp, rp = _prec(node.left), _prec(node.right)
        left, right = to_string(node.left), to_string(node.right)
        if node.op in ("+", "-"):
            if lp < _PREC_ADD:
                left = f"({left})"
            if rp <= _PREC_ADD or _leads_with_minus(node.right):
                right = f"({right})"
            return f"{left} {node.op} {right}"
        if node.op in ("*", "/"):
            if lp < _PREC_MUL:
                left = f"({left})"
            if rp <= _PREC_MUL or _leads_with_minus(node.right):
                right = f"({right})"
            return f"{left}{node.op}{right}"
        # '^': right-associative, exponent may start with unary minus
        if lp <= _PREC_POW or _leads_with_minus(node.left):
            left = f"({left})"
        if rp < _PREC_NEG:
            right = f"({right})"
        return f"{left}^{right}"
    raise TypeError(f"not an expression node: {node!r}")


def substitute(node: Node, mapping: Mapping[str, Node]) -> Node:
    """Replace coordinates by expressions (used for pullbacks); coordinates
    not named in ``mapping`` are kept as they are."""
    if isinstance(node, Coord):
        return mapping.get(node.name, node)
    if isinstance(node, Neg):
        return -substitute(node.arg, mapping)
    if isinstance(node, BinOp):
        return _binop(node.op,
                      substitute(node.left, mapping),
                      substitute(node.right, mapping))
    if isinstance(node, Call):
        return Call(node.func, tuple(substitute(a, mapping) for a in node.args))
    return node
