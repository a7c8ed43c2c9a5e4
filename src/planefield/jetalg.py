"""The package's 3x3 algebra, written once over component-first entries.

A matrix is a nested list ``m[i][j]`` and a vector a list ``v[k]`` whose
entries are batch columns (numpy arrays of one point-batch shape), floats
constant over the batch, ``None`` for a structural zero, or first-order
jets (:class:`~planefield.expr.Jet1`).  The formulas are plain arithmetic
on entries, so the same code gives metric minors and inverses on sweep
columns and, on jets, exact Jacobians for derived fields (unit normals,
frame pushforwards, transferred metrics) without any symbolic blow-up:
only first derivatives of the primitive fields are ever consumed.

On columns, floats and ``None`` (``mul``, ``add``, ``sub``, ``div``) a
result has the bits of the same operation on dense arrays holding the
constants and ``+0.0`` for ``None``, except in the sign of a zero:
constants fold in Python, and a zero constant times any column is
``+0.0``, so structural zeros and the zeros they produce cost no array
work.  The fold also gives ``+0.0``, not NaN, for a zero times an
infinite column.  Reported zeros are ``+0.0`` by one output rule
(``distributions._canonical``).
"""

from __future__ import annotations

from functools import reduce
from math import copysign

import numpy as np

from .expr import Jet1, column, dense

__all__ = [
    "dot3", "matvec", "cross", "adjugate3", "det3", "mul", "add", "sub",
    "div", "neg", "column", "dense", "take", "jets_from_metric",
]

_ARRAYS = (np.ndarray, Jet1)


def mul(u, v):
    """u * v on entries; a zero constant times a column is +0.0."""
    if isinstance(u, _ARRAYS):
        if isinstance(v, _ARRAYS):
            return u * v
        c, x = (0.0 if v is None else v), u
    else:
        c, x = (0.0 if u is None else u), v
        if not isinstance(v, _ARRAYS):
            return c * (0.0 if v is None else v)
    if c == 1.0:
        return x
    if c == 0.0 and isinstance(x, np.ndarray):
        return 0.0
    return c * x


def add(u, v):
    """u + v on entries; adding -0.0 changes nothing, +0.0 only -0.0."""
    u, v = (0.0 if u is None else u), (0.0 if v is None else v)
    if not isinstance(v, _ARRAYS):
        if isinstance(u, _ARRAYS) and v == 0.0 and copysign(1.0, v) < 0.0:
            return u
    elif not isinstance(u, _ARRAYS) and u == 0.0 and copysign(1.0, u) < 0.0:
        return v
    return u + v


def neg(u):
    return -0.0 if u is None else -u


def sub(u, v):
    """u - v on entries."""
    if v is None or (not isinstance(v, _ARRAYS) and v == 0.0):
        return add(u, neg(v))
    return (0.0 if u is None else u) - v


def div(u, v):
    """u / v on entries."""
    u = 0.0 if u is None else u
    if isinstance(u, _ARRAYS) or isinstance(v, _ARRAYS):
        return u / v
    return np.divide(np.float64(u), v)


def dot3(u, v):
    """u_0 v_0 + u_1 v_1 + u_2 v_2."""
    return reduce(add, map(mul, u, v))


def matvec(m, v) -> list:
    """(m v)_i = m_ij v_j."""
    return [dot3(m[i], v) for i in range(3)]


def cross(u, v) -> list:
    """(u x v)_l = eps_ljk u_j v_k."""
    return [sub(mul(u[(l + 1) % 3], v[(l + 2) % 3]), mul(u[(l + 2) % 3], v[(l + 1) % 3]))
            for l in range(3)]


def adjugate3(m) -> list:
    """Transposed cofactor matrix, so m^-1 = adjugate / det.  With cyclic
    row and column indices every 2x2 minor already carries its sign."""
    adj = [[None] * 3 for _ in range(3)]
    for i in range(3):
        i1, i2 = (i + 1) % 3, (i + 2) % 3
        for j in range(3):
            j1, j2 = (j + 1) % 3, (j + 2) % 3
            adj[j][i] = sub(mul(m[i1][j1], m[i2][j2]), mul(m[i1][j2], m[i2][j1]))
    return adj


def det3(m, adj):
    """det m as the expansion of m along row 0 against its adjugate."""
    return dot3(m[0], [adj[0][0], adj[1][0], adj[2][0]])


def take(x, idx):
    """Nested entries at the points ``idx`` of their batch; floats, 0-d
    arrays and ``None`` stay as they are."""
    if isinstance(x, list):
        return [take(y, idx) for y in x]
    return x[idx] if isinstance(x, np.ndarray) and x.ndim else x


def jets_from_metric(mj) -> list:
    """3x3 jet-matrix of a :class:`MetricJets` batch: its entry jets, with
    their structural zeros."""
    return mj.jets
