"""The package's one entry algebra, and the 3x3 algebra written once on it.

A matrix is a nested list ``m[i][j]`` and a vector a list ``v[k]`` whose
entries are batch columns (numpy arrays that broadcast to one point-batch
shape, such as a grid block's ``(1, n2, 1)`` for an entry of y alone, 0-d
ones included), constants (``float`` or ``int``; ``np.float64`` is a float),
``None`` for a structural zero, or first-order jets
(:class:`~planefield.expr.Jet1`).  The formulas are plain arithmetic on
entries, so the same code gives metric minors and inverses on sweep
columns and, on jets, exact Jacobians for derived fields (unit normals,
frame pushforwards, transferred metrics) without any symbolic blow-up.
The jet tape of ``expr`` computes its partials with the same ``add``,
``sub``, ``mul`` and ``neg``.

The zero rules: anything times ``None``, and ``neg(None)``, is ``None``;
adding ``None`` or a zero constant returns the other operand, uncopied;
a zero constant times a column or jet is ``+0.0``, and so is a zero
numerator (``None`` included) over one.  Otherwise a result has the bits
of numpy on dense operands (the constants, and ``+0.0`` for ``None``) up
to the sign of a zero, and a folded zero is exact where numpy gives NaN
for a non-finite column.  An entry reaches numpy only through ``column``
or ``dense``; reported zeros are ``+0.0`` by ``distributions._canonical``.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

__all__ = [
    "dot3", "matvec", "cross", "adjugate3", "det3", "mul", "add", "sub",
    "div", "neg", "column", "dense", "take", "jets_from_metric",
]


def mul(u, v):
    """u * v on entries."""
    if u is None or v is None:
        return None
    if isinstance(u, (int, float)):
        if isinstance(v, (int, float)):
            return u * v
        c, x = u, v
    elif isinstance(v, (int, float)):
        c, x = v, u
    else:
        return u * v
    if c == 1.0:
        return x
    return 0.0 if c == 0.0 else c * x


def add(u, v):
    """u + v on entries."""
    if v is None or isinstance(v, (int, float)) and v == 0.0:
        return u
    if u is None or isinstance(u, (int, float)) and u == 0.0:
        return v
    return u + v


def neg(u):
    return None if u is None else -u


def sub(u, v):
    """u - v on entries."""
    if v is None or isinstance(v, (int, float)) and v == 0.0:
        return u
    if u is None or isinstance(u, (int, float)) and u == 0.0:
        return -v
    return u - v


def div(u, v):
    """u / v on entries; a constant over a constant divides as numpy does."""
    u, v = (0.0 if u is None else u), (0.0 if v is None else v)
    if not isinstance(u, (int, float)):
        return u / v
    if isinstance(v, (int, float)):
        return np.divide(np.float64(u), v)
    return 0.0 if u == 0.0 else u / v


def column(x, shape) -> np.ndarray:
    """An entry (array, float or ``None`` for +0.0) as an array of the
    batch shape, broadcast to it."""
    if isinstance(x, np.ndarray) and x.shape == shape:
        return x
    return np.full(shape, 0.0 if x is None else x)


def dense(x, shape: tuple) -> np.ndarray:
    """Nested lists of entries as one array of the batch shape, each entry
    broadcast to it, entry indices last."""
    dims, y = (), x
    while isinstance(y, list):
        dims, y = dims + (len(y),), y[0]
    out = np.zeros(shape + dims)
    for index in np.ndindex(*dims):
        y = x
        for i in index:
            y = y[i]
        if y is not None:
            out[(Ellipsis,) + index] = y
    return out


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
    """Nested entries at the points ``idx`` (index arrays, one per batch
    axis) of their batch, an entry of length 1 on an axis taken as
    broadcast along it; floats, 0-d arrays and ``None`` stay as they are."""
    if isinstance(x, list):
        return [take(y, idx) for y in x]
    return (x.reshape(-1)[np.ravel_multi_index(idx, x.shape, mode="clip")]
            if isinstance(x, np.ndarray) and x.ndim else x)


def jets_from_metric(mj) -> list:
    """3x3 jet-matrix of a :class:`MetricJets` batch: its entry jets, with
    their structural zeros."""
    return mj.jets
