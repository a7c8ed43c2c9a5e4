"""The package's 3x3 algebra, written once over component-first entries.

A matrix is a nested list ``m[i][j]`` and a vector a list ``v[k]`` whose
entries are either batch columns (numpy arrays of one point-batch shape)
or first-order jets (:class:`~planefield.expr.Jet1`).  The formulas are
plain arithmetic on entries, so the same code gives metric minors and
inverses on sweep columns and, on jets, exact Jacobians for derived fields
(unit normals, frame pushforwards, transferred metrics) without any
symbolic blow-up: only first derivatives of the primitive fields are ever
consumed.
"""

from __future__ import annotations

import numpy as np

from .expr import Jet1

__all__ = [
    "dot3", "matvec", "cross", "adjugate3", "det3",
    "jets_from_metric", "jets_from_components", "vector_values",
    "vector_jacobian",
]


def dot3(u, v):
    """u_0 v_0 + u_1 v_1 + u_2 v_2."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def matvec(m, v) -> list:
    """(m v)_i = m_ij v_j."""
    return [dot3(m[i], v) for i in range(3)]


def cross(u, v) -> list:
    """(u x v)_l = eps_ljk u_j v_k."""
    return [u[(l + 1) % 3] * v[(l + 2) % 3] - u[(l + 2) % 3] * v[(l + 1) % 3]
            for l in range(3)]


def adjugate3(m) -> list:
    """Transposed cofactor matrix, so m^-1 = adjugate / det.  With cyclic
    row and column indices every 2x2 minor already carries its sign."""
    adj = [[None] * 3 for _ in range(3)]
    for i in range(3):
        i1, i2 = (i + 1) % 3, (i + 2) % 3
        for j in range(3):
            j1, j2 = (j + 1) % 3, (j + 2) % 3
            adj[j][i] = m[i1][j1] * m[i2][j2] - m[i1][j2] * m[i2][j1]
    return adj


def det3(m, adj):
    """det m as the expansion of m along row 0 against its adjugate."""
    return m[0][0] * adj[0][0] + m[0][1] * adj[1][0] + m[0][2] * adj[2][0]


def jets_from_metric(mj) -> list:
    """3x3 jet-matrix of a :class:`MetricJets` batch: its entry jets, with
    their structural zeros."""
    return mj.jets


def jets_from_components(val: np.ndarray, jac: np.ndarray) -> list:
    """Jet-vector from field evaluation arrays (values, Jacobian), with
    contiguous partials."""
    return [Jet1(np.ascontiguousarray(val[..., k]),
                 [np.ascontiguousarray(jac[..., i, k]) for i in range(3)])
            for k in range(3)]


def vector_values(v: list) -> np.ndarray:
    return np.stack([c.value for c in v], axis=-1)


def vector_jacobian(v: list) -> np.ndarray:
    """jac[..., i, k] = d_i v^k."""
    return np.stack([np.moveaxis(c.gradient, 0, -1) for c in v], axis=-1)
