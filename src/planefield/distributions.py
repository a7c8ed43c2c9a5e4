"""Plane fields and their extrinsic curvature functionals.

A distribution is either the kernel of a 1-form or the span of two vector
fields.  For a tangent frame (S, T), a unit normal n and the Levi-Civita
connection, the toolkit computes

* the second fundamental form  B(S, T) = (1/2) <nabla_S T + nabla_T S, n>,
* the mean curvature           H = trace of B against the frame Gram matrix,
* the extrinsic curvature      K_e = det B / det Gram,
* the integrability residual   <[S, T], n> / |S wedge T|,
* the contact volume           alpha ^ d(alpha) as a 3-form coefficient.

B uses the *unit* normal throughout; H and K_e are Gram-weighted so any
(non-orthonormal) frame gives the same numbers.  No inverse metric enters
B: with the lowered normal nu = g n and the first-kind Christoffel symbols
Gamma_{l,ij} = (d_i g_jl + d_j g_il - d_l g_ij) / 2 contracted once into
M_ij = n^l Gamma_{l,ij}, ``curvature_arrays`` takes, one column at a time,
    <nabla_X Y, n> = (X^i d_i Y^k) nu_k + X^i M_ij Y^j   (Gamma^k_ij nu_k = M_ij),
    <[S, T], n>    = (S^i d_i T^k - T^i d_i S^k) nu_k.

The kernel frame of alpha spans the coordinate plane m of the largest
|alpha_m|.  A sweep block whose points pick more than one plane is split
into one group per plane: each group's frame, metric and normal entries
are gathered from the block's, the curvature runs on the group, and its
arrays are scattered back in block order, so every reduction sees the
values the whole block would give.  Dense frames (``distribution_frames``,
``tangent_frame``, the metric transfer) scatter each group's entries into
one array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import jetalg
from .errors import ConfigError, DegenerateDistributionError, open_output
from .expr import Jet1, batch_shape, jet_sqrt, point_at
from .geometry import (ExactSum, MetricField, MetricJets, OneForm,
                       VectorField, christoffel_contract, chunked_eval,
                       divergence_entries, grid_blocks, wedge_entries)
from .jetalg import (add, adjugate3, column, cross, dense, det3, div, dot3,
                     matvec, mul, neg, sub, take)

__all__ = [
    "Distribution", "FrameData", "CurvatureReport",
    "tangent_frame", "normal_field", "second_fundamental_form",
    "mean_curvature", "extrinsic_curvature", "frobenius_residual",
    "contact_volume", "classify", "write_point_csv", "integral_mean_curvature",
    "curvature_arrays", "distribution_frames", "normal_arrays",
]

_DEGENERATE_REL = 1e-12
_FRAME_DESC = {"kernel": "kernel-coordinate-planes", "span": "span", "explicit": "explicit"}


@dataclass
class Distribution:
    """Plane field given as ker(alpha) or span(S, T).

    ``co_orientation`` fixes the sign of the unit normal (kernel case:
    the g-dual of alpha times the sign; span case: the normal making the
    frame positively oriented, times the sign).
    """

    kind: str
    alpha: Optional[OneForm] = None
    span_fields: Optional[tuple] = None
    co_orientation: int = 1
    label: str = ""

    def __post_init__(self):
        if self.kind not in ("kernel", "span"):
            raise ConfigError(f"unknown distribution kind {self.kind!r}")
        if self.kind == "kernel" and self.alpha is None:
            raise ConfigError("kernel distribution needs a 1-form")
        if self.kind == "span" and (self.span_fields is None
                                    or len(self.span_fields) != 2):
            raise ConfigError("span distribution needs two vector fields")
        if self.co_orientation not in (-1, 1):
            raise ConfigError("co_orientation must be +1 or -1")

    @classmethod
    def kernel(cls, alpha: OneForm, co_orientation: int = 1, label: str = ""):
        return cls("kernel", alpha=alpha, co_orientation=co_orientation,
                   label=label)

    @classmethod
    def span(cls, s: VectorField, t: VectorField, co_orientation: int = 1,
             label: str = ""):
        return cls("span", span_fields=(s, t), co_orientation=co_orientation,
                   label=label)

    def flipped(self) -> "Distribution":
        return Distribution(self.kind, alpha=self.alpha,
                            span_fields=self.span_fields,
                            co_orientation=-self.co_orientation,
                            label=self.label)


@dataclass
class FrameData:
    """Evaluated tangent frame on a point batch."""

    val: np.ndarray    # (N, 2, 3)
    jac: np.ndarray    # (N, 2, 3, 3); [a, i, k] = d_i E_a^k
    ok: np.ndarray     # (N,) frame well-defined here
    desc: str


def _cross(s: tuple, t: tuple) -> tuple:
    """Entries of S x T and d_i (S x T) = d_i S x T + S x d_i T."""
    (s, ds), (t, dt) = s, t
    return cross(s, t), [list(map(add, cross(ds[i], t), cross(s, dt[i]))) for i in range(3)]


def _covector(dist: Distribution, points: np.ndarray) -> tuple:
    """Entries (a, da) of a covector whose kernel is the plane: alpha, or
    S x T for a span."""
    if dist.kind == "kernel":
        return dist.alpha._tape.entries(points)
    return _cross(*(f._tape.entries(points) for f in dist.span_fields))


def _plane_frame(a: list, da: list, m: int) -> tuple:
    """For each index j != m the vector alpha_m e_j - alpha_j e_m, which
    annihilates alpha: entries e[b][k] and de[b][i][k] = d_i E_b^k."""
    e, de = [], []
    for j in [k for k in range(3) if k != m]:
        e.append([None] * 3)
        e[-1][j], e[-1][m] = a[m], neg(a[j])
        de.append([[None] * 3 for _ in range(3)])
        for dv, row in zip(de[-1], da):
            dv[j], dv[m] = row[m], neg(row[j])
    return e, de


def _kernel_frame(a: list, da: list, shape: tuple) -> tuple:
    """Kernel frame from the coordinate plane m of the largest |alpha_m|
    (the first on ties), and where it is defined.  One group per plane that
    wins somewhere: its points idx (index arrays; ``None`` where one plane
    wins at every point) and its frame entries there, from the form's
    entries at idx, each group built as it is iterated."""
    mags = np.abs(np.stack([column(x, shape) for x in a]))
    m = np.argmax(mags, axis=0)
    ok = np.max(mags, axis=0) > 0.0
    if not m.size or m.min() == m.max():
        return [(None, *_plane_frame(a, da, int(m.max(initial=0))))], ok
    groups = [(p, np.nonzero(m == p)) for p in range(3)]
    return ((idx, *_plane_frame(take(a, idx), take(da, idx), p))
            for p, idx in groups if idx[0].size), ok


def _frame(dist: Distribution, points: np.ndarray, cov: tuple,
           frame: Optional[tuple] = None) -> tuple:
    """An iterable of frame groups (idx, e, de) with entries e[b][k] and
    de[b][i][k] = d_i E_b^k at the points idx, and validity: the kernel
    frame of the covector ``cov``, the span fields, or ``frame``, whose one
    group has idx ``None``, the whole batch."""
    fields = frame if frame is not None else dist.span_fields
    if fields is None:
        return _kernel_frame(*cov, batch_shape(points))
    e, de = zip(*(f._tape.entries(points) for f in fields))
    return [(None, list(e), list(de))], np.ones(batch_shape(points), dtype=bool)


def _dense_frame(groups, shape: tuple) -> tuple:
    """Frame values ``(..., b, k)`` and Jacobians ``(..., b, i, k) = d_i
    E_b^k`` of frame groups, each group's entries scattered to its points."""
    val, jac = np.zeros(shape + (2, 3)), np.zeros(shape + (2, 3, 3))
    for idx, e, de in groups:
        at, n = (Ellipsis, shape) if idx is None else (idx, idx[0].shape)
        val[at], jac[at] = dense(e, n), dense(de, n)
    return val, jac


def distribution_frames(dist: Distribution, points: np.ndarray,
                        frame: Optional[tuple] = None) -> FrameData:
    """Tangent frame (values + Jacobians) at a point batch.

    ``frame`` optionally overrides the derived frame with two explicit
    vector fields (they are trusted to span the plane; classify checks
    Gram degeneracy downstream either way).
    """
    cov = _covector(dist, points) if frame is None and dist.kind == "kernel" else None
    groups, ok = _frame(dist, points, cov, frame)
    val, jac = _dense_frame(groups, batch_shape(points))
    return FrameData(val=val, jac=jac, ok=ok,
                     desc=_FRAME_DESC[dist.kind if frame is None else "explicit"])


def _unit_normal(mj: MetricJets, a: list, co_orientation: int) -> tuple:
    """Unit normal entries co * g^-1 a / |a|_g and where they are defined;
    g^-1 is the identity where the metric is not SPD.  Floating-point
    warnings are off: an entry that overflows is left non-finite."""
    with np.errstate(all="ignore"):
        raised = matvec(mj.inv_entries(), a)
        norm2 = dot3(a, raised)
        root = np.sqrt(norm2)
        n = [div(mul(float(co_orientation), r), root) for r in raised]
    return n, mj.spd & (norm2 > 0.0)


def normal_arrays(mj: MetricJets, dist: Distribution,
                  points: np.ndarray) -> tuple:
    """Unit normal values (..., 3) and a validity mask."""
    n, ok = _unit_normal(mj, _covector(dist, points)[0], dist.co_orientation)
    return dense(n, mj.shape), ok


def normal_jets(mj: MetricJets, dist: Distribution,
                points: np.ndarray) -> list:
    """Unit normal as a jet-vector (exact first partials, each a full
    column); used for divergence cross-checks."""
    return _normal_jets(mj, _jets(*_covector(dist, points), mj.shape), dist.co_orientation)


def _jets(v: list, dv: list, shape: tuple) -> list:
    """Jet-vector of entries v[k] and dv[i][k] = d_i v_k, every value and
    partial a full column."""
    return [Jet1(column(x, shape), [column(row[k], shape) for row in dv])
            for k, x in enumerate(v)]


def _entries(v: list) -> tuple:
    """Entries v[k] and dv[i][k] = d_i v_k of a jet-vector."""
    return [c.value for c in v], [[c.partials[i] for c in v] for i in range(3)]


def _normal_jets(mj: MetricJets, a: list, co_orientation: int) -> list:
    """n = adj(g) a / sqrt(det g * (a adj(g) a)) for a covector jet-vector a."""
    g = jetalg.jets_from_metric(mj)
    adj = adjugate3(g)
    w = matvec(adj, a)
    denom = jet_sqrt(det3(g, adj) * dot3(a, w))
    return [float(co_orientation) * c / denom for c in w]


def _normal_divergence(mj: MetricJets, b: "_Block", co_orientation: int):
    """div n of a block's unit normal on an SPD batch, from the covector's
    tape jets."""
    n = _normal_jets(mj, [Jet1(x, [row[k] for row in b.da]) for k, x in enumerate(b.a)],
                     co_orientation)
    return divergence_entries(mj, *_entries(n))


def _curvature(mj: MetricJets, e: list, de: list, n: list,
               frame_ok: np.ndarray) -> dict:
    """All pointwise curvature quantities for frame entries e[b][k] with
    de[b][i][k] = d_i E_b^k and unit normal entries n[k] (formulas in the
    module docstring), with numpy's floating-point warnings off."""
    with np.errstate(all="ignore"):
        g = mj.g
        nu = matvec(g, n)                           # lowered normal g n
        m = christoffel_contract(mj.dg, n)
        me = [matvec(m, e[b]) for b in range(2)]
        del m                                       # each array goes after its last use
        # w[a][b]^k = E_a^i d_i E_b^k, the derivative of E_b along E_a
        w = [[matvec(list(zip(*de[b])), e[a]) for b in range(2)] for a in range(2)]
        d = [[dot3(w[a][b], nu) for b in range(2)] for a in range(2)]
        bracket = column(dot3(list(map(sub, w[0][1], w[1][0])), nu), mj.shape)
        del w
        b00, b01, b11 = (column(x, mj.shape) for x in (
            add(d[0][0], dot3(e[0], me[0])),
            add(mul(0.5, add(d[0][1], d[1][0])), dot3(e[0], me[1])),
            add(d[1][1], dot3(e[1], me[1]))))
        del d, me
        ge = [matvec(g, e[b]) for b in range(2)]
        gram00, gram01, gram11 = (column(x, mj.shape) for x in (
            dot3(e[0], ge[0]), dot3(e[0], ge[1]), dot3(e[1], ge[1])))
        del ge

        scale = gram00 * gram11
        det_gram = scale - gram01 ** 2
        ok = frame_ok & mj.spd & (det_gram > _DEGENERATE_REL * np.maximum(scale, 1e-300))

        h = (b00 * gram11 + b11 * gram00 - 2.0 * b01 * gram01) / det_gram
        k_e = (b00 * b11 - b01 ** 2) / det_gram
        frob = bracket / np.sqrt(det_gram)
        b_norm = np.sqrt(b00 ** 2 + 2.0 * b01 ** 2 + b11 ** 2)
        return {
            "b00": b00, "b01": b01, "b11": b11,
            "gram00": gram00, "gram01": gram01, "gram11": gram11,
            "det_gram": det_gram, "h": h, "k_e": k_e,
            "frobenius_residual": frob, "b_norm": b_norm, "ok": ok,
        }


def curvature_arrays(mj: MetricJets, fd: FrameData, nval: np.ndarray) -> dict:
    """All pointwise curvature quantities for a dense frame and unit normal."""
    e = [[fd.val[..., b, k] for k in range(3)] for b in range(2)]
    de = [[[fd.jac[..., b, i, k] for k in range(3)] for i in range(3)] for b in range(2)]
    return _curvature(mj, e, de, [nval[..., k] for k in range(3)], fd.ok)


def _contact_volume(a: list, da: list):
    """alpha ^ d(alpha), with d(alpha)_jk = d_j a_k - d_k a_j."""
    return wedge_entries(a, [[None if j == k else sub(da[j][k], da[k][j]) for k in range(3)]
                             for j in range(3)])


@dataclass
class _Block:
    """A plane field evaluated once on a batch: curvature arrays and the
    entries of unit normal and covector (see ``_block_arrays``)."""

    arrs: dict            # curvature arrays; "ok" includes a well-defined normal
    frame_ok: np.ndarray
    gram_ok: np.ndarray   # frame defined, metric SPD, frame Gram non-degenerate
    n: list
    normal_ok: np.ndarray
    a: list               # a[k] and da[i][k] = d_i a_k
    da: list


def _block_arrays(mj: MetricJets, dist: Distribution, points: np.ndarray,
                  frame: Optional[tuple] = None) -> _Block:
    """Curvature arrays, frame and unit normal at a batch from one
    evaluation of the plane's defining fields.  Where the kernel frame's
    coordinate plane changes inside the batch, the curvature runs on each
    plane's points and its arrays are scattered back in batch order."""
    a, da = _covector(dist, points)
    frames, frame_ok = _frame(dist, points, (a, da), frame)
    n, nok = _unit_normal(mj, a, dist.co_orientation)
    arrs = {}
    for idx, e, de in frames:
        if idx is None:
            arrs = _curvature(mj, e, de, n, frame_ok)
            continue
        for key, x in _curvature(mj.take(idx), e, de, take(n, idx), frame_ok[idx]).items():
            if key not in arrs:
                arrs[key] = np.empty(mj.shape, x.dtype)
            arrs[key][idx] = x
    gram_ok = arrs["ok"]
    arrs["ok"] = gram_ok & nok
    return _Block(arrs, frame_ok, gram_ok, n, nok, a, da)


# ---------------------------------------------------------------------------
# single-point operations (spec surface)


def _single(points) -> tuple:
    p = np.asarray(points, dtype=float)
    if p.ndim == 1:
        return p.reshape(3, 1), True
    return p, False


def _require_plane(ok: np.ndarray, points: np.ndarray, detail: str = "") -> None:
    """Raise DegenerateDistributionError at the first point where ``ok`` is false."""
    if not np.all(ok):
        raise DegenerateDistributionError(point_at(points, int(np.argmax(~ok))), detail)


def _point_block(metric: MetricField, dist: Distribution, point,
                 frame: Optional[tuple] = None) -> tuple:
    """The sweep's block kernel at a point or a small batch, after the SPD
    check: (block, points as (3, N), whether the input was one point)."""
    p, squeeze = _single(point)
    mj = metric.eval(p)
    mj.require_spd(p)
    return _block_arrays(mj, dist, p, frame), p, squeeze


def tangent_frame(metric: MetricField, dist: Distribution, point,
                  frame: Optional[tuple] = None) -> tuple:
    """Two vectors spanning the plane at a point."""
    b, p, squeeze = _point_block(metric, dist, point, frame)
    _require_plane(b.frame_ok, p, "vanishing defining form")
    _require_plane(b.gram_ok, p, "frame Gram degenerate")
    val = _dense_frame(_frame(dist, p, (b.a, b.da), frame)[0], p.shape[1:])[0]
    e0, e1 = val[..., 0, :], val[..., 1, :]
    return (e0[0], e1[0]) if squeeze else (e0, e1)


def normal_field(metric: MetricField, dist: Distribution, point) -> np.ndarray:
    """Unit normal at a point, signed by the co-orientation."""
    b, p, squeeze = _point_block(metric, dist, point)
    _require_plane(b.normal_ok, p, "vanishing defining form")
    n = dense(b.n, p.shape[1:])
    return n[0] if squeeze else n


def _point_arrays(metric, dist, point, frame=None) -> dict:
    b, p, squeeze = _point_block(metric, dist, point, frame)
    _require_plane(b.arrs["ok"], p, "degenerate plane field")
    arrs = _canonical(b.arrs, b.arrs["ok"])
    arrs["_squeeze"] = squeeze
    return arrs


def _point_value(key, metric, dist, point, frame):
    a = _point_arrays(metric, dist, point, frame)
    return float(a[key][0]) if a["_squeeze"] else a[key]


def second_fundamental_form(metric: MetricField, dist: Distribution, point,
                            frame: Optional[tuple] = None) -> np.ndarray:
    """Symmetric 2x2 matrix of B in the (derived or explicit) frame."""
    a = _point_arrays(metric, dist, point, frame)
    b = np.stack([np.stack([a["b00"], a["b01"]], axis=-1),
                  np.stack([a["b01"], a["b11"]], axis=-1)], axis=-2)
    return b[0] if a["_squeeze"] else b


def mean_curvature(metric: MetricField, dist: Distribution, point,
                   frame: Optional[tuple] = None):
    return _point_value("h", metric, dist, point, frame)


def extrinsic_curvature(metric: MetricField, dist: Distribution, point,
                        frame: Optional[tuple] = None):
    return _point_value("k_e", metric, dist, point, frame)


def frobenius_residual(metric: MetricField, dist: Distribution, point,
                       frame: Optional[tuple] = None):
    return _point_value("frobenius_residual", metric, dist, point, frame)


def contact_volume(alpha: OneForm, point):
    """alpha ^ d(alpha) against the chart volume element dx1^dx2^dx3."""
    p, squeeze = _single(point)
    out = column(_contact_volume(*alpha._tape.entries(p)), p.shape[1:]) + 0.0
    return float(out[0]) if squeeze else np.array(out)


# ---------------------------------------------------------------------------
# grid classification


@dataclass
class CurvatureReport:
    """Grid sweep of the curvature functionals plus the sign classification."""

    chart_id: str
    grid: tuple
    tol: float
    frame_desc: str
    classification: str
    aggregates: dict
    worst_points: list
    errors: list
    n_points: int
    n_valid: int

    def body(self) -> dict:
        """Deterministic JSON-safe payload (no timings)."""
        return {
            "chart": self.chart_id,
            "grid": list(self.grid),
            "tol": self.tol,
            "frame": self.frame_desc,
            "classification": self.classification,
            "aggregates": self.aggregates,
            "worst_points": self.worst_points,
            "errors": self.errors,
            "n_points": self.n_points,
            "n_valid": self.n_valid,
        }


def _classification(k_min: float, k_max: float, tol: float) -> str:
    if max(abs(k_min), abs(k_max)) <= tol:
        return "parabolic"
    if k_min >= tol:
        return "elliptic"
    if k_max <= -tol:
        return "hyperbolic"
    return "mixed"


_FIELDS = ("k_e", "h", "frobenius_residual", "contact_volume", "b_norm")
_CSV_FIELDS = ("b00", "b01", "b11", "gram00", "gram01", "gram11",
               "h", "k_e", "frobenius_residual", "contact_volume")
_N_WORST = 10
_N_ERRORS = 32


@dataclass
class _SweepBlock:
    """What one block of a classify sweep contributes to the report; point
    indices are local to the block."""

    n_points: int
    n_valid: int
    stats: dict              # field -> (min, max, ExactSum) over valid points
    worst: np.ndarray        # top |K_e| valid points, ties by index
    worst_vals: np.ndarray   # (len(worst), 3): k_e, h, b_norm there
    invalid: np.ndarray      # the first _N_ERRORS invalid points
    invalid_spd: np.ndarray  # whether the metric was SPD there


def _top(valid: np.ndarray, k_e: np.ndarray) -> np.ndarray:
    """The _N_WORST points of ``valid`` (ascending) with the largest |K_e|,
    ties by index and NaN last: a stable sort of only the keys at or above
    the _N_WORST-th largest (a NaN cut keeps them all)."""
    key = -np.abs(k_e[valid])
    if key.size > _N_WORST:
        keep = ~(key > np.partition(key, _N_WORST - 1)[_N_WORST - 1])
        valid, key = valid[keep], key[keep]
    return valid[np.argsort(key, kind="stable")[:_N_WORST]]


def _summarise(arrs: dict, spd: np.ndarray) -> _SweepBlock:
    """A block's contribution, its points numbered in C order."""
    arrs = {k: v.ravel() for k, v in arrs.items()}
    ok = arrs.pop("ok")
    valid = np.flatnonzero(ok)
    stats = {}
    if valid.size:
        for name in _FIELDS:
            v = arrs[name] if valid.size == ok.size else arrs[name][ok]
            stats[name] = (np.min(v) + 0.0, np.max(v) + 0.0, ExactSum(v))
    top = _top(valid, arrs["k_e"])
    bad = np.flatnonzero(~ok)[:_N_ERRORS]
    return _SweepBlock(
        n_points=ok.size, n_valid=valid.size, stats=stats, worst=top,
        worst_vals=np.stack([arrs[k][top] for k in ("k_e", "h", "b_norm")],
                            axis=-1) + 0.0,
        invalid=bad, invalid_spd=spd[np.unravel_index(bad, spd.shape)])


def _canonical(arrs: dict, ok: np.ndarray) -> dict:
    """Per-point fields as reported: every exact zero is +0.0, and where
    ``ok`` is false every field but the contact volume is NaN.  The sign of
    a zero is not part of any result; the kernel's zeros carry whatever
    sign their arithmetic gave."""
    return {k: v if k == "ok" else v + 0.0 if k == "contact_volume"
            else np.where(ok, v + 0.0, np.nan) for k, v in arrs.items()}


def _sweep_arrays(metric, dist, pts, frame=None) -> tuple:
    """A block's curvature arrays with the contact volume, and its SPD mask."""
    mj = metric.eval(pts)
    b = _block_arrays(mj, dist, pts, frame)
    b.arrs["contact_volume"] = column(_contact_volume(b.a, b.da), mj.shape)
    return b.arrs, mj.spd


def _read_axes(metric: MetricField, dist: Distribution, frame: Optional[tuple] = None) -> set:
    """The chart axes that the metric, the plane's defining fields and the
    frame read: every per-point value of the block kernel depends on these
    coordinates alone."""
    fields = (dist.alpha,) if dist.kind == "kernel" else dist.span_fields
    return metric._tape.axes.union(*(f._tape.axes for f in fields + tuple(frame or ())))


def _require_tol(tol: float) -> None:
    if not 0 < tol < np.inf:
        raise ConfigError(f"tolerance must be positive and finite, got {tol}")


def classify(metric: MetricField, dist: Distribution, grid=(16, 16, 16),
             tol: float = 1e-8, jobs: int = 1,
             frame: Optional[tuple] = None) -> CurvatureReport:
    """Sweep the chart grid and classify the plane field by the sign of its
    extrinsic curvature (|K_e| <= tol everywhere -> parabolic, K_e >= tol
    -> elliptic, K_e <= -tol -> hyperbolic, anything else -> mixed).

    Per-point failures (non-SPD metric, degenerate frame) are collected
    into the report instead of aborting the sweep.  The sweep runs on the
    grid's quotient by the axes the fields do not read, each point standing
    for its fibre of ``m`` grid points.  Each block is reduced to its count,
    per-field min/max and exact sum, its top 10 points by |K_e| and its
    first 32 invalid points; merging these in block order, with counts and
    sums times ``m``, makes the report independent of ``jobs``, the block
    size and the fibre.  The top 10 and first 32 grid points lie over the
    quotient's top 10 and first 32, among the first 10 and 32 members of
    each fibre.
    """
    _require_tol(tol)
    sample = metric.chart.sample_grid(grid)
    read = _read_axes(metric, dist, frame)
    axes, m = sample.quotient(read)
    blocks = chunked_eval(lambda pts: _summarise(*_sweep_arrays(metric, dist, pts, frame)),
                          axes, jobs)
    offsets = np.cumsum([0] + [b.n_points for b in blocks[:-1]])
    n_points = math.prod(sample.shape)
    n_valid = m * sum(b.n_valid for b in blocks)

    def fibres(q, vals, k):
        """The grid indices of the first k members of each fibre over the
        quotient points q, and each one's row of ``vals``."""
        idx = sample.members(read, q, k)
        return idx.ravel(), np.repeat(vals, idx.shape[1], axis=0)

    invalid = np.concatenate([o + b.invalid for o, b in zip(offsets, blocks)])[:_N_ERRORS]
    spd = np.concatenate([b.invalid_spd for b in blocks])[:_N_ERRORS]
    idx, spd = fibres(invalid, spd, _N_ERRORS)
    errors = [{"point": sample.point(idx[j]),
               "reason": "not-spd" if not spd[j] else "degenerate-frame"}
              for j in np.argsort(idx)[:_N_ERRORS]]
    n_invalid = n_points - n_valid
    if n_invalid > _N_ERRORS:
        errors.append({"point": None,
                       "reason": f"... {n_invalid - _N_ERRORS} more invalid points"})

    if n_valid == 0:
        aggregates, classification, worst = {}, "undefined", []
    else:
        stats = [b.stats for b in blocks if b.n_valid]
        aggregates = {name: {
            "min": float(np.min([s[name][0] for s in stats])),
            "max": float(np.max([s[name][1] for s in stats])),
            "mean": float(sum((s[name][2] for s in stats), ExactSum()) * m) / n_valid,
        } for name in _FIELDS}
        classification = _classification(aggregates["k_e"]["min"],
                                         aggregates["k_e"]["max"], tol)
        idx = np.concatenate([o + b.worst for o, b in zip(offsets, blocks)])
        vals = np.concatenate([b.worst_vals for b in blocks])
        top = np.lexsort((idx, -np.abs(vals[:, 0])))[:_N_WORST]
        idx, vals = fibres(idx[top], vals[top], _N_WORST)
        worst = [{
            "point": sample.point(idx[j]),
            "k_e": float(vals[j, 0]),
            "h": float(vals[j, 1]),
            "b_norm": float(vals[j, 2]),
        } for j in np.lexsort((idx, -np.abs(vals[:, 0])))[:_N_WORST]]
    return CurvatureReport(
        chart_id=metric.chart.chart_id, grid=tuple(grid), tol=tol,
        frame_desc=_FRAME_DESC[dist.kind if frame is None else "explicit"],
        classification=classification,
        aggregates=aggregates, worst_points=worst, errors=errors,
        n_points=n_points, n_valid=n_valid)


def _csv_rows(columns) -> str:
    """CSV lines of float columns (raveled in C order), each value the
    ``repr`` that reads back to it."""
    return "\n".join(map(",".join, zip(*(map(repr, c.ravel().tolist()) for c in columns)))) + "\n"


def write_point_csv(metric: MetricField, dist: Distribution, path,
                    grid=(16, 16, 16), jobs: int = 1) -> int:
    """Write a row per ``classify`` grid point: the point and its
    ``_CSV_FIELDS`` as a report gives them.  Return the invalid count."""
    axes = metric.chart.sample_grid(grid).axes

    def kernel(pts):
        arrs, _ = _sweep_arrays(metric, dist, pts)
        return _canonical({k: arrs[k] for k in ("ok",) + _CSV_FIELDS}, arrs["ok"])

    with open_output(path) as fh:
        blocks = chunked_eval(kernel, axes, jobs)
        fh.write(",".join(("p1", "p2", "p3") + _CSV_FIELDS) + "\n")
        for pts, b in zip(grid_blocks(axes), blocks):
            fh.write(_csv_rows([*np.broadcast_arrays(*pts), *(b[k] for k in _CSV_FIELDS)]))
    return sum(int(np.count_nonzero(~b["ok"])) for b in blocks)


def integral_mean_curvature(metric: MetricField, dist: Distribution,
                            grid=(32, 32, 32), jobs: int = 1,
                            defect: bool = True) -> dict:
    """Quadrature of H over a fully periodic chart, plus the worst pointwise
    gap between H and the divergence route -div(n).

    The sweep runs on the grid's quotient by the axes the fields do not
    read (see ``classify``).  Each block is reduced to the exact sum of its
    weighted H and its largest defect, so the result does not depend on
    ``jobs``, the block size or the fibre."""
    chart = metric.chart
    if not all(chart.periodic):
        raise ConfigError("integral of H requires a fully periodic chart")
    sample = chart.quadrature_grid(grid)
    axes, m = sample.quotient(_read_axes(metric, dist))

    def kernel(pts):
        mj = metric.eval(pts)
        mj.require_spd(pts)
        b = _block_arrays(mj, dist, pts)
        _require_plane(b.arrs["ok"], pts)
        out = {"weighted_h": ExactSum(b.arrs["h"] * np.sqrt(mj.det()))}
        if defect:
            div_n = _normal_divergence(mj, b, dist.co_orientation)
            out["defect"] = np.max(np.abs(b.arrs["h"] + div_n))
        return out

    blocks = chunked_eval(kernel, axes, jobs)
    integral = float(sum((b["weighted_h"] for b in blocks), ExactSum()) * m)
    result = {
        "chart": chart.chart_id,
        "grid": list(grid),
        "integral_h": integral * sample.cell_volume,
        "n_points": math.prod(sample.shape),
    }
    if defect:
        result["max_pointwise_defect"] = float(np.max([b["defect"] for b in blocks]))
    return result
