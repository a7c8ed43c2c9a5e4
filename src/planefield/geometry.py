"""Charts, metric evaluation, connection coefficients and quadrature.

Everything here is batched: a point batch is an array ``(3, N)`` (``(3,)``
for one point) or three coordinate arrays that broadcast together, as a
sweep block's do (see below).  Internally a metric is kept
component-first, as :mod:`planefield.jetalg` entries ``g[i][j]`` and
``dg[l][i][j] = d_l g_ij`` (columns, floats where constant, ``None`` where
structurally zero), with the closed-form adjugate over the determinant as
its inverse.  Dense arrays, with the batch shape in front of the index
slots, are the public view, and the operands of the divergence's two
einsums on a non-constant metric:

* metric values ``g[..., i, j]``, partials ``dg[..., l, i, j] = d_l g_ij``
* vector fields ``X[..., k]`` with Jacobian ``jac[..., i, k] = d_i X^k``
* 1-forms ``a[..., k]`` with Jacobian ``jac[..., i, k] = d_i a_k``
* Christoffel symbols ``Gamma[..., k, i, j]``

``components`` turns ``x[..., i, j]`` into the nested ``x[i][j]`` jetalg
takes.

Grid sweeps run on grid-aligned blocks of at most ``BLOCK_POINTS``
(16,384) points, large enough that a block's arrays, not its Python
dispatch, set its cost: a slab of whole axis-0 planes, or of rows of one
plane where a plane is larger, or of one row's points where a row is.
A block is a contiguous C-order range of the grid, given to the kernel
as three coordinate arrays in broadcast shape (``(k, 1, 1)``, ``(1, n2,
1)``, ``(1, 1, n3)``), so the jet tape evaluates each register only on
the axes it reads, and reduced to a small result.  With ``jobs > 1`` the
calling process (process 0) and children forked for the sweep, ``P``
processes in all, take the blocks by fixed stride: block ``b`` runs on
process ``b mod P``.  A block sum is one integer (``ExactSum``, which
adds a block's mantissas per binary exponent in numpy) and totals are
rounded once, correctly, so results do not depend on the block size or
on which process ran which block.

A sweep whose fields read only some of the chart's axes runs on the
grid's quotient by the axes they do not read (``GridSample.quotient``):
each unread coordinate is fixed at its first point, and each quotient
point stands for the ``fibre`` grid points that share its coordinates on
the read axes.  Its counts and exact sums are multiplied by the fibre
size; ``GridSample.members`` names the grid points over a quotient point
in C order.  Where the fields read every axis, the quotient is the grid
and the fibre size 1.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Callable

import numpy as np

from . import expr
from .errors import ConfigError, NotSPDError, SingularSampleError
from .jetalg import add, adjugate3, dense, det3, div, dot3, matvec, mul, sub

__all__ = [
    "SingularLocus", "Chart", "GridSample", "MetricField", "MetricJets",
    "VectorField", "OneForm", "LEVI",
    "metric_at", "christoffel", "covariant_derivative", "d_oneform",
    "wedge3", "wedge_entries", "divergence", "divergence_raw",
    "divergence_entries", "integrate_scalar",
    "pairwise_sum", "ExactSum", "chunked_eval", "grid_blocks", "BLOCK_POINTS",
    "first_failing_minor",
]

LEVI = np.zeros((3, 3, 3))
LEVI[0, 1, 2] = LEVI[1, 2, 0] = LEVI[2, 0, 1] = 1.0
LEVI[0, 2, 1] = LEVI[2, 1, 0] = LEVI[1, 0, 2] = -1.0
_LEVI_TERMS = ((0, 1, 2, add), (0, 2, 1, sub), (1, 0, 2, sub),
               (1, 2, 0, add), (2, 0, 1, add), (2, 1, 0, sub))


BLOCK_POINTS = 16384
_MAX_POINTS = (1 << 63) - 1  # the largest grid whose point indices fit in int64
_SUM_CHUNK = 1 << 26        # np.bincount adds at most this many mantissa halves exactly

_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_SYMMETRIC = [[0, 1, 2], [1, 3, 4], [2, 4, 5]]   # (i, j) -> index in _UPPER


def pairwise_sum(values) -> float:
    """Correctly rounded sum of ``values``, so it does not depend on their
    order; ±inf where that sum overflows.  Non-finite input gives the IEEE
    sum of its non-finite values (inf or nan) instead of raising."""
    return float(ExactSum(values))


class ExactSum:
    """The sum of some values kept without rounding: ``n`` counts units of
    2**-1126, of which every finite double is a whole multiple, and
    ``special`` is the IEEE sum of the non-finite values (0.0 if none).
    Adding block sums and rounding once with ``float()`` gives the correctly
    rounded total of all values, whatever the blocks and their order.

    ``n`` is found per chunk of at most 2**26 values: the 53-bit mantissas,
    split in two 26/27-bit halves, are added per binary exponent with
    ``np.bincount`` (exact, every bin total is an integer below 2**53) and
    folded into a Python int (a small superaccumulator, Neal 2015)."""

    __slots__ = ("n", "special")

    def __init__(self, values=()):
        v = np.asarray(values, dtype=float).ravel()
        self.n, self.special = 0, 0.0
        if not v.any():                          # no work for an all-zero block
            return
        finite = np.isfinite(v)
        if not finite.all():
            self.special = float(sum(v[~finite].tolist()))
            v = v[finite]
        for start in range(0, v.size, _SUM_CHUNK):
            m, e = np.frexp(v[start:start + _SUM_CHUNK])
            x = np.ldexp(m, 27)
            hi = np.floor(x)                     # v = (hi * 2**26 + lo) * 2**(e - 53)
            lo = np.ldexp(x - hi, 26)
            low = int(e.min())                   # >= -1073, so e - 53 >= -1126
            bins = e - low
            hi, lo = np.bincount(bins, hi), np.bincount(bins, lo)
            nz = np.flatnonzero(np.abs(hi) + lo)
            n = sum(((int(h) << 26) + int(l)) << b
                    for b, h, l in zip(nz.tolist(), hi[nz].tolist(), lo[nz].tolist()))
            self.n += n << (low + 1073)

    def __add__(self, other: "ExactSum") -> "ExactSum":
        out = ExactSum()
        out.n, out.special = self.n + other.n, self.special + other.special
        return out

    def __mul__(self, copies: int) -> "ExactSum":
        """The sum of ``copies`` (a positive int) copies of the values; the
        IEEE sum of copies of the non-finite ones is the same inf or nan."""
        out = ExactSum()
        out.n, out.special = self.n * copies, self.special
        return out

    def __float__(self) -> float:
        if self.special:
            return self.special
        try:
            return self.n / (1 << 1126)          # int true division rounds correctly
        except OverflowError:
            return math.inf if self.n > 0 else -math.inf


def _layout(shape: tuple) -> tuple:
    """Blocks cut axis ``level`` in runs of ``k``, once per index of the
    axes before it; also their number."""
    level = next(l for l in range(3) if math.prod(shape[l + 1:]) <= BLOCK_POINTS)
    k = BLOCK_POINTS // math.prod(shape[level + 1:])
    return level, k, math.prod(shape[:level]) * -(-shape[level] // k)


def grid_blocks(axes):
    """The blocks of the mesh of three axis arrays in C order, each as
    coordinate arrays in broadcast shape, views of ``axes``."""
    shape = tuple(len(a) for a in axes)
    level, k, _ = _layout(shape)
    for outer in np.ndindex(*shape[:level]):
        for start in range(0, shape[level], k):
            cuts = [slice(i, i + 1) for i in outer] + [slice(start, start + k)] + [slice(None)] * 2
            yield tuple(a[cut].reshape([-1 if j == i else 1 for j in range(3)])
                        for i, (a, cut) in enumerate(zip(axes, cuts)))


def _run_blocks(fn: Callable, axes, first: int, stride: int) -> dict:
    """Run blocks ``first``, ``first + stride``, ... in order until none is
    left or one raises; return ``{block: (ok, result or error)}``."""
    done = {}
    for block, pts in enumerate(grid_blocks(axes)):
        if block % stride != first:
            continue
        try:
            done[block] = (True, fn(pts))
        except Exception as exc:
            done[block] = (False, exc)
            break
    return done


def _send_blocks(fn: Callable, axes, first: int, stride: int, conn) -> None:
    conn.send(_run_blocks(fn, axes, first, stride))
    conn.close()


def _forked_blocks(ctx, fn: Callable, axes, procs: int) -> dict:
    """``_run_blocks`` with stride ``procs`` on this process (from block 0)
    and on ``procs - 1`` children forked from it (from blocks 1, 2, ...),
    merged; every child is terminated and joined on return."""
    children = []
    try:
        for first in range(1, procs):
            reader, writer = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_send_blocks, args=(fn, axes, first, procs, writer))
            child.start()
            # later children must not inherit this end, so that the reader
            # sees EOF as soon as its own child exits
            writer.close()
            children.append((child, reader))
        done = _run_blocks(fn, axes, 0, procs)
        for child, reader in children:
            try:
                done.update(reader.recv())
            except EOFError:
                child.join()
                raise ChildProcessError(
                    f"sweep process {child.pid} exited with code {child.exitcode} "
                    "before sending its blocks") from None
        return done
    finally:
        for child, reader in children:
            child.terminate()
            child.join()
            reader.close()


def chunked_eval(fn: Callable, axes, jobs: int = 1) -> list:
    """Apply ``fn`` to the grid-aligned blocks (``grid_blocks``) of the
    mesh of three axis arrays and return its results in block order.  The
    blocks are contiguous C-order ranges of the grid, so callers add the
    sizes of earlier blocks to a block's own point indices.

    With ``jobs > 1`` the sweep runs on ``P = min(jobs, number of blocks)``
    processes: block ``b`` goes to process ``b mod P``, where process 0 is
    the caller and the others are children forked for this call.  Each
    process runs its blocks in order and stops at its first error, so every
    block before the first failing one still runs and that error is raised,
    as with one process.  The children inherit ``fn`` (a closure is fine)
    and ``axes`` and send back their pickled results once; a child that
    exits without sending raises ``ChildProcessError``.  No child outlives
    the call.  Blocks run serially here without ``fork`` or with other
    Python threads alive."""
    blocks = _layout(tuple(len(a) for a in axes))[2]
    procs = min(jobs, blocks)
    if procs > 1 and threading.active_count() == 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            done = _forked_blocks(multiprocessing.get_context("fork"), fn, axes, procs)
            results = []
            for block in range(blocks):
                ok, value = done[block]
                if not ok:
                    raise value
                results.append(value)
            return results
    return [fn(pts) for pts in grid_blocks(axes)]


# ---------------------------------------------------------------------------
# charts


@dataclass(frozen=True)
class SingularLocus:
    coordinate: str
    value: float
    note: str = ""


@dataclass
class Chart:
    """Named coordinates on a rectangular box, with periodicity flags and
    declared coordinate singularities that samplers must avoid."""

    coord_names: tuple
    domain: tuple
    periodic: tuple
    singular_loci: tuple = ()
    chart_id: str = "chart"

    def __post_init__(self):
        self.coord_names = tuple(self.coord_names)
        self.domain = tuple((float(lo), float(hi)) for lo, hi in self.domain)
        self.periodic = tuple(bool(p) for p in self.periodic)
        self.singular_loci = tuple(self.singular_loci)
        if len(self.coord_names) != 3 or len(set(self.coord_names)) != 3:
            raise ConfigError(f"chart needs 3 distinct coordinates, got {self.coord_names!r}")
        if len(self.domain) != 3 or len(self.periodic) != 3:
            raise ConfigError("chart needs 3 domain intervals and 3 periodicity flags")
        for name, (lo, hi) in zip(self.coord_names, self.domain):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ConfigError(f"interval for {name!r} is not finite: [{lo}, {hi}]")
            if not lo < hi:
                raise ConfigError(f"empty interval for {name!r}: [{lo}, {hi}]")
            if not math.isfinite(hi - lo):
                raise ConfigError(f"interval for {name!r} is too wide: [{lo}, {hi}]")
        for locus in self.singular_loci:
            if locus.coordinate not in self.coord_names:
                raise ConfigError(f"singular locus names unknown coordinate {locus.coordinate!r}")
            if not math.isfinite(locus.value):
                raise ConfigError(f"singular locus of {locus.coordinate!r} is not finite: "
                                  f"{locus.value}")

    def axis(self, name: str) -> int:
        if name not in self.coord_names:
            raise ConfigError(f"unknown coordinate {name!r}; the chart's are "
                              f"{', '.join(self.coord_names)}")
        return self.coord_names.index(name)

    def parse_expr(self, text: str) -> expr.Node:
        return expr.parse(text, self.coord_names)

    def _loci_on_axis(self, i: int) -> list:
        name = self.coord_names[i]
        return [l.value for l in self.singular_loci if l.coordinate == name]

    def _axis_interval(self, i: int, margin: float) -> tuple:
        lo, hi = self.domain[i]
        for v in self._loci_on_axis(i):
            if abs(v - lo) <= margin:
                lo = v + margin
            elif abs(v - hi) <= margin:
                hi = v - margin
        if not lo < hi:
            raise ConfigError(f"margin {margin} empties axis {self.coord_names[i]!r}")
        return lo, hi

    def axis_points(self, i: int, n: int, margin: float = 0.0) -> tuple:
        """Midpoints of ``n`` equal cells on axis ``i`` (after shrinking the
        interval away from singular loci by ``margin``)."""
        if n < 1:
            raise ConfigError(f"axis needs at least 1 cell, got {n}")
        lo, hi = self._axis_interval(i, margin) if margin > 0 else self.domain[i]
        h = (hi - lo) / n
        pts = lo + (np.arange(n) + 0.5) * h
        for v in self._loci_on_axis(i):
            hit = np.abs(pts - v) < 1e-12
            if np.any(hit):
                if margin > 0:
                    pts = np.where(hit, pts + margin, pts)
                else:
                    raise SingularSampleError(self.coord_names[i], v)
        return pts, h

    def sample_grid(self, counts, margin: float = 1e-3) -> "GridSample":
        """Classification-style grid: midpoints, kept ``margin`` away from
        declared singular loci."""
        return self._grid(counts, margin)

    def quadrature_grid(self, counts) -> "GridSample":
        """Midpoint-rule grid over the full domain (no margins)."""
        return self._grid(counts, 0.0)

    def _grid(self, counts, margin: float) -> "GridSample":
        counts = tuple(int(c) for c in counts)
        if len(counts) != 3:
            raise ConfigError(f"grid needs 3 axis counts, got {counts!r}")
        if (n := math.prod(counts)) > _MAX_POINTS:     # grid indices are int64
            raise ConfigError(f"grid {'x'.join(map(str, counts))} has {n:,} points, "
                              "more than 2**63 - 1")
        axes, steps = [], []
        for i, n in enumerate(counts):
            pts, h = self.axis_points(i, n, margin)
            axes.append(pts)
            steps.append(h)
        return GridSample(shape=counts, cell_volume=float(np.prod(steps)), axes=tuple(axes))

    def random_points(self, n: int, seed: int = 0, margin: float = 1e-3) -> np.ndarray:
        """Uniform interior sample that avoids singular loci; deterministic
        for a fixed seed."""
        rng = np.random.default_rng(seed)
        cols = []
        for i in range(3):
            lo, hi = self._axis_interval(i, margin)
            cols.append(rng.uniform(lo, hi, size=n))
        pts = np.stack(cols, axis=0)
        for i in range(3):
            for v in self._loci_on_axis(i):
                pts[i] = np.where(np.abs(pts[i] - v) < margin, v + margin, pts[i])
        return pts

    def contains(self, points: np.ndarray, atol: float = 1e-9) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        ok = np.ones(p.shape[1:], dtype=bool)
        for i, (lo, hi) in enumerate(self.domain):
            ok &= (p[i] >= lo - atol) & (p[i] <= hi + atol)
        return ok


@dataclass
class GridSample:
    """A grid of ``shape`` points, numbered in C order over the mesh of its
    ``axes``, with cells of volume ``cell_volume``."""

    shape: tuple
    cell_volume: float
    axes: tuple

    @cached_property
    def points(self) -> np.ndarray:
        """All points ``(3, N)`` in C order, built on first use (not by sweeps)."""
        return np.stack([m.reshape(-1) for m in np.meshgrid(*self.axes, indexing="ij")])

    def quotient(self, read) -> tuple:
        """The axes with those off ``read`` cut to their first point, and the
        fibre size: how many grid points share each quotient point's
        coordinates on ``read``.  A quotient too large to hold as one (3, Q)
        array, which is reserved but never written, is refused."""
        axes = tuple(a if i in read else a[:1] for i, a in enumerate(self.axes))
        try:
            np.empty((3, math.prod(len(a) for a in axes)))
        except MemoryError:
            raise ConfigError(f"grid {'x'.join(map(str, self.shape))} has "
                              f"{math.prod(self.shape):,} points, more than can be "
                              "allocated") from None
        return axes, math.prod(n for i, n in enumerate(self.shape) if i not in read)

    def members(self, read, q: np.ndarray, k: int) -> np.ndarray:
        """Grid indices ``(len(q), min(k, fibre))`` of the first ``k`` grid
        points over each quotient point ``q`` (indices into
        ``quotient(read)``): the axes off ``read`` run in C order from 0."""
        on = [n if i in read else 1 for i, n in enumerate(self.shape)]
        off = [1 if i in read else n for i, n in enumerate(self.shape)]
        first = np.ravel_multi_index(np.unravel_index(q, on), self.shape)
        runs = np.unravel_index(np.arange(min(k, math.prod(off))), off)
        return first[:, None] + np.ravel_multi_index(runs, self.shape)

    def point(self, i) -> list:
        """The coordinates of grid point ``i`` (a C-order index)."""
        return [a[j].item() for a, j in zip(self.axes, np.unravel_index(i, self.shape))]


# ---------------------------------------------------------------------------
# fields


def _as_nodes(chart: Chart, components) -> tuple:
    out = []
    for c in components:
        out.append(chart.parse_expr(c) if isinstance(c, str) else c)
    return tuple(out)


@dataclass
class MetricField:
    """Pointwise symmetric 3x3 matrix of expressions; SPD wherever sampled."""

    chart: Chart
    entries: tuple   # 6 nodes, upper triangle row-major: g11 g12 g13 g22 g23 g33
    _tape: expr.Tape = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.entries = _as_nodes(self.chart, self.entries)
        if len(self.entries) != 6:
            raise ConfigError(f"metric needs 6 upper-triangle entries, got {len(self.entries)}")
        self._tape = expr.Tape(self.entries)

    @classmethod
    def from_strings(cls, chart: Chart, entries) -> "MetricField":
        return cls(chart, tuple(entries))

    def eval(self, points) -> "MetricJets":
        return MetricJets(self._tape.run(points), expr.batch_shape(points))

    def matrix_at(self, point) -> tuple:
        """Single-point API: (matrix, entry gradients); raises NotSPD."""
        p = np.asarray(point, dtype=float).reshape(3)
        mj = self.eval(p)
        mj.require_spd(p)
        return mj.val, mj.dval


class MetricJets:
    """Metric values and exact first partials on a point batch, built from
    the six upper-triangle entry jets (row-major).

    Component-first: ``g[i][j]`` and ``dg[l][i][j] = d_l g_ij`` are jetalg
    entries (columns, floats where constant, ``None`` where structurally
    zero), ``jets[i][j]`` the entry jets and ``adj`` the adjugate; the SPD
    mask comes from the leading principal minors.  ``val`` ``(..., 3, 3)``,
    ``dval`` ``(..., l, i, j)`` and ``inv()`` are the dense arrays of the
    public API, built on first use; sweeps use the entries only."""

    def __init__(self, entries, shape: tuple):
        self.shape = shape
        self.jets = [[entries[k] for k in row] for row in _SYMMETRIC]
        self.g = [[jet.value for jet in row] for row in self.jets]
        self.dg = [[[jet.partials[l] for jet in row] for row in self.jets] for l in range(3)]
        m0, m1, m2 = (np.greater(m, 0.0) for m in self.minors_entries)
        self.spd = np.broadcast_to(m0 & m1 & m2, shape)

    @cached_property
    def adj(self) -> list:
        return adjugate3(self.g)

    @cached_property
    def minors_entries(self) -> tuple:
        return self.g[0][0], self.adj[2][2], det3(self.g, self.adj)

    @cached_property
    def val(self) -> np.ndarray:
        return dense(self.g, self.shape)

    @cached_property
    def dval(self) -> np.ndarray:
        return dense(self.dg, self.shape)

    @property
    def minors(self) -> np.ndarray:
        """Leading principal minors ``(..., 3)``."""
        return np.stack([np.broadcast_to(x, self.shape) for x in self.minors_entries], axis=-1)

    def det(self) -> np.ndarray:
        return np.broadcast_to(self.minors_entries[2], self.shape)

    def inv_entries(self) -> list:
        """g^-1 as entries: the adjugate over the determinant, the identity
        where the metric is not SPD."""
        det = self.minors_entries[2]
        if self.spd.all():
            return [[div(x, det) for x in row] for row in self.adj]
        det = np.where(self.spd, det, 1.0)
        return [[np.where(self.spd, div(x, det), float(i == j)) for j, x in enumerate(row)]
                for i, row in enumerate(self.adj)]

    def inv(self) -> np.ndarray:
        """Closed-form inverse ``(..., 3, 3)``, dense."""
        return dense(self.inv_entries(), self.shape)

    def require_spd(self, points: np.ndarray) -> None:
        """Raise NotSPDError naming the first point of the batch ``points``
        where the metric is not SPD, with its failing minor."""
        if not self.spd.all():
            minors = self.minors.reshape(-1, 3)
            i, k = first_failing_minor(minors)
            raise NotSPDError(expr.point_at(points, i), k, minors[i, k])


def first_failing_minor(minors: np.ndarray):
    """``(i, k)`` for the first row ``i`` of leading principal minors
    ``minors[i, k]`` with one that is not > 0 (NaN included) and its first
    such ``k``, or None where every minor is positive."""
    bad = ~(minors > 0)
    rows = np.flatnonzero(bad.any(axis=-1))
    return (int(rows[0]), int(np.argmax(bad[rows[0]]))) if rows.size else None


@dataclass
class VectorField:
    """Contravariant components as expressions over a chart."""

    chart: Chart
    components: tuple
    _tape: expr.Tape = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.components = _as_nodes(self.chart, self.components)
        if len(self.components) != 3:
            raise ConfigError("vector field needs 3 components")
        self._tape = expr.Tape(self.components)

    def eval(self, points) -> tuple:
        """Returns (values ``(..., k)``, Jacobian ``(..., i, k) = d_i X^k``)."""
        return self._tape.arrays(points)


class OneForm(VectorField):
    """Covariant components as expressions over a chart."""


# ---------------------------------------------------------------------------
# connection and calculus


def _metric_jets(g, points) -> MetricJets:
    if isinstance(g, MetricJets):
        return g
    return g.eval(points)


def components(x: np.ndarray, rank: int) -> np.ndarray:
    """View of ``x`` with its last ``rank`` index slots moved in front, so
    ``components(g, 2)[i][j]`` is the batch column ``g[..., i, j]``."""
    return x.transpose([*range(x.ndim - rank, x.ndim), *range(x.ndim - rank)])


def christoffel_contract(dg, v) -> list:
    """M_ij = v^l Gamma_{l,ij} for the Christoffel symbols of the first kind
    Gamma_{l,ij} = (d_i g_jl + d_j g_il - d_l g_ij) / 2, one column at a
    time.  ``dg[l][i][j] = d_l g_ij`` and ``v`` are component-first; M is
    returned as a symmetric nested list of columns."""
    p = [matvec(dg[i], v) for i in range(3)]    # p[i][j] = v^l d_i g_jl
    m = [[None] * 3 for _ in range(3)]
    for i, j in _UPPER:
        q = dot3([dg[l][i][j] for l in range(3)], v)
        m[i][j] = m[j][i] = mul(0.5, sub(add(p[i][j], p[j][i]), q))
    return m


def christoffel_raw(mj: MetricJets) -> np.ndarray:
    """Gamma[..., k, i, j] = g^kl Gamma_{l,ij} from exact metric partials."""
    inv, dg = components(mj.inv(), 2), components(mj.dval, 3)
    gamma = np.array([christoffel_contract(dg, inv[k]) for k in range(3)])
    return np.moveaxis(gamma, (0, 1, 2), (-3, -2, -1))


def christoffel(g, points=None) -> np.ndarray:
    """Levi-Civita connection coefficients Gamma[..., k, i, j]."""
    return christoffel_raw(_metric_jets(g, points))


def covariant_derivative_raw(gamma: np.ndarray, xval, xjac, yval, yjac) -> np.ndarray:
    """(nabla_X Y)^k = X^i d_i Y^k + Gamma^k_ij X^i Y^j."""
    return (np.einsum("...i,...ik->...k", xval, yjac)
            + np.einsum("...kij,...i,...j->...k", gamma, xval, yval))


def covariant_derivative(g, x: VectorField, y: VectorField, points) -> np.ndarray:
    gamma = christoffel_raw(_metric_jets(g, points))
    return covariant_derivative_raw(gamma, *x.eval(points), *y.eval(points))


def d_oneform(alpha: OneForm, points) -> np.ndarray:
    """(d alpha)_ij = d_i a_j - d_j a_i (antisymmetric matrix of values)."""
    ajac = alpha.eval(points)[1]
    return ajac - np.swapaxes(ajac, -2, -1)


def wedge_entries(a: list, w: list):
    """(1/2) eps_ijk a_i w_jk for entries a[i] and w[j][k], summed over the
    nonzero eps_ijk in index order from +0.0, as the Levi-Civita einsum
    adds them."""
    out = 0.0
    for i, j, k, sign in _LEVI_TERMS:
        out = sign(out, mul(a[i], w[j][k]))
    return mul(0.5, out)


def wedge3(alpha_val, omega_val) -> np.ndarray:
    """Coefficient of dx1 ^ dx2 ^ dx3 in (1-form) ^ (2-form); normalised so
    that wedge3(dx1, dx2 ^ dx3) = 1."""
    a = np.asarray(alpha_val, dtype=float)
    w = np.asarray(omega_val, dtype=float)
    out = dense(wedge_entries(list(components(a, 1)), list(components(w, 2))), a.shape[:-1])
    return float(out) if out.ndim == 0 else out


def divergence_entries(mj: MetricJets, x: list, dx: list):
    """div X = d_i X^i + X^i d_i log sqrt(det g), with d_i log sqrt(det g) =
    g^lm d_i g_lm / 2, for entries x[k] and dx[i][k] = d_i X^k.  The trace
    adds in index order from +0.0, the two contractions are einsums on dense
    arrays.  On a constant metric with a finite inverse every d_i log
    sqrt(det g) is zero, so div X is the trace alone, where X is not finite
    too: a component that overflows to inf gives inf, not NaN."""
    trace = reduce(add, (dx[i][i] for i in range(3)), 0.0)
    inv = mj.inv_entries()
    if all(d is None for d in sum(sum(mj.dg, []), [])) and np.isfinite(inv).all():
        return trace
    dlog = 0.5 * np.einsum("...lm,...ilm->...i", dense(inv, mj.shape), mj.dval)
    return add(trace, np.einsum("...i,...i->...", dense(x, mj.shape), dlog))


def divergence_raw(mj: MetricJets, xval: np.ndarray, xjac: np.ndarray) -> np.ndarray:
    """div X = d_i X^i + X^i * (d_i log sqrt(det g)), exactly from jets."""
    x = [xval[..., k] for k in range(3)]
    dx = [[xjac[..., i, k] for k in range(3)] for i in range(3)]
    return dense(divergence_entries(mj, x, dx), np.shape(xval)[:-1])


def divergence(g, x: VectorField, points) -> np.ndarray:
    out = divergence_raw(_metric_jets(g, points), *x.eval(points))
    return float(out) if out.ndim == 0 else out


def metric_at(g: MetricField, point) -> tuple:
    """Spec'd single-point metric evaluation: (matrix, partials)."""
    return g.matrix_at(point)


def integrate_scalar(metric: MetricField, f: Callable, grid, jobs: int = 1,
                     assume_compact_support: bool = False) -> float:
    """Midpoint-rule quadrature of ``f * sqrt(det g)`` over the chart.

    Valid when every axis is periodic, or when the caller asserts that the
    integrand is compactly supported away from non-periodic boundaries.
    ``f`` maps a ``(3, N)`` batch (a block's points, C order) to ``(N,)`` values.
    """
    chart = metric.chart
    if not all(chart.periodic) and not assume_compact_support:
        raise ConfigError(
            "integral over a non-periodic chart requires "
            "assume_compact_support=True from the caller")
    sample = chart.quadrature_grid(grid)

    def kernel(pts):
        mj = metric.eval(pts)
        mj.require_spd(pts)
        flat = np.stack([np.broadcast_to(c, mj.shape).ravel() for c in pts])
        return ExactSum(np.asarray(f(flat), dtype=float) * np.sqrt(mj.det()).ravel())

    total = sum(chunked_eval(kernel, sample.axes, jobs), ExactSum())
    return float(total) * sample.cell_volume
