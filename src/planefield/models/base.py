"""Container for a built-in construction: chart + metric + named fields."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..distributions import Distribution
from ..errors import ConfigError
from ..expr import Tape
from ..geometry import Chart, MetricField, OneForm, _as_nodes

__all__ = ["Model", "SurfaceMetric"]


@dataclass
class Model:
    """A chart together with a metric, named 1-forms/vector fields, optional
    distinguished frames, and the name of its foliation form (if any)."""

    model_id: str
    chart: Chart
    metric: MetricField
    forms: dict = field(default_factory=dict)
    vectors: dict = field(default_factory=dict)
    named_frames: dict = field(default_factory=dict)
    parameters: dict = field(default_factory=dict)
    foliation: Optional[str] = None

    def form(self, name: Optional[str] = None) -> OneForm:
        key = name or self.foliation
        if key is None or key not in self.forms:
            raise ConfigError(
                f"model {self.model_id!r} has no 1-form named {key!r}; "
                f"available: {sorted(self.forms)}")
        return self.forms[key]

    def distribution(self, name: Optional[str] = None,
                     co_orientation: int = 1) -> Distribution:
        key = name or self.foliation
        return Distribution.kernel(self.form(key), co_orientation,
                                   label=f"{self.model_id}:{key}")

    def frame(self, name: str) -> tuple:
        if name not in self.named_frames:
            raise ConfigError(
                f"model {self.model_id!r} has no frame named {name!r}")
        return self.named_frames[name]


def require_static(entries, what: str) -> None:
    """ConfigError if an entry reads the chart's third coordinate."""
    if 2 in Tape(entries).axes:
        raise ConfigError(f"{what} needs a t-independent surface metric")


@dataclass
class SurfaceMetric:
    """2x2 metric on the first two coordinates of a 3-chart.

    The third coordinate of the chart is the fiber/path parameter; entries
    of a *static* surface metric must not reference it (path families do).
    """

    chart: Chart
    entries: tuple   # (g11, g12, g22) expression nodes

    def __post_init__(self):
        self.entries = _as_nodes(self.chart, self.entries)
        if len(self.entries) != 3:
            raise ConfigError("surface metric needs (g11, g12, g22)")

    @classmethod
    def from_strings(cls, chart: Chart, entries) -> "SurfaceMetric":
        return cls(chart, tuple(entries))

    def product_metric(self) -> MetricField:
        """The 3-metric  g_surface + (third coordinate differential)^2."""
        g11, g12, g22 = self.entries
        one = self.chart.parse_expr("1")
        zero = self.chart.parse_expr("0")
        return MetricField(self.chart, (g11, g12, zero, g22, zero, one))
