"""Shipped charts, forms and vector fields used by the suites and the CLI.

Every 1-form in the catalog is deliberately clear-cut: either integrable
with an exactly closed differential (foliations) or uniformly contact.
Generic nonvanishing deformations used in randomized checks are produced
by :func:`random_periodic_form` and are not part of the curated registry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution
from .errors import ConfigError
from .geometry import Chart, MetricField, OneForm, SingularLocus, VectorField
from .models import Model, collar_model, reeb_solid_torus

__all__ = [
    "flat_torus_model", "two_pi_torus_model", "polar_cylinder_model",
    "sphere_model", "box_contact_model", "random_periodic_form",
    "shipped_examples", "ShippedExample", "catalog_model",
    "QUADRATURE_PROBE",
]

# periodic probe whose divergence integrates to zero exactly; the phase
# offsets break the alias cancellation so the quadrature error actually
# decays (instead of vanishing identically) under refinement
QUADRATURE_PROBE = ("exp(3*sin(2*pi*x + 0.7))",
                    "exp(3*cos(2*pi*y + 0.3))",
                    "exp(3*sin(2*pi*z + 1.1))")

_TILT = 0.1


def flat_torus_model() -> Model:
    """Unit flat 3-torus with the curated forms and the quadrature probe."""
    chart = Chart(("x", "y", "z"), ((0.0, 1.0),) * 3, (True,) * 3,
                  chart_id="flat-torus")
    metric = MetricField.from_strings(chart, ("1", "0", "0", "1", "0", "1"))
    cos_t, sin_t = repr(math.cos(_TILT)), repr(math.sin(_TILT))
    forms = {
        # horizontal foliation by {z = const}
        "vertical": OneForm(chart, ("0", "0", "1")),
        # the same plane family rotated by a constant angle about d_x
        "tilted": OneForm(chart, ("0", f"-{sin_t}", cos_t)),
        # kernel of d(z + 0.1 sin(2 pi x) + 0.07 cos(2 pi y)): exactly closed
        "graph-foliation": OneForm(chart, ("0.2*pi*cos(2*pi*x)",
                                           "-0.14*pi*sin(2*pi*y)", "1")),
        # uniformly contact: alpha ^ d(alpha) = -2 pi everywhere
        "winding-contact": OneForm(chart, ("cos(2*pi*z)", "sin(2*pi*z)", "0")),
    }
    vectors = {"quadrature-probe": VectorField(chart, QUADRATURE_PROBE)}
    frames = {"horizontal": (VectorField(chart, ("1", "0", "0")),
                             VectorField(chart, ("0", "1", "0")))}
    return Model(model_id="flat-torus", chart=chart, metric=metric,
                 forms=forms, vectors=vectors, named_frames=frames,
                 parameters={"tilt": _TILT}, foliation="vertical")


def two_pi_torus_model() -> Model:
    """Flat 3-torus with 2*pi periods (for unit-frequency forms)."""
    two_pi = 2.0 * math.pi
    chart = Chart(("x", "y", "z"), ((0.0, two_pi),) * 3, (True,) * 3,
                  chart_id="flat-torus-2pi")
    metric = MetricField.from_strings(chart, ("1", "0", "0", "1", "0", "1"))
    forms = {
        "vertical": OneForm(chart, ("0", "0", "1")),
        "winding-contact": OneForm(chart, ("cos(z)", "sin(z)", "0")),
    }
    return Model(model_id="flat-torus-2pi", chart=chart, metric=metric,
                 forms=forms, foliation="vertical")


def polar_cylinder_model() -> Model:
    """Euclidean metric in polar coordinates, foliated by cylinders."""
    chart = Chart(("r", "phi", "z"),
                  ((0.0, 2.0), (0.0, 2.0 * math.pi), (0.0, 1.0)),
                  (False, True, True),
                  singular_loci=(SingularLocus("r", 0.0, "polar axis"),),
                  chart_id="polar-cylinder")
    metric = MetricField.from_strings(chart, ("1", "0", "0", "r^2", "0", "1"))
    forms = {"radial": OneForm(chart, ("1", "0", "0"))}
    frames = {"leaf": (VectorField(chart, ("0", "1", "0")),
                       VectorField(chart, ("0", "0", "1")))}
    return Model(model_id="polar-cylinder", chart=chart, metric=metric,
                 forms=forms, named_frames=frames, foliation="radial")


def sphere_model() -> Model:
    """Punctured Euclidean space in spherical coordinates, foliated by the
    round spheres {rho = const}; the extrinsic curvature is 1/rho^2."""
    chart = Chart(("rho", "theta", "phi"),
                  ((0.5, 1.5), (0.0, math.pi), (0.0, 2.0 * math.pi)),
                  (False, False, True),
                  singular_loci=(SingularLocus("theta", 0.0, "north pole axis"),
                                 SingularLocus("theta", math.pi, "south pole axis")),
                  chart_id="spheres")
    metric = MetricField.from_strings(
        chart, ("1", "0", "0", "rho^2", "0", "rho^2*sin(theta)^2"))
    forms = {"radial": OneForm(chart, ("1", "0", "0"))}
    frames = {"leaf": (VectorField(chart, ("0", "1", "0")),
                       VectorField(chart, ("0", "0", "1")))}
    return Model(model_id="spheres", chart=chart, metric=metric,
                 forms=forms, named_frames=frames, foliation="radial")


def box_contact_model() -> Model:
    """Euclidean box carrying the standard contact form dz + x dy - y dx."""
    chart = Chart(("x", "y", "z"), ((-1.0, 1.0),) * 3, (False,) * 3,
                  chart_id="contact-box")
    metric = MetricField.from_strings(chart, ("1", "0", "0", "1", "0", "1"))
    forms = {"standard-contact": OneForm(chart, ("-y", "x", "1"))}
    return Model(model_id="contact-box", chart=chart, metric=metric,
                 forms=forms, foliation=None)


_CATALOG = {
    "flat-torus": flat_torus_model,
    "flat-torus-2pi": two_pi_torus_model,
    "polar-cylinder": polar_cylinder_model,
    "spheres": sphere_model,
    "contact-box": box_contact_model,
    "reeb": reeb_solid_torus,
    "collar": collar_model,
}


def catalog_model(name: str) -> Model:
    if name not in _CATALOG:
        raise ConfigError(f"unknown catalog chart {name!r}; "
                          f"available: {sorted(_CATALOG)}")
    return _CATALOG[name]()


def random_periodic_form(seed: int) -> OneForm:
    """Nonvanishing smooth periodic 1-form on the unit flat 3-torus, three
    trigonometric terms per component.

    The z-component stays >= 0.55 by construction, so the kernel plane is
    defined everywhere; the x/y components are free trigonometric noise.
    Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    names = ("x", "y", "z")
    comps = []
    for c in range(3):
        base = (0.2, -0.1, 1.0)[c]
        budget = 0.45 if c == 2 else 0.6
        amps = rng.uniform(0.15, 1.0, size=3)
        amps = amps / amps.sum() * budget
        piece = [repr(base)]
        for amp in amps:
            fn = "sin" if rng.integers(2) else "cos"
            k = rng.integers(0, 2, size=3)
            if not np.any(k):
                k[rng.integers(3)] = 1
            phase = float(rng.uniform(0.0, 2.0 * math.pi))
            arg = " + ".join(f"{int(ki)}*{nm}" for ki, nm in zip(k, names) if ki)
            piece.append(f"{float(amp)!r}*{fn}(2*pi*({arg}) + {phase!r})")
        comps.append(" + ".join(piece))
    chart = flat_torus_model().chart
    return OneForm(chart, tuple(comps))


@dataclass(frozen=True)
class ShippedExample:
    """Registry row: a named plane field with its expected character."""

    example_id: str
    model_name: str
    form: str
    periodic: bool
    kind: str  # "foliation" | "contact"

    def build(self) -> tuple:
        model = catalog_model(self.model_name)
        dist = Distribution.kernel(model.form(self.form),
                                   label=self.example_id)
        return model, dist


def shipped_examples() -> list:
    """Every curated plane field: used by the dichotomy and the
    no-elliptic-on-closed-charts checks."""
    return [
        ShippedExample("torus-vertical", "flat-torus", "vertical", True, "foliation"),
        ShippedExample("torus-tilted", "flat-torus", "tilted", True, "foliation"),
        ShippedExample("torus-graph", "flat-torus", "graph-foliation", True, "foliation"),
        ShippedExample("torus-contact", "flat-torus", "winding-contact", True, "contact"),
        ShippedExample("box-contact", "contact-box", "standard-contact", False, "contact"),
        ShippedExample("cylinders", "polar-cylinder", "radial", False, "foliation"),
        ShippedExample("spheres", "spheres", "radial", False, "foliation"),
        ShippedExample("reeb-foliation", "reeb", "foliation", False, "foliation"),
        ShippedExample("collar-foliation", "collar", "foliation", False, "foliation"),
    ]
