import contextlib
import signal

import jsonschema
import numpy as np
import pytest

from planefield import chartio
from planefield.catalog import box_contact_model, flat_torus_model
from planefield.geometry import Chart, MetricField, SingularLocus
from planefield.models import collar_model, reeb_solid_torus


@pytest.fixture(autouse=True)
def schema_checker_agrees_with_jsonschema(monkeypatch):
    """Every verdict of chartio's schema checker in any test, on a payload
    or on one of its parts, must equal jsonschema's."""
    accepts = chartio._accepts

    def checked(schema, payload):
        verdict = accepts(schema, payload)
        oracle = jsonschema.Draft202012Validator(schema).is_valid(payload)
        assert verdict == oracle, f"checker says {verdict} on {payload!r}"
        return verdict

    monkeypatch.setattr(chartio, "_accepts", checked)


@pytest.fixture(scope="session")
def torus():
    return flat_torus_model()


@pytest.fixture(scope="session")
def contact_box():
    return box_contact_model()


@pytest.fixture(scope="session")
def reeb():
    return reeb_solid_torus()


@pytest.fixture(scope="session")
def collar():
    return collar_model()


@pytest.fixture()
def polar_chart():
    return Chart(("r", "phi", "z"),
                 ((0.0, 2.0), (0.0, 2.0 * np.pi), (0.0, 1.0)),
                 (False, True, True),
                 singular_loci=(SingularLocus("r", 0.0, "polar axis"),),
                 chart_id="polar")


@pytest.fixture()
def polar_metric(polar_chart):
    return MetricField.from_strings(polar_chart,
                                    ("1", "0", "0", "r^2", "0", "1"))


@pytest.fixture()
def deadline():
    """``with deadline(seconds):`` raises TimeoutError in a block that is
    still running after ``seconds``, so a hung sweep fails its test."""
    @contextlib.contextmanager
    def within(seconds: int):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    return within
