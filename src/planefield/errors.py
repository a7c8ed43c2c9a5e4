"""Exception types shared across the toolkit."""

from __future__ import annotations


class PlanefieldError(Exception):
    """Base class for every error raised by this package.  Pickles as its
    ``args`` and attributes, so it crosses from a worker process whole."""

    def __reduce__(self):
        return Exception.__new__, (type(self),) + self.args, self.__dict__


class ParseError(PlanefieldError):
    """Malformed expression text.

    Carries the 0-based character position and the set of token kinds
    that would have been accepted there.
    """

    def __init__(self, message: str, position: int, expected: tuple = ()):
        detail = f"{message} (at position {position})"
        if expected:
            detail += "; expected one of: " + ", ".join(sorted(map(str, expected)))
        super().__init__(detail)
        self.position = position
        self.expected = tuple(expected)


class UnknownIdentifierError(ParseError):
    """Identifier does not name a chart coordinate, constant or function."""

    def __init__(self, name: str, position: int):
        super().__init__(f"unknown identifier {name!r}", position)
        self.name = name


class ArityError(ParseError):
    """Function called with the wrong number of arguments."""

    def __init__(self, func: str, expected: int, got: int, position: int):
        super().__init__(
            f"{func}() takes {expected} argument(s), got {got}", position
        )
        self.func = func
        self.expected_arity = expected
        self.got = got


class DomainError(PlanefieldError):
    """Evaluation left the real domain of a function (sqrt of a negative,
    division by zero, non-integer power of a non-positive base, ...).
    Field evaluation names the first failing point of its batch and the
    argument value there."""

    def __init__(self, function: str, value, message: str = "", point=None):
        self.point = None if point is None else tuple(map(float, point))
        detail = f"{function}: argument value {value!r} outside domain"
        if self.point is not None:
            detail += f" at {self.point}"
        if message:
            detail += f" ({message})"
        super().__init__(detail)
        self.function = function
        self.value = value


class NotSPDError(PlanefieldError):
    """Metric matrix fails a leading-principal-minor test at a point."""

    def __init__(self, point, minor_index: int, minor_value: float):
        self.point = tuple(map(float, point))
        self.minor_index = int(minor_index)
        self.minor_value = float(minor_value)
        super().__init__(
            f"metric is not positive definite at {self.point}: "
            f"leading minor {self.minor_index + 1} = {self.minor_value!r}"
        )


class SingularSampleError(PlanefieldError):
    """A sample grid landed on a declared coordinate singularity."""

    def __init__(self, coordinate: str, value: float):
        super().__init__(f"grid point hits singular locus {coordinate} = {value!r}")
        self.coordinate = coordinate
        self.value = value


class DegenerateDistributionError(PlanefieldError):
    """Plane field undefined at a point (vanishing form / dependent span)."""

    def __init__(self, point, detail: str = ""):
        self.point = tuple(map(float, point))
        msg = f"distribution degenerates at {self.point}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NotTransverseError(PlanefieldError):
    """Two plane fields fail the transversality required by a construction."""

    def __init__(self, point, angle: float):
        self.point = tuple(map(float, point))
        self.angle = float(angle)
        super().__init__(
            f"normal direction lies in the target plane at {self.point} "
            f"(transversality angle {self.angle!r} rad)"
        )


class NonSPDPathError(PlanefieldError):
    """Metric path leaves the positive-definite cone even after subdivision."""

    def __init__(self, t: float, point, depth: int):
        self.t = float(t)
        self.point = tuple(map(float, point))
        self.depth = depth
        super().__init__(
            f"path metric not SPD at t={self.t!r}, p={self.point} "
            f"after {depth} subdivision levels"
        )


class OverlapMismatchError(PlanefieldError):
    """Atlas charts disagree on an overlap beyond tolerance."""

    def __init__(self, source: str, target: str, mismatch: float, tolerance: float, report=None):
        super().__init__(
            f"overlap {source} -> {target}: metric mismatch {mismatch!r} "
            f"exceeds tolerance {tolerance!r}"
        )
        self.source = source
        self.target = target
        self.mismatch = mismatch
        self.tolerance = tolerance
        self.report = report


class ConfigError(PlanefieldError):
    """Malformed suite spec, chart file or CLI configuration."""


def open_output(path):
    """Open ``path`` to write text; a path that cannot be written is a
    ConfigError naming it."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"{path}: cannot write ({err.strerror or err})") from err
