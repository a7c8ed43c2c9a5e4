"""Every package error survives a pickle round trip, as it must to cross
from a sweep's worker process to the caller."""

import pickle

from planefield import errors

SAMPLES = {
    "ParseError": ("unexpected character '$'", 3, ("number", "ident")),
    "UnknownIdentifierError": ("rho", 5),
    "ArityError": ("sin", 1, 2, 0),
    "DomainError": ("sqrt", -0.75, "", (-0.75, -0.25, 0.5)),
    "NotSPDError": ((0.1, 0.2, 0.3), 1, -0.5),
    "SingularSampleError": ("r", 0.0),
    "DegenerateDistributionError": ((0.5, 0.5, 0.5), "vanishing form"),
    "NotTransverseError": ((0.0, 1.0, 2.0), 1e-9),
    "NonSPDPathError": (0.25, (1.0, 2.0, 3.0), 6),
    "OverlapMismatchError": ("page-0", "page-1", 1e-3, 1e-8, {"max": 1e-3}),
    "ConfigError": ("tolerance must be positive, got -1",),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_survives_a_pickle_round_trip():
    found = list(_subclasses(errors.PlanefieldError))
    assert {c.__name__ for c in found} == set(SAMPLES)
    for cls in found + [errors.PlanefieldError]:
        err = cls(*SAMPLES.get(cls.__name__, ("plain message",)))
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is cls
        assert str(back) == str(err)
        assert back.args == err.args
        assert vars(back) == vars(err)
