"""The immutable value types: repr, pickle and deepcopy round trips, and
fields that can be neither assigned nor deleted."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from plmonoid import (
    GapSet,
    MonoTuple,
    PLMono,
    QuotInterval,
    canonicalize,
    identity,
    pseudo_inverse,
    roelcke_coord,
)
from plmonoid.explorer import build_net

F0 = PLMono(((0, 0), (F(1, 2), F(1, 4)), (F(3, 4), F(1, 4)), (1, 1)))
CT, _ = canonicalize(MonoTuple((identity(), F0)))
CT_REPR = (
    "CanonicalTuple(components=(PLMono[(0,0) (3/8,1/2) (1/2,3/4) (1,1)], "
    "PLMono[(0,0) (3/8,1/4) (1/2,1/4) (1,1)]), weights=(Fraction(1, 2), Fraction(1, 2)))"
)

# (value, its repr, its fields)
VALUES = [
    (F0, "PLMono[(0,0) (1/2,1/4) (3/4,1/4) (1,1)]", ("breakpoints",)),
    (identity(), "PLHomeo[(0,0) (1,1)]", ("breakpoints",)),
    (pseudo_inverse(F0), "LcMono[(0,0) (1/4,1/2) (1/4,3/4) (1,1)]", ("vertices",)),
    (
        MonoTuple((identity(), F0)),
        "MonoTuple(components=(PLHomeo[(0,0) (1,1)], PLMono[(0,0) (1/2,1/4) (3/4,1/4) (1,1)]))",
        ("components",),
    ),
    (CT, CT_REPR, ("components", "weights")),
    (roelcke_coord(CT), "RoelckeCoord[(0,0) (3/8,1/8) (1/2,1/4) (1,0)]", ("breakpoints",)),
    (GapSet(((F(1, 4), F(1, 2)),)), "GapSet(gaps=((Fraction(1, 4), Fraction(1, 2)),))", ("gaps",)),
    (
        QuotInterval(F(0), F(1, 8), 3),
        "QuotInterval(lo=Fraction(0, 1), hi=Fraction(1, 8), decisions=3)",
        ("lo", "hi", "decisions"),
    ),
    (
        build_net(2, 1),
        "EpsNet(n=2, resolution=1, points=(CanonicalTuple(components=(PLMono[(0,0) (1,1)], "
        "PLMono[(0,0) (1,1)]), weights=(Fraction(1, 2), Fraction(1, 2))),))",
        ("n", "resolution", "points"),
    ),
]
IDS = [type(v).__name__ for v, _, _ in VALUES]


@pytest.mark.parametrize("value, text, fields", VALUES, ids=IDS)
def test_value_repr(value, text, fields):
    assert repr(value) == text


@pytest.mark.parametrize("value, text, fields", VALUES, ids=IDS)
def test_value_pickle_and_deepcopy_round_trip(value, text, fields):
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert twin is not value and type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value) and repr(twin) == text
    if callable(value):
        assert pickle.loads(pickle.dumps(value))(F(5, 8)) == value(F(5, 8))


@pytest.mark.parametrize("value, text, fields", VALUES, ids=IDS)
def test_value_fields_cannot_be_assigned_or_deleted(value, text, fields):
    for name in fields:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
