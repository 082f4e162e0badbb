"""The immutable value types: repr, pickle and deepcopy round trips,
fields that can be neither assigned nor deleted, and the maps' slotted
int-pair representation."""

import copy
import pickle
import random
import sys
import threading
from fractions import Fraction as F

import pytest

from plmonoid import (
    GapSet,
    InputError,
    MonoTuple,
    PLHomeo,
    PLMono,
    QuotInterval,
    as_homeo,
    canonicalize,
    combine,
    compose,
    identity,
    inverse,
    pseudo_inverse,
    roelcke_coord,
)
from plmonoid.explorer import build_net, random_homeo, random_mono, random_tuple

from conftest import no_fraction_view

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
# the polylines' Fraction views, built on each read: equal, not identical
VIEWS = {"breakpoints", "vertices"}


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


def test_pickle_and_deepcopy_rerun_the_constructor_checks():
    # A canonical pair whose weights were swapped in behind the
    # constructor's back: its weighted mean is no longer the identity.
    forged = object.__new__(type(CT))
    forged.__dict__.update(components=CT.components, weights=(F(1, 4), F(3, 4)))
    data = pickle.dumps(forged)
    with pytest.raises(InputError, match="weighted mean"):
        pickle.loads(data)
    with pytest.raises(InputError, match="weighted mean"):
        copy.deepcopy(forged)


@pytest.mark.parametrize("value, text, fields", VALUES, ids=IDS)
def test_value_fields_cannot_be_assigned_or_deleted(value, text, fields):
    for name in fields:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        after = getattr(value, name)
        assert after == before if name in VIEWS else after is before


# --- the maps' representation: reduced int pairs in slots, breakpoints built on each read


def _kernel_built():
    """(name, kernel-built map, the same map built from Fractions by the
    public constructor through its values at every breakpoint)."""
    rng = random.Random(3)
    f, g = random_mono(rng), random_mono(rng)
    ts = sorted({x for m in (f, g) for x, _ in m.breakpoints})
    composed = compose(f, g)
    combined = combine([(F(1, 3), f), (F(2, 3), g)])
    t = random_tuple(rng, 3)
    ct, m = canonicalize(t)
    grid = sorted({x for c in t for x, _ in c.breakpoints})
    out = [
        ("compose", composed, PLMono(tuple((x, f(g(x))) for x, _ in composed.breakpoints))),
        ("combine", combined, PLMono(tuple((x, (f(x) + 2 * g(x)) / 3) for x in ts))),
        ("mean", m, PLMono(tuple((x, sum(c(x) for c in t) / 3) for x in grid))),
    ]
    out += [(f"canonical-{i}", c, PLMono(tuple((m(x), t[i](x)) for x in grid))) for i, c in enumerate(ct)]
    return out


def test_maps_have_no_instance_dict():
    for value in (F0, identity(), compose(F0, F0), inverse(identity()), pseudo_inverse(F0), roelcke_coord(CT)):
        assert not hasattr(value, "__dict__")


KERNEL_BUILT = _kernel_built()


@pytest.mark.parametrize("name, built, reference", KERNEL_BUILT, ids=[n for n, _, _ in KERNEL_BUILT])
def test_kernel_built_breakpoints_match(name, built, reference):
    first = built.breakpoints
    assert first == reference.breakpoints
    assert all(type(v) is F for point in first for v in point)
    assert built.breakpoints == first


def test_unread_kernel_built_maps_round_trip():
    rng = random.Random(4)
    twins = []
    # samplers, kernels, pickle and copy read the pairs, not breakpoints
    with no_fraction_view():
        f, g = random_mono(rng), random_mono(rng)
        ct, m = canonicalize(random_tuple(rng, 2))
        inv = pseudo_inverse(f)
        coord = roelcke_coord(ct)
        for fresh in (compose(f, g), combine([(F(1, 2), f), (F(1, 2), g)]), m, *ct, inv, coord):
            for twin in (pickle.loads(pickle.dumps(fresh)), copy.deepcopy(fresh)):
                assert twin is not fresh and type(twin) is type(fresh)
                assert twin == fresh and hash(twin) == hash(fresh)
                assert twin(F(1, 3)) == fresh(F(1, 3))
            twins.append((twin, fresh))
    assert all(twin.breakpoints == fresh.breakpoints for twin, fresh in twins)


def test_kernel_built_homeo_equals_fraction_built_mono():
    rng = random.Random(5)
    g = random_homeo(rng)
    for homeo in (inverse(g), as_homeo(compose(g, g))):
        assert type(homeo) is PLHomeo
        mono = PLMono(tuple((F(x), F(y)) for x, y in homeo.breakpoints))
        assert homeo == mono and mono == homeo and hash(homeo) == hash(mono)
        assert {homeo: 1}[mono] == 1


def test_racing_first_reads_of_breakpoints_agree():
    # Each read of breakpoints builds a tuple from the pairs; threads
    # racing on it (more than the cores, with a short switch interval)
    # must all see equal tuples.
    rng = random.Random(6)
    pairs = [(random_mono(rng), random_mono(rng)) for _ in range(40)]
    maps = [compose(f, g) for f, g in pairs]
    expected = [PLMono(tuple((x, f(g(x))) for x, _ in m.breakpoints)).breakpoints for m, (f, g) in zip(maps, pairs)]
    fresh = [compose(f, g) for f, g in pairs]
    seen = [[] for _ in range(6)]
    start = threading.Barrier(len(seen))

    def read(out):
        start.wait(timeout=10)
        for _ in range(20):
            out.append([m.breakpoints for m in fresh])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(out,)) for out in seen]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(out) == 20 and all(reads == expected for reads in out) for out in seen)
