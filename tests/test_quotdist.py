"""Quotient distance: the free-space decision procedure, the bisection
bracket, the independent grid oracle and the identity-proximity bound."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from plmonoid import (
    CanonicalTuple,
    InputError,
    MonoTuple,
    PLMono,
    brute_oracle,
    canonicalize,
    compose,
    embed_homeo,
    identity,
    max_slope,
    orbit_identity_bound,
    quot_decision,
    quot_dist,
    sup_dist,
    uniform_weights,
)
from plmonoid.gaps import extreme_pair
from plmonoid.explorer import random_homeo, random_point, random_tuple

seeds = st.integers(0, 2**32 - 1)
I14 = (F(1, 4), F(3, 4))


def worked_pair():
    lo, hi = extreme_pair(I14)
    return MonoTuple((lo, hi)), MonoTuple((identity(), identity()))


# --- decision procedure


def test_worked_decision_threshold():
    a, b = worked_pair()
    assert quot_decision(a, b, F(1, 4)) is True
    assert quot_decision(a, b, F(1, 4) - F(1, 1024)) is False


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_same_orbit_distance_zero(seed):
    rng = random.Random(seed)
    t = random_tuple(rng, 2)
    g = random_homeo(rng)
    moved = MonoTuple(tuple(compose(f, g) for f in t))
    assert quot_decision(t, moved, 0) is True


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_singleton_quotient_for_single_maps(seed):
    rng = random.Random(seed)
    a, b = random_tuple(rng, 1), random_tuple(rng, 1)
    assert quot_decision(a, b, 0) is True


@given(seeds)
@settings(max_examples=10, deadline=None)
def test_decision_monotone_in_eps(seed):
    rng = random.Random(seed)
    a, b = random_point(rng, 2).as_tuple(), random_point(rng, 2).as_tuple()
    answers = [quot_decision(a, b, F(k, 16)) for k in range(9)]
    assert answers == sorted(answers)  # False before True, never back


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_decision_zero_iff_equal_canonical(seed):
    rng = random.Random(seed)
    a, b = random_tuple(rng, 2), random_tuple(rng, 2)
    ca, _ = canonicalize(a)
    cb, _ = canonicalize(b)
    assert quot_decision(a, b, 0) == (ca == cb)


def test_decision_errors():
    a, _ = worked_pair()
    with pytest.raises(InputError):
        quot_decision(a, MonoTuple((identity(),)), F(1, 4))
    with pytest.raises(InputError):
        quot_decision(a, a, F(-1, 4))


# --- bisection bracket


def test_worked_bracket():
    a, b = worked_pair()
    qi = quot_dist(a, b, F(1, 64))
    assert qi.lo <= F(1, 4) <= qi.hi
    assert qi.hi - qi.lo <= F(1, 64)
    assert quot_decision(a, b, qi.hi) is True
    assert qi.lo == 0 or quot_decision(a, b, qi.lo) is False


def test_bracket_same_orbit():
    rng = random.Random(8)
    t = random_point(rng, 2).as_tuple()
    g = random_homeo(rng)
    moved = MonoTuple(tuple(compose(f, g) for f in t))
    qi = quot_dist(t, moved, F(1, 64))
    assert qi.lo == qi.hi == 0


def test_bracket_tolerance_validation():
    a, b = worked_pair()
    with pytest.raises(InputError):
        quot_dist(a, b, 0)


@given(seeds)
@settings(max_examples=8, deadline=None)
def test_pseudometric_within_tolerance(seed):
    rng = random.Random(seed)
    tol = F(1, 64)
    a = random_point(rng, 2).as_tuple()
    b = random_point(rng, 2).as_tuple()
    c = random_point(rng, 2).as_tuple()
    ab, ba = quot_dist(a, b, tol), quot_dist(b, a, tol)
    assert abs(ab.lo - ba.lo) <= 2 * tol
    ac, bc = quot_dist(a, c, tol), quot_dist(b, c, tol)
    assert ac.lo <= ab.hi + bc.hi + tol


@given(seeds)
@settings(max_examples=8, deadline=None)
def test_bracket_orbit_invariance(seed):
    rng = random.Random(seed)
    tol = F(1, 64)
    a = random_point(rng, 2).as_tuple()
    b = random_point(rng, 2).as_tuple()
    g = random_homeo(rng)
    moved = MonoTuple(tuple(compose(f, g) for f in a))
    plain, shifted = quot_dist(a, b, tol), quot_dist(moved, b, tol)
    assert abs(plain.lo - shifted.lo) <= 2 * tol


@given(seeds)
@settings(max_examples=8, deadline=None)
def test_contractivity(seed):
    rng = random.Random(seed)
    tol = F(1, 64)
    a = random_point(rng, 2).as_tuple()
    b = random_point(rng, 2).as_tuple()
    qi = quot_dist(a, b, tol)
    ca, _ = canonicalize(a)
    cb, _ = canonicalize(b)
    bound = max(sup_dist(f, g) for f, g in zip(ca.components, cb.components))
    assert qi.hi <= bound + tol


def test_pair_to_identity_closed_form():
    # distance of a canonical pair to the identity pair is half the
    # component sup-distance; checked through the generic bracket
    rng = random.Random(21)
    for _ in range(5):
        p = random_point(rng, 2)
        value = sup_dist(p[0], p[1]) / 2
        qi = quot_dist(p.as_tuple(), MonoTuple((identity(), identity())), F(1, 256))
        assert qi.lo <= value <= qi.hi


# --- grid oracle


def test_oracle_reflexive():
    rng = random.Random(5)
    t = random_tuple(rng, 2)
    assert brute_oracle(t, t, 17) == 0


def test_oracle_worked_value():
    a, b = worked_pair()
    val = brute_oracle(a, b, 64)
    assert F(1, 4) <= val <= F(1, 4) + F(4, 64)


@given(seeds)
@settings(max_examples=6, deadline=None)
def test_oracle_refinement_monotone(seed):
    rng = random.Random(seed)
    a = random_point(rng, 2).as_tuple()
    b = random_point(rng, 2).as_tuple()
    assert brute_oracle(a, b, 32) <= brute_oracle(a, b, 16)


@given(seeds)
@settings(max_examples=6, deadline=None)
def test_oracle_sandwich_small(seed):
    rng = random.Random(seed)
    n = rng.choice([2, 3])
    a = random_point(rng, n).as_tuple()
    b = random_point(rng, n).as_tuple()
    k = 64
    qi = quot_dist(a, b, F(1, 64))
    val = brute_oracle(a, b, k)
    slope = max(max_slope(f) for t in (a, b) for f in t)
    assert qi.lo <= val <= qi.hi + n * slope / k


def test_oracle_errors():
    a, b = worked_pair()
    with pytest.raises(InputError):
        brute_oracle(a, b, 0)
    with pytest.raises(InputError):
        brute_oracle(a, MonoTuple((identity(),)), 4)


# --- identity-proximity bound


def test_identity_point_bound_zero():
    p = embed_homeo(identity())
    bound, member = orbit_identity_bound(p, F(1, 1024), 8)
    assert bound == 0 and member is True


@given(seeds)
@settings(max_examples=10, deadline=None)
def test_embedded_homeos_are_members(seed):
    rng = random.Random(seed)
    p = embed_homeo(random_homeo(rng))
    bound, member = orbit_identity_bound(p, F(1, 16), 32)
    assert member is True and bound < F(1, 16)


def test_net_refinement_never_increases_bound():
    rng = random.Random(31)
    p = embed_homeo(random_homeo(rng))
    b16, _ = orbit_identity_bound(p, F(1, 16), 16)
    b32, _ = orbit_identity_bound(p, F(1, 16), 32)
    assert b32 <= b16


@given(seeds)
@settings(max_examples=10, deadline=None)
def test_bound_never_beats_trivial_path(seed):
    # the untouched reparameterization is on every lattice, so the bound
    # is at most half the sup-distance of the two components
    rng = random.Random(seed)
    p = random_point(rng, 2)
    bound, _ = orbit_identity_bound(p, F(1, 4), 8)
    assert bound <= sup_dist(p[0], p[1]) / 2


def plateau_point(rng):
    """Random canonical pair whose first component has a plateau."""
    while True:
        p = random_point(rng, 2)
        ys = [y for _, y in p[0].breakpoints]
        if any(a == b for a, b in zip(ys, ys[1:])):
            return p


@given(seeds)
@settings(max_examples=10, deadline=None)
def test_plateau_bound_within_ramp_and_refines(seed):
    # each ramp is at most 1/(4 net) wide and second rises at slope <= 2
    p = plateau_point(random.Random(seed))
    bounds = {net: orbit_identity_bound(p, F(1, 16), net).upper_bound for net in (4, 8, 16, 32)}
    for net in (4, 8, 16):
        assert bounds[net] <= F(1, 4 * net)
        assert bounds[2 * net] <= bounds[net]


@pytest.mark.parametrize(
    "first, net, expected",
    [
        # first is flat on [0, 1/4] where second rises at slope 2: the
        # ramp moves the plateau's upper end right by 1/(4 net) = 1/64,
        # where second has reached 1/32, and the bound is half of that
        (((0, 0), (F(1, 4), 0), (F(1, 2), F(1, 2)), (F(3, 4), F(1, 2)), (1, 1)), 16, F(1, 64)),
        # second crosses plateaus of first at t = 0 and t = 1/32: the two
        # ramps share that gap, a third each, and second rises 1/48 over each
        (((0, 0), (F(1, 32), 0), (F(1, 8), F(1, 16)), (F(1, 4), F(1, 16)), (1, 1)), 4, F(1, 96)),
    ],
    ids=["one-ramp", "two-ramps-share-a-gap"],
)
def test_ramp_at_time_zero(first, net, expected):
    first = PLMono(first)
    second = PLMono(tuple((x, 2 * x - y) for x, y in first.breakpoints))
    p = CanonicalTuple((first, second), uniform_weights(2))
    bound, member = orbit_identity_bound(p, F(1, 32), net)
    assert bound == expected and member is True


def test_orbit_identity_bound_validation():
    p = embed_homeo(identity())
    with pytest.raises(InputError):
        orbit_identity_bound(p, F(1, 8), 0)
    rng = random.Random(2)
    triple = random_point(rng, 3)
    with pytest.raises(InputError):
        orbit_identity_bound(triple, F(1, 8), 8)
