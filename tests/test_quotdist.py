"""Quotient distance: the exact value and the decision read from it,
checked against a free-space decision in Fractions; the bracket; the
independent grid oracle and the identity-proximity bound."""

import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

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
from plmonoid import quotdist
from plmonoid.gaps import extreme_pair
from plmonoid.explorer import net_points, random_homeo, random_mono, random_point, random_tuple
from plmonoid.plcore import InvariantViolation, _ints, _merged, _sweep, _sweep_ends, _tabulate

from conftest import COPRIME_DENS, coprime_map, fractions, probe_tuple, ratios, tabulated

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


def fraction_edges(a, b):
    """The reference's edge data, in Fractions: per (side, fixed node,
    cell) the grid ends, the largest gap to a flat component and the
    (centre, half-width at eps = 1) of each sloped one."""
    U, AU = tabulated(a.components)
    V, BV = tabulated(b.components)
    edges = {}
    for side, (grid, moving, other) in enumerate(((U, AU, BV), (V, BV, AU))):
        for fixed in range(len(other[0])):
            for cell in range(len(grid) - 1):
                lo, hi = grid[cell], grid[cell + 1]
                gap, sloped = F(0), []
                for mv, ov in zip(moving, other):
                    fixed_val, f0, f1 = ov[fixed], mv[cell], mv[cell + 1]
                    if f0 == f1:
                        gap = max(gap, abs(fixed_val - f0))
                    else:
                        width = (hi - lo) / (f1 - f0)
                        sloped.append((lo + (fixed_val - f0) * width, width))
                edges[side, fixed, cell] = lo, hi, gap, sloped
    return edges, len(U) - 1, len(V) - 1


def fraction_decision(a, b, eps, edges=None):
    """Reference: the free-space decision computed edge by edge in Fractions."""
    edges, P, Q = edges or fraction_edges(a, b)

    def edge_free(side, fixed, cell):
        span_lo, span_hi, gap, sloped = edges[side, fixed, cell]
        if gap > eps:
            return None
        for centre, width in sloped:
            span_lo, span_hi = max(span_lo, centre - eps * width), min(span_hi, centre + eps * width)
            if span_lo > span_hi:
                return None
        return span_lo, span_hi

    def axis(side):
        spans, reached = [], True
        for cell in range(Q if side else P):
            grid_lo, grid_hi, _, _ = edges[side, 0, cell]
            fr = edge_free(side, 0, cell) if reached else None
            if fr is not None and fr[0] == grid_lo:
                reached = fr[1] == grid_hi
            else:
                fr, reached = None, False
            spans.append(fr)
        return spans

    def join(fr, other, through):
        # An edge reached straight through the cell keeps its span;
        # reached only from the opposite edge, it starts no lower.
        if fr is None or through is not None:
            return fr
        lo = max(fr[0], other[0])
        return (lo, fr[1]) if lo <= fr[1] else None

    vert = [axis(1)] + [[None] * Q for _ in range(P)]
    horiz = [[fr] + [None] * Q for fr in axis(0)]
    for p in range(P):
        for q in range(Q):
            left, bottom = vert[p][q], horiz[p][q]
            if left is None and bottom is None:
                continue
            vert[p + 1][q] = join(edge_free(1, p + 1, q), left, bottom)
            horiz[p][q + 1] = join(edge_free(0, q + 1, p), bottom, left)
    return any(fr is not None and fr[1] == 1 for fr in (vert[P][Q - 1], horiz[P - 1][Q]))


def bisection_reference(a, b, tol) -> tuple[F, F, int]:
    """(lo, hi, decisions) of quot_dist by the plain bisection: a
    fraction_decision at 0, at the canonical sup bound and at every
    midpoint, on edges built once."""
    a, b = MonoTuple(tuple(a)), MonoTuple(tuple(b))
    edges = fraction_edges(a, b)
    if fraction_decision(a, b, F(0), edges):
        return F(0), F(0), 1
    ca, cb = canonicalize(a)[0], canonicalize(b)[0]
    hi = max(sup_dist(f, g) for f, g in zip(ca, cb))
    if not fraction_decision(a, b, hi, edges):
        raise InvariantViolation("canonical sup-distance failed as an upper bound")
    lo, decisions = F(0), 2
    while hi - lo > tol:
        mid = (lo + hi) / 2
        decisions += 1
        if fraction_decision(a, b, mid, edges):
            hi = mid
        else:
            lo = mid
    return lo, hi, decisions


def span_meeting_eps(edges):
    """Each edge's critical eps: where the spans of two sloped components
    meet, (c2 - c1)/(w1 + w2), and where one meets a grid end, |c - end|/w."""
    out = set()
    for lo, hi, _, sloped in edges.values():
        for i, (c1, w1) in enumerate(sloped):
            out |= {abs(c1 - end) / w1 for end in (lo, hi)}
            out |= {abs(c2 - c1) / (w1 + w2) for c2, w2 in sloped[i + 1:]}
    return out


@given(seeds, st.sampled_from([2, 3]), st.sampled_from(["point", "tuple", "coprime"]))
@example(1, 2, "coprime")
@example(0, 3, "coprime")
@settings(max_examples=5, deadline=None)
def test_int_decision_matches_fraction_reference(seed, n, kind):
    # Critical eps, where spans of neighbouring edges or components just
    # touch, are where exact ties decide the answer: node gaps, and where
    # an edge's spans meet each other or its grid ends.  The coprime kind
    # gives every component of both tuples its own 100-digit denominator;
    # the two explicit examples are where an int free-space decision whose
    # cell scale dropped one value's denominator flipped the answer at a
    # span-meeting eps.
    rng = random.Random(seed)
    dens = rng.sample(COPRIME_DENS, 2 * n)
    draw = {
        "point": lambda: random_point(rng, n).as_tuple(),
        "tuple": lambda: random_tuple(rng, n),
        "coprime": lambda: MonoTuple(tuple(coprime_map(rng, dens.pop(), 1) for _ in range(n))),
    }[kind]
    a, b = draw(), draw()
    _, AU = tabulated(a.components)
    _, BV = tabulated(b.components)
    gaps = {abs(x - y) for au, bv in zip(AU, BV) for x in au for y in bv}
    tiny = F(1, 2**40)
    qi = quot_dist(a, b, F(1, 1024))
    edges = fraction_edges(a, b)
    critical = gaps | span_meeting_eps(edges[0])
    # The bracket's ends and 0 are checked too.
    for eps in sorted(critical | {g - tiny for g in gaps if g >= tiny} | {F(0), qi.lo, qi.hi}):
        assert quot_decision(a, b, eps) == fraction_decision(a, b, eps, edges), eps



def _pl(*points):
    return PLMono(tuple((F(x), F(y)) for x, y in points))


# Pairs whose quotient distance is a flat gap: on every monotone path
# some edge is free only where a flat component's gap to the fixed node
# is at most eps, so the free space closes at that gap exactly.
FLAT_GAP_BINDS = {
    "9/16": (
        (_pl((0, 0), ("1/4", "1/8"), ("3/8", "7/16"), ("1/2", "7/16"), ("5/8", "15/16"), ("7/8", "15/16"), (1, 1)),
         _pl((0, 0), ("1/4", 0), ("1/2", 1), (1, 1))),
        (_pl((0, 0), ("1/3", "1/18"), ("2/3", 1), (1, 1)), _pl((0, 0), ("1/2", 0), ("3/4", "1/3"), (1, 1))),
        F(9, 16),
    ),
    "61/210": (
        (_pl((0, 0), ("1/3", "3/5"), ("2/3", "3/5"), (1, 1)), _pl((0, 0), ("1/3", "1/15"), ("2/3", "11/15"), (1, 1))),
        (_pl((0, 0), ("1/6", "4/21"), ("1/3", "13/42"), ("1/2", "13/42"), ("2/3", "17/42"), ("5/6", "2/3"), (1, 1)),
         _pl((0, 0), ("1/6", "1/7"), ("1/3", "5/14"), ("1/2", "29/42"), ("2/3", "13/14"), ("5/6", 1), (1, 1))),
        F(61, 210),
    ),
}


@pytest.mark.parametrize("a, b, value", FLAT_GAP_BINDS.values(), ids=FLAT_GAP_BINDS.keys())
def test_decision_is_closed_where_a_flat_gap_binds(a, b, value):
    a, b = MonoTuple(a), MonoTuple(b)
    below = value - F(1, 2**40)
    for x, y in ((a, b), (b, a)):
        assert quot_decision(x, y, value) is True
        assert quot_decision(x, y, below) is False
    edges = fraction_edges(a, b)
    assert fraction_decision(a, b, value, edges) is True
    assert fraction_decision(a, b, below, edges) is False


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
    with pytest.raises(InputError, match="not a bracket"):
        quotdist.QuotInterval(F(1, 2), F(1, 4))
    for lo, hi in ((None, None), (0, None), ("0", "1/2")):
        with pytest.raises(InputError, match="not a bracket"):
            quotdist.QuotInterval(lo, hi)
    # int and Fraction ends are kept as given
    assert repr(quotdist.QuotInterval(0, F(1, 2))) == "QuotInterval(lo=0, hi=Fraction(1, 2), decisions=0)"


def test_bracket_needs_exact_ends_and_a_count():
    for lo, hi in ((0.0, F(1, 2)), (0, 0.5), (False, 1), (0, True), (F(1, 3), float("inf"))):
        with pytest.raises(InputError, match="not a bracket"):
            quotdist.QuotInterval(lo, hi)
    with pytest.raises(InputError) as info:
        quotdist.QuotInterval(F(2, 3), F(1, 3**200))
    assert str(info.value) == f"not a bracket: [2/3, {str(F(1, 3**200))[:60]}]"
    for decisions in (None, -3, True, 2.0, "1"):
        with pytest.raises(InputError, match="decisions must be an int of at least 0"):
            quotdist.QuotInterval(0, F(1, 2), decisions)
    assert quotdist.QuotInterval(F(1, 4), 1, 0).decisions == 0


def draw_pair(rng, kind):
    """A pair of tuples of one length: random_point pairs and triples,
    random_tuple pairs of length 1 to 5, pairs of coprime_map pairs over
    four 100-digit denominators, or a random_tuple and a
    reparameterization of it (distance 0)."""
    if kind in ("point2", "point3"):
        n = int(kind[-1])
        return random_point(rng, n), random_point(rng, n)
    if kind == "tuple":
        n = rng.randrange(1, 6)
        return random_tuple(rng, n), random_tuple(rng, n)
    if kind == "coprime":
        dens = rng.sample(COPRIME_DENS, 4)
        return tuple(MonoTuple(tuple(coprime_map(rng, dens.pop(), 3) for _ in range(2))) for _ in range(2))
    t = random_tuple(rng, rng.randrange(2, 4))
    g = random_homeo(rng)
    return t, MonoTuple(tuple(compose(f, g) for f in t))


PAIR_KINDS = ["point2", "point3", "tuple", "coprime", "orbit"]
tols = st.sampled_from([F(1, 64), F(1, 256), F(1, 4096)])


@given(seeds, st.sampled_from(PAIR_KINDS), tols)
@example(0, "orbit", F(1, 64))
@example(1, "point3", F(1, 256))
@settings(max_examples=40, deadline=None)
def test_quot_dist_matches_plain_bisection(seed, kind, tol):
    # The bracket is read off the exact value; lo, hi and the count of
    # bisection steps must be the plain bisection's.
    a, b = draw_pair(random.Random(seed), kind)
    qi = quot_dist(a, b, tol)
    assert (qi.lo, qi.hi, qi.decisions) == bisection_reference(a, b, tol)


@given(seeds, st.sampled_from(PAIR_KINDS))
@example(1, "point3")
@example(0, "orbit")
@settings(max_examples=30, deadline=None)
def test_decision_false_just_below_the_floor(seed, kind):
    # The exact value is the least eps the decision accepts: True at it
    # and False just below it, here and in the Fraction free-space
    # reference alike.  It is at most the canonical sup bound.
    a, b = (MonoTuple(tuple(t)) for t in draw_pair(random.Random(seed), kind))
    d = quotdist._value(a, b)
    ca, cb = canonicalize(a)[0], canonicalize(b)[0]
    assert d <= max(sup_dist(f, g) for f, g in zip(ca, cb))
    edges = fraction_edges(a, b)
    assert quot_decision(a, b, d) is fraction_decision(a, b, d, edges) is True
    if d:
        below = max(F(0), d - F(1, 2**60))
        assert quot_decision(a, b, below) is fraction_decision(a, b, below, edges) is False


@given(seeds, st.sampled_from(["point", "tuple", "coprime"]))
@settings(max_examples=20, deadline=None)
def test_pair_value_is_the_canonical_sup_bound(seed, kind):
    # For n = 2 the canonical forms sum to 2u, so their differences at u
    # are d and -d, and a path that moves either way from (u, u) pays |d|:
    # the distance is the sup bound, which is the bracket's hi.
    rng = random.Random(seed)
    if kind == "tuple":
        a, b = random_tuple(rng, 2), random_tuple(rng, 2)
    else:
        a, b = draw_pair(rng, "point2" if kind == "point" else kind)
    a, b = MonoTuple(tuple(a)), MonoTuple(tuple(b))
    ca, cb = canonicalize(a)[0], canonicalize(b)[0]
    hi = max(sup_dist(f, g) for f, g in zip(ca, cb))
    assert quotdist._value(a, b) == hi
    assert quot_decision(a, b, hi) is True
    if hi:
        assert quot_decision(a, b, hi - F(1, 2**60)) is False
        assert quot_dist(a, b, F(1, 64)).hi == hi


# 2^-200 and 3/10^50 run far more steps than the tolerances above, the
# second with a width test that is never exact; 2 lies above every hi.
@given(seeds, st.sampled_from(PAIR_KINDS), st.sampled_from([F(1, 2**200), F(3, 10**50), F(2)]))
@example(1, "point3", F(1, 2**200))
@example(0, "tuple", F(2))
@settings(max_examples=25, deadline=None)
def test_int_bracket_matches_plain_bisection_at_extreme_tolerances(seed, kind, tol):
    a, b = draw_pair(random.Random(seed), kind)
    qi = quot_dist(a, b, tol)
    assert (qi.lo, qi.hi, qi.decisions) == bisection_reference(a, b, tol)
    assert type(qi.lo) is type(qi.hi) is F


@pytest.mark.parametrize("n", [2, 3])
def test_pair_at_a_tiny_tolerance_takes_one_step_per_halving(n):
    # After the checks at 0 and hi0 the bracket halves k times, and no
    # halving costs more than int arithmetic on the exact value.
    rng = random.Random(1)
    a, b = random_point(rng, n), random_point(rng, n)
    tol = F(1, 10**4000)
    hi0 = quot_dist(a, b, F(2)).hi
    assert hi0 > 0
    # The least k with hi0 / 2^k <= tol: 2^k >= ceil(hi0 / tol).
    k = (-(-hi0 // tol) - 1).bit_length()
    qi = quot_dist(a, b, tol)
    assert qi.decisions == 2 + k
    assert qi.hi - qi.lo == hi0 / 2**k
    if n == 2:
        assert qi.lo < qi.hi == hi0
    else:
        assert quot_decision(a, b, qi.hi) is True and quot_decision(a, b, qi.lo) is False
    # A width that meets tol exactly takes no further halving.
    qi = quot_dist(a, b, hi0 / 8)
    assert qi.decisions == 5 and qi.hi - qi.lo == hi0 / 8


def test_worked_triple_value_is_a_bracket_end():
    # a is the identity triple and b = identity + (d1, d2, d3), both
    # canonical.  The differences are (3/16, -3/16, 0) at 1/4 and
    # (1/4, -1/8, -1/8) at 3/4, so hi is 1/4.  The distance is the
    # largest half-spread of b's components, 3/16 = 3/4 * hi, so at
    # tol 1/64 it is the upper end 12/64 itself: d * 2^k / hi is an exact
    # int, which the bracket must not round up.
    a = CanonicalTuple((identity(),) * 3, uniform_weights(3))
    b = CanonicalTuple(tuple(PLMono(((F(0), F(0)), (F(1, 4), y0), (F(3, 4), y1), (F(1), F(1))))
                             for y0, y1 in ((F(7, 16), F(1)), (F(1, 16), F(5, 8)), (F(1, 4), F(5, 8)))),
                       uniform_weights(3))
    assert quotdist._value(a, b) == F(3, 16)
    assert quot_decision(a, b, F(3, 16)) is True
    assert quot_decision(a, b, F(3, 16) - F(1, 2**60)) is False
    qi = quot_dist(a, b, F(1, 64))
    assert (qi.lo, qi.hi, qi.decisions) == (F(11, 64), F(3, 16), 6) == bisection_reference(a, b, F(1, 64))


@given(seeds, st.sampled_from([2, 3]))
@settings(max_examples=10, deadline=None)
def test_weighted_canonical_input_is_canonicalized_again(seed, n):
    # Only a canonical tuple with equal weights is its own canonical form;
    # with other weights quot_dist must start from its uniform one.
    rng = random.Random(seed)
    weights = (F(1, 2 * n),) * (n - 1) + (F(n + 1, 2 * n),)
    ct, _ = canonicalize(random_tuple(rng, n), weights)
    other = random_tuple(rng, n)
    qi = quot_dist(ct, other, F(1, 256))
    assert qi == quot_dist(ct.as_tuple(), other, F(1, 256))
    assert (qi.lo, qi.hi, qi.decisions) == bisection_reference(ct, other, F(1, 256))


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


# --- the exact value: one walk against two walks, and the metric laws


def two_walk_value(a, b):
    """_value by one two-pointer walk per side: each grid line of one
    side finds its crossing cell among the other side's nodes, and the
    differences are rebuilt at every node the walk passes.  The
    reference the one walk along the sign boundary is checked against."""
    if len(a) != len(b):
        raise InputError(f"tuple lengths differ: {len(a)} vs {len(b)}")
    nodes = [[_ints(col) for col in zip(*_tabulate(t.components)[1])] for t in (a, b)]
    best, best_d = 0, 1
    for own, other in (nodes, nodes[::-1]):
        q = 0
        for vals, c in own:
            v0, c0 = other[q]
            lo = [x * c0 - y * c for x, y in zip(vals, v0)]
            # P - N is at most 0 at the far end, where every map is 1.
            while True:
                v1, c1 = other[q + 1]
                hi = [x * c1 - y * c for x, y in zip(vals, v1)]
                if max(hi) + min(hi) <= 0:
                    break
                q, lo, c0 = q + 1, hi, c1
            S = c * c0 * c1
            if min(c1 * max(lo), -c0 * min(hi)) * best_d <= best * S:
                continue
            d0 = [c1 * x for x in lo]
            d1 = [c0 * x for x in hi]
            top, top_d = 0, 1
            for x0, x1 in zip(d0, d1):
                # Y_j runs from -e0 to -e1.
                for e0, e1 in zip(d0, d1):
                    if x0 + e0 <= 0:
                        num, den = x0, 1
                    elif x1 + e1 >= 0:
                        num, den = -e1, 1
                    else:
                        num, den = x1 * e0 - x0 * e1, x0 + e0 - x1 - e1
                    if num * top_d > top * den:
                        top, top_d = num, den
            if top * best_d > best * top_d * S:
                best, best_d = top, top_d * S
    return F(best, best_d)


def end_plateau_tuple(rng, n):
    """A tuple of n maps, random_mono or coprime_map, not canonical:
    all of them composed with one h that rests at 0 on [0, s] and at 1
    on [t, 1], s = 0 or t = 1 leaving that end without a plateau."""
    s, t = sorted(rng.choice([F(0), F(rng.randrange(1, 8), 8)]) for _ in range(2))
    t = t if s < t else F(1)
    h = PLMono(tuple(dict.fromkeys([(F(0), F(0)), (s, F(0)), (t, F(1)), (F(1), F(1))])))
    dens = rng.sample(COPRIME_DENS, n)
    maps = [coprime_map(rng, d, 3) if rng.randrange(2) else random_mono(rng) for d in dens]
    return MonoTuple(tuple(compose(f, h) for f in maps))


@given(seeds, st.sampled_from([*PAIR_KINDS, "self", "ends"]))
@example(3, "ends")
@example(0, "self")
@settings(max_examples=60, deadline=None)
def test_one_walk_value_matches_two_walk_reference(seed, kind):
    # "self" compares a tuple of any kind with itself; "ends" draws
    # tuples of 1 to 5 maps, some over coprime 100-digit denominators,
    # that rest at 0 or at 1 together, so the walk steps right along
    # v = 0 before it meets R, and some lines have no node in R.
    rng = random.Random(seed)
    if kind == "self":
        a = b = draw_pair(rng, rng.choice(PAIR_KINDS))[0]
    elif kind == "ends":
        n = rng.randrange(1, 6)
        a, b = end_plateau_tuple(rng, n), end_plateau_tuple(rng, n)
    else:
        a, b = draw_pair(rng, kind)
    a, b = MonoTuple(tuple(a)), MonoTuple(tuple(b))
    for x, y in ((a, b), (b, a)):
        assert quotdist._value(x, y) == two_walk_value(x, y)


@given(seeds, st.sampled_from([*PAIR_KINDS, "ends"]))
@settings(max_examples=30, deadline=None)
def test_value_is_symmetric_and_invariant_under_reparameterization(seed, kind):
    # Exact equalities, not brackets: the walk treats a's side and b's
    # side differently, so symmetry is a real check.
    rng = random.Random(seed)
    if kind == "ends":
        n = rng.randrange(1, 6)
        a, b = end_plateau_tuple(rng, n), end_plateau_tuple(rng, n)
    else:
        a, b = (MonoTuple(tuple(t)) for t in draw_pair(rng, kind))
    d = quotdist._value(a, b)
    assert quotdist._value(b, a) == d
    moved = [MonoTuple(tuple(compose(f, g) for f in t)) for t, g in ((a, random_homeo(rng)), (b, random_homeo(rng)))]
    assert quotdist._value(*moved) == quotdist._value(moved[0], b) == quotdist._value(a, moved[1]) == d


@given(seeds, st.sampled_from(["point", "tuple"]))
@settings(max_examples=30, deadline=None)
def test_value_triangle_inequality(seed, kind):
    rng = random.Random(seed)
    n = rng.randrange(1, 5) if kind == "tuple" else rng.randrange(2, 5)
    draw = (lambda: random_tuple(rng, n)) if kind == "tuple" else (lambda: random_point(rng, n).as_tuple())
    a, b, c = draw(), draw(), draw()
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        assert quotdist._value(x, z) <= quotdist._value(x, y) + quotdist._value(y, z)


@given(seeds, st.sampled_from([*PAIR_KINDS, "ends"]))
@settings(max_examples=20, deadline=None)
def test_value_zero_against_own_canonical_form(seed, kind):
    rng = random.Random(seed)
    t = end_plateau_tuple(rng, rng.randrange(1, 6)) if kind == "ends" else MonoTuple(tuple(draw_pair(rng, kind)[0]))
    ct = canonicalize(t)[0]
    assert quotdist._value(t, ct) == quotdist._value(ct, t) == 0


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


def run_values(runs):
    """Every value of a list of (length, first, increment) runs, as Fractions."""
    return [F(*first) + j * F(*inc) for length, first, inc in runs for j in range(length)]


def pointwise_oracle_side(own, other, k):
    """Reference set-up: every grid value and crossing value by its own
    sweep, as runs of length one of (numerator, denominator) pairs."""
    def runs(values):
        return [(1, v, (0, 1)) for v in values]

    grid = ratios(F(p, k) for p in range(k + 1))
    vals = [runs(_sweep(f._xr, f._yr, grid)) for f in own]
    kinks = []
    for f, g in zip(own, other):
        for x, y in f.breakpoints[1:-1]:
            if (x * k).denominator != 1:
                step = int(x * k) + 1
                crossings = [x + F(q - step, k) for q in range(1, k + 1)]
                kinks.append((step, runs([y.as_integer_ratio(), *_sweep(g._xr, g._yr, ratios(crossings))])))
    return vals, kinks


@given(seeds, st.sampled_from([1, 2, 3, 7, 16, 64]), st.sampled_from(["grid", "off", "kink"]), st.booleans())
@settings(max_examples=40, deadline=None)
def test_runs_match_pointwise_sweep(seed, k, start, coprime):
    # Runs from 0, from a random x0 in (0, 1/k) and from a breakpoint's
    # offset into its step (as the oracle's diagonal crossings do), with x0
    # as an unreduced pair; each run's value pairs are reduced Fractions.
    rng = random.Random(seed)
    f = coprime_map(rng, rng.choice(COPRIME_DENS)) if coprime else random_mono(rng)
    inside = [x - F(int(x * k), k) for x, _ in f.breakpoints[1:-1] if (x * k).denominator != 1]
    if start == "grid":
        x0, count = F(0), k + 1
    else:
        x0, count = F(rng.randrange(1, 10**6), 10**6 * k), k
        if start == "kink" and inside:
            x0 = rng.choice(inside)
    scale = rng.randrange(1, 5)
    runs = quotdist._runs(f, (x0.numerator * scale, x0.denominator * scale), k, count)
    assert run_values(runs) == fractions(_sweep(f._xr, f._yr, ratios(x0 + F(m, k) for m in range(count))))
    assert all(r == F(*r).as_integer_ratio() for _, first, inc in runs for r in (first, inc))


def test_oracle_scale_is_lcm_of_reduced_denominators(monkeypatch):
    # The oracle's one scale is the lcm of the reduced denominators of
    # every value it meets, as when each value was a Fraction.
    scales = []

    def recording_ints(ratios):
        ints, d = _ints(ratios)
        scales.append((d, lcm(*(F(n, q).denominator for n, q in ratios))))
        return ints, d

    monkeypatch.setattr(quotdist, "_ints", recording_ints)
    rng = random.Random(12)
    dens = rng.sample(COPRIME_DENS, 4)
    pairs = [(random_point(rng, n).as_tuple(), random_point(rng, n).as_tuple()) for n in (2, 3)]
    pairs.append(tuple(MonoTuple(tuple(coprime_map(rng, dens.pop(), 3) for _ in range(2))) for _ in range(2)))
    for a, b in pairs:
        for k in (3, 16):
            brute_oracle(a, b, k)
    assert len(scales) == 2 * len(pairs)
    assert all(d == expected for d, expected in scales)


def convex_map(xs, plateau=None):
    """Map through (x, x(1+x)/2) at 0, 1 and xs, every one a kink; with
    ``plateau`` = (x0, x1) the map is held flat over [x0, x1]."""
    pts = sorted({F(0), F(1), *xs} | set(plateau or ()))
    ys = [x * (1 + x) / 2 for x in pts]
    if plateau:
        ys = [ys[pts.index(plateau[0])] if plateau[0] <= x <= plateau[1] else y for x, y in zip(pts, ys)]
    return PLMono(tuple(zip(pts, ys)))


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 16])
def test_oracle_runs_match_pointwise_setup(k, monkeypatch):
    # a kinks at (k//2 + 1/3)/k, whose diagonal crossings are (q - 2/3)/k;
    # b kinks at the first and last crossing, and both kink on grid points,
    # so runs start and end on every kind of boundary.
    on_grid = [F(j, k) for j in range(1, k)]
    kink = F(3 * (k // 2) + 1, 3 * k)
    crossings = [F(1, 3 * k), F(3 * k - 2, 3 * k)]
    a = MonoTuple((convex_map([kink, *on_grid[::2]]), convex_map(on_grid[1::3], (F(1, 2), F(2, 3)))))
    b = MonoTuple((convex_map([*crossings, *on_grid[1::2]]), convex_map([kink, *crossings], (F(0), F(1, 5)))))
    values = [brute_oracle(a, b, k), brute_oracle(b, a, k), brute_oracle(a, a, k)]
    monkeypatch.setattr(quotdist, "_oracle_side", pointwise_oracle_side)
    assert values == [brute_oracle(a, b, k), brute_oracle(b, a, k), brute_oracle(a, a, k)]


@pytest.mark.parametrize("k", [1, 2, 3, 7, 16, 64])
def test_oracle_side_kinks_match_pointwise_groups(k):
    # One group per interior kink, in (component, position) order: its
    # step, its value and the partner's values at its k crossings.
    rng = random.Random(k)
    dens = rng.sample(COPRIME_DENS, 4)
    pairs = [(make(rng, n), make(rng, n)) for n in (1, 2, 3) for make in (random_tuple, random_point)]
    pairs.append(tuple(MonoTuple(tuple(coprime_map(rng, dens.pop(), 3) for _ in range(2))) for _ in range(2)))
    seen = 0
    for a, b in pairs:
        for own, other in ((a, b), (b, a)):
            got = [(step, run_values(runs)) for step, runs in quotdist._oracle_side(own, other, k)[1]]
            assert got == [(step, run_values(runs)) for step, runs in pointwise_oracle_side(own, other, k)[1]]
            seen += len(got)
    assert seen


def edge_extra_oracle(a, b, k):
    """Reference grid oracle, pointwise in Fractions, with an edge extra on
    every step: the largest component distance at each interior kink of a
    moving side, measured where the step crosses it."""
    a, b = a.components, b.components
    n = len(a)

    def kinks(t, step):
        return [(i, x, y) for i, f in enumerate(t) for x, y in f.breakpoints[1:-1]
                if F(step - 1, k) < x < F(step, k)]

    def extra(dists):
        return max(dists, default=F(0))

    def node(p, q):
        return max(abs(a[i](F(p, k)) - b[i](F(q, k))) for i in range(n))

    def hor(p, q):
        return extra(abs(y - b[i](F(q, k))) for i, _, y in kinks(a, p))

    def ver(p, q):
        return extra(abs(a[i](F(p, k)) - y) for i, _, y in kinks(b, q))

    def diag(p, q):
        return max(extra(abs(y - b[i](x + F(q - p, k))) for i, x, y in kinks(a, p)),
                   extra(abs(a[i](x + F(p - q, k)) - y) for i, x, y in kinks(b, q)))

    cost = {}
    for p in range(k + 1):
        for q in range(k + 1):
            steps = []
            if p:
                steps.append(max(cost[p - 1, q], hor(p, q)))
            if q:
                steps.append(max(cost[p, q - 1], ver(p, q)))
            if p and q:
                steps.append(max(cost[p - 1, q - 1], diag(p, q)))
            cost[p, q] = max(node(p, q), min(steps, default=F(0)))
    return cost[k, k]


@pytest.mark.parametrize("k", [1, 2, 3, 7, 16])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_oracle_matches_edge_extra_reference(n, k):
    # horizontal and vertical extras never change the answer: along such a
    # step each component difference is monotone and peaks at a node
    rng = random.Random(100 * n + k)
    for make in (random_tuple, random_point):
        a, b = make(rng, n), make(rng, n)
        assert brute_oracle(a, b, k) == edge_extra_oracle(a, b, k)
        assert brute_oracle(b, a, k) == edge_extra_oracle(b, a, k)


def full_grid_oracle(a, b, k):
    """Reference: the oracle's min-max DP over every node of the grid, a
    row at a time, on the oracle's own set-up expanded to Fractions."""
    (va, ka), (vb, kb) = quotdist._oracle_side(a, b, k), quotdist._oracle_side(b, a, k)
    ai, bi = [run_values(r) for r in va], [run_values(r) for r in vb]
    row_kinks, col_kinks = {}, {}
    for kk, by_step in ((ka, row_kinks), (kb, col_kinks)):
        for step, runs in kk:
            y, *crossings = run_values(runs)
            by_step.setdefault(step, []).append((y, crossings))

    def node(p, q):
        return max(abs(x[p] - y[q]) for x, y in zip(ai, bi))

    def diag(p, q):
        extras = [abs(y - row[q - 1]) for y, row in row_kinks.get(p, ())]
        return max(extras + [abs(y - col[p - 1]) for y, col in col_kinks.get(q, ())], default=F(0))

    prev = [node(0, q) for q in range(k + 1)]
    for p in range(1, k + 1):
        cur = [node(p, 0)]
        for q in range(1, k + 1):
            cur.append(max(node(p, q), min(cur[q - 1], prev[q], max(prev[q - 1], diag(p, q)))))
        prev = cur
    return prev[k]


def tent_pair(rng, n):
    """(id + d, id - d, ...) against identities, d a tent of height h at c:
    at u = c every alignment is h away from one of the first two
    components, so the optimum is the diagonal path and h = max sup_dist."""
    c = F(rng.randrange(1, 8), 8)
    h = min(c, 1 - c) * F(rng.randrange(1, 4), 4)
    tents = [PLMono(((F(0), F(0)), (c, c + s * h), (F(1), F(1)))) for s in (1, -1)]
    return MonoTuple(tuple(tents[i % 2] for i in range(max(n, 2)))), MonoTuple((identity(),) * max(n, 2))


@given(seeds, st.sampled_from([1, 2, 3, 5]), st.sampled_from([1, 2, 3, 7, 16, 64]),
       st.sampled_from(["tuple", "point", "coprime", "tent"]))
@example(3, 2, 64, "tent")
@example(5, 3, 16, "tent")
@settings(max_examples=30, deadline=None)
def test_oracle_band_matches_full_grid_dp(seed, n, k, kind):
    # The oracle runs its DP only on nodes no dearer than the diagonal
    # path; the full grid gives the same value in both orders.  In the tent
    # pairs the optimum is the diagonal path itself, and with c on the grid
    # its node at c costs exactly the bound: a band end that dropped the
    # nodes at the bound would lose the optimal path.
    rng = random.Random(seed)
    dens = rng.sample(COPRIME_DENS, 2 * n)
    a, b = {
        "tuple": lambda: (random_tuple(rng, n), random_tuple(rng, n)),
        "point": lambda: (random_point(rng, n).as_tuple(), random_point(rng, n).as_tuple()),
        "coprime": lambda: [MonoTuple(tuple(coprime_map(rng, dens.pop(), 3) for _ in range(n))) for _ in range(2)],
        "tent": lambda: tent_pair(rng, n),
    }[kind]()
    assert brute_oracle(a, b, k) == full_grid_oracle(a, b, k)
    assert brute_oracle(b, a, k) == full_grid_oracle(b, a, k)
    if kind == "tent":
        assert brute_oracle(a, b, k) == max(sup_dist(f, g) for f, g in zip(a, b))


def test_oracle_errors():
    a, b = worked_pair()
    with pytest.raises(InputError):
        brute_oracle(a, b, 0)
    with pytest.raises(InputError):
        brute_oracle(a, MonoTuple((identity(),)), 4)
    # Only an int grid resolution, checked before the tuples are read.
    for k in (2.5, "3", True, F(4), None):
        with pytest.raises(InputError, match="grid resolution must be an int"):
            brute_oracle(a, b, k)
        with pytest.raises(InputError, match="grid resolution must be an int"):
            brute_oracle(None, None, k)


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


def built_orbit_bound(point, net):
    """The orbit bound the long way: tilt each vertical of the
    level-matching curve into a ramp, build the reparameterization w as a
    PLMono, and halve the smaller of sup_dist(first o w, second) and
    sup_dist(first, second)."""
    first, second = point.components
    levels = _merged((first._yr, second._yr))
    (t0s, t1s), (x0s, x1s) = (_sweep_ends(m._yr, m._xr, levels) for m in (second, first))
    verts = []
    for t0, t1, x0, x1 in zip(t0s, t1s, x0s, x1s):
        verts.append((F(*t0), F(*x0)))
        if (t1, x1) != (t0, x0):
            verts.append((F(*t1), F(*x1)))
    ramp = F(1, 4 * net)
    pts = [verts[0]]
    for i, (t, x) in enumerate(verts[1:], 1):
        if t == pts[-1][0]:  # a vertical: its upper end moves right at t = 0, else its lower end left
            if t == 0:
                t = min(ramp, verts[i + 1][0] / 3)
            else:
                pts[-1] = (t - min(ramp, (t - verts[i - 2][0]) / 3), pts[-1][1])
        pts.append((t, x))
    w = PLMono(pts)
    return min(sup_dist(compose(first, w), second), sup_dist(first, second)) / 2


ORBIT_NETS = (1, 2, 3, 7, 16, 1000)


def assert_orbit_bound_is_built_cost(point):
    for net in ORBIT_NETS:
        expected = built_orbit_bound(point, net)
        eps = F(1, 8 * net)
        got = orbit_identity_bound(point, eps, net)
        assert got == (expected, expected < eps) and type(got.upper_bound) is F


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_orbit_bound_matches_built_reparameterization(seed):
    rng = random.Random(seed)
    for p in (random_point(rng, 2), plateau_point(rng), embed_homeo(random_homeo(rng))):
        assert_orbit_bound_is_built_cost(p)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_orbit_bound_matches_built_reparameterization_on_net_points(m):
    for p in net_points(2, m):
        assert_orbit_bound_is_built_cost(p)


def test_orbit_identity_bound_validation():
    p = embed_homeo(identity())
    with pytest.raises(InputError):
        orbit_identity_bound(p, F(1, 8), 0)
    rng = random.Random(2)
    triple = random_point(rng, 3)
    with pytest.raises(InputError):
        orbit_identity_bound(triple, F(1, 8), 8)
    # canonical (its weighted mean is the identity), but with unequal weights
    skewed = CanonicalTuple((identity(), identity()), (F(1, 3), F(2, 3)))
    with pytest.raises(InputError, match="expected equal weights"):
        orbit_identity_bound(skewed, F(1, 8), 8)
    # Only an int net resolution, checked before the point is read.
    for net in (2.5, "3", True, F(4), None):
        with pytest.raises(InputError, match="net resolution must be an int"):
            orbit_identity_bound(p, F(1, 8), net)
        with pytest.raises(InputError, match="net resolution must be an int"):
            orbit_identity_bound(None, None, net)


# --- sizes: every int is scaled over the values of one grid node


def test_free_space_ints_stay_local(monkeypatch):
    # Two probe tuples with coprime 100-digit denominators: the lcm of
    # every denominator on their merged grids has 45,106 bits.  _value
    # scales the n values of one grid node at a time, each node once, and
    # a cell multiplies at most three such scales.
    calls = []

    def recording_ints(ratios):
        calls.append(tuple(ratios))
        return _ints(ratios)

    monkeypatch.setattr(quotdist, "_ints", recording_ints)
    rng = random.Random(1)
    a, b = probe_tuple(rng), probe_tuple(rng)
    quotdist._value(a, b)
    assert calls == [col for t in (a, b) for col in zip(*_tabulate(t.components)[1])]
