"""Core piecewise-linear algebra: evaluation, composition, inverses,
distances, the order predicate and the displacement witness."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from plmonoid import (
    GapSet,
    InputError,
    InvariantViolation,
    LcMono,
    PLHomeo,
    PLMono,
    RoelckeCoord,
    as_homeo,
    combine,
    compose,
    compose_lc,
    equiv_test,
    identity,
    inverse,
    max_slope,
    order_excess,
    pseudo_inverse,
    sup_dist,
    uniform_witness,
)
from plmonoid.gaps import extreme_pair
from plmonoid.plcore import _merged, _sweep_ends
from plmonoid.explorer import random_homeo, random_mono

from conftest import COPRIME_DENS, _preimage_of_closed, coprime_map, fractions, ratios, reduced, tabulated

I14 = (F(1, 4), F(3, 4))
GRID64 = [F(k, 64) for k in range(65)]

seeds = st.integers(0, 2**32 - 1)


def lower_upper():
    return extreme_pair(I14)


# --- construction and normalization


def test_breakpoints_normalized():
    redundant = PLMono(((0, 0), (F(1, 2), F(1, 2)), (1, 1)))
    assert redundant == identity()
    assert redundant.breakpoints == ((F(0), F(0)), (F(1), F(1)))


def test_bad_endpoints_rejected():
    with pytest.raises(InputError):
        PLMono(((0, F(1, 8)), (1, 1)))
    with pytest.raises(InputError):
        PLMono(((0, 0), (1, F(7, 8))))


def test_decreasing_values_rejected():
    with pytest.raises(InputError):
        PLMono(((0, 0), (F(1, 2), F(3, 4)), (F(3, 4), F(1, 2)), (1, 1)))


def test_conflicting_duplicate_rejected():
    with pytest.raises(InputError):
        PLMono(((0, 0), (F(1, 2), F(1, 4)), (F(1, 2), F(1, 2)), (1, 1)))


# The constructors find every fault in one pass over the points; the
# errors still win in this order: conflict, too few points, endpoints,
# falling values, then a homeomorphism's plateau.
CONFLICT_AND_FALL = [(0, 0), (F(1, 4), F(1, 2)), (F(1, 2), F(1, 4)), (F(1, 2), F(1, 3)), (1, 1)]
ERROR_ORDER = [
    pytest.param(CONFLICT_AND_FALL, "conflicting values 1/4 and 1/3 at x = 1/2", id="conflict-before-fall"),
    pytest.param(CONFLICT_AND_FALL[::-1], "conflicting values 1/4 and 1/3 at x = 1/2", id="conflict-before-fall-reversed"),
    pytest.param(
        [(0, F(1, 8)), (F(1, 2), F(1, 2)), (F(3, 4), F(1, 4)), (1, 1)],
        "must fix the endpoints: first (0,0), last (1,1)",
        id="endpoint-before-fall",
    ),
    pytest.param(
        [(0, 0), (F(1, 4), F(1, 2)), (F(1, 2), F(3, 8)), (F(3, 4), F(1, 4)), (1, 1)],
        "values must be weakly increasing",
        id="fall-in-collinear-run",
    ),
]


@pytest.mark.parametrize("cls", [PLMono, PLHomeo])
@pytest.mark.parametrize("points, message", ERROR_ORDER)
def test_constructor_error_order(cls, points, message):
    with pytest.raises(InputError) as info:
        cls(points)
    assert str(info.value) == message


def test_homeo_plateau_is_the_last_error():
    plateau = [(0, 0), (F(1, 4), F(1, 2)), (F(1, 2), F(1, 2)), (1, 1)]
    assert PLMono(plateau).breakpoints == tuple((F(x), F(y)) for x, y in plateau)
    with pytest.raises(InputError) as info:
        PLHomeo(plateau)
    assert str(info.value) == "a homeomorphism must be strictly increasing"


# A two-character str or bytes unpacks into two items but is not a point.
STRING_POINTS = {
    "str": ["00", "11"],
    "bytes": [b"00", b"11"],
    "str-among-pairs": [(0, 0), "11"],
}


@pytest.mark.parametrize("cls", [PLMono, PLHomeo, LcMono, RoelckeCoord])
@pytest.mark.parametrize("points", STRING_POINTS.values(), ids=STRING_POINTS.keys())
def test_string_points_rejected(cls, points):
    with pytest.raises(InputError, match=r"^not an \(x, y\) pair: "):
        cls(points)


LONG_POINT = tuple(range(1000))
MALFORMED = {
    "points-not-pairs": [1, 2],
    "triple": [(0, 0, 0), (1, 1)],
    "single": [(0, 0), (1,)],
    "none-point": [(0, 0), None, (1, 1)],
    "not-iterable": 5,
    "none": None,
    "long-point": [(0, 0), LONG_POINT, (1, 1)],
    "long-not-iterable": 10**200,
}


@pytest.mark.parametrize("cls", [PLMono, PLHomeo, LcMono, RoelckeCoord])
@pytest.mark.parametrize("points", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_points_raise_input_error(cls, points):
    # Not an (x, y) pair, or not an iterable of points: InputError, never
    # a bare TypeError or ValueError, echoing at most 60 characters.
    with pytest.raises(InputError) as info:
        cls(points)
    message = str(info.value)
    assert len(message) <= 60 + len("points must be an iterable of (x, y) pairs, got ")
    for value in (LONG_POINT, 10**200):
        assert repr(value)[:61] not in message


@pytest.mark.parametrize("cls", [PLMono, PLHomeo, LcMono, RoelckeCoord])
def test_error_inside_callers_iterator_propagates(cls):
    # A fault in the caller's own iterator is not reported as malformed input.
    def points():
        yield (0, 0)
        raise TypeError("fault in the caller's generator")

    with pytest.raises(TypeError, match="fault in the caller's generator"):
        cls(points())


def test_homeo_needs_strict_increase():
    lo, _ = lower_upper()
    with pytest.raises(InputError):
        as_homeo(lo)
    assert as_homeo(identity()) == identity()
    with pytest.raises(InputError, match="as_homeo needs a monotone map"):
        as_homeo(5)
    with pytest.raises(InputError, match="inverse needs a strictly increasing map"):
        inverse(lo)


# --- evaluation


def test_eval_identity():
    assert identity()(F(1, 3)) == F(1, 3)


def test_eval_extreme_pair_midpoint():
    lo, hi = lower_upper()
    assert lo(F(1, 2)) == F(1, 4)
    assert hi(F(1, 2)) == F(3, 4)


def test_eval_outside_domain():
    with pytest.raises(InputError):
        identity()(F(3, 2))
    with pytest.raises(InputError):
        identity()(F(-1, 2))
    for bad in ("x", "1/0", None, 1j):
        with pytest.raises(InputError, match="not a rational number"):
            identity()(bad)


# --- composition


def test_compose_identity_unit():
    lo, _ = lower_upper()
    assert compose(lo, identity()) == lo
    assert compose(identity(), lo) == lo


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_compose_pointwise_contract(seed):
    rng = random.Random(seed)
    f, g = random_mono(rng), random_mono(rng)
    c = compose(f, g)
    for t in GRID64:
        assert c(t) == f(g(t))


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_compose_associative(seed):
    rng = random.Random(seed)
    f, g, h = random_mono(rng), random_mono(rng), random_mono(rng)
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_compose_extreme_pair_on_grid():
    lo, hi = lower_upper()
    c = compose(lo, hi)
    for t in GRID64:
        assert c(t) == lo(hi(t))


def test_compose_extreme_pair_frozen():
    # derived by hand, piece by piece: the upper map feeds [1/4, 1/2]
    # into the lower map's plateau until 3/8, then both ramps compound
    # to slope 4 until 1/2
    lo, hi = lower_upper()
    expected = PLMono(
        ((0, 0), (F(1, 4), F(1, 4)), (F(3, 8), F(1, 4)),
         (F(1, 2), F(3, 4)), (F(3, 4), F(3, 4)), (1, 1))
    )
    assert compose(lo, hi) == expected


# --- pseudo-inverse


def test_pseudo_inverse_identity():
    pi = pseudo_inverse(identity())
    assert pi.vertices == ((F(0), F(0)), (F(1), F(1)))
    assert pi(F(2, 7)) == F(2, 7)


def test_pseudo_inverse_extreme_lower():
    lo, _ = lower_upper()
    pi = pseudo_inverse(lo)
    for k in range(17):
        v = F(k, 64)
        assert pi(v) == v
    for k in range(17, 49):
        v = F(k, 64)
        assert pi(v) == (v + F(3, 4)) / 2
    for k in range(49, 65):
        v = F(k, 64)
        assert pi(v) == v
    # left-continuous at the plateau value, jumping to the right endpoint
    assert pi(F(1, 4)) == F(1, 4)
    assert pi.jumps() == [(F(1, 4), F(1, 4), F(1, 2))]


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_compose_through_is_identity(seed):
    rng = random.Random(seed)
    f = random_mono(rng)
    pi = pseudo_inverse(f)
    assert compose_lc(f, pi) == identity()
    for t in GRID64:
        assert f(pi(t)) == t


def test_strict_inverse_is_ordinary_inverse():
    rng = random.Random(4)
    g = random_homeo(rng)
    pi = pseudo_inverse(g)
    assert pi.jumps() == []
    ginv = inverse(g)
    for t in GRID64:
        assert pi(t) == ginv(t)
    assert compose(g, ginv) == identity()
    assert compose(ginv, g) == identity()


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_pseudo_inverse_jumps_are_plateaus(seed):
    rng = random.Random(seed)
    f = random_mono(rng)
    plateau_values = {
        y0
        for (x0, y0), (x1, y1) in zip(f.breakpoints, f.breakpoints[1:])
        if y0 == y1
    }
    assert {v for v, _, _ in pseudo_inverse(f).jumps()} == plateau_values


def test_compose_lc_discontinuity_detected():
    lo, _ = lower_upper()
    with pytest.raises(InvariantViolation, match="^spliced composition left the monoid: conflicting values"):
        compose_lc(identity(), pseudo_inverse(lo))


_H = PLMono(((0, 0), (F(1, 4), F(1, 2)), (F(1, 2), F(1, 2)), (1, 1)))
_RC = RoelckeCoord(((0, 0), (F(1, 2), F(1, 4)), (1, 0)))
WRONG_KIND = [
    ("pseudo_inverse-of-LcMono", lambda: pseudo_inverse(pseudo_inverse(_H))),
    ("pseudo_inverse-of-RoelckeCoord", lambda: pseudo_inverse(_RC)),
    ("compose_lc-through-PLMono", lambda: compose_lc(_H, _H)),
    ("compose_lc-through-RoelckeCoord", lambda: compose_lc(_H, _RC)),
    ("compose_lc-of-LcMono", lambda: compose_lc(pseudo_inverse(_H), pseudo_inverse(_H))),
    ("compose_lc-of-RoelckeCoord", lambda: compose_lc(_RC, pseudo_inverse(_H))),
]


@pytest.mark.parametrize("call", [c for _, c in WRONG_KIND], ids=[n for n, _ in WRONG_KIND])
def test_pseudo_inverse_and_compose_lc_reject_the_wrong_kind_of_polyline(call):
    # pseudo_inverse takes a map; compose_lc a map and an LcMono.  Every
    # polyline stores the same int pairs, so only the type tells them apart.
    with pytest.raises(InputError, match="needs a monotone map"):
        call()


MAPS_ONLY = [
    ("compose-after-LcMono", lambda: compose(_H, pseudo_inverse(_H))),
    ("compose-of-LcMono", lambda: compose(pseudo_inverse(_H), _H)),
    ("compose-after-RoelckeCoord", lambda: compose(_H, _RC)),
    ("sup_dist-to-LcMono", lambda: sup_dist(_H, pseudo_inverse(_H))),
    ("sup_dist-of-LcMono", lambda: sup_dist(pseudo_inverse(_H), _H)),
    ("sup_dist-of-RoelckeCoord", lambda: sup_dist(_RC, _H)),
    ("order_excess-to-LcMono", lambda: order_excess(_H, pseudo_inverse(_H))),
    ("order_excess-of-RoelckeCoord", lambda: order_excess(_RC, _H)),
    ("max_slope-of-LcMono", lambda: max_slope(pseudo_inverse(_H))),
    ("max_slope-of-RoelckeCoord", lambda: max_slope(_RC)),
]


@pytest.mark.parametrize("call", [c for _, c in MAPS_ONLY], ids=[n for n, _ in MAPS_ONLY])
def test_map_operations_reject_other_polylines(call):
    # _H has a plateau, so its pseudo-inverse jumps: not a map of [0, 1].
    with pytest.raises(InputError, match="needs (a|two) monotone maps?$"):
        call()


# --- distances and order predicate


def test_sup_dist_examples():
    lo, hi = lower_upper()
    assert sup_dist(lo, lo) == 0
    assert sup_dist(lo, hi) == F(1, 2)
    assert sup_dist(identity(), lo) == F(1, 4)


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_sup_dist_metric_axioms(seed):
    rng = random.Random(seed)
    f, g, h = random_mono(rng), random_mono(rng), random_mono(rng)
    assert sup_dist(f, g) == sup_dist(g, f)
    assert sup_dist(f, h) <= sup_dist(f, g) + sup_dist(g, h)
    assert (sup_dist(f, g) == 0) == (f == g)


def test_order_excess_examples():
    lo, hi = lower_upper()
    assert order_excess(lo, lo) == 0
    assert order_excess(hi, lo) == F(1, 2)
    assert order_excess(lo, hi) == 0


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_order_excess_axioms(seed):
    rng = random.Random(seed)
    f, g, h = random_mono(rng), random_mono(rng), random_mono(rng)
    assert order_excess(f, f) == 0
    if max(order_excess(f, g), order_excess(g, f)) == 0:
        assert f == g
    assert order_excess(f, h) <= order_excess(f, g) + order_excess(g, h)
    assert order_excess(f, g) + order_excess(g, f) <= 1


# --- slopes, combinations


def test_max_slope():
    lo, hi = lower_upper()
    assert max_slope(identity()) == 1
    assert max_slope(lo) == 2
    assert max_slope(hi) == 2


def test_combine_mean_of_extremes_is_identity():
    lo, hi = lower_upper()
    assert combine([(F(1, 2), lo), (F(1, 2), hi)]) == identity()
    # the terms are read once, so any iterable of pairs will do
    assert combine(iter([(F(1, 2), lo), (F(1, 2), hi)])) == identity()


def test_combine_rejects_empty():
    with pytest.raises(InputError):
        combine([])


def test_combine_rejects_a_term_that_is_not_a_map():
    with pytest.raises(InputError, match="not a monotone map: 'x'"):
        combine([(1, "x")])
    with pytest.raises(InputError, match="not a monotone map: None"):
        combine([(F(1, 2), identity()), (F(1, 2), None)])
    # exactly one pair per term, as for a map's points
    for term in (1, None, (1,), (F(1, 2), identity(), identity()), "ab", b"xy"):
        with pytest.raises(InputError, match=r"not a \(coefficient, map\) pair"):
            combine([term])
    with pytest.raises(InputError, match="terms must be an iterable"):
        combine(5)


# --- uniform-distance witness


def test_witness_worked_example():
    g = PLHomeo(((0, 0), (F(1, 2), F(3, 4)), (1, 1)))
    w = uniform_witness(g)
    assert w == PLMono(((0, 0), (F(1, 2), 0), (F(3, 4), 1), (1, 1)))
    assert sup_dist(compose(w, inverse(g)), w) == 1


def test_witness_below_identity_uses_inverse():
    g = PLHomeo(((0, 0), (F(1, 2), F(1, 4)), (1, 1)))
    w = uniform_witness(g)
    assert sup_dist(compose(w, g), w) == 1


def test_witness_takes_the_first_breakpoint_of_greatest_displacement():
    # displacement 1/4 at x = 1/8 and again at x = 5/8
    g = PLHomeo(((0, 0), (F(1, 8), F(3, 8)), (F(1, 2), F(5, 8)), (F(5, 8), F(7, 8)), (1, 1)))
    assert uniform_witness(g) == PLMono(((0, 0), (F(1, 8), 0), (F(3, 8), 1), (1, 1)))
    # inverse(g) is below the identity, so g itself is lifted again
    assert uniform_witness(inverse(g)) == uniform_witness(g)


def test_witness_identity_rejected():
    with pytest.raises(InputError):
        uniform_witness(identity())
    # a map with a plateau is not a homeomorphism
    with pytest.raises(InputError, match="witness construction needs a homeomorphism"):
        uniform_witness(_H)


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_witness_random_distance_one(seed):
    rng = random.Random(seed)
    g = random_homeo(rng)
    w = uniform_witness(g)
    lifted = g if any(y > x for x, y in g.breakpoints) else inverse(g)
    assert sup_dist(compose(w, inverse(lifted)), w) == 1


# --- LcMono validation


def test_lcmono_validation():
    with pytest.raises(InputError):
        LcMono(((0, 0), (F(1, 2), F(1, 4))))
    with pytest.raises(InputError):
        LcMono(((0, 0), (F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)), (1, 1)))


# --- plateaus at level 0 or 1

# The pseudo-inverse of each map jumps at argument 0 or 1, where a sweep
# that took the wrong end of a vertical segment would show.  The extreme
# pairs of gaps touching 0 and 1 give pairs that the gap identifies.
GAP_AT_0 = extreme_pair((0, F(1, 2)))
GAP_AT_1 = extreme_pair((F(1, 2), 1))
END_PLATEAUS = {
    "level0": PLMono(((0, 0), (F(1, 4), 0), (1, 1))),
    "level1": PLMono(((0, 0), (F(3, 4), 1), (1, 1))),
    "levels0-half-1": PLMono(
        ((0, 0), (F(1, 3), 0), (F(1, 2), F(1, 2)), (F(2, 3), F(1, 2)), (F(5, 6), 1), (1, 1))
    ),
    "gap-at-0-lower": GAP_AT_0[0],
    "gap-at-1-upper": GAP_AT_1[1],
}


@pytest.mark.parametrize("f", END_PLATEAUS.values(), ids=END_PLATEAUS.keys())
def test_end_plateaus_match_pointwise_evaluation(f):
    partners = [
        identity(),
        *END_PLATEAUS.values(),
        *GAP_AT_0,
        *GAP_AT_1,
        PLHomeo(((0, 0), (F(1, 3), F(2, 3)), (1, 1))),
        random_mono(random.Random(11)),
    ]
    grid = [F(k, 192) for k in range(193)]

    def samples(*maps):
        return sorted(set(grid) | {x for m in maps for x, _ in m.breakpoints})

    inv = pseudo_inverse(f)
    assert compose_lc(f, inv) == identity()
    for g in partners:
        for outer, inner in ((f, g), (g, f)):
            c = compose(outer, inner)
            assert all(c(t) == outer(inner(t)) for t in samples(outer, inner, c))
        h = compose(g, f)
        spliced = compose_lc(h, inv)
        assert spliced == g
        assert all(spliced(v) == h(inv(v)) for v in samples(g, h))
        mid = combine([(F(1, 2), f), (F(1, 2), g)])
        assert all(mid(t) == (f(t) + g(t)) / 2 for t in samples(f, g, mid))
        for gaps in (((0, F(1, 2)),), ((F(1, 2), 1),), ((0, F(1, 4)), (F(3, 4), 1)), ((F(1, 4), F(3, 4)),)):
            gs = GapSet(gaps)
            pointwise = all(
                gs.union_contains((f(t) + g(t)) / 2) for t in samples(f, g) if f(t) != g(t)
            )
            assert equiv_test(f, g, gs) == pointwise
    levels = sorted({F(0), F(1, 4), F(1, 2), F(1)} | {y for _, y in f.breakpoints})
    for lo in levels:
        for hi in (v for v in levels if v >= lo):
            left, right = _preimage_of_closed(f, lo, hi)
            assert f(left) == lo and f(right) == hi
            for t in samples(f):
                assert (t < left) == (f(t) < lo) and (t > right) == (f(t) > hi)


# --- int-checked constructors against the Fraction reference


def _reference_normalize(points):
    """Sort, dedup and drop collinear points in Fractions, as before ints."""
    pts = sorted((F(x), F(y)) for x, y in points)
    dedup = []
    for x, y in pts:
        if dedup and dedup[-1][0] == x:
            if dedup[-1][1] != y:
                # Echoed values are cut at 60 characters, as the library does.
                raise InputError(f"conflicting values {dedup[-1][1]!s:.60} and {y!s:.60} at x = {x!s:.60}")
            continue
        dedup.append((x, y))
    if len(dedup) < 2:
        raise InputError("a breakpoint list needs at least two distinct points")

    def collinear(a, b, c):
        return (b[1] - a[1]) * (c[0] - b[0]) == (c[1] - b[1]) * (b[0] - a[0])

    out = [dedup[0]]
    for p in dedup[1:]:
        while len(out) >= 2 and collinear(out[-2], out[-1], p):
            out.pop()
        out.append(p)
    return tuple(out)


def _reference_construct(cls, points):
    """The Fraction validation of each constructor; returns its stored tuple."""
    if cls is LcMono:
        verts = tuple((F(v), F(t)) for v, t in points)
        if len(verts) < 2 or verts[0] != (0, 0) or verts[-1] != (1, 1):
            raise InputError("vertices must run from (0,0) to (1,1)")
        vs, ts = [v for v, _ in verts], [t for _, t in verts]
        if any(b < a for a, b in zip(vs, vs[1:])):
            raise InputError("arguments must be weakly increasing")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise InputError("values must be strictly increasing")
        return verts
    pts = _reference_normalize(points)
    pairs = list(zip(pts, pts[1:]))
    if cls is RoelckeCoord:
        if pts[0] != (0, 0) or pts[-1] != (1, 0):
            raise InputError("coordinate must vanish at both endpoints")
        if any(abs(y1 - y0) > x1 - x0 for (x0, y0), (x1, y1) in pairs):
            raise InputError("coordinate must be 1-Lipschitz")
        return pts
    if pts[0] != (0, 0) or pts[-1] != (1, 1):
        raise InputError("must fix the endpoints: first (0,0), last (1,1)")
    if any(y1 < y0 for (_, y0), (_, y1) in pairs):
        raise InputError("values must be weakly increasing")
    if cls is PLHomeo and any(y1 <= y0 for (_, y0), (_, y1) in pairs):
        raise InputError("a homeomorphism must be strictly increasing")
    return pts


def _construct(cls, points):
    obj = cls(points)
    return obj.vertices if cls is LcMono else obj.breakpoints


def _outcome(construct, cls, points):
    try:
        return "ok", construct(cls, points)
    except InputError as exc:
        return "error", str(exc)


@st.composite
def raw_point_lists(draw):
    """Monotone polylines on a small grid with collinear runs, plateaus,
    duplicates (equal or conflicting), dips, shuffles, fewer than two
    distinct x and mixed int, str and Fraction coordinates.  In one draw
    in four each distinct value inside (0, 1) moves to the nearest
    fraction below it with its own 100-digit denominator, pairwise
    coprime, so no two values share a scale."""
    den = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12]))
    xs = sorted({0, den} | set(draw(st.lists(st.integers(0, den), max_size=4))))
    ys = sorted(draw(st.lists(st.integers(0, den), min_size=len(xs), max_size=len(xs))))
    if draw(st.integers(0, 4)) < 4:
        ys[0], ys[-1] = 0, den
    pts = [(F(x, den), F(y, den)) for x, y in zip(xs, ys)]
    if draw(st.integers(0, 3)) == 0:
        inner = sorted({v for p in pts for v in p} - {0, 1})
        near = {v: F(v.numerator * d // v.denominator, d) for v, d in zip(inner, COPRIME_DENS)}
        pts = [(near.get(x, x), near.get(y, y)) for x, y in pts]
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(pts) - 1))
        (x0, y0), (x1, y1) = pts[i], pts[min(i + 1, len(pts) - 1)]
        kind = draw(st.sampled_from(["collinear", "duplicate", "conflict", "dip"]))
        if kind == "collinear":
            t = F(draw(st.integers(1, 4)), 5)
            pts.append((x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
        elif kind == "duplicate":
            pts.append((x0, y0))
        elif kind == "conflict":
            pts.append((x0, y0 + F(draw(st.sampled_from([-1, 1])), 2 * den)))
        else:
            pts.append(((x0 + x1) / 2, y0 - F(1, 2 * den)))
    if draw(st.integers(0, 9)) == 9:
        pts = pts[:1] * draw(st.integers(0, 3))
    if draw(st.booleans()):
        pts = draw(st.permutations(pts))

    def render(v):
        form = draw(st.sampled_from(["fraction", "str", "int"]))
        if form == "str":
            return str(v)
        return int(v) if form == "int" and v.denominator == 1 else v

    return [(render(x), render(y)) for x, y in pts]


@given(raw_point_lists())
@settings(max_examples=300, deadline=None)
def test_constructors_match_fraction_reference(points):
    in_order = sorted(points, key=lambda p: (F(p[0]), F(p[1])))
    cases = [
        (PLMono, points),
        (PLHomeo, points),
        (LcMono, [(y, x) for x, y in points]),
        (LcMono, [(y, x) for x, y in in_order]),
        (RoelckeCoord, [(x, (F(y) - F(x)) / 2) for x, y in points]),
    ]
    for cls, pts in cases:
        expected = _outcome(_reference_construct, cls, pts)
        got = _outcome(_construct, cls, pts)
        assert got == expected, (cls.__name__, pts)
        if got[0] == "ok":
            assert all(type(v) is F for pair in got[1] for v in pair)


# Each input is in (x, y) order or not, and the constructors sort only the
# latter; an order check on x alone would keep the first case's larger y
# first and flip the two values in its message.
SORT_SKIP = {
    "equal-x-larger-y-first": [(0, 0), (F(1, 2), F(3, 4)), (F(1, 2), F(1, 4)), (1, 1)],
    "equal-x-smaller-y-first": [(0, 0), (F(1, 2), F(1, 4)), (F(1, 2), F(3, 4)), (1, 1)],
    "exact-duplicate": [(0, 0), (F(1, 4), F(1, 2)), (F(1, 4), F(1, 2)), (1, 1)],
    "last-out-of-order": [(0, 0), (F(1, 4), F(1, 8)), (F(3, 4), F(1, 2)), (1, 1), (F(1, 2), F(1, 4))],
    "reversed": [(1, 1), (F(3, 4), F(1, 2)), (F(1, 2), F(1, 4)), (F(1, 4), F(1, 8)), (0, 0)],
}


@pytest.mark.parametrize("points", SORT_SKIP.values(), ids=SORT_SKIP.keys())
def test_sort_skip_matches_fraction_reference(points):
    coord = [(x, (F(y) - F(x)) / 2) for x, y in points]
    for cls, pts in ((PLMono, points), (PLHomeo, points), (RoelckeCoord, coord)):
        assert _outcome(_construct, cls, pts) == _outcome(_reference_construct, cls, pts), cls.__name__


# --- combine's int sums against the Fraction reference


def _reference_combine(terms):
    """combine in Fraction arithmetic on the merged grid, as before the ints."""
    coeffs = [F(c) for c, _ in terms]
    xs, rows = tabulated([f for _, f in terms])
    return PLMono(tuple((x, sum((c * v for c, v in zip(coeffs, vals)), F(0))) for x, *vals in zip(xs, *rows)))


@given(seeds, st.lists(st.sampled_from(["random", "coprime", "shared"]), min_size=1, max_size=5),
       st.sampled_from(["uniform", "random", "off-sum"]))
@settings(max_examples=60, deadline=None)
def test_combine_matches_fraction_reference(seed, kinds, weights):
    """Components are random_mono maps, coprime_map maps each over its
    own 100-digit denominator, or coprime_map maps that share one; off-sum
    coefficients miss 1 and fail the endpoint check in both."""
    rng = random.Random(seed)
    maps = [random_mono(rng) if k == "random" else coprime_map(rng, COPRIME_DENS[-1] if k == "shared" else d)
            for k, d in zip(kinds, COPRIME_DENS)]
    ks = [rng.randint(2, 20) for _ in maps]
    if weights == "uniform":
        coeffs = [F(1, len(maps))] * len(maps)
    else:
        total = sum(ks) + (0 if weights == "random" else rng.choice([-1, 1, 2]))
        coeffs = [F(k, total) for k in ks]
    terms = list(zip(coeffs, maps))

    def outcome(combine_terms):
        try:
            return "ok", combine_terms(terms).breakpoints
        except InputError as exc:
            return "error", str(exc)

    got = outcome(combine)
    assert got == outcome(_reference_combine)
    if got[0] == "ok":
        assert all(type(v) is F for pair in got[1] for v in pair)


# --- the int-pair sweep kernel and grid merge against the Fraction reference


def _reference_lerp(x0, y0, x1, y1, t):
    """Value at t of the line through (x0, y0) and (x1, y1)."""
    return y0 + (y1 - y0) * (t - x0) / (x1 - x0)


def _reference_sweep(xs, ys, args, upper=False):
    """The sweep kernel in Fraction operators, as before the int pairs."""
    out = []
    i, last = 0, len(xs) - 1
    for t in args:
        while xs[i] < t:
            i += 1
        if xs[i] == t:
            if upper:
                while i < last and xs[i + 1] == t:
                    i += 1
            out.append(ys[i])
        else:
            out.append(_reference_lerp(xs[i - 1], ys[i - 1], xs[i], ys[i], t))
    return out


def _reference_merged(seqs):
    return sorted(set().union(*seqs))


def _kernel_pair(seed):
    rng = random.Random(seed)
    kind = seed % 3
    if kind == 0:
        return rng, random_mono(rng), random_mono(rng)
    if kind == 1:
        return rng, random_homeo(rng), random_mono(rng)
    d = 10**99 + rng.randrange(10**99)  # 100 digits; d and d + 1 are coprime
    return rng, coprime_map(rng, d), coprime_map(rng, d + 1)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_sweep_and_merge_match_fraction_reference(seed):
    # The kernels take and return reduced int pairs; the reference
    # computes on their Fractions.
    rng, f, g = _kernel_pair(seed)
    for seqs in ((f._xr, g._xr), (f._yr, g._yr), (g._yr, f._xr, f._yr), (f._xr,)):
        merged = _merged(seqs)
        assert fractions(merged) == _reference_merged([fractions(s) for s in seqs])
        assert reduced(merged)
    fx, fy, gx, gy = (fractions(s) for s in (f._xr, f._yr, g._xr, g._yr))
    samples = _reference_merged((fx, fy, gx, gy, [F(rng.randrange(65), 64) for _ in range(8)]))
    arg_lists = [samples, fx, gy, [0, *samples[1:-1], 1]]
    # Reflected maps (values against arguments) have vertical runs at plateaus.
    for xs, ys in ((fx, fy), (gx, gy), (fy, fx), (gy, gx)):
        for args in arg_lists:
            for upper, got in enumerate(_sweep_ends(ratios(xs), ratios(ys), ratios(args))):
                assert fractions(got) == _reference_sweep(xs, ys, args, upper)
                assert reduced(got)


def _reference_max_difference(f, g):
    """sup |f - g| and sup (f - g) over the union of both maps'
    breakpoints, each map evaluated through PLMono.__call__."""
    xs = sorted({x for x, _ in f.breakpoints} | {x for x, _ in g.breakpoints})
    diffs = [f(x) - g(x) for x in xs]
    return max(map(abs, diffs)), max(diffs)


def _difference_pair(seed):
    """Two maps of one of five kinds: random maps (with plateaus), a
    homeomorphism against a map, maps over two of COPRIME_DENS, maps on
    shared breakpoints (g through f's abscissae, its values on the 1/8
    grid, so plateaus are common), and the identity, which has no
    interior vertex, against a map."""
    rng = random.Random(seed)
    kind = seed % 5
    if kind == 0:
        return random_mono(rng), random_mono(rng)
    if kind == 1:
        return random_homeo(rng), random_mono(rng)
    if kind == 2:
        d, e = rng.sample(COPRIME_DENS, 2)
        return coprime_map(rng, d), coprime_map(rng, e)
    f = random_mono(rng)
    if kind == 3:
        inner = f.breakpoints[1:-1]
        ys = sorted(F(rng.randrange(9), 8) for _ in inner)
        return f, PLMono(((0, 0), *((x, y) for (x, _), y in zip(inner, ys)), (1, 1)))
    return identity(), f


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_max_difference_matches_fraction_reference(seed):
    # The two-map merge pass against the union of both breakpoint sets,
    # evaluated point by point; both directions and both orders.
    f, g = _difference_pair(seed)
    for u, v in ((f, g), (g, f)):
        sup, excess = _reference_max_difference(u, v)
        got = sup_dist(u, v), order_excess(u, v)
        assert got == (sup, excess)
        assert all(type(x) is F for x in got)
    assert sup_dist(f, f) == order_excess(g, g) == 0
