"""Gap calculus: merging, isolated points, extreme pairs, the exact
equivalence decision, collapse maps and pulled-back pseudo-distances."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from plmonoid import (
    GapSet,
    InputError,
    InvariantViolation,
    MonoTuple,
    PLMono,
    collapse_map,
    collapsed_dist,
    combine,
    compose,
    equiv_test,
    extreme_pair,
    extreme_pair_all,
    identity,
    isolated_points,
    merge_gaps,
    order_excess,
    pullback_pseudometric,
    sup_dist,
)
from plmonoid.explorer import random_mono, random_point
from plmonoid.gaps import _check_interval
from plmonoid.plcore import _frac, _iter, _pair, _tabulate

from conftest import (
    COPRIME_DENS,
    _complement_pieces,
    _difference_support,
    _preimage_of_closed,
    coprime_map,
    gap_adapted_pair,
    random_gapset,
    tabulated,
)

seeds = st.integers(0, 2**32 - 1)
I14 = (F(1, 4), F(3, 4))


# --- merging


def test_merge_overlapping():
    g = merge_gaps([(F(1, 10), F(3, 10)), (F(2, 10), F(5, 10))])
    assert g.gaps == ((F(1, 10), F(1, 2)),)


def test_merge_disjoint_unchanged():
    g = merge_gaps([(F(1, 10), F(2, 10)), (F(3, 10), F(4, 10))])
    assert g.gaps == ((F(1, 10), F(1, 5)), (F(3, 10), F(2, 5)))


def test_merge_nested_absorbed():
    g = merge_gaps([(F(1, 10), F(4, 10)), (F(2, 10), F(3, 10))])
    assert g.gaps == ((F(1, 10), F(2, 5)),)


def test_merge_touching_stay_separate():
    g = merge_gaps([(F(1, 4), F(1, 2)), (F(1, 2), F(3, 4))])
    assert len(g.gaps) == 2
    assert isolated_points(g) == [F(1, 2)]


def test_merge_rejects_bad_intervals():
    with pytest.raises(InputError):
        merge_gaps([(F(1, 2), F(1, 2))])
    with pytest.raises(InputError):
        merge_gaps([(F(3, 4), F(1, 4))])
    with pytest.raises(InputError):
        merge_gaps([(F(-1, 4), F(1, 4))])
    # exactly one (a, b) pair per interval, as for a map's points
    for iv in [(F(1, 4), F(1, 2), F(3, 4)), (F(1, 2),), F(1, 2), "01"]:
        with pytest.raises(InputError, match="interval"):
            merge_gaps([iv])
    with pytest.raises(InputError, match="interval"):
        GapSet([(F(1, 4), F(1, 2), "junk")])
    # not an iterable at all: InputError, not the TypeError of iterating it
    for read in (GapSet, merge_gaps):
        with pytest.raises(InputError, match="intervals must be an iterable"):
            read(None)
    with pytest.raises(InputError, match="components must be an iterable"):
        pullback_pseudometric(None, lambda left, right: F(0))
    # rho is refused up front, not on the evaluator's first call
    with pytest.raises(InputError, match="pullback_pseudometric needs a callable rho, got 5"):
        pullback_pseudometric(MonoTuple((identity(),)), 5)


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_merge_idempotent_order_insensitive_union_preserving(seed):
    rng = random.Random(seed)
    ivs = []
    for _ in range(rng.randrange(1, 6)):
        a = F(rng.randrange(0, 63), 64)
        b = F(rng.randrange(int(a * 64) + 1, 65), 64)
        ivs.append((a, b))
    g = merge_gaps(ivs)
    assert merge_gaps(g.gaps) == g
    shuffled = ivs[:]
    rng.shuffle(shuffled)
    assert merge_gaps(shuffled) == g

    def in_union(x, intervals):
        return any(a < x < b for a, b in intervals)

    probes = set()
    for a, b in ivs:
        probes |= {a, b, (a + b) / 2, a + F(1, 1024), b - F(1, 1024)}
    for x in probes:
        if 0 <= x <= 1:
            assert in_union(x, ivs) == in_union(x, g.gaps)


# --- isolated points


def test_isolated_examples():
    assert isolated_points(merge_gaps([(F(1, 4), F(3, 4))])) == []
    assert isolated_points(GapSet(())) == []


def test_gapset_validation():
    # an overlap is rejected in either order, nested or repeated
    for ivs in (((F(1, 4), F(3, 4)), (F(1, 2), F(7, 8))),
                ((F(1, 2), F(7, 8)), (F(1, 4), F(3, 4))),
                ((F(1, 3), F(1, 2)), (F(1, 4), F(3, 4))),
                ((F(1, 4), F(1, 2)), (F(1, 4), F(1, 2)))):
        with pytest.raises(InputError, match="gaps overlap"):
            GapSet(ivs)
    # a point is read as a rational, as every other argument is
    g = GapSet(((F(1, 4), F(3, 4)),))
    assert g.union_contains("1/2") and not g.union_contains(F(3, 4))
    with pytest.raises(InputError, match="not a rational number"):
        g.union_contains(None)


def test_gapset_sorts_disjoint_gaps_given_out_of_order():
    ivs = ((F(1, 4), F(1, 3)), (F(1, 2), F(3, 4)), (F(3, 4), F(7, 8)))
    for order in ((2, 0, 1), (1, 0, 2), (2, 1, 0)):
        g = GapSet(tuple(ivs[i] for i in order))
        assert g == GapSet(ivs) and g.gaps == ivs


# --- extreme pairs


def test_extreme_pair_worked():
    lo, hi = extreme_pair(I14)
    assert lo(F(1, 2)) == F(1, 4)
    assert hi(F(1, 2)) == F(3, 4)


def test_extreme_pair_full_interval():
    lo, hi = extreme_pair((F(0), F(1)))
    assert lo == PLMono(((0, 0), (F(1, 2), 0), (1, 1)))
    assert hi == PLMono(((0, 0), (F(1, 2), 1), (1, 1)))


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_extreme_pair_orders_around_identity(seed):
    rng = random.Random(seed)
    a = F(rng.randrange(0, 31), 64)
    b = F(rng.randrange(int(a * 64) + 1, 65), 64)
    lo, hi = extreme_pair((a, b))
    assert order_excess(lo, identity()) == 0
    assert order_excess(identity(), hi) == 0
    for t in (a / 2, a, b, (b + 1) / 2):
        assert lo(t) == t and hi(t) == t


def test_extreme_pair_all_empty_and_single():
    assert extreme_pair_all(GapSet(())) == (identity(), identity())
    g = GapSet((I14,))
    assert extreme_pair_all(g) == extreme_pair(I14)


def test_extreme_pair_all_two_gaps():
    g = merge_gaps([(F(1, 8), F(1, 4)), (F(1, 2), F(3, 4))])
    lo, hi = extreme_pair_all(g)
    l1, h1 = extreme_pair((F(1, 8), F(1, 4)))
    l2, h2 = extreme_pair((F(1, 2), F(3, 4)))
    for k in range(65):
        t = F(k, 64)
        if F(1, 8) <= t <= F(1, 4):
            assert lo(t) == l1(t) and hi(t) == h1(t)
        elif F(1, 2) <= t <= F(3, 4):
            assert lo(t) == l2(t) and hi(t) == h2(t)
        else:
            assert lo(t) == t and hi(t) == t


def test_extreme_pair_all_rejects_isolated():
    g = merge_gaps([(F(1, 4), F(1, 2)), (F(1, 2), F(3, 4))])
    with pytest.raises(InputError):
        extreme_pair_all(g)


@pytest.mark.parametrize("build", [extreme_pair_all, collapse_map])
def test_isolated_point_message_is_short(build):
    # a 4,000-digit shared endpoint is echoed cut to 60 characters
    mid = F(1, 2) + F(1, 10**4000)
    with pytest.raises(InputError) as exc:
        build(GapSet(((F(1, 4), mid), (mid, F(3, 4)))))
    assert "isolated" in str(exc.value) and len(str(exc.value)) < 120


# --- equivalence decision


def test_equiv_worked_cases():
    lo, hi = extreme_pair(I14)
    g = GapSet((I14,))
    assert equiv_test(lo, hi, g) is True
    assert equiv_test(lo, lo, g) is True
    wide_lo, wide_hi = extreme_pair((F(1, 8), F(7, 8)))
    assert equiv_test(wide_lo, wide_hi, g) is False
    for args in ((identity(), identity(), [I14]), (5, 5, GapSet(())), (lo, [hi], g)):
        with pytest.raises(InputError, match="equiv_test needs"):
            equiv_test(*args)
    # The other gap-set readers refuse a plain list of gaps the same way.
    for fn in (collapse_map, isolated_points, extreme_pair_all):
        for arg in ([I14], [], None):
            with pytest.raises(InputError, match="expected a GapSet"):
                fn(arg)


def test_equiv_identity_with_extreme():
    lo, hi = extreme_pair(I14)
    g = GapSet((I14,))
    assert equiv_test(identity(), lo, g) is True
    assert equiv_test(identity(), hi, g) is True


def test_equiv_all_gap_witness():
    g = merge_gaps([(F(1, 8), F(1, 4)), (F(1, 2), F(3, 4))])
    lo, hi = extreme_pair_all(g)
    assert equiv_test(lo, hi, g) is True


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_equiv_symmetric_and_reflexive(seed):
    rng = random.Random(seed)
    g = random_gapset(rng)
    if g is None:
        return
    f, h = random_point(rng, 2).components
    assert equiv_test(f, f, g) is True
    assert equiv_test(f, h, g) == equiv_test(h, f, g)


def test_equiv_transitive_chain():
    lo, hi = extreme_pair(I14)
    g = GapSet((I14,))
    assert equiv_test(lo, identity(), g)
    assert equiv_test(identity(), hi, g)
    assert equiv_test(lo, hi, g)


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_equiv_transitive_on_adapted_triples(seed):
    # triples built to differ only inside the gaps are pairwise
    # equivalent, so transitivity is exercised on the positive side
    rng = random.Random(seed)
    g = random_gapset(rng)
    if g is None:
        return
    f1, h1 = gap_adapted_pair(rng, g)
    f2, h2 = gap_adapted_pair(rng, g)
    for a in (f1, h1):
        for b in (f2, h2):
            assert equiv_test(a, b, g) is True


def test_equiv_respects_isolated_point():
    # two touching gaps do not identify a pair whose midpoint crosses
    # the shared endpoint
    g = merge_gaps([(F(1, 4), F(1, 2)), (F(1, 2), F(3, 4))])
    lo, hi = extreme_pair(I14)
    assert equiv_test(lo, hi, g) is False


def _reference_equiv(f, h, g):
    """equiv_test with its midpoint built by combine."""
    xs, rows = tabulated((f, h))
    support = _difference_support(xs, *rows)
    midpoint = combine([(F(1, 2), f), (F(1, 2), h)])
    for lo, hi in _complement_pieces(g):
        l, r = _preimage_of_closed(midpoint, lo, hi)
        if l <= r and any(l < b and r > a for a, b in support):
            return False
    return True


@given(seeds, st.sampled_from(["adapted", "point", "random", "moved", "coprime"]))
@settings(max_examples=60, deadline=None)
def test_equiv_matches_combine_midpoint_reference(seed, kind):
    rng = random.Random(seed)
    g = random_gapset(rng, touching=True)
    if g is None:
        return
    if kind == "adapted":
        f, h = gap_adapted_pair(rng, g)
    elif kind == "point":
        f, h = random_point(rng, 2).components
    elif kind == "random":
        f, h = random_mono(rng), random_mono(rng)
    elif kind == "moved":
        f = random_mono(rng)
        h = compose(f, random_mono(rng))
    else:
        f, h = (coprime_map(rng, rng.choice(COPRIME_DENS)) for _ in range(2))
    assert equiv_test(f, h, g) is _reference_equiv(f, h, g)


def test_equiv_support_interval_through_a_crossing():
    # f - h leaves 0 at t = 1/4 (value 1/4), changes sign inside the cell
    # (3/8, 5/8) at value 1/2, and returns to 0 at t = 1 (value 1): two
    # support intervals, whose midpoint values are (1/4, 1/2) and (1/2, 1)
    f = PLMono(((0, 0), (F(1, 4), F(1, 4)), (F(3, 8), F(1, 4)), (F(5, 8), 1), (1, 1)))
    h = PLMono(((0, 0), (F(1, 4), F(1, 4)), (F(3, 8), F(1, 2)), (F(3, 4), F(1, 2)), (1, 1)))
    touching = merge_gaps([(F(1, 4), F(1, 2)), (F(1, 2), 1)])
    assert equiv_test(f, h, touching) is True
    assert equiv_test(h, f, touching) is True
    assert equiv_test(f, h, GapSet(((F(1, 4), 1),))) is True
    assert equiv_test(f, h, GapSet(((F(1, 4), F(1, 2)),))) is False


def crossing_pair(rng, kind):
    """(f, h, support, crossings): a pair of the given kind, drawn until
    f - h changes sign inside a cell of the merged grid, with the
    maximal open intervals where f and h differ and the crossings
    inside a cell."""
    for _ in range(200):
        if kind == "point":
            f, h = random_point(rng, 2).components
        elif kind == "random":
            f, h = random_mono(rng), random_mono(rng)
        elif kind == "moved":
            f = random_mono(rng)
            h = compose(f, random_mono(rng))
        else:
            f, h = (coprime_map(rng, rng.choice(COPRIME_DENS)) for _ in range(2))
        xs, rows = tabulated((f, h))
        support = _difference_support(xs, *rows)
        crossings = [b for (_, b), (a, _) in zip(support, support[1:]) if a == b and b not in xs]
        if crossings:
            return f, h, support, crossings
    pytest.fail("no pair with a crossing inside a cell in 200 draws")


@given(seeds, st.sampled_from(["point", "random", "moved", "coprime"]))
@settings(max_examples=30, deadline=None)
def test_equiv_gap_endpoint_at_a_crossing_value(seed, kind):
    # The gaps are the midpoint's value intervals (f(a), f(b)) over the
    # reference's support intervals (a, b) of f - h, so f and h are
    # identified.  The pair is drawn until f - h changes sign inside a
    # cell of the merged grid: there two support intervals touch, and so
    # do two gaps, at exactly the crossing value.  A crossing dropped or
    # moved off that value leaves a value interval across both gaps.
    f, h, support, crossings = crossing_pair(random.Random(seed), kind)
    g = GapSet(tuple((f(a), f(b)) for a, b in support))
    assert {f(x) for x in crossings} <= {b for _, b in g.gaps} & {a for a, _ in g.gaps}
    assert equiv_test(f, h, g) is True
    assert equiv_test(h, f, g) is True


# --- collapse map


def test_collapse_worked_values():
    chi = collapse_map(GapSet((I14,)))
    assert chi == PLMono(((0, 0), (F(1, 4), F(1, 2)), (F(3, 4), F(1, 2)), (1, 1)))
    chi0 = collapse_map(GapSet(((F(0), F(1, 2)),)))
    assert chi0 == PLMono(((0, 0), (F(1, 2), 0), (1, 1)))
    assert collapse_map(GapSet(())) == identity()


def test_collapse_errors():
    with pytest.raises(InputError):
        collapse_map(GapSet(((F(0), F(1)),)))
    with pytest.raises(InputError):
        collapse_map(merge_gaps([(F(0), F(1, 2)), (F(1, 2), F(1))]))


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_collapse_constant_on_gaps_increasing_elsewhere(seed):
    rng = random.Random(seed)
    g = random_gapset(rng)
    if g is None:
        return
    chi = collapse_map(g)
    for (x0, y0), (x1, y1) in zip(chi.breakpoints, chi.breakpoints[1:]):
        mid = (x0 + x1) / 2
        if g.union_contains(mid):
            assert y0 == y1
        else:
            assert y1 > y0


# --- induced pseudo-distance


def test_collapsed_dist_worked():
    lo, hi = extreme_pair(I14)
    chi = collapse_map(GapSet((I14,)))
    assert collapsed_dist(lo, hi, chi) == 0
    assert collapsed_dist(lo, lo, chi) == 0
    assert collapsed_dist(identity(), lo, chi) == 0
    wide_lo, wide_hi = extreme_pair((F(1, 8), F(7, 8)))
    assert collapsed_dist(wide_lo, wide_hi, chi) > 0
    for args in ((lo, hi, None), (lo, GapSet((I14,)), chi), (None, hi, chi)):
        with pytest.raises(InputError, match="collapsed_dist needs three monotone maps"):
            collapsed_dist(*args)


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_characterization_agreement(seed):
    rng = random.Random(seed)
    g = random_gapset(rng)
    if g is None:
        return
    chi = collapse_map(g)
    if rng.randrange(2):
        f, h = gap_adapted_pair(rng, g)
    else:
        f, h = random_point(rng, 2).components
    assert (collapsed_dist(f, h, chi) == 0) == equiv_test(f, h, g)


# --- pullback


def tuple_sup(ta: MonoTuple, tb: MonoTuple) -> F:
    return max(sup_dist(f, g) for f, g in zip(ta, tb))


def test_pullback_identity_base():
    rng = random.Random(6)
    f, h = random_mono(rng), random_mono(rng)
    pulled = pullback_pseudometric(MonoTuple((identity(),)), tuple_sup)
    assert pulled(f, h) == tuple_sup(MonoTuple((f,)), MonoTuple((h,)))


def test_pullback_reflexive():
    lo, _ = extreme_pair(I14)
    chi = collapse_map(GapSet((I14,)))

    def rho(ta, tb):
        return max(collapsed_dist(f, g, chi) for f, g in zip(ta, tb))

    pulled = pullback_pseudometric(MonoTuple((lo,)), rho)
    assert pulled(identity(), identity()) == 0


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_pullback_triangle(seed):
    rng = random.Random(seed)
    base = MonoTuple((random_mono(rng), random_mono(rng)))
    pulled = pullback_pseudometric(base, tuple_sup)
    f, g, h = random_mono(rng), random_mono(rng), random_mono(rng)
    assert pulled(f, h) <= pulled(f, g) + pulled(g, h)
    assert pulled(f, g) == pulled(g, f)


# --- the Fraction gap calculus the pair calculus replaced, as a reference


def ref_check_interval(iv):
    a, b = _pair(iv, "an (a, b) interval")
    a, b = _frac(a), _frac(b)
    if not (0 <= a < b <= 1):
        raise InputError(f"not a nonempty open subinterval of [0, 1]: ({a!s:.60}, {b!s:.60})")
    return a, b


def ref_sorted_intervals(intervals):
    items = _iter(intervals, "intervals must be an iterable of (a, b) pairs")
    return sorted(ref_check_interval(iv) for iv in items)


def ref_gapset(gaps):
    """GapSet(gaps).gaps, from the sorted Fraction pairs."""
    ivs = tuple(ref_sorted_intervals(gaps))
    for (a0, b0), (a1, b1) in zip(ivs, ivs[1:]):
        if a1 < b0:
            raise InputError(f"gaps overlap: ({a0!s:.60}, {b0!s:.60}) and ({a1!s:.60}, {b1!s:.60})")
    return ivs


def ref_merge_gaps(intervals):
    """merge_gaps(intervals).gaps: merged, then checked again as a GapSet."""
    out = []
    for a, b in ref_sorted_intervals(intervals):
        if out and a < out[-1][1]:
            prev_a, prev_b = out[-1]
            out[-1] = (prev_a, max(prev_b, b))
        else:
            out.append((a, b))
    return ref_gapset(tuple(out))


def ref_isolated_points(gaps):
    return [b0 for (_, b0), (a1, _) in zip(gaps, gaps[1:]) if b0 == a1]


def ref_refuse_isolated(gaps):
    bad = ", ".join(f"{p!s:.60}" for p in ref_isolated_points(gaps))
    if bad:
        raise InputError(f"gap set has isolated complement points at {bad}")


def ref_extreme_pair_all(gaps):
    ref_refuse_isolated(gaps)
    lo_pts = [(F(0), F(0))]
    hi_pts = [(F(0), F(0))]
    for a, b in gaps:
        mid = (a + b) * F(1, 2)
        lo_pts += [(a, a), (mid, a), (b, b)]
        hi_pts += [(a, a), (mid, b), (b, b)]
    lo_pts.append((F(1), F(1)))
    hi_pts.append((F(1), F(1)))
    return PLMono(tuple(lo_pts)), PLMono(tuple(hi_pts))


def ref_equiv_test(f, h, gaps):
    _, (fv, hv) = _tabulate((f, h))
    ends = []
    for (a, b), (c, d), (p, q), (r, s) in zip(fv, fv[1:], hv, hv[1:]):
        d0, d1 = a * q - p * b, c * s - r * d
        if not d0:
            if d1:
                ends.append(F(a, b))
        elif not d1:
            ends.append(F(c, d))
        elif (d0 < 0) != (d1 < 0):
            y = F(a * r * q * d - p * c * b * s, d0 * d * s - d1 * b * q)
            ends += (y, y)
    return all(any(lo <= a and b <= hi for lo, hi in gaps) for a, b in zip(ends[::2], ends[1::2]))


def ref_collapse_map(gaps):
    ref_refuse_isolated(gaps)
    free = 1 - sum((b - a for a, b in gaps), start=F(0))
    if free == 0:
        raise InputError("gaps cover (0, 1): trivial pseudo-distance has no collapse map")
    slope = 1 / free
    pts = [(F(0), F(0))]
    cursor, level = F(0), F(0)
    for a, b in gaps:
        level += (a - cursor) * slope
        pts.append((a, level))
        pts.append((b, level))
        cursor = b
    pts.append((F(1), level + (1 - cursor) * slope))
    return PLMono(tuple(pts))


def outcome(fn, *args):
    """fn(*args), or the type and text of the error it raises."""
    try:
        return fn(*args)
    except (InputError, InvariantViolation) as exc:
        return type(exc), str(exc)


def gaps_of(build, *args):
    """build(*args).gaps, or the type and text of the error."""
    return outcome(lambda: build(*args).gaps)


def assert_matches_reference(g, pairs=()):
    """Every reader of the GapSet g, and equiv_test on each pair both
    ways round, against the Fraction reference on g's gaps."""
    gaps = g.gaps
    assert GapSet(gaps) == g and gaps_of(GapSet, gaps[::-1]) == ref_gapset(gaps[::-1])
    assert isolated_points(g) == ref_isolated_points(gaps)
    assert outcome(collapse_map, g) == outcome(ref_collapse_map, gaps)
    extreme = outcome(extreme_pair_all, g)
    assert extreme == outcome(ref_extreme_pair_all, gaps)
    if isinstance(extreme[0], PLMono):
        pairs = (*pairs, extreme, (extreme[0], identity()))
    for f, h in pairs:
        assert equiv_test(f, h, g) is ref_equiv_test(f, h, gaps)
        assert equiv_test(h, f, g) is ref_equiv_test(h, f, gaps)


DENS = {
    "grid": (64,),
    "coprime": tuple(COPRIME_DENS),
    "mixed": (7, 12, 64, 2**20 + 7, COPRIME_DENS[0]),
}


def raw_intervals(rng, dens):
    """Up to four raw intervals between distinct sorted ends, so disjoint
    or touching, one draw in two with a fifth across them, in no order.
    An end is 0 or 1 one draw in ten each, else k/d for d drawn from
    dens.  One draw in five spoils an interval: reversed, empty or
    pushed out of [0, 1]."""

    def end():
        kind = rng.randrange(10)
        if kind < 2:
            return F(kind)
        d = rng.choice(dens)
        return F(rng.randrange(d + 1), d)

    ends = sorted({end() for _ in range(2 * rng.randrange(5))})
    out = list(zip(ends[::2], ends[1::2]))
    if rng.randrange(2):
        out.append(tuple(sorted((end(), end()))))
    if out and not rng.randrange(5):
        i = rng.randrange(len(out))
        a, b = out[i]
        out[i] = rng.choice([(b, a), (a, a), (a - 1, b), (a, b + 1)])
    rng.shuffle(out)
    return out


@given(seeds, st.sampled_from(sorted(DENS)))
@settings(max_examples=60, deadline=None)
def test_gap_calculus_matches_fraction_reference(seed, dens):
    rng = random.Random(seed)
    raw = raw_intervals(rng, DENS[dens])
    # the public GapSet: out of order, overlapping or not
    assert gaps_of(GapSet, raw) == outcome(ref_gapset, raw)
    assert gaps_of(merge_gaps, raw) == outcome(ref_merge_gaps, raw)
    if not isinstance(outcome(merge_gaps, raw), GapSet):
        return
    g = merge_gaps(raw)
    kind = "coprime" if dens == "coprime" else rng.choice(["point", "random", "moved"])
    f, h, support, _ = crossing_pair(rng, kind)
    pairs = [random_point(rng, 2).components, (f, h)]
    if dens != "grid":
        pairs.append(tuple(coprime_map(rng, rng.choice(COPRIME_DENS)) for _ in range(2)))
    assert_matches_reference(g, pairs)
    # the pair's own gaps touch at its crossings inside a cell; their hull
    # holds the crossings inside
    own = [(f(a), f(b)) for a, b in support]
    assert_matches_reference(GapSet(own), [(f, h)])
    assert_matches_reference(GapSet(((own[0][0], own[-1][1]),)), [(f, h)])
    if g.gaps:
        # a gap split at its midpoint: two touching gaps
        i = rng.randrange(len(g))
        a, b = g.gaps[i]
        mid = (a + b) / 2
        assert_matches_reference(GapSet((*g.gaps[:i], (a, mid), (mid, b), *g.gaps[i + 1:])), pairs)


BIG = COPRIME_DENS[0]


@pytest.mark.parametrize(
    "raw",
    [
        [(0, F(1, 4)), (F(1, 2), 1)],
        [(0, 1)],
        [(F(5, 8), F(3, 4)), (F(1, 8), F(1, 4)), (F(3, 8), F(1, 2))],
        [(0, F(1, 2)), (F(1, 2), 1)],
        [(F(1, 4), F(1, 2)), (F(1, 2), F(3, 4)), (F(3, 4), 1)],
        [(F(1, 2), F(7, 8)), (F(1, 4), F(3, 4)), (0, F(1, 8))],
        [(F(1, BIG), F(2, BIG)), (F(3, COPRIME_DENS[1]), F(1, 2)), (F(BIG - 1, BIG), 1)],
        [(F(1, 3), "1/2"), ("1/4", F(1, 3)), (F(1, 2), 2)],
    ],
    ids=["ends-at-0-and-1", "all", "three-out-of-order", "touching-cover", "touching-at-1", "overlap-out-of-order",
         "coprime", "strings-and-out-of-range"],
)
def test_gap_sets_at_the_edges_match_fraction_reference(raw):
    assert gaps_of(GapSet, raw) == outcome(ref_gapset, raw)
    assert gaps_of(merge_gaps, raw) == outcome(ref_merge_gaps, raw)
    for ivs in (raw, [(a, b) for a, b in raw if _frac(b) <= 1]):
        g = outcome(GapSet, ivs)
        for g in (g, outcome(merge_gaps, ivs)):
            if isinstance(g, GapSet):
                f, h, _, _ = crossing_pair(random.Random(len(g)), "point")
                assert_matches_reference(g, [(f, h)])


def test_merged_gaps_enter_with_their_overlap_checked():
    # merge_gaps' way into GapSet trusts its rows' checks and order, but
    # not that they are disjoint: an overlap there is a bug
    rows = [_check_interval(iv) for iv in ((F(1, 4), F(1, 2)), (F(3, 8), F(3, 4)))]
    with pytest.raises(InvariantViolation, match=r"gaps overlap: \(1/4, 1/2\) and \(3/8, 3/4\)"):
        GapSet._merged(rows)
    assert GapSet._merged(rows[:1]) == GapSet(((F(1, 4), F(1, 2)),))


def test_gap_calculus_builds_no_fraction(monkeypatch):
    rng = random.Random(5)
    f, h, support, _ = crossing_pair(rng, "coprime")
    # f and h's own gaps, touching at the crossings, and a set without
    # isolated points, from 0 to 1 with a large denominator in between
    touching = GapSet(tuple((f(a), f(b)) for a, b in support))
    g = merge_gaps([(0, F(1, 8)), (F(1, 4), F(1, COPRIME_DENS[2]) + F(1, 3)), (F(3, 5), 1)])
    built = []
    new = F.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting))
    assert F(1, 3) == F(2, 6) and built == [(1, 3), (2, 6)]  # the count sees a construction
    built.clear()
    lo, hi = extreme_pair_all(g)
    chi = collapse_map(g)
    results = [equiv_test(f, h, touching), equiv_test(h, f, touching), equiv_test(lo, hi, g), equiv_test(f, h, g)]
    assert built == []
    monkeypatch.undo()
    assert results == [True, True, True, False]
    assert (lo, hi, chi) == (ref_extreme_pair_all(g.gaps) + (ref_collapse_map(g.gaps),))
