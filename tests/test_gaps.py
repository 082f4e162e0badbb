"""Gap calculus: merging, isolated points, extreme pairs, the exact
equivalence decision, collapse maps and pulled-back pseudo-distances."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from plmonoid import (
    GapSet,
    InputError,
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


@given(seeds, st.sampled_from(["point", "random", "moved", "coprime"]))
@settings(max_examples=30, deadline=None)
def test_equiv_gap_endpoint_at_a_crossing_value(seed, kind):
    # The gaps are the midpoint's value intervals (f(a), f(b)) over the
    # reference's support intervals (a, b) of f - h, so f and h are
    # identified.  The pair is drawn until f - h changes sign inside a
    # cell of the merged grid: there two support intervals touch, and so
    # do two gaps, at exactly the crossing value.  A crossing dropped or
    # moved off that value leaves a value interval across both gaps.
    rng = random.Random(seed)
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
            break
    else:
        pytest.fail("no pair with a crossing inside a cell in 200 draws")
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
