"""Gap calculus for pseudo-distances on the monotone-surjection monoid.

A pseudo-distance that is invariant under reparameterization collapses
certain pairs of maps to distance zero.  The collapsing is governed by
a set of open "gaps" inside (0, 1): two maps are identified exactly
when, wherever they disagree, the midpoint of their values falls inside
a gap.  This module computes with finite gap sets directly: coalescing
raw interval lists, the extreme pair of maps witnessing a gap, the
exact equivalence decision, and the collapse map that realizes the same
identification as a plain uniform distance after composition.

Finite gap sets only; every operation is exact.  Evaluators produced or
consumed here must be pure functions, safe for concurrent invocation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .plcore import (
    HALF,
    ONE,
    ZERO,
    InputError,
    PLMono,
    _Value,
    _frac,
    _iter,
    _pair,
    _tabulate,
    compose,
    sup_dist,
)
from .typespace import MonoTuple, _as_tuple

__all__ = [
    "GapSet",
    "merge_gaps",
    "isolated_points",
    "extreme_pair",
    "extreme_pair_all",
    "equiv_test",
    "collapse_map",
    "collapsed_dist",
    "pullback_pseudometric",
    "TuplePseudoDist",
    "MonoPseudoDist",
]

Interval = tuple[Fraction, Fraction]

# Pseudo-distance evaluators: symmetric, nonnegative, triangle-satisfying
# callables.  The axioms are spot-checked in tests, not enforced here.
TuplePseudoDist = Callable[[MonoTuple, MonoTuple], Fraction]
MonoPseudoDist = Callable[[PLMono, PLMono], Fraction]


def _check_interval(iv) -> Interval:
    a, b = _pair(iv, "an (a, b) interval")
    a, b = _frac(a), _frac(b)
    if not (ZERO <= a < b <= ONE):
        raise InputError(f"not a nonempty open subinterval of [0, 1]: ({a!s:.60}, {b!s:.60})")
    return a, b


def _sorted_intervals(intervals) -> list[Interval]:
    """The caller's intervals, checked and sorted."""
    items = _iter(intervals, "intervals must be an iterable of (a, b) pairs")
    return sorted(_check_interval(iv) for iv in items)


class GapSet(_Value):
    """Finite set of disjoint open rational subintervals of (0, 1).

    Intervals are pairwise disjoint and kept sorted, in whatever order
    they are given.  Two intervals may share an endpoint; such shared
    endpoints are reported by isolated_points and disqualify the set
    from arising as the gap set of a pseudo-distance.
    """

    _fields = ("gaps",)

    def __init__(self, gaps: tuple[Interval, ...]):
        ivs = tuple(_sorted_intervals(gaps))
        for (a0, b0), (a1, b1) in zip(ivs, ivs[1:]):
            if a1 < b0:
                raise InputError(f"gaps overlap: ({a0!s:.60}, {b0!s:.60}) and ({a1!s:.60}, {b1!s:.60})")
        self.__dict__["gaps"] = ivs

    def union_contains(self, x: Fraction) -> bool:
        x = _frac(x)
        return any(a < x < b for a, b in self.gaps)

    def __len__(self):
        return len(self.gaps)

    def __iter__(self):
        return iter(self.gaps)


def merge_gaps(intervals) -> GapSet:
    """Coalesce raw open intervals into the minimal equivalent gap set.

    Overlapping or nested intervals merge; intervals that merely touch
    at a point stay separate, since the union of open sets does not
    cover the shared endpoint.
    """
    ivs = _sorted_intervals(intervals)
    out: list[Interval] = []
    for a, b in ivs:
        if out and a < out[-1][1]:
            prev_a, prev_b = out[-1]
            out[-1] = (prev_a, max(prev_b, b))
        else:
            out.append((a, b))
    return GapSet(tuple(out))


def isolated_points(g: GapSet) -> list[Fraction]:
    """Shared endpoints of adjacent gaps.

    A nonempty result means the complement of the union has an isolated
    point, which no pseudo-distance gap set can have.
    """
    if not isinstance(g, GapSet):
        raise InputError(f"expected a GapSet, got {type(g).__name__}")
    return [b0 for (_, b0), (a1, _) in zip(g.gaps, g.gaps[1:]) if b0 == a1]


def extreme_pair(interval) -> tuple[PLMono, PLMono]:
    """The two extreme maps witnessing one gap.

    On (a, b) the lower map sits at a for the first half then climbs
    with slope 2, the upper map climbs first then sits at b; both agree
    with the identity outside.  Their mean is exactly the identity, so
    the pair is a canonical pair.
    """
    return extreme_pair_all(GapSet((interval,)))


def extreme_pair_all(g: GapSet) -> tuple[PLMono, PLMono]:
    """Extreme pair witnessing every gap at once: identity on the
    complement, gap-wise extreme maps inside each gap."""
    bad = ", ".join(f"{p!s:.60}" for p in isolated_points(g))
    if bad:
        raise InputError(f"gap set has isolated complement points at {bad}")
    lo_pts = [(ZERO, ZERO)]
    hi_pts = [(ZERO, ZERO)]
    for a, b in g.gaps:
        mid = (a + b) * HALF
        lo_pts += [(a, a), (mid, a), (b, b)]
        hi_pts += [(a, a), (mid, b), (b, b)]
    lo_pts.append((ONE, ONE))
    hi_pts.append((ONE, ONE))
    return PLMono(tuple(lo_pts)), PLMono(tuple(hi_pts))


def equiv_test(f: PLMono, h: PLMono, g: GapSet) -> bool:
    """Decide whether f and h are identified by the gap set, exactly.

    True when at every point where f and h differ, the midpoint of
    their two values lies inside the union of gaps.  On a maximal open
    interval (a, b) where f and h differ, both maps are monotone and
    agree at a and at b, so their midpoint takes exactly the values in
    (f(a), f(b)) there: it cannot reach f(a) or f(b) inside, where the
    maps differ.  That open interval lies in a union of disjoint open
    gaps exactly when it lies in one gap (lo, hi), that is when
    lo <= f(a) and f(b) <= hi.  On each cell of the merged breakpoint
    grid the difference is affine, so the values at the ends of the
    intervals are read off the grid: where the difference leaves or
    returns to 0 at a grid point, and where it changes sign inside a
    cell, which closes one interval and opens the next.
    """
    if not isinstance(f, PLMono) or not isinstance(h, PLMono) or not isinstance(g, GapSet):
        raise InputError("equiv_test needs two monotone maps and a GapSet")
    _, (fv, hv) = _tabulate((f, h))
    ends: list[Fraction] = []
    for (a, b), (c, d), (p, q), (r, s) in zip(fv, fv[1:], hv, hv[1:]):
        # f - h at the cell's ends is d0 / (b * q) and d1 / (d * s).
        d0, d1 = a * q - p * b, c * s - r * d
        if not d0:
            if d1:
                ends.append(Fraction(a, b))
        elif not d1:
            ends.append(Fraction(c, d))
        elif (d0 < 0) != (d1 < 0):
            # The crossing (f0 * h1 - h0 * f1) / ((f0 - h0) - (f1 - h1)).
            y = Fraction(a * r * q * d - p * c * b * s, d0 * d * s - d1 * b * q)
            ends += (y, y)
    return all(any(lo <= a and b <= hi for lo, hi in g.gaps) for a, b in zip(ends[::2], ends[1::2]))


def collapse_map(g: GapSet) -> PLMono:
    """The monotone surjection that is constant on every gap and climbs
    at constant speed on the complement.

    Sends t to the normalized length of [0, t] minus the gaps.  Raises
    for gap sets with isolated complement points, and for gap sets
    covering all of (0, 1), which identify everything (the trivial
    pseudo-distance).
    """
    bad = ", ".join(f"{p!s:.60}" for p in isolated_points(g))
    if bad:
        raise InputError(f"gap set has isolated complement points at {bad}")
    free = ONE - sum((b - a for a, b in g.gaps), start=ZERO)
    if free == ZERO:
        raise InputError("gaps cover (0, 1): trivial pseudo-distance has no collapse map")
    slope = 1 / free
    pts: list[tuple[Fraction, Fraction]] = [(ZERO, ZERO)]
    cursor, level = ZERO, ZERO
    for a, b in g.gaps:
        level += (a - cursor) * slope
        pts.append((a, level))
        pts.append((b, level))
        cursor = b
    pts.append((ONE, level + (ONE - cursor) * slope))
    return PLMono(tuple(pts))


def collapsed_dist(f: PLMono, h: PLMono, chi: PLMono) -> Fraction:
    """Uniform distance after collapsing through chi: the pseudo-distance
    induced by a collapse map."""
    return sup_dist(compose(chi, f), compose(chi, h))


def pullback_pseudometric(base: MonoTuple, rho: TuplePseudoDist) -> MonoPseudoDist:
    """Pull a tuple pseudo-distance back along composition with a base
    tuple: the returned evaluator sends (f, h) to rho(base o f, base o h).

    Pseudo-metric axioms are inherited from rho; they are spot-checked
    in tests rather than enforced.
    """
    base = _as_tuple(base)

    def pulled(f: PLMono, h: PLMono) -> Fraction:
        left = MonoTuple(tuple(compose(c, f) for c in base))
        right = MonoTuple(tuple(compose(c, h) for c in base))
        return rho(left, right)

    return pulled
