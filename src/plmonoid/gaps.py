"""Gap calculus for pseudo-distances on the monotone-surjection monoid.

A pseudo-distance that is invariant under reparameterization collapses
certain pairs of maps to distance zero.  The collapsing is governed by
a set of open "gaps" inside (0, 1): two maps are identified exactly
when, wherever they disagree, the midpoint of their values falls inside
a gap.  This module computes with finite gap sets directly: coalescing
raw interval lists, the extreme pair of maps witnessing a gap, the
exact equivalence decision, and the collapse map that realizes the same
identification as a plain uniform distance after composition.

Finite gap sets only; every operation is exact.  A GapSet holds its
gaps as Fraction pairs; the calculus reads each end as the reduced
(numerator, denominator) int pair the maps store, compares pairs by
cross-multiplying and builds its maps from pairs.  So the only
Fractions made are the caller's interval ends that merge_gaps and
GapSet read, and none at all inside extreme_pair_all, equiv_test or
collapse_map.  collapse_map puts the gap ends over one common
denominator, as the plcore docstring says.  Evaluators produced or
consumed here must be pure functions, safe for concurrent invocation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import Callable

from .plcore import (
    InputError,
    InvariantViolation,
    PLMono,
    Ratio,
    _Value,
    _frac,
    _ints,
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
# A checked interval: its Fraction ends, then each end as a reduced pair.
_Row = tuple[Interval, Ratio, Ratio]

# Pseudo-distance evaluators: symmetric, nonnegative, triangle-satisfying
# callables.  The axioms are spot-checked in tests, not enforced here.
TuplePseudoDist = Callable[[MonoTuple, MonoTuple], Fraction]
MonoPseudoDist = Callable[[PLMono, PLMono], Fraction]


def _check_interval(iv) -> _Row:
    a, b = _pair(iv, "an (a, b) interval")
    a, b = _frac(a), _frac(b)
    ar, br = a.as_integer_ratio(), b.as_integer_ratio()
    # 0 <= a < b <= 1, cross-multiplied
    if ar[0] < 0 or ar[0] * br[1] >= br[0] * ar[1] or br[0] > br[1]:
        raise InputError(f"not a nonempty open subinterval of [0, 1]: ({a!s:.60}, {b!s:.60})")
    return (a, b), ar, br


def _sorted_intervals(intervals) -> list[_Row]:
    """The caller's intervals, checked and sorted by their (a, b) ends."""
    items = _iter(intervals, "intervals must be an iterable of (a, b) pairs")
    return sorted(map(_check_interval, items), key=itemgetter(0))


class GapSet(_Value):
    """Finite set of disjoint open rational subintervals of (0, 1).

    Intervals are pairwise disjoint and kept sorted, in whatever order
    they are given.  Two intervals may share an endpoint; such shared
    endpoints are reported by isolated_points and disqualify the set
    from arising as the gap set of a pseudo-distance.
    """

    _fields = ("gaps",)

    def __init__(self, gaps: tuple[Interval, ...]):
        self._store(_sorted_intervals(gaps))

    @classmethod
    def _merged(cls, rows: list[_Row]) -> GapSet:
        """merge_gaps' way in: its merged rows, checked and sorted as they
        were read, so only the overlap check runs; an overlap there is a
        bug: InvariantViolation."""
        self = object.__new__(cls)
        self._store(rows, InvariantViolation)
        return self

    def _store(self, rows: list[_Row], error: type[Exception] = InputError) -> None:
        """Keep the sorted rows' Fraction ends; ``error`` if two overlap."""
        for ((a0, b0), _, (bn, bd)), ((a1, b1), (an, ad), _) in zip(rows, rows[1:]):
            if an * bd < bn * ad:
                raise error(f"gaps overlap: ({a0!s:.60}, {b0!s:.60}) and ({a1!s:.60}, {b1!s:.60})")
        self.__dict__["gaps"] = tuple(iv for iv, _, _ in rows)

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
    out: list[_Row] = []
    for row in _sorted_intervals(intervals):
        if out:
            (prev_a, _), prev_ar, (pn, pd) = out[-1]
            (_, b), (an, ad), br = row
            if an * pd < pn * ad:  # a < prev_b: the two merge
                if br[0] * pd > pn * br[1]:
                    out[-1] = (prev_a, b), prev_ar, br
                continue
        out.append(row)
    return GapSet._merged(out)


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
    lo_rows = [((0, 1), (0, 1))]
    hi_rows = [((0, 1), (0, 1))]
    for a, b in g.gaps:
        ar, br = (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
        n, d = an * bd + bn * ad, 2 * ad * bd
        k = gcd(n, d)
        mid = (n // k, d // k)
        lo_rows += [(ar, ar), (mid, ar), (br, br)]
        hi_rows += [(ar, ar), (mid, br), (br, br)]
    lo_rows.append(((1, 1), (1, 1)))
    hi_rows.append(((1, 1), (1, 1)))
    return PLMono._from_pairs(lo_rows), PLMono._from_pairs(hi_rows)


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
    cell, which closes one interval and opens the next.  The values are
    kept as int pairs with a positive denominator, unreduced at a
    crossing, and compared with the gap ends by cross-multiplying.
    """
    if not isinstance(f, PLMono) or not isinstance(h, PLMono) or not isinstance(g, GapSet):
        raise InputError("equiv_test needs two monotone maps and a GapSet")
    _, (fv, hv) = _tabulate((f, h))
    ends: list[Ratio] = []
    for (a, b), (c, d), (p, q), (r, s) in zip(fv, fv[1:], hv, hv[1:]):
        # f - h at the cell's ends is d0 / (b * q) and d1 / (d * s).
        d0, d1 = a * q - p * b, c * s - r * d
        if not d0:
            if d1:
                ends.append((a, b))
        elif not d1:
            ends.append((c, d))
        elif (d0 < 0) != (d1 < 0):
            # The crossing (f0 * h1 - h0 * f1) / ((f0 - h0) - (f1 - h1)),
            # whose denominator has the sign of d0.
            n, m = a * r * q * d - p * c * b * s, d0 * d * s - d1 * b * q
            y = (n, m) if d0 > 0 else (-n, -m)
            ends += (y, y)
    gaps = [(lo.as_integer_ratio(), hi.as_integer_ratio()) for lo, hi in g.gaps]
    inside = (any(ln * ad <= an * ld and bn * hd <= hn * bd for (ln, ld), (hn, hd) in gaps)
              for (an, ad), (bn, bd) in zip(ends[::2], ends[1::2]))
    return all(inside)


def collapse_map(g: GapSet) -> PLMono:
    """The monotone surjection that is constant on every gap and climbs
    at constant speed on the complement.

    Sends t to the normalized length of [0, t] minus the gaps.  Raises
    for gap sets with isolated complement points, and for gap sets
    covering all of (0, 1), which identify everything (the trivial
    pseudo-distance).  With the gap ends written as numerators over one
    common denominator D and S the numerator of the gaps' total length,
    the level on a gap (a, b) is (a - covered) / (D - S), covered the
    numerator of the gaps' length before it, reduced by one gcd.
    """
    bad = ", ".join(f"{p!s:.60}" for p in isolated_points(g))
    if bad:
        raise InputError(f"gap set has isolated complement points at {bad}")
    ends = [x.as_integer_ratio() for gap in g.gaps for x in gap]
    ints, den = _ints(ends)
    free = den - sum(ints[1::2]) + sum(ints[::2])
    if not free:
        raise InputError("gaps cover (0, 1): trivial pseudo-distance has no collapse map")
    rows = [((0, 1), (0, 1))]
    covered = 0
    for a, b, ar, br in zip(ints[::2], ints[1::2], ends[::2], ends[1::2]):
        k = gcd(a - covered, free)
        level = ((a - covered) // k, free // k)
        rows += [(ar, level), (br, level)]
        covered += b - a
    rows.append(((1, 1), (1, 1)))
    return PLMono._from_pairs(rows)


def collapsed_dist(f: PLMono, h: PLMono, chi: PLMono) -> Fraction:
    """Uniform distance after collapsing through chi: the pseudo-distance
    induced by a collapse map."""
    if not isinstance(f, PLMono) or not isinstance(h, PLMono) or not isinstance(chi, PLMono):
        raise InputError("collapsed_dist needs three monotone maps")
    return sup_dist(compose(chi, f), compose(chi, h))


def pullback_pseudometric(base: MonoTuple, rho: TuplePseudoDist) -> MonoPseudoDist:
    """Pull a tuple pseudo-distance back along composition with a base
    tuple: the returned evaluator sends (f, h) to rho(base o f, base o h).

    Pseudo-metric axioms are inherited from rho; they are spot-checked
    in tests rather than enforced.
    """
    base = _as_tuple(base)
    if not callable(rho):
        raise InputError(f"pullback_pseudometric needs a callable rho, got {rho!r:.60}")

    def pulled(f: PLMono, h: PLMono) -> Fraction:
        left = MonoTuple(tuple(compose(c, f) for c in base))
        right = MonoTuple(tuple(compose(c, h) for c in base))
        return rho(left, right)

    return pulled
