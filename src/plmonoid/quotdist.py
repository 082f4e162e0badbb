"""Quotient distance between tuples of monotone maps, computed exactly.

Two equal-length tuples are compared modulo simultaneous monotone
reparameterization of each side.  The resulting distance is a Frechet
distance between the two tuple-valued curves under the max-over-
components uniform norm, and is computed here two independent ways:

* exactly, in closed form: the largest value, over the grid lines of
  either side's merged breakpoint grid, at which the most positive and
  the most negative component difference cross (_value's docstring has
  the proof).  One two-pointer sweep per side finds each line's
  crossing cell, in exact ints scaled over the values of the grid nodes
  each comparison touches.  The decision ("is the distance at most
  eps?") and the bracket [hi * j / 2^k, hi * (j + 1) / 2^k] under the
  canonical forms' sup-distance hi are read from that value; the forms
  come from canonicalize, which returns a uniform canonical tuple as is;
* a brute-force upper bound: dynamic programming over monotone lattice
  paths on a uniform grid, where the cost of a path is the exact
  supremum of the component distances along the piecewise-linear
  alignment the path induces.  Refining the grid never increases it.
  brute_oracle's docstring gives its step rule, the band of nodes it
  visits and the one common denominator of its rows.

For a canonical pair, the distance from its orbit (reparameterizations
of the first component) to the identity pair is bounded by one explicit
reparameterization w: the level-matching curve first o w == second, each
plateau of first that second crosses tilted into a ramp at most
1/(4*net) wide.  Its cost, the largest rise of second over a ramp, is
read from the level walk without building w; the bound is at most
1/(4*net) and exactly 0 when first has no plateau.

Every computation here is pure and may run concurrently with any other.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd
from numbers import Rational
from typing import NamedTuple

from .plcore import (
    HALF,
    ZERO,
    InputError,
    InvariantViolation,
    PLMono,
    Ratio,
    _Value,
    _count,
    _frac,
    _ints,
    _lerp,
    _max_sup_pair,
    _merged,
    _sweep_ends,
    _tabulate,
    sup_dist,
)
from .typespace import CanonicalTuple, MonoTuple, _as_tuple, canonicalize, uniform_weights

__all__ = [
    "QuotInterval",
    "IdentityProximity",
    "quot_decision",
    "quot_dist",
    "brute_oracle",
    "orbit_identity_bound",
]


class QuotInterval(_Value):
    """Bracket [lo, hi] around a quotient distance.

    The decision procedure answers False at lo (or lo is 0) and True at
    hi.  For a starting hi0 and the least k >= 0 with hi0 / 2^k <= tol,
    lo and hi are hi0 * j / 2^k and hi0 * (j + 1) / 2^k for one int j.
    Both ends are read from the exact distance, and ``decisions`` is
    the step count of the plain bisection that gives the same bracket:
    the check at 0 and, if the distance is not 0, the one at hi0 and k
    halvings.  The ends are ints or Fractions, kept as given, with
    0 <= lo <= hi, and ``decisions`` is an int >= 0; a bool is neither,
    and anything else raises InputError.
    """

    _fields = ("lo", "hi", "decisions")

    def __init__(self, lo: Fraction, hi: Fraction, decisions: int = 0):
        if not all(isinstance(v, Rational) and type(v) is not bool for v in (lo, hi)) or not ZERO <= lo <= hi:
            raise InputError(f"not a bracket: [{lo!s:.60}, {hi!s:.60}]")
        if type(decisions) is not int or decisions < 0:
            raise InputError(f"decisions must be an int of at least 0, got {decisions!r:.60}")
        self.__dict__.update(lo=lo, hi=hi, decisions=decisions)


def _value(a: MonoTuple, b: MonoTuple) -> Fraction:
    """The quotient distance of a and b, exactly.

    With d_i(u, v) = a_i(u) - b_i(v), P = max_i d_i and N = max_i -d_i,
    the distance is the largest min(P, N) over [0, 1]^2.  Proof sketch:
    each |d_i(u, .)| <= eps holds on a nonempty closed interval of v, as
    b_i is monotone and onto, so the v within eps of a(u) form an
    interval S(u) whose ends never fall as u grows.  Following the lower
    end of S(u) is a monotone path from (0, 0) to (1, 1) through the
    free space when no S(u) is empty, and none exists otherwise; and
    S(u) is empty iff P > eps and N > eps at some (u, v).

    Inside a grid cell min(P, N) is the largest min(X_i, Y_j), X_i = d_i
    and Y_j = -d_j affine, so it peaks on the cell's boundary.  On a grid
    line u = U[p], P falls and N rises with v, so the line's peak is where
    P - N = max(d) + min(d) changes sign, and that cell moves right as u
    grows: one two-pointer walk per side finds it.  Along that cell X_i
    falls from x0 to x1 and Y_j rises from y0 to y1, so min(X_i, Y_j)
    peaks at x0, at y1, or where they cross, at
    (x0 * y1 - x1 * y0) / ((x0 - y0) - (x1 - y1)).
    The lines v = V[q] are the same pass with the sides swapped.

    Each grid node keeps its n values as ints over their lcm.  The walk
    holds the differences at the cell's two nodes, lo over c * c0 and hi
    over c * c1 (c, c0 and c1 the lcms of the line's node and of the
    cell's two), and a step passes hi on as the next lo.  At its stop
    d0 = c1 * lo and d1 = c0 * hi put both over S = c * c0 * c1, and the
    candidates are compared by cross-multiplying.  As X_i falls from x0
    and Y_j rises to y1 = -e1, no candidate exceeds
    min(max d0, -min d1) / S, so a line whose cap is at most the best so
    far cannot raise it strictly and its n^2 candidates are skipped.
    """
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
    return Fraction(best, best_d)


def quot_decision(a, b, eps) -> bool:
    """Exact decision: is the quotient distance of a and b at most eps?

    True iff a monotone path from (0, 0) to (1, 1) exists through the
    set of parameter pairs at which every component pair is within eps,
    that is iff eps is at least _value(a, b).  Monotone in eps.
    """
    eps = _frac(eps)
    if eps < ZERO:
        raise InputError("eps must be nonnegative")
    return _value(_as_tuple(a), _as_tuple(b)) <= eps


def _bracket(a, b, tol) -> tuple[QuotInterval, Ratio]:
    """quot_dist's bracket, with the canonical sup bound it starts from.

    The bound is _max_sup_pair's unreduced int pair, and is compared
    with d by cross-multiplying.  k and j depend only on the ratios of
    the pairs, so only the two ends of the bracket are built as
    Fractions.
    """
    tol = _frac(tol)
    if tol <= ZERO:
        raise InputError("tolerance must be positive")
    d = _value(_as_tuple(a), _as_tuple(b))
    hn, hd = _max_sup_pair(canonicalize(a)[0], canonicalize(b)[0])
    if not d:
        return QuotInterval(ZERO, ZERO, 1), (hn, hd)
    dn, dd = d.numerator, d.denominator
    if dn * hd > hn * dd:
        raise InvariantViolation("canonical sup-distance failed as an upper bound")
    # k is the least k >= 0 with hi / 2^k <= tol, i.e. width <= unit << k;
    # the bit lengths leave one candidate below it.
    width, unit = hn * tol.denominator, tol.numerator * hd
    k = max(0, width.bit_length() - unit.bit_length())
    k += width > unit << k
    # j + 1 is the least m with hi * m / 2^k >= d.
    j = -(-(dn * hd << k) // (dd * hn)) - 1
    return QuotInterval(Fraction(hn * j, hd << k), Fraction(hn * (j + 1), hd << k), k + 2), (hn, hd)


def quot_dist(a, b, tol) -> QuotInterval:
    """Bracket the quotient distance to within tol.

    The upper end starts at hi, the max component sup-distance of the
    two canonical forms, which dominates the quotient distance because
    passing to canonical forms is contractive; the lower end starts at
    zero.  The bracket is the one bisection would reach, k halvings of
    [0, hi] with k the least that makes it no wider than tol, read off
    the exact distance d of _value: hi - lo <= tol, the decision
    procedure answers True at hi and False at lo unless lo is 0.  A
    distance above hi raises InvariantViolation, as a failed decision
    at hi would.
    """
    return _bracket(a, b, tol)[0]


def _runs(f: PLMono, x0: Ratio, k: int, count: int) -> list[tuple[int, Ratio, Ratio]]:
    """f at x0 + m/k for m in range(count), as arithmetic runs.

    One run (length, first value, increment) per segment of f that the
    progression meets; f is affine on a segment, so each value of a run
    is its first value plus a multiple of slope/k.  x0 and the values are
    int pairs, the values reduced; a run ends by int floor division.
    """
    runs, m, (x0n, x0d), xs, ys = [], 0, x0, f._xr, f._yr
    for (a0, b0), (p0, q0), (a1, b1), (p1, q1) in zip(xs, ys, xs[1:], ys[1:]):
        end = min(count, (a1 * x0d - x0n * b1) * k // (b1 * x0d) + 1)
        if end > m:
            first = _lerp((a0, b0), (p0, q0), (a1, b1), (p1, q1), (x0n * k + m * x0d, x0d * k))
            inc = (p1 * q0 - p0 * q1) * b0 * b1, (a1 * b0 - a0 * b1) * q0 * q1 * k
            runs.append((end - m, *[(n // g, d // g) for n, d in (first, inc) for g in (gcd(n, d),)]))
            m = end
    return runs


def _oracle_side(own: MonoTuple, other: MonoTuple, k: int):
    """One side's set-up for brute_oracle.

    Returns the runs of each component's values on the 1/k grid, and a
    flat list of (step, runs) for the breakpoints x strictly inside a
    grid step ((step-1)/k, step/k), in (component, position) order.  The
    runs are the kink value y, as a run of length one, then the partner
    component of the other side at x + (q - step)/k for q = 1..k, where
    the kink crosses each of the k diagonal edges of that step.
    """
    vals, kinks = [], []
    for f, g in zip(own, other):
        vals.append(_runs(f, (0, 1), k, k + 1))
        for (xn, xd), y in zip(f._xr[1:-1], f._yr[1:-1]):
            step, off = divmod(xn * k, xd)
            if off:
                kinks.append((step + 1, [(1, y, (0, 1)), *_runs(g, (xn * k - step * xd, xd * k), k, k)]))
    return vals, kinks


def brute_oracle(a, b, k: int) -> Fraction:
    """Upper bound on the quotient distance from grid-path alignments.

    Considers monotone lattice paths on the (k+1) x (k+1) grid of
    parameter pairs with unit steps; each path induces a piecewise-
    linear alignment, and its cost is the exact supremum of the
    component distances along it (endpoint values plus every interior
    breakpoint crossing, no sampling error).  The minimum over paths is
    a true upper bound on the quotient distance and never increases
    when k is doubled, since the refined grid contains every old path.

    Only diagonal steps look at interior breakpoints.  On a horizontal
    or vertical step one side stays at a grid node, so each component
    distance is a monotone map minus a constant in absolute value; it
    peaks at an end of the step, and the path's node costs already
    count both ends.  On a diagonal step both sides move, their
    difference need not be monotone, and every kink of either side
    inside the step is checked at its crossing.  So the cheapest cost of
    reaching node (p, q) is max(node(p, q), min(cost(p-1, q),
    cost(p, q-1), max(cost(p-1, q-1), diag(p, q)))), from 0 at (0, 0).

    The DP runs only on nodes no dearer than the diagonal path (p, p),
    whose cost ``bound`` is max_i sup_dist(a_i, b_i).  An optimal path
    costs at most ``bound``, so every node on it does too; as each b_i is
    non-decreasing, those nodes of row p form one band of q that holds
    q = p.  It is found by narrowing bisects: each component's two
    bisects search only the bracket that the components before it left,
    which still holds q = p.  Every other node reads as dearer than
    ``bound``, which leaves the value at (k, k) unchanged.

    Every value a path can meet lies on an arithmetic run of one
    segment; each run's first value and increment, reduced int pairs,
    are scaled to ints over one common denominator (the DP compares
    every node cost with every other), the rows are expanded by int
    addition and the dynamic programme runs on ints, a row at a time.
    """
    _count(k, "grid resolution")
    a, b = _as_tuple(a), _as_tuple(b)
    if len(a) != len(b):
        raise InputError(f"tuple lengths differ: {len(a)} vs {len(b)}")
    n = len(a)
    sides = (_oracle_side(a, b, k), _oracle_side(b, a, k))
    # One scale for every value the DP meets, as it compares every node
    # cost with every other.  Run groups: the 2n grid rows, then each
    # side's kinks, a kink's value y ahead of its crossing runs.
    kinks = [(s, step, runs) for s, (_, kk) in enumerate(sides) for step, runs in kk]
    groups = [*sides[0][0], *sides[1][0], *(runs for *_, runs in kinks)]
    ints, denom = _ints([v for runs in groups for _, first, inc in runs for v in (first, inc)])
    scaled, rows = iter(ints), []
    for runs in groups:
        row = []
        for length, _, _ in runs:
            first, inc = next(scaled), next(scaled)
            row.extend(accumulate(repeat(inc, length - 1), initial=first))
        rows.append(row)
    ai, bi = rows[:n], rows[n:2 * n]
    # diag[s][step] = [(kink value y, [y, partner values at its k crossings])]:
    # behind the leading y (a zero extra), index j is the crossing of the
    # diagonal step into column j (s = 0) or row j (s = 1).
    diag = ({}, {})
    for (s, step, _), row in zip(kinks, rows[2 * n:]):
        diag[s].setdefault(step, []).append((row[0], row))

    # The diagonal path's cost: its nodes and its kink crossings.
    bound = max(abs(x - y) for ar, br in zip(ai, bi) for x, y in zip(ar, br))
    bound = max([bound] + [abs(y - r[step]) for side in diag for step, items in side.items() for y, r in items])
    out = bound + 1
    # Rows hold q = -1..k at index q + 1: column -1 is never reached.
    prev = [out] * (k + 2)
    comps = list(zip(ai, bi))
    (ar0, br0), *rest = comps
    for p in range(k + 1):
        # Row p's band [lo, hi): the q with every |a_i(p/k) - b_i(q/k)| <= bound,
        # each component's bisects inside the bracket the ones before it left.
        lo, hi = 0, k + 1
        for ar, br in comps:
            x = ar[p]
            lo = bisect_left(br, x - bound, lo, hi)
            hi = bisect_right(br, x + bound, lo, hi)
        # c[q - lo]: the node cost max_i |a_i(p/k) - b_i(q/k)|.
        x = ar0[p]
        c = [x - y if x > y else y - x for y in br0[lo:hi]]
        for ar, br in rest:
            x = ar[p]
            c = [e if e > (d := x - y if x > y else y - x) else d for e, y in zip(c, br[lo:hi])]
        # via_d[q - lo]: cost of reaching (p, q) by the diagonal step.
        via_d = prev[lo:hi]
        for y, row in diag[0].get(p, ()):
            via_d = [v if v > (e := y - r if y > r else r - y) else e for v, r in zip(via_d, row[lo:hi])]
        for q, items in diag[1].items():
            if lo <= q < hi:
                for y, col in items:
                    e = abs(y - col[p])
                    if e > via_d[q - lo]:
                        via_d[q - lo] = e
        cost = out if p else 0  # paths start at (0, 0)
        cur = [out] * (lo + 1)
        for node, up, diagonal in zip(c, prev[lo + 1:hi + 1], via_d):
            if diagonal < up:
                up = diagonal
            if up < cost:
                cost = up
            if node > cost:
                cost = node
            cur.append(cost)
        cur += [out] * (k + 1 - hi)
        prev = cur
    return Fraction(prev[k + 1], denom)


class IdentityProximity(NamedTuple):
    """One-sided result: ``upper_bound`` dominates the true orbit
    distance; ``member`` certifies it fell below the requested eps."""

    upper_bound: Fraction
    member: bool


def orbit_identity_bound(point: CanonicalTuple, eps, net: int) -> IdentityProximity:
    """Upper-bound the distance from a canonical pair's orbit to the
    identity pair with one explicit reparameterization.

    The orbit acts on the first component only, and a reparameterization
    w of it lies at distance sup |first o w - second| / 2 from the
    identity pair.  Joining, level by level over every breakpoint value
    of either component, the ends (t, x) of the preimages of the level
    under second (t) and under first (x) gives the curve on which
    first(x) == second(t) exactly.  It fails to be a function of t only
    on verticals, where first has a plateau that second crosses; each is
    tilted into a ramp of width min(1/(4*net), a third of the t-gap to
    the neighbouring vertex), by moving its lower end left, or its upper
    end right at t = 0.  The cost of w is exactly the largest rise of
    second over a ramp: off the ramps first o w == second, on one it is
    the plateau's level, and beside one both are affine (each breakpoint
    of either map is a vertex of the walk), so their gap peaks at the
    ramp's end.  second's slope is at most 2, so the bound is at most
    1/(4*net) (a larger cost raises InvariantViolation), and it is 0 when
    first has no plateau.  Returns the smaller of the cost of w and of
    the untouched path, halved, and whether it certifies membership
    below eps.  One-sided: True certifies, False does not refute.
    Doubling ``net`` never increases the bound.
    """
    _count(net, "net resolution")
    eps = _frac(eps)
    if not isinstance(point, CanonicalTuple) or len(point) != 2:
        raise InputError("expected a canonical pair")
    if point.weights != uniform_weights(2):
        raise InputError("expected equal weights")
    first, second = point.components

    levels = _merged((first._yr, second._yr))
    (t0s, t1s), (x0s, x1s) = (_sweep_ends(m._yr, m._xr, levels) for m in (second, first))
    # A third of a gap per ramp: the gap after t = 0 may hold two ramps.
    ramp, cost = Fraction(1, 4 * net), ZERO
    for k, (t0, t1, x0, x1) in enumerate(zip(t0s, t1s, x0s, x1s)):
        if t0 == t1 and x0 != x1:  # a plateau of first that second crosses at t
            if t0 == (0, 1):
                rise = second(min(ramp, Fraction(*t0s[k + 1]) / 3))
            else:
                t = Fraction(*t0)
                rise = Fraction(*levels[k]) - second(t - min(ramp, (t - Fraction(*t1s[k - 1])) / 3))
            cost = max(cost, rise)
    if cost > 2 * ramp:
        raise InvariantViolation(f"orbit reparameterization costs more than twice its ramp width 1/{4 * net}")
    bound = min(cost, sup_dist(first, second)) * HALF
    return IdentityProximity(bound, bound < eps)
