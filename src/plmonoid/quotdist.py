"""Quotient distance between tuples of monotone maps, computed exactly.

Two equal-length tuples are compared modulo simultaneous monotone
reparameterization of each side.  The resulting distance is a Frechet
distance between the two tuple-valued curves under the max-over-
components uniform norm, and is computed here three independent ways:

* an exact decision procedure ("is the distance at most eps?") that
  propagates feasible intervals through the free-space diagram of the
  two merged breakpoint grids, entirely in exact ints, each scaled over
  the values of one grid cell and one node only;
* a bisection on eps driven by the decision procedure, bracketed above
  by the sup-distance hi of the canonical forms (the canonical map is
  contractive).  Every bracket is [hi * j / 2^k, hi * (j + 1) / 2^k], so
  the loop runs on the ints (j, k).  A closed-form floor from the same
  forms answers every step below it without a free-space run: at each
  parameter some component of one form lies above the other's and some
  below, and a monotone path pays at least the smaller of the two gaps,
  whichever way it moves.  For pairs the floor is the sup-distance, so it is
  the distance exactly (quot_dist's docstring has the proof);
* a brute-force upper bound: dynamic programming over monotone lattice
  paths on a uniform grid, where the cost of a path is the exact
  supremum of the component distances along the piecewise-linear
  alignment the path induces.  Refining the grid never increases it.
  brute_oracle's docstring gives its step rule, the band of nodes it
  visits and the one common denominator of its rows.

For a canonical pair, the distance from its orbit (reparameterizations
of the first component) to the identity pair is bounded by one explicit
reparameterization: the exact level-matching curve first o w == second,
with each plateau of first that second crosses tilted into a ramp at
most 1/(4*net) wide, so the bound is at most 1/(4*net) and exactly 0
when first has no plateau.

Decision instances are independent pure computations and may run
concurrently; the interval propagation inside one decision is
sequential by cell order, which is a data dependency only.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd, lcm
from operator import sub
from typing import NamedTuple

from .plcore import (
    HALF,
    ZERO,
    InputError,
    InvariantViolation,
    PLMono,
    Ratio,
    _Value,
    _frac,
    _ints,
    _lerp,
    _merged,
    _sweep_ends,
    _tabulate,
    compose,
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

    The decision procedure answered False at lo (or lo is 0) and True
    at hi.  After k bisection steps from a starting hi0, lo and hi are
    hi0 * j / 2^k and hi0 * (j + 1) / 2^k for one int j.  ``decisions``
    counts the bisection's steps, with the check at 0 and the one at the
    starting hi.  A step whose eps lies below the floor (see quot_dist),
    the check at 0 included, is answered False without a free-space run
    but still counted.
    """

    _fields = ("lo", "hi", "decisions")

    def __init__(self, lo: Fraction, hi: Fraction, decisions: int = 0):
        if not (ZERO <= lo <= hi):
            raise InputError(f"not a bracket: [{lo}, {hi}]")
        self.__dict__.update(lo=lo, hi=hi, decisions=decisions)


# A free span (lo, lo_scale, hi, hi_scale) is [lo/lo_scale, hi/hi_scale]:
# its lower end may come from another edge of the cell, over that edge's
# scale, so each end carries its own.
Span = tuple[int, int, int, int] | None


def _raised(fr: Span, low: Span) -> Span:
    """fr with its lower end raised to low's, or None if that empties it."""
    lo, ls, hi, hs = fr
    if low[0] * ls <= lo * low[1]:
        return fr
    lo, ls = low[0], low[1]
    return (lo, ls, hi, hs) if lo * hs <= hi * ls else None


class _FreeSpace:
    """Free-space diagram of a tuple pair over merged breakpoint grids.

    Cell (p, q) covers u in [U[p], U[p+1]], v in [V[q], V[q+1]]; inside
    a cell every component of either tuple is affine, so the set where
    all component distances are at most eps is convex and its trace on
    a cell edge is a subinterval with rational endpoints.

    Deciding only compares span ends inside one cell of one axis, so
    every int is scaled locally.  Per side, each grid cell keeps its ends
    and the moving components' values at them as ints over their lcm c,
    with m the lcm of the components' nonzero rises; each node keeps the
    other tuple's values there as ints over their lcm o.  The first time
    a decision visits an edge, its grid ends, the gap to each flat
    component and the centre and unit-eps half-width of each sloped one
    are formed as ints over S = c * m * o and kept.  A decision at
    eps = num/den scales by den, so a span end is an exact int over
    S * den and deciding does no Fraction arithmetic.
    """

    def __init__(self, a: MonoTuple, b: MonoTuple):
        if len(a) != len(b):
            raise InputError(f"tuple lengths differ: {len(a)} vs {len(b)}")
        U, AU = _tabulate(a.components)
        V, BV = _tabulate(b.components)
        # Per side: the grid an edge moves along, the values moving with
        # it and the other tuple's values at the fixed node, as int pairs.
        self._cells, self._nodes, self._edges = [], [], []
        for grid, moving, other in ((U, AU, BV), (V, BV, AU)):
            cells = []
            for cell in range(len(grid) - 1):
                # The cell's ends, then each moving component's values there.
                ends = [*grid[cell:cell + 2], *(v for mv in moving for v in mv[cell:cell + 2])]
                (lo, hi, *vals), c = _ints(ends)
                rises = [f1 - f0 for f0, f1 in zip(vals[::2], vals[1::2])]
                m, dx = lcm(*filter(None, rises)), hi - lo
                # Per component its start and, if it rises by dv, dx * m/dv
                # and c * dx * m/dv (0 for a flat one), so that an edge
                # only multiplies by its node's values and o.
                comps = [(f0, dx * (m // dv), c * dx * (m // dv)) if dv else (f0, 0, 0)
                         for f0, dv in zip(vals[::2], rises)]
                cells.append((c, m, c * m, lo * m, hi * m, comps))
            nodes = [_ints([ov[fixed] for ov in other]) for fixed in range(len(other[0]))]
            self._cells.append(cells)
            self._nodes.append(nodes)
            self._edges.append([[None] * len(cells) for _ in nodes])

    def _edge_ints(self, side: int, fixed: int, cell: int) -> tuple:
        """(S, grid ends, largest gap to a flat component, ((centre,
        half-width at eps = 1) of each sloped component)), all over S."""
        c, m, cm, lo_m, hi_m, comps = self._cells[side][cell]
        fixed_vals, o = self._nodes[side][fixed]
        lo, gap, sloped = lo_m * o, 0, []
        for (f0, dxk, width), g in zip(comps, fixed_vals):
            off = g * c - f0 * o
            if dxk:
                sloped.append((lo + off * dxk, width * o))
            elif abs(off) > gap:
                gap = abs(off)
        return cm * o, lo, hi_m * o, gap * m, sloped

    def edge_free(self, side: int, fixed: int, cell: int, num: int, den: int) -> Span:
        """Free subinterval of one cell edge at eps = num/den.

        Side 0 is the horizontal edge v = V[fixed], u in cell ``cell`` of
        U; side 1 is the vertical edge u = U[fixed], v in cell ``cell`` of
        V.  Along the edge each moving component runs affinely between
        its values at the cell's ends while its partner sits at the fixed
        node; the edge is free where every |moving - fixed| <= eps.
        """
        row = self._edges[side][fixed]
        edge = row[cell]
        if edge is None:
            edge = row[cell] = self._edge_ints(side, fixed, cell)
        S, span_lo, span_hi, gap, sloped = edge
        if gap * den > num * S:
            return None
        span_lo, span_hi = span_lo * den, span_hi * den
        for centre, width in sloped:
            c, w = centre * den, width * num
            if c - w > span_lo:
                span_lo = c - w
            if c + w < span_hi:
                span_hi = c + w
            if span_lo > span_hi:
                return None
        scale = S * den
        return span_lo, scale, span_hi, scale

    def _axis(self, side: int, num: int, den: int) -> list[Span]:
        """Free spans of the edges along one axis out of (0, 0); an edge
        counts only while every edge before it is free end to end."""
        spans: list[Span] = []
        reached = True
        row = self._edges[side][0]
        for cell in range(len(row)):
            fr = self.edge_free(side, 0, cell, num, den) if reached else None
            if fr is not None and fr[0] == row[cell][1] * den:
                reached = fr[2] == row[cell][2] * den
            else:
                fr, reached = None, False
            spans.append(fr)
        return spans

    def decide(self, eps: Fraction) -> bool:
        """Monotone path from (0,0) to (1,1) through the free space?"""
        num, den = eps.numerator, eps.denominator
        P, Q = len(self._cells[0]), len(self._cells[1])
        vert: list[list[Span]] = [self._axis(1, num, den)]
        vert += [[None] * Q for _ in range(P)]
        horiz: list[list[Span]] = [[fr] + [None] * Q for fr in self._axis(0, num, den)]

        for p in range(P):
            for q in range(Q):
                left, bottom = vert[p][q], horiz[p][q]
                if left is None and bottom is None:
                    continue
                fr = self.edge_free(1, p + 1, q, num, den)
                if fr is not None:
                    vert[p + 1][q] = fr if bottom is not None else _raised(fr, left)
                fr = self.edge_free(0, q + 1, p, num, den)
                if fr is not None:
                    horiz[p][q + 1] = fr if left is not None else _raised(fr, bottom)

        # A span reaches (1, 1) when its upper end is 1: equal to its scale.
        top_right_vert = vert[P][Q - 1]
        top_right_horiz = horiz[P - 1][Q]
        return (top_right_vert is not None and top_right_vert[2] == top_right_vert[3]) or (
            top_right_horiz is not None and top_right_horiz[2] == top_right_horiz[3]
        )


def _canonical(t) -> CanonicalTuple:
    """Canonical form of t; a canonical tuple with uniform weights is its own.

    Weights are positive and sum to 1 (the constructor checks them, and
    pickle and copy rebuild through it), so they are uniform exactly
    when they are all equal.
    """
    if isinstance(t, CanonicalTuple) and t.weights.count(t.weights[0]) == len(t):
        return t
    return canonicalize(_as_tuple(t))[0]


def quot_decision(a, b, eps) -> bool:
    """Exact decision: is the quotient distance of a and b at most eps?

    True iff a monotone path from (0, 0) to (1, 1) exists through the
    set of parameter pairs at which every component pair is within eps.
    Monotone in eps.
    """
    eps = _frac(eps)
    if eps < ZERO:
        raise InputError("eps must be nonnegative")
    return _FreeSpace(_as_tuple(a), _as_tuple(b)).decide(eps)


def _level_bounds(ca: CanonicalTuple, cb: CanonicalTuple) -> tuple[Fraction, Fraction]:
    """(floor, hi): a lower and an upper bound on the quotient distance
    of two uniform-weight canonical tuples.

    At each point u of the merged grid of all 2n components, with
    d = ca(u) - cb(u), P is the largest d_i and N the largest -d_i; both
    are >= 0, as the d_i sum to 0.  floor is the largest min(P, N) and hi
    the largest max(P, N), the max component sup-distance.  The values
    at a point are ints over their lcm, and each bound is a running int
    pair compared by cross-multiplying, made a Fraction at the end.
    """
    n = len(ca)
    _, rows = _tabulate((*ca.components, *cb.components))
    floor, floor_d, hi, hi_d = 0, 1, 0, 1
    for point in zip(*rows):
        vals, d = _ints(point)
        diffs = list(map(sub, vals[:n], vals[n:]))
        low, high = max(diffs), -min(diffs)  # P and N, then in order
        if low > high:
            low, high = high, low
        if low * floor_d > floor * d:
            floor, floor_d = low, d
        if high * hi_d > hi * d:
            hi, hi_d = high, d
    return Fraction(floor, floor_d), Fraction(hi, hi_d)


def _bracket(a, b, tol) -> tuple[QuotInterval, Fraction]:
    """quot_dist's bracket, with the canonical sup bound it starts from."""
    tol = _frac(tol)
    if tol <= ZERO:
        raise InputError("tolerance must be positive")
    space = _FreeSpace(_as_tuple(a), _as_tuple(b))
    floor, hi = _level_bounds(_canonical(a), _canonical(b))
    decisions = 1
    if not floor and space.decide(ZERO):
        return QuotInterval(ZERO, ZERO, decisions), hi
    decisions += 1
    if not space.decide(hi):
        raise InvariantViolation("canonical sup-distance failed as an upper bound")
    # The bracket is [hi * j / 2^k, hi * (j + 1) / 2^k].  Its width
    # hi / 2^k exceeds tol iff width > unit << k, and a midpoint
    # hi * mid / 2^k is at least the floor iff mid_n * mid >= floor_n << k.
    hn, hd = hi.numerator, hi.denominator
    width, unit = hn * tol.denominator, tol.numerator * hd
    mid_n, floor_n = hn * floor.denominator, floor.numerator * hd
    j = k = 0
    while width > unit << k:
        k += 1
        mid = 2 * j + 1
        decisions += 1
        if mid_n * mid >= floor_n << k and space.decide(Fraction(hn * mid, hd << k)):
            j = mid - 1
        else:
            j = mid
    if not k:
        return QuotInterval(ZERO, hi, decisions), hi
    return QuotInterval(Fraction(hn * j, hd << k), Fraction(hn * (j + 1), hd << k), decisions), hi


def quot_dist(a, b, tol) -> QuotInterval:
    """Bracket the quotient distance to within tol by bisection.

    The upper end starts at hi, the max component sup-distance of the
    two canonical forms, which dominates the quotient distance because
    passing to canonical forms is contractive; the lower end starts at
    zero.  On return hi - lo <= tol, the decision procedure at hi
    answered True, and at lo it answered False unless lo is 0.

    The bracket is kept as the ints (j, k) of hi * j / 2^k, so a Fraction
    is built only for a free-space run and for the two ends returned;
    with no step, hi is returned as it started.

    A step whose eps lies below the floor of _level_bounds is answered
    False without a free-space run.  Proof sketch: the canonical forms
    A, B of a and b both sum to n*u at u, and a monotone path matching
    a with b maps to one matching A with B at the same cost.  The path
    matches each u with some v.  If v >= u then B(v) >= B(u) in every
    component, so no negative difference of A(u) - B(u) shrinks and the
    cost is at least N(u); if v <= u it is at least P(u).  So every path
    costs at least min(P, N) at every u, and the decision is False below
    the floor.  For n = 2, d_2 = -d_1, so P = N = |d_1| and the floor is
    hi: the bracket then needs one free-space run, the check at hi.
    """
    return _bracket(a, b, tol)[0]


def _interior_kinks(components, k: int):
    """Breakpoints strictly inside grid steps, keyed by the step index.

    Returns {step: [(component, position, value), ...]} for positions in
    ((step-1)/k, step/k), each coordinate a (numerator, denominator) pair.
    """
    out: dict[int, list[tuple[int, Ratio, Ratio]]] = {}
    for i, f in enumerate(components):
        for x, y in zip(f._xr[1:-1], f._yr[1:-1]):
            step, off = divmod(x[0] * k, x[1])
            if off:
                out.setdefault(step + 1, []).append((i, x, y))
    return out


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

    Returns the runs of each component's values on the 1/k grid, and per
    grid step the step's interior kinks as (component, kink value, runs),
    where the runs hold the partner component of the other side at the
    crossing point of the kink on each of the k diagonal edges of that
    step: x + (q - step)/k for q = 1..k.
    """
    vals = [_runs(f, (0, 1), k, k + 1) for f in own]
    kinks: dict[int, list] = {}
    for step, items in _interior_kinks(own.components, k).items():
        kinks[step] = [(i, y, _runs(other[i], (xn * k + (1 - step) * xd, xd * k), k, k)) for i, (xn, xd), y in items]
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
    non-decreasing, those nodes of row p form one band of q, found by
    bisection, that holds q = p.  Every other node reads as dearer than
    ``bound``, which leaves the value at (k, k) unchanged.

    Every value a path can meet lies on an arithmetic run of one
    segment; each run's first value and increment, reduced int pairs,
    are scaled to ints over one common denominator (the DP compares
    every node cost with every other), the rows are expanded by int
    addition and the dynamic programme runs on ints, a row at a time.
    """
    a, b = _as_tuple(a), _as_tuple(b)
    if len(a) != len(b):
        raise InputError(f"tuple lengths differ: {len(a)} vs {len(b)}")
    if k < 1:
        raise InputError("grid resolution must be at least 1")
    n = len(a)
    sides = (_oracle_side(a, b, k), _oracle_side(b, a, k))

    def flat(runs) -> list[Ratio]:
        return [v for _, first, inc in runs for v in (first, inc)]

    vals = [*sides[0][0], *sides[1][0]]
    kinks = [
        (s, step, y, runs) for s, (_, kk) in enumerate(sides) for step, items in kk.items() for _, y, runs in items
    ]
    # The one place where a scale spans more than one comparison: the DP
    # compares every node cost with every other, so every value it meets
    # shares one common denominator.
    values = [v for runs in vals for v in flat(runs)]
    for *_, y, runs in kinks:
        values += [y, *flat(runs)]
    ints, denom = _ints(values)
    scaled = iter(ints)

    def expand(runs) -> list[int]:
        row = []
        for length, _, _ in runs:
            first, inc = next(scaled), next(scaled)
            row.extend(accumulate(repeat(inc, length - 1), initial=first))
        return row

    rows = [expand(runs) for runs in vals]
    ai, bi = rows[:n], rows[n:]
    # diag[s][step] = [(kink value y, [y, partner values at its k crossings])]:
    # behind the leading y (a zero extra), index j is the crossing of the
    # diagonal step into column j (s = 0) or row j (s = 1).
    diag = ({}, {})
    for s, step, _, runs in kinks:
        y = next(scaled)
        diag[s].setdefault(step, []).append((y, [y, *expand(runs)]))

    # The diagonal path's cost: its nodes and its kink crossings.
    bound = max(abs(x - y) for ar, br in zip(ai, bi) for x, y in zip(ar, br))
    bound = max([bound] + [abs(y - r[step]) for side in diag for step, items in side.items() for y, r in items])
    out = bound + 1
    # Rows hold q = -1..k at index q + 1: column -1 is never reached.
    prev = [out] * (k + 2)
    for p in range(k + 1):
        # Row p's band [lo, hi): the q with every |a_i(p/k) - b_i(q/k)| <= bound.
        lo = max(bisect_left(br, ar[p] - bound) for ar, br in zip(ai, bi))
        hi = min(bisect_right(br, ar[p] + bound) for ar, br in zip(ai, bi))
        c = [0] * (hi - lo)
        for ar, br in zip(ai, bi):
            x = ar[p]
            for j, y in enumerate(br[lo:hi]):
                d = x - y
                if d < 0:
                    d = -d
                if d > c[j]:
                    c[j] = d
        # via_d[q - lo]: cost of reaching (p, q) by the diagonal step.
        via_d = prev[lo:hi]
        for y, row in diag[0].get(p, ()):
            via_d = list(map(max, via_d, map(abs, map(sub, repeat(y), row[lo:hi]))))
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
    end right at t = 0.  A ramp costs at most the rise of second over it,
    and second has slope at most 2, so the bound is at most 1/(4*net);
    it is 0 when first has no plateau.  Returns the smaller of the exact
    cost of w and of the untouched path, halved, and whether it
    certifies membership below eps.  One-sided: True certifies, False
    does not refute.  Doubling ``net`` never increases the bound.
    """
    eps = _frac(eps)
    if not isinstance(point, CanonicalTuple) or len(point) != 2:
        raise InputError("expected a canonical pair")
    if point.weights != uniform_weights(2):
        raise InputError("expected equal weights")
    if net < 1:
        raise InputError("net resolution must be at least 1")
    first, second = point.components

    levels = _merged((first._yr, second._yr))
    (t0s, t1s), (x0s, x1s) = (_sweep_ends(m._yr, m._xr, levels) for m in (second, first))
    verts = []
    for t0, t1, x0, x1 in zip(t0s, t1s, x0s, x1s):
        verts.append((t0, x0))
        if (t1, x1) != (t0, x0):
            verts.append((t1, x1))
    # A third of a gap per ramp: the gap after t = 0 may hold two ramps.
    # The vertices are int pairs; a ramp's end is worked out in Fractions.
    ramp = Fraction(1, 4 * net)
    pts = [verts[0]]
    for i, (t, x) in enumerate(verts[1:], 1):
        if t == pts[-1][0]:  # a vertical: tilt it into a ramp
            if t == (0, 1):
                t = min(ramp, Fraction(*verts[i + 1][0]) / 3).as_integer_ratio()
            else:
                at = Fraction(*t)
                start = at - min(ramp, (at - Fraction(*verts[i - 2][0])) / 3)
                pts[-1] = (start.as_integer_ratio(), pts[-1][1])
        pts.append((t, x))
    try:
        w = PLMono._from_pairs(pts)
    except InputError as exc:
        raise InvariantViolation(f"orbit reparameterization left the monoid: {exc}") from exc
    bound = min(sup_dist(compose(first, w), second), sup_dist(first, second)) * HALF
    return IdentityProximity(bound, bound < eps)
