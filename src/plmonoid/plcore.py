"""Exact algebra of piecewise-linear monotone maps of the unit interval.

The central type is the continuous, weakly increasing surjection of
[0, 1] onto itself with rational breakpoints.  These maps form a monoid
under composition; the strictly increasing ones are the invertible
elements.  Because breakpoints are rational and every operation here is
carried out in exact rational arithmetic, identities such as
``compose(f, pseudo_inverse(f)) == identity()`` hold bit-exactly, not up
to rounding.

Representations are canonical: breakpoint lists carry no redundant
(collinear) points, so equality of functions is equality of
representations.  Every exact int kernel follows one scaling rule: a
comparison scales only the values it touches, so no int carries the
whole input's denominators.  The constructors cross-multiply the
(numerator, denominator) int pairs of the two or three neighbouring
points a check involves, as the sweep kernel and grid merge do for the
two values they compare; the stored coordinates are the caller's
Fractions.  The two exceptions compare every cost with every other and
keep one common denominator: the grid oracle's dynamic program
(quotdist.brute_oracle) and the epsilon-net DP (explorer).

All values are immutable and all operations are pure functions; the
module is safe for unrestricted concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter, mul, pos
from typing import Callable, Iterable, Sequence

__all__ = [
    "InputError",
    "InvariantViolation",
    "PLMono",
    "PLHomeo",
    "LcMono",
    "identity",
    "as_homeo",
    "inverse",
    "compose",
    "compose_lc",
    "pseudo_inverse",
    "combine",
    "sup_dist",
    "order_excess",
    "max_slope",
    "uniform_witness",
]

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

Point = tuple[Fraction, Fraction]
Ratio = tuple[int, int]  # (numerator, denominator)


class InputError(ValueError):
    """A caller supplied data that violates a documented precondition."""


class InvariantViolation(RuntimeError):
    """An internal consistency check failed; indicates a library bug."""


def _frac(value) -> Fraction:
    if type(value) is Fraction:
        return value
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputError(f"not a rational number: {value!r:.60}") from exc


def _at(xs, ys, t) -> Fraction:
    """Exact value at t in [0, 1] of the polyline through (xs[i], ys[i])."""
    t = _frac(t)
    if t < ZERO or t > ONE:
        raise InputError(f"argument {t} outside [0, 1]")
    return _sweep(xs, ys, (t,))[0]


def _lerp(x0, y0, x1, y1, t) -> Ratio:
    """Value at t of the line through (x0, y0) and (x1, y1), each given as
    a (numerator, denominator) int pair, as an unreduced pair of int products."""
    (a0, b0), (p0, q0), (a1, b1), (p1, q1), (tn, td) = x0, y0, x1, y1, t
    run = (a1 * b0 - a0 * b1) * td
    return p0 * q1 * run + (p1 * q0 - p0 * q1) * (tn * b0 - a0 * td) * b1, q0 * q1 * run


def _sweep(xs, ys, args, upper: bool = False) -> list[Fraction]:
    """Values of the polyline through (xs[i], ys[i]) at ascending args.

    One merge pass over the vertices.  ``xs`` is weakly increasing and
    spans every argument; where it repeats (a vertical segment) the
    lowest value is taken, or the highest when ``upper`` is set.  Swept
    over a reflected map (``ys`` against ``xs``) this gives the left or
    right end of the preimage of each level.

    It steps while xn * td < tn * xd on (numerator, denominator) pairs
    and hits a vertex on equal pairs (Fractions are normalized), so no
    common denominator is built.
    """
    xr = [x.as_integer_ratio() for x in xs]
    out = []
    i, last = 0, len(xs) - 1
    xn, xd = xr[0]
    for t in args:
        tr = tn, td = t.as_integer_ratio()
        while xn * td < tn * xd:
            i += 1
            xn, xd = xr[i]
        if xn == tn and xd == td:
            if upper:
                while i < last and xr[i + 1] == tr:
                    i += 1
            out.append(ys[i])
        else:
            y0, y1 = ys[i - 1].as_integer_ratio(), ys[i].as_integer_ratio()
            out.append(ys[i] if y0 == y1 else Fraction(*_lerp(xr[i - 1], y0, xr[i], y1, tr)))
    return out


def _merged(seqs) -> list[Fraction]:
    """Ascending union of weakly ascending sequences, each value once (the
    first met): a two-way merge per sequence on cross-multiplied int pairs."""
    out, keys = [], []
    for seq in seqs:
        prev, prev_keys, n, i = out, keys, len(out), 0
        out, keys = [], []
        for v in seq:
            r = vn, vd = v.as_integer_ratio()
            while i < n and prev_keys[i][0] * vd <= vn * prev_keys[i][1]:
                out.append(prev[i])
                keys.append(prev_keys[i])
                i += 1
            if not keys or keys[-1] != r:
                out.append(v)
                keys.append(r)
        out += prev[i:]
        keys += prev_keys[i:]
    return out


def _tabulate(maps) -> tuple[list[Fraction], list[list[Fraction]]]:
    """The merged breakpoint grid of ``maps`` and each map's values on it."""
    xs = _merged(f._xs for f in maps)
    return xs, [_sweep(f._xs, f._ys, xs) for f in maps]


def _ints(ratios) -> tuple[list[int], int]:
    """(numerator, denominator) pairs as exact ints over the lcm d of
    their denominators, returned with d (the scaling rule is above)."""
    d = lcm(*[q for _, q in ratios])
    return [n * (d // q) for n, q in ratios], d


def _ascending(ratios, strict: bool = False) -> bool:
    """Whether (numerator, denominator) pairs ascend, weakly or strictly;
    each neighbour pair is compared by cross-multiplying."""
    if strict:
        return all(a * d < c * b for (a, b), (c, d) in zip(ratios, ratios[1:]))
    return all(a * d <= c * b for (a, b), (c, d) in zip(ratios, ratios[1:]))


def _normalize(points: Iterable[Sequence]) -> tuple[tuple[Point, ...], list[tuple[Ratio, Ratio]]]:
    """Order points by (x, y), drop duplicates and collinear interior points.

    Returns the kept points, as the caller's Fractions, and their
    ((x numerator, x denominator), (y numerator, y denominator)) pairs.
    Points are sorted only when two neighbours are out of (x, y) order:
    input that ascends (x rising, or x equal and y not falling) is what
    the sort would return, and compose, compose_lc, combine, canonicalize
    and the samplers give theirs that way.  Each test cross-multiplies
    the pairs of the two or three points it compares.
    """
    rows = [(x.as_integer_ratio(), y.as_integer_ratio(), (x, y))
            for x, y in ((_frac(x), _frac(y)) for x, y in points)]
    for ((x0n, x0d), (y0n, y0d), _), ((x1n, x1d), (y1n, y1d), _) in zip(rows, rows[1:]):
        if not (x0n * x1d < x1n * x0d or x0n == x1n and x0d == x1d and y0n * y1d <= y1n * y0d):
            rows.sort(key=itemgetter(2))
            break
    out: list[tuple[Ratio, Ratio, Point]] = []
    for row in rows:
        x, y, p = row
        if out and out[-1][0] == x:
            if out[-1][1] != y:
                y0, (x0, y1) = out[-1][2][1], p
                raise InputError(f"conflicting values {y0!s:.60} and {y1!s:.60} at x = {x0!s:.60}")
            continue
        while len(out) >= 2:
            # Collinear when the slopes (y1 - y0) / (x1 - x0) and
            # (y2 - y1) / (x2 - x1) agree; xi = xn/xd, yi = yn/yd.
            ((x0n, x0d), (y0n, y0d), _), ((x1n, x1d), (y1n, y1d), _) = out[-2:]
            (x2n, x2d), (y2n, y2d) = x, y
            if ((y1n * y0d - y0n * y1d) * (x2n * x1d - x1n * x2d) * y2d * x0d
                    != (y2n * y1d - y1n * y2d) * (x1n * x0d - x0n * x1d) * y0d * x2d):
                break
            out.pop()
        out.append(row)
    if len(out) < 2:
        raise InputError("a breakpoint list needs at least two distinct points")
    return tuple(p for _, _, p in out), [(x, y) for x, y, _ in out]


@dataclass(frozen=True, eq=False)
class PLMono:
    """Continuous weakly increasing piecewise-linear surjection of [0, 1].

    Breakpoints are held in the unique minimal form: x-coordinates
    strictly increasing from (0, 0) to (1, 1), y-coordinates weakly
    increasing, no three consecutive points collinear.  Plateaus are
    segments of zero slope.  Instances are immutable and hashable; two
    instances are equal exactly when they are the same function.
    """

    breakpoints: tuple[Point, ...]

    def __post_init__(self):
        pts, ratios = _normalize(self.breakpoints)
        if ratios[0] != ((0, 1), (0, 1)) or ratios[-1] != ((1, 1), (1, 1)):
            raise InputError("must fix the endpoints: first (0,0), last (1,1)")
        ys = [y for _, y in ratios]
        if not _ascending(ys):
            raise InputError("values must be weakly increasing")
        self._check_values(ys)
        object.__setattr__(self, "breakpoints", pts)
        object.__setattr__(self, "_xs", tuple(x for x, _ in pts))
        object.__setattr__(self, "_ys", tuple(y for _, y in pts))

    def _check_values(self, ys: list[Ratio]) -> None:
        pass

    def __call__(self, t) -> Fraction:
        """Exact value at t by linear interpolation."""
        return _at(self._xs, self._ys, t)

    def __eq__(self, other):
        if isinstance(other, PLMono):
            return self.breakpoints == other.breakpoints
        return NotImplemented

    def __hash__(self):
        return hash(self.breakpoints)

    def __repr__(self):
        pts = " ".join(f"({x},{y})" for x, y in self.breakpoints)
        return f"{type(self).__name__}[{pts}]"


class PLHomeo(PLMono):
    """Strictly increasing piecewise-linear self-homeomorphism of [0, 1]."""

    def _check_values(self, ys: list[Ratio]) -> None:
        if not _ascending(ys, strict=True):
            raise InputError("a homeomorphism must be strictly increasing")


_IDENTITY = PLHomeo(((ZERO, ZERO), (ONE, ONE)))


def identity() -> PLHomeo:
    """The identity map of [0, 1]."""
    return _IDENTITY


def as_homeo(f: PLMono) -> PLHomeo:
    """Reinterpret a plateau-free monotone map as a homeomorphism."""
    return PLHomeo(f.breakpoints)


def inverse(g: PLHomeo) -> PLHomeo:
    """Exact inverse homeomorphism (reflect the breakpoints)."""
    if not isinstance(g, PLHomeo):
        raise InputError("inverse needs a strictly increasing map; use pseudo_inverse otherwise")
    return PLHomeo(tuple((y, x) for x, y in g.breakpoints))


@dataclass(frozen=True)
class LcMono:
    """Left-continuous weakly increasing inverse of a monotone surjection.

    Stored as the reflected polyline of the function it inverts: the
    first coordinate (argument) is weakly increasing, the second
    (value) strictly increasing.  A repeated argument encodes a jump;
    evaluation at the jump argument returns the lower value, which is
    the left limit, so the function is left-continuous everywhere and
    sends a plateau's common value to the plateau's left endpoint.
    """

    vertices: tuple[Point, ...]

    def __post_init__(self):
        verts = tuple((_frac(v), _frac(t)) for v, t in self.vertices)
        if len(verts) < 2 or verts[0] != (ZERO, ZERO) or verts[-1] != (ONE, ONE):
            raise InputError("vertices must run from (0,0) to (1,1)")
        vs, ts = zip(*verts)
        if not _ascending([v.as_integer_ratio() for v in vs]):
            raise InputError("arguments must be weakly increasing")
        if not _ascending([t.as_integer_ratio() for t in ts], strict=True):
            raise InputError("values must be strictly increasing")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "_vs", vs)
        object.__setattr__(self, "_ts", ts)

    def __call__(self, v) -> Fraction:
        return _at(self._vs, self._ts, v)

    def jumps(self) -> list[tuple[Fraction, Fraction, Fraction]]:
        """All jumps as (argument, lower value, upper value) triples."""
        out = []
        for (v0, t0), (v1, t1) in zip(self.vertices, self.vertices[1:]):
            if v0 == v1:
                out.append((v0, t0, t1))
        return out

    def __repr__(self):
        pts = " ".join(f"({v},{t})" for v, t in self.vertices)
        return f"LcMono[{pts}]"


def pseudo_inverse(f: PLMono) -> LcMono:
    """The left-continuous right inverse of f.

    Composing f after the result is the identity; at every value where
    f has a plateau the result jumps, taking the plateau's left
    endpoint there.  For a strictly increasing f this is the ordinary
    inverse.
    """
    return LcMono(tuple((y, x) for x, y in f.breakpoints))


def compose(f: PLMono, g: PLMono) -> PLMono:
    """Exact composition t -> f(g(t)).

    Every breakpoint of the result is an end of the g-preimage of a
    level that is a breakpoint abscissa of f or a breakpoint value of
    g; f is constant there at its value on that level.
    """
    levels = _merged((f._xs, g._ys))
    lefts = _sweep(g._ys, g._xs, levels)
    rights = _sweep(g._ys, g._xs, levels, upper=True)
    pts = []
    for left, right, value in zip(lefts, rights, _sweep(f._xs, f._ys, levels)):
        pts.append((left, value))
        if right != left:
            pts.append((right, value))
    return PLMono(tuple(pts))


def compose_lc(f: PLMono, inv: LcMono) -> PLMono:
    """Compose a continuous map through a jump inverse by splicing.

    The jump intervals of ``inv`` are skipped; the result is continuous
    exactly when f is constant across every jump.  The result runs
    through (m(x), f(x)) for x on the merged breakpoint grid, where m is
    the map that ``inv`` reflects.  Both ends of a jump of ``inv`` are on
    that grid and m takes the jump's argument at each, so a jump across
    which f moves gives two points with one abscissa: the constructor
    rejects them and InvariantViolation is raised.
    """
    xs = _merged((f._xs, inv._ts))
    try:
        return PLMono(tuple(zip(_sweep(inv._ts, inv._vs, xs), _sweep(f._xs, f._ys, xs))))
    except InputError as exc:
        raise InvariantViolation(f"spliced composition left the monoid: {exc}") from exc


def combine(terms: Sequence[tuple[Fraction, PLMono]]) -> PLMono:
    """Pointwise linear combination sum(c * f).

    The coefficients must be positive and sum to one for the result to
    stay in the monoid; the constructor enforces the endpoint and
    monotonicity invariants.  The sum is taken in ints, by the scaling
    rule: the coefficients over the lcm cd of their denominators, the
    values at each grid point over that point's own lcm d, and one
    Fraction of the int sum over cd * d per point.
    """
    if not terms:
        raise InputError("empty combination")
    coeffs = [_frac(c) for c, _ in terms]
    maps = [f for _, f in terms]
    for f in maps:
        if not isinstance(f, PLMono):
            raise InputError(f"not a monotone map: {f!r:.60}")
    xs, rows = _tabulate(maps)
    return PLMono(tuple(zip(xs, _combined(coeffs, rows))))


def _combined(coeffs: Sequence[Fraction], rows: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    """sum(c * v) at each grid point, the v read down the rows (one row
    of values per map, as _tabulate gives them), as combine describes."""
    coeffs, cd = _ints([c.as_integer_ratio() for c in coeffs])
    out = []
    for vals in zip(*rows):
        nums, d = _ints([v.as_integer_ratio() for v in vals])
        out.append(Fraction(sum(map(mul, coeffs, nums)), cd * d))
    return out


def _max_difference(f: PLMono, g: PLMono, size: Callable[[int], int]) -> Fraction:
    """Largest size(f - g) on the merged breakpoint grid, from 0 at x = 0:
    int pairs compared by cross-multiplying, one Fraction at the end."""
    _, (fv, gv) = _tabulate((f, g))
    best, best_d = 0, 1
    for a, b in zip(fv, gv):
        (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
        diff, d = size(an * bd - bn * ad), ad * bd
        if diff * best_d > best * d:
            best, best_d = diff, d
    return Fraction(best, best_d)


def sup_dist(f: PLMono, g: PLMono) -> Fraction:
    """Exact uniform distance sup |f - g|.

    The difference is piecewise linear, so the supremum is attained at
    a point of the merged breakpoint grid.
    """
    return _max_difference(f, g, abs)


def order_excess(f: PLMono, g: PLMono) -> Fraction:
    """Exact supremum of the signed difference f - g.

    Zero exactly when g dominates f pointwise; otherwise it measures by
    how much it fails to.  Never negative, since both maps agree at 0.
    """
    return _max_difference(f, g, pos)


def max_slope(f: PLMono) -> Fraction:
    """Largest segment slope; a Lipschitz constant for f and the best one."""
    bps = f.breakpoints
    return max((y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(bps, bps[1:]))


def uniform_witness(g: PLHomeo) -> PLMono:
    """A monotone surjection that g displaces by uniform distance exactly 1.

    Let h be g if g exceeds the identity somewhere and the inverse of g
    otherwise, and let t be the first breakpoint maximizing h(t) - t.
    The witness is 0 on [0, t], 1 on [h(t), 1] and a single ramp in
    between; precomposing with the inverse of h moves it by exactly 1.
    """
    if not isinstance(g, PLHomeo):
        raise InputError("the witness construction needs a homeomorphism")
    if g == _IDENTITY:
        raise InputError("identity has no witness")

    def first_argmax(h: PLHomeo):
        best_t, best_d = None, ZERO
        for x, y in h.breakpoints:
            if y - x > best_d:
                best_t, best_d = x, y - x
        return best_t

    direction = g
    t = first_argmax(direction)
    if t is None:
        direction = inverse(g)
        t = first_argmax(direction)
    if t is None:
        raise InvariantViolation("non-identity homeomorphism with zero displacement")
    top = direction(t)
    witness = PLMono(((ZERO, ZERO), (t, ZERO), (top, ONE), (ONE, ONE)))
    if sup_dist(compose(witness, inverse(direction)), witness) != ONE:
        raise InvariantViolation("witness construction failed to realize distance one")
    return witness
