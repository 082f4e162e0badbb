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
representations.  A polyline value (map, LcMono or RoelckeCoord)
stores each coordinate once, as a reduced (numerator, denominator) int
pair, in the one base _Polyline; ``breakpoints``, its points as
Fractions, is built from those pairs on every read.
The kernels (sweep, grid merge, tabulation, linear combination) take
and return reduced pairs, so equal values are equal pairs.  Every exact
int kernel follows one scaling rule: a comparison scales only the
values it touches, so no int carries the whole input's denominators.
The constructors cross-multiply the pairs of the two neighbouring
points a check involves, as the sweep kernel and grid merge do for the
two values they compare, and test collinearity against the slope of
the last kept segment, kept as a cross-multiplied pair.  A map built
from rows the library made goes through _built, the one place that
reports a constructor's rejection as InvariantViolation.  The two
exceptions compare every cost with every other and keep one common
denominator: the grid oracle's dynamic program (quotdist.brute_oracle)
and the epsilon-net DP (explorer).

All values are immutable and all operations are pure functions; the
module is safe for unrestricted concurrent use.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from operator import pos
from typing import Callable, Sequence

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


class _Value:
    """Base of the immutable value types.

    A subclass's ``__init__`` writes each field once, into the instance
    ``__dict__`` or, for the polylines, into their slots; assigning or
    deleting an attribute afterwards raises AttributeError.  Two
    instances of one class are equal when the fields named in
    ``_fields`` are, hash by them, and print as ``Name(field=value, ...)``
    (a polyline as ``Name[(x,y) ...]``).  Pickle and copy rebuild an
    instance as ``Name(*fields)``, so ``__init__`` takes the fields in
    ``_fields`` order and its checks run again (a polyline rebuilds
    through ``_from_pairs`` and its own checks).
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return type(self), self._key()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _frac(value) -> Fraction:
    if type(value) is Fraction:
        return value
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputError(f"not a rational number: {value!r:.60}") from exc


def _iter(obj, what: str):
    """iter(obj), or InputError("<what>, got <obj>") for an object that is
    not iterable.  Only iter() is guarded, so an error raised inside the
    caller's own iterator propagates unchanged."""
    try:
        return iter(obj)
    except TypeError as exc:
        raise InputError(f"{what}, got {obj!r:.60}") from exc


def _count(v, what: str) -> int:
    """v, or InputError("<what> must be an int of at least 1, ...") for
    anything else; a bool is not an int here."""
    if type(v) is not int or v < 1:
        raise InputError(f"{what} must be an int of at least 1, got {v!r:.60}")
    return v


def _pair(obj, what: str):
    """The two items of obj, or InputError("not <what>: <obj>"); a
    two-character string or bytes is not a pair."""
    try:
        a, b = () if isinstance(obj, (str, bytes)) else obj
    except (TypeError, ValueError) as exc:
        raise InputError(f"not {what}: {obj!r:.60}") from exc
    return a, b


def _rows(points) -> list[tuple[Ratio, Ratio]]:
    """The caller's points as (x, y) rows of reduced int pairs;
    InputError for anything but an iterable of (x, y) pairs of rationals."""
    out = []
    for p in _iter(points, "points must be an iterable of (x, y) pairs"):
        x, y = _pair(p, "an (x, y) pair")
        out.append((_frac(x).as_integer_ratio(), _frac(y).as_integer_ratio()))
    return out


def _lerp(x0, y0, x1, y1, t) -> Ratio:
    """Value at t of the line through (x0, y0) and (x1, y1), each given as
    a (numerator, denominator) int pair, as an unreduced pair of int products."""
    (a0, b0), (p0, q0), (a1, b1), (p1, q1), (tn, td) = x0, y0, x1, y1, t
    run = (a1 * b0 - a0 * b1) * td
    return p0 * q1 * run + (p1 * q0 - p0 * q1) * (tn * b0 - a0 * td) * b1, q0 * q1 * run


def _sweep(xr, yr, args) -> list[Ratio]:
    """Values of the polyline through (xr[i], yr[i]) at ascending args.

    Coordinates, arguments and values are reduced (numerator,
    denominator) pairs.  One merge pass over the vertices.  ``xr`` is
    weakly increasing and spans every argument; where it repeats (a
    vertical segment) the lowest value is taken.  Swept over a reflected
    map (``yr`` against ``xr``) this gives the left end of the preimage
    of each level; _sweep_ends adds the right end.

    It steps while xn * td < tn * xd and hits a vertex on equal pairs,
    so no common denominator is built; an interpolated value is reduced
    by one gcd.  A constructor tests the order of its rows the same way,
    in the one pass (_normalize) that also gives it its monotone check.
    """
    out = []
    i = 0
    xn, xd = xr[0]
    for t in args:
        tn, td = t
        while xn * td < tn * xd:
            i += 1
            xn, xd = xr[i]
        if xn == tn and xd == td:
            out.append(yr[i])
        else:
            y0, y1 = yr[i - 1], yr[i]
            if y0 == y1:
                out.append(y1)
            else:
                n, d = _lerp(xr[i - 1], y0, xr[i], y1, t)
                g = gcd(n, d)
                out.append((n // g, d // g))
    return out


def _sweep_ends(xr, yr, args) -> tuple[list[Ratio], list[Ratio]]:
    """The lowest and the highest value of the polyline at each ascending
    arg: they differ only where ``xr`` repeats the arg (a vertical
    segment), and the highest is then the last vertex's value there."""
    lows = _sweep(xr, yr, args)
    last = dict(zip(xr, yr))
    return lows, [last.get(t, v) for t, v in zip(args, lows)]


def _merged(seqs) -> list[Ratio]:
    """Ascending union of weakly ascending sequences of reduced pairs,
    each value once: a two-way merge per sequence, cross-multiplying."""
    out: list[Ratio] = []
    for seq in seqs:
        prev, n, i = out, len(out), 0
        out = []
        for v in seq:
            vn, vd = v
            while i < n and prev[i][0] * vd <= vn * prev[i][1]:
                out.append(prev[i])
                i += 1
            if not out or out[-1] != v:
                out.append(v)
        out += prev[i:]
    return out


def _tabulate(maps) -> tuple[list[Ratio], list[list[Ratio]]]:
    """The merged breakpoint grid of ``maps`` and each map's values on it,
    as reduced pairs."""
    xs = _merged(f._xr for f in maps)
    return xs, [_sweep(f._xr, f._yr, xs) for f in maps]


def _ints(ratios) -> tuple[list[int], int]:
    """(numerator, denominator) pairs as exact ints over the lcm d of
    their denominators, returned with d (the scaling rule is above)."""
    d = lcm(*[q for _, q in ratios])
    return [n * (d // q) for n, q in ratios], d


def _normalize(rows) -> tuple[tuple[Ratio, ...], tuple[Ratio, ...], int]:
    """Order points by (x, y), drop duplicates and collinear interior points.

    Takes (x, y) rows of reduced (numerator, denominator) pairs and
    returns the kept points' x pairs and y pairs and the least sign of a
    kept segment's rise: -1 if the values fall somewhere, 0 if they have
    a plateau, else 1.  A constructor reads its monotone check from that
    sign, so it makes one pass over its points.

    The pass tests order, drops duplicates and collinear points and
    takes the rise, each from a row and the one before it.  It keeps
    the last kept segment's slope as a cross-multiplied int pair, so a
    collinear test is two products.  Rows out of (x, y) order are sorted
    and the pass starts again; compose, compose_lc, combine, canonicalize
    and the samplers give theirs in order, so they skip the sort.  A
    conflict (one x, two y) is raised once the pass has met every row in
    order, so its message names the first conflict in sorted order.
    """
    rows = list(rows)
    if len(rows) < 2:
        raise InputError("a breakpoint list needs at least two distinct points")
    # Sorted rows are in order, so the second pass, if any, runs to the end.
    for _ in range(2):
        x1, y1 = rows[0]
        (x1n, x1d), (y1n, y1d) = x1, y1
        xs, ys = [x1], [y1]
        # Slope dy/dx of the last kept segment as a pair (sn, sd), sd > 0;
        # 1/0 before the first one, which no segment matches.
        sn, sd = 1, 0
        low = 1  # the least rise of a kept segment, over its own scale
        conflict = None
        for x2, y2 in islice(rows, 1, None):
            (x2n, x2d), (y2n, y2d) = x2, y2
            dx = x2n * x1d - x1n * x2d
            dy = y2n * y1d - y1n * y2d
            if dx <= 0:
                if dx < 0 or dy < 0:  # out of (x, y) order
                    break
                if dy:  # a conflict, raised at the end
                    conflict = conflict or ((y1n, y1d), y2, x2)
                    y1n, y1d = y2n, y2d
                continue
            tn, td = dy * x1d * x2d, dx * y1d * y2d
            if tn * sd == sn * td:  # collinear: the new point replaces the last
                xs[-1] = x2
                ys[-1] = y2
            else:
                xs.append(x2)
                ys.append(y2)
                sn, sd = tn, td
                if dy < low:
                    low = dy
            x1n, x1d, y1n, y1d = x2n, x2d, y2n, y2d
        else:
            if conflict:
                y0, y1, x0 = (Fraction(*r) for r in conflict)
                raise InputError(f"conflicting values {y0!s:.60} and {y1!s:.60} at x = {x0!s:.60}")
            if len(xs) < 2:
                raise InputError("a breakpoint list needs at least two distinct points")
            return tuple(xs), tuple(ys), (low > 0) - (low < 0)
        rows.sort(key=lambda row: (Fraction(*row[0]), Fraction(*row[1])))


class _Polyline(_Value):
    """Base of the polyline values: maps, pseudo-inverses, coordinates.

    The slots hold the coordinates as reduced int pairs, ``_xr`` and
    ``_yr``; ``breakpoints`` builds the Fraction points from them on
    every read.  A subclass gives only its checks, in
    ``__post_init__(rows)``, and stores the checked pairs by ``_store``.
    """

    __slots__ = ("_xr", "_yr")
    _fields = ("_xr", "_yr")

    def __init__(self, points: tuple[Point, ...]):
        # The body is a method of its own, looked up on the instance, so
        # that perfbench's tracer can wrap it by name.
        self.__post_init__(_rows(points))

    @classmethod
    def _from_pairs(cls, rows):
        """The value through (x, y) rows of reduced int pairs, built by the
        constructor's own body and checks."""
        self = object.__new__(cls)
        self.__post_init__(rows)
        return self

    def _store(self, xr, yr) -> None:
        _set = object.__setattr__
        _set(self, "_xr", xr)
        _set(self, "_yr", yr)

    @property
    def breakpoints(self) -> tuple[Point, ...]:
        """The points as (x, y) Fractions, built from the pairs on every read."""
        return tuple((Fraction(*x), Fraction(*y)) for x, y in zip(self._xr, self._yr))

    def __call__(self, t) -> Fraction:
        """Exact value at t in [0, 1] by linear interpolation."""
        t = _frac(t)
        if t < ZERO or t > ONE:
            raise InputError(f"argument {t} outside [0, 1]")
        return Fraction(*_sweep(self._xr, self._yr, (t.as_integer_ratio(),))[0])

    def __reduce__(self):
        # Pickle and copy would restore the slots through __setattr__.
        return type(self)._from_pairs, (tuple(zip(self._xr, self._yr)),)

    def __repr__(self):
        pts = " ".join(f"({x},{y})" for x, y in self.breakpoints)
        return f"{type(self).__name__}[{pts}]"


class PLMono(_Polyline):
    """Continuous weakly increasing piecewise-linear surjection of [0, 1].

    Breakpoints are held in the unique minimal form: x-coordinates
    strictly increasing from (0, 0) to (1, 1), y-coordinates weakly
    increasing, no three consecutive points collinear.  Plateaus are
    segments of zero slope.  Instances are immutable and hashable; two
    instances are equal exactly when they are the same function.
    """

    __slots__ = ()

    def __post_init__(self, rows):
        xr, yr, rise = _normalize(rows)
        if xr[0] != (0, 1) or yr[0] != (0, 1) or xr[-1] != (1, 1) or yr[-1] != (1, 1):
            raise InputError("must fix the endpoints: first (0,0), last (1,1)")
        if rise < 0:
            raise InputError("values must be weakly increasing")
        self._check_values(rise)
        self._store(xr, yr)

    def _check_values(self, rise: int) -> None:
        """Further checks on the least rise sign of the kept segments."""

    # In the class __dict__, where perfbench's tracer wraps it by name.
    __call__ = _Polyline.__call__

    def __eq__(self, other):
        if isinstance(other, PLMono):
            return self._xr == other._xr and self._yr == other._yr
        return NotImplemented

    __hash__ = _Polyline.__hash__


class PLHomeo(PLMono):
    """Strictly increasing piecewise-linear self-homeomorphism of [0, 1]."""

    __slots__ = ()

    def _check_values(self, rise: int) -> None:
        if rise <= 0:
            raise InputError("a homeomorphism must be strictly increasing")


_IDENTITY = PLHomeo(((ZERO, ZERO), (ONE, ONE)))


def identity() -> PLHomeo:
    """The identity map of [0, 1]."""
    return _IDENTITY


def as_homeo(f: PLMono) -> PLHomeo:
    """Reinterpret a plateau-free monotone map as a homeomorphism."""
    if not isinstance(f, PLMono):
        raise InputError("as_homeo needs a monotone map")
    return PLHomeo._from_pairs(zip(f._xr, f._yr))


def _built(rows, what: str) -> PLMono:
    """The PLMono through (x, y) rows of reduced pairs the library made; a
    rejection is a bug: InvariantViolation("<what> left the monoid: ...")."""
    try:
        return PLMono._from_pairs(rows)
    except InputError as exc:
        raise InvariantViolation(f"{what} left the monoid: {exc}") from exc


def inverse(g: PLHomeo) -> PLHomeo:
    """Exact inverse homeomorphism (reflect the breakpoints)."""
    if not isinstance(g, PLHomeo):
        raise InputError("inverse needs a strictly increasing map; use pseudo_inverse otherwise")
    return PLHomeo._from_pairs(zip(g._yr, g._xr))


class LcMono(_Polyline):
    """Left-continuous weakly increasing inverse of a monotone surjection.

    Stored as the reflected polyline of the function it inverts: the
    first coordinate (argument) is weakly increasing, the second
    (value) strictly increasing.  A repeated argument encodes a jump;
    evaluation at the jump argument returns the lower value, which is
    the left limit, so the function is left-continuous everywhere and
    sends a plateau's common value to the plateau's left endpoint.
    """

    __slots__ = ()

    def __post_init__(self, rows):
        if len(rows) < 2 or rows[0] != ((0, 1), (0, 1)) or rows[-1] != ((1, 1), (1, 1)):
            raise InputError("vertices must run from (0,0) to (1,1)")
        vr, tr = zip(*rows)
        if any(a * d > c * b for (a, b), (c, d) in zip(vr, vr[1:])):
            raise InputError("arguments must be weakly increasing")
        if any(a * d >= c * b for (a, b), (c, d) in zip(tr, tr[1:])):
            raise InputError("values must be strictly increasing")
        self._store(vr, tr)

    vertices = _Polyline.breakpoints

    def jumps(self) -> list[tuple[Fraction, Fraction, Fraction]]:
        """All jumps as (argument, lower value, upper value) triples."""
        vs = self.vertices
        out = []
        for (v0, t0), (v1, t1) in zip(vs, vs[1:]):
            if v0 == v1:
                out.append((v0, t0, t1))
        return out


def pseudo_inverse(f: PLMono) -> LcMono:
    """The left-continuous right inverse of f.

    Composing f after the result is the identity; at every value where
    f has a plateau the result jumps, taking the plateau's left
    endpoint there.  For a strictly increasing f this is the ordinary
    inverse.
    """
    if not isinstance(f, PLMono):
        raise InputError("pseudo_inverse needs a monotone map")
    return LcMono._from_pairs(tuple(zip(f._yr, f._xr)))


def compose(f: PLMono, g: PLMono) -> PLMono:
    """Exact composition t -> f(g(t)).

    Every breakpoint of the result is an end of the g-preimage of a
    level that is a breakpoint abscissa of f or a breakpoint value of
    g; f is constant there at its value on that level.
    """
    if not isinstance(f, PLMono) or not isinstance(g, PLMono):
        raise InputError("compose needs two monotone maps")
    levels = _merged((f._xr, g._yr))
    lefts, rights = _sweep_ends(g._yr, g._xr, levels)
    rows = []
    for left, right, value in zip(lefts, rights, _sweep(f._xr, f._yr, levels)):
        rows.append((left, value))
        if right != left:
            rows.append((right, value))
    return PLMono._from_pairs(rows)


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
    if not isinstance(f, PLMono) or not isinstance(inv, LcMono):
        raise InputError("compose_lc needs a monotone map and a pseudo-inverse")
    xs = _merged((f._xr, inv._yr))
    return _built(zip(_sweep(inv._yr, inv._xr, xs), _sweep(f._xr, f._yr, xs)), "spliced composition")


def combine(terms: Sequence[tuple[Fraction, PLMono]]) -> PLMono:
    """Pointwise linear combination sum(c * f).

    The coefficients must be positive and sum to one for the result to
    stay in the monoid; the constructor enforces the endpoint and
    monotonicity invariants.  The sum is taken in ints, by the scaling
    rule: the coefficients over the lcm cd of their denominators, and at
    each grid point the terms added one at a time over the running lcm d
    of that point's value denominators, so a term widens d only by the
    factor its own denominator lacks; the int sum over cd * d is reduced
    by one gcd per point.
    """
    pairs = [_pair(term, "a (coefficient, map) pair") for term in _iter(terms, "terms must be an iterable")]
    if not pairs:
        raise InputError("empty combination")
    coeffs = [_frac(c).as_integer_ratio() for c, _ in pairs]
    maps = [f for _, f in pairs]
    for f in maps:
        if not isinstance(f, PLMono):
            raise InputError(f"not a monotone map: {f!r:.60}")
    xs, rows = _tabulate(maps)
    return PLMono._from_pairs(zip(xs, _combined(coeffs, rows)))


def _combined(coeffs: Sequence[Ratio], rows: Sequence[Sequence[Ratio]]) -> list[Ratio]:
    """sum(c * v) at each grid point as a reduced pair, the v read down
    the rows (one row of values per map, as _tabulate gives them), as
    combine describes; coefficients and values are reduced pairs."""
    coeffs, cd = _ints(coeffs)
    out = []
    for vals in zip(*rows):
        # the sum so far is n / d, d the running lcm of the value denominators
        n, d = 0, 1
        for c, (vn, vd) in zip(coeffs, vals):
            g = gcd(d, vd)
            e = vd // g
            n, d = n * e + c * vn * (d // g), d * e
        d = cd * d
        g = gcd(n, d)
        out.append((n // g, d // g))
    return out


def _max_difference(f: PLMono, g: PLMono, size: Callable[[int], int], name: str) -> Ratio:
    """Largest size(f - g) on the merged breakpoint grid, from 0 at x = 0.

    One two-pointer merge over the interior vertices of both maps (both
    fix 0 and 1, where f - g is 0, so the end vertices stop each side).
    At each merged abscissa a map with a vertex there gives its value,
    and the other map's value is read off its current segment: by _lerp,
    unreduced, unless the segment is a plateau.  Differences are
    compared by cross-multiplying, and the largest is returned as an
    unreduced int pair, its denominator positive.  ``name`` is the
    caller's, for the error on an argument not a map."""
    if not isinstance(f, PLMono) or not isinstance(g, PLMono):
        raise InputError(f"{name} needs two monotone maps")
    fx, fy, gx, gy = f._xr, f._yr, g._xr, g._yr
    i, j, fend, gend = 1, 1, len(fx) - 1, len(gx) - 1
    best, best_d = 0, 1
    while i < fend or j < gend:
        (an, ad), (bn, bd) = fx[i], gx[j]
        c = an * bd - bn * ad
        u, v = fy[i], gy[j]
        if c < 0:  # f's vertex comes first: g on its segment j - 1 .. j
            if gy[j - 1] != v:
                v = _lerp(gx[j - 1], gy[j - 1], gx[j], v, fx[i])
            i += 1
        elif c > 0:  # g's vertex comes first: f on its segment i - 1 .. i
            if fy[i - 1] != u:
                u = _lerp(fx[i - 1], fy[i - 1], fx[i], u, gx[j])
            j += 1
        else:
            i += 1
            j += 1
        (un, ud), (vn, vd) = u, v
        diff, d = size(un * vd - vn * ud), ud * vd
        if diff * best_d > best * d:
            best, best_d = diff, d
    return best, best_d


def sup_dist(f: PLMono, g: PLMono) -> Fraction:
    """Exact uniform distance sup |f - g|.

    The difference is piecewise linear, so the supremum is attained at
    a point of the merged breakpoint grid.
    """
    return Fraction(*_max_difference(f, g, abs, "sup_dist"))


def _max_sup_pair(fs: Sequence[PLMono], gs: Sequence[PLMono]) -> Ratio:
    """Largest sup_dist over the pairs of zip(fs, gs), as
    _max_difference's unreduced int pair; (0, 1) when there are none."""
    best, best_d = 0, 1
    for f, g in zip(fs, gs):
        n, d = _max_difference(f, g, abs, "sup_dist")
        if n * best_d > best * d:
            best, best_d = n, d
    return best, best_d


def order_excess(f: PLMono, g: PLMono) -> Fraction:
    """Exact supremum of the signed difference f - g.

    Zero exactly when g dominates f pointwise; otherwise it measures by
    how much it fails to.  Never negative, since both maps agree at 0.
    """
    return Fraction(*_max_difference(f, g, pos, "order_excess"))


def max_slope(f: PLMono) -> Fraction:
    """Largest segment slope; a Lipschitz constant for f and the best one."""
    if not isinstance(f, PLMono):
        raise InputError("max_slope needs a monotone map")
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
    inv = inverse(g)
    h, back = (g, inv) if any(yn * xd > xn * yd for (xn, xd), (yn, yd) in zip(g._xr, g._yr)) else (inv, g)
    # max keeps the first of equal keys
    t, top = max(h.breakpoints, key=lambda p: p[1] - p[0])
    if top <= t:
        raise InvariantViolation("non-identity homeomorphism with zero displacement")
    witness = PLMono(((ZERO, ZERO), (t, ZERO), (top, ONE), (ONE, ONE)))
    if sup_dist(compose(witness, back), witness) != ONE:
        raise InvariantViolation("witness construction failed to realize distance one")
    return witness
