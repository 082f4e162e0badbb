"""Canonical representatives of tuples of monotone maps.

A finite tuple of monotone surjections, considered up to simultaneous
reparameterization of the domain, has a unique canonical form: compose
every component with the left-continuous inverse of the (weighted) mean
of the tuple.  The canonical form has mean exactly the identity and
each component is Lipschitz with constant at most one over its weight;
composing it back with the mean recovers the original tuple bit-exactly.

The form is built from one tabulation.  On the merged breakpoint grid
X of the components, the mean m takes the weighted sums of their
values, and each canonical component runs through the points
(m(x), f_i(x)) for x in X.  That is the splice through the
left-continuous inverse of m: X holds every breakpoint of m and of
f_i, so between neighbours of X both are affine, and the constructor
drops the collinear and repeated points down to the unique minimal
form.  Positive weights make a plateau of m one of every f_i, so the
points arrive in (x, y) order and are not sorted.

The public CanonicalTuple constructor proves the mean is the identity
by tabulating its components and summing again.  canonicalize proves
it from its own tabulation instead: the levels m(x) are the weighted
sums of the rows by construction, so a component with every vertex at
a level and its row's values there makes the weighted mean equal each
level at that level, and affine in between.  That check sweeps each
built component over the levels and merges and sums nothing.

Pairs in canonical form with equal weights can equivalently be encoded
by a single 1-Lipschitz function vanishing at the endpoints (the
difference between the first component and the identity).  That
coordinate is what roelcke_coord gives, coord_to_pair inverts and the
CLI's ``plot`` draws; the epsilon net enumerates component values.

Pure functions over immutable values throughout.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .plcore import (
    InputError,
    InvariantViolation,
    PLHomeo,
    PLMono,
    Ratio,
    _Polyline,
    _Value,
    _built,
    _combined,
    _count,
    _frac,
    _ints,
    _iter,
    _normalize,
    _sweep,
    _tabulate,
    combine,
    identity,
    max_slope,
)

__all__ = [
    "MonoTuple",
    "CanonicalTuple",
    "RoelckeCoord",
    "uniform_weights",
    "check_weights",
    "mean",
    "canonicalize",
    "lipschitz_constant",
    "roelcke_coord",
    "coord_to_pair",
    "embed_homeo",
]

Weights = tuple[Fraction, ...]

# The mean of a canonical tuple, of the class that mean() returns.
_IDENTITY_MEAN = PLMono(((0, 0), (1, 1)))


def uniform_weights(n: int) -> Weights:
    return (Fraction(1, _count(n, "need at least one component: n")),) * n


def check_weights(weights, n: int) -> Weights:
    """Validate a weight vector: positive rationals of length n summing to 1."""
    w = tuple(_frac(x) for x in _iter(weights, "weights must be an iterable of rationals"))
    if len(w) != n:
        raise InputError(f"weight/length mismatch: {len(w)} weights for {n} components")
    ratios = [x.as_integer_ratio() for x in w]
    if any(p <= 0 for p, _ in ratios):
        raise InputError("weights must be strictly positive")
    nums, d = _ints(ratios)  # the sum is 1 when the numerators over d sum to d
    if sum(nums) != d:
        raise InputError("weights must sum to exactly 1")
    return w


class MonoTuple(_Value):
    """Nonempty finite tuple of monotone surjections."""

    _fields = ("components",)

    def __init__(self, components: tuple[PLMono, ...]):
        comps = tuple(_iter(components, "components must be an iterable of maps"))
        if not comps:
            raise InputError("a tuple needs at least one component")
        for c in comps:
            if not isinstance(c, PLMono):
                raise InputError(f"not a monotone map: {c!r:.60}")
        self.__dict__["components"] = comps

    def __len__(self):
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i):
        return self.components[i]


def _as_tuple(t) -> MonoTuple:
    return t if isinstance(t, MonoTuple) else MonoTuple(t)


def mean(t: MonoTuple, weights: Weights | None = None) -> PLMono:
    """Exact weighted mean of the components (any sequence of maps);
    stays in the monoid."""
    t = _as_tuple(t)
    w = uniform_weights(len(t)) if weights is None else check_weights(weights, len(t))
    return combine(list(zip(w, t.components)))


class CanonicalTuple(MonoTuple):
    """A tuple whose weighted mean is exactly the identity.

    With uniform weights these are the canonical representatives of
    tuples modulo reparameterization; each component's slopes are
    bounded by the reciprocal of its weight (by n in the uniform case).
    The public constructor checks the mean exactly: it tabulates the
    components on their merged breakpoint grid, sums their weighted
    values and compares the sums with the grid.  canonicalize already
    holds that grid and those sums, and comes in by _spliced, which
    checks its components against them without summing again.  Either
    way the slope bound follows from the mean because the components
    are monotone.
    """

    _fields = ("components", "weights")

    def __init__(self, components: tuple[PLMono, ...], weights: Weights):
        # As in PLMono, perfbench's tracer wraps the body by name.
        self.__post_init__(components, weights)

    def __post_init__(self, components, weights):
        super().__init__(components)
        w = check_weights(weights, len(self))
        xs, rows = _tabulate(self.components)
        # reduced pairs are equal exactly when their values are
        if _combined([x.as_integer_ratio() for x in w], rows) != xs:
            raise InputError("weighted mean of a canonical tuple must be the identity")
        # The slope bound needs no pass of its own: on each grid segment
        # the slopes s_i are >= 0 (monotone components), the weights are
        # positive and the mean has slope sum(w_i * s_i) = 1, so every
        # w_i * s_i <= 1.
        self.__dict__["weights"] = w

    @classmethod
    def _spliced(cls, components, w, levels, rows):
        """canonicalize's way in, checked against the grid it holds:
        ``levels``, the weighted sums _combined(w, rows) of the ``rows``,
        and ``w``, already checked.  Every vertex of each component must
        be a level and its values at the levels must be its row; the
        module docstring says why that makes the mean the identity.  The
        check reads the built components' own pairs, not the rows they
        came from, so a point lost in the build fails it: InvariantViolation.
        """
        grid = set(levels)
        for c, row in zip(components, rows):
            if not grid.issuperset(c._xr) or _sweep(c._xr, c._yr, levels) != row:
                raise InvariantViolation(f"canonical component off its grid row: {c!r:.60}")
        self = object.__new__(cls)
        self.__dict__["components"] = components
        self.__dict__["weights"] = w
        return self

    def as_tuple(self) -> MonoTuple:
        """The components as a plain MonoTuple, without the weights."""
        return MonoTuple(self.components)


def canonicalize(t: MonoTuple, weights: Weights | None = None) -> tuple[CanonicalTuple, PLMono]:
    """Split a tuple into its canonical form and its mean.

    Returns (c, m) with m the weighted mean of t (any sequence of maps)
    and c the tuple whose i-th component is t[i] composed with the
    left-continuous inverse of m, compose_lc(t[i], pseudo_inverse(m)),
    built and checked from one tabulation of t as the module docstring
    says.  A repeated m(x) must repeat t[i](x); a point that breaks this
    raises InvariantViolation.  Composing back gives compose(c[i], m) ==
    t[i] bit-exactly.  This is the one place that takes a tuple as its own
    canonical form: asked for no weights, a CanonicalTuple with equal
    weights is returned as it is, with the identity mean, untabulated.
    """
    t = _as_tuple(t)
    if weights is None and isinstance(t, CanonicalTuple) and t.weights.count(t.weights[0]) == len(t):
        return t, _IDENTITY_MEAN
    w = uniform_weights(len(t)) if weights is None else check_weights(weights, len(t))
    xs, rows = _tabulate(t.components)
    levels = _combined([x.as_integer_ratio() for x in w], rows)
    m = PLMono._from_pairs(zip(xs, levels))
    comps = t.components if m == identity() else tuple(_built(zip(levels, row), "spliced composition") for row in rows)
    return CanonicalTuple._spliced(comps, w, levels, rows), m


def lipschitz_constant(c: CanonicalTuple, i: int) -> Fraction:
    """Largest segment slope of component i of c (any sequence of maps);
    at most 1 over its weight in a canonical tuple."""
    c = _as_tuple(c)
    if type(i) is not int or not 0 <= i < len(c):  # a bool is not an index
        raise InputError(f"component index must be an int in 0..{len(c) - 1}, got {i!r:.60}")
    return max_slope(c.components[i])


class RoelckeCoord(_Polyline):
    """1-Lipschitz piecewise-linear function vanishing at both endpoints.

    The coordinate of a canonical pair with equal weights: first
    component minus the identity.  Every segment slope lies in [-1, 1].
    """

    __slots__ = ()

    def __post_init__(self, rows):
        xr, yr, _ = _normalize(rows)
        if xr[0] != (0, 1) or yr[0] != (0, 1) or xr[-1] != (1, 1) or yr[-1] != (0, 1):
            raise InputError("coordinate must vanish at both endpoints")
        # |y1 - y0| <= x1 - x0 on each segment, denominators cleared
        if any(abs(y1n * y0d - y0n * y1d) * x0d * x1d > (x1n * x0d - x0n * x1d) * y0d * y1d
               for (x0n, x0d), (y0n, y0d), (x1n, x1d), (y1n, y1d) in zip(xr, yr, xr[1:], yr[1:])):
            raise InputError("coordinate must be 1-Lipschitz")
        self._store(xr, yr)


def _sheared(xr, yr, a: int, b: int) -> list[tuple[Ratio, Ratio]]:
    """Rows (x, a * x + b * y) of a polyline's reduced pairs, for signs a
    and b: cross-multiplied and reduced by one gcd per point."""
    rows = []
    for x, (yn, yd) in zip(xr, yr):
        xn, xd = x
        n, d = a * xn * yd + b * yn * xd, xd * yd
        g = gcd(n, d)
        rows.append((x, (n // g, d // g)))
    return rows


def roelcke_coord(c: CanonicalTuple) -> RoelckeCoord:
    """Coordinate of a canonical pair: first component minus the identity."""
    if not isinstance(c, CanonicalTuple) or len(c) != 2 or c.weights != uniform_weights(2):
        raise InputError("coordinates are defined for pairs with equal weights")
    first = c.components[0]
    return RoelckeCoord._from_pairs(_sheared(first._xr, first._yr, -1, 1))


def coord_to_pair(rc: RoelckeCoord) -> CanonicalTuple:
    """Inverse of roelcke_coord: (identity + f, identity - f)."""
    if not isinstance(rc, RoelckeCoord):
        raise InputError("coord_to_pair needs a RoelckeCoord")
    first = PLMono._from_pairs(_sheared(rc._xr, rc._yr, 1, 1))
    second = PLMono._from_pairs(_sheared(rc._xr, rc._yr, 1, -1))
    return CanonicalTuple((first, second), uniform_weights(2))


def embed_homeo(g: PLHomeo) -> CanonicalTuple:
    """Canonical pair of (identity, g): the standard embedding of the
    homeomorphism group into the space of canonical pairs."""
    if not isinstance(g, PLHomeo):
        raise InputError("embedding is defined for homeomorphisms")
    ct, _ = canonicalize(MonoTuple((identity(), g)))
    return ct
