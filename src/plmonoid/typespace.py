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

Pairs in canonical form with equal weights can equivalently be encoded
by a single 1-Lipschitz function vanishing at the endpoints (the
difference between the first component and the identity); this is the
coordinate system used by the epsilon-net enumeration in the CLI.

Pure functions over immutable values throughout.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .plcore import (
    ONE,
    ZERO,
    InputError,
    InvariantViolation,
    PLHomeo,
    PLMono,
    Point,
    _Value,
    _at,
    _combined,
    _frac,
    _ints,
    _normalize,
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


def uniform_weights(n: int) -> Weights:
    if n < 1:
        raise InputError("need at least one component")
    return (Fraction(1, n),) * n


def check_weights(weights, n: int) -> Weights:
    """Validate a weight vector: positive rationals of length n summing to 1."""
    w = tuple(_frac(x) for x in weights)
    if len(w) != n:
        raise InputError(f"weight/length mismatch: {len(w)} weights for {n} components")
    if any(x <= ZERO for x in w):
        raise InputError("weights must be strictly positive")
    if sum(w) != ONE:
        raise InputError("weights must sum to exactly 1")
    return w


class MonoTuple(_Value):
    """Nonempty finite tuple of monotone surjections."""

    _fields = ("components",)

    def __init__(self, components: tuple[PLMono, ...]):
        comps = tuple(components)
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
    return t if isinstance(t, MonoTuple) else MonoTuple(tuple(t))


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
    The mean is checked exactly on construction, in ints on the merged
    breakpoint grid, where it is compared, not rebuilt; the slope bound
    follows from it because the components are monotone.
    """

    _fields = ("components", "weights")

    def __init__(self, components: tuple[PLMono, ...], weights: Weights):
        # As in PLMono, perfbench's tracer wraps the body by name.
        self.__post_init__(components, weights)

    def __post_init__(self, components, weights):
        super().__init__(components)
        w = check_weights(weights, len(self))
        xs, rows = _tabulate(self.components)
        nums, wd = _ints([x.as_integer_ratio() for x in w])
        for point in zip(*([v.as_integer_ratio() for v in row] for row in (xs, *rows))):
            # sum(w_i * v_i) == x, over the lcm of this point's values
            (x, *vals), _ = _ints(point)
            if sum(map(mul, nums, vals)) != wd * x:
                raise InputError("weighted mean of a canonical tuple must be the identity")
        # The slope bound needs no pass of its own: on each grid segment
        # the slopes s_i are >= 0 (monotone components), the weights are
        # positive and the mean has slope sum(w_i * s_i) = 1, so every
        # w_i * s_i <= 1.
        self.__dict__["weights"] = w

    def as_tuple(self) -> MonoTuple:
        """The components as a plain MonoTuple, without the weights."""
        return MonoTuple(self.components)


def canonicalize(t: MonoTuple, weights: Weights | None = None) -> tuple[CanonicalTuple, PLMono]:
    """Split a tuple into its canonical form and its mean.

    Returns (c, m) with m the weighted mean of t (any sequence of maps)
    and c the tuple whose i-th component is t[i] composed with the
    left-continuous inverse of m, compose_lc(t[i], pseudo_inverse(m)),
    built from one tabulation of t as the module docstring says.  A
    repeated m(x) must repeat t[i](x); a point that breaks this raises
    InvariantViolation.  Composing back gives compose(c[i], m) == t[i]
    bit-exactly.
    """
    t = _as_tuple(t)
    w = uniform_weights(len(t)) if weights is None else check_weights(weights, len(t))
    xs, rows = _tabulate(t.components)
    levels = _combined(w, rows)
    m = PLMono(tuple(zip(xs, levels)))
    if m == identity():
        return CanonicalTuple(t.components, w), m
    try:
        comps = tuple(PLMono(tuple(zip(levels, row))) for row in rows)
    except InputError as exc:
        raise InvariantViolation(f"spliced composition left the monoid: {exc}") from exc
    return CanonicalTuple(comps, w), m


def lipschitz_constant(c: CanonicalTuple, i: int) -> Fraction:
    """Largest segment slope of component i; at most 1 over its weight."""
    if not 0 <= i < len(c):
        raise InputError(f"component index {i} out of range for length {len(c)}")
    return max_slope(c.components[i])


class RoelckeCoord(_Value):
    """1-Lipschitz piecewise-linear function vanishing at both endpoints.

    The coordinate of a canonical pair with equal weights: first
    component minus the identity.  Every segment slope lies in [-1, 1].
    """

    _fields = ("breakpoints",)

    def __init__(self, breakpoints: tuple[Point, ...]):
        pts, ratios = _normalize(breakpoints)
        if pts[0] != (ZERO, ZERO) or pts[-1] != (ONE, ZERO):
            raise InputError("coordinate must vanish at both endpoints")
        # |y1 - y0| <= x1 - x0 on each segment, denominators cleared
        if any(abs(y1n * y0d - y0n * y1d) * x0d * x1d > (x1n * x0d - x0n * x1d) * y0d * y1d
               for ((x0n, x0d), (y0n, y0d)), ((x1n, x1d), (y1n, y1d)) in zip(ratios, ratios[1:])):
            raise InputError("coordinate must be 1-Lipschitz")
        self.__dict__.update(breakpoints=pts, _xs=tuple(x for x, _ in pts), _ys=tuple(y for _, y in pts))

    def __call__(self, t) -> Fraction:
        return _at(self._xs, self._ys, t)

    def __repr__(self):
        pts = " ".join(f"({x},{y})" for x, y in self.breakpoints)
        return f"RoelckeCoord[{pts}]"


def roelcke_coord(c: CanonicalTuple) -> RoelckeCoord:
    """Coordinate of a canonical pair: first component minus the identity."""
    if len(c) != 2 or c.weights != uniform_weights(2):
        raise InputError("coordinates are defined for pairs with equal weights")
    return RoelckeCoord(tuple((x, y - x) for x, y in c.components[0].breakpoints))


def coord_to_pair(rc: RoelckeCoord) -> CanonicalTuple:
    """Inverse of roelcke_coord: (identity + f, identity - f)."""
    first = PLMono(tuple((x, x + y) for x, y in rc.breakpoints))
    second = PLMono(tuple((x, x - y) for x, y in rc.breakpoints))
    return CanonicalTuple((first, second), uniform_weights(2))


def embed_homeo(g: PLHomeo) -> CanonicalTuple:
    """Canonical pair of (identity, g): the standard embedding of the
    homeomorphism group into the space of canonical pairs."""
    if not isinstance(g, PLHomeo):
        raise InputError("embedding is defined for homeomorphisms")
    ct, _ = canonicalize(MonoTuple((identity(), g)))
    return ct
