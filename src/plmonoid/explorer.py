"""Command-line surface: canonicalization, distances, gap calculus,
epsilon nets, seeded sampling and plot-data emission.

Everything here is deterministic: identical invocations (same inputs,
same seed) produce byte-identical output.  Numeric I/O uses exact
"p/q" strings; SVG output quantizes to integer pixels only for display.

Exit codes: 0 success, 2 input error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction
from functools import cache
from math import comb
from pathlib import Path

from .plcore import (
    HALF,
    ONE,
    ZERO,
    InputError,
    InvariantViolation,
    PLHomeo,
    PLMono,
    _Value,
    _ints,
    _sweep,
    identity,
    sup_dist,
    uniform_witness,
)
from .typespace import (
    CanonicalTuple,
    MonoTuple,
    RoelckeCoord,
    canonicalize,
    uniform_weights,
)
from . import serialize as ser

__all__ = [
    "random_mono",
    "random_tuple",
    "random_homeo",
    "random_point",
    "EpsNet",
    "build_net",
    "net_size",
    "net_points",
    "nearest_net_point",
    "render_svg",
    "render_csv",
    "main",
    "cli",
]


# ---------------------------------------------------------------------------
# Seeded sampling


def _sample_indices(rng: random.Random, n: int, k: int) -> set[int]:
    """k distinct indices from range(n), Floyd's algorithm."""
    chosen: set[int] = set()
    for i in range(n - k, n):
        t = rng.randrange(i + 1)
        chosen.add(i if t in chosen else t)
    return chosen


def _composition(rng: random.Random, total: int, slots: int) -> list[int]:
    """Uniform composition of total into `slots` nonnegative parts."""
    if slots == 1:
        return [total]
    cuts = sorted(_sample_indices(rng, total + slots - 1, slots - 1))
    parts = []
    prev = -1
    for c in cuts:
        parts.append(c - prev - 1)
        prev = c
    parts.append(total + slots - 2 - prev)
    return parts


def _mono_from_increments(incs: list[int], total: int) -> PLMono:
    steps = len(incs)
    pts = [(ZERO, ZERO)]
    acc = 0
    for j, inc in enumerate(incs, start=1):
        acc += inc
        pts.append((Fraction(j, steps), Fraction(acc, total)))
    return PLMono(tuple(pts))


def _increments(rng: random.Random, total: int, steps: int) -> list[int]:
    """Uniform composition of total into `steps` parts; about half the
    draws get extra plateaus: some parts dump their mass onto others."""
    incs = _composition(rng, total, steps)
    if rng.randrange(2):
        for idx in range(steps):
            if incs[idx] and rng.randrange(3) == 0:
                target = rng.randrange(steps)
                if target != idx:
                    incs[target] += incs[idx]
                    incs[idx] = 0
    return incs


def random_mono(rng: random.Random) -> PLMono:
    """Random monotone surjection on a random rational grid.

    Increments live on a value grid of 1/(steps*units).
    """
    steps = rng.randrange(3, 9)
    units = rng.randrange(2, 7)
    total = steps * units
    return _mono_from_increments(_increments(rng, total, steps), total)


def random_tuple(rng: random.Random, n: int) -> MonoTuple:
    """Tuple of independent random monotone surjections."""
    return MonoTuple(tuple(random_mono(rng) for _ in range(n)))


def random_homeo(rng: random.Random) -> PLHomeo:
    """Random increasing homeomorphism with slopes kept in tame range.

    Each grid increment is at least half the average, so slopes stay in
    roughly [1/2, (steps+1)/2]; resamples on the off chance the draw is
    the identity.
    """
    steps = rng.randrange(2, 5)
    units = rng.randrange(4, 9)
    base = (units + 1) // 2
    total = steps * units
    for _ in range(64):
        extra = _composition(rng, total - steps * base, steps)
        incs = [base + e for e in extra]
        h = PLHomeo(_mono_from_increments(incs, total).breakpoints)
        if h != identity():
            return h
    raise InvariantViolation("homeomorphism sampler drew the identity 64 times")


def _point_params(rng: random.Random, n: int) -> tuple[int, int]:
    if n <= 2:
        steps = rng.randrange(3, 8)
    elif n == 3:
        steps = rng.randrange(3, 6)
    else:
        steps = rng.randrange(3, 5)
    units = rng.randrange(3 * n, 6 * n)
    return steps, units


_MAX_TRIES = 5000


def random_point(rng: random.Random, n: int) -> CanonicalTuple:
    """Random canonical tuple: mean is the identity bit-exactly.

    Draws the first n-1 components on a shared random grid and solves
    the last one from the mean constraint, rejecting draws for which it
    fails to be monotone.  Measured acceptance with these grid
    parameters: about 0.30 at n = 2, 0.27 at n = 3, 0.18 at n = 5, so a
    draw needs a handful of tries on average; the generous retry cap
    only trips on a bug.
    """
    if n < 1:
        raise InputError("need at least one component")
    if n == 1:
        return CanonicalTuple((identity(),), (ONE,))
    for _ in range(_MAX_TRIES):
        steps, units = _point_params(rng, n)
        total = steps * units
        rows = [_increments(rng, total, steps) for _ in range(n - 1)]
        cap = n * units
        last = [cap - sum(col) for col in zip(*rows)]
        if any(inc < 0 for inc in last):
            continue
        rows.append(last)
        comps = tuple(_mono_from_increments(r, total) for r in rows)
        return CanonicalTuple(comps, uniform_weights(n))
    raise InvariantViolation(f"rejection sampling failed after {_MAX_TRIES} tries")


# ---------------------------------------------------------------------------
# Epsilon nets

@cache
def _net_steps(n: int) -> tuple[tuple[int, ...], ...]:
    """All per-step increment choices for the first n-1 components."""
    out = []

    def rec(prefix, budget):
        if len(prefix) == n - 1:
            out.append(tuple(prefix))
            return
        for i in range(budget + 1):
            rec(prefix + [i], budget - i)

    rec([], n)
    return tuple(out)


def _net_moves(n: int, m: int, j: int, state: tuple[int, ...]):
    """Valid net steps from node j - 1 to node j, in _net_steps order.

    ``state`` holds the first n-1 components' values (in units of 1/m)
    at node j - 1; the last component's value follows from the mean
    constraint.  Yields (next state, last component's value at node j)
    for every step that keeps all components within m.  All stay
    monotone: the last one too, as a step's increments sum to at most n.
    """
    for incs in _net_steps(n):
        nxt = tuple(v + i for v, i in zip(state, incs))
        if any(v > m for v in nxt):
            continue
        last = n * j - sum(nxt)
        if last > m:
            continue
        yield nxt, last


def _dp_resolution(n: int, m: int) -> int:
    """The resolution the net DPs run at.  At n = 1 the mean constraint
    pins the lone component to the identity, so the net is that one
    point at every m, and a DP over m layers would only rebuild it."""
    return 1 if n == 1 else m


def net_size(n: int, m: int) -> int:
    """Number of net points at resolution m: grid tuples with node sums
    pinned to the mean constraint.  Counted by dynamic programming."""
    if n < 1 or m < 1:
        raise InputError("need n >= 1 and m >= 1")
    m = _dp_resolution(n, m)
    states = {(0,) * (n - 1): 1}
    for j in range(1, m + 1):
        new: dict[tuple[int, ...], int] = {}
        for state, cnt in states.items():
            for nxt, _ in _net_moves(n, m, j, state):
                new[nxt] = new.get(nxt, 0) + cnt
        states = new
    return states.get((m,) * (n - 1), 0)


def _net_point(n: int, m: int, path) -> CanonicalTuple:
    """The net point through the given states at nodes 0..m; the last
    component's values follow from the mean constraint."""
    cols = [[*state, n * j - sum(state)] for j, state in enumerate(path)]
    comps = (PLMono(tuple((Fraction(j, m), Fraction(col[i], m)) for j, col in enumerate(cols))) for i in range(n))
    return CanonicalTuple(tuple(comps), uniform_weights(n))


def net_points(n: int, m: int):
    """Enumerate all net points at resolution m, lexicographically.

    Sizes grow fast (central-trinomial fast for n = 2); enumerate only
    for small m and use net_size otherwise.
    """
    if n < 1 or m < 1:
        raise InputError("need n >= 1 and m >= 1")
    m = _dp_resolution(n, m)

    def rec(path):
        if len(path) > m:
            if path[-1] == (m,) * (n - 1):
                yield _net_point(n, m, path)
            return
        for nxt, _ in _net_moves(n, m, len(path), path[-1]):
            yield from rec((*path, nxt))

    yield from rec(((0,) * (n - 1),))


class EpsNet(_Value):
    """Materialized net at one resolution; every point is canonical and
    lives on the 1/resolution grid."""

    _fields = ("n", "resolution", "points")

    def __init__(self, n: int, resolution: int, points: tuple[CanonicalTuple, ...]):
        self.__dict__.update(n=n, resolution=resolution, points=points)


def build_net(n: int, m: int) -> EpsNet:
    return EpsNet(n, m, tuple(net_points(n, m)))


def nearest_net_point(point: CanonicalTuple, m: int) -> CanonicalTuple:
    """Net point minimizing the largest node deviation from the given
    canonical tuple; the continuous distance to it is at most 2/m for
    pairs (by the 1-Lipschitz coordinate argument)."""
    n = len(point)
    if m < 1:
        raise InputError("need m >= 1")
    m = _dp_resolution(n, m)
    nodes = [Fraction(j, m) for j in range(m + 1)]
    node_vals = [_sweep(f._xs, f._ys, nodes) for f in point.components]
    # brute_oracle's one-scale exception, as every cost meets every other:
    # ints over d = lcm(m, node denominators) > 0 keep the argmin and ties.
    (_, *flat), d = _ints([(0, m), *(v.as_integer_ratio() for col in zip(*node_vals) for v in col)])

    @cache
    def dev(j, state):
        vals = list(state) + [n * j - sum(state)]
        return max(abs(v * d // m - t) for v, t in zip(vals, flat[j * n:(j + 1) * n]))

    start = (0,) * (n - 1)
    layers: list[dict[tuple[int, ...], tuple[int, tuple]]] = [{start: (dev(0, start), None)}]
    for j in range(1, m + 1):
        new: dict[tuple[int, ...], tuple[int, tuple]] = {}
        for state, (cost, _) in layers[j - 1].items():
            for nxt, _ in _net_moves(n, m, j, state):
                c = max(cost, dev(j, nxt))
                old = new.get(nxt)
                if old is None or c < old[0]:
                    new[nxt] = (c, state)
        layers.append(new)
    goal = (m,) * (n - 1)
    if goal not in layers[m]:
        raise InvariantViolation("net has no point reaching the corner")
    states = [goal]
    for j in range(m, 0, -1):
        states.append(layers[j][states[-1]][1])
    return _net_point(n, m, states[::-1])


# ---------------------------------------------------------------------------
# Rendering

_SIZE = 512
_MARGIN = 24
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _px(x: Fraction) -> int:
    return _MARGIN + int(x * _SIZE + HALF)


def _py(y: Fraction, lo=ZERO, hi=ONE) -> int:
    return _MARGIN + _SIZE - int((y - lo) / (hi - lo) * _SIZE + HALF)


def _poly(points, lo=ZERO, hi=ONE) -> str:
    return " ".join(f"{_px(x)},{_py(y, lo, hi)}" for x, y in points)


def _svg_doc(body: list[str]) -> str:
    side = _SIZE + 2 * _MARGIN
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {side} {side}" '
        f'width="{side}" height="{side}">'
    )
    frame = (
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_SIZE}" height="{_SIZE}" '
        'fill="white" stroke="#444444" stroke-width="1"/>'
    )
    return "\n".join([head, frame, *body, "</svg>"]) + "\n"


def _is_gapset(obj) -> bool:
    # gaps is loaded here, after the other kinds are ruled out, so that
    # plotting a map, tuple or coordinate does not import it
    from .gaps import GapSet

    return isinstance(obj, GapSet)


def render_svg(obj) -> str:
    """Deterministic SVG for a map, tuple, coordinate or gap set."""
    body: list[str] = []
    diag = f'<polyline points="{_poly(((ZERO, ZERO), (ONE, ONE)))}" fill="none" stroke="#bbbbbb" stroke-dasharray="4,4"/>'
    if isinstance(obj, PLMono):
        obj = MonoTuple((obj,))
    if isinstance(obj, MonoTuple):
        body.append(diag)
        for i, comp in enumerate(obj):
            color = _PALETTE[i % len(_PALETTE)]
            body.append(
                f'<polyline points="{_poly(comp.breakpoints)}" fill="none" '
                f'stroke="{color}" stroke-width="2"/>'
            )
    elif isinstance(obj, RoelckeCoord):
        lo, hi = -ONE, ONE
        zero_y = _py(ZERO, lo, hi)
        body.append(
            f'<line x1="{_MARGIN}" y1="{zero_y}" x2="{_MARGIN + _SIZE}" y2="{zero_y}" '
            'stroke="#bbbbbb" stroke-dasharray="4,4"/>'
        )
        body.append(
            f'<polyline points="{_poly(obj.breakpoints, lo, hi)}" fill="none" '
            f'stroke="{_PALETTE[0]}" stroke-width="2"/>'
        )
    elif _is_gapset(obj):
        for a, b in obj:
            x0, x1 = _px(a), _px(b)
            body.append(
                f'<rect x="{x0}" y="{_MARGIN}" width="{x1 - x0}" height="{_SIZE}" '
                'fill="#fdd" stroke="none"/>'
            )
        body.append(diag)
    else:
        raise InputError(f"cannot plot a {type(obj).__name__}")
    return _svg_doc(body)


def render_csv(obj) -> str:
    """Exact tabular form of the same objects ("p/q" strings)."""
    rows: list[str] = []
    if isinstance(obj, PLMono):
        obj = MonoTuple((obj,))
    if isinstance(obj, MonoTuple):
        rows.append("component,x,y")
        for i, comp in enumerate(obj):
            for x, y in comp.breakpoints:
                rows.append(f"{i},{x},{y}")
    elif isinstance(obj, RoelckeCoord):
        rows.append("x,y")
        for x, y in obj.breakpoints:
            rows.append(f"{x},{y}")
    elif _is_gapset(obj):
        rows.append("gap,lo,hi")
        for i, (a, b) in enumerate(obj):
            rows.append(f"{i},{a},{b}")
    else:
        raise InputError(f"cannot tabulate a {type(obj).__name__}")
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# CLI

def _read_text(path: str) -> str:
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_text()
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path:.60}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        # strerror leaves out the path that an OSError's text repeats
        raise InputError(f"cannot read {path:.60}: {getattr(exc, 'strerror', None) or exc}") from exc


def _parse_plot_object(obj):
    if not isinstance(obj, dict):
        raise InputError("expected a JSON object")
    if "breakpoints" in obj:
        return ser.mono_from_obj(obj)
    if "components" in obj:
        return ser.canonical_from_obj(obj) if obj.get("canonical") else ser.tuple_from_obj(obj)[0]
    if "coord" in obj:
        return ser.coord_from_obj(obj)
    if "gaps" in obj:
        return ser.gapset_from_obj(obj)
    raise InputError("unknown object kind: expected breakpoints, components, coord or gaps")


def _cmd_canon(args) -> str:
    t, weights = ser.tuple_from_obj(ser.loads(_read_text(args.input)))
    ct, m = canonicalize(t, weights)
    return ser.dumps({"canonical": ser.canonical_to_obj(ct), "mean": ser.mono_to_obj(m)})


def _cmd_dist(args) -> str:
    from .quotdist import brute_oracle, quot_dist

    if args.grid > 4096:
        raise InputError(f"--grid {args.grid} exceeds 4096; the oracle's work grows as its square")
    # the quotient distance always compares with uniform weights
    ta, _ = ser.tuple_from_obj(ser.loads(_read_text(args.a)))
    tb, _ = ser.tuple_from_obj(ser.loads(_read_text(args.b)))
    tol = ser.parse_frac(args.tol)
    ca, _ = canonicalize(ta)
    cb, _ = canonicalize(tb)
    qi = quot_dist(ca, cb, tol)
    bound = max(sup_dist(f, g) for f, g in zip(ca.components, cb.components))
    out = ser.interval_to_obj(qi)
    out["canonical_bound"] = ser.frac_str(bound)
    if args.grid:
        out["oracle_upper"] = ser.frac_str(brute_oracle(ta, tb, args.grid))
    return ser.dumps(out)


def _cmd_epsnet(args) -> str:
    n, m, check = args.n, args.net, args.check
    # net DP steps (layers x states x moves); a covering check costs about ten times that
    steps = m * (m + 1) ** (n - 1) * comb(2 * n - 1, n - 1) if 0 < n <= 6 and m > 0 else 0
    if n > 6 or check < 0 or steps * (1 + 10 * check) > 2**21:
        raise InputError(f"epsnet --n {n} --net {m} --check {check} exceeds the work limit: need "
                         "n <= 6, check >= 0 and m(m+1)^(n-1)C(2n-1,n-1)(1+10check) <= 2^21")
    size = net_size(n, m)
    out: dict = {"n": args.n, "net": args.net, "size": size}
    if args.points:
        if size > 100000:
            raise InputError(f"net has {size} points; refusing to enumerate")
        out["points"] = [ser.canonical_to_obj(p) for p in net_points(args.n, args.net)]
    if args.check:
        rng = random.Random(args.seed)
        radius = Fraction(2, args.net)
        for _ in range(args.check):
            p = random_point(rng, args.n)
            q = nearest_net_point(p, args.net)
            worst = max(sup_dist(f, g) for f, g in zip(p.components, q.components))
            if worst > radius:
                raise InvariantViolation(
                    f"covering failed: sample at distance {worst} > {radius}"
                )
        out["covering_checked"] = args.check
        out["covering_radius"] = ser.frac_str(radius)
    return ser.dumps(out)


def _cmd_sample(args) -> str:
    if not 0 <= args.count <= 1000 or args.n > 16:
        raise InputError(f"sample --count {args.count} --n {args.n}: need count 0..1000, n <= 16")
    rng = random.Random(args.seed)
    return ser.dumps([ser.canonical_to_obj(random_point(rng, args.n)) for _ in range(args.count)])


def _cmd_plot(args) -> str:
    obj = _parse_plot_object(ser.loads(_read_text(args.input)))
    return (render_svg if args.format == "svg" else render_csv)(obj)


def _cmd_witness(args) -> str:
    g = ser.homeo_from_obj(ser.loads(_read_text(args.input)))
    return ser.dumps({"witness": ser.mono_to_obj(uniform_witness(g)), "distance": "1"})


def _cmd_gaps(args) -> str:
    from .gaps import collapse_map, extreme_pair_all, isolated_points, merge_gaps

    merged = merge_gaps(ser._gap_pairs(ser.loads(_read_text(args.input))))
    bad = isolated_points(merged)
    out: dict = ser.gapset_to_obj(merged)
    out["isolated_points"] = [ser.frac_str(x) for x in bad]
    if bad:
        out["collapse"] = None
        out["witnesses"] = None
    else:
        lo, hi = extreme_pair_all(merged)
        out["witnesses"] = [ser.mono_to_obj(lo), ser.mono_to_obj(hi)]
        try:
            out["collapse"] = ser.mono_to_obj(collapse_map(merged))
        except InputError:
            out["collapse"] = None
    return ser.dumps(out)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="plmonoid",
        description="Exact calculus of monotone interval maps: canonical forms, "
        "quotient distances, gap calculus, nets and plots.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canon", help="canonical form and mean of a tuple")
    p.add_argument("input", help="tuple JSON file ('-' for stdin)")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("dist", help="bracket the quotient distance of two tuples")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--tol", default="1/64", help="bracket width, a rational like 1/64")
    p.add_argument("--grid", type=int, default=0,
                   help="also report the grid-path oracle upper bound at this resolution")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("epsnet", help="size (and optionally points) of the epsilon net")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--net", type=int, default=4, help="grid resolution m")
    p.add_argument("--points", action="store_true", help="also emit every net point")
    p.add_argument("--check", type=int, default=0,
                   help="verify this many seeded samples are within 2/net of the net")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_epsnet)

    p = sub.add_parser("sample", help="seeded random canonical tuples")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("plot", help="render an object as SVG or CSV")
    p.add_argument("input")
    p.add_argument("--format", choices=("csv", "svg"), default="svg")
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("witness", help="uniform-distance witness for a homeomorphism")
    p.add_argument("input")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("gaps", help="merge raw intervals into a gap set, with "
                       "isolated points, witnesses and collapse map")
    p.add_argument("input")
    p.set_defaults(func=_cmd_gaps)

    for p in sub.choices.values():
        p.add_argument("--out", default=None)
    return ap


def _drop_stdout() -> None:
    """After a failed write, point stdout's descriptor at os.devnull so the
    interpreter's flush at exit cannot fail again (the docs' broken-pipe recipe)."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # an in-memory stream is not flushed at exit
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = args.func(args)
        target = "-" if args.out is None else args.out
        try:
            if target == "-":
                sys.stdout.write(text)
                sys.stdout.flush()
            else:
                Path(target).write_text(text)
        except OSError as exc:
            if target == "-":
                _drop_stdout()
            raise InputError(f"cannot write {target:.60}: {exc.strerror or exc}") from exc
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    return 0


def cli() -> None:
    raise SystemExit(main())
