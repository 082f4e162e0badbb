"""Shared helpers: seeded samplers for gap sets, gap-adapted pairs and
maps with large coprime denominators, the support, complement-piece
and preimage helpers of a search-based equiv_test (the reference the
closed form is checked against), a probe that fails on any read of a
polyline's Fraction view, plus a terminal summary that prints one line
per acceptance criterion.
"""

import random
import re
from contextlib import contextmanager
from fractions import Fraction
from math import gcd
from unittest.mock import patch


from plmonoid import GapSet, LcMono, MonoTuple, PLMono, isolated_points, merge_gaps
from plmonoid.plcore import ONE, ZERO, _lerp, _Polyline, _sweep, _sweep_ends, _tabulate

Interval = tuple[Fraction, Fraction]


def fractions(pairs) -> list[Fraction]:
    """(numerator, denominator) pairs as Fractions."""
    return [Fraction(*p) for p in pairs]


def ratios(values) -> list[tuple[int, int]]:
    """Rationals as the reduced pairs the plcore kernels take."""
    return [Fraction(v).as_integer_ratio() for v in values]


def reduced(pairs) -> bool:
    """Whether every value is a reduced (numerator, denominator) int
    tuple with a positive denominator, as the kernels return them."""
    return all(type(p) is tuple and len(p) == 2 and p[1] > 0 and gcd(*p) == 1 for p in pairs)


@contextmanager
def no_fraction_view():
    """Within the block, any read of a polyline's Fraction view
    (``breakpoints``, or ``vertices`` on an LcMono) fails the test.
    ``vertices`` is bound to the original property object, so both
    are patched."""

    def refuse(self):
        raise AssertionError(f"{type(self).__name__}'s Fraction view read")

    probe = property(refuse)
    with patch.object(_Polyline, "breakpoints", probe), patch.object(LcMono, "vertices", probe):
        yield


def tabulated(maps) -> tuple[list[Fraction], list[list[Fraction]]]:
    """plcore._tabulate's merged grid and value rows, as Fractions."""
    xs, rows = _tabulate(maps)
    return fractions(xs), [fractions(row) for row in rows]


def random_gapset(rng: random.Random, max_gaps: int = 3, touching: bool = False) -> GapSet | None:
    """Random gap set, or None if the draw was bad.

    Sets with isolated points are rejected unless ``touching`` is set;
    then one draw in two splits a gap at its midpoint, so two gaps share
    an endpoint.
    """
    pairs = rng.randrange(1, max_gaps + 1)
    cuts = sorted(Fraction(rng.randrange(1, 64), 64) for _ in range(2 * pairs))
    ivs = [(cuts[2 * i], cuts[2 * i + 1]) for i in range(pairs) if cuts[2 * i] < cuts[2 * i + 1]]
    if not ivs:
        return None
    g = merge_gaps(ivs)
    if touching:
        if rng.randrange(2):
            i = rng.randrange(len(g))
            a, b = g.gaps[i]
            g = GapSet((*g.gaps[:i], (a, (a + b) / 2), ((a + b) / 2, b), *g.gaps[i + 1:]))
        return g
    if isolated_points(g):
        return None
    return g


def gapset_corpus(seed: int, count: int, max_gaps: int = 3) -> list[GapSet]:
    rng = random.Random(seed)
    out: list[GapSet] = []
    while len(out) < count:
        g = random_gapset(rng, max_gaps)
        if g is not None:
            out.append(g)
    return out


def gap_adapted_pair(rng: random.Random, g: GapSet) -> tuple[PLMono, PLMono]:
    """A canonical pair differing only inside the gaps of g: splice a
    smaller extreme pair into each gap (or a randomly shrunk one)."""
    lo_pts = [(Fraction(0), Fraction(0))]
    hi_pts = [(Fraction(0), Fraction(0))]
    for a, b in g.gaps:
        if rng.randrange(2):
            quarter = (b - a) / 4
            a, b = a + quarter, b - quarter
        mid = (a + b) / 2
        lo_pts += [(a, a), (mid, a), (b, b)]
        hi_pts += [(a, a), (mid, b), (b, b)]
    lo_pts.append((Fraction(1), Fraction(1)))
    hi_pts.append((Fraction(1), Fraction(1)))
    return PLMono(tuple(lo_pts)), PLMono(tuple(hi_pts))


def coprime_dens(digits: int) -> list[int]:
    """Eleven pairwise coprime ints of the given number of digits.

    k * T + 1 for k = 10..20 are pairwise coprime when lcm(1..10) = 2520
    divides T: a prime dividing two of them divides their difference, a
    multiple of T below 11 * T, so it divides T, and no prime factor of T
    divides k * T + 1.
    """
    t = 2520 * (10 ** (digits - 2) // 2520 + 1)
    return [k * t + 1 for k in range(10, 21)]


COPRIME_DENS = coprime_dens(100)


def coprime_map(rng: random.Random, d: int, n: int = 8) -> PLMono:
    """Monotone map whose interior points are k/d for the given d, with
    about one repeated level in three (plateaus)."""
    xs = sorted({rng.randrange(1, d) for _ in range(n)})
    ys = sorted(rng.randrange(1, d) for _ in xs)
    ys = [ys[j - 1] if j and rng.randrange(3) == 0 else y for j, y in enumerate(ys)]
    return PLMono(((Fraction(0), Fraction(0)), *((Fraction(x, d), Fraction(y, d)) for x, y in zip(xs, ys)),
                   (Fraction(1), Fraction(1))))


def probe_tuple(rng: random.Random, n: int = 10, digits: int = 100) -> MonoTuple:
    """Two components, each through (0, 0), n interior points and (1, 1).
    Each coordinate of point i is (i*d + r) / ((n+1)*d) for its own random
    odd d of the given digits and r in [1, d/2), so the denominators are
    large and almost surely pairwise coprime; an lcm over many of them
    grows with their count."""
    comps = []
    for _ in range(2):
        pts = [(Fraction(0), Fraction(0))]
        for i in range(1, n + 1):
            coords = []
            for _ in range(2):
                d = rng.randrange(10 ** (digits - 1), 10**digits) | 1
                coords.append(Fraction(i * d + rng.randrange(1, d // 2), (n + 1) * d))
            pts.append(tuple(coords))
        comps.append(PLMono((*pts, (Fraction(1), Fraction(1)))))
    return MonoTuple(tuple(comps))


def _difference_support(xs: list[Fraction], fv: list[Fraction], hv: list[Fraction]) -> list[Interval]:
    """Maximal open intervals where two maps differ, exactly, from their
    values fv and hv on their merged breakpoint grid xs."""
    vals = [a - b for a, b in zip(fv, hv)]
    # Zero set of the piecewise-linear difference, as closed pieces.
    zeros: list[Interval] = []
    for i in range(len(xs) - 1):
        d0, d1 = vals[i], vals[i + 1]
        x0, x1 = xs[i], xs[i + 1]
        if d0 == 0 and d1 == 0:
            zeros.append((x0, x1))
        elif d0 == 0:
            zeros.append((x0, x0))
        elif d1 == 0:
            zeros.append((x1, x1))
        elif (d0 < 0) != (d1 < 0):
            x_star = Fraction(*_lerp(*(v.as_integer_ratio() for v in (d0, x0, d1, x1, ZERO))))
            zeros.append((x_star, x_star))
    merged: list[Interval] = []
    for a, b in sorted(zeros):
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    # Endpoints are always in the zero set (both maps fix 0 and 1).
    support: list[Interval] = []
    for (_, b0), (a1, _) in zip(merged, merged[1:]):
        support.append((b0, a1))
    return support


def _preimage_of_closed(m: PLMono, lo: Fraction, hi: Fraction) -> Interval:
    """Exact preimage [l, r] of the closed band [lo, hi] under a
    monotone surjection; nonempty whenever 0 <= lo <= hi <= 1."""
    (lo, hi) = ratios((lo, hi))
    return Fraction(*_sweep(m._yr, m._xr, (lo,))[0]), Fraction(*_sweep_ends(m._yr, m._xr, (hi,))[1][0])


def _complement_pieces(g: GapSet) -> list[Interval]:
    """Closed components of [0, 1] minus the gap union, degenerate
    points included."""
    pieces: list[Interval] = []
    cursor = ZERO
    for a, b in g.gaps:
        pieces.append((cursor, a))
        cursor = b
    pieces.append((cursor, ONE))
    return pieces


_CRITERION = re.compile(r"test_c(\d+)([a-z]?)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for outcome in ("passed", "failed"):
        for rep in terminalreporter.stats.get(outcome, []):
            if "test_acceptance.py::" not in rep.nodeid:
                continue
            m = _CRITERION.search(rep.nodeid.split("::")[-1])
            if not m:
                continue
            num, part = int(m.group(1)), m.group(2)
            label = m.group(3).replace("_", " ")
            status = "PASS" if outcome == "passed" else "FAIL"
            lines.append((num, part, f"criterion {num:2d}{part or ' '} [{status}] {label}"))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for _, _, line in sorted(lines):
            terminalreporter.write_line(line)
