"""Canonical tuple representatives: means, reconstruction, invariance,
slope bounds, pair coordinates and the group embedding."""

import math
import random
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from plmonoid import (
    CanonicalTuple,
    GapSet,
    InputError,
    InvariantViolation,
    MonoTuple,
    PLMono,
    RoelckeCoord,
    canonicalize,
    combine,
    compose,
    compose_lc,
    coord_to_pair,
    embed_homeo,
    identity,
    lipschitz_constant,
    max_slope,
    mean,
    merge_gaps,
    pseudo_inverse,
    roelcke_coord,
    uniform_weights,
)
from plmonoid import plcore, typespace
from plmonoid.gaps import extreme_pair
from plmonoid.typespace import check_weights
from plmonoid.explorer import random_homeo, random_mono, random_tuple

from conftest import COPRIME_DENS, coprime_map, no_fraction_view, probe_tuple, tabulated

seeds = st.integers(0, 2**32 - 1)
I14 = (F(1, 4), F(3, 4))


# --- mean


def test_mean_identity_cases():
    assert mean(MonoTuple((identity(), identity()))) == identity()
    f = random_mono(random.Random(1))
    assert mean(MonoTuple((f,)), (F(1),)) == f


def test_mean_of_extreme_pair_is_identity():
    lo, hi = extreme_pair(I14)
    assert mean(MonoTuple((lo, hi))) == identity()


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_mean_of_any_extreme_pair_is_identity(seed):
    rng = random.Random(seed)
    a = F(rng.randrange(0, 31), 64)
    b = F(rng.randrange(int(a * 64) + 1, 65), 64)
    lo, hi = extreme_pair((a, b))
    assert mean(MonoTuple((lo, hi))) == identity()


def test_mean_monotone_in_each_argument():
    lo, hi = extreme_pair(I14)
    f = random_mono(random.Random(6))
    low_mean = mean(MonoTuple((f, lo)))
    high_mean = mean(MonoTuple((f, hi)))
    xs = sorted({x for x, _ in low_mean.breakpoints} | {x for x, _ in high_mean.breakpoints})
    assert all(low_mean(x) <= high_mean(x) for x in xs)


def test_mean_weight_mismatch():
    with pytest.raises(InputError):
        mean(MonoTuple((identity(), identity())), (F(1),))
    with pytest.raises(InputError):
        mean(MonoTuple((identity(),)), (F(1, 2),))
    with pytest.raises(InputError):
        mean(MonoTuple((identity(),)), (F(-1), F(2)))


# --- canonicalize


def test_canonicalize_already_canonical():
    lo, hi = extreme_pair(I14)
    t = MonoTuple((lo, hi))
    ct, m = canonicalize(t)
    assert m == identity()
    assert ct.components == (lo, hi)


def test_canonicalize_returns_a_uniform_canonical_tuple_itself():
    ct = embed_homeo(random_homeo(random.Random(5)))
    c, m = canonicalize(ct)
    assert c is ct and m == identity() and type(m) is PLMono
    assert canonicalize(ct, (F(1, 2), F(1, 2))) == (ct, m)


def test_canonicalize_recomputes_a_canonical_tuple_under_other_weights():
    ct = embed_homeo(random_homeo(random.Random(5)))
    weights = (F(1, 3), F(2, 3))
    c, m = canonicalize(ct, weights)
    assert m == mean(ct, weights) != identity()
    assert c == canonicalize(ct.as_tuple(), weights)[0] and c.weights == weights


def test_canonicalize_single_component():
    f = random_mono(random.Random(2))
    ct, m = canonicalize(MonoTuple((f,)))
    assert ct.components == (identity(),)
    assert m == f


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_reconstruction(seed):
    rng = random.Random(seed)
    n = rng.choice([1, 2, 3, 5])
    t = random_tuple(rng, n)
    ct, m = canonicalize(t)
    for i in range(n):
        assert compose(ct[i], m) == t[i]


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_idempotence(seed):
    rng = random.Random(seed)
    t = random_tuple(rng, 3)
    ct, _ = canonicalize(t)
    again, m = canonicalize(ct.as_tuple())
    assert m == identity()
    assert again == ct


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_reparameterization_invariance(seed):
    rng = random.Random(seed)
    n = rng.choice([1, 2, 3])
    t = random_tuple(rng, n)
    g = random_homeo(rng)
    moved = MonoTuple(tuple(compose(f, g) for f in t))
    ct, m = canonicalize(t)
    ctg, mg = canonicalize(moved)
    assert ctg == ct
    assert mg == compose(m, g)


def test_permutation_equivariance():
    rng = random.Random(13)
    t = random_tuple(rng, 3)
    ct, _ = canonicalize(t)
    for perm in permutations(range(3)):
        permuted = MonoTuple(tuple(t[i] for i in perm))
        ctp, _ = canonicalize(permuted)
        assert ctp.components == tuple(ct[i] for i in perm)


def test_nonuniform_weights():
    # the second vector's lcm, 30, exceeds its largest denominator, 15
    for w in ((F(1, 3), F(2, 3)), (F(1, 6), F(1, 10), F(11, 15))):
        rng = random.Random(3)
        t = random_tuple(rng, len(w))
        ct, m = canonicalize(t, w)
        assert mean(ct.as_tuple(), w) == identity()
        for i in range(len(w)):
            assert compose(ct[i], m) == t[i]
            assert max_slope(ct[i]) <= 1 / w[i]


def test_canonicalize_through_boundary_plateaus():
    # all components flat near both endpoints, so the mean's inverse
    # jumps at 0 and at 1; the splice must still reconstruct exactly
    f1 = PLMono(((0, 0), (F(1, 8), 0), (F(1, 2), F(3, 4)), (F(3, 4), 1), (1, 1)))
    f2 = PLMono(((0, 0), (F(1, 8), 0), (F(1, 4), F(1, 2)), (F(3, 4), 1), (1, 1)))
    t = MonoTuple((f1, f2))
    ct, m = canonicalize(t)
    assert mean(ct.as_tuple()) == identity()
    for i in range(2):
        assert compose(ct[i], m) == t[i]


def test_canonicalize_and_mean_accept_any_sequence():
    f, g = random_tuple(random.Random(4), 2)
    for seq in ((f,), [f, g], (f, g)):
        assert canonicalize(seq) == canonicalize(MonoTuple(tuple(seq)))
        assert mean(seq) == mean(MonoTuple(tuple(seq)))
    for bad in ((), (f, "x")):
        with pytest.raises(InputError):
            canonicalize(bad)
        with pytest.raises(InputError):
            mean(bad)


@given(seeds, st.sampled_from([1, 2, 3, 5]), st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_canonicalize_matches_two_step_reference(seed, n, coprime, plateaus):
    """The one-tabulation form against the mean, its pseudo-inverse and
    one splice per component.  Components are random_mono maps or
    coprime_map maps with 100-digit denominators; composed with one
    random_mono, the mean has plateaus every component shares."""
    rng = random.Random(seed)
    comps = [coprime_map(rng, rng.choice(COPRIME_DENS)) if coprime else random_mono(rng) for _ in range(n)]
    if plateaus:
        g = random_mono(rng)
        comps = [compose(f, g) for f in comps]
    raw = [rng.randrange(1, 7) for _ in range(n)]
    w = tuple(F(r, sum(raw)) for r in raw)
    t = MonoTuple(tuple(comps))
    ct, m = canonicalize(t, w)
    assert m == mean(t, w)
    minv = pseudo_inverse(m)
    assert ct.components == tuple(compose_lc(f, minv) for f in t)
    assert ct.weights == w


def test_canonicalize_tabulates_once(monkeypatch):
    calls = []
    real = typespace._tabulate

    def counting(maps):
        calls.append(tuple(maps))
        return real(maps)

    monkeypatch.setattr(typespace, "_tabulate", counting)
    t = random_tuple(random.Random(5), 3)
    ct, m = canonicalize(t)
    assert m != identity()
    assert calls == [t.components]
    # a plain tuple whose mean is the identity, as canon reads a canonical file
    calls.clear()
    plain = MonoTuple(ct.components)
    again, m = canonicalize(plain)
    assert m == identity() and again == ct
    assert calls == [plain.components]


def _corrupted_build(monkeypatch, corrupt):
    """Make canonicalize build its first component from corrupt(rows), the
    rows it would be built from; the later components are built as they are."""
    real = typespace._built
    done = []

    def built(rows, what):
        rows = list(rows)
        if not done:
            done.append(True)
            rows = corrupt(rows, real(rows, what))
        return real(rows, what)

    monkeypatch.setattr(typespace, "_built", built)


def test_canonicalize_rejects_a_component_off_its_row(monkeypatch):
    # The first interior vertex of the component is kept by the build, so
    # it is not collinear; without it the component leaves its row there.
    def dropped(rows, c):
        return [(x, y) for x, y in rows if x != c._xr[1]]

    _corrupted_build(monkeypatch, dropped)
    t = random_tuple(random.Random(5), 3)
    with pytest.raises(InvariantViolation, match="canonical component off its grid row"):
        canonicalize(t)


def test_canonicalize_rejects_a_component_vertex_off_the_grid(monkeypatch):
    # A vertex between two levels, at the lower one's value: the component
    # still takes its row's values at every level, but is not affine
    # between them, so the mean on the grid says nothing of the mean there.
    def bent(rows, c):
        k = next(k for k in range(len(rows) - 1) if rows[k][1] != rows[k + 1][1] and rows[k][0] != rows[k + 1][0])
        mid = (F(*rows[k][0]) + F(*rows[k + 1][0])) / 2
        return rows[:k + 1] + [(mid.as_integer_ratio(), rows[k][1])] + rows[k + 1:]

    _corrupted_build(monkeypatch, bent)
    t = random_tuple(random.Random(5), 3)
    with pytest.raises(InvariantViolation, match="canonical component off its grid row"):
        canonicalize(t)


def test_canonicalize_false_plateau_is_invariant_violation(monkeypatch):
    # Flatten the mean over one grid segment where it rises: the mean is
    # still a monotone map, but the components move across the plateau.
    real = typespace._combined

    def flattened(coeffs, rows):
        levels = real(coeffs, rows)
        k = next(k for k in range(len(levels) - 2) if levels[k] != levels[k + 1])
        levels[k + 1] = levels[k]
        return levels

    monkeypatch.setattr(typespace, "_combined", flattened)
    t = random_tuple(random.Random(6), 2)
    with pytest.raises(InvariantViolation, match="spliced composition left the monoid: conflicting values"):
        canonicalize(t)


def test_canonical_tuple_validation():
    lo, hi = extreme_pair(I14)
    with pytest.raises(InputError):
        CanonicalTuple((lo, lo), uniform_weights(2))
    with pytest.raises(InputError, match="components must be an iterable"):
        MonoTuple(None)
    for n in (0, -1, None, 2.5, True):
        with pytest.raises(InputError, match="need at least one component"):
            uniform_weights(n)
    # a weight vector that is not an iterable, however it arrives
    t = MonoTuple((lo, hi))
    for call in (lambda: check_weights(None, 2), lambda: canonicalize(t, 5), lambda: mean(t, 5)):
        with pytest.raises(InputError, match="weights must be an iterable"):
            call()


def _reference_canonical(comps, weights):
    """The rule that rebuilt the weighted mean and measured every slope."""
    w = check_weights(weights, len(comps))
    if combine(list(zip(w, comps))) != identity():
        raise InputError("weighted mean of a canonical tuple must be the identity")
    for wi, c in zip(w, comps):
        if max_slope(c) > 1 / wi:
            raise InputError(f"component slope exceeds {1 / wi}")


def _same_verdict(comps, weights):
    """CanonicalTuple accepts, or rejects with the reference's message."""
    verdicts = []
    for check in (CanonicalTuple, _reference_canonical):
        try:
            check(comps, weights)
            verdicts.append("accepted")
        except InputError as exc:
            verdicts.append(str(exc))
    assert verdicts[0] == verdicts[1], verdicts
    return verdicts[0]


MEAN_MISSED = "weighted mean of a canonical tuple must be the identity"
TINY = F(1, 2**40)


def _moved_once(comps):
    """Each way of moving one component by 2^-40 at one interior point of
    the merged grid that keeps it monotone."""
    grid = sorted({x for c in comps for x, _ in c.breakpoints} - {0, 1})
    for i, c in enumerate(comps):
        for x in grid:
            for step in (TINY, -TINY):
                pts = {px: py for px, py in c.breakpoints}
                pts[x] = c(x) + step
                try:
                    moved = PLMono(tuple(pts.items()))
                except InputError:
                    continue
                yield comps[:i] + (moved,) + comps[i + 1:], x


@given(seeds, st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_canonical_check_matches_rebuilt_mean(seed, n):
    rng = random.Random(seed)
    t = random_tuple(rng, n)
    raw = [rng.randrange(1, 6) for _ in range(n)]
    w = tuple(F(r, sum(raw)) for r in raw)
    ct, _ = canonicalize(t, w)
    assert _same_verdict(ct.components, w) == "accepted"
    _same_verdict(t.components, w)
    for moved, x in _moved_once(ct.components):
        assert _same_verdict(moved, w) == MEAN_MISSED
        assert sum(wi * c(x) for wi, c in zip(w, moved)) != x


def test_canonical_check_slope_boundary():
    w = (F(1, 3), F(2, 3))
    flat = PLMono(((0, 0), (F(1, 6), 0), (1, 1)))
    steep = PLMono(((0, 0), (F(1, 6), F(1, 2)), (1, 1)))  # slope exactly 1/w
    assert _same_verdict((steep, flat), w) == "accepted"
    # steeper than 1/w by 2^-40: with monotone components that already
    # moves the mean off the identity, so both rules give its message
    steeper = PLMono(((0, 0), (F(1, 6), F(1, 2) + TINY / 6), (1, 1)))
    assert max_slope(steeper) == 3 + TINY
    assert _same_verdict((steeper, flat), w) == MEAN_MISSED


def test_canonical_check_rejects_bad_weights_as_before():
    pair = (identity(), identity())
    for weights in ((F(3, 2), F(-1, 2)), (F(1, 2), F(1, 3)), (F(1, 2),), (0, 1)):
        assert _same_verdict(pair, weights) != "accepted"


# --- value types


def test_value_types_compare_and_hash_by_fields():
    with pytest.raises(InputError, match="not a monotone map"):
        CanonicalTuple(("x",), (1,))
    lo, hi = extreme_pair(I14)
    ct = CanonicalTuple((lo, hi), uniform_weights(2))
    assert isinstance(ct, MonoTuple)
    assert MonoTuple((lo, hi)) != ct and ct != MonoTuple((lo, hi))
    pair = (identity(), identity())
    assert CanonicalTuple(pair, (F(1, 3), F(2, 3))) != CanonicalTuple(pair, uniform_weights(2))
    assert pseudo_inverse(identity()) != identity()
    assert PLMono(identity().breakpoints) == identity()
    equal_values = [
        (pseudo_inverse(lo), pseudo_inverse(PLMono(lo.breakpoints))),
        (roelcke_coord(ct), RoelckeCoord(roelcke_coord(ct).breakpoints)),
        (GapSet((I14,)), merge_gaps([I14, (F(1, 3), F(1, 2))])),
        (MonoTuple((lo, hi)), ct.as_tuple()),
        (ct, CanonicalTuple([lo, hi], ("1/2", "1/2"))),
    ]
    for a, b in equal_values:
        assert a is not b and a == b and hash(a) == hash(b)


# --- slope bounds


def test_lipschitz_constant_worked():
    lo, hi = extreme_pair(I14)
    ct, _ = canonicalize(MonoTuple((lo, hi)))
    assert lipschitz_constant(ct, 0) == 2
    assert lipschitz_constant(ct, 1) == 2
    with pytest.raises(InputError):
        lipschitz_constant(ct, 2)
    # any sequence of maps, and only an int index (a bool is not one)
    assert lipschitz_constant([lo, hi], 1) == max_slope(hi)
    with pytest.raises(InputError, match="components must be an iterable"):
        lipschitz_constant(None, 0)
    for i in (None, True, 1.0, "0"):
        with pytest.raises(InputError, match="component index must be an int"):
            lipschitz_constant(ct, i)


def test_identity_tuple_slopes():
    ct, _ = canonicalize(MonoTuple((identity(), identity(), identity())))
    assert all(lipschitz_constant(ct, i) == 1 for i in range(3))


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_random_triple_slope_bound(seed):
    rng = random.Random(seed)
    ct, _ = canonicalize(random_tuple(rng, 3))
    assert all(lipschitz_constant(ct, i) <= 3 for i in range(3))


# --- pair coordinates


def test_coord_of_identity_pair_is_zero():
    ct, _ = canonicalize(MonoTuple((identity(), identity())))
    rc = roelcke_coord(ct)
    assert rc.breakpoints == ((F(0), F(0)), (F(1), F(0)))


def test_coord_of_extreme_pair_is_tent():
    lo, hi = extreme_pair(I14)
    ct, _ = canonicalize(MonoTuple((lo, hi)))
    rc = roelcke_coord(ct)
    assert rc(F(1, 2)) == F(-1, 4)
    assert min(y for _, y in rc.breakpoints) == F(-1, 4)


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_coord_round_trip(seed):
    rng = random.Random(seed)
    t = random_tuple(rng, 2)
    ct, _ = canonicalize(t)
    assert coord_to_pair(roelcke_coord(ct)) == ct


def test_coord_requires_pairs():
    ct, _ = canonicalize(MonoTuple((identity(),)))
    with pytest.raises(InputError):
        roelcke_coord(ct)
    f = PLMono(((0, 0), (F(1, 2), F(1, 4)), (1, 1)))
    for pair in (MonoTuple((identity(), f)), [identity(), identity()]):  # not canonical tuples
        with pytest.raises(InputError, match="pairs with equal weights"):
            roelcke_coord(pair)
    for coord in ([1, 2], None, identity()):  # not coordinates
        with pytest.raises(InputError, match="needs a RoelckeCoord"):
            coord_to_pair(coord)


def _reference_coord(c):
    """roelcke_coord through Fractions, as before the int pairs."""
    return RoelckeCoord(tuple((x, y - x) for x, y in c.components[0].breakpoints))


def _reference_pair(rc):
    """coord_to_pair through Fractions, as before the int pairs."""
    first = PLMono(tuple((x, x + y) for x, y in rc.breakpoints))
    second = PLMono(tuple((x, x - y) for x, y in rc.breakpoints))
    return CanonicalTuple((first, second), uniform_weights(2))


def _coord_pair(rng, kind):
    """A canonical pair of random_tuple maps, or of coprime_map maps over
    two of COPRIME_DENS (100 digits)."""
    if kind == "random":
        t = random_tuple(rng, 2)
    else:
        t = MonoTuple(tuple(coprime_map(rng, d) for d in rng.sample(COPRIME_DENS, 2)))
    return canonicalize(t)[0]


@given(seeds, st.sampled_from(["random", "coprime"]))
@settings(max_examples=30, deadline=None)
def test_roelcke_coord_matches_fraction_reference(seed, kind):
    with no_fraction_view():  # no Fraction built
        ct = _coord_pair(random.Random(seed), kind)
        rc = roelcke_coord(ct)
    ref = _reference_coord(ct)
    assert rc == ref  # equal reduced pairs
    assert coord_to_pair(rc) == _reference_pair(ref) == ct


@given(seeds, st.sampled_from(["random", "coprime"]))
@settings(max_examples=30, deadline=None)
def test_coord_to_pair_matches_fraction_reference(seed, kind):
    ct = _coord_pair(random.Random(seed), kind)
    rc = _reference_coord(ct)
    pair = coord_to_pair(rc)
    assert pair == _reference_pair(rc) == ct  # equal reduced pairs
    assert roelcke_coord(pair) == rc


def test_coord_validation():
    with pytest.raises(InputError):
        RoelckeCoord(((0, 0), (F(1, 2), F(3, 4)), (1, 0)))  # slope > 1
    with pytest.raises(InputError):
        RoelckeCoord(((0, 0), (1, F(1, 8))))  # does not vanish at 1


# --- group embedding


def test_embed_identity():
    ct = embed_homeo(identity())
    assert ct.components == (identity(), identity())


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_embed_slope_bound(seed):
    rng = random.Random(seed)
    ct = embed_homeo(random_homeo(rng))
    assert max_slope(ct[0]) <= 2 and max_slope(ct[1]) <= 2


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_embed_injective_smoke(seed):
    rng = random.Random(seed)
    g, h = random_homeo(rng), random_homeo(rng)
    if g != h:
        assert embed_homeo(g) != embed_homeo(h)


def test_embed_rejects_non_homeo():
    lo, _ = extreme_pair(I14)
    with pytest.raises(InputError):
        embed_homeo(lo)


# --- sizes: each lcm spans the values of one grid point


def test_canonicalize_lcms_stay_local(monkeypatch):
    # A probe tuple with coprime 100-digit denominators: an lcm over all
    # its points holds over 20,000 bits, one grid point's about 2,000.
    # combine's running lcm is built by gcd, so both kernels' arguments
    # and results are recorded.
    taken = []

    def recording(kernel):
        def call(*args):
            r = kernel(*args)
            taken.extend((*args, r))
            return r
        return call

    monkeypatch.setattr(plcore, "lcm", recording(math.lcm))
    monkeypatch.setattr(plcore, "gcd", recording(math.gcd))
    c, _ = canonicalize(probe_tuple(random.Random(1)))
    xs, rows = tabulated(c.components)
    point_bits = max(sum(v.denominator.bit_length() for v in point) for point in zip(xs, *rows))
    assert taken
    assert max(d.bit_length() for d in taken) <= point_bits
