"""Wire formats: bit-exact round trips and input diagnostics."""

import random
from fractions import Fraction as F

import pytest

from plmonoid import (
    GapSet,
    InputError,
    MonoTuple,
    canonicalize,
    identity,
    merge_gaps,
    roelcke_coord,
)
from plmonoid import serialize as ser
from plmonoid.explorer import random_homeo, random_mono, random_point, random_tuple


def test_frac_strings():
    assert ser.frac_str(F(1, 4)) == "1/4"
    assert ser.frac_str(F(0)) == "0"
    assert ser.frac_str(F(2)) == "2"
    assert ser.parse_frac("1/4") == F(1, 4)
    assert ser.parse_frac("-3/7") == F(-3, 7)


def test_parse_frac_rejections():
    with pytest.raises(InputError):
        ser.parse_frac("1/0")
    with pytest.raises(InputError):
        ser.parse_frac("a/b")
    with pytest.raises(InputError):
        ser.parse_frac(0.25)
    for bad in ("1e5", "0.5", " 1/2", "+1/2"):
        with pytest.raises(InputError):
            ser.parse_frac(bad)


def test_mono_round_trip():
    rng = random.Random(1)
    for _ in range(10):
        f = random_mono(rng)
        assert ser.mono_from_obj(ser.loads(ser.dumps(ser.mono_to_obj(f)))) == f


def test_homeo_round_trip_and_strictness():
    rng = random.Random(2)
    g = random_homeo(rng)
    assert ser.homeo_from_obj(ser.mono_to_obj(g)) == g
    plateau = {"breakpoints": [["0", "0"], ["1/4", "1/4"], ["1/2", "1/4"], ["1", "1"]]}
    with pytest.raises(InputError):
        ser.homeo_from_obj(plateau)
    assert ser.mono_from_obj(plateau) is not None


def test_tuple_round_trip_with_weights():
    rng = random.Random(3)
    t = random_tuple(rng, 3)
    w = (F(1, 2), F(1, 4), F(1, 4))
    obj = ser.loads(ser.dumps(ser.tuple_to_obj(t, w)))
    t2, w2 = ser.tuple_from_obj(obj)
    assert t2 == t and w2 == w
    t3, w3 = ser.tuple_from_obj(ser.loads(ser.dumps(ser.tuple_to_obj(t))))
    assert t3 == t and w3 is None


def test_canonical_round_trip():
    rng = random.Random(4)
    ct = random_point(rng, 3)
    assert ser.canonical_from_obj(ser.loads(ser.dumps(ser.canonical_to_obj(ct)))) == ct


def test_coord_round_trip():
    rng = random.Random(5)
    ct, _ = canonicalize(random_tuple(rng, 2))
    rc = roelcke_coord(ct)
    assert ser.coord_from_obj(ser.loads(ser.dumps(ser.coord_to_obj(rc)))) == rc


def test_gapset_round_trip():
    g = merge_gaps([(F(1, 8), F(1, 4)), (F(1, 2), F(3, 4))])
    assert ser.gapset_from_obj(ser.loads(ser.dumps(ser.gapset_to_obj(g)))) == g
    assert ser.gapset_from_obj(ser.gapset_to_obj(GapSet(()))) == GapSet(())


def test_dumps_deterministic():
    t = MonoTuple((identity(), identity()))
    assert ser.dumps(ser.tuple_to_obj(t)) == ser.dumps(ser.tuple_to_obj(t))
    assert ser.dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}\n'


def test_malformed_objects():
    with pytest.raises(InputError):
        ser.loads("{not json")
    with pytest.raises(InputError):
        ser.mono_from_obj({"points": []})
    with pytest.raises(InputError):
        ser.mono_from_obj([1, 2, 3])
    with pytest.raises(InputError):
        ser.tuple_from_obj({"components": "nope"})
    with pytest.raises(InputError):
        ser.gapset_from_obj({"gaps": [["1/2"]]})
