"""JSON wire formats with exact rational coordinates.

Every number crosses the boundary as a "p/q" string (or "p" for
integers), so round trips are bit-exact.  The formats:

* monotone map       {"breakpoints": [["0", "0"], ["1/4", "1/4"], ...]}
* tuple              {"components": [<map>, ...], "weights": ["1/2", ...]}
                     (weights optional; canonical tuples add "canonical": true)
* coordinate         {"coord": [["0", "0"], ["1/2", "-1/4"], ...]}
* gap set            {"gaps": [["1/4", "3/4"], ...]}
* distance bracket   {"lo": "p/q", "hi": "p/q", "decisions": n}
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .plcore import InputError, PLHomeo, PLMono
from .typespace import CanonicalTuple, MonoTuple, RoelckeCoord, Weights, uniform_weights

if TYPE_CHECKING:  # gaps and quotdist load on first use, not with this module
    from .gaps import GapSet
    from .quotdist import QuotInterval

__all__ = [
    "frac_str",
    "parse_frac",
    "mono_to_obj",
    "mono_from_obj",
    "homeo_from_obj",
    "tuple_to_obj",
    "tuple_from_obj",
    "canonical_to_obj",
    "canonical_from_obj",
    "coord_to_obj",
    "coord_from_obj",
    "gapset_to_obj",
    "gapset_from_obj",
    "interval_to_obj",
    "dumps",
    "loads",
]


def frac_str(x) -> str:
    x = Fraction(x)
    try:
        return str(x)
    except ValueError as exc:  # only Pythons with the digit limit raise it here
        limit = sys.get_int_max_str_digits()
        raise InputError(f"a number in the result has more than {limit} digits, "
                         "the int-to-str limit (sys.set_int_max_str_digits)") from exc


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_frac(s) -> Fraction:
    """Exact value of a "p/q" or "p" string; nothing else is accepted, so
    no exponent or decimal can expand into a huge integer.  Messages echo
    at most 60 characters of a rejected value."""
    if not isinstance(s, str):
        raise InputError(f"rationals must be strings like '1/4', got {s!r:.60}")
    m = _RATIONAL.fullmatch(s)
    if m is None:
        raise InputError(f"bad rational {s!r:.60}")
    num, den = m.groups()
    try:
        return Fraction(int(num), int(den or 1))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {s!r:.60}") from exc


def _point_list(pairs) -> list[list[str]]:
    return [[frac_str(x), frac_str(y)] for x, y in pairs]


def _require_dict(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def _points(obj, what: str, key: str) -> tuple[tuple[Fraction, Fraction], ...]:
    """The [x, y] pairs under ``key`` of the JSON object for ``what``, as given."""
    obj = _require_dict(obj, what)
    if key not in obj:
        raise InputError(f"missing {key!r}")
    pairs = obj[key]
    if not isinstance(pairs, list) or not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise InputError(f"{key!r} must be a list of [x, y] pairs")
    return tuple((parse_frac(x), parse_frac(y)) for x, y in pairs)


def mono_to_obj(f: PLMono) -> dict:
    return {"breakpoints": _point_list(f.breakpoints)}


def mono_from_obj(obj) -> PLMono:
    return PLMono(_points(obj, "a monotone map", "breakpoints"))


def homeo_from_obj(obj) -> PLHomeo:
    return PLHomeo(_points(obj, "a homeomorphism", "breakpoints"))


def tuple_to_obj(t: MonoTuple, weights: Weights | None = None) -> dict:
    out: dict = {"components": [mono_to_obj(c) for c in t]}
    if weights is not None:
        out["weights"] = [frac_str(w) for w in weights]
    return out


def tuple_from_obj(obj) -> tuple[MonoTuple, Weights | None]:
    obj = _require_dict(obj, "a tuple")
    if "components" not in obj or not isinstance(obj["components"], list):
        raise InputError("missing or malformed 'components'")
    comps = tuple(mono_from_obj(c) for c in obj["components"])
    weights = None
    if "weights" in obj:
        if not isinstance(obj["weights"], list):
            raise InputError("'weights' must be a list")
        weights = tuple(parse_frac(w) for w in obj["weights"])
    return MonoTuple(comps), weights


def canonical_to_obj(ct: CanonicalTuple) -> dict:
    out = tuple_to_obj(ct, ct.weights)
    out["canonical"] = True
    return out


def canonical_from_obj(obj) -> CanonicalTuple:
    t, weights = tuple_from_obj(obj)
    if weights is None:
        weights = uniform_weights(len(t))
    return CanonicalTuple(t.components, weights)


def coord_to_obj(rc: RoelckeCoord) -> dict:
    return {"coord": _point_list(rc.breakpoints)}


def coord_from_obj(obj) -> RoelckeCoord:
    return RoelckeCoord(_points(obj, "a coordinate", "coord"))


def gapset_to_obj(g: GapSet) -> dict:
    return {"gaps": _point_list(g.gaps)}


def _gap_pairs(obj) -> tuple[tuple[Fraction, Fraction], ...]:
    """The [lo, hi] pairs of a gap-set object as given, not yet merged."""
    return _points(obj, "a gap set", "gaps")


def gapset_from_obj(obj) -> GapSet:
    from .gaps import GapSet

    return GapSet(_gap_pairs(obj))


def interval_to_obj(qi: QuotInterval) -> dict:
    return {"lo": frac_str(qi.lo), "hi": frac_str(qi.hi), "decisions": qi.decisions}


def dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def loads(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # a decode error, or an int beyond sys.get_int_max_str_digits()
        raise InputError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError("malformed JSON: nested too deeply") from exc
