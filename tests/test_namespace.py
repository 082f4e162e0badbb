"""The package namespace: every public name of the library modules."""

import inspect
from fractions import Fraction as F

import pytest

import plmonoid
from plmonoid import gaps, plcore, quotdist, typespace

# Every name that the package's __all__ held while it was written out
# by hand, with the module that defines it.
NAMES = {
    plcore: (
        "InputError", "InvariantViolation", "PLMono", "PLHomeo", "LcMono", "identity",
        "as_homeo", "inverse", "compose", "compose_lc", "pseudo_inverse", "combine",
        "sup_dist", "order_excess", "max_slope", "uniform_witness",
    ),
    typespace: (
        "MonoTuple", "CanonicalTuple", "RoelckeCoord", "uniform_weights", "mean",
        "canonicalize", "lipschitz_constant", "roelcke_coord", "coord_to_pair", "embed_homeo",
    ),
    quotdist: ("QuotInterval", "quot_decision", "quot_dist", "brute_oracle", "orbit_identity_bound"),
    gaps: (
        "GapSet", "merge_gaps", "isolated_points", "extreme_pair", "extreme_pair_all",
        "equiv_test", "collapse_map", "collapsed_dist", "pullback_pseudometric",
    ),
}


def test_every_earlier_name_is_the_modules_object():
    assert sum(map(len, NAMES.values())) + 1 == 41  # and __version__
    star: dict = {}
    exec("from plmonoid import *", star)
    for module, names in NAMES.items():
        for name in names:
            assert getattr(plmonoid, name) is getattr(module, name) is star[name]
    assert star["__version__"] == plmonoid.__version__


def test_package_all_is_the_modules_all():
    modules = (plcore, typespace, quotdist, gaps)
    assert plmonoid.__all__ == [name for m in modules for name in m.__all__] + ["__version__"]
    for m in modules:
        for name in m.__all__:
            assert getattr(plmonoid, name) is getattr(m, name)


def public_callables():
    """Every function and class that the library modules list in __all__,
    but the exception classes (the pseudo-distance type aliases are
    neither), and GapSet.union_contains on a gap set it must compare with."""
    for m in (plcore, typespace, quotdist, gaps):
        for name in m.__all__:
            obj = getattr(m, name)
            if inspect.isfunction(obj) or inspect.isclass(obj) and not issubclass(obj, Exception):
                yield f"{m.__name__.rpartition('.')[2]}.{name}", obj
    yield "GapSet.union_contains", gaps.GapSet(((F(1, 4), F(3, 4)),)).union_contains


CALLABLES = dict(public_callables())


@pytest.mark.parametrize("name", CALLABLES)
def test_none_for_every_parameter_returns_or_raises_input_error(name):
    # A wrong argument type is an InputError, never a bare TypeError,
    # AttributeError or ValueError from deep inside.
    call = CALLABLES[name]
    try:
        call(*[None] * len(inspect.signature(call).parameters))
    except plcore.InputError:
        pass
