"""The package namespace: every public name of the library modules."""

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
