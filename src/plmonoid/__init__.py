"""Exact calculus of monotone piecewise-linear interval maps.

The monoid of continuous weakly increasing surjections of [0, 1],
represented exactly by rational breakpoints: composition, pseudo-
inverses, uniform distances and the order predicate; canonical tuple
representatives and their coordinates; quotient distances between
tuples up to monotone reparameterization, with an exact free-space
decision procedure and an independent grid oracle; and the gap
calculus of reparameterization-invariant pseudo-distances.

plcore and typespace load with the package.  quotdist and gaps load
together on the first access to one of their names, to ``__all__`` (as
``from plmonoid import *`` makes) or to either module, so that a
process that needs neither does not import them.
"""

import sys
from importlib import import_module
from types import ModuleType

from . import plcore, typespace
from .plcore import *
from .typespace import *

__version__ = "0.1.0"

_LAZY = ("quotdist", "gaps")
# Submodules the hook leaves to the import system: ``from . import
# serialize`` asks the package for the name before it imports the module.
_SUBMODULES = ("serialize", "explorer")


class _Package(ModuleType):
    """The package module, with a hook for the names it does not hold yet."""

    def __getattr__(self, name):
        if name in _SUBMODULES or name.startswith("__") and name != "__all__" or "__all__" in vars(self):
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        quotdist, gaps = (import_module(f"{__name__}.{m}") for m in _LAZY)
        __all__ = [*plcore.__all__, *typespace.__all__, *quotdist.__all__, *gaps.__all__, "__version__"]
        vars(self).update({n: getattr(m, n) for m in (quotdist, gaps) for n in m.__all__}, __all__=__all__)
        return getattr(self, name)


sys.modules[__name__].__class__ = _Package
