"""Exact calculus of monotone piecewise-linear interval maps.

The monoid of continuous weakly increasing surjections of [0, 1],
represented exactly by rational breakpoints: composition, pseudo-
inverses, uniform distances and the order predicate; canonical tuple
representatives and their coordinates; quotient distances between
tuples up to monotone reparameterization, with an exact free-space
decision procedure and an independent grid oracle; and the gap
calculus of reparameterization-invariant pseudo-distances.
"""

from . import gaps, plcore, quotdist, typespace
from .plcore import *
from .typespace import *
from .quotdist import *
from .gaps import *

__version__ = "0.1.0"

__all__ = [*plcore.__all__, *typespace.__all__, *quotdist.__all__, *gaps.__all__, "__version__"]
