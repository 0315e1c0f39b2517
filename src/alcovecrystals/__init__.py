"""Crystals for semisimple Lie algebras via alcove paths and Littelmann paths.

The package is organized bottom-up:

* :mod:`alcovecrystals.rootsys` - root systems, Weyl groups, exact arithmetic
* :mod:`alcovecrystals.chains` - chains of roots (sorted hyperplane orderings)
* :mod:`alcovecrystals.alcove` - the alcove model for highest weight crystals
  and their direct limit, in both the primal and reversed conventions
* :mod:`alcovecrystals.littelmann` - piecewise-linear path crystals
* :mod:`alcovecrystals.limits` - the maps from alcove elements to paths
* :mod:`alcovecrystals.crystalgraph` - model-agnostic crystal machinery
* :mod:`alcovecrystals.verify` - the verification suites
* :mod:`alcovecrystals.cli` - the ``alcovecrystals`` command line tool
"""

__version__ = "0.1.0"
