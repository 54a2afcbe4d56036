"""Combinatorics of planar level trees and rational configuration spaces.

The layers, bottom up: ``simplex`` (monotone maps and the circle
construction into pointed sets), ``theta`` (level trees, wreath
morphisms, classification, pruning, enumeration), ``config``
(rational configurations, exact exit-path validation, the tree functor),
``homology`` (finite categories, nerves, Smith normal form), and
``harness`` (seeded suites and reports).  The ``theta-ran`` console
script fronts all of it.  Each name is imported from its module, as in
``from thetaran.theta import parse_tree``.
"""
