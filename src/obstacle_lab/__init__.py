"""Numerical laboratory for the obstacle problem on structured grids.

Solves Delta u = chi{u > 0} with u >= 0 by monotone multigrid or projected
SOR and measures free-boundary geometry near singular points: blow-up
classification, weighted two-phase monotonicity functionals, cross-section
diameters, direction fields, and reference ellipsoids.
"""

__version__ = "0.1.0"
