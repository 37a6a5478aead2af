"""Numerical toolkit for the 1-D coupled wave-heat interface system.

Quantitative verification, at desk scale, of the spectral structure,
resolvent growth and energy-decay rate of the coupled system: a vibrating
string on [-1, 0] joined at the origin to a diffusive rod on [0, 1],
with Neumann or Dirichlet conditions at the far string end.
"""

__version__ = "0.1.0"
