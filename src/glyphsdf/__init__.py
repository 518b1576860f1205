"""Glyphs as neurally-encoded multi-channel signed distance fields.

The package imports none of its submodules, so the command-line entry
point can pin BLAS thread counts (for bit-reproducible runs) before numpy
loads.
"""

__version__ = "0.1.0"
