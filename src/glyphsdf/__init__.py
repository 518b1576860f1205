"""Glyphs as neurally-encoded multi-channel signed distance fields.

The package imports none of its submodules, so :mod:`glyphsdf.cli`, the
command-line entry point, loads before numpy and pins BLAS to one thread
per call; a caller that loaded numpy first keeps the pin BLAS read.
"""

__version__ = "0.1.0"
