"""Glyphs as neurally-encoded multi-channel signed distance fields.

The package imports none of its submodules, so importing
:mod:`glyphsdf.cli`, the command-line entry point, runs its BLAS pin of one
thread per call before anything loads numpy.
"""

__version__ = "0.1.0"
