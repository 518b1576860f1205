"""Exception types shared across the package."""


class GlyphSdfError(Exception):
    """Base class for all package errors."""


class PathSyntaxError(GlyphSdfError):
    """Malformed glyph path text; carries the offending line/column."""

    def __init__(self, message, line, col):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class GeometryError(GlyphSdfError):
    """Degenerate or invalid geometry (zero extent, zero tangent, ...)."""


class ManifestError(GlyphSdfError):
    """Bad dataset manifest: unknown label, missing file, duplicates."""


class ConfigError(GlyphSdfError):
    """Invalid run configuration (unknown keys, bad values)."""


class NumericalError(GlyphSdfError):
    """NaN/divergence encountered during optimization."""


class CheckpointError(GlyphSdfError):
    """Unreadable, truncated or incompatible checkpoint file."""


class ImageError(GlyphSdfError, ValueError):
    """Unreadable or malformed PGM image: bad header, truncated payload."""
