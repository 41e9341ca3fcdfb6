"""Exception hierarchy shared by all vallab modules.

Every domain error carries the name of the violated predicate so the CLI
can report it verbatim (exit status 3).  ``CrossCheckError`` is reserved
for engine/oracle disagreement, which is always a bug (exit status 4).
"""


class VallabError(Exception):
    """Base class for all library errors."""


class ZeroIdealError(VallabError):
    """An operation received the zero ideal (empty generator set)."""


class DimensionCapError(VallabError):
    """Ambient dimension exceeds the configured combinatorial cap."""


class DimensionMismatchError(VallabError):
    """Objects of different ambient dimensions were mixed."""


class NegativityViolationError(VallabError):
    """Negative mixing weight drove a candidate numerator below zero."""

    def __init__(self, message, ray=None):
        super().__init__(message)
        self.ray = ray


class NotAMinimizerError(VallabError):
    """The given valuation does not attain the jumping number."""


class InfiniteLctError(VallabError):
    """A finite jumping number was required but the value is infinite."""


class DomainError(VallabError):
    """Argument outside the domain of a piecewise-linear function."""


class NonUniqueMinimizerError(VallabError):
    """Certification refused: a non-proportional minimizing ray exists."""

    def __init__(self, message, rays=()):
        super().__init__(message)
        self.rays = tuple(rays)


class NormalizationError(VallabError):
    """A normalization identity required by a construction fails."""


class OutOfRangeError(VallabError):
    """Skewness parameter outside the stored path."""


class ParseError(VallabError):
    """Malformed CLI input; ``offset`` is the byte position if known."""

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


class MixedVariableSetsError(ParseError):
    """Named (x,y,z) and indexed (x1..xn) variables were mixed."""


class CrossCheckError(VallabError):
    """Engine and independent oracle disagree; always a bug."""
