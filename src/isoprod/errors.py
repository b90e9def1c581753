"""Exception types shared across the package.

Every error that can be triggered by bad user input derives from
:class:`IsoprodError`, which the CLI maps to exit code 2.
"""


class IsoprodError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatchError(IsoprodError):
    """Two values that must share a dimension do not."""


class LoadError(IsoprodError):
    """A file could not be parsed into a valid object."""


class EmptyDomainError(IsoprodError):
    """A sampled function must have at least one entry."""


class MissingOriginError(IsoprodError):
    """Amenability requires the origin to be a sample point."""


class NotIsotoneError(IsoprodError):
    """The operation requires an isotone (order-preserving) function."""


class NotAmenableError(IsoprodError):
    """The operation requires an amenable function."""


class CombinerDomainGapError(IsoprodError):
    """A sampled combiner lacks a distance tuple the product needs."""


class NotWellDefinedError(IsoprodError):
    """A product metric that does not factor through coordinate distances.

    Carries the two conflicting pairs of product points.
    """

    def __init__(self, message, pair_a=None, pair_b=None):
        super().__init__(message)
        self.pair_a = pair_a
        self.pair_b = pair_b


class InvalidMetricError(IsoprodError):
    """A distance matrix failed the metric axioms at construction time."""


class OffLatticeError(IsoprodError):
    """A point is not on the grid function's lattice."""


class OutOfRangeError(IsoprodError):
    """A numeric argument lies outside the operation's range."""


class NonTriadicDenominatorError(IsoprodError):
    """The argument's reduced denominator is not a power of three."""


class RationalInputError(IsoprodError):
    """The operation requires a value with a nonzero transcendental part."""


class CoverBudgetError(IsoprodError):
    """A cheapest-cover search would exceed its stated work budget."""
