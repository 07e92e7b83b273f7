"""Exception types raised by the selection engine and its oracles."""


class RaiError(Exception):
    """Base class for all package-specific errors."""


class AllColumnsConstant(RaiError):
    """Every predictor column was constant; nothing to standardize."""


class ConstantResponse(RaiError):
    """The response has zero variance; selection is undefined."""


class CollinearFeature(RaiError):
    """A column lies in the span of the current basis (within tolerance)."""


class SingularSubset(RaiError):
    """A subset of columns is rank deficient."""


class SingularStep(RaiError):
    """Forward stepwise found no addable column (all remaining collinear)."""


class BudgetExceeded(RaiError):
    """An enumeration would exceed the configured subset budget."""


class AllSubsetsSingular(RaiError):
    """Every candidate subset was numerically singular."""


class DegenerateTerms(RaiError):
    """A true-model term column is constant; coefficients cannot be scaled."""


class LengthMismatch(RaiError):
    """Two vectors that must align have different lengths."""
