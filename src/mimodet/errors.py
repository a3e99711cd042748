"""Exception types shared across the package."""


class MimoDetError(Exception):
    """Base class for all package errors."""


class SingularChannelError(MimoDetError):
    """Channel matrix is (numerically) rank deficient."""


class DegenerateChannelError(MimoDetError):
    """Projection step collapsed a column; no valid punctured decomposition."""


class MinimaMismatchError(MimoDetError):
    """The two one-sided lists of a 2-layer detection attain different minima."""


class EnumerationBudgetError(MimoDetError):
    """Requested exhaustive enumeration exceeds the enumeration budget."""


class ConfigError(MimoDetError):
    """Invalid simulation configuration."""


class ShadowOracleMismatch(MimoDetError):
    """Detector output disagreed with the shadow oracle beyond tolerance."""

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record or {}
