"""Exception hierarchy shared by all renewcast modules.

Three branches matter for the CLI exit-code contract: ConfigError maps to
exit 2, DataError to exit 3 and ModelError to exit 4.
"""


class RenewcastError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(RenewcastError):
    """Invalid run configuration."""


class ConfigInvalid(ConfigError):
    pass


class OutputUnwritable(ConfigError):
    pass


class DataError(RenewcastError):
    """Malformed, missing or out-of-contract input data."""


class DatasetMissing(DataError):
    pass


class EmptySeries(DataError):
    pass


class DuplicateYear(DataError):
    pass


class UnitMismatch(DataError):
    pass


class NonPositiveValue(DataError):
    pass


class MalformedRow(DataError):
    pass


class MissingYear(DataError):
    pass


class UnknownConstant(DataError):
    pass


class ModelError(RenewcastError):
    """Numerical or model-contract failure."""


class TooFewPoints(ModelError):
    pass


class DegreeZero(ModelError):
    pass


class NonGrowingSeries(ModelError):
    pass


class YearBeforeWindow(ModelError):
    pass


class CapacityFactorOutOfRange(ModelError):
    pass


class NegativeDemand(ModelError):
    pass


class NonPositiveDensity(ModelError):
    pass


class EmptyCombination(ModelError):
    pass


class NonMonotoneProjection(ModelError):
    pass


class LevelNotMet(ModelError):
    pass


class ParallelGrowth(ModelError):
    pass


class NotExponential(ModelError):
    pass


class PositiveSlope(ModelError):
    pass


class NonPositiveX(ModelError):
    pass


class ParallelLines(ModelError):
    pass


class MissingFit(ModelError):
    pass
