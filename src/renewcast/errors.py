"""Exception hierarchy shared by all renewcast modules.

One class per CLI exit code: ConfigError maps to exit 2, DataError to
exit 3 and ModelError to exit 4. Each message names its fault.
"""


class RenewcastError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(RenewcastError):
    """Invalid run configuration, or an output that cannot be written."""


class DataError(RenewcastError):
    """Malformed, missing or out-of-contract input data."""


class ModelError(RenewcastError):
    """Numerical or model-contract failure."""
