"""Exception types shared across the package."""


class DimensionCapError(ValueError):
    """Requested operator dimension exceeds the configured cap."""


class ContractViolationError(ValueError):
    """An input failed a documented precondition (shape, symmetry, norm, ...)."""


class NotPsdError(ContractViolationError):
    """Matrix has an eigenvalue below the negativity floor."""


class UnsupportedStrategyError(ValueError):
    """Server strategy outside the supported closed set."""


class OutOfDomainError(ValueError):
    """Numeric argument outside its valid domain."""


class LayoutError(ValueError):
    """Comb wiring inconsistent with the plugged channels or test objects."""


class ConfigError(ValueError):
    """One or more scenario-config fields failed validation."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))
