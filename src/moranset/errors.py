"""Exception hierarchy shared by all moranset modules.

Each class maps to a distinct CLI exit code (see cli.EXIT_CODES).
"""


class MoranError(Exception):
    """Base class for all moranset errors."""


class ConfigError(MoranError):
    """Malformed configuration or unknown preset/subcommand parameter."""


class RuleEvalError(MoranError):
    """A sequence rule could not be evaluated at some level."""

    def __init__(self, name: str, k: int, reason: str = ""):
        self.name = name
        self.k = k
        msg = f"rule {name!r} not evaluable at level k={k}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


class InvalidSpecError(MoranError):
    """A construction parameter violates the structural constraints."""


class InconsistentSpecError(MoranError):
    """Derived quantities are inconsistent (e.g. negative slack)."""


class BudgetExceededError(MoranError):
    """Materialization would exceed the configured node budget."""


class DegenerateSpecError(MoranError):
    """A constructed interval (trimmed or image) has non-positive length."""


class ConditionInapplicableError(MoranError):
    """A dimension condition certificate is not applicable (e.g. a zero gap)."""


class DomainError(MoranError):
    """An operation was invoked on arguments outside its mathematical domain."""


class RegimeError(MoranError):
    """An audit was requested outside the exponent regime where its bound holds."""


class PrecisionError(MoranError):
    """Floating-point precision too low to represent a nondegenerate quantity."""

