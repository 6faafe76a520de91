"""Exception types shared across walklab, and the integer check of its
public entry points."""

import numbers


class ValidationError(ValueError):
    """Invalid model parameters or argument preconditions."""


class DomainError(ValueError):
    """Argument outside the domain of convergence of a transform."""


class BudgetError(RuntimeError):
    """A computation would exceed its state / step / precision budget."""


def require_integers(low=None, /, **values) -> None:
    """Refuse with a ValidationError naming it each of the named values
    that is not an integer (an int, a bool or a NumPy integer), or that
    lies below `low` when one is given."""
    for name, value in values.items():
        if not isinstance(value, numbers.Integral):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
        if low is not None and value < low:
            raise ValidationError(f"{name} must be >= {low}, got {value}")
