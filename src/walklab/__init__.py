"""Local-time and occupation-time statistics of the upward-biased
nearest-neighbor random walk on the integers.

The package provides closed-form distributions of visit counts
(closedform), their rational generating functions (genfunc), the
admissible joint-growth region and its boundary (boundary), exact
finite-horizon oracles by enumeration and dynamic programming (oracle),
a deterministic Monte Carlo engine (montecarlo), a built-in
cross-validation suite (verify) and a command-line interface (cli).

The top level holds the names of the README example and the errors;
everything else is imported from its submodule.
"""

__version__ = "0.1.0"

from .closedform import local_time_pmf
from .errors import BudgetError, DomainError, ValidationError
from .model import make_params
from .montecarlo import SimConfig, ensemble

__all__ = [
    "__version__",
    "BudgetError",
    "DomainError",
    "ValidationError",
    "make_params",
    "local_time_pmf",
    "SimConfig",
    "ensemble",
]
