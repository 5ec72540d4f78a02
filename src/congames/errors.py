"""Exception taxonomy shared by the library and the command line front end.

The CLI's exit code and stderr label for each error are the class attributes
`exit_code` and `label`; the README and the `cli` docstring point to this
copy of the table:
  2 "error"              ValidationError, ParameterError, GenerationError
  3 "budget refused"     BudgetExceededError
  4 "contract violation" ContractViolationError (a guarantee failed: a bug)
"""


class CongestionGameError(Exception):
    """Base class for all library errors."""

    exit_code = 2
    label = "error"


class ValidationError(CongestionGameError):
    """Malformed game, state, strategy index, or latency input."""


class ParameterError(CongestionGameError):
    """Solver parameters cannot be formed (e.g. instance too small for psi)."""


class BudgetExceededError(CongestionGameError):
    """An exhaustive enumeration would exceed the configured state budget."""

    exit_code = 3
    label = "budget refused"


class ContractViolationError(CongestionGameError):
    """A bound that is supposed to be a theorem was breached at runtime."""

    exit_code = 4
    label = "contract violation"


class GenerationError(CongestionGameError):
    """Random instance generation could not satisfy the requested shape."""
