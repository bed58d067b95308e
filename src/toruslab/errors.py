"""Exception hierarchy.

Everything raised on purpose by this package derives from ToruslabError, so
callers can catch one type at the CLI boundary. Numerical failures that carry
useful state (escape time, partial trajectories) attach it as attributes.
"""


class ToruslabError(Exception):
    """Base class for all errors raised by toruslab."""


class InvalidValue(ToruslabError):
    """A scalar or array argument is out of range, non-finite, or malformed."""


class InvalidParams(ToruslabError):
    """System parameters violate a family's constraints."""


class LayoutMismatch(ToruslabError):
    """Two objects disagree on coordinate layout (dimension or labels)."""


class NotHamiltonian(ToruslabError):
    """A Hamiltonian-only operation was applied to a reversible family."""


class NotCompact(ToruslabError):
    """A compact-only operation was applied to a non-compact family."""


class DegenerateOffset(ToruslabError):
    """A nearby-torus offset has non-positive defect and carries no torus."""


class DomainNotCertified(ToruslabError):
    """A survey domain is not contained in the certified isolation domain."""


# ---------------------------------------------------------------------------
# expression DSL

class DslError(ToruslabError):
    """Base for tokenizer/parser errors; carries a character offset."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None
                         else f"{message} (offset {position})")
        self.position = position


class LexError(DslError):
    pass


class ParseError(DslError):
    pass


class SimplifyError(ToruslabError):
    """Simplification hit an expression with no defined value (e.g. x/0)."""


class EvalError(ToruslabError):
    """Expression evaluation failed (division by zero, bad binding shape)."""


class UnboundVar(EvalError):
    """Evaluation reached a variable with no binding."""


class PairingError(ToruslabError):
    """A canonical pairing is inconsistent or does not cover an expression."""


# ---------------------------------------------------------------------------
# integration

class IntegrationError(ToruslabError):
    pass


class NumericalBlowup(IntegrationError):
    """State left the finite range during integration.

    Attributes
    ----------
    time : float
        Integration time at which escape was detected.
    """

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class StepBudgetExceeded(IntegrationError):
    """The step-count cap was reached before the requested end time."""


class ConvergenceFailure(IntegrationError):
    """An adaptive step failed to converge."""


# ---------------------------------------------------------------------------
# analysis

class NoReturn(ToruslabError):
    """A Poincare orbit failed to re-cross the section within the horizon."""


class TangentCrossing(ToruslabError):
    """A located section crossing is tangential (angular rate ~ 0)."""


class InsufficientData(ToruslabError):
    """A trajectory is too short to certify circulation or its absence."""


class EmptyPlot(ToruslabError):
    """plot_svg called with no series."""
