"""Exception types raised across the library.

Every cap or precondition violation has its own class so callers (and the
CLI's exit-code mapping) can distinguish bad input from blown caps from
internal bugs.
"""


class CommeqError(Exception):
    """Base class for all library errors."""


class BadInput(CommeqError):
    """Malformed or inconsistent user input (files, vectors, dims)."""


class NotStochastic(BadInput):
    """A vector that must be a probability distribution is not one."""


class RewardOutOfRange(BadInput):
    """A learner was fed a reward outside its declared range."""


class BadDims(BadInput):
    """Dimension parameters are inconsistent (e.g. T not divisible by B)."""


class SupportTooLarge(CommeqError):
    """An explicit strategy-space enumeration exceeds the configured cap."""


class EnumerationTooLarge(CommeqError):
    """An exact-expectation enumeration exceeds the configured cap."""


class NoConvergence(CommeqError):
    """Fixed-point computation failed to converge within its budget."""

    def __init__(self, iterations, residual):
        super().__init__(f"no fixed point after {iterations} iterations (residual {residual:.3e})")
        self.iterations = iterations
        self.residual = residual


class NotValidOnX(CommeqError):
    """A claimed policy-space linear map sends some vertex policy outside the space."""


class NotShiftable(CommeqError):
    """Row shifting failed to land in [0,1]; indicates an internal bug, never valid input."""


class NumericallyAmbiguous(CommeqError):
    """Feasibility landed inside the ambiguity band; neither verdict is safe."""


class AuditError(CommeqError):
    """An exact accounting identity failed beyond tolerance (internal invariant)."""


class AssumptionViolated(BadInput):
    """A price-of-anarchy op was called on a game violating its standing assumptions."""


class NotAnEquilibrium(CommeqError):
    """The distribution handed to a POA report is not an equilibrium at the given tolerance."""
