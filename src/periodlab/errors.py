"""Exception hierarchy.

Two broad classes: ``ValidationError`` for inputs that violate a documented
precondition (caller bug, fixable before any numerics run), and
``NumericalError`` for failures detected while computing (loss of clearance,
non-convergence, a near-integer check that does not resolve).  The command
line maps the former to exit code 2 and the latter to exit code 3.
"""


class PeriodLabError(Exception):
    """Base class for all periodlab errors."""


class ValidationError(PeriodLabError):
    """Input violates a documented precondition."""


class NumericalError(PeriodLabError):
    """A numerical procedure failed to reach its contract."""


class StepUnderflow(NumericalError):
    """Adaptive step size fell below the machine-scaled floor."""


class NonFiniteRHS(NumericalError):
    """An evaluator produced NaN or Inf."""


class NonConvergent(NumericalError):
    """Refinement exhausted its budget without meeting the tolerance."""


class NearDiscriminant(NumericalError):
    """Parameters too close to the discriminant locus for reliable work."""


class NonIntegralMonodromy(NumericalError):
    """Transported matrix failed the near-integer test."""


class NearCusp(NumericalError):
    """A modular value near a cusp lies outside the float range."""


class DegenerateFiltration(NumericalError):
    """Filtration does not split into a direct-sum decomposition."""


class RankDeficient(NumericalError):
    """Projected lattice has lower real rank than required."""


class ClearanceViolation(ValidationError):
    """Path comes closer to the discriminant locus than its clearance."""


class ZeroLambda(ValidationError):
    """Scaling parameter must be nonzero."""


class ZeroT0(ValidationError):
    """Leading family coefficient must be nonzero."""


class RealTau(ValidationError):
    """Upper or lower half plane required; real values are degenerate."""


class NotInGroup(ValidationError):
    """Matrix does not preserve the integral bilinear form."""


class UnsupportedType(ValidationError):
    """No construction implemented for this combination of invariants."""


class StabilizerMismatch(ValidationError):
    """Claimed stabilizer does not leave the functional invariant."""


class SizeMismatch(ValidationError):
    """Matrix dimensions incompatible with the bilinear form."""
