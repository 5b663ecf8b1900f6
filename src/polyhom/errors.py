"""Exception and warning taxonomy shared by all modules.

Validation errors signal bad inputs or unsupported requests; numerical
errors signal that a computation started but could not finish reliably.
The CLI maps the former to exit code 1 and the latter to exit code 2.
"""


class PolyhomError(Exception):
    pass


class ValidationError(PolyhomError):
    pass


class NumericalError(PolyhomError):
    pass


# -- geometry ---------------------------------------------------------------

class BadNormal(ValidationError):
    """Normal vector is not unit length within tolerance."""


class Unbounded(ValidationError):
    """Half-space intersection is not bounded."""


class EmptyInterior(ValidationError):
    """Half-space intersection has no strictly feasible point."""


class DuplicateHalfSpace(ValidationError):
    """Two half-spaces coincide within tolerance."""


class OutsideDomain(ValidationError):
    """Query point lies outside the closed polytope."""


class UnsupportedDimension(ValidationError):
    """Operation not implemented for this ambient dimension."""


class OffHyperplane(ValidationError):
    """Point does not lie on the face's hyperplane."""


class ZeroNormalComponent(ValidationError):
    """Eliminated coordinate has a vanishing normal component."""


# -- periodic / oscillatory -------------------------------------------------

class DimensionMismatch(ValidationError):
    """Frequency vectors or points disagree with the declared dimension."""


class NotApplicable(ValidationError):
    """Requested quantity is undefined for these inputs."""


class BudgetExceeded(NumericalError):
    """Refinement would exceed the configured work cap."""


# -- fem / harness ----------------------------------------------------------

class NoConvergence(NumericalError):
    """Iterative linear solve stagnated before reaching tolerance."""


class NonSymmetricCoefficients(ValidationError):
    """Coefficient matrix is not symmetric."""


class DegenerateFit(ValidationError):
    """Rate fit needs at least three strictly positive data points."""


# -- warnings ---------------------------------------------------------------

class DegenerateFaceWarning(UserWarning):
    """A half-space touches the polytope in a measure-zero set."""


class RenormalizedNormalWarning(UserWarning):
    """A loaded normal deviated from unit length by more than 1e-8."""


class NonDiophantineWarning(UserWarning):
    """A face normal failed Diophantine certification (rational hit)."""
