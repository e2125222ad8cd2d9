"""Exception types shared across the package."""


class InvalidArgument(ValueError):
    """An argument violates a documented precondition."""


class InvalidInterval(InvalidArgument):
    """A time interval (t, s) with s <= t where s > t is required."""


class UnsupportedOrder(InvalidArgument):
    """A derivative order beyond what the operation supports."""


class IllConditionedKernel(ArithmeticError):
    """The accumulated covariance matrix is numerically singular."""


class AssumptionViolation(ValueError):
    """Problem data violates an ellipticity / boundedness / Lipschitz assumption."""


class SingularRegression(ArithmeticError):
    """The least-squares normal equations are rank deficient."""


class UnsupportedClosedForm(ValueError):
    """Data or sigma outside the closed-form library; no solver route handles it."""


class InvalidRoute(InvalidArgument):
    """Problem data sent to the wrong solver entry point."""


class InvalidShift(InvalidArgument):
    """A time shift that is not a positive multiple of the grid step."""
