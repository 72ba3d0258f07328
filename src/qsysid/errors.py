"""Exception hierarchy for qsysid.

Every domain failure raises a subclass of :class:`QsysidError`, so callers
(and the CLI) can distinguish domain errors from usage or I/O errors with a
single except clause.
"""


class QsysidError(Exception):
    """Base class for all domain errors raised by this package."""


class NotHermitian(QsysidError):
    """Hamiltonian matrix deviates from its own conjugate transpose."""


class DimensionMismatch(QsysidError):
    """Matrix or vector shapes are incompatible, or a port count is out of
    range: more fields than modes, or several where one port is required."""


class SingularResolvent(QsysidError):
    """Evaluation point coincides with an eigenvalue of the drift matrix."""


class NonMonotoneGrid(QsysidError):
    """Grid has too few points, or its values are not strictly increasing."""


class NotUnitary(QsysidError):
    """Matrix fails the unitarity tolerance."""


class NotMinimal(QsysidError):
    """System is not both controllable and observable."""


class NonMonic(QsysidError):
    """Denominator polynomial is not monic."""


class NotHurwitz(QsysidError):
    """Matrix has an eigenvalue with nonnegative real part."""


class SolverSingular(QsysidError):
    """Linear-algebra stage produced a singular or indefinite result."""


class NotPassiveTF(QsysidError):
    """Transfer function is not realizable by a passive quantum system."""


class RankDeficientCoupling(QsysidError):
    """Leading moment of the transfer function is singular."""


class InvalidNetwork(QsysidError):
    """Network description violates a structural invariant."""


class InsufficientData(QsysidError):
    """Samples cannot determine the requested fit: too few of them, or a
    fit design of rank below 2n for degree n."""
