"""Exception types shared across the package."""


class HardycertError(Exception):
    """Base class for every error this package raises deliberately."""


class DimensionMismatchError(HardycertError):
    """Operand shapes or subsystem dimensions are incompatible."""


class InvalidStateError(HardycertError):
    """A state vector or density operator violates its defining invariants."""


class NotHermitianError(InvalidStateError):
    """A candidate density matrix is not Hermitian within tolerance."""


class NotUnitTraceError(InvalidStateError):
    """A candidate density matrix does not have unit trace within tolerance."""


class NotPositiveError(InvalidStateError):
    """A candidate density matrix has an eigenvalue below -tolerance."""


class NonPositiveWeightError(HardycertError):
    """Schmidt weights entering the measurement construction must be > 0, at
    most ``1 + STATE_TOL``, and not so small that its closed forms underflow."""


class NotHardyError(HardycertError):
    """The candidate state has no admissible pair of distinct Schmidt weights."""


class MalformedBehaviorError(HardycertError):
    """Joint probability tables violate normalization beyond tolerance."""


class NumericalBreakdownError(HardycertError):
    """The feasibility solver exceeded its pivot guard or found no
    admissible pivot row for the column it had to enter."""


class StateFileError(HardycertError):
    """A state file is structurally malformed."""
