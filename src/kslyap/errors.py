"""Exception types shared across the library."""


class KslyapError(Exception):
    """Base class for all library errors."""


class IntegrationBlowUp(KslyapError):
    """State became non-finite or exceeded the blow-up guard during integration.

    Carries the simulation time at which the failure was detected.
    """

    def __init__(self, time, message=None):
        self.time = float(time)
        super().__init__(message or f"integration blew up at t={self.time:g}")

    def __reduce__(self):
        # the default rebuilds from args, which hold the message, not the time
        return type(self), (self.time, str(self)), self.__dict__


class ResolutionTooCoarse(KslyapError):
    """Spatial discretization cannot resolve the requested maximum wavenumber."""


class NonFiniteColumn(KslyapError):
    """A finite-difference flow-map column contains non-finite entries."""


class RankDeficient(KslyapError):
    """QR step found a (numerically) rank-deficient frame.

    Usually signals that the perturbation magnitude is too small or that more
    directions were requested than the dynamics can keep independent.
    """


class EmptyWindow(KslyapError):
    """No sweep records fall inside the requested window."""


class SingularNormalEquations(KslyapError):
    """Least-squares design matrix is rank deficient."""


class InsufficientData(KslyapError):
    """Not enough records to perform the requested fit."""


class FingerprintMismatch(KslyapError):
    """Existing sweep output was produced with a different configuration."""


#: The failures of a run: they flag a sweep's grid point ``failed`` and give
#: a ``--scan-T`` row of NaNs.  Every other error is a fault of the
#: configuration or the program and ends the command.
RUN_FAILURES = (IntegrationBlowUp, NonFiniteColumn, RankDeficient)
