"""Exception taxonomy.

ConfigurationError means the inputs were rejected before any numerics ran
(CLI exit code 2); ComputationError and its children mean a numerical
stage failed or refused (CLI exit code 1).
"""

from __future__ import annotations


class BandresError(Exception):
    """Base class for all package errors."""


class ConfigurationError(BandresError):
    """Invalid or inconsistent user-supplied configuration."""


class ComputationError(BandresError):
    """A numerical stage failed or its preconditions were not met."""


class IntegrationFailure(ComputationError):
    """ODE integration aborted (step-size underflow, huge energy, ...)."""

    def __init__(self, message: str, last_x: float | None = None):
        super().__init__(message)
        self.last_x = last_x


class EnergyRangeError(ComputationError):
    """Energy outside the scanned band range."""


class NearSingularityError(ComputationError):
    """Profile evaluated within the guard distance of one of its poles."""


class CriticalEndpointError(ComputationError):
    """|W'| below threshold at a window endpoint (criticality violated)."""


class UnsupportedConfigurationError(ComputationError):
    """Window classification outside the supported regimes."""


class DomainError(ComputationError):
    """Argument outside the domain a routine is defined on."""


class BoundaryCollisionError(ComputationError):
    """A root sits on (or hugs) the search-box boundary; enlarge the box."""


class RootCountError(ComputationError):
    """Root list disagrees with the argument-principle count."""


class InternalConsistencyError(ComputationError):
    """An invariant of a numerical stage failed: a root bracket without a
    sign change, a root finder past its step budget, a discriminant table
    past its validation tolerance, an edge list that does not pair. An
    invariant that the code guarantees by construction has no check."""


class OracleError(ComputationError):
    """Grid eigensolver failed to converge or returned unusable data."""
