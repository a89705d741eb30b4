"""Exception types shared across the package."""


class HkqkError(Exception):
    """Base class for all package errors."""


class DegenerateMetric(HkqkError):
    """A bilinear form required to be nondegenerate is (numerically) singular."""


class DomainViolation(HkqkError):
    """A point, or a finite-difference sample around it, leaves the valid domain."""


class PairAntisymmetryViolated(HkqkError):
    """A rank-4 tensor fails antisymmetry in its (1,2) or (3,4) index pair."""


class AdjointnessViolated(HkqkError):
    """An endomorphism required to be metric-self-adjoint or metric-skew fails the check."""


class ConfigError(HkqkError):
    """Invalid run configuration (bad ranges, sizes, or flag combinations)."""
