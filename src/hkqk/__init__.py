"""Numerical laboratory for twist-deformed quaternionic curvature on a flat family.

The package evaluates, at sampled points of an explicit flat pseudo-hyperkaehler
family, every tensor entering the twist construction of the associated
quaternionic-type metric, and cross-checks each derived identity along
independent computation routes: the connection correction (closed formula vs
Koszul pieces with finite differences), the curvature tensor (defining route
vs closed form-product expression), and the squared curvature-operator norm
(frame trace vs closed profile in q, f_z, f_h).
"""

from .errors import (
    AdjointnessViolated,
    ConfigError,
    DegenerateMetric,
    DomainViolation,
    HkqkError,
    PairAntisymmetryViolated,
)
from .flat_model import GeometryAt, ModelParams, geometry_at, random_valid_point

__all__ = [
    "AdjointnessViolated",
    "ConfigError",
    "DegenerateMetric",
    "DomainViolation",
    "GeometryAt",
    "HkqkError",
    "ModelParams",
    "PairAntisymmetryViolated",
    "geometry_at",
    "random_valid_point",
]

__version__ = "0.1.0"
