"""Shared helpers for the test suite."""

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_spd_form(rng, d):
    """Random symmetric positive-definite bilinear form (a a^T is exactly symmetric)."""
    a = rng.standard_normal((d, d))
    return a @ a.T + d * np.eye(d)


def signature_form(d, negatives=0):
    """Diagonal metric with the given number of leading -1 entries."""
    diag = np.ones(d)
    diag[:negatives] = -1.0
    return np.diag(diag)


def random_self_adjoint(rng, metric):
    """Random endomorphism self-adjoint for the metric (lowered form symmetric)."""
    d = metric.shape[0]
    sym = rng.standard_normal((d, d))
    sym = sym + sym.T
    return np.linalg.solve(metric, sym)


def random_skew_adjoint(rng, metric):
    """Random endomorphism skew-adjoint for the metric (lowered form antisymmetric)."""
    d = metric.shape[0]
    anti = rng.standard_normal((d, d))
    anti = anti - anti.T
    return np.linalg.solve(metric, anti)
