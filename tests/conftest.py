"""Shared helpers for the test suite."""
from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import ortho_group, unitary_group

from freeferm import (
    CovarianceMatrix,
    MajoranaMonomial,
    SlaterDeterminant,
    evolve,
    vacuum_covariance,
)
from freeferm import dense


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_antisymmetric(n_modes, rng, scale=1.0):
    a = rng.normal(size=(2 * n_modes, 2 * n_modes)) * scale
    return a - a.T


def random_orthogonal(dim, rng):
    return ortho_group.rvs(dim, random_state=rng)


def random_unitary(dim, rng):
    return unitary_group.rvs(dim, random_state=rng)


def random_slater(n_modes, eta, rng):
    u = random_unitary(n_modes, rng)
    return SlaterDeterminant(u[:, :eta])


def random_pure_state(n_modes, rng, scale=0.7):
    """Matched pair (covariance matrix, dense state) of a random pure Gaussian."""
    a = random_antisymmetric(n_modes, rng, scale)
    cov = evolve(vacuum_covariance(n_modes), expm(a))
    psi = dense.apply(dense.gaussian_unitary(n_modes, a), dense.vacuum_state(n_modes))
    return cov, psi


def random_mixed_covariance(n_modes, rng):
    """Covariance of a generic mixed Gaussian state."""
    lam = rng.uniform(-1.0, 1.0, size=n_modes)
    m = np.zeros((2 * n_modes, 2 * n_modes))
    for p, val in enumerate(lam):
        m[2 * p, 2 * p + 1] = val
        m[2 * p + 1, 2 * p] = -val
    q = random_orthogonal(2 * n_modes, rng)
    return CovarianceMatrix(q @ m @ q.T)


def colex_sets(universe, size):
    """Every ascending index set of ``size`` entries below ``universe``, in colex order."""
    return sorted(combinations(range(universe), size), key=lambda idx: idx[::-1])


def random_monomial(n_modes, rng, max_degree=4, even_only=False):
    degrees = range(0, max_degree + 1, 2) if even_only else range(max_degree + 1)
    deg = int(rng.choice(list(degrees)))
    idx = sorted(rng.choice(2 * n_modes, size=deg, replace=False)) if deg else ()
    return MajoranaMonomial.canonical(n_modes, tuple(int(i) for i in idx))


def random_symmetric_integrals(n, rng):
    """Random one- and two-body integrals with the full eightfold symmetry."""
    h1 = rng.normal(size=(n, n))
    h1 = 0.5 * (h1 + h1.T)
    raw = rng.normal(size=(n, n, n, n))
    perms = [
        (0, 1, 2, 3), (3, 1, 2, 0), (0, 2, 1, 3), (3, 2, 1, 0),
        (1, 0, 3, 2), (2, 0, 3, 1), (1, 3, 0, 2), (2, 3, 0, 1),
    ]
    h2 = np.zeros_like(raw)
    for perm in perms:
        h2 += np.transpose(raw, perm)
    h2 /= len(perms)
    return h1, h2
