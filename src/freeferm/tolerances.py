"""The numerical thresholds of the library, one fixed table.

Every validation threshold in the Gaussian, partition, shadow, circuit and
dense modules is a field of ``DEFAULT``, read where it is used. No function takes a
threshold as an argument, so a value changes only here.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    antisymmetry: float = 1e-12      # max-norm of M + M^T
    hamiltonian_antisymmetry: float = 1e-10  # max-norm of A + A^T, A a coefficient matrix
    pfaffian_antisymmetry: float = 1e-10     # max-norm of A + A^T in units of 1 + max|A|
    state_validity: float = 1e-10    # slack on eigenvalues of -M^2 in [0, 1]
    orthogonality: float = 1e-8      # max-norm of Q Q^T - I
    isometry: float = 1e-10          # max-norm of V^dag V - I
    schur_block: float = 1e-12       # Schur subdiagonal opening a 2x2 block, in units of max|A|
    reconstruction: float = 1e-9     # canonical-form round trip
    prob_clamp: float = 1e-12        # slack when clamping probabilities to [0, 1]
    rotation_cut: float = 1e-14      # Givens angles below this are dropped
    elimination_residual: float = 1e-6  # off-form residue a compiler's elimination may leave
    coeff_prune: float = 1e-12       # Hamiltonian coefficients below this are dropped
    normalization: float = 1e-12     # |sum beta^2 - 1| of a rotation plan's coefficients
    norm_bounds: float = 1e-9        # slack of norms_report's bounds, in units of 1 + Lambda
    mitigation_guard: float = 1e-6   # smallest |s_hat / s| accepted as a divisor
    symmetry_check: float = 1e-10    # integral permutational-symmetry validation
    dense_check: float = 1e-10       # dense state norm, Born total and one-body Hermiticity


DEFAULT = Tolerances()
