"""Dense-oracle comparisons shared by ``freeferm verify`` and the test suite.

Each ``*_deviation`` runs one fast path against the 2^n-dimensional picture of
:mod:`freeferm.dense` and returns the largest absolute deviation, NaN if any
is NaN; callers keep their own inputs and thresholds. Imported on demand only,
as :func:`battery` imports ``scipy.stats``: about a second that every command
would otherwise pay.
"""
from __future__ import annotations

from itertools import combinations, permutations, product

import numpy as np
from scipy.linalg import expm

from . import dense
from .circuits import compile_blocked, compile_naive, program_to_orthogonal
from .dense import dense_unitary
from .gaussian import (CovarianceMatrix, QuadraticHamiltonian, _condition, evolve,
                       measurement_distribution, spectrum, vacuum_covariance, wick_expectation)
from .majorana import MajoranaMonomial, multiply
from .shadows import ShadowAccumulator, _colex_sets


def random_antisymmetric(n_modes: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """A random real antisymmetric 2n x 2n matrix, the generator of a Gaussian rotation."""
    a = rng.normal(size=(2 * n_modes, 2 * n_modes)) * scale
    return a - a.T


def largest(deviations) -> float:
    """Largest deviation, 0.0 for none and NaN if any is NaN (``max`` would skip a later NaN)."""
    return float(np.max(np.fromiter(deviations, dtype=float), initial=0.0))


def random_pure_state(n_modes: int, rng: np.random.Generator, scale: float):
    """Matched pair (covariance matrix, dense state) of a random pure Gaussian."""
    a = random_antisymmetric(n_modes, rng, scale)
    cov = evolve(vacuum_covariance(n_modes), expm(a))
    psi = dense.apply(dense.gaussian_unitary(n_modes, a), dense.vacuum_state(n_modes))
    return cov, psi


def product_deviation(a: MajoranaMonomial, b: MajoranaMonomial) -> float:
    """Symbolic product ``multiply(a, b)`` against the product of dense matrices."""
    lhs = dense.build_monomial(a).matrix @ dense.build_monomial(b).matrix
    rhs = dense.build_monomial(multiply(a, b)).matrix
    return float(np.max(np.abs(lhs - rhs)))


def wick_deviation(cov: CovarianceMatrix, psi: np.ndarray, degrees) -> float:
    """Wick expectations of every monomial of the given degrees against ``psi``."""
    n = cov.n_modes
    monomials = (MajoranaMonomial.canonical(n, idx)
                 for deg in degrees for idx in combinations(range(2 * n), deg))
    return largest(abs(wick_expectation(cov, m) - dense.expectation(psi, dense.build_monomial(m)))
                   for m in monomials)


def spectrum_deviation(a: np.ndarray) -> float:
    """Free spectrum of the quadratic Hamiltonian ``a`` against dense eigenvalues."""
    fast = spectrum(QuadraticHamiltonian(a))
    slow = np.sort(np.linalg.eigvalsh(dense.quadratic_hamiltonian(a.shape[0] // 2, a).matrix))
    return float(np.max(np.abs(fast - slow)))


def born_deviation(cov: CovarianceMatrix, psi: np.ndarray) -> float:
    """Outcome distribution of the sampling chain against the Born rule on ``psi``."""
    return float(np.max(np.abs(measurement_distribution(cov) - dense.born_distribution(psi))))


def round_trip_deviation(program, q: np.ndarray) -> float:
    """Recomposed rotation of a compiled program against its target ``q``."""
    return float(np.max(np.abs(program_to_orthogonal(program) - q)))


def conjugation_deviation(program, q: np.ndarray) -> float:
    """U^dag gamma_mu U of the program's dense unitary against sum_v q[mu, v] gamma_v."""
    n = q.shape[0] // 2
    gammas = [dense.build_majorana(n, mu).matrix for mu in range(2 * n)]
    u = dense_unitary(program)
    rotated = (sum(q[mu, v] * gammas[v] for v in range(2 * n)) for mu in range(2 * n))
    return largest(np.max(np.abs(u.conj().T @ g @ u - r)) for g, r in zip(gammas, rotated))


def channel_identity_deviation(cov: CovarianceMatrix) -> float:
    """Born-weighted mean of the single-shot estimator over all of B(4) against Wick, n = 2.

    The outcome probabilities come from ``sample_bits``'s kernel, gather included.
    """
    elements = np.array([(perm, signs) for perm in permutations(range(4))
                         for signs in product((1, -1), repeat=4)])
    perms, signs = np.repeat(elements, 4, axis=0).transpose(1, 0, 2)
    forced = np.tile([[2.0, 2.0], [2.0, -1.0], [-1.0, 2.0], [-1.0, -1.0]], (len(elements), 1))
    bits, probs = _condition(cov.matrix, perms, signs, forced)
    weighted = {1: np.zeros(6), 2: np.zeros(1)}
    for row in np.flatnonzero(probs):
        single = ShadowAccumulator(2, 2)
        single.add_batch(perms[row, None], signs[row, None], bits[row, None])
        for j, (_, _, lam_inv) in enumerate(single.frame, start=1):
            weighted[j] += probs[row] * (lam_inv * single.signed[j])
    deviations = []
    for j in weighted:
        for rank, idx in enumerate(_colex_sets(4, 2 * j).tolist()):
            truth = wick_expectation(cov, MajoranaMonomial.canonical(2, idx)).real
            deviations.append(abs(weighted[j][rank] / len(elements) - truth))
    return largest(deviations)


def battery(n: int, seed: int) -> list[tuple[str, bool, str]]:
    """The ``freeferm verify`` checks at ``n`` modes: (name, passed, detail) each."""
    from scipy.stats import ortho_group

    rng = np.random.default_rng(seed)

    def random_monomial():
        deg = int(rng.integers(0, 5))
        idx = tuple(sorted(rng.choice(2 * n, size=deg, replace=False))) if deg else ()
        return MajoranaMonomial.canonical(n, idx)

    products = largest(product_deviation(random_monomial(), random_monomial()) for _ in range(40))
    wick = largest(wick_deviation(*random_pure_state(n, rng, 1.0), (2, 4)) for _ in range(10))
    spectra = largest(spectrum_deviation(random_antisymmetric(n, rng)) for _ in range(10))
    born = largest(born_deviation(*random_pure_state(n, rng, 1.0)) for _ in range(5))
    round_trips, conjugations = [], []
    for _ in range(5):
        q = ortho_group.rvs(2 * n, random_state=rng)
        for compiler in (compile_naive, compile_blocked):
            program = compiler(q)
            round_trips.append(round_trip_deviation(program, q))
            conjugations.append(conjugation_deviation(program, q))
    identity = channel_identity_deviation(vacuum_covariance(2))
    return [(name, worst <= threshold, f"max dev {worst:.2e}") for name, worst, threshold in [
        ("monomial products match dense algebra", products, 1e-12),
        ("Wick expectations match dense states", wick, 1e-9),
        ("free spectra match dense eigenvalues", spectra, 1e-9),
        ("sampling chain matches dense Born rule", born, 1e-9),
        ("compiled programs recompose to Q", largest(round_trips), 1e-9),
        ("compiled circuits conjugate generators like Q", largest(conjugations), 1e-8),
        ("exhaustive estimator identity (n=2 vacuum)", identity, 1e-12),
    ]]
