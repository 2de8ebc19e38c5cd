"""Self-checks of the brute-force Fock-space oracle."""
import numpy as np
import pytest
from scipy.linalg import expm

import freeferm as ff
from freeferm import dense
from freeferm.majorana import canonical_phase_pow

from conftest import random_antisymmetric, random_monomial


def test_jordan_wigner_images():
    assert np.array_equal(dense.build_majorana(1, 0).matrix, dense.pauli_matrix("X"))
    assert np.array_equal(dense.build_majorana(1, 1).matrix, dense.pauli_matrix("Y"))
    assert np.array_equal(dense.build_majorana(2, 2).matrix, dense.pauli_matrix("ZX"))


def test_canonical_anticommutation_exact():
    n = 3
    gammas = [dense.build_majorana(n, u).matrix for u in range(2 * n)]
    eye = np.eye(2 ** n)
    for u in range(2 * n):
        for v in range(2 * n):
            anti = gammas[u] @ gammas[v] + gammas[v] @ gammas[u]
            expected = 2.0 * eye if u == v else 0.0 * eye
            assert np.array_equal(anti, expected)


def test_build_monomial_identity_and_z():
    assert np.array_equal(dense.build_monomial(ff.MajoranaMonomial.identity(2)).matrix,
                          np.eye(4))
    z = dense.build_monomial(ff.MajoranaMonomial.canonical(1, (0, 1))).matrix
    assert np.array_equal(z, dense.pauli_matrix("Z"))


def test_build_monomial_hermitian_exact(rng):
    n = 4
    for _ in range(100):
        m = random_monomial(n, rng, max_degree=6)
        mat = dense.build_monomial(m).matrix
        assert np.max(np.abs(mat - mat.conj().T)) == 0.0


def test_parity_operator_is_z_string():
    n = 3
    parity = dense.build_monomial(
        ff.MajoranaMonomial.canonical(n, tuple(range(2 * n)))).matrix
    assert np.array_equal(parity, dense.pauli_matrix("Z" * n))


def test_exp_quadratic_zero_is_identity():
    n = 2
    u = dense.gaussian_unitary(n, np.zeros((2 * n, 2 * n)))
    assert np.max(np.abs(u.matrix - np.eye(2 ** n))) < 1e-14


@pytest.mark.parametrize("n", [2, 3])
def test_exp_quadratic_adjoint_action(n, rng):
    for _ in range(5):
        a = random_antisymmetric(n, rng)
        u = dense.gaussian_unitary(n, a).matrix
        q = expm(a)
        for mu in range(2 * n):
            lhs = u.conj().T @ dense.build_majorana(n, mu).matrix @ u
            rhs = sum(q[mu, v] * dense.build_majorana(n, v).matrix for v in range(2 * n))
            assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_exp_quadratic_composition(rng):
    n = 3
    a1 = random_antisymmetric(n, rng)
    a2 = random_antisymmetric(n, rng)
    u = dense.gaussian_unitary(n, a1).matrix @ dense.gaussian_unitary(n, a2).matrix
    q = expm(a1) @ expm(a2)
    for mu in range(2 * n):
        lhs = u.conj().T @ dense.build_majorana(n, mu).matrix @ u
        rhs = sum(q[mu, v] * dense.build_majorana(n, v).matrix for v in range(2 * n))
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_exp_quadratic_commutes_with_parity(rng):
    n = 3
    parity = dense.pauli_matrix("Z" * n)
    a = random_antisymmetric(n, rng)
    u = dense.gaussian_unitary(n, a).matrix
    assert np.max(np.abs(u @ parity - parity @ u)) < 1e-10


def test_exp_one_body_identity_and_diagonal():
    n = 2
    u = dense.exp_one_body(n, np.zeros((n, n)))
    assert np.max(np.abs(u.matrix - np.eye(4))) < 1e-14
    h = np.diag([0.3, -1.1])
    u = dense.exp_one_body(n, h).matrix
    off = u - np.diag(np.diag(u))
    assert np.max(np.abs(off)) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_exp_one_body_adjoint_action(n, rng):
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = 0.5 * (h + h.conj().T)
    u = dense.exp_one_body(n, h).matrix
    small_u = expm(-1j * h)
    for p in range(n):
        a_p = dense.ladder(n, p)
        lhs = u.conj().T @ a_p @ u
        rhs = sum(small_u[p, q] * dense.ladder(n, q) for q in range(n))
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_expectation_and_born():
    psi = dense.vacuum_state(2)
    z0 = dense.build_monomial(ff.MajoranaMonomial.canonical(2, (0, 1)))
    assert dense.expectation(psi, z0) == 1.0
    dist = dense.born_distribution(dense.fock_state(2, "10"))
    expected = np.zeros(4)
    expected[2] = 1.0
    assert np.array_equal(dist, expected)


def test_expectation_real_for_canonical(rng):
    n = 3
    vec = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    psi = dense.DenseState(n, vec / np.linalg.norm(vec))
    for _ in range(20):
        m = random_monomial(n, rng, max_degree=6, even_only=False)
        val = dense.expectation(psi, dense.build_monomial(m))
        if m.phase_pow_i == canonical_phase_pow(m.degree):
            assert abs(val.imag) < 1e-12


def test_guards():
    with pytest.raises(ValueError):
        dense.pauli_matrix("I" * 13)
    with pytest.raises(ValueError):
        dense.gaussian_unitary(11, np.zeros((22, 22)))
    with pytest.raises(ValueError):
        dense.DenseState(2, np.array([1.0, 0.0, 0.0, 0.5]))


def _born_of_nan_state():
    # DenseState refuses NaN itself, so the entry is written after the check
    psi = dense.vacuum_state(2)
    psi.vector[0] = np.nan
    dense.born_distribution(psi)


@pytest.mark.parametrize("call, message", [
    (lambda: dense.DenseState(1, np.full(2, np.nan)), "normalized"),
    (_born_of_nan_state, "not normalized"),
    (lambda: dense.exp_one_body(2, np.full((2, 2), np.nan)), "Hermitian"),
], ids=["state_norm", "born_total", "exp_one_body"])
def test_dense_checks_reject_nan(call, message):
    with pytest.raises(ValueError, match=message):
        call()
