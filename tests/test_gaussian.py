"""Gaussian-state engine against the dense oracle."""
from itertools import combinations

import numpy as np
import pytest
from scipy.linalg import expm

import freeferm as ff
from freeferm import dense
from freeferm.gaussian import (
    _complete_isometry,
    fock_covariance,
    measurement_distribution,
    slater_covariance,
)

from conftest import (
    random_antisymmetric,
    random_mixed_covariance,
    random_orthogonal,
    random_pure_state,
    random_slater,
    random_unitary,
)


# -------------------------------------------------------------- covariance

def test_vacuum_covariance_blocks():
    m1 = ff.vacuum_covariance(1).matrix
    assert np.array_equal(m1, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    m2 = ff.vacuum_covariance(2).matrix
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[2, 3] = 1.0
    expected -= expected.T
    assert np.array_equal(m2, expected)
    assert ff.vacuum_covariance(3).is_pure()


def test_vacuum_zero_modes_rejected():
    with pytest.raises(ValueError):
        ff.vacuum_covariance(0)


def test_covariance_validation():
    with pytest.raises(ValueError):
        ff.CovarianceMatrix(np.eye(4))
    with pytest.raises(ValueError):
        ff.CovarianceMatrix(3.0 * ff.vacuum_covariance(2).matrix)


def test_evolve_identity_and_composition(rng):
    g = random_mixed_covariance(3, rng)
    same = ff.evolve(g, np.eye(6))
    assert np.array_equal(same.matrix, g.matrix)
    q1 = random_orthogonal(6, rng)
    q2 = random_orthogonal(6, rng)
    lhs = ff.evolve(ff.evolve(g, q1), q2).matrix
    rhs = ff.evolve(g, q2 @ q1).matrix
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_evolve_single_givens_matches_dense():
    # rotation mixing axes (1, 2) on two modes, checked against the dense state
    n = 2
    theta = 0.83
    a = np.zeros((4, 4))
    a[1, 2] = theta
    a[2, 1] = -theta
    cov = ff.evolve(ff.vacuum_covariance(n), expm(a))
    psi = dense.apply(dense.gaussian_unitary(n, a), dense.vacuum_state(n))
    assert np.max(np.abs(cov.matrix - dense.covariance_of_state(psi))) < 1e-12


def test_evolve_rejects_non_orthogonal(rng):
    g = ff.vacuum_covariance(2)
    with pytest.raises(ValueError):
        ff.evolve(g, np.eye(4) * 1.01)


def test_evolve_preserves_purity(rng):
    for _ in range(20):
        cov, _ = random_pure_state(3, rng)
        q = random_orthogonal(6, rng)
        out = ff.evolve(cov, q)
        assert np.max(np.abs(out.matrix @ out.matrix.T - np.eye(6))) <= 1e-8


# ----------------------------------------------------------- canonical form

def test_canonical_form_zero():
    form = ff.canonical_form(ff.QuadraticHamiltonian(np.zeros((6, 6))))
    assert np.array_equal(form.eps, np.zeros(3))


def test_canonical_form_fixed_point():
    a = np.zeros((4, 4))
    a[0, 1], a[1, 0] = 2.0, -2.0
    a[2, 3], a[3, 2] = 1.0, -1.0
    form = ff.canonical_form(ff.QuadraticHamiltonian(a))
    assert np.allclose(form.eps, [2.0, 1.0])
    # Q is a signed permutation up to roundoff
    assert np.max(np.abs(np.abs(form.q) - np.rint(np.abs(form.q)))) < 1e-12


@pytest.mark.parametrize("n", list(range(1, 9)))
def test_canonical_form_round_trip(n, rng):
    trials = 1000 if n <= 4 else 200
    for _ in range(trials):
        a = random_antisymmetric(n, rng)
        h = ff.QuadraticHamiltonian(a)
        form = ff.canonical_form(h)
        assert np.all(form.eps >= 0)
        assert np.all(np.diff(form.eps) <= 1e-12)
        recon = form.q @ form.lambda_matrix() @ form.q.T
        assert np.max(np.abs(recon - a)) <= 1e-9 * max(1.0, np.max(np.abs(a)))
        assert np.max(np.abs(form.q @ form.q.T - np.eye(2 * n))) <= 1e-10
        assert form.det_sign in (-1, 1)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_canonical_eps_are_eigenvalues(n, rng):
    a = random_antisymmetric(n, rng)
    form = ff.canonical_form(ff.QuadraticHamiltonian(a))
    expected = np.sort(np.abs(np.linalg.eigvals(a).imag))[::2]
    assert np.max(np.abs(np.sort(form.eps) - np.sort(expected))) < 1e-9


# ----------------------------------------------------------------- spectrum

def test_spectrum_from_eps():
    a = np.zeros((4, 4))
    a[0, 1], a[1, 0] = 1.0, -1.0
    a[2, 3], a[3, 2] = 2.0, -2.0
    energies = ff.spectrum(ff.QuadraticHamiltonian(a))
    assert np.allclose(energies, [-3.0, -1.0, 1.0, 3.0])
    flat = ff.spectrum(ff.QuadraticHamiltonian(np.zeros((2, 2))))
    assert np.allclose(flat, [0.0, 0.0])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_spectrum_matches_dense(n, rng):
    for _ in range(10):
        a = random_antisymmetric(n, rng)
        fast = ff.spectrum(ff.QuadraticHamiltonian(a))
        slow = np.sort(np.linalg.eigvalsh(dense.quadratic_hamiltonian(n, a).matrix))
        assert np.max(np.abs(fast - slow)) < 1e-9


def test_spectrum_guard():
    with pytest.raises(ValueError):
        ff.spectrum(ff.QuadraticHamiltonian(np.zeros((44, 44))), max_modes=20)


# ----------------------------------------------------------------- pfaffian

def test_pfaffian_small_cases():
    assert ff.pfaffian(np.array([[0.0, 2.5], [-2.5, 0.0]])) == 2.5
    block = np.zeros((4, 4))
    block[0, 1], block[1, 0] = 2.0, -2.0
    block[2, 3], block[3, 2] = 3.0, -3.0
    assert abs(ff.pfaffian(block) - 6.0) < 1e-12
    assert ff.pfaffian(np.zeros((3, 3))) == 0.0
    assert ff.pfaffian(np.zeros((0, 0))) == 1.0


def test_pfaffian_squares_to_determinant(rng):
    for dim in (2, 4, 6, 8):
        for _ in range(20):
            a = rng.normal(size=(dim, dim))
            a = a - a.T
            pf = ff.pfaffian(a)
            det = np.linalg.det(a)
            assert abs(pf ** 2 - det) <= 1e-8 * max(1.0, abs(det))


def test_pfaffian_congruence(rng):
    for _ in range(10):
        a = rng.normal(size=(6, 6))
        a = a - a.T
        b = rng.normal(size=(6, 6))
        lhs = ff.pfaffian(b @ a @ b.T)
        rhs = np.linalg.det(b) * ff.pfaffian(a)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_pfaffian_rejects_symmetric():
    with pytest.raises(ValueError):
        ff.pfaffian(np.eye(4))


# --------------------------------------------------------------------- wick

def test_wick_vacuum_values():
    vac = ff.vacuum_covariance(2)
    mk = lambda idx: ff.MajoranaMonomial.canonical(2, idx)
    assert ff.wick_expectation(vac, mk((0, 1))) == 1
    assert ff.wick_expectation(vac, mk((0, 2))) == 0
    assert ff.wick_expectation(vac, mk((0, 1, 2, 3))) == 1
    assert ff.wick_expectation(vac, mk((0,))) == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_wick_matches_dense(n, rng):
    cov, psi = random_pure_state(n, rng)
    for deg in (2, 4, 6):
        if deg > 2 * n:
            continue
        for idx in combinations(range(2 * n), deg):
            m = ff.MajoranaMonomial.canonical(n, idx)
            fast = ff.wick_expectation(cov, m)
            slow = dense.expectation(psi, dense.build_monomial(m))
            assert abs(fast - slow) < 1e-9


def test_wick_odd_degree_vanishes(rng):
    cov, _ = random_pure_state(3, rng)
    assert ff.wick_expectation(cov, ff.MajoranaMonomial.canonical(3, (0, 2, 5))) == 0


def test_parity_expectation_flips_with_reflection(rng):
    n = 3
    cov, _ = random_pure_state(n, rng)
    parity = ff.MajoranaMonomial.canonical(n, tuple(range(2 * n)))
    val = ff.wick_expectation(cov, parity).real
    assert abs(abs(val) - 1.0) < 1e-9
    rotation = random_orthogonal(2 * n, rng)
    if np.linalg.det(rotation) < 0:
        rotation = rotation @ np.diag([1.0] * (2 * n - 1) + [-1.0])
    assert abs(ff.wick_expectation(ff.evolve(cov, rotation), parity).real - val) < 1e-9
    reflect = rotation @ np.diag([1.0] * (2 * n - 1) + [-1.0])
    assert abs(ff.wick_expectation(ff.evolve(cov, reflect), parity).real + val) < 1e-9


# ------------------------------------------------------- Slater determinants

def test_slater_amplitude_identity_isometry():
    s = ff.SlaterDeterminant(np.eye(4)[:, :2])
    assert ff.slater_amplitude(s, (0, 1)) == 1
    assert ff.slater_amplitude(s, (0, 2)) == 0
    with pytest.raises(ValueError):
        ff.slater_amplitude(s, (0,))


def test_slater_amplitudes_match_dense(rng):
    n, eta = 4, 2
    s = random_slater(n, eta, rng)
    v = _complete_isometry(s.isometry)
    h = 1j * np.asarray(__import__("scipy.linalg", fromlist=["logm"]).logm(v))
    psi = dense.apply(dense.exp_one_body(n, h), dense.fock_state(n, "1100"))
    for occ in combinations(range(n), eta):
        amp = ff.slater_amplitude(s, occ)
        bits = ["0"] * n
        for p in occ:
            bits[p] = "1"
        idx = int("".join(bits), 2)
        assert abs(amp - psi.vector[idx]) < 1e-10


def test_one_rdm_projector(rng):
    s = ff.SlaterDeterminant(np.eye(5)[:, :3])
    d1 = ff.one_rdm(s)
    assert np.array_equal(d1, np.diag([1.0, 1.0, 1.0, 0.0, 0.0]))
    s = random_slater(5, 2, rng)
    d1 = ff.one_rdm(s)
    assert abs(np.trace(d1) - 2) < 1e-12
    assert np.max(np.abs(d1 @ d1 - d1)) < 1e-12
    assert np.max(np.abs(d1 - d1.conj().T)) < 1e-12


@pytest.mark.parametrize("n,eta", [(4, 2), (5, 3)])
def test_one_rdm_matches_dense(n, eta, rng):
    from scipy.linalg import logm

    s = random_slater(n, eta, rng)
    v = _complete_isometry(s.isometry)
    psi = dense.apply(
        dense.exp_one_body(n, 1j * logm(v)),
        dense.fock_state(n, "1" * eta + "0" * (n - eta)),
    )
    d1 = ff.one_rdm(s)
    for p in range(n):
        for q in range(n):
            op = dense.DenseOperator(n, dense.ladder(n, q, dagger=True) @ dense.ladder(n, p))
            assert abs(d1[p, q] - dense.expectation(psi, op)) < 1e-10


def test_k_rdm_wick_identity(rng):
    d1 = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    for p in range(4):
        for q in range(4):
            for r in range(4):
                for s in range(4):
                    if p == q or r == s:
                        continue
                    direct = ff.k_rdm_element(d1, (p, q), (s, r))
                    wick = d1[p, s] * d1[q, r] - d1[p, r] * d1[q, s]
                    assert abs(direct - wick) < 1e-12


def test_k_rdm_matches_dense(rng):
    from scipy.linalg import logm

    n, eta = 4, 2
    s = random_slater(n, eta, rng)
    v = _complete_isometry(s.isometry)
    psi = dense.apply(
        dense.exp_one_body(n, 1j * logm(v)),
        dense.fock_state(n, "1100"),
    )
    d1 = ff.one_rdm(s)
    for k in (1, 2, 3):
        for ps in combinations(range(n), k):
            for qs in combinations(range(n), k):
                # <a_{qs[0]}^+ ... a_{qs[k-1]}^+ a_{ps[k-1]} ... a_{ps[0]}>
                op = np.eye(2 ** n, dtype=complex)
                for q in qs:
                    op = op @ dense.ladder(n, q, dagger=True)
                for p in reversed(ps):
                    op = op @ dense.ladder(n, p)
                slow = dense.expectation(psi, dense.DenseOperator(n, op))
                fast = ff.k_rdm_element(d1, ps, qs)
                assert abs(fast - slow) < 1e-10


def test_identity_slater_pair_occupation():
    s = ff.SlaterDeterminant(np.eye(4)[:, :2])
    assert abs(ff.k_rdm_element(ff.one_rdm(s), (0, 1), (0, 1)) - 1.0) < 1e-12


# ---------------------------------------------------------------- embedding

def test_embed_unitary_cases(rng):
    assert np.array_equal(ff.embed_unitary(np.eye(3)), np.eye(6))
    q = ff.embed_unitary(np.array([[1j]]))
    assert np.array_equal(q, np.array([[0.0, -1.0], [1.0, 0.0]]))
    u = random_unitary(4, rng)
    v = random_unitary(4, rng)
    assert np.max(np.abs(
        ff.embed_unitary(u) @ ff.embed_unitary(v) - ff.embed_unitary(u @ v))) < 1e-10
    emb = ff.embed_unitary(u)
    assert np.max(np.abs(emb @ emb.T - np.eye(8))) < 1e-10
    with pytest.raises(ValueError):
        ff.embed_unitary(np.ones((2, 2)))


def test_slater_covariance_matches_wick(rng):
    n, eta = 4, 2
    s = random_slater(n, eta, rng)
    cov = slater_covariance(s)
    d1 = ff.one_rdm(s)
    for p in range(n):
        # <Gamma_(2p,2p+1)> = 1 - 2 <n_p>
        got = ff.wick_expectation(cov, ff.MajoranaMonomial.canonical(n, (2 * p, 2 * p + 1)))
        assert abs(got - (1 - 2 * d1[p, p].real)) < 1e-10


# ----------------------------------------------------------------- sampling

def test_sampling_deterministic_states(rng):
    vac = np.repeat(ff.vacuum_covariance(3).matrix[None], 5, axis=0)
    assert (ff.sample_bits(vac, rng) == [0, 0, 0]).all()
    cov = slater_covariance(ff.SlaterDeterminant(np.eye(4)[:, :2]))
    bits = ff.sample_bits(np.repeat(cov.matrix[None], 5, axis=0), rng)
    assert bits.dtype == np.uint8 and (bits == [1, 1, 0, 0]).all()


def test_sampling_rejects_nonphysical_probabilities(rng):
    # twice the vacuum puts the first occupation probability at -1/2
    stack = 2.0 * np.repeat(ff.vacuum_covariance(2).matrix[None], 3, axis=0)
    with pytest.raises(ValueError, match="outside"):
        ff.sample_bits(stack, rng)
    with pytest.raises(ValueError, match="stack"):
        ff.sample_bits(ff.vacuum_covariance(2).matrix.copy(), rng)


@pytest.mark.parametrize("n", [2, 3])
def test_measurement_distribution_matches_dense(n, rng):
    for _ in range(5):
        cov, psi = random_pure_state(n, rng)
        dist = measurement_distribution(cov)
        assert np.max(np.abs(dist - dense.born_distribution(psi))) < 1e-10
        assert abs(dist.sum() - 1.0) < 1e-12


def test_sampled_distribution_tv(rng):
    n = 3
    cov, psi = random_pure_state(n, rng)
    born = dense.born_distribution(psi)
    shots = 100_000
    bits = ff.sample_bits(np.repeat(cov.matrix[None], shots, axis=0), rng)
    idx = (bits * (2 ** np.arange(n - 1, -1, -1))[None, :]).sum(axis=1)
    tv = 0.5 * np.sum(np.abs(np.bincount(idx, minlength=2 ** n) / shots - born))
    assert tv < 0.01


def test_mixed_state_distribution(rng):
    # mixed covariance: distribution still exact against the density matrix
    n = 2
    cov = random_mixed_covariance(n, rng)
    dist = measurement_distribution(cov)
    assert abs(dist.sum() - 1.0) < 1e-12
    # diagonal of the Gaussian density operator via monomial expansion
    rho_diag = np.zeros(4)
    for z in range(4):
        bits = ((z >> 1) & 1, z & 1)
        val = 1.0
        acc = 0.0
        for subset in [(0, 1), (2, 3), (0, 1, 2, 3)]:
            m = ff.MajoranaMonomial.canonical(n, subset)
            acc += ff.wick_expectation(cov, m).real * ff.diag_element(m, bits).real
        rho_diag[z] = (1.0 + acc) / 4.0
    assert np.max(np.abs(dist - rho_diag)) < 1e-12
