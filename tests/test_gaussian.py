"""Gaussian-state engine against the dense oracle."""
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from scipy.linalg import expm, null_space

import freeferm as ff
from freeferm import dense, gaussian, oracle
from freeferm.gaussian import (
    _condition,
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
    right_looking_bits,
    sample_unrotated,
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
    m3 = ff.vacuum_covariance(3).matrix
    assert np.array_equal(m3 @ m3.T, np.eye(6))


def test_vacuum_zero_modes_rejected():
    with pytest.raises(ValueError):
        ff.vacuum_covariance(0)


@pytest.mark.parametrize("cls", [ff.CovarianceMatrix, ff.QuadraticHamiltonian])
def test_zero_mode_matrix_rejected(cls):
    with pytest.raises(ValueError, match="at least one mode"):
        cls(np.zeros((0, 0)))


def test_embed_unitary_zero_modes_rejected():
    with pytest.raises(ValueError, match="at least one mode"):
        ff.embed_unitary(np.zeros((0, 0)))


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
    # degree-2 Wick expectations are the covariance entries
    assert oracle.wick_deviation(cov, psi, (2,)) < 1e-12


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
        assert oracle.spectrum_deviation(random_antisymmetric(n, rng)) < 1e-9


def test_spectrum_guard():
    with pytest.raises(ValueError):
        ff.spectrum(ff.QuadraticHamiltonian(np.zeros((44, 44))))


# ----------------------------------------------------------------- pfaffian

def test_pfaffian_small_cases():
    assert ff.pfaffian(np.array([[0.0, 2.5], [-2.5, 0.0]])) == 2.5
    block = np.zeros((4, 4))
    block[0, 1], block[1, 0] = 2.0, -2.0
    block[2, 3], block[3, 2] = 3.0, -3.0
    assert abs(ff.pfaffian(block) - 6.0) < 1e-12
    assert ff.pfaffian(np.zeros((3, 3))) == 0.0
    odd = np.zeros((3, 3))
    odd[0, 1], odd[1, 0], odd[1, 2], odd[2, 1] = 2.0, -2.0, 0.5, -0.5
    assert ff.pfaffian(odd) == 0.0
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


@pytest.mark.parametrize("dim", [2, 4])
def test_pfaffian_rejects_infinite_entry(dim):
    # the antisymmetry slack scales with 1 + max|a|, which an infinite entry makes infinite
    a = np.zeros((dim, dim))
    a[0, 1], a[1, 0] = np.inf, 5.0 if dim == 2 else 3.0
    with pytest.raises(ValueError, match="non-finite"):
        ff.pfaffian(a)


def _nan_at_corner(m):
    m = np.array(m)
    m[0, 0] = np.nan
    return m


def _canonical_form_of_nan_schur():
    # QuadraticHamiltonian rejects a NaN itself, so the Schur factor brings one in
    t = np.array([[0.0, np.nan], [1.0, 0.0]])
    with mock.patch("scipy.linalg.schur", return_value=(t, np.eye(2))):
        ff.canonical_form(ff.QuadraticHamiltonian(np.zeros((2, 2))))


VACUUM = ff.vacuum_covariance(2)


@pytest.mark.parametrize("call, message", [
    (lambda: ff.CovarianceMatrix(_nan_at_corner(VACUUM.matrix)), "not antisymmetric"),
    (lambda: ff.QuadraticHamiltonian(_nan_at_corner(VACUUM.matrix)), "not antisymmetric"),
    (lambda: ff.evolve(VACUUM, _nan_at_corner(np.eye(4))), "not orthogonal"),
    (lambda: ff.SlaterDeterminant(_nan_at_corner(np.eye(4)[:, :2])), "not orthonormal"),
    (lambda: ff.embed_unitary(_nan_at_corner(np.eye(2, dtype=complex))), "not unitary"),
    (lambda: ff.pfaffian(_nan_at_corner(VACUUM.matrix)), "not antisymmetric"),
    (lambda: ff.pfaffian(np.full((3, 3), np.nan)), "non-finite"),
    (lambda: ff.pfaffian(np.eye(3)), "not antisymmetric"),
    (lambda: ff.rotation_plan([(0, 1), (1, 2)], [np.nan, 1.0]), "l2-normalized"),
    (_canonical_form_of_nan_schur, "reconstruction failed"),
], ids=["covariance", "hamiltonian", "evolve", "slater", "embed_unitary", "pfaffian",
        "pfaffian_odd_nan", "pfaffian_odd_symmetric", "rotation_plan", "canonical_form"])
def test_threshold_checks_reject_nan(call, message):
    # NaN compares False both ways, so a check written as residual > tol lets it through
    with pytest.raises(ValueError, match=message):
        call()


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
    assert oracle.wick_deviation(cov, psi, (2, 4, 6)) < 1e-9


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
    v = np.hstack([s.isometry, null_space(s.isometry.conj().T)])
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
    v = np.hstack([s.isometry, null_space(s.isometry.conj().T)])
    psi = dense.apply(
        dense.exp_one_body(n, 1j * logm(v)),
        dense.fock_state(n, "1" * eta + "0" * (n - eta)),
    )
    d1 = ff.one_rdm(s)
    for p in range(n):
        for q in range(n):
            op = dense.DenseOperator(n, dense.ladder(n, q, dagger=True) @ dense.ladder(n, p))
            assert abs(d1[p, q] - dense.expectation(psi, op)) < 1e-10
    # every degree-2 and degree-4 moment of the covariance read off d1
    assert oracle.wick_deviation(slater_covariance(s), psi, (2, 4)) <= 1e-10


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
    v = np.hstack([s.isometry, null_space(s.isometry.conj().T)])
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


def test_fock_covariance_rejects_out_of_range_mode():
    # a negative index would otherwise land on the last mode
    for occupied in ([5], [-1]):
        with pytest.raises(ValueError, match="occupied modes"):
            ff.fock_covariance(2, occupied)


def test_slater_covariance_matches_wick(rng):
    n, eta = 4, 2
    s = random_slater(n, eta, rng)
    cov = slater_covariance(s)
    d1 = ff.one_rdm(s)
    for p in range(n):
        # <Gamma_(2p,2p+1)> = 1 - 2 <n_p>
        got = ff.wick_expectation(cov, ff.MajoranaMonomial.canonical(n, (2 * p, 2 * p + 1)))
        assert abs(got - (1 - 2 * d1[p, p].real)) < 1e-10


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_slater_covariance_matches_embedding(seed):
    # the closed form against the Fock covariance rotated by the completed isometry,
    # also with the zero row shadow-sim appends for an ancilla mode
    rng = np.random.default_rng(seed)
    for n in range(2, 25):
        u = random_unitary(n, rng)
        for eta in sorted({0, 1, n // 2, n - 1, n}):
            for v in (u[:, :eta], np.vstack([u[:, :eta], np.zeros((1, eta))])):
                s = ff.SlaterDeterminant(v)
                completed = np.hstack([s.isometry, null_space(s.isometry.conj().T)])
                ref = ff.evolve(ff.fock_covariance(s.n_modes, range(eta)),
                                ff.embed_unitary(completed))
                assert np.max(np.abs(slater_covariance(s).matrix - ref.matrix)) <= 1e-12


# ----------------------------------------------------------------- sampling

def test_sampling_deterministic_states(rng):
    assert (sample_unrotated(ff.vacuum_covariance(3).matrix, 5, rng) == [0, 0, 0]).all()
    cov = slater_covariance(ff.SlaterDeterminant(np.eye(4)[:, :2]))
    bits = sample_unrotated(cov.matrix, 5, rng)
    assert bits.dtype == np.uint8 and (bits == [1, 1, 0, 0]).all()


def test_sampling_rejects_nonphysical_probabilities(rng):
    # twice the vacuum puts the first occupation probability at -1/2
    with pytest.raises(ValueError, match="outside"):
        sample_unrotated(2.0 * ff.vacuum_covariance(2).matrix, 3, rng)
    # one covariance per call: a (size, 2n, 2n) stack is refused, as are mismatched frames
    vac = ff.vacuum_covariance(2).matrix
    perms, signs = np.tile(np.arange(4), (3, 1)), np.ones((3, 4), np.int8)
    with pytest.raises(ValueError, match="square even-dimensional"):
        ff.sample_bits(np.repeat(vac[None], 3, axis=0), perms, signs, rng)
    with pytest.raises(ValueError, match="perms and signs"):
        ff.sample_bits(vac, perms, signs[:, :2], rng)
    # the gather reads a flat index, so an entry outside [0, 2n) must raise, not wrap
    for bad in (4, -1):
        wrong = perms.copy()
        wrong[1, 2] = bad
        with pytest.raises(ValueError, match=r"\[0, 2n\)"):
            ff.sample_bits(vac, wrong, signs, rng)


def _b_and_alt_draws(cov, size, seed):
    """Per group: the bits of ``sample_snapshots`` and the right-looking bits of its draws."""
    for group in ("b", "alt"):
        perms, signs, bits = ff.sample_snapshots(cov, size, np.random.default_rng(seed), group)
        replay = np.random.default_rng(seed)
        replay.random(perms.shape)  # perms, then (B(2n) only) signs, then the sampler's block
        if group == "b":
            replay.random(perms.shape)
        yield group, bits, right_looking_bits(cov.matrix, perms, signs, replay)


def test_left_looking_bits_match_right_looking(rng):
    for n in range(1, 9):
        pure = slater_covariance(random_slater(n, n // 2, rng))
        for cov in (random_mixed_covariance(n, rng), pure):
            for group, bits, ref in _b_and_alt_draws(cov, 500, 10 * n):
                assert (bits == ref).all(), (n, group)
    cov = slater_covariance(random_slater(16, 4, rng))
    for group, bits, ref in _b_and_alt_draws(cov, 1000, 16):
        assert (bits == ref).all(), group


def test_sampling_raises_through_permutation(rng):
    # a nonphysical entry M[2, 4] = 3 off the mode pairs: the identity rotation never
    # reads it, and a permutation that pairs axes 2 and 4 at mode 1 must raise
    m = ff.vacuum_covariance(3).matrix.copy()
    m[2, 4], m[4, 2] = 3.0, -3.0
    identity = np.arange(6)[None]
    ones = np.ones((1, 6), np.int8)
    assert (ff.sample_bits(m, identity, ones, rng) == 0).all()
    perms = np.array([[0, 1, 2, 4, 3, 5]])
    for signs in (ones, np.array([[1, 1, 1, -1, 1, 1]], np.int8)):  # p1 = -1, then p1 = 2
        for sampler in (ff.sample_bits, right_looking_bits):
            with pytest.raises(ValueError, match="outside"):
                sampler(m, perms, signs, rng)


def _outcomes(n):
    """Every n-bit outcome string, mode 0 the most significant bit, as forced draws."""
    bits = np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1) & 1
    return bits, np.where(bits, -1.0, 2.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_measurement_distribution_matches_dense(n, rng):
    for _ in range(5):
        cov, psi = random_pure_state(n, rng)
        assert oracle.born_deviation(cov, psi) < 1e-10
        dist = measurement_distribution(cov)
        assert abs(dist.sum() - 1.0) < 1e-12
        # rotated from the vacuum, the state has even parity: odd outcomes are exactly 0
        assert (dist[dense.born_distribution(psi) == 0.0] == 0.0).all()
    # a Fock state forces outcomes of probability exactly 0, which must not divide by 0
    bits, _ = _outcomes(n)
    for row in rng.choice(2 ** n, size=min(4, 2 ** n), replace=False):
        with np.errstate(all="raise"):
            dist = measurement_distribution(ff.fock_covariance(n, np.flatnonzero(bits[row])))
        assert np.array_equal(dist, dense.born_distribution(dense.fock_state(n, bits[row])))


def test_condition_gathers_like_the_rotated_matrix(rng):
    # forced through random signed permutations, the kernel's joint probabilities
    # equal the distribution of the explicitly rotated covariance, bit for bit
    for n in range(1, 6):
        bits, forced = _outcomes(n)
        fock = ff.fock_covariance(n, np.flatnonzero(rng.integers(0, 2, n)))
        for cov in (random_mixed_covariance(n, rng), random_pure_state(n, rng)[0], fock):
            perms = np.array([rng.permutation(2 * n) for _ in range(6)])
            signs = rng.choice(np.array([-1, 1], np.int8), size=perms.shape)
            rows = (np.repeat(perms, 2 ** n, axis=0), np.repeat(signs, 2 ** n, axis=0))
            got, joint = _condition(cov.matrix, *rows, np.tile(forced, (6, 1)))
            assert (got == np.tile(bits, (6, 1))).all()
            for perm, sign, probs in zip(perms, signs, joint.reshape(6, 2 ** n)):
                q = ff.SignedPermutation(n, tuple(perm), tuple(sign)).matrix()
                rotated = ff.CovarianceMatrix(q @ cov.matrix @ q.T, validate=False)
                assert np.array_equal(probs, measurement_distribution(rotated)), n


@pytest.mark.parametrize("n", [1, 3, 6])
def test_condition_blocks_match_one_block(n, monkeypatch, rng):
    # a 7-row signed batch and the 2^n forced outcomes, run three rows at a time
    # (blocks of 3, 3 and 1 or 2 rows), equal the default run byte for byte
    cov = random_mixed_covariance(n, rng)
    perms = np.array([rng.permutation(2 * n) for _ in range(7)])
    signs = rng.choice(np.array([-1, 1], np.int8), size=perms.shape)
    draws = rng.random((7, n))
    bits, forced = _outcomes(n)
    unrotated = np.broadcast_to(np.arange(2 * n), (2 ** n, 2 * n))
    forced_args = (unrotated, np.ones_like(unrotated), forced)
    whole = [_condition(cov.matrix, perms, signs, draws), _condition(cov.matrix, *forced_args)]
    monkeypatch.setattr(gaussian, "_BLOCK_BYTES", 3 * 16 * n * 2 * n)  # two (3, n, 2n) buffers
    blocked = [_condition(cov.matrix, perms, signs, draws), _condition(cov.matrix, *forced_args)]
    assert (blocked[1][0] == bits).all()
    for (b0, j0), (b1, j1) in zip(whole, blocked):
        assert b0.tobytes() == b1.tobytes() and j0.tobytes() == j1.tobytes()


def test_condition_raises_in_a_later_block(monkeypatch, rng):
    # the nonphysical pairing of test_sampling_raises_through_permutation, in the last
    # of 7 rows: the third row block's only row, after two blocks that pass
    m = ff.vacuum_covariance(3).matrix.copy()
    m[2, 4], m[4, 2] = 3.0, -3.0
    perms = np.tile(np.arange(6), (7, 1))
    signs = np.ones((7, 6), np.int8)
    monkeypatch.setattr(gaussian, "_BLOCK_BYTES", 3 * 16 * 3 * 6)
    assert (ff.sample_bits(m, perms, signs, rng) == 0).all()
    perms[6] = [0, 1, 2, 4, 3, 5]
    with pytest.raises(ValueError, match="outside"):
        ff.sample_bits(m, perms, signs, rng)


def test_condition_without_modes():
    # no modes: no block budget to divide by, every row an empty string of probability 1
    empty = np.zeros((3, 0), np.intp)
    bits, joint = _condition(np.zeros((0, 0)), empty, empty, np.zeros((3, 0)))
    assert bits.shape == (3, 0) and np.array_equal(joint, np.ones(3))


def test_conditioning_slack_scales_with_prefix_probability():
    # two n = 4 pure states that raised: after an unlikely outcome prefix, the
    # input's rounding, grown by 1 / prefix, pushed a forced outcome past 1 + slack
    rng = np.random.default_rng(5)
    draws = [rng.normal(size=(2 * n, 2 * n)) for n in range(1, 6) for _ in range(20)]
    for g in draws[61:63]:
        a = 0.7 * (g - g.T)
        cov = ff.evolve(ff.vacuum_covariance(4), expm(a))
        psi = dense.apply(dense.gaussian_unitary(4, a), dense.vacuum_state(4))
        assert oracle.born_deviation(cov, psi) < 1e-9
        sample_unrotated(cov.matrix, 2000, rng)


def test_sampled_distribution_tv(rng):
    n = 3
    cov, psi = random_pure_state(n, rng)
    born = dense.born_distribution(psi)
    shots = 100_000
    bits = sample_unrotated(cov.matrix, shots, rng)
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
        acc = 0.0
        for subset in [(0, 1), (2, 3), (0, 1, 2, 3)]:
            m = ff.MajoranaMonomial.canonical(n, subset)
            acc += ff.wick_expectation(cov, m).real * dense.build_monomial(m).matrix[z, z].real
        rho_diag[z] = (1.0 + acc) / 4.0
    assert np.max(np.abs(dist - rho_diag)) < 1e-12
