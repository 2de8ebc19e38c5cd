"""Randomized-measurement estimation, channel identity, and mitigation."""
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

import freeferm as ff
from freeferm import dense, oracle
from freeferm.circuits import compile_naive
from freeferm.dense import dense_unitary
from freeferm.gaussian import measurement_distribution, one_rdm, slater_covariance
from freeferm.shadows import (
    ShadowAccumulator,
    _frame,
    _two_rdm_map,
    exact_two_rdm,
)

from conftest import (
    colex_sets,
    ladder_product_expansion,
    random_mixed_covariance,
    random_pure_state,
    random_slater,
    sample_unrotated,
)


def spanning_states_n2(rng):
    states = [
        ff.vacuum_covariance(2),
        ff.fock_covariance(2, (0,)),
        ff.fock_covariance(2, (1,)),
        ff.fock_covariance(2, (0, 1)),
    ]
    for _ in range(4):
        cov, _ = random_pure_state(2, rng)
        states.append(cov)
    for _ in range(4):
        states.append(random_mixed_covariance(2, rng))
    return states


def exact_sectors(cov, n):
    """Exact degree-2 and degree-4 expectations as sector arrays, in colex order."""
    return {j: np.array([ff.wick_expectation(cov, ff.MajoranaMonomial.canonical(n, idx)).real
                         for idx in colex_sets(2 * n, 2 * j)])
            for j in (1, 2)}


# ------------------------------------------------------- channel eigenvalues

def test_channel_eigenvalues_exact():
    assert ff.channel_eigenvalue(2, 1) == Fraction(1, 3)
    assert ff.channel_eigenvalue(4, 1) == Fraction(1, 7)
    assert ff.channel_eigenvalue(4, 2) == Fraction(3, 35)
    assert ff.channel_eigenvalue(2, 2) == Fraction(1, 1)
    with pytest.raises(ValueError):
        ff.channel_eigenvalue(2, 3)


def test_shadow_norms():
    assert ff.shadow_norm_sq(4, 1) == Fraction(7, 1)
    assert ff.shadow_norm_sq(4, 2) == Fraction(70, 6)


# ----------------------------------------------------------------- sampling

def test_alt2_is_trivial(rng):
    perms, signs, bits = ff.sample_snapshots(ff.vacuum_covariance(1), 20, rng, group="alt")
    assert (perms == [0, 1]).all() and (signs == 1).all()
    assert not bits.any()


def test_alt_group_has_even_parity(rng):
    perms, signs, _ = ff.sample_snapshots(ff.vacuum_covariance(3), 50, rng, group="alt")
    assert (signs == 1).all()
    for perm in perms.tolist():
        assert ff.SignedPermutation(3, perm, (1,) * 6).perm_parity == 0


def test_b4_uniformity_chi2(rng):
    draws = 100_000
    perms, signs, _ = ff.sample_snapshots(ff.vacuum_covariance(2), draws, rng)
    # index each of the 384 elements
    keys = {}
    counts = np.zeros(384)
    for perm in permutations(range(4)):
        for sgn in product((1, -1), repeat=4):
            keys[(perm, sgn)] = len(keys)
    for row in range(draws):
        key = (tuple(perms[row]), tuple(signs[row]))
        counts[keys[key]] += 1
    expected = draws / 384.0
    stat = np.sum((counts - expected) ** 2 / expected)
    assert stat < chi2.ppf(0.99, 383)


def test_acquire_deterministic_cases(rng):
    # Alt(2) holds only the identity, so one mode's vacuum always reads 0
    vac = ff.vacuum_covariance(1)
    _, _, bits = ff.sample_snapshots(vac, 10, rng, group="alt")
    assert bits.shape == (10, 1) and not bits.any()
    _, _, bits = ff.sample_snapshots(vac, 10, rng, group="alt",
                                     noise=ff.NoiseModel("bit_flip", 1.0))
    assert bits.all()


def test_acquire_distribution_matches_dense(rng):
    # random signed permutation on the vacuum: outcome distribution equals the
    # dense simulation of the rotated state
    n = 3
    perm = tuple(int(x) for x in rng.permutation(2 * n))
    signs = tuple(int(s) for s in rng.choice((-1, 1), size=2 * n))
    q = ff.SignedPermutation(n, perm, signs)
    mat = q.matrix()
    rotated = ff.CovarianceMatrix(mat @ ff.vacuum_covariance(n).matrix @ mat.T)
    exact = measurement_distribution(rotated)
    u = dense_unitary(compile_naive(mat))
    psi = dense.DenseState(n, u @ dense.vacuum_state(n).vector)
    assert np.max(np.abs(exact - dense.born_distribution(psi))) < 1e-10
    # and the sampled path follows it
    shots = 20_000
    bits = sample_unrotated(rotated.matrix, shots, rng)
    idx = (bits * (2 ** np.arange(n - 1, -1, -1))[None, :]).sum(axis=1)
    tv = 0.5 * np.sum(np.abs(np.bincount(idx, minlength=2 ** n) / shots - exact))
    assert tv < 0.02


# --------------------------------------------------------------- accumulate

def test_accumulate_identity_examples():
    n = 4
    identity = np.arange(2 * n)[None, :]
    ones = np.ones((1, 2 * n), dtype=np.int8)
    rank = colex_sets(2 * n, 2).index((0, 1))
    acc = ff.ShadowAccumulator(n, 1)
    acc.add_batch(identity, ones, np.array([[0, 0, 0, 0]], dtype=np.uint8))
    est = acc.sector_means()
    assert est[1][rank] == pytest.approx(7.0)
    acc = ff.ShadowAccumulator(n, 1)
    acc.add_batch(identity, ones, np.array([[1, 0, 0, 0]], dtype=np.uint8))
    est = acc.sector_means()
    assert est[1][rank] == pytest.approx(-7.0)
    assert list(est) == [1] and len(est[1]) == comb(2 * n, 2)


def test_estimates_empty_raises():
    with pytest.raises(ValueError):
        ff.ShadowAccumulator(2, 1).sector_means()


def test_single_sample_paths_agree(rng):
    # one-snapshot batches add up to the same tallies as one batch of all of them
    n = 3
    perms, signs, bits = ff.sample_snapshots(ff.vacuum_covariance(n), 50, rng)
    whole = ff.ShadowAccumulator(n, 2)
    whole.add_batch(perms, signs, bits)
    single = ff.ShadowAccumulator(n, 2)
    for row in range(50):
        single.add_batch(perms[row:row + 1], signs[row:row + 1], bits[row:row + 1])
    assert single.count == whole.count == 50
    for j in whole.signed:
        assert np.array_equal(single.signed[j], whole.signed[j])


def test_merge_matches_sequential(rng):
    n = 3
    perms, signs, _ = ff.sample_snapshots(ff.vacuum_covariance(n), 60, rng)
    bits = rng.integers(0, 2, size=(60, n)).astype(np.uint8)
    whole = ff.ShadowAccumulator(n, 2)
    whole.add_batch(perms, signs, bits)
    first = ff.ShadowAccumulator(n, 2)
    second = ff.ShadowAccumulator(n, 2)
    first.add_batch(perms[:25], signs[:25], bits[:25])
    second.add_batch(perms[25:], signs[25:], bits[25:])
    first.merge(second)
    assert first.count == whole.count
    for j in whole.signed:
        assert np.array_equal(first.signed[j], whole.signed[j])


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_single_shot_bounded(seed):
    n = 3
    rng = np.random.default_rng(seed)
    perms, signs, _ = ff.sample_snapshots(ff.vacuum_covariance(n), 1, rng)
    bits = rng.integers(0, 2, size=(1, n)).astype(np.uint8)
    acc = ff.ShadowAccumulator(n, 2)
    acc.add_batch(perms, signs, bits)
    for j, means in acc.sector_means().items():
        bound = float(1 / ff.channel_eigenvalue(n, j))
        assert np.all(np.abs(means) <= bound + 1e-9)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_degree_preservation(seed):
    # one sample puts +-1 on exactly C(n, j) sets in each degree sector
    n = 4
    rng = np.random.default_rng(seed)
    perms, signs, _ = ff.sample_snapshots(ff.vacuum_covariance(n), 1, rng)
    bits = rng.integers(0, 2, size=(1, n)).astype(np.uint8)
    acc = ff.ShadowAccumulator(n, 2)
    acc.add_batch(perms, signs, bits)
    for j in (1, 2):
        hits = np.bincount(np.abs(acc.signed[j]))
        assert np.array_equal(hits, [comb(2 * n, 2 * j) - comb(n, j), comb(n, j)])


# ------------------------------------------------------- the channel identity

def test_exhaustive_channel_identity(rng):
    # averaging over all 384 elements of B(4) with exact Born weights returns
    # every even expectation exactly, for pure, Fock, and mixed states
    for cov in spanning_states_n2(rng):
        assert oracle.channel_identity_deviation(cov) <= 1e-12


def test_sampled_estimates_converge(rng):
    n, eta = 4, 2
    s = random_slater(n, eta, rng)
    cov = slater_covariance(s)
    acc = ff.ShadowAccumulator(n, 2)
    total = 60_000
    perms, signs, bits = ff.sample_snapshots(cov, total, rng)
    acc.add_batch(perms, signs, bits)
    est = acc.sector_means()
    for j, truths in exact_sectors(cov, n).items():
        sigma = float(1 / ff.channel_eigenvalue(n, j)) ** 0.5 / total ** 0.5
        for rank, truth in enumerate(truths):
            assert abs(est[j][rank] - truth) < 6 * sigma + 1e-3


# ------------------------------------------------------------- sample bounds

def test_sample_bound_values():
    assert ff.sample_bound(0.1, 0.01, 10, 7) == 10997
    doubled = ff.sample_bound(0.1, 0.01, 10, 14)
    assert abs(doubled - 2 * 10997) <= 2
    assert ff.sample_bound(0.2, 0.01, 10, 7) < ff.sample_bound(0.1, 0.01, 10, 7)
    with pytest.raises(ValueError):
        ff.sample_bound(0.0, 0.01, 10, 7)
    with pytest.raises(ValueError):
        ff.sample_bound(0.1, 1.5, 10, 7)


# ----------------------------------------------------------------- symmetry

def test_symmetry_spec_values():
    spec = ff.symmetry_spec(8, 2)
    assert spec.s2 == -2.0 and spec.s4 == 2.0 and not spec.ancilla_added
    spec = ff.symmetry_spec(8, 4)
    assert spec.ancilla_added and spec.n_modes == 9
    assert spec.s2 == pytest.approx(-0.5)


def test_vacuum_number_moment():
    # <S2> on the vacuum equals -n/2
    for n in (2, 5):
        vac = ff.vacuum_covariance(n)
        val = -0.5 * sum(
            ff.wick_expectation(vac, ff.MajoranaMonomial.canonical(n, (2 * p, 2 * p + 1))).real
            for p in range(n)
        )
        assert val == pytest.approx(-n / 2)


def test_mitigate_noiseless_is_identity(rng):
    n, eta = 5, 2
    s = random_slater(n, eta, rng)
    cov = slater_covariance(s)
    spec = ff.symmetry_spec(n, eta)
    exact = exact_sectors(cov, n)
    out = ff.mitigate(exact, spec)
    for j, values in out.items():
        assert np.max(np.abs(values - exact[j])) <= 1e-12


def test_mitigate_recovers_uniform_scaling(rng):
    n, eta = 5, 2
    s = random_slater(n, eta, rng)
    cov = slater_covariance(s)
    spec = ff.symmetry_spec(n, eta)
    exact = exact_sectors(cov, n)
    scaled = {1: 0.61 * exact[1], 2: 0.37 * exact[2]}
    out = ff.mitigate(scaled, spec)
    for j, values in out.items():
        assert np.max(np.abs(values - exact[j])) <= 1e-10


def test_mitigate_guards(rng):
    n, eta = 5, 2
    spec = ff.symmetry_spec(n, eta)
    exact = exact_sectors(slater_covariance(random_slater(n, eta, rng)), n)
    # the two-body ratio alone vanishing is enough to refuse
    with pytest.raises(ff.MitigationError):
        ff.mitigate({1: exact[1], 2: np.zeros_like(exact[2])}, spec)
    # a deeper sector is refused even when both ratios are sound
    with pytest.raises(ValueError):
        ff.mitigate({**exact, 3: np.zeros(comb(2 * n, 6))}, spec)


# -------------------------------------------------------------- noise models

def test_noise_validation():
    with pytest.raises(ValueError):
        ff.NoiseModel("sparkle", 0.1)
    with pytest.raises(ValueError):
        ff.NoiseModel("bit_flip", 1.5)


@pytest.mark.parametrize("kind", ["bit_flip", "depolarizing", "amplitude_damping"])
def test_noise_matches_dense_channel(kind, rng):
    # classical bit channel equals the dense Kraus channel on measurement
    # outcome distributions, for n <= 3
    n = 3
    p = 0.3
    cov, psi = random_pure_state(n, rng)
    probs = dense.born_distribution(psi)

    if kind == "bit_flip":
        kraus = [np.sqrt(1 - p) * dense.pauli_matrix("I"), np.sqrt(p) * dense.pauli_matrix("X")]
    elif kind == "depolarizing":
        kraus = [
            np.sqrt(1 - 3 * p / 4) * dense.pauli_matrix("I"),
            np.sqrt(p / 4) * dense.pauli_matrix("X"),
            np.sqrt(p / 4) * dense.pauli_matrix("Y"),
            np.sqrt(p / 4) * dense.pauli_matrix("Z"),
        ]
    else:
        kraus = [
            np.array([[1.0, 0.0], [0.0, np.sqrt(1 - p)]]),
            np.array([[0.0, np.sqrt(p)], [0.0, 0.0]]),
        ]

    rho = np.outer(psi.vector, psi.vector.conj())
    for qubit in range(n):
        new = np.zeros_like(rho)
        for k in kraus:
            full = [np.eye(2)] * n
            full[qubit] = k
            op = np.array([[1.0 + 0j]])
            for f in full:
                op = np.kron(op, f)
            new += op @ rho @ op.conj().T
        rho = new
    dense_probs = np.real(np.diag(rho))

    # classical channel: transition matrix applied to the ideal distribution
    if kind == "bit_flip":
        flip = p
        stay1 = 1 - p
    elif kind == "depolarizing":
        flip = p / 2
        stay1 = 1 - p / 2
    else:
        flip = 0.0
        stay1 = 1 - p
    classical = np.zeros_like(probs)
    for z in range(2 ** n):
        bits = [(z >> (n - 1 - i)) & 1 for i in range(n)]
        for w in range(2 ** n):
            wbits = [(w >> (n - 1 - i)) & 1 for i in range(n)]
            weight = 1.0
            for b, c in zip(bits, wbits):
                if b == 0:
                    weight *= (1 - flip) if c == 0 else flip
                else:
                    weight *= stay1 if c == 1 else (1 - stay1)
            classical[w] += probs[z] * weight
    assert np.max(np.abs(classical - dense_probs)) < 1e-10

    # empirical check of apply_batch against the same transition matrix
    shots = 40_000
    start = rng.choice(2 ** n, size=shots, p=probs)
    bits = ((start[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1).astype(np.uint8)
    noisy = ff.NoiseModel(kind, p).apply_batch(bits, rng)
    idx = (noisy * (2 ** np.arange(n - 1, -1, -1))[None, :]).sum(axis=1)
    emp = np.bincount(idx, minlength=2 ** n) / shots
    assert 0.5 * np.sum(np.abs(emp - classical)) < 0.02


# ------------------------------------------------------------------- 2-RDM

def test_ladder_expansion_number_operator():
    # a_p^dag a_p = (1 - Gamma_(2p,2p+1)) / 2
    poly = ladder_product_expansion(2, [(0, True), (0, False)])
    assert poly[()] == pytest.approx(0.5)
    assert poly[(0, 1)] == pytest.approx(-0.5)
    assert all(abs(v) < 1e-14 for k, v in poly.items() if k not in [(), (0, 1)])


def test_two_rdm_from_exact_inputs(rng):
    n, eta = 4, 2
    s = random_slater(n, eta, rng)
    cov = slater_covariance(s)
    d2 = ff.two_rdm(exact_sectors(cov, n), n)
    ref = exact_two_rdm(one_rdm(s))
    assert np.max(np.abs(d2 - ref)) < 1e-10
    assert np.max(np.abs(d2 - d2.conj().T)) < 1e-12
    for i in range(d2.shape[0]):
        assert -1e-9 <= d2[i, i].real <= 1.0 + 1e-9


def test_exact_two_rdm_identity_slater():
    s = ff.SlaterDeterminant(np.eye(4)[:, :2])
    d2 = exact_two_rdm(one_rdm(s))
    assert d2[0, 0] == pytest.approx(1.0)  # pair (0, 1) occupied
    assert np.trace(d2).real == pytest.approx(1.0)  # binom(eta, 2)


@pytest.mark.parametrize("n", [2, 5, 9])
def test_exact_two_rdm_rounds_as_scalar_products(n, rng):
    # error_curve.csv compares against this truth, so its every bit is pinned
    d1 = one_rdm(random_slater(n, n // 2 + 1, rng))
    pairs = list(combinations(range(n), 2))
    ref = np.array([[d1[r, p] * d1[s, q] - d1[s, p] * d1[r, q] for r, s in pairs]
                    for p, q in pairs])
    assert exact_two_rdm(d1).tobytes() == ref.tobytes()


def reference_two_rdm(est, n):
    """Entry-by-entry assembly through the symbolic ladder expansion."""
    pairs = list(combinations(range(n), 2))
    out = np.zeros((len(pairs), len(pairs)), dtype=complex)
    for i, (p, q) in enumerate(pairs):
        for j, (r, s) in enumerate(pairs):
            poly = ladder_product_expansion(n, [(p, True), (q, True), (s, False), (r, False)])
            out[i, j] = sum(c * (est[idx] if idx else 1.0) for idx, c in poly.items())
    return out


def random_sectors(n, rng):
    """Random degree-2 and degree-4 sector arrays and the same values keyed by index set."""
    sectors = {j: rng.normal(size=comb(2 * n, 2 * j)) for j in (1, 2)}
    keyed = {idx: float(sectors[j][r])
             for j in (1, 2) for r, idx in enumerate(colex_sets(2 * n, 2 * j))}
    return sectors, keyed


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_two_rdm_map_matches_ladder_expansion(n, rng):
    sectors, keyed = random_sectors(n, rng)
    ref = reference_two_rdm(keyed, n)
    assert np.max(np.abs(ff.two_rdm(sectors, n) - ref)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_two_rdm_map_ignores_ancilla(n, rng):
    # sectors over n + 1 modes: the first n modes' sets are a colex prefix
    sectors, keyed = random_sectors(n + 1, rng)
    ref = reference_two_rdm(keyed, n)
    assert np.max(np.abs(ff.two_rdm(sectors, n) - ref)) < 1e-12


def test_two_rdm_map_is_shared_read_only(rng):
    n = 5
    sectors, _ = random_sectors(n, rng)
    _two_rdm_map.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(ff.two_rdm, sectors, n) for _ in range(8)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(r, results[0]) for r in results)
    with pytest.raises(ValueError):
        _two_rdm_map(n).weight[0] = 0.0


def test_two_rdm_rejects_short_sectors(rng):
    sectors, _ = random_sectors(3, rng)
    with pytest.raises(ValueError):
        ff.two_rdm(sectors, 4)


@pytest.mark.parametrize("n, k_max", [(4, 2), (5, 3), (10, 2)])
def test_sector_means_match_estimates(rng, n, k_max):
    # add_batch against a per-snapshot, per-set reference keyed by index set;
    # (5, 3) reaches degree 6 and (10, 2) a non-integer 1/lambda_2 = 4845/45
    size = 200
    perms, signs, _ = ff.sample_snapshots(ff.vacuum_covariance(n), size, rng)
    bits = rng.integers(0, 2, size=(size, n)).astype(np.uint8)
    acc = ShadowAccumulator(n, k_max)
    acc.add_batch(perms, signs, bits)
    for j, means in acc.sector_means().items():
        lam_inv = float(1 / ff.channel_eigenvalue(n, j))
        keyed = dict.fromkeys(combinations(range(2 * n), 2 * j), 0)
        for perm, sign, z in zip(perms, signs, bits):
            for modes in combinations(range(n), j):
                tau = [i for p in modes for i in (2 * p, 2 * p + 1)]
                image = [int(perm[i]) for i in tau]
                inversions = sum(a > b for a, b in combinations(image, 2))
                value = (-1) ** inversions * int(np.prod(sign[tau]))
                value *= int(np.prod(1 - 2 * z[list(modes)].astype(int)))
                keyed[tuple(sorted(image))] += value
        tally = [keyed[idx] for idx in colex_sets(2 * n, 2 * j)]
        assert np.array_equal(acc.signed[j], tally)
        assert len(means) == len(keyed)
        for r, value in enumerate(tally):
            assert means[r] == pytest.approx(lam_inv * value / size, abs=1e-12)


def test_mitigate_array_guards():
    spec = ff.SymmetrySpec(2, 1, s2=-1.0, s4=-0.5, ancilla_added=False)
    zeros = {1: np.zeros(6), 2: np.zeros(1)}
    with pytest.raises(ff.MitigationError):
        ff.mitigate(zeros, spec)
    with pytest.raises(ValueError):
        ff.mitigate({**zeros, 3: np.zeros(0)}, spec)


def test_frame_is_shared_read_only(rng):
    n, k = 6, 3
    perms, signs, bits = ff.sample_snapshots(ff.vacuum_covariance(n), 20, rng)

    def accumulate():
        acc = ShadowAccumulator(n, k)
        acc.add_batch(perms, signs, bits)
        return acc

    _frame.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(accumulate) for _ in range(8)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    first = results[0]
    for acc in results:
        assert all(np.array_equal(acc.signed[j], first.signed[j]) for j in first.signed)
        for (prefix, last, lam_inv), (prefix0, last0, lam0) in zip(acc.frame, first.frame):
            assert np.array_equal(prefix, prefix0) and np.array_equal(last, last0)
            assert lam_inv == lam0
    # the mode sets {0, 1}, {0, 2}, {1, 2}, {0, 3} grow from {0}, {0}, {1}, {0}
    prefix, last, _ = _frame(n, k)[1]
    assert prefix[:4].tolist() == [0, 0, 1, 0] and last[:4].tolist() == [1, 2, 2, 3]
    with pytest.raises(ValueError):
        prefix[0] = 1
    with pytest.raises(ValueError):
        last[0] = 1
