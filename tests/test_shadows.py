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
from freeferm import dense
from freeferm.circuits import compile_naive, dense_unitary
from freeferm.gaussian import measurement_distribution, one_rdm, slater_covariance
from freeferm.shadows import (
    ShadowAccumulator,
    _two_rdm_map,
    exact_two_rdm,
    ladder_product_expansion,
)
from freeferm.tolerances import DEFAULT

from conftest import colex_sets, random_mixed_covariance, random_pure_state, random_slater


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


def exhaustive_estimator_average(cov):
    """Average the single-shot estimator over all of B(4) with exact weights."""
    acc = ShadowAccumulator(2, 2)
    weighted = {j: np.zeros_like(acc.sums[j]) for j in acc.sums}
    count = 0
    for perm in permutations(range(4)):
        for signs in product((1, -1), repeat=4):
            sp = ff.SignedPermutation(2, perm, signs)
            mat = sp.matrix()
            rotated = ff.CovarianceMatrix(mat @ cov.matrix @ mat.T, validate=False)
            probs = measurement_distribution(rotated)
            for z in range(4):
                if probs[z] == 0.0:
                    continue
                bits = np.array([(z >> 1) & 1, z & 1], dtype=np.uint8)
                single = ShadowAccumulator(2, 2)
                single.add_batch(
                    np.array(perm)[None, :], np.array(signs)[None, :], bits[None, :]
                )
                for j in weighted:
                    weighted[j] += probs[z] * single.sums[j]
            count += 1
    assert count == 384
    means = {}
    for j in weighted:
        for rank, idx in enumerate(colex_sets(4, 2 * j)):
            means[idx] = weighted[j][rank] / count
    return means


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
    poly = ff.MajoranaPolynomial(4, {(0, 1, 2, 3): 0.5}, 0.0)
    expected = 0.5 * float(ff.shadow_norm_sq(4, 2)) ** 0.5
    assert abs(ff.observable_norm_bound(poly) - expected) < 1e-12


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


def test_group_closure(rng):
    perms, signs, _ = ff.sample_snapshots(ff.vacuum_covariance(3), 2, rng)
    a, b = (ff.SignedPermutation(3, perms[i].tolist(), signs[i].tolist()) for i in range(2))
    c = a.compose(b)
    assert isinstance(c, ff.SignedPermutation)
    assert sorted(c.perm) == list(range(6))


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
    bits = ff.sample_bits(np.repeat(rotated.matrix[None], shots, axis=0), rng)
    idx = (bits * (2 ** np.arange(n - 1, -1, -1))[None, :]).sum(axis=1)
    tv = 0.5 * np.sum(np.abs(np.bincount(idx, minlength=2 ** n) / shots - exact))
    assert tv < 0.02


# --------------------------------------------------------------- accumulate

def test_accumulate_identity_examples():
    n = 4
    identity = np.arange(2 * n)[None, :]
    ones = np.ones((1, 2 * n), dtype=np.int8)
    acc = ff.ShadowAccumulator(n, 1)
    acc.add_batch(identity, ones, np.array([[0, 0, 0, 0]], dtype=np.uint8))
    est = acc.estimates()
    assert est[(0, 1)] == pytest.approx(7.0)
    acc = ff.ShadowAccumulator(n, 1)
    acc.add_batch(identity, ones, np.array([[1, 0, 0, 0]], dtype=np.uint8))
    est = acc.estimates()
    assert est[(0, 1)] == pytest.approx(-7.0)
    assert all(len(idx) % 2 == 0 for idx in est)


def test_estimates_empty_raises():
    with pytest.raises(ValueError):
        ff.ShadowAccumulator(2, 1).estimates()


def test_single_sample_paths_agree(rng):
    # one-snapshot batches add up to the same sums as one batch of all of them
    n = 3
    perms, signs, bits = ff.sample_snapshots(ff.vacuum_covariance(n), 50, rng)
    whole = ff.ShadowAccumulator(n, 2)
    whole.add_batch(perms, signs, bits)
    single = ff.ShadowAccumulator(n, 2)
    for row in range(50):
        single.add_batch(perms[row:row + 1], signs[row:row + 1], bits[row:row + 1])
    assert single.count == whole.count == 50
    for j in whole.sums:
        assert np.max(np.abs(single.sums[j] - whole.sums[j])) < 1e-12


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
    for j in whole.sums:
        assert np.max(np.abs(first.sums[j] - whole.sums[j])) < 1e-12


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_single_shot_bounded(seed):
    n = 3
    rng = np.random.default_rng(seed)
    perms, signs, _ = ff.sample_snapshots(ff.vacuum_covariance(n), 1, rng)
    bits = rng.integers(0, 2, size=(1, n)).astype(np.uint8)
    acc = ff.ShadowAccumulator(n, 2)
    acc.add_batch(perms, signs, bits)
    est = acc.estimates()
    for idx, val in est.items():
        k = len(idx) // 2
        bound = float(1 / ff.channel_eigenvalue(n, k))
        assert abs(val) <= bound + 1e-9


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_degree_preservation(seed):
    # one sample populates exactly C(n, j) sets in each degree sector
    n = 4
    rng = np.random.default_rng(seed)
    perms, signs, _ = ff.sample_snapshots(ff.vacuum_covariance(n), 1, rng)
    bits = rng.integers(0, 2, size=(1, n)).astype(np.uint8)
    acc = ff.ShadowAccumulator(n, 2)
    acc.add_batch(perms, signs, bits)
    from math import comb

    for j in (1, 2):
        nonzero = np.count_nonzero(acc.sums[j])
        assert nonzero == comb(n, j)


# ------------------------------------------------------- the channel identity

def test_exhaustive_channel_identity(rng):
    # averaging over all 384 elements of B(4) with exact Born weights returns
    # every even expectation exactly, for pure, Fock, and mixed states
    for cov in spanning_states_n2(rng):
        means = exhaustive_estimator_average(cov)
        for idx, val in means.items():
            truth = ff.wick_expectation(cov, ff.MajoranaMonomial.canonical(2, idx)).real
            assert abs(val - truth) <= 1e-12


def test_sampled_estimates_converge(rng):
    n, eta = 4, 2
    s = random_slater(n, eta, rng)
    cov = slater_covariance(s)
    acc = ff.ShadowAccumulator(n, 2)
    total = 60_000
    perms, signs, bits = ff.sample_snapshots(cov, total, rng)
    acc.add_batch(perms, signs, bits)
    est = acc.estimates()
    for idx, val in est.items():
        truth = ff.wick_expectation(cov, ff.MajoranaMonomial.canonical(n, idx)).real
        k = len(idx) // 2
        sigma = float(1 / ff.channel_eigenvalue(n, k)) ** 0.5 / total ** 0.5
        assert abs(val - truth) < 6 * sigma + 1e-3


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
    with pytest.raises(ff.MitigationError):
        ff.symmetry_spec(8, 4, auto_ancilla=False)


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
    exact = {}
    for j in (1, 2):
        for idx in combinations(range(2 * n), 2 * j):
            exact[idx] = ff.wick_expectation(cov, ff.MajoranaMonomial.canonical(n, idx)).real
    out = ff.mitigate(exact, spec)
    for idx, val in out.items():
        assert val == pytest.approx(exact[idx], abs=1e-12)


def test_mitigate_recovers_uniform_scaling(rng):
    n, eta = 5, 2
    s = random_slater(n, eta, rng)
    cov = slater_covariance(s)
    spec = ff.symmetry_spec(n, eta)
    exact = {}
    for j in (1, 2):
        for idx in combinations(range(2 * n), 2 * j):
            exact[idx] = ff.wick_expectation(cov, ff.MajoranaMonomial.canonical(n, idx)).real
    scaled = {idx: (0.61 if len(idx) == 2 else 0.37) * val for idx, val in exact.items()}
    out = ff.mitigate(scaled, spec)
    for idx, val in out.items():
        assert val == pytest.approx(exact[idx], abs=1e-10)


def test_mitigate_guards():
    spec = ff.SymmetrySpec(2, 1, s2=-1.0, s4=-0.5, ancilla_added=False)
    zeros = {idx: 0.0 for j in (1, 2) for idx in combinations(range(4), 2 * j)}
    with pytest.raises(ff.MitigationError):
        ff.mitigate(zeros, spec)
    too_deep = dict(zeros)
    too_deep[(0, 1, 2, 3)] = 0.1
    too_deep[tuple(range(6))] = 0.0
    with pytest.raises(ValueError):
        ff.mitigate({tuple(range(6)): 0.0, **zeros}, spec)


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
    exact = {}
    for j in (1, 2):
        for idx in combinations(range(2 * n), 2 * j):
            exact[idx] = ff.wick_expectation(cov, ff.MajoranaMonomial.canonical(n, idx)).real
    d2 = ff.two_rdm(exact, n)
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
    assert np.max(np.abs(ff.two_rdm(keyed, n) - ref)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_two_rdm_map_ignores_ancilla(n, rng):
    # sectors over n + 1 modes: the first n modes' sets are a colex prefix
    sectors, keyed = random_sectors(n + 1, rng)
    ref = reference_two_rdm(keyed, n)
    assert np.max(np.abs(ff.two_rdm(sectors, n) - ref)) < 1e-12
    assert np.max(np.abs(ff.two_rdm(keyed, n) - ref)) < 1e-12


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


def test_sector_means_match_estimates(rng):
    n = 4
    perms, signs, _ = ff.sample_snapshots(ff.vacuum_covariance(n), 200, rng)
    bits = rng.integers(0, 2, size=(200, n)).astype(np.uint8)
    acc = ShadowAccumulator(n, 2)
    acc.add_batch(perms, signs, bits)
    keyed = acc.estimates()
    assert len(keyed) == comb(2 * n, 2) + comb(2 * n, 4)
    for j, means in acc.sector_means().items():
        for r, idx in enumerate(colex_sets(2 * n, 2 * j)):
            assert means[r] == keyed[idx]


def test_mitigate_array_and_dict_forms_agree(rng):
    n, eta = 5, 2
    spec = ff.symmetry_spec(n, eta)
    sectors, keyed = random_sectors(n, rng)
    arrays = ff.mitigate(sectors, spec)
    by_set = ff.mitigate(keyed, spec)
    for j in (1, 2):
        for r, idx in enumerate(colex_sets(2 * n, 2 * j)):
            assert arrays[j][r] == by_set[idx]


def test_mitigate_array_guards():
    spec = ff.SymmetrySpec(2, 1, s2=-1.0, s4=-0.5, ancilla_added=False)
    zeros = {1: np.zeros(6), 2: np.zeros(1)}
    with pytest.raises(ff.MitigationError):
        ff.mitigate(zeros, spec)
    with pytest.raises(ValueError):
        ff.mitigate({**zeros, 3: np.zeros(0)}, spec)
