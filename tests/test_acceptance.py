"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The long tomography
criteria (3 and 4) draw a few million snapshots and take a few minutes.
"""
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
from scipy.stats import ortho_group

import freeferm as ff
from freeferm import dense, oracle
from freeferm.circuits import compile_blocked, compile_naive
from freeferm.gaussian import one_rdm, slater_covariance
from freeferm.shadows import ShadowAccumulator, exact_two_rdm

from conftest import (
    colex_sets,
    dense_hamiltonian,
    random_antisymmetric,
    random_mixed_covariance,
    random_pure_state,
    random_slater,
    random_symmetric_integrals,
    sample_unrotated,
    stats_compare,
)


def report(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


# -----------------------------------------------------------------------------
# criterion 1: exact channel identity, exhaustive over B(4)


def test_criterion_1_exact_channel_identity():
    rng = np.random.default_rng(101)
    states = [
        ff.vacuum_covariance(2),
        ff.fock_covariance(2, (0,)),
        ff.fock_covariance(2, (1,)),
        ff.fock_covariance(2, (0, 1)),
    ]
    for _ in range(3):
        cov, _ = random_pure_state(2, rng)
        states.append(cov)
    for _ in range(3):
        states.append(random_mixed_covariance(2, rng))

    worst = oracle.largest(oracle.channel_identity_deviation(cov) for cov in states)
    ok = worst <= 1e-12
    assert report("1 exact shadow-channel identity (n=2)", ok, f"max dev {worst:.2e}")


# -----------------------------------------------------------------------------
# criterion 2: channel eigenvalues, exact rational arithmetic


def test_criterion_2_channel_eigenvalues():
    ok = (
        ff.channel_eigenvalue(2, 1) == Fraction(1, 3)
        and ff.channel_eigenvalue(4, 1) == Fraction(1, 7)
        and ff.channel_eigenvalue(4, 2) == Fraction(3, 35)
        and all(
            ff.channel_eigenvalue(n, k) == Fraction(comb(n, k), comb(2 * n, 2 * k))
            for n in range(1, 8)
            for k in range(n + 1)
        )
    )
    assert report("2 channel eigenvalues (exact rationals)", ok)


# -----------------------------------------------------------------------------
# shared tomography driver for criteria 3 and 4


def error_curve(n, eta, noise, seed, checkpoints, mitigated=False):
    """Spectral-norm 2-RDM error at each checkpoint for one random Slater state."""
    rng = np.random.default_rng(seed)
    slater = random_slater(n, eta, rng)
    cov = slater_covariance(slater)
    truth = exact_two_rdm(one_rdm(slater))
    spec = ff.symmetry_spec(n, eta)
    assert not spec.ancilla_added
    acc = ShadowAccumulator(n, 2)
    raw_errors = []
    mit_errors = []
    batch = 10_000
    total = max(checkpoints)
    done = 0
    marks = iter(checkpoints)
    mark = next(marks)
    while done < total:
        size = min(batch, total - done, mark - done)
        perms, signs, bits = ff.sample_snapshots(cov, size, rng, noise=noise)
        acc.add_batch(perms, signs, bits)
        done += size
        if done == mark:
            est = acc.sector_means()
            raw_errors.append(np.linalg.norm(ff.two_rdm(est, n) - truth, 2))
            if mitigated:
                adj = ff.mitigate(est, spec)
                mit_errors.append(np.linalg.norm(ff.two_rdm(adj, n) - truth, 2))
            mark = next(marks, None)
            if mark is None:
                break
    return np.array(raw_errors), np.array(mit_errors)


# -----------------------------------------------------------------------------
# criterion 3: noiseless convergence slope


def test_criterion_3_noiseless_convergence():
    checkpoints = [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]
    slopes = []
    for state_idx in range(5):
        raw, _ = error_curve(8, 2, ff.NoiseModel(), seed=300 + state_idx,
                             checkpoints=checkpoints)
        slope = np.polyfit(np.log10(checkpoints), np.log10(raw), 1)[0]
        slopes.append(slope)
    median = float(np.median(slopes))
    ok = -0.6 <= median <= -0.4
    assert report("3 noiseless convergence slope (n=8, eta=2)", ok,
                  f"median slope {median:+.3f}")


# -----------------------------------------------------------------------------
# criterion 4: symmetry-adjusted mitigation beats the readout-noise plateau


def test_criterion_4_mitigation_beats_plateau():
    checkpoints = [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]
    noise = ff.NoiseModel("bit_flip", 0.2)
    raws, mits = [], []
    for state_idx in range(3):
        raw, mit = error_curve(8, 2, noise, seed=400 + state_idx,
                               checkpoints=checkpoints, mitigated=True)
        raws.append(raw)
        mits.append(mit)
    raw = np.median(raws, axis=0)
    mit = np.median(mits, axis=0)
    plateaued = raw[-1] >= 0.7 * raw[-2]
    decreasing = mit[-1] <= 0.7 * mit[-2]
    separated = raw[-1] >= 3.0 * mit[-1]
    ok = plateaued and decreasing and separated
    assert report(
        "4 symmetry-adjusted mitigation (bit flip p=0.2)", ok,
        f"unmitigated {raw[-2]:.3f}->{raw[-1]:.3f}, mitigated {mit[-2]:.3f}->{mit[-1]:.3f}",
    )


# -----------------------------------------------------------------------------
# criterion 5: oracle equivalence of the Gaussian engine


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(500)
    worst = oracle.largest(oracle.wick_deviation(*random_pure_state(n, rng), (2, 4, 6))
                           for n in (2, 3, 4, 5) for _ in range(50))
    expectations_ok = worst <= 1e-9

    tv_worst = 0.0
    shots = 100_000
    for n in (2, 3):
        cov, psi = random_pure_state(n, rng)
        born = dense.born_distribution(psi)
        # exact single-mode conditioning, sampled in one vectorized batch
        bits = sample_unrotated(cov.matrix, shots, rng)
        idx = (bits * (2 ** np.arange(n - 1, -1, -1))[None, :]).sum(axis=1)
        emp = np.bincount(idx, minlength=2 ** n) / shots
        tv_worst = max(tv_worst, 0.5 * float(np.sum(np.abs(emp - born))))
    sampling_ok = tv_worst <= 0.01

    ok = expectations_ok and sampling_ok
    assert report("5 oracle equivalence (Wick + sampling)", ok,
                  f"max moment dev {worst:.2e}, max TV {tv_worst:.4f}")


# -----------------------------------------------------------------------------
# criterion 6: free-fermion spectra


def test_criterion_6_free_spectrum():
    rng = np.random.default_rng(600)
    worst = oracle.largest(oracle.spectrum_deviation(random_antisymmetric(n, rng))
                           for n in (2, 3, 4) for _ in range(100))
    ok = worst <= 1e-9
    assert report("6 free-fermion spectrum vs dense eigenvalues", ok,
                  f"max dev {worst:.2e}")


# -----------------------------------------------------------------------------
# criterion 7: compiler round trip, dense conjugation, and size ratios


def test_criterion_7a_compiler_round_trip():
    rng = np.random.default_rng(700)
    deviations = []
    for n in range(2, 9):
        for _ in range(100):
            q = ortho_group.rvs(2 * n, random_state=rng)
            for compiler in (compile_naive, compile_blocked):
                deviations.append(oracle.round_trip_deviation(compiler(q), q))
    worst = oracle.largest(deviations)
    ok = worst <= 1e-9
    assert report("7a compiler round trip (n=2..8)", ok, f"max dev {worst:.2e}")


def test_criterion_7b_compiler_dense_conjugation():
    rng = np.random.default_rng(701)
    deviations = []
    for n in (2, 3, 4, 5):
        q = ortho_group.rvs(2 * n, random_state=rng)
        for compiler in (compile_naive, compile_blocked):
            deviations.append(oracle.conjugation_deviation(compiler(q), q))
    worst = oracle.largest(deviations)
    ok = worst <= 1e-8
    assert report("7b compiled circuits conjugate like Q (n<=5)", ok,
                  f"max dev {worst:.2e}")


def test_criterion_7c_blocked_depth_ratio():
    rng = np.random.default_rng(702)
    ratios = [stats_compare(ortho_group.rvs(64, random_state=rng))["depth_ratio"]
              for _ in range(3)]
    worst = max(ratios)
    ok = worst <= 0.75
    assert report("7c blocked/naive depth ratio at n=32", ok, f"max ratio {worst:.3f}")


def test_criterion_7d_blocked_rotation_count_ratio():
    # Expected to fail: both schemes emit exactly n(2n-1) rotations, the
    # dimension of the rotation group, so the ratio cannot drop below 1 for
    # any exact compiler over the {Z, XX} rotation basis. The target encodes
    # a hardware-gate-set saving that this library deliberately does not
    # model; see README, "Compiler statistics".
    rng = np.random.default_rng(703)
    ratios = [stats_compare(ortho_group.rvs(64, random_state=rng))["rotation_ratio"]
              for _ in range(3)]
    worst = max(ratios)
    ok = worst <= 0.8
    report("7d blocked/naive rotation-count ratio at n=32", ok, f"max ratio {worst:.3f}")
    assert ok


# -----------------------------------------------------------------------------
# criterion 8: partitioner


def test_criterion_8_partitioner():
    rng = np.random.default_rng(800)

    counts_ok = all(
        sum(1 for g in ff.analytic_partition(n) if any(len(t) == 4 for t in g))
        == comb(n, 2) * (n - 2)
        for n in range(3, 9)
    )

    anticommute_ok = True
    for n in range(3, 7):
        for group in ff.analytic_partition(n):
            for a, b in combinations(group, 2):
                if not ff.anticommutes(
                    ff.MajoranaMonomial.canonical(n, a),
                    ff.MajoranaMonomial.canonical(n, b),
                ):
                    anticommute_ok = False

    energy_ok = True
    bounds_ok = True
    greedy_ok = True
    for n in (2, 3, 4):
        h1, h2 = random_symmetric_integrals(n, rng)
        ints = ff.ElectronicIntegrals(n, h1, h2)
        poly = ff.majorana_form(ints)
        part = ff.greedy_partition(poly)
        greedy_ok &= len(part.sets) < len(poly.terms)
        rep = ff.norms_report(poly, part)
        bounds_ok &= rep["bounds_ok"]

        dim = 2 ** n
        total = poly.constant * np.eye(dim, dtype=complex)
        for s in part.sets:
            plan = ff.rotation_plan(s.members, s.betas)
            rot = np.eye(dim, dtype=complex)
            target = dense.build_monomial(
                ff.MajoranaMonomial.canonical(n, plan.target)).matrix
            for member, theta in plan.steps:
                pk = dense.build_monomial(
                    ff.MajoranaMonomial.canonical(n, member)).matrix
                x = 1j * target @ pk
                rot = (np.cos(theta / 2) * np.eye(dim) - 1j * np.sin(theta / 2) * x) @ rot
            total += s.gamma * plan.target_sign * rot.conj().T @ target @ rot
        energy_ok &= bool(np.max(np.abs(total - dense_hamiltonian(ints))) < 1e-8)

    ok = counts_ok and anticommute_ok and energy_ok and bounds_ok and greedy_ok
    assert report(
        "8 partitioner (count law, anticommutation, energy, norms)", ok,
        f"counts {counts_ok}, pairs {anticommute_ok}, energy {energy_ok}, "
        f"norms {bounds_ok}, greedy {greedy_ok}",
    )


# -----------------------------------------------------------------------------
# criterion 9: sample bound formula and empirical coverage


def test_criterion_9_sample_bound():
    formula_ok = ff.sample_bound(0.1, 0.01, 10, 7) == 10997

    # empirical Bernstein coverage on an n=2 instance
    rng = np.random.default_rng(900)
    n = 2
    cov, _ = random_pure_state(n, rng)
    observables = {j: colex_sets(2 * n, 2 * j) for j in (1, 2)}
    truths = {
        j: np.array([ff.wick_expectation(cov, ff.MajoranaMonomial.canonical(n, idx)).real
                     for idx in sets])
        for j, sets in observables.items()
    }
    n_observables = sum(len(sets) for sets in observables.values())
    epsilon, delta = 0.1, 0.01
    max_sq = max(float(1 / ff.channel_eigenvalue(n, j)) for j in (1, 2))
    m_bound = ff.sample_bound(epsilon, delta, n_observables, max_sq)
    failures = 0
    reps = 200
    for _ in range(reps):
        acc = ShadowAccumulator(n, 2)
        perms, signs, bits = ff.sample_snapshots(cov, m_bound, rng)
        acc.add_batch(perms, signs, bits)
        est = acc.sector_means()
        if any(np.any(np.abs(est[j] - truths[j]) > epsilon) for j in truths):
            failures += 1
    frequency = failures / reps
    coverage_ok = frequency <= delta
    ok = formula_ok and coverage_ok
    assert report("9 sample bound (formula + empirical coverage)", ok,
                  f"M={m_bound}, failure rate {frequency:.3f}")
