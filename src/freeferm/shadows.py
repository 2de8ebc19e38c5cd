"""Randomized-measurement tomography over the signed-permutation ensemble.

The measurement primitive rotates the state by a uniformly random signed
permutation of the Majorana axes (a matchgate Clifford circuit), measures in
the computational basis, and stores the pair (rotation, bit string). Linear
inversion of the measurement channel turns those samples into unbiased
estimates of every even Majorana-monomial expectation; the channel is
diagonal with eigenvalues binom(n, k) / binom(2n, 2k) on the degree-2k
sector.

Postprocessing iterates over diagonal index sets and pushes them through the
permutation, so a size-T sample yields all degree <= 2k estimates in
O(n^k T) time. Symmetry adjustment divides each degree sector by the
measured-to-ideal ratio of the corresponding particle-number moment,
cancelling noise that acts uniformly inside the sector.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, ceil, log, sqrt
from typing import NamedTuple

import numpy as np

from .gaussian import CovarianceMatrix, sample_bits
from .majorana import MajoranaMonomial, _sort_rows_with_parity
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "ShadowAccumulator",
    "NoiseModel",
    "SymmetrySpec",
    "MitigationError",
    "sample_snapshots",
    "channel_eigenvalue",
    "shadow_norm_sq",
    "observable_norm_bound",
    "sample_bound",
    "symmetry_spec",
    "mitigate",
    "two_rdm",
    "ladder_product_expansion",
]


class MitigationError(RuntimeError):
    """Raised when a symmetry ratio is too close to zero to divide by."""


@dataclass(frozen=True)
class NoiseModel:
    """Classical readout channel applied bitwise after sampling.

    bit_flip flips each bit w.p. p, depolarizing w.p. p/2, amplitude_damping
    sends 1 -> 0 w.p. p. These reductions are exact for the corresponding
    single-qubit channels applied immediately before a Z-basis readout.
    """

    kind: str = "none"
    p: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "bit_flip", "depolarizing", "amplitude_damping"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("noise probability must lie in [0, 1]")

    def apply_batch(self, bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "none" or self.p == 0.0:
            return bits
        if self.kind == "bit_flip":
            flips = rng.random(bits.shape) < self.p
            return bits ^ flips.astype(np.uint8)
        if self.kind == "depolarizing":
            flips = rng.random(bits.shape) < 0.5 * self.p
            return bits ^ flips.astype(np.uint8)
        # amplitude damping: occupied bits decay to 0
        decay = rng.random(bits.shape) < self.p
        return np.where(decay, np.uint8(0), bits)


@dataclass(frozen=True)
class SymmetrySpec:
    """Known particle-number moments used for symmetry adjustment."""

    n_modes: int
    eta: int
    s2: float
    s4: float
    ancilla_added: bool


def channel_eigenvalue(n: int, k: int) -> Fraction:
    """Exact attenuation factor of the degree-2k sector."""
    if k < 0 or k > n:
        raise ValueError("degree index must satisfy 0 <= k <= n")
    return Fraction(comb(n, k), comb(2 * n, 2 * k))


def shadow_norm_sq(n: int, k: int) -> Fraction:
    """Squared shadow norm of a degree-2k monomial: the inverse eigenvalue."""
    return 1 / channel_eigenvalue(n, k)


def observable_norm_bound(poly) -> float:
    """Triangle-inequality bound on the shadow norm of a coefficient map.

    ``poly`` may be a MajoranaPolynomial or a plain {index set: coefficient}
    map; the identity component is ignored.
    """
    terms = poly.terms if hasattr(poly, "terms") else poly
    n = poly.n_modes if hasattr(poly, "n_modes") else None
    if n is None:
        top = max((max(idx) for idx in terms if idx), default=1)
        n = top // 2 + 1
    total = 0.0
    for idx, coeff in terms.items():
        if not idx:
            continue
        if len(idx) % 2:
            raise ValueError("observable must be even degree")
        k = len(idx) // 2
        total += abs(coeff) * sqrt(float(shadow_norm_sq(n, k)))
    return total


def sample_snapshots(cov: CovarianceMatrix, size: int, rng: np.random.Generator,
                     group: str = "b", noise: NoiseModel = NoiseModel()):
    """Run the measurement primitive ``size`` times: rotate, sample, add readout noise.

    Each snapshot rotates the state by a uniform element of B(2n) (signed)
    or Alt(2n) (unsigned, even), samples every mode by covariance
    conditioning and passes the bits through ``noise``. Random numbers are
    drawn in that order, each step for the whole batch. Returns
    (perms, signs, bits) of shapes (size, 2n), (size, 2n) and (size, n),
    the input of ``ShadowAccumulator.add_batch``.
    """
    if group not in ("b", "alt"):
        raise ValueError("group must be 'b' or 'alt'")
    m = 2 * cov.n_modes
    perms = np.argsort(rng.random((size, m)), axis=1)
    if group == "b":
        signs = np.where(rng.random((size, m)) < 0.5, -1, 1).astype(np.int8)
    else:
        # force even parity by swapping the first two images of odd permutations
        odd = _sort_rows_with_parity(perms)[1] == 1
        perms[odd, 0], perms[odd, 1] = perms[odd, 1].copy(), perms[odd, 0].copy()
        signs = np.ones((size, m), dtype=np.int8)
    # Q M Q^T for Q[u, v] = signs[u] delta(perms[u], v), one matrix per snapshot
    sf = signs.astype(float)
    rotated = cov.matrix[perms[:, :, None], perms[:, None, :]] * sf[:, :, None] * sf[:, None, :]
    bits = sample_bits(rotated, rng)
    return perms, signs, noise.apply_batch(bits, rng)


class _Frame:
    """Precomputed index bookkeeping for degree sectors up to k_max."""

    _cache: dict = {}

    def __new__(cls, n_modes: int, k_max: int):
        key = (n_modes, k_max)
        if key in cls._cache:
            return cls._cache[key]
        self = super().__new__(cls)
        self.n_modes = n_modes
        self.k_max = k_max
        m = 2 * n_modes
        if not 1 <= k_max <= n_modes:
            raise ValueError("k_max must lie in [1, n_modes]")
        # colex ranking table: rank(mu) = sum_i C(mu_i, i + 1)
        self.rank_table = np.array(
            [[comb(x, t + 1) for t in range(2 * k_max)] for x in range(m)], dtype=np.int64
        )
        self.diag_sets = {}
        self.diag_qubits = {}
        self.lambda_inv = {}
        for j in range(1, k_max + 1):
            pairs = list(combinations(range(n_modes), j))
            self.diag_qubits[j] = np.array(pairs, dtype=np.int64)
            tau = np.array(
                [[idx for p in pair for idx in (2 * p, 2 * p + 1)] for pair in pairs],
                dtype=np.int64,
            )
            self.diag_sets[j] = tau
            self.lambda_inv[j] = float(1 / channel_eigenvalue(n_modes, j))
        cls._cache[key] = self
        return self

    def rank_rows(self, mu: np.ndarray) -> np.ndarray:
        """Colex ranks of ascending index rows."""
        cols = np.arange(mu.shape[1])
        return self.rank_table[mu, cols[None, :]].sum(axis=1)


class ShadowAccumulator:
    """Running sums of single-shot estimates for every even set of degree <= 2 k_max.

    Memory is preallocated for the full sectors; sets never hit by a sample
    implicitly hold zero. Accumulators merge by entrywise addition, so
    parallel workers can each fill one and combine results deterministically.
    """

    def __init__(self, n_modes: int, k_max: int):
        self.frame = _Frame(n_modes, k_max)
        self.n_modes = n_modes
        self.k_max = k_max
        self.sums = {
            j: np.zeros(comb(2 * n_modes, 2 * j)) for j in range(1, k_max + 1)
        }
        self.count = 0

    def add_batch(self, perms: np.ndarray, signs: np.ndarray, bits: np.ndarray):
        """Vectorized accumulation of a batch of snapshots."""
        size = perms.shape[0]
        if perms.shape[1] != 2 * self.n_modes or bits.shape[1] != self.n_modes:
            raise ValueError("batch shape mismatch")
        zsign = 1.0 - 2.0 * bits.astype(float)
        for j in range(1, self.k_max + 1):
            tau = self.frame.diag_sets[j]        # (S, 2j)
            qubits = self.frame.diag_qubits[j]   # (S, j)
            lam_inv = self.frame.lambda_inv[j]
            for t in range(tau.shape[0]):
                image = perms[:, tau[t]]
                mu, parity = _sort_rows_with_parity(image)
                sign = signs[:, tau[t]].prod(axis=1).astype(float)
                sign *= 1.0 - 2.0 * parity
                zval = zsign[:, qubits[t]].prod(axis=1)
                ranks = self.frame.rank_rows(mu)
                np.add.at(self.sums[j], ranks, lam_inv * sign * zval)
        self.count += size

    def merge(self, other: "ShadowAccumulator"):
        """Entrywise sum merge; associative and commutative."""
        if (other.n_modes, other.k_max) != (self.n_modes, self.k_max):
            raise ValueError("accumulator shape mismatch")
        for j in self.sums:
            self.sums[j] += other.sums[j]
        self.count += other.count

    def sector_means(self) -> dict[int, np.ndarray]:
        """Empirical means per degree-2j sector, indexed by colex rank."""
        if self.count < 1:
            raise ValueError("empty accumulator")
        return {j: sums / self.count for j, sums in self.sums.items()}

    def estimates(self) -> dict[tuple[int, ...], float]:
        """Empirical means keyed by ascending Majorana index sets."""
        out = {}
        for j, means in self.sector_means().items():
            sets = list(combinations(range(2 * self.n_modes), 2 * j))
            out.update(zip(sets, means[_colex_rank(np.array(sets, dtype=np.int64))].tolist()))
        return out


def sample_bound(epsilon: float, delta: float, n_observables: int,
                 max_sq_norm: float) -> int:
    """Sample count guaranteeing epsilon accuracy for bounded mean estimators.

    Conservative integerization of the Bernstein bound: the base count
    2 ln(2 L / delta) max_norm^2 / eps^2 is rounded up before applying the
    (1 + eps/3) factor, so the result is never below the analytic bound.
    """
    if not 0.0 < epsilon < 1.0 or not 0.0 < delta < 1.0:
        raise ValueError("epsilon and delta must lie in (0, 1)")
    if n_observables < 1:
        raise ValueError("need at least one observable")
    base = 2.0 * log(2.0 * n_observables / delta) / epsilon ** 2 * max_sq_norm
    return ceil((1.0 + epsilon / 3.0) * ceil(base))


def symmetry_spec(n: int, eta: int, auto_ancilla: bool = True,
                  tol: Tolerances = DEFAULT) -> SymmetrySpec:
    """Particle-number moments s2 = eta - n/2 and s4 = C(n,2)/2 - eta(n - eta).

    When either moment vanishes (for example at half filling) and
    ``auto_ancilla`` is set, one extra unoccupied mode is appended and the
    moments recomputed; they are then always nonzero for n > 1.
    """
    if not 0 <= eta <= n:
        raise ValueError("eta must lie in [0, n]")

    def moments(modes):
        s2 = eta - modes / 2.0
        s4 = comb(modes, 2) / 2.0 - eta * (modes - eta)
        return s2, s4

    s2, s4 = moments(n)
    ancilla = False
    if min(abs(s2), abs(s4)) < tol.mitigation_guard:
        if not auto_ancilla:
            raise MitigationError(
                "symmetry moment vanishes for this filling; enable the ancilla mode"
            )
        n = n + 1
        ancilla = True
        s2, s4 = moments(n)
        if min(abs(s2), abs(s4)) < tol.mitigation_guard:
            raise MitigationError("symmetry moments vanish even with an ancilla")
    return SymmetrySpec(n_modes=n, eta=eta, s2=s2, s4=s4, ancilla_added=ancilla)


def _colex_rank(sets: np.ndarray) -> np.ndarray:
    """Colex ranks sum_t C(sets[:, t], t + 1) of ascending index rows.

    A rank does not depend on the size of the index universe, so the sector
    over the first 2n indices is a prefix of the same sector over 2n + 2.
    """
    rank = np.zeros(sets.shape[0], dtype=np.int64)
    for t in range(sets.shape[1]):
        binom = np.ones(sets.shape[0], dtype=np.int64)
        for i in range(t + 1):
            binom = binom * (sets[:, t] - i) // (i + 1)
        rank += binom
    return rank


def _as_sectors(est: dict) -> dict[int, np.ndarray]:
    """Estimates as {j: degree-2j sector means in colex order}.

    Sector arrays pass through; a dict keyed by ascending index sets is
    ranked into them and must cover every set of each degree it holds.
    """
    if not est or not isinstance(next(iter(est)), tuple):
        return est
    universe = 2 * (max(max(idx) for idx in est if idx) // 2 + 1)
    sectors = {}
    for j in sorted({len(idx) // 2 for idx in est if idx and len(idx) % 2 == 0}):
        sets = [idx for idx in est if len(idx) == 2 * j]
        size = comb(universe, 2 * j)
        ranks = _colex_rank(np.array(sets, dtype=np.int64))
        seen = np.zeros(size, dtype=bool)
        seen[ranks] = True
        if len(sets) != size or not seen.all():
            raise KeyError(f"estimates do not cover the degree-{2 * j} sector")
        sectors[j] = np.empty(size)
        sectors[j][ranks] = [est[idx] for idx in sets]
    return sectors


def _diagonal_ranks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Colex ranks of (2p, 2p+1) and of (2p, 2p+1, 2q, 2q+1), p < q, in that order."""
    one = [(2 * p, 2 * p + 1) for p in range(n)]
    two = [a + b for a, b in combinations(one, 2)]
    return (_colex_rank(np.array(one, dtype=np.int64).reshape(-1, 2)),
            _colex_rank(np.array(two, dtype=np.int64).reshape(-1, 4)))


def _symmetry_ratios(sectors: dict, spec: SymmetrySpec, tol: Tolerances) -> dict[int, float]:
    one, two = _diagonal_ranks(spec.n_modes)
    # builtin sum keeps the left-to-right order of the scalar formula
    s2_hat = -0.5 * sum(sectors[1][one].tolist())
    s4_hat = 0.5 * sum(sectors[2][two].tolist())
    ratios = {1: s2_hat / spec.s2, 2: s4_hat / spec.s4}
    for k, r in ratios.items():
        if abs(r) < tol.mitigation_guard:
            raise MitigationError(
                f"measured symmetry ratio {r:.3e} in the degree-{2 * k} sector is too "
                "close to zero; mitigation would divide by it"
            )
    return ratios


def mitigate(est: dict, spec: SymmetrySpec, tol: Tolerances = DEFAULT) -> dict:
    """Symmetry-adjusted estimates: divide each sector by its measured ratio.

    ``est`` holds sector arrays ({j: means in colex order}, as from
    ``ShadowAccumulator.sector_means``) or a dict keyed by index sets; the
    result has the same form.
    """
    if any(len(key) > 4 if isinstance(key, tuple) else key > 2 for key in est):
        raise ValueError("symmetry adjustment is defined for the one- and two-body sectors")
    sectors = _as_sectors(est)
    ratios = _symmetry_ratios(sectors, spec, tol)
    if sectors is est:
        return {j: values / ratios[j] for j, values in est.items()}
    return {idx: value / ratios[len(idx) // 2] for idx, value in est.items()}


def ladder_product_expansion(n_modes: int, ops: list[tuple[int, bool]]) -> dict:
    """Expand a product of ladder operators over canonical Majorana monomials.

    ``ops`` lists (mode, dagger) factors left to right. Returns a map from
    ascending index sets (possibly empty, for the identity component) to
    complex coefficients against the canonical Hermitian monomials.
    """
    poly = {(): 1.0 + 0j}
    for mode, dagger in ops:
        even = MajoranaMonomial.canonical(n_modes, (2 * mode,))
        odd = MajoranaMonomial.canonical(n_modes, (2 * mode + 1,))
        factor = [(even, 0.5), (odd, -0.5j if dagger else 0.5j)]
        new: dict = {}
        for idx, coeff in poly.items():
            left = MajoranaMonomial.canonical(n_modes, idx)
            for mono, w in factor:
                prod = left * mono
                val = coeff * w * prod.phase_rel_canonical
                key = prod.indices
                new[key] = new.get(key, 0j) + val
        poly = new
    return poly


class _RdmMap(NamedTuple):
    upper: tuple[np.ndarray, np.ndarray]  # (row, column) of each upper-triangle entry
    slot: np.ndarray     # 2u + 0 for a real coefficient on entry u, 2u + 1 for imaginary
    column: np.ndarray   # index into the degree-2 then degree-4 sector means
    weight: np.ndarray
    const: np.ndarray    # identity component of each upper-triangle entry


def _ladder_words(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every Majorana word of the upper-triangle 2-RDM entries, reduced.

    a_p+ a_q+ a_s a_r with a+ = (g_2p - i g_2p+1) / 2 and a = (g_2p + i g_2p+1) / 2
    is a sum of 16 four-generator words, one per choice of g_2m or g_2m+1 in
    each factor. Each word is sorted (an inversion of distinct generators
    flips the sign), equal neighbours cancel (g^2 = 1), and the ordered
    product of m generators is i^C(m,2) times the canonical monomial. Returns
    each word's entry, column (colex rank in the degree-2 sector, then the
    degree-4 sector; -1 for the identity) and coefficient.
    """
    pairs = np.array(list(combinations(range(n), 2)), dtype=np.int64).reshape(-1, 2)
    upper = np.triu_indices(len(pairs))
    factors = np.concatenate([pairs[upper[0]], pairs[upper[1]][:, ::-1]], axis=1)  # p q s r
    entry, column, phases = [], [], []
    for odd in product((0, 1), repeat=4):
        words = 2 * factors + np.array(odd)
        # 1/2 per factor, times -i for g_2p+1 in a creator and +i in an annihilator
        phase = 3 * (odd[0] + odd[1]) + odd[2] + odd[3]
        words, parity = _sort_rows_with_parity(words)
        phase += 2 * parity
        equal = words[:, 1:] == words[:, :-1]  # no generator occurs three times
        keep = np.ones(words.shape, dtype=bool)
        keep[:, :-1] &= ~equal
        keep[:, 1:] &= ~equal
        degree = keep.sum(axis=1)
        phase += degree * (degree - 1) // 2
        col = np.full(len(words), -1, dtype=np.int64)
        two, four = degree == 2, degree == 4
        col[two] = _colex_rank(words[two][keep[two]].reshape(-1, 2))
        col[four] = comb(2 * n, 2) + _colex_rank(words[four])
        entry.append(np.arange(len(words)))
        column.append(col)
        phases.append(phase)
    coeff = np.array([1, 1j, -1, -1j])[np.concatenate(phases) % 4] / 16
    return np.concatenate(entry), np.concatenate(column), coeff


@lru_cache(maxsize=8)
def _two_rdm_map(n: int) -> _RdmMap:
    """The 2-RDM as a linear map of the degree-2 and degree-4 sector means.

    Built once per n from ``_ladder_words``; the arrays are read-only, so
    pool threads can share them.
    """
    upper = np.triu_indices(comb(n, 2))
    entries = len(upper[0])
    entry, column, coeff = _ladder_words(n)
    ident = column < 0
    const = (np.bincount(entry[ident], weights=coeff[ident].real, minlength=entries)
             + 1j * np.bincount(entry[ident], weights=coeff[ident].imag, minlength=entries))
    width = comb(2 * n, 2) + comb(2 * n, 4)
    keys, where = np.unique(entry[~ident] * width + column[~ident], return_inverse=True)
    # coefficients are multiples of 1/16, so equal terms merge and cancel exactly
    parts = [(np.bincount(where, weights=coeff[~ident].real), 0),
             (np.bincount(where, weights=coeff[~ident].imag), 1)]
    slot = np.concatenate([2 * (keys[c != 0] // width) + part for c, part in parts])
    column = np.concatenate([keys[c != 0] % width for c, _ in parts])
    weight = np.concatenate([c[c != 0] for c, _ in parts])
    rdm_map = _RdmMap(upper, slot, column, weight, const)
    for arr in (*upper, slot, column, weight, const):
        arr.flags.writeable = False
    return rdm_map


def two_rdm(est: dict, n: int) -> np.ndarray:
    """Assemble the two-body RDM from degree <= 4 Majorana estimates.

    ``est`` holds sector arrays ({j: means in colex order}) or a dict keyed
    by index sets. Rows and columns run over ascending pairs (p, q); the
    (row, col) entry is the expectation of a_p+ a_q+ a_s a_r for row (p, q),
    column (r, s). Modes beyond ``n`` (an ancilla, for instance) are ignored.
    The work is one gather and one bincount through a map cached per ``n``.
    """
    if n < 2:
        return np.zeros((0, 0), dtype=complex)
    sectors = _as_sectors(est)
    rdm_map = _two_rdm_map(n)
    n_two, n_four = comb(2 * n, 2), comb(2 * n, 4)
    if len(sectors[1]) < n_two or len(sectors[2]) < n_four:
        raise ValueError(f"estimates cover fewer than {n} modes")
    means = np.concatenate([sectors[1][:n_two], sectors[2][:n_four]])
    flat = np.bincount(rdm_map.slot, weights=rdm_map.weight * means[rdm_map.column],
                       minlength=2 * len(rdm_map.const)).view(complex) + rdm_map.const
    size = comb(n, 2)
    out = np.empty((size, size), dtype=complex)
    out[rdm_map.upper] = flat
    out[rdm_map.upper[::-1]] = flat.conj()
    return out


def exact_two_rdm(d1: np.ndarray) -> np.ndarray:
    """Determinantal two-body RDM of a Slater state, for ground truths.

    Entry ((p, q), (r, s)) is <a_p+ a_q+ a_s a_r> = D_rp D_sq - D_sp D_rq,
    with D_pq = <a_q+ a_p> the one-body RDM.
    """
    d1 = np.asarray(d1)
    n = d1.shape[0]
    pairs = list(combinations(range(n), 2))
    out = np.zeros((len(pairs), len(pairs)), dtype=complex)
    for i, (p, q) in enumerate(pairs):
        for j, (r, s) in enumerate(pairs):
            out[i, j] = d1[r, p] * d1[s, q] - d1[s, p] * d1[r, q]
    return out
