"""Randomized-measurement tomography over the signed-permutation ensemble.

The measurement primitive rotates the state by a uniformly random signed
permutation of the Majorana axes (a matchgate Clifford circuit), measures in
the computational basis, and stores the pair (rotation, bit string). Linear
inversion of the measurement channel turns those samples into unbiased
estimates of every even Majorana-monomial expectation; the channel is
diagonal with eigenvalues binom(n, k) / binom(2n, 2k) on the degree-2k
sector.

A snapshot's estimate is +-1/lambda_j on the images of the diagonal sets
(2p, 2p+1, 2q, 2q+1, ...) under its permutation and zero elsewhere, so each
sector is an integer tally of those signs, filled by array operations over a
whole batch: a size-T sample yields all degree <= 2k estimates in O(n^k T)
time, and each mean is one rounding of tally / (lambda_j T). Symmetry
adjustment divides each degree sector by the measured-to-ideal ratio of the
corresponding particle-number moment, cancelling noise that acts uniformly
inside the sector.

Estimates exist in one form, sector arrays {j: degree-2j means}, each indexed
by the colex rank of its ascending index sets (``_colex_rank``).
``ShadowAccumulator.sector_means`` produces them; ``mitigate`` maps them to
adjusted arrays, ``two_rdm`` reads the degree-2 and degree-4 sectors, and
``io.write_estimates`` and ``io.estimates_from_json`` carry them to and from
``estimates.json``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, product
from math import comb, ceil, log, sqrt
from typing import NamedTuple

import numpy as np

from .gaussian import CovarianceMatrix, sample_bits
from .majorana import _sort_rows_with_parity
from .tolerances import DEFAULT as TOL

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
        if self.kind == "amplitude_damping":  # occupied bits decay to 0
            return np.where(rng.random(bits.shape) < self.p, np.uint8(0), bits)
        flips = rng.random(bits.shape) < (0.5 * self.p if self.kind == "depolarizing" else self.p)
        return bits ^ flips.astype(np.uint8)


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
    """Triangle-inequality bound on the shadow norm of a MajoranaPolynomial.

    The identity component is ignored.
    """
    total = 0.0
    for idx, coeff in poly.terms.items():
        if not idx:
            continue
        if len(idx) % 2:
            raise ValueError("observable must be even degree")
        k = len(idx) // 2
        total += abs(coeff) * sqrt(float(shadow_norm_sq(poly.n_modes, k)))
    return total


def sample_snapshots(cov: CovarianceMatrix, size: int, rng: np.random.Generator,
                     group: str = "b", noise: NoiseModel = NoiseModel()):
    """Run the measurement primitive ``size`` times: rotate, sample, add readout noise.

    Each snapshot rotates the state by a uniform element of B(2n) (signed)
    or Alt(2n) (unsigned, even), samples every mode by covariance
    conditioning and passes the bits through ``noise``. The rotated
    covariance Q M Q^T is never built: ``sample_bits`` gathers the rows it
    needs from ``cov.matrix`` through the permutations. Random numbers are
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
    bits = sample_bits(cov.matrix, perms, signs, rng)
    return perms, signs, noise.apply_batch(bits, rng)


@lru_cache(maxsize=16)
def _frame(n_modes: int, k_max: int) -> tuple[tuple[np.ndarray, np.ndarray, float], ...]:
    """Per degree 2j <= 2 k_max: (prefix, last, 1/lambda_j) over the j-mode sets in colex order.

    Each set is the set of rank ``prefix`` one degree down plus its largest
    mode ``last``. Cached per (n_modes, k_max) with read-only arrays, so pool
    threads share them.
    """
    if not 1 <= k_max <= n_modes:
        raise ValueError("k_max must lie in [1, n_modes]")
    frame = []
    for j in range(1, k_max + 1):
        modes = _colex_sets(n_modes, j)
        prefix = np.zeros(len(modes), dtype=np.int64) + _colex_rank(modes[:, :-1].T, n_modes)
        last = modes[:, -1].copy()
        prefix.flags.writeable = last.flags.writeable = False
        frame.append((prefix, last, float(1 / channel_eigenvalue(n_modes, j))))
    return tuple(frame)


class ShadowAccumulator:
    """Integer tallies of single-shot signs for every even set of degree <= 2 k_max.

    ``signed[j][r]`` counts the snapshots that put +1/lambda_j on the
    degree-2j set of colex rank r, less those that put -1/lambda_j there.
    Memory is preallocated for the full sectors; sets never hit by a sample
    hold zero. Accumulators merge by integer addition, so parallel workers
    can each fill one and combine results exactly, in any order.
    """

    def __init__(self, n_modes: int, k_max: int):
        self.frame = _frame(n_modes, k_max)
        self.n_modes = n_modes
        self.k_max = k_max
        self.signed = {j: np.zeros(comb(2 * n_modes, 2 * j), dtype=np.int64)
                       for j in range(1, k_max + 1)}
        self.count = 0

    def add_batch(self, perms: np.ndarray, signs: np.ndarray, bits: np.ndarray):
        """Tally a batch of snapshots into every sector with array operations."""
        if perms.shape[1] != 2 * self.n_modes or bits.shape[1] != self.n_modes:
            raise ValueError("batch shape mismatch")
        a, b = perms[:, 0::2].astype(np.int16), perms[:, 1::2].astype(np.int16)
        # mode p's pair (2p, 2p+1) maps to the sorted pair (lo, hi), int16 to cut the memory
        # traffic; the shot is negative iff the images were swapped, XOR a sign, XOR bit p
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        odd = (a > b) ^ (signs[:, 0::2] < 0) ^ (signs[:, 1::2] < 0) ^ (bits != 0)
        # sorted images, one column per position, grown from the empty set a pair at a time
        rows, negative = [], np.zeros((len(perms), 1), dtype=bool)
        for j, (prefix, last, _) in enumerate(self.frame, start=1):
            rows = [row[:, prefix] for row in rows] + [lo[:, last], hi[:, last]]
            negative = negative[:, prefix] ^ odd[:, last]
            # compare-exchange lo down to position 0, then hi down to 1; a swap flips the sign
            for t in [*range(2 * j - 2, 0, -1), *range(2 * j - 1, 1, -1)]:
                x, y = rows[t - 1], rows[t]
                negative ^= x > y
                rows[t - 1], rows[t] = np.minimum(x, y), np.maximum(x, y)
            ranks = _colex_rank(rows, 2 * self.n_modes).ravel()
            counts = np.bincount(2 * ranks + negative.ravel(), minlength=2 * len(self.signed[j]))
            self.signed[j] += counts[0::2] - counts[1::2]
        self.count += len(perms)

    def merge(self, other: "ShadowAccumulator"):
        """Entrywise integer sum merge; associative and commutative."""
        if (other.n_modes, other.k_max) != (self.n_modes, self.k_max):
            raise ValueError("accumulator shape mismatch")
        for j in self.signed:
            self.signed[j] += other.signed[j]
        self.count += other.count

    def sector_means(self) -> dict[int, np.ndarray]:
        """Empirical means lam_inv * signed / count per degree-2j sector, indexed by colex rank."""
        if self.count < 1:
            raise ValueError("empty accumulator")
        return {j: lam_inv * self.signed[j] / self.count
                for j, (_, _, lam_inv) in enumerate(self.frame, start=1)}


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


def symmetry_spec(n: int, eta: int) -> SymmetrySpec:
    """Particle-number moments s2 = eta - n/2 and s4 = C(n,2)/2 - eta(n - eta).

    When either moment vanishes (for example at half filling), one extra
    unoccupied mode is appended and the moments recomputed; they are then
    always nonzero for n > 1.
    """
    if not 0 <= eta <= n:
        raise ValueError("eta must lie in [0, n]")

    def moments(modes):
        s2 = eta - modes / 2.0
        s4 = comb(modes, 2) / 2.0 - eta * (modes - eta)
        return s2, s4

    s2, s4 = moments(n)
    ancilla = False
    if min(abs(s2), abs(s4)) < TOL.mitigation_guard:
        n = n + 1
        ancilla = True
        s2, s4 = moments(n)
        if min(abs(s2), abs(s4)) < TOL.mitigation_guard:
            raise MitigationError("symmetry moments vanish even with an ancilla")
    return SymmetrySpec(n_modes=n, eta=eta, s2=s2, s4=s4, ancilla_added=ancilla)


@lru_cache(maxsize=32)
def _binomial_table(universe: int, width: int) -> np.ndarray:
    """Read-only table of C(x, t + 1) for x < universe and t < width."""
    table = np.array([[comb(x, t + 1) for t in range(width)] for x in range(universe)],
                     dtype=np.int64).reshape(universe, width)
    table.flags.writeable = False
    return table


def _colex_rank(columns, universe: int) -> np.ndarray:
    """Colex ranks sum_t C(columns[t], t + 1) of ascending index sets below ``universe``.

    ``columns[t]`` holds each set's (t+1)-th smallest index. ``universe`` only
    sizes the cached binomial table: a rank does not depend on it, so the
    sector over the first 2n indices is a prefix of the same sector over
    2n + 2. Every sector array is indexed by this rank.
    """
    table = _binomial_table(universe, len(columns))
    return sum(table[column, t] for t, column in enumerate(columns))


def _colex_sets(universe: int, size: int) -> np.ndarray:
    """Every ascending ``size``-set below ``universe`` (size >= 1), one row each, in colex order."""
    # lexicographic order over the descending universe, reversed, is colex order
    sets = chain.from_iterable(combinations(range(universe - 1, -1, -1), size))
    return np.fromiter(sets, dtype=np.int64).reshape(-1, size)[::-1, ::-1]


def _symmetry_ratios(sectors: dict, spec: SymmetrySpec) -> dict[int, float]:
    # the diagonal sets (2p, 2p+1) and (2p, 2p+1, 2q, 2q+1), p < q, in that order
    one, two = (np.array([[i for m in modes for i in (2 * m, 2 * m + 1)]
                          for modes in combinations(range(spec.n_modes), j)]).reshape(-1, 2 * j)
                for j in (1, 2))
    # builtin sum keeps the left-to-right order of the scalar formula
    s2_hat = -0.5 * sum(sectors[1][_colex_rank(one.T, 2 * spec.n_modes)].tolist())
    s4_hat = 0.5 * sum(sectors[2][_colex_rank(two.T, 2 * spec.n_modes)].tolist())
    ratios = {1: s2_hat / spec.s2, 2: s4_hat / spec.s4}
    for k, r in ratios.items():
        if abs(r) < TOL.mitigation_guard:
            raise MitigationError(
                f"measured symmetry ratio {r:.3e} in the degree-{2 * k} sector is too "
                "close to zero; mitigation would divide by it"
            )
    return ratios


def mitigate(sectors: dict, spec: SymmetrySpec) -> dict:
    """Symmetry-adjusted estimates: divide each sector by its measured ratio.

    ``sectors`` holds the degree-2 and degree-4 sector arrays ({j: means in
    colex order}, as from ``ShadowAccumulator.sector_means``); so does the
    result.
    """
    if any(key > 2 for key in sectors):
        raise ValueError("symmetry adjustment is defined for the one- and two-body sectors")
    ratios = _symmetry_ratios(sectors, spec)
    return {j: values / ratios[j] for j, values in sectors.items()}


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
        col[two] = _colex_rank(words[two][keep[two]].reshape(-1, 2).T, 2 * n)
        col[four] = comb(2 * n, 2) + _colex_rank(words[four].T, 2 * n)
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


def two_rdm(sectors: dict, n: int) -> np.ndarray:
    """Assemble the two-body RDM from degree <= 4 Majorana estimates.

    ``sectors`` holds the sector arrays {j: means in colex order}, as from
    ``ShadowAccumulator.sector_means``. Rows and columns run over ascending
    pairs (p, q); the (row, col) entry is the expectation of a_p+ a_q+ a_s a_r
    for row (p, q), column (r, s). Modes beyond ``n`` (an ancilla, for
    instance) are ignored.
    The work is one gather and one bincount through a map cached per ``n``.
    """
    if n < 2:
        return np.zeros((0, 0), dtype=complex)
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
    d1 = np.asarray(d1, dtype=complex)
    lo, hi = np.triu_indices(d1.shape[0], 1)  # the pairs p < q in combinations order
    # D_rp, D_sq, D_sp, D_rq; each product written out, since numpy's complex
    # array multiply can round the last bit differently from the scalar product
    x, y, u, v = d1[lo, lo[:, None]], d1[hi, hi[:, None]], d1[hi, lo[:, None]], d1[lo, hi[:, None]]
    out = np.empty(x.shape, dtype=complex)
    out.real = (x.real * y.real - x.imag * y.imag) - (u.real * v.real - u.imag * v.imag)
    out.imag = (x.real * y.imag + x.imag * y.real) - (u.real * v.imag + u.imag * v.real)
    return out
