"""Electronic Hamiltonians in Majorana form and anticommuting-set partitioning.

A two-body Hamiltonian with real, permutation-symmetric integrals rewrites as

    H = c * 1 + sum_{p,q} c_pq i g_{2p} g_{2q+1}
            + (1/2) sum_{p!=q, r!=s} c_pqrs g_{2p} g_{2q} g_{2r+1} g_{2s+1},

so every term is a single Hermitian Majorana monomial. A ``MajoranaPolynomial``
holds its terms as arrays: an int64 matrix with one index set per row, padded
with -1, and a coefficient vector in the same order. Terms that pairwise
anticommute can be collapsed to one operator by a ladder of two-term
rotations, cutting the number of independently measured quantities; the
partitioner builds such completely anticommuting sets either greedily or
from a closed-form template with binom(n, 2) (n - 2) quartic sets. It works
on the arrays: each index set is a bitmask column, first fit rules a group out
for a term by the union of its members' commute rows, and a template's sets
find their term rows through one dict from the polynomial's index tuples.

Each set could also be collapsed by one rotation about the normalized
commutator of the partial sum with the target, but realizing that axis on
hardware needs linear-combination-of-unitaries machinery; only the ladder
construction is provided here.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, repeat
from math import atan2, hypot, sqrt
from types import MappingProxyType

import numpy as np

from .majorana import _sort_rows_with_parity
from .tolerances import DEFAULT as TOL

__all__ = [
    "ElectronicIntegrals",
    "MajoranaPolynomial",
    "PartitionSet",
    "AnticommutingPartition",
    "RotationPlan",
    "majorana_form",
    "greedy_partition",
    "analytic_partition",
    "partition_from_template",
    "rotation_plan",
    "norms_report",
]


_EIGHTFOLD = (
    (0, 1, 2, 3), (3, 1, 2, 0), (0, 2, 1, 3), (3, 2, 1, 0),
    (1, 0, 3, 2), (2, 0, 3, 1), (1, 3, 0, 2), (2, 3, 0, 1),
)


def _first(mask: np.ndarray) -> tuple[int, ...]:
    """Index of the first True entry of ``mask`` in ascending (C) order."""
    return tuple(int(i) for i in np.unravel_index(np.argmax(mask), mask.shape))


class ElectronicIntegrals:
    """Read-only one-body (n, n) and two-body (n, n, n, n) integrals with the eightfold symmetry."""

    def __init__(self, n: int, h1, h2):
        if n < 1:
            raise ValueError("orbital count must be positive")
        self.n = n
        h1 = np.array(h1, dtype=float)
        h2 = np.array(h2, dtype=float)
        if h1.shape != (n, n):
            raise ValueError("one-body matrix must be n x n")
        if h2.shape != (n, n, n, n):
            raise ValueError("two-body tensor must be n^4")
        for name, h in (("one-body", h1), ("two-body", h2)):
            if not np.isfinite(h).all():
                raise ValueError(f"{name} integral at {_first(~np.isfinite(h))} is not finite")
        if np.max(np.abs(h1 - h1.T)) > TOL.symmetry_check:
            raise ValueError("one-body integrals must be symmetric")
        # every failing pair of images holds a nonzero entry, so one is named
        bad = np.zeros(h2.shape, dtype=bool)
        for perm in _EIGHTFOLD:
            bad |= np.abs(np.transpose(h2, perm) - h2) > TOL.symmetry_check
        if bad.any():
            raise ValueError("two-body integrals violate permutational symmetry at "
                             f"{_first(bad & (h2 != 0.0))}")
        h1.setflags(write=False)
        h2.setflags(write=False)
        self.h1, self.h2 = h1, h2


def _bitmasks(rows: np.ndarray, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Bitmask words (words, terms) and degrees of index rows.

    Index u sets bit u % 64 of word u // 64 in its term's column.
    """
    bits = np.where(rows >= 0, np.uint64(1) << (rows % 64).astype(np.uint64), np.uint64(0))
    masks = [np.bitwise_or.reduce(np.where(rows // 64 == w, bits, np.uint64(0)), axis=1)
             for w in range(-(-2 * n_modes // 64))]
    return np.array(masks, dtype=np.uint64), (rows >= 0).sum(axis=1)


def _rows_of(poly: "MajoranaPolynomial", sets: list) -> np.ndarray:
    """The term row of each index tuple in ``sets``, or -1 where ``poly`` has no such term."""
    row = dict(zip(poly._tuples.tolist(), range(len(poly.coeffs))))
    return np.fromiter(map(row.get, sets, repeat(-1)), dtype=np.int64, count=len(sets))


def _covers(rows: np.ndarray, n_terms: int) -> bool:
    """Whether the term rows (-1 for none) name each of n_terms rows exactly once."""
    counts = np.bincount(rows + 1, minlength=n_terms + 1)
    return len(rows) == n_terms and bool(np.all(counts[1:] == 1))


class MajoranaPolynomial:
    """Real-coefficient Hermitian operator: a constant plus weighted Majorana monomials.

    ``indices`` holds one index set per term as an int64 row padded with -1,
    which sort as the tuples do, ``coeffs`` the coefficients in the same order,
    and ``terms`` is the read-only {index tuple: coefficient} view of the two.
    An index outside [0, 2 n_modes), or one repeated within a set, raises
    ``ValueError``.
    """

    def __init__(self, n_modes: int, terms: dict | None = None, constant: float = 0.0):
        terms = terms or {}
        degrees = np.fromiter(map(len, terms), dtype=np.int64, count=len(terms))
        flat = np.fromiter(chain.from_iterable(terms), dtype=np.int64, count=int(degrees.sum()))
        if np.any((flat < 0) | (flat >= 2 * n_modes)):
            raise ValueError("indices out of range for n_modes")
        rows = np.full((len(terms), int(degrees.max(initial=0))), -1, dtype=np.int64)
        rows[np.arange(rows.shape[1]) < degrees[:, None]] = flat
        if np.any(np.bitwise_count(_bitmasks(rows, n_modes)[0]).sum(axis=0) != degrees):
            raise ValueError("index sets must not repeat an index")
        self.n_modes, self.indices, self.constant = n_modes, rows, constant
        self.coeffs = np.array(list(terms.values()), dtype=float)

    @classmethod
    def _of(cls, n_modes, indices, coeffs, constant) -> "MajoranaPolynomial":
        """A polynomial on index rows that ``__init__`` would accept, without the checks."""
        poly = cls.__new__(cls)
        poly.n_modes, poly.indices, poly.coeffs, poly.constant = n_modes, indices, coeffs, constant
        return poly

    @cached_property
    def _tuples(self) -> np.ndarray:
        """The index sets as tuples, in an object array."""
        out, degrees = np.empty(len(self.indices), dtype=object), (self.indices >= 0).sum(axis=1)
        for d in range(self.indices.shape[1] + 1):
            at = np.flatnonzero(degrees == d)
            out[at] = np.fromiter(map(tuple, self.indices[at, :d].tolist()), object, len(at))
        return out

    @cached_property
    def terms(self) -> MappingProxyType:
        return MappingProxyType(dict(zip(self._tuples.tolist(), self.coeffs.tolist())))

    def pruned(self, cutoff: float) -> "MajoranaPolynomial":
        keep = np.abs(self.coeffs) > cutoff
        return self._of(self.n_modes, self.indices[keep], self.coeffs[keep], self.constant)

    @property
    def l1_norm(self) -> float:
        return sum(np.abs(self.coeffs).tolist())


@dataclass
class PartitionSet:
    members: list[tuple[int, ...]]
    betas: np.ndarray
    gamma: float


@dataclass
class AnticommutingPartition:
    sets: list[PartitionSet]
    covers: bool


@dataclass
class RotationPlan:
    """Two-term rotation ladder collapsing an anticommuting set to its target.

    Step k rotates in the plane of (target, member_k) by theta_k; applying all
    steps maps the normalized set sum onto target_sign times the target
    operator. The sign is -1 only for a singleton set with negative weight,
    which no rotation among set members can flip.
    """

    target: tuple[int, ...]
    steps: list[tuple[tuple[int, ...], float]]
    target_sign: int = 1


def majorana_form(ints: ElectronicIntegrals) -> MajoranaPolynomial:
    """Rewrite the ladder-operator Hamiltonian over canonical Majorana monomials.

    The terms are the quadratic sets in (p, q) order, then the quartic sets in
    the order of their first nonzero entry, as scalar loops adding one entry at
    a time in ascending index order would make them; each coefficient carries
    the same bits as such a loop's sum.
    """
    n, h1, h2 = ints.n, ints.h1, ints.h2

    const = 0.5 * float(np.trace(h1))
    exchange = 0.125 * (np.einsum("pqqp->pq", h2) - np.einsum("pqpq->pq", h2))
    for c in exchange[~np.eye(n, dtype=bool)].tolist():
        const += c

    # term [p, q, r] is added one r at a time; r = p or r = q adds 0.0, which changes no sum
    pairs = 0.25 * (np.einsum("prrq->pqr", h2) - np.einsum("pqrr->pqr", h2))
    m = np.arange(n)
    pairs[(m[:, None, None] == m) | (m[None, :, None] == m)] = 0.0
    coeffs = 0.5 * h1
    for r in range(n):
        coeffs = coeffs + pairs[:, :, r]
    # i g_2p g_2q+1 is the canonical monomial on {2p, 2q+1}, with sign -1 when 2p < 2q + 1
    even, odd = 2 * np.repeat(m, n), 2 * np.tile(m, n) + 1
    quadratic = np.pad(np.sort([even, odd], axis=0).T, ((0, 0), (0, 2)), constant_values=-1)
    quadratic_c = np.where(even < odd, -coeffs.ravel(), coeffs.ravel())

    # set {2p, 2q, 2r+1, 2s+1}, p < q and r < s, sums its images (p,q,r,s), (p,q,s,r),
    # (q,p,r,s), (q,p,s,r) in this ascending order. Entry h_pqrs weighs -1/8 against the raw
    # product g_2p g_2q g_2r+1 g_2s+1 (the 1/2 of the two-body sum folded in); the canonical
    # monomial carries (-i)^6 = -1 against the sorted one, and swapping p, q or r, s flips it.
    p, q = np.triu_indices(n, 1)
    p, q, r, s = np.repeat(p, len(p)), np.repeat(q, len(p)), np.tile(p, len(p)), np.tile(q, len(p))
    quartic, parity = _sort_rows_with_parity(np.stack([2 * p, 2 * q, 2 * r + 1, 2 * s + 1], axis=1))
    images = np.stack([np.ravel_multi_index(idx, h2.shape) for idx in
                       ((p, q, r, s), (p, q, s, r), (q, p, r, s), (q, p, s, r))], axis=1)
    weights = np.where(parity == 0, 0.125, -0.125)[:, None] * [1.0, -1.0, -1.0, 1.0] \
        * h2.ravel()[images]
    quartic_c = ((weights[:, 0] + weights[:, 1]) + weights[:, 2]) + weights[:, 3]
    nonzero = weights != 0.0
    first = images[np.arange(len(images)), np.argmax(nonzero, axis=1)]
    present = np.flatnonzero(nonzero.any(axis=1))
    order = present[np.argsort(first[present])]

    indices = np.concatenate([quadratic, quartic[order]])
    values = np.concatenate([quadratic_c, quartic_c[order]])
    return MajoranaPolynomial._of(n, indices, values, const).pruned(TOL.coeff_prune)


def _first_fit(masks: np.ndarray, degrees: np.ndarray,
               placed: np.ndarray = np.zeros(0, dtype=np.int64)) -> np.ndarray:
    """Label each term after the placed ones with the first group it wholly anticommutes with.

    Term k is column k of the bitmask words ``masks`` with degree ``degrees[k]``; the
    first len(placed) terms lie in the groups ``placed`` names, numbered from 0, and a
    term that fits no group opens the next one. Returns every term's label. Row k of
    the bool table ``ruled`` (unplaced terms x groups, doubled when full) ORs the
    commute rows of each group's members: k joins the first group its row leaves open
    and ORs its own row into that column. Sets A, B commute iff |A| |B| + |A & B| is even.
    """
    n_terms, n_placed = masks.shape[1], len(placed)
    odd = (degrees & 1).astype(bool)

    def commute(start, first):  # terms start to start + 63 against those from first on
        rows = slice(start, start + 64)
        # |A & B| is odd iff the XOR of the words' ANDs has odd popcount
        shared = masks[0, rows, None] & masks[0, first:]
        for word in masks[1:]:
            shared ^= word[rows, None] & word[first:]
        return (np.bitwise_count(shared) & 1).astype(bool) == (odd[rows, None] & odd[first:])

    label = np.pad(placed, (0, n_terms - n_placed))
    groups = int(placed.max(initial=-1)) + 1
    ruled = np.zeros((n_terms - n_placed, 2 * groups + 16), dtype=bool)
    for start in range(0, n_placed, 64):
        for g, row in zip(placed[start:start + 64].tolist(), commute(start, n_placed)):
            ruled[:, g] |= row
    for start in range(n_placed, n_terms, 64):
        for k, row in enumerate(commute(start, start), start):
            label[k] = g = int(ruled[k - n_placed, :groups + 1].argmin())
            groups += g == groups
            if groups == ruled.shape[1]:
                ruled = np.pad(ruled, ((0, 0), (0, groups)))
            ruled[k + 1 - n_placed:, g] |= row[k + 1 - start:]
    return label


def _finalize_sets(poly: MajoranaPolynomial, rows: np.ndarray,
                   label: np.ndarray) -> AnticommutingPartition:
    """The sets of the labelled term rows, each in placement order, with its norm and betas."""
    rows = rows[np.argsort(label, kind="stable")]
    bounds = np.cumsum(np.bincount(label))
    coeffs = poly.coeffs[rows]
    gammas = np.array([np.linalg.norm(c) for c in np.split(coeffs, bounds[:-1])])
    betas = coeffs / np.repeat(np.where(gammas > 0, gammas, 1.0), np.diff(bounds, prepend=0))
    members = poly._tuples[rows].tolist()
    sets = [PartitionSet(members[a:b], betas[a:b], g)
            for a, b, g in zip([0, *bounds[:-1].tolist()], bounds.tolist(), gammas.tolist())]
    return AnticommutingPartition(sets, _covers(rows, len(poly.coeffs)))


def greedy_partition(poly: MajoranaPolynomial) -> AnticommutingPartition:
    """First-fit coloring of terms ordered by descending weight, then index.

    Deterministic by construction: the order never depends on the term order
    or thread count.
    """
    if not len(poly.coeffs):
        raise ValueError("polynomial has no non-constant terms")
    order = np.lexsort((*poly.indices.T[::-1], -np.abs(poly.coeffs)))
    return _finalize_sets(poly, order, _first_fit(*_bitmasks(poly.indices[order], poly.n_modes)))


def analytic_partition(n: int) -> list[list[tuple[int, ...]]]:
    """Closed-form template covering every admissible quadratic and quartic set.

    Family (q, r, s) holds the quartic sets {2p, 2q, 2r+1, 2s+1} with p < q; the
    q = 1 and q = 2 families merge, leaving binom(n, 2) (n - 2) quartic sets for
    n >= 3. The quadratic terms of each mode p >= 3 join family (p, 0, 1), the
    two with odd index 1 or 3 family (p, 2, 3) instead; those of modes 0, 1 and
    2 form one set per mode at the end, as first fit after the sets before them
    would: {2p, 2q+1} anticommutes with a quartic set iff it shares exactly one
    index with each member, which for p <= 2 some member of every earlier set
    breaks, and terms of different modes anticommute only when they share their
    odd index.
    """
    if n < 2:
        raise ValueError("need at least two modes")

    def quartic(evens, r, s):
        return [tuple(sorted((2 * p, 2 * q, 2 * r + 1, 2 * s + 1))) for p, q in evens]

    def quadratic(p, qs):
        return [tuple(sorted((2 * p, 2 * q + 1))) for q in qs]

    low, pairs = range(min(n, 3)), list(combinations(range(n), 2))
    hosted = {(0, 1): range(2, n), (2, 3): (0, 1)}
    # the merged q = 1, 2 family of (r, s) takes the even pairs of modes 0, 1 and 2
    groups = [quartic(combinations(low, 2), r, s) for r, s in pairs]
    groups += [quartic(zip(range(q), repeat(q)), r, s) + quadratic(q, hosted.get((r, s), ()))
               for r, s in pairs for q in range(3, n)]
    return groups + [quadratic(p, range(n)) for p in low]


def partition_from_template(poly: MajoranaPolynomial,
                            template: list[list[tuple[int, ...]]]) -> AnticommutingPartition:
    """Instantiate a template against a polynomial's support.

    Template sets keep only the terms actually present; support outside the
    template is grouped greedily at the end, in index order.
    """
    found = _rows_of(poly, list(chain.from_iterable(template)))
    placed = np.repeat(np.arange(len(template)), list(map(len, template)))[found >= 0]
    rest = np.flatnonzero(np.bincount(found + 1, minlength=len(poly.coeffs) + 1)[1:] == 0)
    rows = np.concatenate([found[found >= 0], rest[np.lexsort(poly.indices[rest].T[::-1])]])
    # the template sets that keep a term, numbered in order
    label = np.cumsum(np.diff(placed, prepend=-1) != 0) - 1
    if len(rest):
        label = _first_fit(*_bitmasks(poly.indices[rows], poly.n_modes), label)
    return _finalize_sets(poly, rows, label)


def rotation_plan(members: list[tuple[int, ...]], betas) -> RotationPlan:
    """Angles collapsing an l2-normalized anticommuting sum onto its last member.

    Step k solves beta_k cos(theta) = c_k sin(theta) where c_k is the running
    norm accumulated on the target, starting from the target's own weight;
    atan2 keeps the accumulated weight positive regardless of coefficient
    signs, so the plan always lands on +target.
    """
    betas = np.asarray(betas, dtype=float)
    if len(members) != len(betas):
        raise ValueError("member/coefficient length mismatch")
    keep = [i for i, b in enumerate(betas) if b != 0.0]
    if not keep:
        raise ValueError("all coefficients vanish")
    members = [members[i] for i in keep]
    betas = betas[keep]
    if not abs(np.sum(betas ** 2) - 1.0) <= TOL.normalization:
        raise ValueError("coefficients must be l2-normalized")
    target = members[-1]
    if len(members) == 1:
        return RotationPlan(target=target, steps=[], target_sign=1 if betas[0] > 0 else -1)
    running = betas[-1]
    steps = []
    for k in range(len(members) - 1):
        theta = atan2(betas[k], running)
        steps.append((members[k], theta))
        running = hypot(running, betas[k])
    return RotationPlan(target=target, steps=steps)


def norms_report(poly: MajoranaPolynomial, partition: AnticommutingPartition) -> dict:
    """l1-norm bookkeeping before and after partitioning.

    Lambda is the term-weight l1 norm, Lambda_c the l1 norm of the set norms;
    Lambda / sqrt(s_max) <= Lambda_c <= Lambda always holds.
    """
    members = list(chain.from_iterable(s.members for s in partition.sets))
    if not _covers(_rows_of(poly, members), len(poly.coeffs)):
        raise ValueError("partition does not cover the polynomial")
    lam = float(poly.l1_norm)
    lam_c = float(sum(s.gamma for s in partition.sets))
    s_max = int(max(len(s.members) for s in partition.sets))
    slack = TOL.norm_bounds * (1.0 + lam)
    bounds_ok = lam / sqrt(s_max) <= lam_c + slack and lam_c <= lam + slack
    return {"Lambda": lam, "Lambda_c": lam_c, "s_max": s_max, "bounds_ok": bool(bounds_ok)}
