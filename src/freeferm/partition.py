"""Electronic Hamiltonians in Majorana form and anticommuting-set partitioning.

A two-body Hamiltonian with real, permutation-symmetric integrals rewrites as

    H = c * 1 + sum_{p,q} c_pq i g_{2p} g_{2q+1}
            + (1/2) sum_{p!=q, r!=s} c_pqrs g_{2p} g_{2q} g_{2r+1} g_{2s+1},

so every term is a single Hermitian Majorana monomial. Terms that pairwise
anticommute can be collapsed to one operator by a ladder of two-term
rotations, cutting the number of independently measured quantities; the
partitioner builds such completely anticommuting sets either greedily or
from a closed-form template with binom(n, 2) (n - 2) quartic sets.

Each set could also be collapsed by one rotation about the normalized
commutator of the partial sum with the target, but realizing that axis on
hardware needs linear-combination-of-unitaries machinery; only the ladder
construction is provided here.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations
from math import atan2, hypot, sqrt

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


@dataclass
class MajoranaPolynomial:
    """Real-coefficient Hermitian operator as a map {index set: coefficient}."""

    n_modes: int
    terms: dict[tuple[int, ...], float] = field(default_factory=dict)
    constant: float = 0.0

    def add(self, indices: tuple[int, ...], coeff: float):
        if len(indices) % 2:
            raise ValueError("terms must have even degree")
        if coeff == 0.0:
            return
        self.terms[indices] = self.terms.get(indices, 0.0) + coeff

    def pruned(self, cutoff: float) -> "MajoranaPolynomial":
        kept = {idx: c for idx, c in self.terms.items() if abs(c) > cutoff}
        return MajoranaPolynomial(self.n_modes, kept, self.constant)

    @property
    def l1_norm(self) -> float:
        return sum(abs(c) for c in self.terms.values())


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


def _quadratic_term(p: int, q: int) -> tuple[tuple[int, ...], float]:
    """Canonical set and sign for i g_{2p} g_{2q+1}."""
    a, b = 2 * p, 2 * q + 1
    if a < b:
        return (a, b), -1.0
    return (b, a), 1.0


def majorana_form(ints: ElectronicIntegrals) -> MajoranaPolynomial:
    """Rewrite the ladder-operator Hamiltonian over canonical Majorana monomials.

    Each coefficient is summed in ascending index order, one term at a time.
    """
    n, h1, h2 = ints.n, ints.h1, ints.h2
    poly = MajoranaPolynomial(n)

    const = 0.5 * float(np.trace(h1))
    exchange = 0.125 * (np.einsum("pqqp->pq", h2) - np.einsum("pqpq->pq", h2))
    for c in exchange[~np.eye(n, dtype=bool)].tolist():
        const += c
    poly.constant = const

    # term [p, q, r] is added one r at a time; r = p or r = q adds 0.0, which changes no sum
    pairs = 0.25 * (np.einsum("prrq->pqr", h2) - np.einsum("pqrr->pqr", h2))
    m = np.arange(n)
    pairs[(m[:, None, None] == m) | (m[None, :, None] == m)] = 0.0
    coeffs = 0.5 * h1
    for r in range(n):
        coeffs = coeffs + pairs[:, :, r]
    for (p, q), c in zip(np.ndindex(n, n), coeffs.ravel().tolist()):
        idx, sign = _quadratic_term(p, q)
        poly.add(idx, sign * c)

    # h_pqrs weighs -1/8 against the raw product g_2p g_2q g_2r+1 g_2s+1 (the 1/2 of the
    # two-body sum folded in); the canonical monomial carries (-i)^6 = -1 against the sorted one
    at = np.argwhere(h2)
    at = at[(at[:, 0] != at[:, 1]) & (at[:, 2] != at[:, 3])]
    sets, parity = _sort_rows_with_parity(2 * at + [0, 0, 1, 1])
    weights = np.where(parity == 0, 0.125, -0.125) * h2[tuple(at.T)]
    for idx, c in zip(map(tuple, sets.tolist()), weights.tolist()):
        poly.add(idx, c)

    return poly.pruned(TOL.coeff_prune)


def _first_fit(candidates: list[tuple], groups: list[list[tuple]],
               n_modes: int) -> list[list[tuple]]:
    """Put each candidate, in order, into the first group it wholly anticommutes with.

    ``groups`` is extended in place, with a new group for a candidate that
    fits none. Index sets A and B anticommute iff |A| |B| + |A & B| is odd.
    Every term is a bitmask column with a degree and a group label, so one
    candidate is tested against all placed terms at once.
    """
    placed = [idx for members in groups for idx in members]
    terms = placed + candidates
    degrees = np.fromiter(map(len, terms), dtype=np.int64, count=len(terms))
    flat = np.fromiter(chain.from_iterable(terms), dtype=np.int64, count=int(degrees.sum()))
    if np.any((flat < 0) | (flat >= 2 * n_modes)):
        raise ValueError("indices out of range for n_modes")
    # index u sets bit u % 64 of word u // 64 in its term's column
    masks = np.zeros((-(-2 * n_modes // 64), len(terms)), dtype=np.uint64)
    np.bitwise_or.at(masks, (flat // 64, np.repeat(np.arange(len(terms)), degrees)),
                     np.uint64(1) << (flat % 64).astype(np.uint64))
    if np.any(np.bitwise_count(masks).sum(axis=0) != degrees):
        raise ValueError("index sets must not repeat an index")
    odd = (degrees & 1).astype(np.uint8)
    label = np.zeros(len(terms), dtype=np.int64)
    label[:len(placed)] = np.repeat(np.arange(len(groups)), list(map(len, groups)))
    for k, idx in enumerate(candidates, start=len(placed)):
        # |A & B| is odd iff the XOR of the words' ANDs has odd popcount
        shared = masks[0, :k] & masks[0, k]
        for word in masks[1:]:
            shared ^= word[:k] & word[k]
        anti = np.bitwise_count(shared) & 1
        if odd[k]:
            anti ^= odd[:k]
        ruled_out = np.zeros(len(groups) + 1, dtype=bool)
        ruled_out[label[:k][anti == 0]] = True
        label[k] = g = int(np.argmin(ruled_out))
        if g == len(groups):
            groups.append([])
        groups[g].append(idx)
    return groups


def _finalize_sets(poly: MajoranaPolynomial, groups: list[list[tuple]]) -> AnticommutingPartition:
    sets = []
    for members in groups:
        coeffs = np.array([poly.terms[idx] for idx in members])
        gamma = float(np.linalg.norm(coeffs))
        betas = coeffs / gamma if gamma > 0 else coeffs
        sets.append(PartitionSet(list(members), betas, gamma))
    covered = sorted(idx for s in sets for idx in s.members)
    covers = covered == sorted(poly.terms)
    return AnticommutingPartition(sets, covers)


def greedy_partition(poly: MajoranaPolynomial) -> AnticommutingPartition:
    """First-fit coloring of terms ordered by descending weight, then index.

    Deterministic by construction: the order never depends on dict insertion
    order or thread count.
    """
    if not poly.terms:
        raise ValueError("polynomial has no non-constant terms")
    order = sorted(poly.terms, key=lambda idx: (-abs(poly.terms[idx]), idx))
    return _finalize_sets(poly, _first_fit(order, [], poly.n_modes))


def analytic_partition(n: int) -> list[list[tuple[int, ...]]]:
    """Closed-form template covering every admissible quadratic and quartic set.

    Quartic sets share the even index 2q and the odd pair (2r+1, 2s+1); the
    q = 1 and q = 2 families merge, leaving binom(n, 2) (n - 2) quartic sets
    for n >= 3. Quadratic terms are folded into compatible quartic sets where
    the exclusion rule allows (common even index, disjoint odd pairs); the
    remainder is grouped greedily.
    """
    if n < 2:
        raise ValueError("need at least two modes")
    quartic: dict[tuple[int, int, int], list] = {}
    for r, s in combinations(range(n), 2):
        for q in range(1, n):
            members = [tuple(sorted((2 * p, 2 * q, 2 * r + 1, 2 * s + 1))) for p in range(q)]
            quartic[(q, r, s)] = members
    merged: list[list[tuple[int, ...]]] = []
    for r, s in combinations(range(n), 2):
        fused = quartic.pop((1, r, s))
        if (2, r, s) in quartic:
            fused = fused + quartic.pop((2, r, s))
        merged.append(fused)

    # distribute quadratic terms; T_p joins the q = p family when one exists
    leftovers: list[tuple[int, ...]] = []
    for p in range(n):
        quads = [_quadratic_term(p, q)[0] for q in range(n)]
        host = (p, 0, 1)
        spill = (p, 2, 3)
        if p >= 3 and host in quartic and spill in quartic:
            excluded = [quads[0], quads[1]]
            quartic[host].extend(t for t in quads if t not in excluded)
            quartic[spill].extend(excluded)
        else:
            leftovers.extend(quads)

    return _first_fit(leftovers, merged + list(quartic.values()), n)


def partition_from_template(poly: MajoranaPolynomial,
                            template: list[list[tuple[int, ...]]]) -> AnticommutingPartition:
    """Instantiate a template against a polynomial's support.

    Template sets keep only the terms actually present; support outside the
    template is grouped greedily at the end.
    """
    support = set(poly.terms)
    groups = []
    seen = set()
    for members in template:
        present = [idx for idx in members if idx in support]
        seen.update(present)
        if present:
            groups.append(present)
    return _finalize_sets(poly, _first_fit(sorted(support - seen), groups, poly.n_modes))


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
    if abs(np.sum(betas ** 2) - 1.0) > TOL.normalization:
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
    covered = sorted(idx for s in partition.sets for idx in s.members)
    if covered != sorted(poly.terms):
        raise ValueError("partition does not cover the polynomial")
    lam = float(poly.l1_norm)
    lam_c = float(sum(s.gamma for s in partition.sets))
    s_max = int(max(len(s.members) for s in partition.sets))
    slack = TOL.norm_bounds * (1.0 + lam)
    bounds_ok = lam / sqrt(s_max) <= lam_c + slack and lam_c <= lam + slack
    return {"Lambda": lam, "Lambda_c": lam_c, "s_max": s_max, "bounds_ok": bool(bounds_ok)}
