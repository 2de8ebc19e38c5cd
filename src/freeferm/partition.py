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
from itertools import combinations
from math import atan2, hypot, sqrt

import numpy as np

from .majorana import MajoranaMonomial, _sort_with_parity, anticommutes
from .tolerances import DEFAULT, Tolerances

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


class ElectronicIntegrals:
    """One- and two-body integrals with the real eightfold symmetry."""

    def __init__(self, n: int, h1, h2, tol: Tolerances = DEFAULT):
        if n < 1:
            raise ValueError("orbital count must be positive")
        self.n = n
        h1 = np.array(h1, dtype=float)
        if h1.shape != (n, n):
            raise ValueError("one-body matrix must be n x n")
        if np.max(np.abs(h1 - h1.T)) > tol.symmetry_check:
            raise ValueError("one-body integrals must be symmetric")
        h1.setflags(write=False)
        self.h1 = h1
        if isinstance(h2, np.ndarray):
            if h2.shape != (n, n, n, n):
                raise ValueError("two-body tensor must be n^4")
            items = {
                idx: float(h2[idx])
                for idx in np.ndindex(h2.shape)
                if h2[idx] != 0.0
            }
        else:
            items = {tuple(int(i) for i in k): float(v) for k, v in dict(h2).items()}
        for idx in items:
            if len(idx) != 4 or any(not 0 <= i < n for i in idx):
                raise ValueError(f"bad two-body index {idx}")
        self.h2 = items
        self._check_h2_symmetry(tol)

    def _check_h2_symmetry(self, tol: Tolerances):
        for idx, val in self.h2.items():
            for perm in _EIGHTFOLD:
                image = tuple(idx[i] for i in perm)
                other = self.h2.get(image, 0.0)
                if abs(other - val) > tol.symmetry_check:
                    raise ValueError(
                        f"two-body integrals violate permutational symmetry at {idx}"
                    )

    def h2_value(self, p, q, r, s) -> float:
        return self.h2.get((p, q, r, s), 0.0)


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


def _quartic_term(p: int, q: int, r: int, s: int) -> tuple[tuple[int, ...], float]:
    """Canonical set and sign for g_{2p} g_{2q} g_{2r+1} g_{2s+1}."""
    indices, parity = _sort_with_parity((2 * p, 2 * q, 2 * r + 1, 2 * s + 1))
    # canonical quartic monomial carries (-i)^6 = -1 against the raw product
    return indices, -(1.0 if parity == 0 else -1.0)


def majorana_form(ints: ElectronicIntegrals, tol: Tolerances = DEFAULT) -> MajoranaPolynomial:
    """Rewrite the ladder-operator Hamiltonian over canonical Majorana monomials."""
    n = ints.n
    poly = MajoranaPolynomial(n)

    const = 0.5 * float(np.trace(ints.h1))
    for p in range(n):
        for q in range(n):
            if p != q:
                const += 0.125 * (ints.h2_value(p, q, q, p) - ints.h2_value(p, q, p, q))
    poly.constant = const

    for p in range(n):
        for q in range(n):
            coeff = 0.5 * ints.h1[p, q]
            for r in range(n):
                if r != p and r != q:
                    coeff += 0.25 * (ints.h2_value(p, r, r, q) - ints.h2_value(p, q, r, r))
            if coeff != 0.0:
                idx, sign = _quadratic_term(p, q)
                poly.add(idx, sign * coeff)

    # quartic weight is -1/4 h_pqrs against the raw generator product; the 1/2
    # of the two-body sum is folded in
    for (p, q, r, s), val in ints.h2.items():
        if p == q or r == s:
            continue
        coeff = -0.125 * val
        if coeff != 0.0:
            idx, sign = _quartic_term(p, q, r, s)
            poly.add(idx, sign * coeff)

    return poly.pruned(tol.coeff_prune)


def _all_anticommute(candidate: tuple[int, ...], members, n_modes: int) -> bool:
    mono = MajoranaMonomial.canonical(n_modes, candidate)
    for other in members:
        if not anticommutes(mono, MajoranaMonomial.canonical(n_modes, other)):
            return False
    return True


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
    groups: list[list[tuple]] = []
    for idx in order:
        for members in groups:
            if _all_anticommute(idx, members, poly.n_modes):
                members.append(idx)
                break
        else:
            groups.append([idx])
    return _finalize_sets(poly, groups)


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
    keyed = {(q, r, s): m for (q, r, s), m in quartic.items()}

    # distribute quadratic terms; T_p joins the q = p family when one exists
    leftovers: list[tuple[int, ...]] = []
    for p in range(n):
        quads = []
        for q in range(n):
            a, b = 2 * p, 2 * q + 1
            quads.append((a, b) if a < b else (b, a))
        host = (p, 0, 1)
        spill = (p, 2, 3)
        if p >= 3 and host in keyed and spill in keyed:
            excluded = [quads[0], quads[1]]
            keyed[host].extend(t for t in quads if t not in excluded)
            keyed[spill].extend(excluded)
        else:
            leftovers.extend(quads)

    template = merged + list(keyed.values())
    for term in leftovers:
        for members in template:
            if _all_anticommute(term, members, n):
                members.append(term)
                break
        else:
            template.append([term])
    return template


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
    for idx in sorted(support - seen):
        for members in groups:
            if _all_anticommute(idx, members, poly.n_modes):
                members.append(idx)
                break
        else:
            groups.append([idx])
    return _finalize_sets(poly, groups)


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
    if abs(np.sum(betas ** 2) - 1.0) > 1e-12:
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
    slack = 1e-9 * (1.0 + lam)
    bounds_ok = lam / sqrt(s_max) <= lam_c + slack and lam_c <= lam + slack
    return {"Lambda": lam, "Lambda_c": lam_c, "s_max": s_max, "bounds_ok": bool(bounds_ok)}
