"""Exact symbolic algebra of Majorana monomials.

A system of n fermionic modes carries 2n Hermitian generators g_0, ..., g_{2n-1}
obeying {g_u, g_v} = 2 delta_uv. Ordered products of distinct generators, times
a power of i, form a complete operator basis. This module implements that
algebra exactly: phases are integer powers of i (never floats), products are
computed by counting inversions, and conjugation by signed-permutation
rotations is closed on monomials.

Conventions
-----------
* Indices are 0-based, u in {0, ..., 2n-1}, with g_{2p} and g_{2p+1} attached
  to mode p.
* A ``MajoranaMonomial`` stores the operator  i^k * g_{u1} g_{u2} ... g_{um}
  with u1 < u2 < ... < um and k = ``phase_pow_i``. The *canonical* (Hermitian)
  monomial for an index set carries the prefactor (-i)^binom(m, 2).
* Jordan-Wigner images: g_{2p} -> Z^p X_p,  g_{2p+1} -> Z^p Y_p, where Z^p is
  a Z string on qubits 0..p-1.
* Bit strings index modes left to right: character 0 refers to mode/qubit 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

__all__ = [
    "MajoranaMonomial",
    "PauliString",
    "SignedPermutation",
    "multiply",
    "anticommutes",
    "to_pauli",
    "conjugate",
]

_PHASES = (1, 1j, -1, -1j)

# qubit q of a Jordan-Wigner image, by code [2q in S] + 2 [2q+1 in S]: the letter and
# power of i for an even and for an odd number of indices of S above 2q+1
_SITE = (("IZ", (0, 0)), ("XY", (0, 3)), ("YX", (0, 1)), ("ZI", (1, 1)))


def _parity(seq) -> int:
    """Parity of the number of inversions, pairs i < j with seq[i] > seq[j]."""
    return sum(x > y for x, y in combinations(seq, 2)) % 2


def _sort_rows_with_parity(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise sort plus permutation parity (rows hold distinct entries)."""
    width = rows.shape[1]
    parity = np.zeros(rows.shape[0], dtype=np.int64)
    for i in range(width):
        for j in range(i + 1, width):
            parity += rows[:, i] > rows[:, j]
    return np.sort(rows, axis=1), parity % 2


def canonical_phase_pow(degree: int) -> int:
    """Exponent k making i^k * g_{u1}...g_{um} Hermitian, i.e. (-i)^binom(m,2)."""
    return (-comb(degree, 2)) % 4


@dataclass(frozen=True)
class MajoranaMonomial:
    """A phase times an ordered product of Majorana generators."""

    n_modes: int
    indices: tuple[int, ...]
    phase_pow_i: int

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be positive")
        idx = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "phase_pow_i", int(self.phase_pow_i) % 4)
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError("indices must be strictly ascending")
        if idx and (idx[0] < 0 or idx[-1] >= 2 * self.n_modes):
            raise ValueError("indices out of range for n_modes")

    @classmethod
    def canonical(cls, n_modes: int, indices) -> "MajoranaMonomial":
        """The Hermitian basis monomial for an index set."""
        indices = tuple(sorted(int(i) for i in indices))
        return cls(n_modes, indices, canonical_phase_pow(len(indices)))

    @classmethod
    def identity(cls, n_modes: int) -> "MajoranaMonomial":
        return cls(n_modes, (), 0)

    @property
    def degree(self) -> int:
        return len(self.indices)

    @property
    def phase(self) -> complex:
        """Phase relative to the raw generator product."""
        return _PHASES[self.phase_pow_i]

    @property
    def phase_rel_canonical(self) -> complex:
        """Phase relative to the canonical Hermitian monomial on the same set."""
        return _PHASES[(self.phase_pow_i - canonical_phase_pow(self.degree)) % 4]

    def __mul__(self, other: "MajoranaMonomial") -> "MajoranaMonomial":
        return multiply(self, other)

    def __str__(self):
        body = "g(" + ",".join(map(str, self.indices)) + ")" if self.indices else "1"
        return f"i^{self.phase_pow_i} * {body}"


@dataclass(frozen=True)
class PauliString:
    """A phase times a tensor product of single-qubit Pauli letters."""

    letters: str
    phase_pow_i: int = 0

    def __post_init__(self):
        object.__setattr__(self, "phase_pow_i", int(self.phase_pow_i) % 4)
        if any(c not in "IXYZ" for c in self.letters):
            raise ValueError("letters must be over I, X, Y, Z")

    @property
    def n_qubits(self) -> int:
        return len(self.letters)

    @property
    def phase(self) -> complex:
        return _PHASES[self.phase_pow_i]

    def __str__(self):
        pre = {0: "+", 1: "+i*", 2: "-", 3: "-i*"}[self.phase_pow_i]
        return pre + self.letters


@dataclass(frozen=True)
class SignedPermutation:
    """An orthogonal matrix Q with Q[u, v] = signs[u] * delta(perm[u], v).

    These are exactly the rotations whose conjugation action permutes Majorana
    generators among themselves up to sign: the intersection of the Gaussian
    unitaries with the Clifford group.
    """

    n_modes: int
    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        perm = tuple(int(p) for p in self.perm)
        signs = tuple(int(s) for s in self.signs)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "signs", signs)
        m = 2 * self.n_modes
        if len(perm) != m or len(signs) != m:
            raise ValueError("perm and signs must have length 2 * n_modes")
        if sorted(perm) != list(range(m)):
            raise ValueError("perm is not a bijection on 0..2n-1")
        if any(s not in (-1, 1) for s in signs):
            raise ValueError("signs must be +-1")

    @classmethod
    def identity(cls, n_modes: int) -> "SignedPermutation":
        m = 2 * n_modes
        return cls(n_modes, tuple(range(m)), (1,) * m)

    def matrix(self):
        m = 2 * self.n_modes
        q = np.zeros((m, m))
        for u in range(m):
            q[u, self.perm[u]] = self.signs[u]
        return q

    @property
    def perm_parity(self) -> int:
        return _parity(self.perm)

    @property
    def determinant(self) -> int:
        d = (-1) ** self.perm_parity
        for s in self.signs:
            d *= s
        return d

    def inverse_perm(self) -> tuple[int, ...]:
        inv = [0] * len(self.perm)
        for u, v in enumerate(self.perm):
            inv[v] = u
        return tuple(inv)


def multiply(a: MajoranaMonomial, b: MajoranaMonomial) -> MajoranaMonomial:
    """Exact operator product of two monomials.

    Sorting the concatenated generator string takes one transposition per
    inversion (each contributes i^2), and colliding indices cancel via g^2 = 1.
    """
    if a.n_modes != b.n_modes:
        raise ValueError("mode-count mismatch")
    indices = tuple(sorted(set(a.indices) ^ set(b.indices)))
    pow_i = (a.phase_pow_i + b.phase_pow_i + 2 * _parity(a.indices + b.indices)) % 4
    return MajoranaMonomial(a.n_modes, indices, pow_i)


def anticommutes(a: MajoranaMonomial, b: MajoranaMonomial) -> bool:
    """True iff the dense anticommutator of a and b vanishes.

    Two generator products anticommute exactly when |A| |B| + |A and B| is odd.
    """
    if a.n_modes != b.n_modes:
        raise ValueError("mode-count mismatch")
    overlap = len(set(a.indices) & set(b.indices))
    return (a.degree * b.degree + overlap) % 2 == 1


def to_pauli(m: MajoranaMonomial) -> PauliString:
    """Jordan-Wigner image of a monomial, with all phases multiplied out.

    Qubit q reads X for index 2q, then Y for 2q+1 (X Y = iZ), then one Z for
    each index above 2q+1 (X Z = -iY, Y Z = iX, Z Z = I).
    """
    site = [0] * m.n_modes
    for u in m.indices:
        site[u // 2] += 1 + u % 2
    letters, pow_i, above = [], m.phase_pow_i, m.degree
    for code in site:
        above -= (code + 1) // 2  # the indices 2q and 2q+1 present
        pair, pows = _SITE[code]
        letters.append(pair[above % 2])
        pow_i += pows[above % 2]
    return PauliString("".join(letters), pow_i % 4)


def conjugate(q: SignedPermutation, m: MajoranaMonomial) -> MajoranaMonomial:
    """Image of m under the rotation attached to q, U_q m U_q^dag.

    The rotation acts on generators as g_u -> signs[pinv(u)] * g_{pinv(u)},
    so the image is a monomial again; re-sorting contributes the transposition
    parity.
    """
    if q.n_modes != m.n_modes:
        raise ValueError("mode-count mismatch")
    pinv = q.inverse_perm()
    mapped = [pinv[u] for u in m.indices]
    neg = sum(1 for u in mapped if q.signs[u] < 0)
    pow_i = (m.phase_pow_i + 2 * (neg + _parity(mapped))) % 4
    return MajoranaMonomial(m.n_modes, tuple(sorted(mapped)), pow_i)

