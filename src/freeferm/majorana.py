"""Exact symbolic algebra of Majorana monomials.

A system of n fermionic modes carries 2n Hermitian generators g_0, ..., g_{2n-1}
obeying {g_u, g_v} = 2 delta_uv. Ordered products of distinct generators, times
a power of i, form a complete operator basis. This module implements that
algebra exactly: phases are integer powers of i (never floats), products are
computed by merge-counting transpositions, and conjugation by signed-permutation
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
    "is_diagonal",
    "diag_element",
]

_PHASES = (1, 1j, -1, -1j)

# site-wise single-qubit Pauli products: (a, b) -> (letter, power of i)
_PAULI_MULT = {
    ("I", "I"): ("I", 0), ("I", "X"): ("X", 0), ("I", "Y"): ("Y", 0), ("I", "Z"): ("Z", 0),
    ("X", "I"): ("X", 0), ("Y", "I"): ("Y", 0), ("Z", "I"): ("Z", 0),
    ("X", "X"): ("I", 0), ("Y", "Y"): ("I", 0), ("Z", "Z"): ("I", 0),
    ("X", "Y"): ("Z", 1), ("Y", "X"): ("Z", 3),
    ("Y", "Z"): ("X", 1), ("Z", "Y"): ("X", 3),
    ("Z", "X"): ("Y", 1), ("X", "Z"): ("Y", 3),
}


def _merge_inversions(a: tuple, b: tuple) -> int:
    """Number of pairs (x in a, y in b) with x > y, for sorted a and b."""
    count = 0
    j = 0
    for x in a:
        while j < len(b) and b[j] < x:
            j += 1
        count += j
    return count


def _sort_with_parity(seq) -> tuple[tuple, int]:
    """Sort a sequence of distinct integers, returning (sorted tuple, parity)."""
    items = list(seq)
    parity = 0
    # insertion sort; sequences here have at most ~2n elements
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            parity ^= 1
            j -= 1
    return tuple(items), parity


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

    @property
    def is_canonical(self) -> bool:
        return self.phase_pow_i == canonical_phase_pow(self.degree)

    def with_phase_times(self, pow_i: int) -> "MajoranaMonomial":
        return MajoranaMonomial(self.n_modes, self.indices, self.phase_pow_i + pow_i)

    def __mul__(self, other: "MajoranaMonomial") -> "MajoranaMonomial":
        return multiply(self, other)

    def to_json(self) -> dict:
        return {"indices": list(self.indices), "phase_pow_i": self.phase_pow_i}

    @classmethod
    def from_json(cls, n_modes: int, data: dict) -> "MajoranaMonomial":
        return cls(n_modes, tuple(data["indices"]), data["phase_pow_i"])

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

    @property
    def weight(self) -> int:
        return sum(c != "I" for c in self.letters)

    def __str__(self):
        pre = {0: "+", 1: "+i*", 2: "-", 3: "-i*"}[self.phase_pow_i]
        return pre + self.letters


def multiply_pauli_letters(a: str, b: str) -> tuple[str, int]:
    """Site-wise product of two Pauli letter strings, returning (letters, i power)."""
    if len(a) != len(b):
        raise ValueError("length mismatch")
    out = []
    pow_i = 0
    for x, y in zip(a, b):
        letter, k = _PAULI_MULT[(x, y)]
        out.append(letter)
        pow_i += k
    return "".join(out), pow_i % 4


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
        _, parity = _sort_with_parity(self.perm)
        return parity

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

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """Matrix product self.matrix() @ other.matrix() as a SignedPermutation."""
        if self.n_modes != other.n_modes:
            raise ValueError("mode-count mismatch")
        perm = tuple(other.perm[self.perm[u]] for u in range(len(self.perm)))
        signs = tuple(self.signs[u] * other.signs[self.perm[u]] for u in range(len(self.perm)))
        return SignedPermutation(self.n_modes, perm, signs)

    def inverse(self) -> "SignedPermutation":
        inv = self.inverse_perm()
        signs = tuple(self.signs[inv[u]] for u in range(len(self.perm)))
        return SignedPermutation(self.n_modes, inv, signs)


def multiply(a: MajoranaMonomial, b: MajoranaMonomial) -> MajoranaMonomial:
    """Exact operator product of two monomials.

    The concatenated generator string is sorted by counting transpositions
    (each contributes i^2) and colliding indices cancel via g^2 = 1.
    """
    if a.n_modes != b.n_modes:
        raise ValueError("mode-count mismatch")
    inversions = _merge_inversions(a.indices, b.indices)
    sa, sb = set(a.indices), set(b.indices)
    indices = tuple(sorted(sa ^ sb))
    pow_i = (a.phase_pow_i + b.phase_pow_i + 2 * inversions) % 4
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
    """Jordan-Wigner image of a monomial, with all phases multiplied out."""
    n = m.n_modes
    letters = "I" * n
    pow_i = m.phase_pow_i
    for u in m.indices:
        p = u // 2
        gen = "Z" * p + ("X" if u % 2 == 0 else "Y") + "I" * (n - p - 1)
        letters, k = multiply_pauli_letters(letters, gen)
        pow_i += k
    return PauliString(letters, pow_i % 4)


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
    indices, parity = _sort_with_parity(mapped)
    pow_i = (m.phase_pow_i + 2 * (neg + parity)) % 4
    return MajoranaMonomial(m.n_modes, indices, pow_i)


def is_diagonal(m: MajoranaMonomial) -> bool:
    """True iff the index set is a union of mode pairs (2p, 2p+1)."""
    idx = m.indices
    if len(idx) % 2:
        return False
    return all(idx[i] % 2 == 0 and idx[i + 1] == idx[i] + 1 for i in range(0, len(idx), 2))


def diag_element(m: MajoranaMonomial, bits) -> complex:
    """Diagonal matrix element <b| m |b> of the monomial.

    Zero unless the monomial is diagonal; a diagonal canonical monomial is the
    Z string on its modes, so the value is a product of (-1)^bit factors.
    """
    bits = _coerce_bits(bits)
    if len(bits) != m.n_modes:
        raise ValueError("bitstring length mismatch")
    if not is_diagonal(m):
        return 0j
    value = m.phase_rel_canonical
    for i in range(0, len(m.indices), 2):
        p = m.indices[i] // 2
        if bits[p]:
            value = -value
    return value


def _coerce_bits(bits) -> tuple[int, ...]:
    if isinstance(bits, str):
        if any(c not in "01" for c in bits):
            raise ValueError("bitstring must be over 0/1")
        return tuple(int(c) for c in bits)
    return tuple(int(b) for b in bits)
