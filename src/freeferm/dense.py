"""Brute-force Fock-space reference implementation.

Everything here materializes 2^n x 2^n matrices and is used to validate the
polynomial-time paths at small n. Never use these in production code paths.

Basis ordering: |b> with b_0 the leftmost bit refers to mode/qubit 0, which is
the highest bit, so the index of |b> is sum_p b_p 2^(n-1-p).

Every matrix starts from ``pauli_matrix``, in closed form: a Pauli string with
f marking its X and Y qubits and s its Y and Z qubits has one nonzero per
column, M[x ^ f, x] = i^#Y (-1)^popcount(x & s). Generators and gates are such
strings, and ladders sums of two. ``build_monomial`` still multiplies its
generators' matrices rather than placing the monomial's own string, so that it
checks ``majorana.to_pauli`` by a derivation the two do not share.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import GateProgram
from .majorana import _PHASES, MajoranaMonomial
from .tolerances import DEFAULT as TOL

MAX_DENSE_MODES = 12
MAX_EXP_MODES = 10


def _guard(n_modes: int, limit: int = MAX_DENSE_MODES):
    if n_modes > limit:
        raise ValueError(
            f"dense construction requested for n_modes={n_modes}, guard is {limit}; "
            "use the polynomial-time paths instead"
        )


@dataclass(frozen=True)
class DenseOperator:
    n_modes: int
    matrix: np.ndarray

    def __post_init__(self):
        _guard(self.n_modes)
        d = 2 ** self.n_modes
        if self.matrix.shape != (d, d):
            raise ValueError("matrix dimension must be 2^n_modes")


@dataclass(frozen=True)
class DenseState:
    n_modes: int
    vector: np.ndarray

    def __post_init__(self):
        _guard(self.n_modes)
        if self.vector.shape != (2 ** self.n_modes,):
            raise ValueError("vector dimension must be 2^n_modes")
        if not abs(np.linalg.norm(self.vector) - 1.0) <= TOL.dense_check:
            raise ValueError("state vector must be normalized")


def pauli_matrix(letters: str) -> np.ndarray:
    """Dense matrix of a Pauli string, placed entry by entry in closed form."""
    _guard(len(letters))
    if any(c not in "IXYZ" for c in letters):
        raise ValueError("letters must be over I, X, Y, Z")
    f = s = 0
    for c in letters:
        f = 2 * f + (c in "XY")
        s = 2 * s + (c in "YZ")
    x = np.arange(2 ** len(letters))
    phase = _PHASES[letters.count("Y") % 4]
    out = np.zeros((x.size, x.size), dtype=complex)
    out[x ^ f, x] = np.where(np.bitwise_count(x & s) & 1, -phase, phase)
    return out


def build_majorana(n_modes: int, mu: int) -> DenseOperator:
    """Jordan-Wigner matrix of a single generator g_mu."""
    if not 0 <= mu < 2 * n_modes:
        raise ValueError("generator index out of range")
    p = mu // 2
    letters = "Z" * p + ("X" if mu % 2 == 0 else "Y") + "I" * (n_modes - p - 1)
    return DenseOperator(n_modes, pauli_matrix(letters))


def build_monomial(m: MajoranaMonomial) -> DenseOperator:
    """Dense matrix of a monomial; exactly Hermitian for canonical monomials."""
    d = 2 ** m.n_modes
    out = np.eye(d, dtype=complex)
    for u in m.indices:
        out = out @ build_majorana(m.n_modes, u).matrix
    return DenseOperator(m.n_modes, m.phase * out)


def ladder(n_modes: int, p: int, dagger: bool = False) -> np.ndarray:
    """Annihilation (or creation) operator a_p = (g_2p + i g_{2p+1}) / 2."""
    even = build_majorana(n_modes, 2 * p).matrix
    odd = build_majorana(n_modes, 2 * p + 1).matrix
    sign = -1j if dagger else 1j
    return 0.5 * (even + sign * odd)


def quadratic_hamiltonian(n_modes: int, a: np.ndarray) -> DenseOperator:
    """Hermitian Fock-space realization of an antisymmetric coefficient matrix.

    Normalized so its eigenvalues are sum_p (+-eps_p), the free spectrum built
    from the canonical-form values of ``a``.
    """
    _guard(n_modes, MAX_EXP_MODES)
    gammas = [build_majorana(n_modes, u).matrix for u in range(2 * n_modes)]
    d = 2 ** n_modes
    h = np.zeros((d, d), dtype=complex)
    for u in range(2 * n_modes):
        for v in range(2 * n_modes):
            if u != v and a[u, v] != 0.0:
                h += (-0.5j) * a[u, v] * (gammas[u] @ gammas[v])
    return DenseOperator(n_modes, h)


def gaussian_unitary(n_modes: int, a: np.ndarray) -> DenseOperator:
    """Gaussian unitary U with U^dag g_u U = sum_v [expm(a)]_{u v} g_v.

    Built as exp((1/4) sum_{u v} a_{u v} g_u g_v) for antisymmetric ``a``,
    through the Hermitian h = i (1/4) sum a_{u v} g_u g_v, which is -1/2 times
    ``quadratic_hamiltonian(n_modes, a)``.
    """
    h = -0.5 * quadratic_hamiltonian(n_modes, a).matrix
    evals, evecs = np.linalg.eigh(h)
    u_mat = (evecs * np.exp(-1j * evals)) @ evecs.conj().T
    return DenseOperator(n_modes, u_mat)


def exp_one_body(n_modes: int, h: np.ndarray) -> DenseOperator:
    """Time evolution exp(-i H) for H = sum_pq h_pq a_p^dag a_q.

    Satisfies U^dag a_p U = sum_q u_pq a_q with u = expm(-i h).
    """
    _guard(n_modes, MAX_EXP_MODES)
    if not np.max(np.abs(h - h.conj().T)) <= TOL.dense_check:
        raise ValueError("one-body coefficient matrix must be Hermitian")
    d = 2 ** n_modes
    big = np.zeros((d, d), dtype=complex)
    ladders = [ladder(n_modes, p) for p in range(n_modes)]
    daggers = [l.conj().T for l in ladders]
    for p in range(n_modes):
        for q in range(n_modes):
            if h[p, q] != 0.0:
                big += h[p, q] * (daggers[p] @ ladders[q])
    evals, evecs = np.linalg.eigh(big)
    u_mat = (evecs * np.exp(-1j * evals)) @ evecs.conj().T
    return DenseOperator(n_modes, u_mat)


def expectation(psi: DenseState, op: DenseOperator) -> complex:
    if psi.n_modes != op.n_modes:
        raise ValueError("mode-count mismatch")
    return complex(psi.vector.conj() @ (op.matrix @ psi.vector))


def born_distribution(psi: DenseState) -> np.ndarray:
    probs = np.abs(psi.vector) ** 2
    total = probs.sum()
    if not abs(total - 1.0) <= TOL.dense_check:
        raise ValueError("state not normalized")
    return probs / total


def fock_state(n_modes: int, bits) -> DenseState:
    """|b> for a string or sequence of 0/1 entries, mode 0 first."""
    bits = tuple(bits)
    if any(b not in (0, 1, "0", "1") for b in bits):
        raise ValueError("bitstring must be over 0/1")
    if len(bits) != n_modes:
        raise ValueError("bitstring length mismatch")
    idx = 0
    for b in bits:
        idx = 2 * idx + int(b)
    vec = np.zeros(2 ** n_modes, dtype=complex)
    vec[idx] = 1.0
    return DenseState(n_modes, vec)


def vacuum_state(n_modes: int) -> DenseState:
    return fock_state(n_modes, (0,) * n_modes)


def apply(op: DenseOperator, psi: DenseState) -> DenseState:
    if psi.n_modes != op.n_modes:
        raise ValueError("mode-count mismatch")
    return DenseState(psi.n_modes, op.matrix @ psi.vector)


def dense_unitary(p: GateProgram) -> np.ndarray:
    """Dense 2^n x 2^n unitary of a gate program."""
    _guard(p.n_qubits)
    dim = 2 ** p.n_qubits
    u = np.eye(dim, dtype=complex)
    for axis, theta in zip(p.axes.tolist(), p.thetas.tolist()):
        mat = pauli_matrix(("I" * (axis // 2) + ("XX" if axis % 2 else "Z")).ljust(p.n_qubits, "I"))
        u = (np.cos(theta / 2) * np.eye(dim) - 1j * np.sin(theta / 2) * mat) @ u
    return pauli_matrix(p.letters) @ u
