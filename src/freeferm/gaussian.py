"""Polynomial-time engine for fermionic Gaussian states.

A Gaussian state on n modes is fully described by its 2n x 2n real
antisymmetric covariance matrix M with M_uv = <(-i/2)[g_u, g_v]>. All
higher moments follow from pair correlators through Pfaffians, quadratic
Hamiltonians diagonalize in O(n^3), and computational-basis measurement
can be sampled exactly by conditioning the covariance matrix one mode at
a time.

Conventions
-----------
* The vacuum has M = blkdiag([[0, 1], [-1, 0]], ...); an occupied mode
  carries the opposite block sign.
* Applying the Gaussian rotation attached to an orthogonal Q (Heisenberg
  action g_u -> sum_v Q_uv g_v) maps M to Q M Q^T.
* A quadratic Hamiltonian is stored as its antisymmetric coefficient
  matrix A; the associated free spectrum is {sum_p (+-eps_p)} where the
  eps_p come from the canonical form A = Q L Q^T.
* RDM normalization: trace of the k-RDM is binom(eta, k).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space, schur

from .majorana import MajoranaMonomial
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "CovarianceMatrix",
    "QuadraticHamiltonian",
    "SlaterDeterminant",
    "CanonicalForm",
    "vacuum_covariance",
    "fock_covariance",
    "slater_covariance",
    "evolve",
    "canonical_form",
    "spectrum",
    "pfaffian",
    "wick_expectation",
    "slater_amplitude",
    "one_rdm",
    "k_rdm_element",
    "embed_unitary",
    "sample_bits",
    "measurement_distribution",
]


def _check_antisymmetric(m: np.ndarray, tol: float, what: str):
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
        raise ValueError(f"{what} must be a square even-dimensional matrix")
    if np.max(np.abs(m + m.T)) > tol:
        raise ValueError(f"{what} is not antisymmetric within {tol}")


class CovarianceMatrix:
    """Validated wrapper around a 2n x 2n covariance matrix."""

    def __init__(self, matrix, tol: Tolerances = DEFAULT, validate: bool = True):
        m = np.array(matrix, dtype=float)
        if validate:
            _check_antisymmetric(m, tol.antisymmetry, "covariance matrix")
            evals = np.linalg.eigvalsh(-m @ m)
            if evals.min() < -tol.state_validity or evals.max() > 1.0 + tol.state_validity:
                raise ValueError("covariance matrix does not describe a valid state")
        m.setflags(write=False)
        self.matrix = m
        self.n_modes = m.shape[0] // 2
        self._tol = tol

    def is_pure(self) -> bool:
        m = self.matrix
        return np.max(np.abs(m @ m.T - np.eye(2 * self.n_modes))) <= self._tol.purity

    def __repr__(self):
        return f"CovarianceMatrix(n_modes={self.n_modes})"


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Quadratic Hamiltonian stored as its antisymmetric coefficient matrix."""

    a_matrix: np.ndarray

    def __post_init__(self):
        a = np.array(self.a_matrix, dtype=float)
        _check_antisymmetric(a, 1e-10, "coefficient matrix")
        a.setflags(write=False)
        object.__setattr__(self, "a_matrix", a)

    @property
    def n_modes(self) -> int:
        return self.a_matrix.shape[0] // 2


@dataclass(frozen=True)
class CanonicalForm:
    """Normal form A = Q L Q^T with L block diagonal in [[0, eps], [-eps, 0]]."""

    q: np.ndarray
    eps: np.ndarray
    det_sign: int

    def lambda_matrix(self) -> np.ndarray:
        n = len(self.eps)
        lam = np.zeros((2 * n, 2 * n))
        for p, e in enumerate(self.eps):
            lam[2 * p, 2 * p + 1] = e
            lam[2 * p + 1, 2 * p] = -e
        return lam


class SlaterDeterminant:
    """Fixed-particle-number Gaussian state given by an n x eta isometry."""

    def __init__(self, isometry, tol: Tolerances = DEFAULT):
        v = np.array(isometry, dtype=complex)
        if v.ndim != 2:
            raise ValueError("isometry must be a matrix")
        n, eta = v.shape
        if not 0 <= eta <= n:
            raise ValueError("particle count must lie in [0, n]")
        if eta and np.max(np.abs(v.conj().T @ v - np.eye(eta))) > tol.isometry:
            raise ValueError("columns are not orthonormal")
        v.setflags(write=False)
        self.isometry = v
        self.n_modes = n
        self.eta = eta


def vacuum_covariance(n_modes: int) -> CovarianceMatrix:
    """Covariance matrix of the all-empty Fock state."""
    return fock_covariance(n_modes, ())


def fock_covariance(n_modes: int, occupied) -> CovarianceMatrix:
    """Covariance matrix of a Fock basis state with the given occupied modes."""
    if n_modes < 1:
        raise ValueError("n_modes must be positive")
    occ = set(int(p) for p in occupied)
    m = np.zeros((2 * n_modes, 2 * n_modes))
    for p in range(n_modes):
        val = -1.0 if p in occ else 1.0
        m[2 * p, 2 * p + 1] = val
        m[2 * p + 1, 2 * p] = -val
    return CovarianceMatrix(m, validate=False)


def evolve(g: CovarianceMatrix, q: np.ndarray, tol: Tolerances = DEFAULT) -> CovarianceMatrix:
    """Covariance matrix after applying the Gaussian rotation attached to q."""
    q = np.asarray(q, dtype=float)
    if q.shape != g.matrix.shape:
        raise ValueError("rotation dimension mismatch")
    if np.max(np.abs(q @ q.T - np.eye(q.shape[0]))) > tol.orthogonality:
        raise ValueError("rotation matrix is not orthogonal")
    return CovarianceMatrix(q @ g.matrix @ q.T, tol=tol, validate=False)


def canonical_form(h: QuadraticHamiltonian, tol: Tolerances = DEFAULT) -> CanonicalForm:
    """Block-diagonalize an antisymmetric matrix with eps >= 0 sorted descending.

    Uses the real Schur decomposition (which is block diagonal for normal
    antisymmetric matrices) followed by per-block sign and ordering cleanup.
    """
    a = h.a_matrix
    dim = a.shape[0]
    t, z = schur(a, output="real")
    scale = max(1.0, np.max(np.abs(a)))
    blk_tol = 1e-12 * scale

    pairs = []   # (eps, col_a, col_b)
    singles = []
    i = 0
    while i < dim:
        if i + 1 < dim and abs(t[i + 1, i]) > blk_tol:
            eps = t[i, i + 1]
            ca, cb = z[:, i].copy(), z[:, i + 1].copy()
            if eps < 0:
                eps, ca, cb = -eps, cb, ca
            pairs.append((eps, ca, cb))
            i += 2
        else:
            singles.append(z[:, i].copy())
            i += 1
    for j in range(0, len(singles), 2):
        pairs.append((0.0, singles[j], singles[j + 1]))

    pairs.sort(key=lambda blk: -blk[0])
    q = np.empty((dim, dim))
    eps = np.empty(dim // 2)
    for p, (e, ca, cb) in enumerate(pairs):
        eps[p] = e
        q[:, 2 * p] = ca
        q[:, 2 * p + 1] = cb

    form = CanonicalForm(q=q, eps=eps, det_sign=int(round(np.linalg.det(q))))
    recon = q @ form.lambda_matrix() @ q.T
    if np.max(np.abs(recon - a)) > tol.reconstruction * scale:
        raise ValueError("canonical form reconstruction failed")
    return form


def spectrum(h: QuadraticHamiltonian, max_modes: int = 20) -> np.ndarray:
    """Free spectrum {sum_p (-1)^{b_p} eps_p : b in {0,1}^n}, sorted ascending."""
    n = h.n_modes
    if n > max_modes:
        raise ValueError(f"refusing to materialize 2^{n} energies (guard {max_modes})")
    eps = canonical_form(h).eps
    energies = np.zeros(1)
    for e in eps:
        energies = np.concatenate([energies + e, energies - e])
    return np.sort(energies)


def pfaffian(a: np.ndarray, tol: Tolerances = DEFAULT) -> float:
    """Pfaffian of a real antisymmetric matrix via Parlett-Reid elimination.

    Uses partial pivoting on skew-symmetric Gauss transforms; O(k^3) flops,
    no complex arithmetic. Odd-dimensional input returns 0.
    """
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("pfaffian input must be a square matrix")
    dim = a.shape[0]
    if dim % 2:
        return 0.0
    if dim == 0:
        return 1.0
    scale = 1.0 + np.max(np.abs(a))
    if np.max(np.abs(a + a.T)) > max(tol.antisymmetry, 1e-10 * scale):
        raise ValueError("pfaffian input is not antisymmetric")
    pf = 1.0
    for k in range(0, dim - 2, 2):
        col = np.abs(a[k + 1:, k])
        kp = k + 1 + int(np.argmax(col))
        if kp != k + 1:
            a[[k + 1, kp], :] = a[[kp, k + 1], :]
            a[:, [k + 1, kp]] = a[:, [kp, k + 1]]
            pf = -pf
        alpha = a[k, k + 1]
        if alpha == 0.0:
            return 0.0
        pf *= alpha
        mu = a[k + 2:, k] / alpha
        row = a[k + 1, k + 2:]
        update = np.outer(mu, row) - np.outer(row, mu)
        a[k + 2:, k + 2:] += update
    return pf * a[dim - 2, dim - 1]


def wick_expectation(g: CovarianceMatrix, m: MajoranaMonomial) -> complex:
    """Expectation value of a monomial in a Gaussian state.

    For canonical monomials this is the Pfaffian of the principal covariance
    submatrix on the monomial's index set; odd degree vanishes by parity
    superselection.
    """
    if g.n_modes != m.n_modes:
        raise ValueError("mode-count mismatch")
    if m.degree % 2:
        return 0j
    if m.degree == 0:
        return complex(m.phase_rel_canonical)
    idx = np.array(m.indices)
    sub = g.matrix[np.ix_(idx, idx)]
    return complex(m.phase_rel_canonical * pfaffian(sub))


def slater_amplitude(s: SlaterDeterminant, occ) -> complex:
    """Amplitude <occ| s >, a determinant of an eta x eta isometry submatrix."""
    occ = tuple(sorted(int(p) for p in occ))
    if len(occ) != s.eta:
        raise ValueError("occupation size must equal the particle count")
    if len(set(occ)) != len(occ) or (occ and (occ[0] < 0 or occ[-1] >= s.n_modes)):
        raise ValueError("occupation indices out of range")
    if s.eta == 0:
        return 1.0 + 0j
    return complex(np.linalg.det(s.isometry[list(occ), :]))


def one_rdm(s: SlaterDeterminant) -> np.ndarray:
    """One-body reduced density matrix D_pq = <a_q^dag a_p> = [V V^dag]_pq."""
    v = s.isometry
    return v @ v.conj().T


def k_rdm_element(d1: np.ndarray, p, q) -> complex:
    """k-RDM element as the determinant of a k x k submatrix of the 1-RDM.

    Returns <a_{q1}^dag ... a_{qk}^dag a_{pk} ... a_{p1}> = det D[p, q],
    valid for determinantal (Slater) states.
    """
    p = list(p)
    q = list(q)
    if len(p) != len(q):
        raise ValueError("index sets must have equal size")
    if not p:
        return 1.0 + 0j
    return complex(np.linalg.det(np.asarray(d1)[np.ix_(p, q)]))


def embed_unitary(u: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Orthogonal image of an n x n unitary under the mode-pair embedding.

    Block (i, j) is [[Re u_ij, -Im u_ij], [Im u_ij, Re u_ij]]; the map is a
    group homomorphism into the rotations that preserve particle number.
    """
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    if u.shape != (n, n) or np.max(np.abs(u.conj().T @ u - np.eye(n))) > tol.orthogonality:
        raise ValueError("input is not unitary")
    q = np.zeros((2 * n, 2 * n))
    q[0::2, 0::2] = u.real
    q[0::2, 1::2] = -u.imag
    q[1::2, 0::2] = u.imag
    q[1::2, 1::2] = u.real
    return q


def _complete_isometry(v: np.ndarray) -> np.ndarray:
    """Unitary whose first columns are exactly the given isometry."""
    n, eta = v.shape
    if eta == n:
        return v
    if eta == 0:
        return np.eye(n, dtype=complex)
    comp = null_space(v.conj().T)
    return np.hstack([v, comp])


def slater_covariance(s: SlaterDeterminant) -> CovarianceMatrix:
    """Covariance matrix of a Slater determinant."""
    v = _complete_isometry(s.isometry)
    q = embed_unitary(v)
    base = fock_covariance(s.n_modes, range(s.eta))
    return evolve(base, q)


def _conditional_update(m: np.ndarray, mode: int, bit, prob,
                        work: tuple[np.ndarray, np.ndarray]):
    """Condition a covariance matrix, or a stack of them, in place on ``mode``.

    ``bit`` is the outcome and ``prob`` its probability, one per matrix of a
    stack; the update is the rank-two conditioning formula. ``work`` is a pair
    of scratch arrays of the shape of ``m``; reusing them keeps every step
    from allocating (and page-faulting) stacks of its own.
    """
    row_a = m[..., 2 * mode, :].copy()
    row_b = m[..., 2 * mode + 1, :].copy()
    outer, update = work
    np.multiply(row_a[..., :, None], row_b[..., None, :], out=outer)
    # a_i b_j - b_i a_j; the transpose of the outer product holds b_i a_j exactly
    np.subtract(outer, np.swapaxes(outer, -1, -2), out=update)
    update *= (np.where(bit, 1.0, -1.0) / (2.0 * prob))[..., None, None]
    m += update


def _occupation_probability(m: np.ndarray, mode: int, slack: float):
    """P(mode occupied) for a matrix or a stack, clamped to [0, 1] within ``slack``."""
    p1 = 0.5 * (1.0 - m[..., 2 * mode, 2 * mode + 1])
    if np.any(p1 < -slack) or np.any(p1 > 1.0 + slack):
        raise ValueError("conditional probability outside [0, 1] beyond slack")
    return np.clip(p1, 0.0, 1.0)


def sample_bits(matrices: np.ndarray, rng: np.random.Generator,
                tol: Tolerances = DEFAULT) -> np.ndarray:
    """One computational-basis sample per covariance matrix, exactly by the Born rule.

    ``matrices`` is a (size, 2n, 2n) stack; it is conditioned in place, so
    pass a copy to keep it. Modes are measured in ascending order: each
    conditional probability comes from the current matrix, which is then
    updated by the rank-two conditioning formula (Terhal and DiVincenzo,
    quant-ph/0108010). All uniform draws are taken first, as one (size, n)
    block. Returns a (size, n) uint8 array.
    """
    if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2] or matrices.shape[1] % 2:
        raise ValueError("matrices must be a (size, 2n, 2n) stack")
    size, n = matrices.shape[0], matrices.shape[1] // 2
    bits = np.empty((size, n), dtype=np.uint8)
    draws = rng.random((size, n))
    work = (np.empty_like(matrices), np.empty_like(matrices))
    for j in range(n):
        p1 = _occupation_probability(matrices, j, tol.prob_clamp)
        bit = draws[:, j] < p1
        bits[:, j] = bit
        if j < n - 1:
            # draws lie in [0, 1), so the drawn outcome has probability > 0
            _conditional_update(matrices, j, bit, np.where(bit, p1, 1.0 - p1), work)
    return bits


def measurement_distribution(g: CovarianceMatrix, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Exact probability vector over all 2^n outcomes via chain-rule conditioning.

    Exponential cost; intended for validation at small n.
    """
    n = g.n_modes
    if n > 12:
        raise ValueError("refusing to enumerate more than 2^12 outcomes")
    out = np.zeros(2 ** n)
    work = (np.empty((2 * n, 2 * n)), np.empty((2 * n, 2 * n)))

    def descend(m, mode, prefix_prob, index):
        if prefix_prob == 0.0:
            return
        if mode == n:
            out[index] = prefix_prob
            return
        p1 = _occupation_probability(m, mode, tol.prob_clamp)
        for bit, pb in ((0, 1.0 - p1), (1, p1)):
            if pb <= 0.0:
                continue
            m2 = m.copy()
            if mode < n - 1:
                _conditional_update(m2, mode, bit, pb, work)
            descend(m2, mode + 1, prefix_prob * pb, (index << 1) | bit)

    descend(np.array(g.matrix, dtype=float), 0, 1.0, 0)
    return out
