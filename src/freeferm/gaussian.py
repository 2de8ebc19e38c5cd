"""Polynomial-time engine for fermionic Gaussian states.

A Gaussian state on n modes is fully described by its 2n x 2n real
antisymmetric covariance matrix M with M_uv = <(-i/2)[g_u, g_v]>. All
higher moments follow from pair correlators through Pfaffians, quadratic
Hamiltonians diagonalize in O(n^3), and computational-basis measurement
conditions the covariance matrix one mode at a time. One kernel does that
conditioning: ``sample_bits`` draws each outcome, ``measurement_distribution``
forces every outcome string, and a joint probability <= ``prob_clamp`` is 0.

Conventions
-----------
* With g_2p = a_p + a_p^dag and g_2p+1 = i(a_p^dag - a_p), a number-conserving
  state with one-body RDM D has M[0::2, 0::2] = M[1::2, 1::2] = -2 Im D and
  M[0::2, 1::2] = I - 2 Re D (Terhal and DiVincenzo, quant-ph/0108010). So the
  vacuum has M = blkdiag([[0, 1], [-1, 0]], ...) and an occupied mode flips its block.
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

from .majorana import MajoranaMonomial
from .tolerances import DEFAULT as TOL

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
_BLOCK_BYTES = 1 << 21  # the two buffers of one ``_condition`` row block: about one L2 cache


def _check_antisymmetric(m: np.ndarray, tol: float, what: str):
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
        raise ValueError(f"{what} must be a square even-dimensional matrix")
    if not m.size:
        raise ValueError(f"{what} must cover at least one mode")
    if not np.max(np.abs(m + m.T)) <= tol:
        raise ValueError(f"{what} is not antisymmetric within {tol}")


class CovarianceMatrix:
    """Validated wrapper around a 2n x 2n covariance matrix."""

    def __init__(self, matrix, validate: bool = True):
        m = np.array(matrix, dtype=float)
        if validate:
            _check_antisymmetric(m, TOL.antisymmetry, "covariance matrix")
            evals = np.linalg.eigvalsh(-m @ m)
            if not -TOL.state_validity <= evals.min() <= evals.max() <= 1.0 + TOL.state_validity:
                raise ValueError("covariance matrix does not describe a valid state")
        m.setflags(write=False)
        self.matrix = m
        self.n_modes = m.shape[0] // 2

    def __repr__(self):
        return f"CovarianceMatrix(n_modes={self.n_modes})"


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Quadratic Hamiltonian stored as its antisymmetric coefficient matrix."""

    a_matrix: np.ndarray

    def __post_init__(self):
        a = np.array(self.a_matrix, dtype=float)
        _check_antisymmetric(a, TOL.hamiltonian_antisymmetry, "coefficient matrix")
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
        lam[0::2, 1::2] = np.diag(self.eps)
        lam[1::2, 0::2] = -np.diag(self.eps)
        return lam


class SlaterDeterminant:
    """Fixed-particle-number Gaussian state given by an n x eta isometry."""

    def __init__(self, isometry):
        v = np.array(isometry, dtype=complex)
        if v.ndim != 2:
            raise ValueError("isometry must be a matrix")
        n, eta = v.shape
        if not 0 <= eta <= n:
            raise ValueError("particle count must lie in [0, n]")
        if eta and not np.max(np.abs(v.conj().T @ v - np.eye(eta))) <= TOL.isometry:
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
    occ = [int(p) for p in occupied]
    if any(not 0 <= p < n_modes for p in occ):
        raise ValueError("occupied modes must lie in [0, n_modes)")
    d = np.zeros(n_modes)
    d[occ] = 1.0
    return _rdm_covariance(np.diag(d))


def _rdm_covariance(d: np.ndarray) -> CovarianceMatrix:
    """Covariance matrix of the number-conserving Gaussian state with 1-RDM ``d``."""
    m = np.empty((2 * len(d), 2 * len(d)))
    m[0::2, 0::2] = m[1::2, 1::2] = -2.0 * d.imag
    m[0::2, 1::2] = np.eye(len(d)) - 2.0 * d.real
    m[1::2, 0::2] = -m[0::2, 1::2].T
    return CovarianceMatrix(m, validate=False)


def evolve(g: CovarianceMatrix, q: np.ndarray) -> CovarianceMatrix:
    """Covariance matrix after applying the Gaussian rotation attached to q."""
    q = np.asarray(q, dtype=float)
    if q.shape != g.matrix.shape:
        raise ValueError("rotation dimension mismatch")
    if not np.max(np.abs(q @ q.T - np.eye(q.shape[0]))) <= TOL.orthogonality:
        raise ValueError("rotation matrix is not orthogonal")
    return CovarianceMatrix(q @ g.matrix @ q.T, validate=False)


def canonical_form(h: QuadraticHamiltonian) -> CanonicalForm:
    """Block-diagonalize an antisymmetric matrix with eps >= 0 sorted descending.

    Uses the real Schur decomposition (which is block diagonal for normal
    antisymmetric matrices) followed by per-block sign and ordering cleanup.
    """
    from scipy.linalg import schur  # imported here so that no CLI command but verify loads scipy

    a = h.a_matrix
    dim = a.shape[0]
    t, z = schur(a, output="real")
    scale = max(1.0, np.max(np.abs(a)))
    blk_tol = TOL.schur_block * scale

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
    if not np.max(np.abs(recon - a)) <= TOL.reconstruction * scale:
        raise ValueError("canonical form reconstruction failed")
    return form


def spectrum(h: QuadraticHamiltonian) -> np.ndarray:
    """Free spectrum {sum_p (-1)^{b_p} eps_p : b in {0,1}^n}, sorted ascending."""
    n = h.n_modes
    if n > 20:
        raise ValueError(f"refusing to materialize 2^{n} energies (guard 20)")
    eps = canonical_form(h).eps
    energies = np.zeros(1)
    for e in eps:
        energies = np.concatenate([energies + e, energies - e])
    return np.sort(energies)


def pfaffian(a: np.ndarray) -> float:
    """Pfaffian of a real antisymmetric matrix via Parlett-Reid elimination.

    Uses partial pivoting on skew-symmetric Gauss transforms; O(k^3) flops,
    no complex arithmetic. Odd-dimensional antisymmetric input returns 0.
    """
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("pfaffian input must be a square matrix")
    dim = a.shape[0]
    if dim == 0:
        return 1.0
    scale = 1.0 + np.max(np.abs(a))
    if not np.isfinite(scale):
        raise ValueError("pfaffian input is not antisymmetric: it has a non-finite entry")
    if not np.max(np.abs(a + a.T)) <= max(TOL.antisymmetry, TOL.pfaffian_antisymmetry * scale):
        raise ValueError("pfaffian input is not antisymmetric")
    if dim % 2:
        return 0.0
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


def embed_unitary(u: np.ndarray) -> np.ndarray:
    """Orthogonal image of an n x n unitary under the mode-pair embedding.

    Block (i, j) is [[Re u_ij, -Im u_ij], [Im u_ij, Re u_ij]]; the map is a
    group homomorphism into the rotations that preserve particle number.
    """
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    if not n:
        raise ValueError("unitary must cover at least one mode")
    if u.shape != (n, n) or not np.max(np.abs(u.conj().T @ u - np.eye(n))) <= TOL.orthogonality:
        raise ValueError("input is not unitary")
    q = np.zeros((2 * n, 2 * n))
    q[0::2, 0::2] = u.real
    q[0::2, 1::2] = -u.imag
    q[1::2, 0::2] = u.imag
    q[1::2, 1::2] = u.real
    return q


def slater_covariance(s: SlaterDeterminant) -> CovarianceMatrix:
    """Covariance matrix of a Slater determinant, read off its one-body RDM."""
    return _rdm_covariance(one_rdm(s))


def _condition(matrix: np.ndarray, perms: np.ndarray, signs: np.ndarray,
               draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Measure Q M Q^T mode by mode for each row; return its bits and joint probability.

    Row s rotates by the signed permutation Q[u, v] = signs[s, u] delta(perms[s, u], v);
    ``matrix`` is the 2n x 2n M and ``perms``, ``signs`` (entries +-1) are (size, 2n).
    Modes are measured in ascending order, each conditioned on the outcomes before it by
    the rank-two formula of Terhal and DiVincenzo (quant-ph/0108010). Bit j of row s is
    ``draws[s, j] < p1``: a uniform draw samples it, -1 forces 1 and 2 forces 0.
    The elimination is left-looking: step j gathers rows 2j and 2j+1 of P M P^T, columns
    >= 2j, and adds the j earlier updates c_l (a_l[r] b_l - b_l[r] a_l) with batched
    matmuls. As Q M Q^T = S (P M P^T) S and sign flips are exact, sigma_j = s_2j s_2j+1
    enters only p1 = (1 - sigma_j [P M P^T]_{2j,2j+1}) / 2 and c_j = sigma_j / (2 signed).
    Rows run in blocks that reuse two (rows, n, 2n) buffers of c_l a_l and b_l, which
    fill ``_BLOCK_BYTES``; no output depends on the block size.

    Rounding grows like 1 / prefix, the probability of the outcomes so far, so
    ``TOL.prob_clamp`` bounds how far prefix * p1 may leave [0, prefix] before
    ``ValueError``; p1 is then clamped to [0, 1]. Only a forced outcome can have
    probability 0, and it divides by 1 instead. A returned joint probability
    <= ``TOL.prob_clamp`` is 0: the outcome is impossible within the slack, e.g.
    forbidden by parity.
    """
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.shape[0] % 2:
        raise ValueError("matrix must be a square even-dimensional covariance")
    if perms.ndim != 2 or perms.shape[1] != matrix.shape[0] or signs.shape != perms.shape:
        raise ValueError("perms and signs must be (size, 2n) arrays")
    if perms.size and (perms.min() < 0 or perms.max() >= matrix.shape[0]):
        raise ValueError("perms entries must lie in [0, 2n)")
    size, dim = perms.shape
    n, slack = dim // 2, TOL.prob_clamp
    flat, base = matrix.ravel(), perms.astype(np.intp) * dim
    sigma = (signs[:, 0::2] * signs[:, 1::2]).astype(float)  # (size, n): +-1
    bits = np.empty((size, n), dtype=np.uint8)
    block = max(1, _BLOCK_BYTES // max(1, 16 * n * dim))
    scaled_a = np.empty((min(block, size), n, dim))  # row l: c_l a_l, valid from column 2l
    rows_b = np.empty_like(scaled_a)                 # row l: b_l, valid from column 2l
    joint = np.ones(size)
    for lo in range(0, size, block):
        k = slice(lo, lo + block)
        part = joint[k]
        at, bt = scaled_a[:len(part)], rows_b[:len(part)]
        for j in range(n):
            r, c = slice(2 * j, 2 * j + 2), slice(2 * j, dim)
            rows = np.take(flat, base[k, r, None] + perms[k, None, c])
            if j:
                rows += np.swapaxes(at[:, :j, r], 1, 2) @ bt[:, :j, c]
                rows -= np.swapaxes(bt[:, :j, r], 1, 2) @ at[:, :j, c]
            p1 = 0.5 * (1.0 - sigma[k, j] * rows[:, 0, 1])
            if np.any(part * p1 < -slack) or np.any(part * (p1 - 1.0) > slack):
                raise ValueError("conditional probability outside [0, 1] beyond slack")
            np.clip(p1, 0.0, 1.0, out=p1)
            bit = draws[k, j] < p1
            bits[k, j] = bit
            signed = np.where(bit, p1, p1 - 1.0)  # the outcome's probability, negated for bit 0
            prob = np.abs(signed)
            part *= prob
            if j < n - 1:
                signed[prob == 0.0] = 1.0
                np.multiply(rows[:, 0], (0.5 * sigma[k, j] / signed)[:, None], out=at[:, j, c])
                bt[:, j, c] = rows[:, 1]
    joint[joint <= slack] = 0.0
    return bits, joint


def sample_bits(matrix: np.ndarray, perms: np.ndarray, signs: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
    """One computational-basis sample per rotated state, exactly by the Born rule.

    Snapshot s measures Q M Q^T for the signed permutation of row s of ``perms``
    and ``signs``, as ``_condition`` describes. All uniform draws are taken first,
    as one (size, n) block. Returns a (size, n) uint8 array.
    """
    return _condition(matrix, perms, signs, rng.random((len(perms), len(matrix) // 2)))[0]


def measurement_distribution(g: CovarianceMatrix) -> np.ndarray:
    """Exact probability vector over all 2^n outcomes, mode 0 the most significant bit.

    One ``_condition`` call forces all 2^n outcome strings, so this runs the
    arithmetic that ``sample_bits`` samples with. Exponential cost; intended for
    validation at small n.
    """
    n = g.n_modes
    if n > 12:
        raise ValueError("refusing to enumerate more than 2^12 outcomes")
    outcomes = np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1) & 1
    perms = np.broadcast_to(np.arange(2 * n), (2 ** n, 2 * n))
    return _condition(g.matrix, perms, np.ones_like(perms), np.where(outcomes, -1.0, 2.0))[1]
