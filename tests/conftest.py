"""Shared helpers for the test suite."""
from __future__ import annotations

from functools import partial
from itertools import combinations
from math import atan2, cos, sin

import numpy as np
import pytest
from scipy.stats import ortho_group, unitary_group

import freeferm as ff
from freeferm import CovarianceMatrix, MajoranaMonomial, SlaterDeterminant, dense, oracle
from freeferm.circuits import GateProgram, _assemble, _check_orthogonal
from freeferm.majorana import _parity
from freeferm.oracle import random_antisymmetric


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_orthogonal(dim, rng):
    return ortho_group.rvs(dim, random_state=rng)


def random_unitary(dim, rng):
    return unitary_group.rvs(dim, random_state=rng)


def random_slater(n_modes, eta, rng):
    u = random_unitary(n_modes, rng)
    return SlaterDeterminant(u[:, :eta])


random_pure_state = partial(oracle.random_pure_state, scale=0.7)


def random_mixed_covariance(n_modes, rng):
    """Covariance of a generic mixed Gaussian state."""
    lam = rng.uniform(-1.0, 1.0, size=n_modes)
    m = np.zeros((2 * n_modes, 2 * n_modes))
    for p, val in enumerate(lam):
        m[2 * p, 2 * p + 1] = val
        m[2 * p + 1, 2 * p] = -val
    q = random_orthogonal(2 * n_modes, rng)
    return CovarianceMatrix(q @ m @ q.T)


def sample_unrotated(matrix, shots, rng):
    """``shots`` samples of one covariance matrix: identity permutations, unit signs."""
    perms = np.tile(np.arange(matrix.shape[0]), (shots, 1))
    return ff.sample_bits(matrix, perms, np.ones(perms.shape, dtype=np.int8), rng)


def right_looking_bits(matrix, perms, signs, rng):
    """The right-looking sampler: build every rotated matrix, update all of it per mode."""
    slack, sf = ff.DEFAULT.prob_clamp, signs.astype(float)
    stack = matrix[perms[:, :, None], perms[:, None, :]] * sf[:, :, None] * sf[:, None, :]
    size, n = stack.shape[0], stack.shape[1] // 2
    bits = np.empty((size, n), dtype=np.uint8)
    draws = rng.random((size, n))
    prefix = np.ones(size)
    for j in range(n):
        p1 = 0.5 * (1.0 - stack[:, 2 * j, 2 * j + 1])
        if np.any(prefix * p1 < -slack) or np.any(prefix * (p1 - 1.0) > slack):
            raise ValueError("conditional probability outside [0, 1] beyond slack")
        p1 = np.clip(p1, 0.0, 1.0)
        bits[:, j] = bit = draws[:, j] < p1
        prob = np.where(bit, p1, 1.0 - p1)
        outer = stack[:, 2 * j, :, None] * stack[:, 2 * j + 1, None, :]
        coef = np.where(bit, 1.0, -1.0) / (2.0 * prob)
        stack += (outer - np.swapaxes(outer, 1, 2)) * coef[:, None, None]
        prefix *= prob
    return bits


def colex_sets(universe, size):
    """Every ascending index set of ``size`` entries below ``universe``, in colex order."""
    return sorted(combinations(range(universe), size), key=lambda idx: idx[::-1])


def random_monomial(n_modes, rng, max_degree=4, even_only=False):
    degrees = range(0, max_degree + 1, 2) if even_only else range(max_degree + 1)
    deg = int(rng.choice(list(degrees)))
    idx = sorted(rng.choice(2 * n_modes, size=deg, replace=False)) if deg else ()
    return MajoranaMonomial.canonical(n_modes, tuple(int(i) for i in idx))


def reference_first_fit(candidates, groups, n_modes):
    """First-fit by one ``anticommutes`` call per pair: what ``_first_fit`` must match.

    Extends ``groups`` in place and returns it, as the partitioners' helper does.
    """
    for idx in candidates:
        mono = MajoranaMonomial.canonical(n_modes, idx)
        for members in groups:
            if all(ff.anticommutes(mono, MajoranaMonomial.canonical(n_modes, other))
                   for other in members):
                members.append(idx)
                break
        else:
            groups.append([idx])
    return groups


def reference_compile_naive(q):
    """The sequential Givens QR loop: what the wavefront ``compile_naive`` must match."""
    y = _check_orthogonal(q).T.copy()
    dim = y.shape[0]
    rotations = []
    for j in range(dim - 1):
        for i in range(dim - 1, j, -1):
            x, z = y[i - 1, j], y[i, j]
            if z == 0.0:
                continue
            theta = atan2(z, x)
            c, s = cos(theta), sin(theta)
            upper = c * y[i - 1, :] + s * y[i, :]
            lower = -s * y[i - 1, :] + c * y[i, :]
            y[i - 1, :] = upper
            y[i, :] = lower
            y[i, j] = 0.0
            rotations.append((i - 1, -theta))
    return _assemble(dim // 2, [a for a, _ in rotations], [t for _, t in rotations],
                     np.sign(np.diag(y)))


def reference_compile_blocked(q):
    """The two-sided block elimination rotation by rotation, on strided rows of m.T for
    the right sweeps and with fresh temporaries per rotation: what ``compile_blocked``
    must match bit for bit."""
    m = _check_orthogonal(q).copy()
    dim = m.shape[0]
    n = dim // 2
    right, left = [], []

    def eliminate(view, steps, lower, rotations):
        for a, col in steps:
            top, bottom = view[a, col], view[a + 1, col]
            if (bottom if lower else top) == 0.0:
                continue
            theta = atan2(bottom, top) if lower else atan2(-top, bottom)
            c, s = cos(theta), sin(theta)
            upper = c * view[a] + s * view[a + 1]
            view[a + 1] = -s * view[a] + c * view[a + 1]
            view[a] = upper
            view[a + 1 if lower else a, col] = 0.0
            rotations.append((a, theta if lower else -theta))

    for d in range(1, n):
        for j in range(d):
            if d % 2:
                b, r = 2 * (d - 1 - j), 2 * (n - 1 - j)
                steps = ((b, r + 1), (b + 1, r + 1), (b + 2, r + 1), (b, r), (b + 1, r))
                eliminate(m.T, steps, False, right)
            else:
                a, c = 2 * (n - d + j) - 2, 2 * j
                steps = ((a + 2, c), (a + 1, c), (a, c), (a + 2, c + 1), (a + 1, c + 1))
                eliminate(m, steps, True, left)
    corner = 0 if n % 2 == 0 else dim - 2
    eliminate(m, ((corner, corner),), True, left)
    assert np.max(np.abs(m - np.diag(np.diag(m)))) <= ff.DEFAULT.elimination_residual
    d = np.sign(np.diag(m))
    rotations = right + [(a, (d[a] * d[a + 1]) * t) for a, t in reversed(left)]
    return _assemble(n, [a for a, _ in rotations], [t for _, t in rotations], d)


def reference_layer_letters(signs):
    """Pauli string for g_u -> signs[u] g_u, the Jordan-Wigner image of one monomial.

    A monomial on S anticommutes with g_u iff |S| + [u in S] is odd, so S is the
    flipped axes, or the kept ones when an odd number flip.
    """
    flipped = [u for u, s in enumerate(signs) if s < 0]
    if len(flipped) % 2:
        flipped = [u for u, s in enumerate(signs) if s > 0]
    return ff.to_pauli(MajoranaMonomial.canonical(len(signs) // 2, flipped)).letters


def compose(q1, q2):
    """The signed permutation whose matrix is q1.matrix() @ q2.matrix()."""
    perm = tuple(q2.perm[v] for v in q1.perm)
    signs = tuple(s * q2.signs[v] for s, v in zip(q1.signs, q1.perm))
    return ff.SignedPermutation(q1.n_modes, perm, signs)


def reference_assemble(n_qubits, primitives):
    """A general interpreter of tagged primitives: what ``_assemble`` must match.

    A primitive is ("givens", axis, theta) or ("diag", signs), in time order,
    with any number of sign layers anywhere. Each sign layer is pushed to the
    end, multiplying a later rotation's angle on axes (a, a+1) by
    signs[a] * signs[a+1]; a rotation merges into the previous gate when that
    was the last on every qubit it touches and has the same axis.
    """
    signs = [1.0] * (2 * n_qubits)
    rots = []  # [axis, theta]
    last_on_qubit = [-1] * n_qubits

    def qubits_of(axis):
        if axis % 2 == 0:
            return (axis // 2,)
        return (axis // 2, axis // 2 + 1)

    for prim in primitives:
        if prim[0] == "diag":
            for u, s in enumerate(prim[1]):
                signs[u] *= s
            continue
        _, axis, theta = prim
        theta = signs[axis] * signs[axis + 1] * theta
        qs = qubits_of(axis)
        prev = max(last_on_qubit[q] for q in qs)
        if prev >= 0 and rots[prev][0] == axis and all(last_on_qubit[q] == prev for q in qs):
            rots[prev][1] += theta
        else:
            rots.append([axis, theta])
            for q in qs:
                last_on_qubit[q] = len(rots) - 1

    axes, thetas = [], []
    for axis, theta in rots:
        theta = (theta + np.pi) % (2 * np.pi) - np.pi
        if abs(theta) < ff.DEFAULT.rotation_cut:
            continue
        axes.append(axis)
        thetas.append(theta)
    snapped = [1.0 if s > 0 else -1.0 for s in signs]
    return GateProgram(n_qubits, axes, thetas, reference_layer_letters(snapped))


def stats_compare(q):
    """Compile both schemes and report counts, depths, and their ratios."""
    naive = ff.compile_naive(q).stats()
    blocked = ff.compile_blocked(q).stats()
    return {
        "naive": naive,
        "blocked": blocked,
        "depth_ratio": blocked.depth / max(naive.depth, 1),
        "rotation_ratio": blocked.rotation_count / max(naive.rotation_count, 1),
    }


def reference_layer_action(letters):
    """Pauli-layer signs by one ``to_pauli`` clash count per axis."""
    n = len(letters)
    signs = np.ones(2 * n)
    for u in range(2 * n):
        p = ff.to_pauli(MajoranaMonomial.canonical(n, (u,)))
        clashes = sum(x != "I" and y != "I" and x != y for x, y in zip(letters, p.letters))
        if clashes % 2:
            signs[u] = -1.0
    return signs


def reference_program_to_orthogonal(program):
    """Rotation by rotation, then the Pauli layer: what the layered recomposition must match."""
    q = np.eye(2 * program.n_qubits)
    for axis, theta in zip(program.axes.tolist(), program.thetas.tolist()):
        c, s = cos(theta), sin(theta)
        upper, lower = q[axis].copy(), q[axis + 1].copy()
        q[axis] = c * upper - s * lower
        q[axis + 1] = s * upper + c * lower
    return q * reference_layer_action(program.letters)[:, None]


def ladder_product_expansion(n_modes, ops):
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
        new = {}
        for idx, coeff in poly.items():
            left = MajoranaMonomial.canonical(n_modes, idx)
            for mono, w in factor:
                prod = left * mono
                key = prod.indices
                new[key] = new.get(key, 0j) + coeff * w * prod.phase_rel_canonical
        poly = new
    return poly


def random_symmetric_integrals(n, rng):
    """Random one- and two-body integrals with the full eightfold symmetry."""
    h1 = rng.normal(size=(n, n))
    h1 = 0.5 * (h1 + h1.T)
    raw = rng.normal(size=(n, n, n, n))
    perms = [
        (0, 1, 2, 3), (3, 1, 2, 0), (0, 2, 1, 3), (3, 2, 1, 0),
        (1, 0, 3, 2), (2, 0, 3, 1), (1, 3, 0, 2), (2, 3, 0, 1),
    ]
    h2 = np.zeros_like(raw)
    for perm in perms:
        h2 += np.transpose(raw, perm)
    h2 /= len(perms)
    return h1, h2


def dense_hamiltonian(ints):
    """Dense H = sum h1_pq a_p^dag a_q + 1/2 sum h2_pqrs a_p^dag a_q^dag a_r a_s, term by term."""
    n = ints.n
    ladders = [dense.ladder(n, p) for p in range(n)]
    daggers = [l.conj().T for l in ladders]
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for p, q in np.ndindex(ints.h1.shape):
        h += ints.h1[p, q] * daggers[p] @ ladders[q]
    for p, q, r, s in np.ndindex(ints.h2.shape):
        h += 0.5 * ints.h2[p, q, r, s] * daggers[p] @ daggers[q] @ ladders[r] @ ladders[s]
    return h


def reference_majorana_form(ints):
    """Scalar loops over the integrals: what the array-built ``majorana_form`` must match."""
    n, h1, h2 = ints.n, ints.h1, ints.h2
    terms = {}
    const = 0.5 * float(np.trace(h1))
    for p in range(n):
        for q in range(n):
            if p != q:
                const += 0.125 * (h2[p, q, q, p] - h2[p, q, p, q])
    for p in range(n):
        for q in range(n):
            coeff = 0.5 * h1[p, q]
            for r in range(n):
                if r != p and r != q:
                    coeff += 0.25 * (h2[p, r, r, q] - h2[p, q, r, r])
            if coeff != 0.0:
                # i g_2p g_2q+1 is minus the canonical monomial when 2p < 2q + 1
                raw = (2 * p, 2 * q + 1)
                terms[tuple(sorted(raw))] = (-1.0 if _parity(raw) == 0 else 1.0) * coeff
    for p, q, r, s in np.ndindex(h2.shape):
        coeff = -0.125 * h2[p, q, r, s]
        if p == q or r == s or coeff == 0.0:
            continue
        raw = (2 * p, 2 * q, 2 * r + 1, 2 * s + 1)
        idx = tuple(sorted(raw))
        # the canonical quartic monomial carries (-i)^6 = -1 against the raw product
        terms[idx] = terms.get(idx, 0.0) + (-1.0 if _parity(raw) == 0 else 1.0) * coeff
    return ff.MajoranaPolynomial(n, terms, const).pruned(ff.DEFAULT.coeff_prune)
