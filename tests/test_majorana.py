"""Monomial algebra against the dense Fock-space oracle."""
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freeferm as ff
from freeferm import dense, oracle
from freeferm.circuits import compile_naive
from freeferm.dense import dense_unitary
from freeferm.majorana import _parity

from conftest import compose, random_monomial


def all_index_sets(n_modes, max_degree=None):
    m = 2 * n_modes
    top = m if max_degree is None else max_degree
    for deg in range(top + 1):
        yield from combinations(range(m), deg)


# ---------------------------------------------------------------- multiply

def test_multiply_identity_element():
    one = ff.MajoranaMonomial.identity(2)
    g01 = ff.MajoranaMonomial.canonical(2, (0, 1))
    out = ff.multiply(one, g01)
    assert out == g01


def test_multiply_square_is_identity():
    g01 = ff.MajoranaMonomial.canonical(2, (0, 1))
    out = ff.multiply(g01, g01)
    assert out.indices == ()
    assert out.phase == 1


def test_multiply_overlapping_sets_frozen_phase():
    # dense-oracle value, frozen: g(0,1) * g(1,2) = -i * g(0,2)
    a = ff.MajoranaMonomial.canonical(2, (0, 1))
    b = ff.MajoranaMonomial.canonical(2, (1, 2))
    out = ff.multiply(a, b)
    assert out.indices == (0, 2)
    assert out.phase_rel_canonical == -1j
    # and cross-check the frozen value against the dense product
    lhs = dense.build_monomial(a).matrix @ dense.build_monomial(b).matrix
    rhs = dense.build_monomial(out).matrix
    assert np.array_equal(lhs, rhs)


def test_multiply_exhaustive_small_n():
    n = 2
    monos = [ff.MajoranaMonomial.canonical(n, idx) for idx in all_index_sets(n)]
    mats = {m.indices: dense.build_monomial(m).matrix for m in monos}
    for a in monos:
        for b in monos:
            out = ff.multiply(a, b)
            lhs = mats[a.indices] @ mats[b.indices]
            rhs = dense.build_monomial(out).matrix
            assert np.max(np.abs(lhs - rhs)) == 0.0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_multiply_randomized(n, rng):
    for _ in range(60):
        a = random_monomial(n, rng)
        b = random_monomial(n, rng)
        assert oracle.product_deviation(a, b) == 0.0


def test_multiply_mode_mismatch():
    with pytest.raises(ValueError):
        ff.multiply(ff.MajoranaMonomial.identity(2), ff.MajoranaMonomial.identity(3))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_canonical_square_identity_property(data):
    n = data.draw(st.integers(1, 6))
    deg = data.draw(st.integers(0, 2 * n))
    idx = tuple(sorted(data.draw(
        st.sets(st.integers(0, 2 * n - 1), min_size=deg, max_size=deg))))
    m = ff.MajoranaMonomial.canonical(n, idx)
    sq = ff.multiply(m, m)
    assert sq.indices == () and sq.phase == 1


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_multiply_degree_is_symmetric_difference(data):
    n = data.draw(st.integers(1, 5))
    pick = st.sets(st.integers(0, 2 * n - 1))
    sa = data.draw(pick)
    sb = data.draw(pick)
    a = ff.MajoranaMonomial.canonical(n, tuple(sorted(sa)))
    b = ff.MajoranaMonomial.canonical(n, tuple(sorted(sb)))
    assert set(ff.multiply(a, b).indices) == sa ^ sb


# ------------------------------------------------------------ anticommutes

def test_anticommutes_examples():
    n = 2
    mk = lambda idx: ff.MajoranaMonomial.canonical(n, idx)
    assert not ff.anticommutes(mk((0, 1)), mk((2, 3)))
    assert ff.anticommutes(mk((0, 1)), mk((1, 2)))
    assert not ff.anticommutes(mk((0,)), mk((0,)))


@pytest.mark.parametrize("n", [2, 3])
def test_anticommutes_matches_dense(n, rng):
    sets = list(all_index_sets(n, 4 if n == 3 else None))
    monos = [ff.MajoranaMonomial.canonical(n, idx) for idx in sets]
    mats = {m.indices: dense.build_monomial(m).matrix for m in monos}
    pairs = (
        [(a, b) for a in monos for b in monos]
        if n == 2
        else [(monos[rng.integers(len(monos))], monos[rng.integers(len(monos))]) for _ in range(150)]
    )
    for a, b in pairs:
        anti = mats[a.indices] @ mats[b.indices] + mats[b.indices] @ mats[a.indices]
        assert ff.anticommutes(a, b) == (np.max(np.abs(anti)) == 0.0)


# ---------------------------------------------------------------- to_pauli

def test_to_pauli_generators():
    g0 = ff.to_pauli(ff.MajoranaMonomial.canonical(2, (0,)))
    assert (g0.letters, g0.phase) == ("XI", 1)
    g3 = ff.to_pauli(ff.MajoranaMonomial.canonical(2, (3,)))
    assert (g3.letters, g3.phase) == ("ZY", 1)
    z0 = ff.to_pauli(ff.MajoranaMonomial.canonical(2, (0, 1)))
    assert (z0.letters, z0.phase) == ("ZI", 1)


def test_to_pauli_injective_and_orthogonal():
    n = 3
    images = {}
    for idx in all_index_sets(n):
        p = ff.to_pauli(ff.MajoranaMonomial.canonical(n, idx))
        key = (p.letters, p.phase_pow_i)
        assert key not in images
        images[key] = idx
    # trace orthogonality for a sample of distinct pairs
    sets = list(all_index_sets(n, 3))
    for a in sets[:12]:
        for b in sets[:12]:
            if a == b:
                continue
            prod = dense.build_monomial(ff.MajoranaMonomial.canonical(n, a)).matrix @ \
                dense.build_monomial(ff.MajoranaMonomial.canonical(n, b)).matrix
            assert abs(np.trace(prod)) == 0.0


def test_to_pauli_matches_dense():
    for n in (1, 2, 3):
        for idx, k in product(all_index_sets(n), range(4)):
            m = ff.MajoranaMonomial(n, idx, k)
            p = ff.to_pauli(m)
            assert np.max(np.abs(
                dense.build_monomial(m).matrix - p.phase * dense.pauli_matrix(p.letters)
            )) == 0.0


# --------------------------------------------------------------- conjugate

def test_conjugate_identity_and_signs():
    n = 2
    m = ff.MajoranaMonomial.canonical(n, (0, 1))
    identity = ff.SignedPermutation.identity(n)
    assert ff.conjugate(identity, m) == m

    swap = ff.SignedPermutation(n, (1, 0, 2, 3), (1, 1, 1, 1))
    out = ff.conjugate(swap, m)
    assert out.indices == (0, 1) and out.phase_rel_canonical == -1

    flip = ff.SignedPermutation(n, (0, 1, 2, 3), (-1, 1, 1, 1))
    out = ff.conjugate(flip, m)
    assert out.indices == (0, 1) and out.phase_rel_canonical == -1


def test_conjugate_matches_dense(rng):
    n = 3
    for _ in range(12):
        perm = tuple(int(x) for x in rng.permutation(2 * n))
        signs = tuple(int(s) for s in rng.choice((-1, 1), size=2 * n))
        q = ff.SignedPermutation(n, perm, signs)
        u = dense_unitary(compile_naive(q.matrix()))
        m = random_monomial(n, rng, max_degree=4)
        expected = u @ dense.build_monomial(m).matrix @ u.conj().T
        got = dense.build_monomial(ff.conjugate(q, m)).matrix
        assert np.max(np.abs(expected - got)) < 1e-12


def test_conjugate_group_action(rng):
    n = 4
    for _ in range(30):
        p1 = tuple(int(x) for x in rng.permutation(2 * n))
        p2 = tuple(int(x) for x in rng.permutation(2 * n))
        s1 = tuple(int(s) for s in rng.choice((-1, 1), size=2 * n))
        s2 = tuple(int(s) for s in rng.choice((-1, 1), size=2 * n))
        q1 = ff.SignedPermutation(n, p1, s1)
        q2 = ff.SignedPermutation(n, p2, s2)
        m = random_monomial(n, rng)
        lhs = ff.conjugate(q1, ff.conjugate(q2, m))
        rhs = ff.conjugate(compose(q1, q2), m)
        assert lhs == rhs
        assert lhs.degree == m.degree


def test_signed_permutation_matrix_compose(rng):
    n = 3
    for _ in range(10):
        q1 = ff.SignedPermutation(
            n,
            tuple(int(x) for x in rng.permutation(2 * n)),
            tuple(int(s) for s in rng.choice((-1, 1), size=2 * n)),
        )
        q2 = ff.SignedPermutation(
            n,
            tuple(int(x) for x in rng.permutation(2 * n)),
            tuple(int(s) for s in rng.choice((-1, 1), size=2 * n)),
        )
        assert np.array_equal(compose(q1, q2).matrix(), q1.matrix() @ q2.matrix())
        assert np.array_equal(q1.inverse().matrix(), q1.matrix().T)
        assert q1.determinant == int(round(np.linalg.det(q1.matrix())))


# ------------------------------------------------- diagonal matrix elements

def test_is_diagonal():
    mk = lambda idx: ff.MajoranaMonomial.canonical(4, idx)
    assert ff.is_diagonal(mk((0, 1, 4, 5)))
    assert not ff.is_diagonal(mk((0, 2)))
    assert ff.is_diagonal(mk(()))


def test_diag_element_examples():
    mk = lambda idx: ff.MajoranaMonomial.canonical(3, idx)
    assert ff.diag_element(mk((0, 1)), "100") == -1
    assert ff.diag_element(mk((0, 2)), "000") == 0
    assert ff.diag_element(mk((0, 1, 2, 3)), "110") == 1


def test_diag_element_matches_dense(rng):
    n = 3
    for idx in [(), (0, 1), (2, 3), (0, 1, 2, 3), (0, 1, 4, 5), (0, 1, 2, 3, 4, 5)]:
        m = ff.MajoranaMonomial.canonical(n, idx)
        mat = dense.build_monomial(m).matrix
        for z in range(2 ** n):
            bits = tuple((z >> (n - 1 - i)) & 1 for i in range(n))
            assert ff.diag_element(m, bits) == mat[z, z]


def test_diag_element_length_mismatch():
    m = ff.MajoranaMonomial.canonical(3, (0, 1))
    with pytest.raises(ValueError):
        ff.diag_element(m, "01")


# ----------------------------------------------------------- serialization

def test_invariant_validation():
    with pytest.raises(ValueError):
        ff.MajoranaMonomial(2, (1, 0), 0)
    with pytest.raises(ValueError):
        ff.MajoranaMonomial(2, (0, 4), 0)
    with pytest.raises(ValueError):
        ff.SignedPermutation(2, (0, 1, 2, 2), (1, 1, 1, 1))
    with pytest.raises(ValueError):
        ff.SignedPermutation(2, (0, 1, 2, 3), (1, 2, 1, 1))


# ------------------------------------------------------------ small helpers

def test_parity_counts_inversions(rng):
    for _ in range(50):
        seq = rng.permutation(8).tolist()
        inversions = sum(1 for i in range(8) for j in range(i + 1, 8) if seq[i] > seq[j])
        assert _parity(seq) == inversions % 2
    # for sorted a and b, the inversions of a + b are the cross pairs that multiply counts
    for _ in range(50):
        a = tuple(sorted(rng.choice(20, size=rng.integers(0, 6), replace=False).tolist()))
        b = tuple(sorted(rng.choice(20, size=rng.integers(0, 6), replace=False).tolist()))
        assert _parity(a + b) == sum(1 for x in a for y in b if x > y) % 2
