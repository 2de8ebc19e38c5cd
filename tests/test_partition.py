"""Majorana form, anticommuting partitioning, and rotation plans."""
import json
import re
from itertools import combinations, product
from math import atan2, comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freeferm as ff
from freeferm import dense, io, partition
from freeferm.partition import PartitionSet

from conftest import (
    dense_hamiltonian,
    random_symmetric_integrals,
    reference_first_fit,
    reference_majorana_form,
)


def dense_polynomial(poly):
    n = poly.n_modes
    dim = 2 ** n
    h = poly.constant * np.eye(dim, dtype=complex)
    for idx, coeff in poly.terms.items():
        h += coeff * dense.build_monomial(ff.MajoranaMonomial.canonical(n, idx)).matrix
    return h


def integrals(n, rng):
    h1, h2 = random_symmetric_integrals(n, rng)
    return ff.ElectronicIntegrals(n, h1, h2)


# ------------------------------------------------------------ majorana form

def integrals_file(tmp_path, items, n=2):
    """An integrals file with zero h1 and the given (pqrs, value) h2 items, in order."""
    path = tmp_path / "ints.json"
    h2 = [{"pqrs": list(idx), "value": val} for idx, val in items]
    path.write_text(json.dumps({"n": n, "h1": np.zeros((n, n)).tolist(), "h2": h2}))
    return path


def test_integrals_validation():
    h2 = np.zeros((2, 2, 2, 2))
    with pytest.raises(ValueError, match="one-body integrals must be symmetric"):
        ff.ElectronicIntegrals(2, np.array([[0.0, 1.0], [0.0, 0.0]]), h2)
    h1 = np.zeros((2, 2))
    with pytest.raises(ValueError, match="n\\^4"):
        ff.ElectronicIntegrals(2, h1, np.zeros((2, 2, 2)))
    h2[0, 0, 0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetry"):
        ff.ElectronicIntegrals(2, h1, h2)


def test_integrals_are_read_only_copies(rng):
    h1, h2 = random_symmetric_integrals(2, rng)
    ints = ff.ElectronicIntegrals(2, h1, h2)
    assert np.array_equal(ints.h1, h1) and np.array_equal(ints.h2, h2)
    assert not ints.h1.flags.writeable and not ints.h2.flags.writeable
    assert h1.flags.writeable and h2.flags.writeable


@pytest.mark.parametrize("bad", [(-1, 0, 0, 0), (0, 0, 2, 0), (0, 0, 0), (0, 0, 0, 0, 0)])
def test_integrals_reject_bad_index_before_symmetry(bad, tmp_path):
    # checked first: a scatter would wrap -1 and raise IndexError at n
    items = [((0, 0, 0, 0), 1.0), ((0, 1, 0, 1), 0.5), (bad, 1.0), ((1, 0, 0, 0), 2.0)]
    with pytest.raises(ValueError, match=re.escape(f"bad two-body index {bad}")):
        io.read_integrals(integrals_file(tmp_path, items))


def test_symmetry_error_names_first_nonzero_entry_in_ascending_order(tmp_path):
    # the file order of the items does not matter
    for first, second in [((0, 0, 0, 1), (1, 1, 1, 0)), ((1, 1, 1, 0), (0, 0, 0, 1))]:
        items = [((0, 0, 0, 0), 1.0), (first, 1.0), (second, 1.0)]
        with pytest.raises(ValueError, match=re.escape("symmetry at (0, 0, 0, 1)")):
            io.read_integrals(integrals_file(tmp_path, items))
    # a zero image of a nonzero entry is a violation as well, but only nonzero entries are named
    h1 = np.zeros((2, 2))
    h2 = np.zeros((2, 2, 2, 2))
    h2[1, 0, 0, 0] = h2[0, 0, 1, 0] = h2[0, 1, 0, 0] = 1.0
    with pytest.raises(ValueError, match=re.escape("symmetry at (0, 0, 1, 0)")):
        ff.ElectronicIntegrals(2, h1, h2)
    h2[0, 0, 0, 1] = 1.0
    assert np.argwhere(ff.ElectronicIntegrals(2, h1, h2).h2).tolist() == [
        [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]


def test_majorana_form_zero():
    poly = ff.majorana_form(ff.ElectronicIntegrals(2, np.zeros((2, 2)), np.zeros((2,) * 4)))
    assert poly.terms == {} and poly.constant == 0.0


def test_majorana_form_number_operator():
    poly = ff.majorana_form(ff.ElectronicIntegrals(2, np.eye(2), np.zeros((2,) * 4)))
    assert poly.constant == pytest.approx(1.0)
    assert poly.terms == pytest.approx({(0, 1): -0.5, (2, 3): -0.5})


@pytest.mark.parametrize("n", [2, 3])
def test_majorana_form_matches_dense(n, rng):
    ints = integrals(n, rng)
    lhs = dense_hamiltonian(ints)
    rhs = dense_polynomial(ff.majorana_form(ints))
    assert np.max(np.abs(lhs - rhs)) < 1e-9


@pytest.mark.parametrize("sparse", [False, True, "orbits"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_majorana_form_matches_scalar_loops(n, sparse, rng):
    h1, h2 = random_symmetric_integrals(n, rng)
    if sparse == "orbits":
        # zero every image of h2[p, q, r, s] for some p < q and r < s: where h2[p, q, s, r]
        # stays nonzero, the set {2p, 2q, 2r+1, 2s+1} first occurs at (p, q, s, r)
        for (p, q), (r, s) in product(combinations(range(n), 2), repeat=2):
            if (p + q + r + s) % 2 == 0:
                for perm in partition._EIGHTFOLD:
                    h2[tuple((p, q, r, s)[i] for i in perm)] = 0.0
        assert any(h2[p, q, r, s] == 0.0 and h2[p, q, s, r] != 0.0
                   for (p, q), (r, s) in product(combinations(range(n), 2), repeat=2))
    elif sparse:
        # every image of an entry has the same indices, so both zero patterns keep the symmetry
        h1[n // 2] = h1[:, n // 2] = 0.0
        for axis in range(4):
            np.moveaxis(h2, axis, 0)[n // 2] = 0.0
        h2[np.indices(h2.shape).sum(axis=0) % 3 == 0] = 0.0
    ints = ff.ElectronicIntegrals(n, h1, h2)
    got, want = ff.majorana_form(ints), reference_majorana_form(ints)
    assert float.hex(got.constant) == float.hex(want.constant)
    assert list(got.terms) == list(want.terms)
    assert all(float.hex(got.terms[idx]) == float.hex(c) for idx, c in want.terms.items())


# ---------------------------------------------------------------- greedy

def test_greedy_single_set_for_anticommuting():
    poly = ff.MajoranaPolynomial(2, {(0, 1): 0.5, (1, 2): 0.3, (0, 2): 0.1})
    part = ff.greedy_partition(poly)
    assert len(part.sets) == 1 and part.covers


def test_greedy_one_set_per_commuting_term():
    poly = ff.MajoranaPolynomial(3, {(0, 1): 0.5, (2, 3): 0.3, (4, 5): 0.1})
    part = ff.greedy_partition(poly)
    assert len(part.sets) == 3


def test_greedy_reduces_counts(rng):
    ints = integrals(4, rng)
    poly = ff.majorana_form(ints)
    part = ff.greedy_partition(poly)
    assert len(part.sets) < len(poly.terms)
    assert part.covers
    # pairwise anticommutation inside every set
    for s in part.sets:
        for a, b in combinations(s.members, 2):
            assert ff.anticommutes(
                ff.MajoranaMonomial.canonical(4, a), ff.MajoranaMonomial.canonical(4, b)
            )
    # normalization bookkeeping
    for s in part.sets:
        assert abs(np.sum(s.betas ** 2) - 1.0) < 1e-12
        for idx, beta in zip(s.members, s.betas):
            assert beta * s.gamma == pytest.approx(poly.terms[idx])


def test_greedy_deterministic(rng):
    ints = integrals(4, rng)
    poly = ff.majorana_form(ints)
    shuffled = ff.MajoranaPolynomial(
        poly.n_modes,
        dict(sorted(poly.terms.items(), key=lambda kv: hash(kv[0]))),
        poly.constant,
    )
    a = ff.greedy_partition(poly)
    b = ff.greedy_partition(shuffled)
    assert [s.members for s in a.sets] == [s.members for s in b.sets]


def test_greedy_empty_raises():
    with pytest.raises(ValueError):
        ff.greedy_partition(ff.MajoranaPolynomial(2, {}))


# --------------------------------------------------------------- analytic

@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_analytic_quartic_count(n):
    template = ff.analytic_partition(n)
    quartic_sets = [g for g in template if any(len(t) == 4 for t in g)]
    assert len(quartic_sets) == comb(n, 2) * (n - 2)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_analytic_sets_anticommute(n):
    template = ff.analytic_partition(n)
    for group in template:
        for a, b in combinations(group, 2):
            assert ff.anticommutes(
                ff.MajoranaMonomial.canonical(n, a), ff.MajoranaMonomial.canonical(n, b)
            )


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_analytic_covers_all_terms(n):
    template = ff.analytic_partition(n)
    quartics = set()
    quadratics = set()
    for group in template:
        for t in group:
            if len(t) == 4:
                assert t not in quartics
                quartics.add(t)
            else:
                assert t not in quadratics
                quadratics.add(t)
    assert len(quartics) == comb(n, 2) ** 2
    assert len(quadratics) == n * n
    expected = set()
    for p, q in combinations(range(n), 2):
        for r, s in combinations(range(n), 2):
            expected.add(tuple(sorted((2 * p, 2 * q, 2 * r + 1, 2 * s + 1))))
    assert quartics == expected


def test_analytic_sets_come_in_family_order():
    # the set order is the order of the sets in a partition report
    n = 5
    pairs = list(combinations(range(n), 2))
    expected = [(2, r, s) for r, s in pairs] + [(q, r, s) for r, s in pairs for q in range(3, n)]
    expected += [(p, None, None) for p in range(3)]
    found = []
    for group in ff.analytic_partition(n):
        top = max(u // 2 for idx in group for u in idx if u % 2 == 0)
        odds = [u // 2 for u in group[0] if u % 2 == 1]
        found.append((top, *odds) if len(odds) == 2 else (top, None, None))
    assert found == expected


def test_analytic_rejects_tiny():
    with pytest.raises(ValueError):
        ff.analytic_partition(1)


def test_partition_from_template(rng):
    n = 4
    ints = integrals(n, rng)
    poly = ff.majorana_form(ints)
    part = ff.partition_from_template(poly, ff.analytic_partition(n))
    assert part.covers
    for s in part.sets:
        for a, b in combinations(s.members, 2):
            assert ff.anticommutes(
                ff.MajoranaMonomial.canonical(n, a), ff.MajoranaMonomial.canonical(n, b)
            )


# -------------------------------------- bitmask first-fit against the pairs

def set_lists(part):
    return [s.members for s in part.sets]


@pytest.fixture
def pairwise(monkeypatch):
    """Call a partitioner with the pairwise reference in place of ``_first_fit``."""
    def first_fit(masks, degrees, placed=np.zeros(0, dtype=np.int64)):
        # the bitmask columns back to index tuples and groups, the reference's groups to labels
        terms = [tuple(u for u in range(64 * len(masks)) if int(masks[u // 64, k]) >> (u % 64) & 1)
                 for k in range(masks.shape[1])]
        assert list(map(len, terms)) == degrees.tolist()
        groups = [[] for _ in range(int(placed.max(initial=-1)) + 1)]
        for idx, g in zip(terms, placed.tolist()):
            groups[g].append(idx)
        groups = reference_first_fit(terms[len(placed):], groups, 32 * len(masks))
        label = {idx: g for g, members in enumerate(groups) for idx in members}
        return np.array([label[idx] for idx in terms])

    def call(fn, *args):
        with monkeypatch.context() as patch:
            patch.setattr(partition, "_first_fit", first_fit)
            return fn(*args)
    return call


@pytest.mark.parametrize("n", range(2, 8))
def test_greedy_matches_pairwise_first_fit(n, rng, pairwise):
    poly = ff.majorana_form(integrals(n, rng))
    part = ff.greedy_partition(poly)
    assert set_lists(part) == set_lists(pairwise(ff.greedy_partition, poly))
    assert len(part.sets) < len(poly.terms)


@pytest.mark.parametrize("n", range(2, 13))
def test_analytic_template_matches_pairwise_first_fit(n):
    # the quadratic terms of modes 0 to min(n, 3) - 1, taken mode by mode, must open the
    # template's last sets when first fit places them after the sets before those
    template = ff.analytic_partition(n)
    k = len(template) - min(n, 3)
    candidates = [tuple(sorted((2 * p, 2 * q + 1))) for p in range(min(n, 3)) for q in range(n)]
    assert reference_first_fit(candidates, [list(m) for m in template[:k]], n) == template


def test_template_leftovers_match_pairwise_first_fit(rng, pairwise):
    n = 4
    template = ff.analytic_partition(n)
    sets = [idx for deg in (2, 4, 6) for idx in combinations(range(2 * n), deg)]
    chosen = rng.choice(len(sets), size=80, replace=False)
    poly = ff.MajoranaPolynomial(n, {sets[i]: float(rng.normal()) for i in chosen})
    outside = set(poly.terms) - {idx for members in template for idx in members}
    assert len(outside) >= 20
    part = ff.partition_from_template(poly, template)
    assert part.covers
    assert set_lists(part) == set_lists(pairwise(ff.partition_from_template, poly, template))


def random_terms(n, count, rng, exclude=()):
    """``count`` random index sets of degree 2, 4 or 6 below 2 n outside ``exclude``, weighted."""
    sets = [idx for deg in (2, 4, 6) for idx in combinations(range(2 * n), deg)
            if idx not in exclude]
    return {sets[i]: float(rng.normal()) for i in rng.choice(len(sets), size=count, replace=False)}


def test_greedy_many_blocks_and_groups_match_pairwise_first_fit(rng, pairwise):
    # 200 candidates span four blocks of 64, and over 16 groups double the group table
    poly = ff.MajoranaPolynomial(5, random_terms(5, 200, rng))
    part = ff.greedy_partition(poly)
    assert len(part.sets) > 32
    assert set_lists(part) == set_lists(pairwise(ff.greedy_partition, poly))


def test_template_many_leftovers_match_pairwise_first_fit(rng, pairwise):
    n = 5
    template = ff.analytic_partition(n)
    inside = {idx for members in template for idx in members}
    # two placed sets start the table at 2 * 2 + 16 groups; 200 leftovers outgrow it
    terms = {idx: float(rng.normal()) for members in template[:2] for idx in members}
    poly = ff.MajoranaPolynomial(n, {**terms, **random_terms(n, 200, rng, inside)})
    part = ff.partition_from_template(poly, template)
    assert part.covers and len(part.sets) > 20
    assert set_lists(part) == set_lists(pairwise(ff.partition_from_template, poly, template))


def test_fully_placed_template_keeps_its_sets(rng, monkeypatch):
    n = 5
    poly = ff.majorana_form(integrals(n, rng))
    template = ff.analytic_partition(n)
    # every term lies in the template, so no first fit runs
    monkeypatch.setattr(partition, "_first_fit", None)
    part = ff.partition_from_template(poly, template)
    kept = [[idx for idx in members if idx in poly.terms] for members in template]
    assert part.covers and set_lists(part) == [members for members in kept if members]


def test_greedy_two_word_masks_match_pairwise_first_fit(rng, pairwise):
    n = 40
    # the two sets share only index 70, in the second mask word
    poly = ff.MajoranaPolynomial(n, {(0, 70): 1.0, (1, 70): 0.5, (2, 71): 0.25})
    assert set_lists(ff.greedy_partition(poly)) == [[(0, 70), (1, 70)], [(2, 71)]]
    # odd degrees too, so that |A| |B| takes both parities
    terms = {}
    for deg in rng.integers(1, 7, size=300):
        idx = tuple(sorted(int(i) for i in rng.choice(2 * n, size=deg, replace=False)))
        terms[idx] = float(rng.normal())
    poly = ff.MajoranaPolynomial(n, terms)
    part = ff.greedy_partition(poly)
    assert set_lists(part) == set_lists(pairwise(ff.greedy_partition, poly))
    assert max(len(s.members) for s in part.sets) > 2


@pytest.mark.parametrize("idx", [(0, 4), (-1, 0), (1, 1)])
def test_first_fit_rejects_bad_index_sets(idx):
    with pytest.raises(ValueError):
        ff.greedy_partition(ff.MajoranaPolynomial(2, {(0, 1): 1.0, idx: 0.5}))


# ----------------------------------------------------------- rotation plans

def test_rotation_plan_singleton():
    plan = ff.rotation_plan([(0, 1)], np.array([1.0]))
    assert plan.steps == [] and plan.target == (0, 1)


def test_rotation_plan_two_terms():
    plan = ff.rotation_plan([(0, 1), (1, 2)], np.array([0.6, 0.8]))
    assert plan.target == (1, 2)
    assert plan.steps[0][1] == pytest.approx(atan2(0.6, 0.8))


def dense_rotation(n, plan):
    dim = 2 ** n
    out = np.eye(dim, dtype=complex)
    target = dense.build_monomial(ff.MajoranaMonomial.canonical(n, plan.target)).matrix
    for member, theta in plan.steps:
        pk = dense.build_monomial(ff.MajoranaMonomial.canonical(n, member)).matrix
        x = 1j * target @ pk
        r = np.cos(theta / 2) * np.eye(dim) - 1j * np.sin(theta / 2) * x
        out = r @ out
    return out


@pytest.mark.parametrize("case", ["two", "five", "negative_target"])
def test_rotation_plan_collapses_dense(case, rng):
    n = 4
    if case == "two":
        members = [(0, 1), (1, 2)]
        betas = np.array([3 / 5, 4 / 5])
    elif case == "five":
        members = [(0, 1, 3, 6), (1, 2, 3, 6), (1, 3, 4, 6), (5, 6), (6, 7)]
        betas = rng.normal(size=5)
        betas /= np.linalg.norm(betas)
    else:
        members = [(0, 1), (0, 2)]
        betas = np.array([0.6, -0.8])
    for a, b in combinations(members, 2):
        assert ff.anticommutes(
            ff.MajoranaMonomial.canonical(n, a), ff.MajoranaMonomial.canonical(n, b)
        )
    plan = ff.rotation_plan(members, betas)
    h_set = sum(
        beta * dense.build_monomial(ff.MajoranaMonomial.canonical(n, m)).matrix
        for m, beta in zip(members, betas)
    )
    r = dense_rotation(n, plan)
    target = dense.build_monomial(ff.MajoranaMonomial.canonical(n, plan.target)).matrix
    assert np.max(np.abs(r @ h_set @ r.conj().T - plan.target_sign * target)) < 1e-9


def test_rotation_plan_negative_singleton():
    plan = ff.rotation_plan([(0, 1)], np.array([-1.0]))
    assert plan.steps == [] and plan.target_sign == -1
    plan = ff.rotation_plan([(0, 1)], np.array([1.0]))
    assert plan.target_sign == 1


def test_rotation_plan_drops_zeros():
    plan = ff.rotation_plan([(0, 1), (1, 2), (0, 2)], np.array([0.6, 0.0, 0.8]))
    assert len(plan.steps) == 1
    with pytest.raises(ValueError):
        ff.rotation_plan([(0, 1)], np.array([0.0]))
    with pytest.raises(ValueError):
        ff.rotation_plan([(0, 1)], np.array([0.5]))


# ------------------------------------------------------------- norms report

def test_norms_trivial_partition_saturates():
    poly = ff.MajoranaPolynomial(3, {(0, 1): 0.5, (2, 3): -0.3, (4, 5): 0.1})
    part = ff.greedy_partition(poly)  # mutually commuting: one term per set
    report = ff.norms_report(poly, part)
    assert report["Lambda_c"] == pytest.approx(report["Lambda"])
    assert report["bounds_ok"]


def test_norms_uniform_magnitudes():
    poly = ff.MajoranaPolynomial(2, {(0, 1): 0.4, (1, 2): -0.4, (0, 2): 0.4})
    part = ff.greedy_partition(poly)
    assert len(part.sets) == 1
    report = ff.norms_report(poly, part)
    assert report["Lambda_c"] == pytest.approx(np.sqrt(3) * 0.4)
    assert report["Lambda"] == pytest.approx(1.2)
    assert report["bounds_ok"]


def test_norms_random(rng):
    for n in (3, 4):
        poly = ff.majorana_form(integrals(n, rng))
        for part in (ff.greedy_partition(poly),
                     ff.partition_from_template(poly, ff.analytic_partition(n))):
            report = ff.norms_report(poly, part)
            assert report["bounds_ok"]
            assert report["Lambda"] / np.sqrt(report["s_max"]) <= report["Lambda_c"] + 1e-9
            assert report["Lambda_c"] <= report["Lambda"] + 1e-9


def test_norms_report_rejects_mismatch():
    poly = ff.MajoranaPolynomial(2, {(0, 1): 1.0})
    bogus = ff.AnticommutingPartition(
        [PartitionSet([(2, 3)], np.array([1.0]), 1.0)], covers=False
    )
    with pytest.raises(ValueError):
        ff.norms_report(poly, bogus)


def test_long_index_sets_are_matched(rng):
    # degree-10 sets on 64 modes: 129**10 distinct padded rows, more than an int64 holds
    n = 64
    terms = {tuple(sorted(int(i) for i in rng.choice(2 * n, size=10, replace=False))):
             float(rng.normal()) for _ in range(30)}
    poly = ff.MajoranaPolynomial(n, terms)
    outside = tuple(range(1, 21, 2))
    template = [[idx] for idx in list(terms)[:5]] + [[outside]]
    for part in (ff.greedy_partition(poly), ff.partition_from_template(poly, template)):
        assert part.covers
        assert sorted(m for s in part.sets for m in s.members) == sorted(terms)
        report = ff.norms_report(poly, part)
        assert report["Lambda"] == poly.l1_norm and report["bounds_ok"]
        part.sets.pop()
        with pytest.raises(ValueError, match="does not cover"):
            ff.norms_report(poly, part)


# ------------------------------------------------------- energy preservation

@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("method", ["greedy", "analytic"])
def test_energy_preserved_under_partition(n, method, rng):
    ints = integrals(n, rng)
    poly = ff.majorana_form(ints)
    if method == "greedy":
        part = ff.greedy_partition(poly)
    else:
        part = ff.partition_from_template(poly, ff.analytic_partition(n))
    dim = 2 ** n
    total = poly.constant * np.eye(dim, dtype=complex)
    for s in part.sets:
        plan = ff.rotation_plan(s.members, s.betas)
        r = dense_rotation(n, plan)
        target = dense.build_monomial(
            ff.MajoranaMonomial.canonical(n, plan.target)).matrix
        total += s.gamma * plan.target_sign * r.conj().T @ target @ r
    assert np.max(np.abs(total - dense_hamiltonian(ints))) < 1e-8


# ------------------------------------------------------------------- fuzzing

@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=15, deadline=None)
def test_greedy_partition_valid_on_random_polynomials(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    sets = set()
    for _ in range(rng.integers(1, 12)):
        deg = int(rng.choice([2, 4]))
        idx = tuple(sorted(int(x) for x in rng.choice(2 * n, size=deg, replace=False)))
        sets.add(idx)
    poly = ff.MajoranaPolynomial(n, {idx: float(rng.normal()) or 0.1 for idx in sets})
    poly = poly.pruned(1e-12)
    if not poly.terms:
        return
    part = ff.greedy_partition(poly)
    covered = sorted(idx for s in part.sets for idx in s.members)
    assert covered == sorted(poly.terms)
    for s in part.sets:
        for a, b in combinations(s.members, 2):
            assert ff.anticommutes(
                ff.MajoranaMonomial.canonical(n, a), ff.MajoranaMonomial.canonical(n, b)
            )
