"""Independent checks of the workloads' outputs.

Each check computes its truth apart from freeferm, from the inputs and from
properties the method must have; none compares against a stored copy of an
earlier output. Every check returns a list of ``(name, ok, detail)``.

Conventions follow the project README: ``a_p = (g_{2p} + i g_{2p+1}) / 2``,
the 1-RDM is ``D_pq = <a_q^dag a_p>``, the covariance matrix is
``M_uv = <-i g_u g_v>`` (u != v), and the canonical monomial on an ascending
index set of size 2 or 4 has expectation Pf(M[idx, idx]).
"""
from __future__ import annotations

import csv
import json
import math
from itertools import combinations

import numpy as np

DELTA = 1e-9  # failure probability of the statistical checks


# --------------------------------------------------------------- tomography

def read_estimates(path: str) -> tuple[dict, int, int, set]:
    """Means keyed by index tuple, the sample count, the mode count, and item counts."""
    with open(path) as fh:
        obj = json.load(fh)
    means = {}
    counts = set()
    for key, item in obj["estimates"].items():
        means[tuple(int(x) for x in key.split(","))] = float(item["mean"])
        counts.add(int(item["count"]))
    return means, int(obj["count"]), int(obj["n_modes"]), counts


def _inverse_eigenvalue(n: int, k: int) -> float:
    return math.comb(2 * n, 2 * k) / math.comb(n, k)


def _diagonal_hits_second_moment(n: int, k: int) -> float:
    """E[K^2] for K = number of diagonal sets of degree 2k a random rotation hits.

    A snapshot contributes to the estimate of set mu iff mu is the image of a
    diagonal set (a union of k mode pairs {2p, 2p+1}). The image of a fixed
    2k-set under a uniform permutation is a uniform 2k-subset, so the moments
    of K depend only on n and k, never on the state.
    """
    m = 2 * n
    if k == 1:
        mean = n * n / math.comb(m, 2)
        both = n * (n - 1) / (math.comb(m, 2) * math.comb(m - 2, 2))
        return mean + n * (n - 1) * both
    if k == 2:
        sets = math.comb(n, 2)
        mean = sets * sets / math.comb(m, 4)
        # ordered pairs of distinct diagonal 4-sets: disjoint, or sharing one pair
        disjoint_pairs = sets * math.comb(n - 2, 2)
        p_disjoint = sets * math.comb(n - 2, 2) / (math.comb(m, 4) * math.comb(m - 4, 4))
        sharing_pairs = sets * 2 * (n - 2)
        p_sharing = n * (n - 1) * (n - 2) / (
            math.comb(m, 2) * math.comb(m - 2, 2) * math.comb(m - 4, 2))
        return mean + disjoint_pairs * p_disjoint + sharing_pairs * p_sharing
    raise ValueError("moments are checked for k = 1 and 2 only")


def bernstein_radius(n: int, k: int, samples: int, delta: float = DELTA) -> float:
    """Radius of the particle-number moment estimate at confidence 1 - delta.

    The single-snapshot value of the degree-2k moment is (lam / 2) times a sum
    of K signs, so its variance is at most (lam / 2)^2 E[K^2] and it deviates
    from its mean by at most lam * C(n, k).
    """
    lam = _inverse_eigenvalue(n, k)
    var = (lam / 2) ** 2 * _diagonal_hits_second_moment(n, k)
    span = lam * math.comb(n, k)
    log_term = math.log(2 / delta)
    a = 2 * span * log_term / 3
    return (a + math.sqrt(a * a + 8 * samples * var * log_term)) / (2 * samples)


def checkpoints(samples: int, chunk: int = 1000) -> list[int]:
    points, t = [], chunk
    while t < samples:
        points.append(t)
        t *= 10
    return points + [samples]


def check_tomography(out_dir: str, n: int, eta: int, samples: int, kmax: int,
                     flip: float) -> list[tuple[str, bool, str]]:
    """Estimator properties, particle-number moments and the error curve."""
    results = []
    means, count, n_sim, item_counts = read_estimates(f"{out_dir}/estimates.json")
    expected = {idx for j in range(1, kmax + 1) for idx in combinations(range(2 * n_sim), 2 * j)}
    results.append(("every even set up to degree 2k present",
                    set(means) == expected, f"{len(means)} of {len(expected)} sets"))
    results.append(("sample count equals T", count == samples and item_counts == {samples},
                    f"count {count}, item counts {sorted(item_counts)}"))

    for k in range(1, kmax + 1):
        lam = _inverse_eigenvalue(n_sim, k)
        keys = combinations(range(2 * n_sim), 2 * k)
        raw = np.array([means.get(idx, 0.0) for idx in keys]) * count / lam
        ints = np.rint(raw)
        off = float(np.max(np.abs(raw - ints))) if raw.size else 0.0
        results.append((f"T*mean/lambda_inv integral, degree {2 * k}", off <= 1e-6,
                        f"max distance to an integer {off:.2e}"))
        hits = count * math.comb(n_sim, k)
        abs_sum = int(np.sum(np.abs(ints)))
        parity_ok = (int(np.sum(ints)) - hits) % 2 == 0
        results.append((f"hit counts bounded with parity of T*C(n,k), degree {2 * k}",
                        abs_sum <= hits and parity_ok, f"abs sum {abs_sum} <= {hits}"))

    moments = {
        1: (-0.5 * sum(means[(2 * p, 2 * p + 1)] for p in range(n_sim)),
            (1 - 2 * flip) * (eta - n_sim / 2)),
    }
    if kmax >= 2:
        moments[2] = (
            0.5 * sum(means[(2 * p, 2 * p + 1, 2 * q, 2 * q + 1)]
                      for p, q in combinations(range(n_sim), 2)),
            (1 - 2 * flip) ** 2 * (math.comb(n_sim, 2) / 2 - eta * (n_sim - eta)),
        )
    for k, (measured, truth) in moments.items():
        radius = bernstein_radius(n_sim, k, count)
        results.append((f"S{2 * k} moment within the Bernstein radius",
                        abs(measured - truth) <= radius,
                        f"{measured:.4f} vs {truth:.4f} +- {radius:.4f}"))

    if kmax >= 2:
        with open(f"{out_dir}/error_curve.csv") as fh:
            rows = list(csv.DictReader(fh))
        ts = [int(r["T"]) for r in rows]
        errs = [(float(r["unmitigated_error"]), float(r["mitigated_error"])) for r in rows]
        finite = all(math.isfinite(e) and e >= 0 for pair in errs for e in pair)
        results.append(("error-curve rows exactly at the checkpoints, errors finite",
                        ts == checkpoints(samples) and finite, f"T = {ts}"))
        if 1000 in ts and 10000 in ts and finite:
            early, late = errs[ts.index(1000)][1], errs[ts.index(10000)][1]
            results.append(("mitigated error falls from T=1e3 to T=1e4", late < early,
                            f"{early:.4f} -> {late:.4f}"))
    return results


# ------------------------------------------------------------- hamiltonians

def read_integrals(path: str) -> tuple[np.ndarray, np.ndarray]:
    with open(path) as fh:
        obj = json.load(fh)
    n = int(obj["n"])
    h2 = np.zeros((n, n, n, n))
    for item in obj["h2"]:
        h2[tuple(item["pqrs"])] = float(item["value"])
    return np.array(obj["h1"], dtype=float), h2


def slater_rdm(n: int, eta: int, rng: np.random.Generator) -> np.ndarray:
    """1-RDM D = V V^dag of a random Slater determinant with eta particles."""
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    v = np.linalg.qr(x)[0][:, :eta]
    return v @ v.conj().T


def covariance_from_rdm(d: np.ndarray) -> np.ndarray:
    """M_uv = <-i g_u g_v> of a number-conserving state with 1-RDM d."""
    n = d.shape[0]
    m = np.zeros((2 * n, 2 * n))
    m[0::2, 0::2] = -2 * d.imag
    m[1::2, 1::2] = -2 * d.imag
    m[0::2, 1::2] = np.eye(n) - 2 * d.real
    m[1::2, 0::2] = 2 * d.real - np.eye(n)
    return m


def canonical_expectations(m: np.ndarray, sets: list[tuple[int, ...]]) -> np.ndarray:
    """Pfaffians of the principal submatrices on index sets of size 2 or 4."""
    out = np.empty(len(sets))
    for i, idx in enumerate(sets):
        if len(idx) == 2:
            out[i] = m[idx[0], idx[1]]
        else:
            a, b, c, d = idx
            out[i] = m[a, b] * m[c, d] - m[a, c] * m[b, d] + m[a, d] * m[b, c]
    return out


def energy(h1: np.ndarray, h2: np.ndarray, d: np.ndarray) -> float:
    """<H> for H = sum h1_pq a_p^dag a_q + 1/2 sum h2_pqrs a_p^dag a_q^dag a_r a_s."""
    one = np.einsum("pq,qp->", h1, d)
    two = 0.5 * (np.einsum("pqrs,sp,rq->", h2, d, d) - np.einsum("pqrs,rp,sq->", h2, d, d))
    return float((one + two).real)


def check_partition(ints_path: str, report_path: str, method: str,
                    seed: int) -> list[tuple[str, bool, str]]:
    """Coverage, anticommutation, norm bounds, template size and energies."""
    results = []
    h1, h2 = read_integrals(ints_path)
    n = h1.shape[0]
    with open(report_path) as fh:
        report = json.load(fh)
    sets = [[tuple(m) for m in s["members"]] for s in report["sets"]]
    members = [idx for s in sets for idx in s]
    support = {tuple(sorted((2 * p, 2 * q + 1))) for p in range(n) for q in range(n)}
    support |= {tuple(sorted((2 * p, 2 * q, 2 * r + 1, 2 * s + 1)))
                for p, q in combinations(range(n), 2) for r, s in combinations(range(n), 2)}
    results.append((f"{method}: every term in exactly one set",
                    len(members) == len(set(members)) and set(members) == support,
                    f"{len(members)} placements of {len(support)} terms"))

    bad = 0
    for s in sets:
        masks = [sum(1 << u for u in idx) for idx in s]
        for (a, ma), (b, mb) in combinations(zip(s, masks), 2):
            if (len(a) * len(b) + bin(ma & mb).count("1")) % 2 == 0:
                bad += 1
    results.append((f"{method}: members of every set pairwise anticommute", bad == 0,
                    f"{bad} commuting pairs"))

    gammas = np.array([float(s["gamma"]) for s in report["sets"]])
    lam = float(sum(g * np.sum(np.abs(s["betas"])) for g, s in zip(gammas, report["sets"])))
    lam_c = float(np.sum(gammas))
    s_max = max(len(s) for s in sets)
    slack = 1e-9 * (1 + lam)
    ok = (lam / math.sqrt(s_max) <= lam_c + slack and lam_c <= lam + slack
          and abs(lam - report["Lambda"]) <= slack and abs(lam_c - report["Lambda_c"]) <= slack
          and s_max == report["s_max"])
    results.append((f"{method}: Lambda/sqrt(s_max) <= Lambda_c <= Lambda, as reported", ok,
                    f"{lam / math.sqrt(s_max):.4f} <= {lam_c:.4f} <= {lam:.4f}"))

    if method == "analytic":
        quartic = sum(1 for s in sets if any(len(idx) == 4 for idx in s))
        want = math.comb(n, 2) * (n - 2)
        results.append(("analytic: C(n,2)(n-2) quartic sets",
                        quartic == want == report.get("analytic_quartic_sets"),
                        f"{quartic} sets with a quartic member, want {want}"))

    rng = np.random.default_rng([seed, 3, n])
    worst = 0.0
    for eta in (1, n // 2, n - 1):
        d = slater_rdm(n, eta, rng)
        m = covariance_from_rdm(d)
        total = float(report["constant"])
        for s, g in zip(report["sets"], gammas):
            idx = [tuple(x) for x in s["members"]]
            total += g * float(np.dot(s["betas"], canonical_expectations(m, idx)))
        worst = max(worst, abs(total - energy(h1, h2, d)))
    tol = 1e-9 * (1 + abs(report["constant"]) + lam)
    results.append((f"{method}: <H> of three Slater states from the report", worst <= tol,
                    f"max deviation {worst:.2e} (tolerance {tol:.1e})"))
    return results


# ------------------------------------------------------------------ circuits

def read_orthogonal(path: str) -> np.ndarray:
    with open(path) as fh:
        obj = json.load(fh)
    dim = 2 * int(obj["n_modes"])
    return np.array(obj["data"], dtype=float).reshape(dim, dim)


def _layer_signs(letters: str) -> np.ndarray:
    """-1 on each axis whose Jordan-Wigner generator anticommutes with the layer.

    g_{2p} -> Z..Z X_p and g_{2p+1} -> Z..Z Y_p; two Pauli strings anticommute
    iff an odd number of positions hold distinct non-identity letters.
    """
    n = len(letters)
    signs = np.ones(2 * n)
    clashes_before = 0  # positions q < p whose letter is X or Y
    for p, letter in enumerate(letters):
        for axis, own in ((2 * p, "X"), (2 * p + 1, "Y")):
            clash = clashes_before + (letter not in ("I", own))
            if clash % 2:
                signs[axis] = -1.0
        clashes_before += letter in ("X", "Y")
    return signs


def recompose(program: dict) -> np.ndarray:
    """Compose the gate actions on the Majorana axes with two-row updates."""
    dim = 2 * int(program["n_qubits"])
    q = np.eye(dim)
    for gate in program["gates"]:
        if gate["kind"] == "pauli":
            q *= _layer_signs(gate["string"])[:, None]
            continue
        q_lo = gate["q"] if gate["kind"] == "zrot" else gate["q"][0]
        axis = 2 * q_lo + (gate["kind"] == "xxrot")
        c, s = math.cos(gate["theta"]), math.sin(gate["theta"])
        upper, lower = q[axis].copy(), q[axis + 1].copy()
        q[axis] = c * upper - s * lower
        q[axis + 1] = s * upper + c * lower
    return q


def program_depth(program: dict) -> int:
    """Circuit depth: rotations and the Pauli layer scheduled as early as possible."""
    frontier = [0] * int(program["n_qubits"])
    depth = 0
    for gate in program["gates"]:
        if gate["kind"] == "pauli":
            support = [i for i, c in enumerate(gate["string"]) if c != "I"]
        elif gate["kind"] == "zrot":
            support = [gate["q"]]
        else:
            support = list(gate["q"])
        if not support:
            continue
        layer = 1 + max(frontier[i] for i in support)
        for i in support:
            frontier[i] = layer
        depth = max(depth, layer)
    return depth


def rotation_count(program: dict) -> int:
    return sum(g["kind"] in ("zrot", "xxrot") for g in program["gates"])


def check_compile(q_path: str, programs: dict[str, dict],
                  recovered: dict[str, np.ndarray]) -> list[tuple[str, bool, str]]:
    """Recomposition, rotation counts and the blocked/naive depth ratio for one Q."""
    results = []
    q = read_orthogonal(q_path)
    n = q.shape[0] // 2
    for scheme, program in programs.items():
        own = float(np.max(np.abs(recompose(program) - q)))
        lib = float(np.max(np.abs(recovered[scheme] - q)))
        results.append((f"n={n} {scheme}: gate list and program_to_orthogonal recompose Q",
                        own <= 1e-9 and lib <= 1e-9, f"deviations {own:.1e}, {lib:.1e}"))
        rotations = rotation_count(program)
        results.append((f"n={n} {scheme}: n(2n-1) rotations", rotations == n * (2 * n - 1),
                        f"{rotations} rotations"))
    naive, blocked = program_depth(programs["naive"]), program_depth(programs["blocked"])
    results.append((f"n={n}: blocked depth <= 0.75 naive depth", blocked <= 0.75 * naive,
                    f"{blocked} vs {naive}"))
    return results
