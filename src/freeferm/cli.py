"""Command-line frontend.

Subcommands: shadow-sim, compile, partition, verify. Every failure path
exits nonzero with a single machine-parsable ``error:<code>: message`` line
on stderr. Randomness is counter-based: the master seed and a fixed chunk
index derive each sample chunk's stream, so outputs are byte-identical for
any ``--threads`` value.
"""
from __future__ import annotations

import os
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations, islice

import click
import numpy as np

from . import dense, io
from .circuits import compile_blocked, compile_naive, dense_unitary, program_to_orthogonal
from .gaussian import (
    CovarianceMatrix,
    QuadraticHamiltonian,
    SlaterDeterminant,
    measurement_distribution,
    one_rdm,
    slater_covariance,
    spectrum,
    vacuum_covariance,
    wick_expectation,
)
from .majorana import MajoranaMonomial, SignedPermutation, multiply
from .partition import (
    analytic_partition,
    greedy_partition,
    majorana_form,
    norms_report,
    partition_from_template,
)
from .shadows import (
    MitigationError,
    NoiseModel,
    ShadowAccumulator,
    _colex_rank,
    exact_two_rdm,
    mitigate,
    sample_snapshots,
    symmetry_spec,
    two_rdm,
)

CHUNK = 1000  # samples per counter-derived RNG stream


def _fail(code: str, message: str, exit_code: int = 2):
    click.echo(f"error:{code}: {message}", err=True)
    sys.exit(exit_code)


def _chunk_rng(master_seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[master_seed, chunk_index]))


@click.group()
def main():
    """Free-fermion simulation, tomography, compilation, and partitioning."""


def _parse_noise(text: str) -> NoiseModel:
    if text in ("none", ""):
        return NoiseModel()
    if ":" not in text:
        raise ValueError("noise must be given as kind:p, e.g. bit_flip:0.2")
    kind, p = text.split(":", 1)
    return NoiseModel(kind, float(p))


def _random_slater(n: int, eta: int, seed: int) -> SlaterDeterminant:
    rng = np.random.Generator(np.random.Philox(key=[seed, 2 ** 32]))
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(x)
    q = q * (np.diag(r) / np.abs(np.diag(r)))[None, :]
    return SlaterDeterminant(q[:, :eta])


def _checkpoints(samples: int) -> list[int]:
    points = []
    t = CHUNK
    while t < samples:
        points.append(t)
        t *= 10
    points.append(samples)
    return points


@main.command("shadow-sim")
@click.option("--modes", type=int, required=True, help="Fermionic mode count n.")
@click.option("--eta", type=int, required=True, help="Particle count of the ground-truth Slater state.")
@click.option("--samples", type=int, required=True, help="Total number of snapshots T.")
@click.option("--group", type=click.Choice(["b", "alt"]), default="b", show_default=True)
@click.option("--noise", default="none", show_default=True, help="Readout noise, kind:p.")
@click.option("--kmax", type=int, default=2, show_default=True,
              help="Largest body order estimated; the RDM error curve needs >= 2.")
@click.option("--seed", type=int, default=0, show_default=True, help="Master seed.")
@click.option("--out", type=click.Path(), required=True, help="Output directory.")
@click.option("--threads", type=int, default=None, help="Worker threads (default: FREEFERM_THREADS or 1).")
@click.option("--save-samples", is_flag=True, help="Also write samples.csv.")
def cmd_shadow_sim(modes, eta, samples, group, noise, kmax, seed, out, threads, save_samples):
    """Simulate the randomized-measurement protocol on a random Slater state.

    Writes estimates.json and an error_curve.csv with one row per checkpoint:
    sample count, unmitigated and mitigated spectral error of the two-body RDM.
    """
    try:
        if samples < 1:
            raise ValueError("samples must be >= 1")
        if modes < 1:
            raise ValueError("modes must be >= 1")
        if not 0 <= eta <= modes:
            raise ValueError("eta must lie in [0, modes]")
        if not 1 <= kmax <= modes:
            raise ValueError("kmax must lie in [1, modes]")
        if threads is None:
            env = os.environ.get("FREEFERM_THREADS", "1")
            try:
                threads = int(env)
            except ValueError:
                raise ValueError(f"FREEFERM_THREADS must be an integer, got {env!r}") from None
        if threads < 1:
            raise ValueError("threads must be >= 1")
        noise_model = _parse_noise(noise)
        spec = symmetry_spec(modes, eta, auto_ancilla=True)
    except (ValueError, MitigationError) as err:
        _fail("invalid-argument", str(err))

    os.makedirs(out, exist_ok=True)

    slater = _random_slater(modes, eta, seed)
    isometry = slater.isometry
    if spec.ancilla_added:
        isometry = np.vstack([isometry, np.zeros((1, eta))])
    cov = slater_covariance(SlaterDeterminant(isometry))
    n_sim = spec.n_modes

    d2_exact = exact_two_rdm(one_rdm(slater))
    checkpoints = _checkpoints(samples)
    acc = ShadowAccumulator(n_sim, kmax)
    writer = io.SampleWriter(os.path.join(out, "samples.csv")) if save_samples else None

    def run_chunk(index, size):
        perms, signs, bits = sample_snapshots(cov, size, _chunk_rng(seed, index), group,
                                              noise_model)
        part = ShadowAccumulator(n_sim, kmax)
        part.add_batch(perms, signs, bits)
        return part, ((perms, signs, bits) if writer is not None else None)

    sizes = []
    offset = 0
    while offset < samples:
        sizes.append(min(CHUNK, samples - offset))
        offset += sizes[-1]

    curve_rows = []
    next_mark = 0

    def flush_checkpoints():
        nonlocal next_mark
        if kmax < 2:
            return  # the two-body error curve needs the degree-4 sector
        while next_mark < len(checkpoints) and acc.count >= checkpoints[next_mark]:
            target = checkpoints[next_mark]
            if acc.count == target:
                est = acc.sector_means()
                d2_raw = two_rdm(est, modes)
                err_raw = float(np.linalg.norm(d2_raw - d2_exact, 2))
                try:
                    d2_mit = two_rdm(mitigate({1: est[1], 2: est[2]}, spec), modes)
                    err_mit = float(np.linalg.norm(d2_mit - d2_exact, 2))
                except MitigationError as err:
                    _fail("mitigation", str(err), exit_code=3)
                curve_rows.append((target, err_raw, err_mit))
                next_mark += 1
            else:
                break

    # chunks merge in index order; at most 2 * threads results are held at once
    chunks = iter(enumerate(sizes))
    with ThreadPoolExecutor(max_workers=min(threads, len(sizes))) as pool:
        window = deque(pool.submit(run_chunk, i, size) for i, size in islice(chunks, 2 * threads))
        while window:
            part, payload = window.popleft().result()
            following = next(chunks, None)
            if following is not None:
                window.append(pool.submit(run_chunk, *following))
            acc.merge(part)
            if writer is not None:
                perms, signs, bits = payload
                for row in range(perms.shape[0]):
                    writer.write_raw(perms[row], signs[row], bits[row])
            flush_checkpoints()

    if writer is not None:
        writer.close()

    io.write_estimates(os.path.join(out, "estimates.json"), acc.estimates(), acc.count, n_sim)
    with open(os.path.join(out, "error_curve.csv"), "w") as fh:
        fh.write("T,unmitigated_error,mitigated_error\n")
        for t, raw, mit in curve_rows:
            fh.write(f"{t},{raw!r},{mit!r}\n")
    click.echo(f"wrote {out}/estimates.json and {out}/error_curve.csv (T={acc.count})")


@main.command("compile")
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option("--scheme", type=click.Choice(["naive", "blocked"]), default="blocked", show_default=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--stats", "show_stats", is_flag=True, help="Print gate statistics as JSON.")
def cmd_compile(input_path, scheme, out, show_stats):
    """Compile an orthogonal matrix file into a gate program."""
    import json

    try:
        _, q = io.read_matrix(input_path, expect_kind="orthogonal")
        program = compile_naive(q) if scheme == "naive" else compile_blocked(q)
    except (ValueError, KeyError) as err:
        _fail("invalid-input", str(err))
    io.write_program(out, program)
    if show_stats:
        st = program.stats()
        click.echo(json.dumps({
            "scheme": scheme,
            "one_qubit_count": st.one_qubit_count,
            "two_qubit_count": st.two_qubit_count,
            "depth": st.depth,
        }))
    else:
        click.echo(f"wrote {out}")


@main.command("partition")
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option("--method", type=click.Choice(["greedy", "analytic"]), default="greedy", show_default=True)
@click.option("--report", "report_path", type=click.Path(), required=True)
def cmd_partition(input_path, method, report_path):
    """Partition an electronic Hamiltonian into anticommuting sets."""
    import json

    try:
        ints = io.read_integrals(input_path)
        poly = majorana_form(ints)
        if not poly.terms:
            raise ValueError("Hamiltonian has no non-constant terms")
        extra = {}
        if method == "greedy":
            part = greedy_partition(poly)
        else:
            template = analytic_partition(ints.n)
            part = partition_from_template(poly, template)
            quartic = sum(1 for group in template if any(len(t) == 4 for t in group))
            extra["analytic_quartic_sets"] = quartic
        report = io.partition_report(norms_report(poly, part), part, extra)
        report["method"] = method
        report["constant"] = poly.constant
    except (ValueError, KeyError) as err:
        _fail("invalid-input", str(err))
    with open(report_path, "w") as fh:
        json.dump(report, fh)
        fh.write("\n")
    click.echo(f"wrote {report_path} ({len(part.sets)} sets)")


def _verify_checks(n: int, seed: int):
    """Oracle-equivalence battery at a configurable mode count."""
    from scipy.stats import ortho_group

    rng = np.random.default_rng(seed)
    checks = []

    def random_monomial(nn, max_deg):
        deg = int(rng.integers(0, max_deg + 1))
        idx = tuple(sorted(rng.choice(2 * nn, size=deg, replace=False))) if deg else ()
        return MajoranaMonomial.canonical(nn, idx)

    # symbolic products against dense matrices
    worst = 0.0
    for _ in range(40):
        a = random_monomial(n, 4)
        b = random_monomial(n, 4)
        lhs = dense.build_monomial(a).matrix @ dense.build_monomial(b).matrix
        rhs = dense.build_monomial(multiply(a, b)).matrix
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    checks.append(("monomial products match dense algebra", worst <= 1e-12, f"max dev {worst:.2e}"))

    # Wick expectations against dense states
    worst = 0.0
    for _ in range(10):
        a_gen = rng.normal(size=(2 * n, 2 * n))
        a_gen = a_gen - a_gen.T
        u = dense.gaussian_unitary(n, a_gen)
        psi = dense.apply(u, dense.vacuum_state(n))
        from scipy.linalg import expm

        cov = CovarianceMatrix(expm(a_gen) @ vacuum_covariance(n).matrix @ expm(a_gen).T)
        for deg in (2, 4):
            for idx in combinations(range(2 * n), deg):
                mono = MajoranaMonomial.canonical(n, idx)
                fast = wick_expectation(cov, mono)
                slow = dense.expectation(psi, dense.build_monomial(mono))
                worst = max(worst, abs(fast - slow))
    checks.append(("Wick expectations match dense states", worst <= 1e-9, f"max dev {worst:.2e}"))

    # free spectrum against dense eigenvalues
    worst = 0.0
    for _ in range(10):
        a_gen = rng.normal(size=(2 * n, 2 * n))
        a_gen = a_gen - a_gen.T
        ham = QuadraticHamiltonian(a_gen)
        fast = spectrum(ham)
        slow = np.sort(np.linalg.eigvalsh(dense.quadratic_hamiltonian(n, a_gen).matrix))
        worst = max(worst, float(np.max(np.abs(fast - slow))))
    checks.append(("free spectra match dense eigenvalues", worst <= 1e-9, f"max dev {worst:.2e}"))

    # measurement distribution against dense Born rule
    worst = 0.0
    for _ in range(5):
        a_gen = rng.normal(size=(2 * n, 2 * n))
        a_gen = a_gen - a_gen.T
        u = dense.gaussian_unitary(n, a_gen)
        psi = dense.apply(u, dense.vacuum_state(n))
        from scipy.linalg import expm

        cov = CovarianceMatrix(expm(a_gen) @ vacuum_covariance(n).matrix @ expm(a_gen).T)
        dist = measurement_distribution(cov)
        worst = max(worst, float(np.max(np.abs(dist - dense.born_distribution(psi)))))
    checks.append(("sampling chain matches dense Born rule", worst <= 1e-9, f"max dev {worst:.2e}"))

    # compiler round trips and dense conjugation
    worst_rt = 0.0
    worst_dense = 0.0
    for _ in range(5):
        q = ortho_group.rvs(2 * n, random_state=rng)
        for compiler in (compile_naive, compile_blocked):
            prog = compiler(q)
            worst_rt = max(worst_rt, float(np.max(np.abs(program_to_orthogonal(prog) - q))))
            u = dense_unitary(prog)
            for mu in range(2 * n):
                lhs = u.conj().T @ dense.build_majorana(n, mu).matrix @ u
                rhs = sum(q[mu, v] * dense.build_majorana(n, v).matrix for v in range(2 * n))
                worst_dense = max(worst_dense, float(np.max(np.abs(lhs - rhs))))
    checks.append(("compiled programs recompose to Q", worst_rt <= 1e-9, f"max dev {worst_rt:.2e}"))
    checks.append(("compiled circuits conjugate generators like Q", worst_dense <= 1e-8, f"max dev {worst_dense:.2e}"))

    # estimator identity, exhaustive at n = 2
    from itertools import permutations, product

    cov = vacuum_covariance(2)
    weighted = {1: np.zeros(6), 2: np.zeros(1)}
    count = 0
    for perm in permutations(range(4)):
        for signs in product((1, -1), repeat=4):
            sp = SignedPermutation(2, perm, signs)
            mat = sp.matrix()
            rotated = CovarianceMatrix(mat @ cov.matrix @ mat.T, validate=False)
            probs = measurement_distribution(rotated)
            for z in range(4):
                if probs[z] == 0.0:
                    continue
                bits = np.array([(z >> 1) & 1, z & 1], dtype=np.uint8)
                single = ShadowAccumulator(2, 2)
                single.add_batch(
                    np.array(perm)[None, :], np.array(signs)[None, :], bits[None, :]
                )
                for j in weighted:
                    weighted[j] += probs[z] * single.sums[j]
            count += 1
    acc_err = 0.0
    for j in weighted:
        sets = list(combinations(range(4), 2 * j))
        for idx, rank in zip(sets, _colex_rank(np.array(sets)).tolist()):
            truth = wick_expectation(cov, MajoranaMonomial.canonical(2, idx)).real
            acc_err = max(acc_err, abs(weighted[j][rank] / count - truth))
    checks.append(("exhaustive estimator identity (n=2 vacuum)", acc_err <= 1e-12, f"max dev {acc_err:.2e}"))

    return checks


@main.command("verify")
@click.option("--modes", type=int, default=3, show_default=True)
@click.option("--seed", type=int, default=7, show_default=True)
def cmd_verify(modes, seed):
    """Run the dense-oracle equivalence battery; exit 0 iff all checks pass."""
    if not 2 <= modes <= 5:
        _fail("invalid-argument", "verify supports 2 <= modes <= 5")
    checks = _verify_checks(modes, seed)
    width = max(len(name) for name, _, _ in checks)
    ok_all = True
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        ok_all &= ok
        click.echo(f"{name.ljust(width)}  {status}  {detail}")
    if not ok_all:
        sys.exit(1)


if __name__ == "__main__":
    main()
