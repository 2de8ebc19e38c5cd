"""Command-line frontend.

Subcommands: shadow-sim, compile, partition, verify. ``verify`` prints
:func:`freeferm.oracle.battery`, imported only when it runs. Every failure path
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
from itertools import islice
from time import perf_counter

import click
import numpy as np
import numpy.random  # numpy loads it lazily; every shadow-sim chunk draws from Philox

from . import io
from .circuits import compile_blocked, compile_naive, program_to_orthogonal
from .gaussian import SlaterDeterminant, one_rdm, slater_covariance
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
    exact_two_rdm,
    mitigate,
    sample_snapshots,
    symmetry_spec,
    two_rdm,
)

CHUNK = 1000  # samples per counter-derived RNG stream
SEEDS = range(2 ** 63)  # numpy reads a Philox key list of larger ints as float64


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
    points = [CHUNK]  # CHUNK, 10 CHUNK, 100 CHUNK, ... below the total, then the total
    while points[-1] < samples:
        points.append(10 * points[-1])
    return points[:-1] + [samples]


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
@click.option("--threads", type=int, default=1, show_default=True, help="Worker threads.")
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
        if seed not in SEEDS:
            raise ValueError("seed must be >= 0" if seed < 0 else "seed must be < 2**63")
        if threads < 1:
            raise ValueError("threads must be >= 1")
        noise_model = _parse_noise(noise)
        spec = symmetry_spec(modes, eta)
        os.makedirs(out, exist_ok=True)
        for name in ("estimates.json", "error_curve.csv"):
            open(os.path.join(out, name), "a").close()  # a blocked path fails before sampling
        writer = io.SampleWriter(os.path.join(out, "samples.csv")) if save_samples else None
    except (ValueError, MitigationError, OSError) as err:
        _fail("invalid-argument", str(err))

    slater = _random_slater(modes, eta, seed)
    isometry = slater.isometry
    if spec.ancilla_added:
        isometry = np.vstack([isometry, np.zeros((1, eta))])
    cov = slater_covariance(SlaterDeterminant(isometry))
    n_sim = spec.n_modes

    # only the two-body error curve reads it, and it needs kmax >= 2
    d2_exact = exact_two_rdm(one_rdm(slater)) if kmax >= 2 else None
    checkpoints = _checkpoints(samples)
    acc = ShadowAccumulator(n_sim, kmax)

    def run_chunk(index, size):
        perms, signs, bits = sample_snapshots(cov, size, _chunk_rng(seed, index), group,
                                              noise_model)
        part = ShadowAccumulator(n_sim, kmax)
        part.add_batch(perms, signs, bits)
        return part, ((perms, signs, bits) if writer is not None else None)

    sizes = [min(CHUNK, samples - start) for start in range(0, samples, CHUNK)]
    curve_rows = []

    def flush_checkpoints():
        # the error curve needs the degree-4 sector; every checkpoint is a whole number
        # of chunks or the total, so the count lands on each one
        if kmax < 2 or acc.count not in checkpoints:
            return
        est = acc.sector_means()
        d2_raw = two_rdm(est, modes)
        err_raw = float(np.linalg.norm(d2_raw - d2_exact, 2))
        try:
            d2_mit = two_rdm(mitigate({1: est[1], 2: est[2]}, spec), modes)
            err_mit = float(np.linalg.norm(d2_mit - d2_exact, 2))
        except MitigationError as err:
            _fail("mitigation", str(err), exit_code=3)
        curve_rows.append((acc.count, err_raw, err_mit))

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
                writer.write_batch(*payload)
            flush_checkpoints()

    if writer is not None:
        writer.close()

    try:
        io.write_estimates(os.path.join(out, "estimates.json"), acc.sector_means(), acc.count,
                           n_sim)
        with open(os.path.join(out, "error_curve.csv"), "w") as fh:
            fh.write("T,unmitigated_error,mitigated_error\n")
            for t, raw, mit in curve_rows:
                fh.write(f"{t},{raw!r},{mit!r}\n")
    except OSError as err:
        _fail("invalid-argument", str(err))
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
        start = perf_counter()
        program = compile_naive(q) if scheme == "naive" else compile_blocked(q)
        compile_s = perf_counter() - start
    except (ValueError, KeyError, OSError) as err:
        _fail("invalid-input", str(err))
    try:
        io.write_program(out, program)
    except OSError as err:
        _fail("invalid-argument", str(err))
    if show_stats:
        st = program.stats()
        click.echo(json.dumps({
            "scheme": scheme,
            "one_qubit_count": st.one_qubit_count,
            "two_qubit_count": st.two_qubit_count,
            "depth": st.depth,
            "residual": float(np.max(np.abs(program_to_orthogonal(program) - q))),
            "compile_s": compile_s,
        }))
    else:
        click.echo(f"wrote {out}")


@main.command("partition")
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option("--method", type=click.Choice(["greedy", "analytic"]), default="greedy", show_default=True)
@click.option("--report", "report_path", type=click.Path(), required=True)
def cmd_partition(input_path, method, report_path):
    """Partition an electronic Hamiltonian into anticommuting sets."""
    try:
        ints = io.read_integrals(input_path)
        poly = majorana_form(ints)
        if not len(poly.coeffs):
            raise ValueError("Hamiltonian has no non-constant terms")
        extra = {}
        if method == "greedy":
            part = greedy_partition(poly)
        else:
            template = analytic_partition(ints.n)
            part = partition_from_template(poly, template)
            extra["analytic_quartic_sets"] = sum(any(len(t) == 4 for t in g) for g in template)
        report = io.partition_report(norms_report(poly, part), part,
                                     {**extra, "method": method, "constant": poly.constant})
    except (ValueError, KeyError, OSError) as err:
        _fail("invalid-input", str(err))
    try:
        io.write_json(report_path, report)
    except OSError as err:
        _fail("invalid-argument", str(err))
    click.echo(f"wrote {report_path} ({len(part.sets)} sets)")


@main.command("verify")
@click.option("--modes", type=int, default=3, show_default=True)
@click.option("--seed", type=int, default=7, show_default=True)
def cmd_verify(modes, seed):
    """Run the dense-oracle equivalence battery; exit 0 iff all checks pass."""
    if not 2 <= modes <= 5:
        _fail("invalid-argument", "verify supports 2 <= modes <= 5")
    if seed not in SEEDS:
        _fail("invalid-argument", "seed must be >= 0" if seed < 0 else "seed must be < 2**63")
    from . import oracle

    checks = oracle.battery(modes, seed)
    width = max(len(name) for name, _, _ in checks)
    for name, ok, detail in checks:
        click.echo(f"{name.ljust(width)}  {'PASS' if ok else 'FAIL'}  {detail}")
    if not all(ok for _, ok, _ in checks):
        sys.exit(1)


if __name__ == "__main__":
    main()
