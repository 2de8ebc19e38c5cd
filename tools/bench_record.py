"""Record the benchmark's end-to-end medians in ``BENCH_<label>.json``.

Run from the root of a checkout:

    python3 tools/bench_record.py --label baseline [--seed 1] [--root DIR] [--out PATH]

For each workload of ``BENCHMARK.json`` this runs

    python3 perfbench/run.py --workload <w> --seed <seed> --seconds <run_seconds> --trace 0

in the checkout named by ``--root`` (default: the current directory), reads
the run record ``.perfbench_out/results/<w>-seed<seed>-trace0.json`` and keeps
its end-to-end medians, its operation and check counts and its metadata (git
sha, source hash, CPU, library versions, rounds). ``src_dirty`` records
whether ``git status --porcelain -- src`` listed anything when the workload
ran, so a run of uncommitted source is not taken for its ``git_sha``.
``src_lines`` is the summed line count of the checkout's ``src/freeferm/*.py``.
``run_seconds`` comes from that checkout's ``BENCHMARK.json``, so two
checkouts are always measured for the same time. The result goes to
``--out``, by default ``BENCH_<label>.json`` at the root of that checkout.
Workloads run one after another, one process at a time, as perfbench
requires.

After the workloads it records two end-to-end figures of the checkout:

* ``tier1``: the wall time of one run of its Tier-1 suite (``python -m
  pytest -q --continue-on-collection-errors``), its exit code, the counts
  of its summary line (``passed``, ``failed``, ...) and ``durations``, the
  seconds of each test that took at least a second (pytest's ``--durations``
  report, setup, call and teardown summed per test id);
* ``shadow_sim``: snapshots per second of ``freeferm shadow-sim`` at
  n = 8, 16 and 24 (eta = n / 4, kmax 1, no noise, 10,000 snapshots, one
  thread), from the median of three runs. Each run times the command inside
  a fresh process, so interpreter start and imports (the workloads'
  ``setup_s``) are left out;
* ``compile_layers``: the median milliseconds of ``compile_naive``,
  ``compile_blocked``, and of ``write_program``, ``read_program`` and
  ``program_to_orthogonal`` on each scheme's program, over nine calls at
  n = 8, 16, 32 and 64, and (``peak_mib``) the tracemalloc peak of one
  ``compile_naive`` and one ``compile_blocked`` call in MiB. One fresh process
  on the checkout's ``src`` times them all, on one Haar-random Q per n drawn as
  ``perfbench/inputs.py`` draws the compile workload's inputs for ``--seed``.
  It calls only public names, so any checkout with the same API can be
  measured;
* ``partition_layers``: the median milliseconds of ``io.read_integrals``,
  ``majorana_form``, ``greedy_partition``, ``analytic_partition`` followed by
  ``partition_from_template``, and ``norms_report`` (on the analytic
  partition), over nine calls at n = 4, 6, 8, 10 and 12. One fresh process on
  the checkout's ``src`` times them on one integrals file per n, drawn by
  ``perfbench/inputs.py``'s ``random_integrals`` from ``stream(seed, 1, n)``
  and written by its ``integrals_json``, the way the hamiltonian workload's
  inputs are made. It also calls only public names;
* ``tomography_layers``: the median milliseconds per 1000 snapshots of
  ``sample_snapshots``, ``sample_bits`` and ``ShadowAccumulator.add_batch``
  (k_max 1), over nine calls at n = 8, 16 and 24 on a random Slater state with
  eta = n / 4, as ``shadow_sim`` runs, and (``peak_mib``) the tracemalloc peak
  of one ``sample_bits`` call in MiB. One fresh process on the checkout's
  ``src`` times them, through public names only.

Each layer timer prints one JSON object, which is recorded as it is beside
``runs``.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import re
import subprocess
import sys
import tempfile
import time

SHADOW_SIM_MODES = (8, 16, 24)
SHADOW_SIM_SAMPLES = 10_000
SHADOW_SIM_RUNS = 3  # the recorded rate is the median run's
# runs one shadow-sim command in-process and prints its wall time in seconds
SHADOW_SIM_TIMER = """import sys, time
from freeferm.cli import main
start = time.perf_counter()
main(sys.argv[1:], standalone_mode=False)
print(time.perf_counter() - start)
"""


COMPILE_LAYER_MODES = (8, 16, 32, 64)
COMPILE_LAYER_RUNS = 9
# prints {"median_ms": {n: {layer: median ms}}, "peak_mib": {n: {compiler: MiB}}} as JSON;
# argv: seed, runs, modes...
COMPILE_LAYER_TIMER = """import json, os, statistics, sys, tempfile, time, tracemalloc
sys.path.insert(0, "perfbench")
import inputs
from freeferm import compile_blocked, compile_naive, program_to_orthogonal
from freeferm.io import read_program, write_program
seed, runs, modes = int(sys.argv[1]), int(sys.argv[2]), [int(n) for n in sys.argv[3:]]

def median_ms(call):
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        call()
        times.append(1e3 * (time.perf_counter() - start))
    return statistics.median(times)

result, peak = {}, {}
with tempfile.TemporaryDirectory() as out:
    for n in modes:
        q = inputs.haar_orthogonal(2 * n, inputs.stream(seed, 2, n))
        layers, peaks = result[str(n)], peak[str(n)] = {}, {}
        for name, compiler in (("naive", compile_naive), ("blocked", compile_blocked)):
            layers["compile_" + name] = median_ms(lambda: compiler(q))
            tracemalloc.start()
            compiler(q)
            peaks["compile_" + name] = tracemalloc.get_traced_memory()[1] / 2 ** 20
            tracemalloc.stop()
            program, path = compiler(q), os.path.join(out, name + ".json")
            layers["write_program_" + name] = median_ms(lambda: write_program(path, program))
            layers["read_program_" + name] = median_ms(lambda: read_program(path))
            layers["program_to_orthogonal_" + name] = median_ms(
                lambda: program_to_orthogonal(program))
print(json.dumps({"median_ms": result, "peak_mib": peak}))
"""


PARTITION_LAYER_MODES = (4, 6, 8, 10, 12)
PARTITION_LAYER_RUNS = 9
# prints {"median_ms": {n: {layer: median ms}}} as JSON; argv: seed, runs, modes...
PARTITION_LAYER_TIMER = """import json, os, statistics, sys, tempfile, time
sys.path.insert(0, "perfbench")
import inputs
from freeferm import (analytic_partition, greedy_partition, majorana_form, norms_report,
                      partition_from_template)
from freeferm.io import read_integrals
seed, runs, modes = int(sys.argv[1]), int(sys.argv[2]), [int(n) for n in sys.argv[3:]]

def median_ms(call):
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        call()
        times.append(1e3 * (time.perf_counter() - start))
    return statistics.median(times)

result = {}
with tempfile.TemporaryDirectory() as out:
    for n in modes:
        path = os.path.join(out, f"ints_n{n}.json")
        with open(path, "w") as fh:
            json.dump(inputs.integrals_json(*inputs.random_integrals(n, inputs.stream(seed, 1, n))),
                      fh)
        ints = read_integrals(path)
        poly = majorana_form(ints)
        part = partition_from_template(poly, analytic_partition(n))
        result[str(n)] = {
            "read_integrals": median_ms(lambda: read_integrals(path)),
            "majorana_form": median_ms(lambda: majorana_form(ints)),
            "greedy_partition": median_ms(lambda: greedy_partition(poly)),
            "analytic_partition": median_ms(
                lambda: partition_from_template(poly, analytic_partition(n))),
            "norms_report": median_ms(lambda: norms_report(poly, part)),
        }
print(json.dumps({"median_ms": result}))
"""


TOMOGRAPHY_LAYER_MODES = (8, 16, 24)
TOMOGRAPHY_LAYER_RUNS = 9
# prints {"snapshots": 1000, "median_ms": {n: {layer: median ms}},
# "peak_mib": {n: {"sample_bits": MiB}}} as JSON; argv: seed, runs, modes...
TOMOGRAPHY_LAYER_TIMER = """import json, statistics, sys, time, tracemalloc
import numpy as np
from freeferm import (ShadowAccumulator, SlaterDeterminant, sample_bits, sample_snapshots,
                      slater_covariance)
seed, runs, modes = int(sys.argv[1]), int(sys.argv[2]), [int(n) for n in sys.argv[3:]]
size = 1000

def median_ms(call):
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        call()
        times.append(1e3 * (time.perf_counter() - start))
    return statistics.median(times)

result, peak = {}, {}
for n in modes:
    rng = np.random.default_rng([seed, n])
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    cov = slater_covariance(SlaterDeterminant(np.linalg.qr(x)[0][:, :n // 4]))
    perms, signs, bits = sample_snapshots(cov, size, rng)
    acc = ShadowAccumulator(n, 1)
    result[str(n)] = {
        "sample_snapshots": median_ms(lambda: sample_snapshots(cov, size, rng)),
        "sample_bits": median_ms(lambda: sample_bits(cov.matrix, perms, signs, rng)),
        "add_batch": median_ms(lambda: acc.add_batch(perms, signs, bits)),
    }
    tracemalloc.start()
    sample_bits(cov.matrix, perms, signs, rng)
    peak[str(n)] = {"sample_bits": tracemalloc.get_traced_memory()[1] / 2 ** 20}
    tracemalloc.stop()
print(json.dumps({"snapshots": size, "median_ms": result, "peak_mib": peak}))
"""


def src_dirty(root: str) -> bool:
    proc = subprocess.run(["git", "-C", root, "status", "--porcelain", "--", "src"],
                          capture_output=True, text=True, check=True)
    return bool(proc.stdout.strip())


def src_lines(root: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(root, "src", "freeferm", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def record_workload(root: str, workload: str, seed: int, seconds: float) -> dict:
    dirty = src_dirty(root)
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    path = os.path.join(root, ".perfbench_out", "results", f"{workload}-seed{seed}-trace0.json")
    with open(path) as fh:
        run = json.load(fh)
    result = run["result"]
    return {
        "metrics": result["metrics"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failed_checks": run["failed_checks"],
        "metadata": run["metadata"],
        "src_dirty": dirty,
    }


def tier1(root: str) -> dict:
    start = time.perf_counter()
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-p", "no:cacheprovider", "--durations=0", "--durations-min=1.0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    wall = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {word: int(number) for number, word in re.findall(r"(\d+) (\w+)", summary)}
    if not counts:
        raise RuntimeError(f"pytest exited {proc.returncode} without a summary: "
                           f"{proc.stderr.strip()}")
    durations = {}
    for seconds, test in re.findall(r"^([\d.]+)s (?:setup|call|teardown) +(\S+)$", proc.stdout,
                                    re.MULTILINE):
        durations[test] = durations.get(test, 0.0) + float(seconds)
    return {"wall_s": wall, "exit_code": proc.returncode, **counts, "durations": durations}


def shadow_sim_rate(root: str, n: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    seconds = []
    for _ in range(SHADOW_SIM_RUNS):
        with tempfile.TemporaryDirectory() as out:
            cmd = [sys.executable, "-c", SHADOW_SIM_TIMER, "shadow-sim", "--modes", str(n),
                   "--eta", str(n // 4), "--samples", str(SHADOW_SIM_SAMPLES), "--kmax", "1",
                   "--seed", "1", "--threads", "1", "--out", out]
            proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"shadow-sim at n = {n} exited {proc.returncode}: "
                               f"{proc.stderr.strip()}")
        seconds.append(float(proc.stdout.strip().splitlines()[-1]))
    median = sorted(seconds)[SHADOW_SIM_RUNS // 2]
    return {"samples": SHADOW_SIM_SAMPLES, "seconds": seconds,
            "snapshots_per_s": SHADOW_SIM_SAMPLES / median}


def layer_timings(root: str, seed: int, timer: str, runs: int, modes: tuple) -> dict:
    """Run a layer timer in a fresh process on ``root``'s ``src``; {runs, ...its JSON}."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cmd = [sys.executable, "-c", timer, str(seed), str(runs), *map(str, modes)]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"layer timing exited {proc.returncode}: {proc.stderr.strip()}")
    return {"runs": runs, **json.loads(proc.stdout)}


def measure(root: str, label: str, seed: int) -> dict:
    """Measure the checkout at ``root`` once with ``seed``; the BENCH_<label>.json record."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    record = {"label": label, "seed": seed, "seconds": seconds,
              "src_lines": src_lines(root), "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        entry = record_workload(root, workload, seed, seconds)
        record["workloads"][workload] = entry
        figures = ", ".join(f"{name} {m['value']:.4g} {m['unit']}"
                            for name, m in entry["metrics"].items())
        print(f"{workload}: {figures} ({entry['metadata']['rounds']} rounds)", flush=True)
    record["shadow_sim"] = {str(n): shadow_sim_rate(root, n) for n in SHADOW_SIM_MODES}
    print("shadow-sim snapshots/s: " + ", ".join(
        f"n = {n} {entry['snapshots_per_s']:.0f}" for n, entry in record["shadow_sim"].items()))
    for name, timer, runs, modes in (
            ("compile", COMPILE_LAYER_TIMER, COMPILE_LAYER_RUNS, COMPILE_LAYER_MODES),
            ("partition", PARTITION_LAYER_TIMER, PARTITION_LAYER_RUNS, PARTITION_LAYER_MODES),
            ("tomography", TOMOGRAPHY_LAYER_TIMER, TOMOGRAPHY_LAYER_RUNS,
             TOMOGRAPHY_LAYER_MODES)):
        record[f"{name}_layers"] = layer_timings(root, seed, timer, runs, modes)
        largest = record[f"{name}_layers"]["median_ms"][str(modes[-1])]
        print(f"{name} layers at n = {modes[-1]}, median ms: " + ", ".join(
            f"{layer} {ms:.2f}" for layer, ms in largest.items()), flush=True)
    record["tier1"] = tier1(root)
    print(f"tier-1: {record['tier1']}", flush=True)
    return record


def write_record(path: str, record: dict):
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--root", default=".", help="checkout to measure (default: .)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=None, help="output path (default: ROOT/BENCH_<label>.json)")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root)
    write_record(args.out or os.path.join(root, f"BENCH_{args.label}.json"),
                 measure(root, args.label, args.seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
