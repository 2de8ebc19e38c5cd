"""Benchmark entry point: one workload, measured for a fixed time.

Run from the root of a checkout (the program is imported from ``src/``):

    python3 perfbench/run.py --workload tomo-rdm --seed 1 --seconds 20 --trace 0

The inputs are written from ``--seed`` before timing starts. The run then
repeats whole rounds of the workload, each in a fresh worker process
(worker.py), until ``--seconds`` have passed, and reports medians over the
rounds. ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
traced and untraced rounds and reports the per-layer metrics. Every round's
outputs are checked (checks.py). The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the full record,
with the run metadata, is written to .perfbench_out/results/.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
ROUND_TIMEOUT_S = 120  # one round; a run also stops starting rounds after LAST_START_S
LAST_START_S = 110
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def worker_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "FREEFERM_THREADS")}
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_round(root, workload, seed, inputs_dir, out, traced) -> dict | None:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--inputs", inputs_dir, "--out", out]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=root, env=worker_env(root), capture_output=True,
                              text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"round timed out after {ROUND_TIMEOUT_S} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(out, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"round exited {proc.returncode}: {proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def metadata_record(root: str, args, rounds: list[dict]) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "freeferm")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "git_sha": _git_sha(root),
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "click": metadata.version("click"),
        "blas": blas_version,
        "blas_threads": BLAS_ENV,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
    }


def _git_sha(root: str) -> str | None:
    """HEAD of a git checkout, read from .git without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def summarize(rounds: list[dict], traced_flags: list[bool], trace: bool) -> dict:
    plain = [r for r, t in zip(rounds, traced_flags) if not t]
    if not trace:
        return {name: {"value": statistics.median(r[name] for r in plain),
                       "unit": spec.UNITS[name]}
                for name, *_ in spec.END_TO_END}
    traced = [r for r, t in zip(rounds, traced_flags) if t]
    metrics = {}
    for name, unit, _ in spec.PER_LAYER:
        if name == "trace.overhead_s":
            value = (statistics.median(r["wall_s"] for r in traced)
                     - statistics.median(r["wall_s"] for r in plain))
        else:
            value = statistics.median(r["layers"][name] for r in traced)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w for w, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "freeferm", "cli.py")):
        print("error: run from the root of a freeferm checkout (src/freeferm/cli.py not found)",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2

    import inputs
    import workloads

    work = os.path.join(root, OUT_DIR, "work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    inputs_dir = os.path.join(work, "inputs")
    try:
        inputs.write_inputs(args.seed, inputs_dir, workloads.INPUT_KINDS[args.workload])
        compileall.compile_dir(os.path.join(root, "src"), quiet=1)
        # warm the file cache and the bytecode before the first timed round
        subprocess.run([sys.executable, "-c", "import freeferm.cli"], cwd=root,
                       env=worker_env(root), check=True, timeout=ROUND_TIMEOUT_S)

        rounds, traced_flags = [], []
        started = time.monotonic()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 0
            out = os.path.join(work, f"round-{len(rounds)}")
            record = run_round(root, args.workload, args.seed, inputs_dir, out, traced)
            if record is None:
                print("error: a round did not finish; no result", file=sys.stderr)
                return 1
            rounds.append(record)
            traced_flags.append(traced)
            elapsed = time.monotonic() - started
            enough = elapsed >= args.seconds and (not args.trace or len(rounds) >= 2)
            if enough or elapsed >= LAST_START_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_checks = sorted({name for r in rounds for name, ok, _ in r["checks"] if not ok})
    n_checks = len(rounds[0]["checks"])
    result = {
        "correct": not failed_checks,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": summarize(rounds, traced_flags, bool(args.trace)),
    }
    record = {
        "metadata": metadata_record(root, args, rounds),
        "result": result,
        "failed_checks": failed_checks,
        "checks": rounds[0]["checks"],
        "absent_layers": rounds[0].get("absent", []),
        "rounds": rounds,
    }
    results_dir = os.path.join(root, OUT_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    errors = sorted({e for r in rounds for e in r["errors"]})
    for line in errors + [f"check failed: {name}" for name in failed_checks]:
        print(line)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{n_checks - len(failed_checks)}/{n_checks} checks passed; record in {path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
