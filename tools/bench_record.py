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
``run_seconds`` comes from that checkout's ``BENCHMARK.json``, so two
checkouts are always measured for the same time. The result goes to
``--out``, by default ``BENCH_<label>.json`` at the root of that checkout.
Workloads run one after another, one process at a time, as perfbench
requires.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys


def src_dirty(root: str) -> bool:
    proc = subprocess.run(["git", "-C", root, "status", "--porcelain", "--", "src"],
                          capture_output=True, text=True, check=True)
    return bool(proc.stdout.strip())


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--root", default=".", help="checkout to measure (default: .)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=None, help="output path (default: ROOT/BENCH_<label>.json)")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    record = {"label": args.label, "seed": args.seed, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        entry = record_workload(root, workload, args.seed, seconds)
        record["workloads"][workload] = entry
        figures = ", ".join(f"{name} {m['value']:.4g} {m['unit']}"
                            for name, m in entry["metrics"].items())
        print(f"{workload}: {figures} ({entry['metadata']['rounds']} rounds)", flush=True)
    out = args.out or os.path.join(root, f"BENCH_{args.label}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
