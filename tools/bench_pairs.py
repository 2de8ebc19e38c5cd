"""Run the benchmark as alternating parent/change pairs and write ``BENCH_<label>_pairs.json``.

Run from anywhere:

    python3 tools/bench_pairs.py --label LABEL --parent DIR --change DIR [--out PATH]

``--parent`` and ``--change`` are two checkouts, for example two ``git archive``
copies. For seeds 1 to 10 this measures each checkout once with
``tools/bench_record.py``'s ``measure``, the parent first at odd seeds and the
change first at even ones, so that a drift of the host's load falls on both
sides. The seed-1 records go to ``BENCH_<label>_parent.json`` and
``BENCH_<label>.json`` beside ``--out``.

For each figure below the pairs file holds the values of each side in seed
order, their medians, the number of seeds at which the change is better
(``change_wins``; a tie counts for neither side) and the parent's first and
third quartiles (``statistics.quantiles``, exclusive method):

* every end-to-end metric of every workload (``<workload>.<metric>``), with
  the direction ``BENCHMARK.json`` gives it, and each workload's failed
  operations and failed checks (``<workload>.failed``, ``.failed_checks``);
* the Tier-1 wall time (``tier1.wall_s``);
* ``shadow-sim`` snapshots per second (``shadow_sim.<n>.snapshots_per_s``);
* every ``compile_layers``, ``partition_layers`` and ``tomography_layers``
  median (``compile_layers.<n>.<layer>``, in ms), and the tracemalloc peaks of
  ``compile_layers`` and ``tomography_layers``
  (``compile_layers.<n>.compile_naive_peak_mib``,
  ``tomography_layers.<n>.sample_bits_peak_mib``).

A gain is claimed only when ``change_wins`` is at least nine of ten and the
medians differ by more than the parent's interquartile distance; this tool
reports those figures and decides nothing.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_record  # noqa: E402

PAIRS = 10


def figures(record: dict, better: dict) -> dict:
    """{name: (value, better)} of one run record; ``better`` maps end-to-end names."""
    out = {}
    for workload, entry in record["workloads"].items():
        for name, metric in entry["metrics"].items():
            out[f"{workload}.{name}"] = (metric["value"], better[name])
        out[f"{workload}.failed"] = (entry["failed"], "lower")
        out[f"{workload}.failed_checks"] = (len(entry["failed_checks"]), "lower")
    out["tier1.wall_s"] = (record["tier1"]["wall_s"], "lower")
    for n, entry in record["shadow_sim"].items():
        out[f"shadow_sim.{n}.snapshots_per_s"] = (entry["snapshots_per_s"], "higher")
    for group in ("compile_layers", "partition_layers", "tomography_layers"):
        for n, layers in record[group]["median_ms"].items():
            for layer, ms in layers.items():
                out[f"{group}.{n}.{layer}"] = (ms, "lower")
    for group in ("compile_layers", "tomography_layers"):
        for n, peaks in record[group]["peak_mib"].items():
            for layer, mib in peaks.items():
                out[f"{group}.{n}.{layer}_peak_mib"] = (mib, "lower")
    return out


def summarize(parent: list, change: list, better: str) -> dict:
    wins = sum(c < p if better == "lower" else c > p for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    return {"better": better, "parent": parent, "change": change,
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "change_wins": wins, "pairs": len(parent), "parent_quartiles": [q1, q3]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names BENCH_<label>_pairs.json")
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--out", default=None,
                        help="output path (default: CHANGE/BENCH_<label>_pairs.json)")
    args = parser.parse_args(argv)

    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    out = args.out or os.path.join(roots["change"], f"BENCH_{args.label}_pairs.json")
    runs = {"parent": [], "change": []}
    for seed in range(1, PAIRS + 1):
        for side in ("parent", "change") if seed % 2 else ("change", "parent"):
            print(f"seed {seed}: {side}", flush=True)
            label = args.label if side == "change" else f"{args.label}_parent"
            record = bench_record.measure(roots[side], label, seed)
            if seed == 1:
                bench_record.write_record(
                    os.path.join(os.path.dirname(out), f"BENCH_{label}.json"), record)
            runs[side].append(figures(record, better))
    names = [name for name in runs["parent"][0] if all(name in r for r in runs["change"])]
    result = {"label": args.label, "pairs": PAIRS,
              "src_lines": {side: bench_record.src_lines(root) for side, root in roots.items()},
              "figures": {name: summarize([r[name][0] for r in runs["parent"]],
                                          [r[name][0] for r in runs["change"]],
                                          runs["parent"][0][name][1]) for name in names}}
    bench_record.write_record(out, result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
