"""Reference figures that are not workloads: per-stage tomography times and machine noise.

Run from the root of a checkout:

    python3 perfbench/stages.py --modes 8 16 24 --samples 2000
    python3 perfbench/stages.py --modes 24 --samples 5000 --kmax 1 --noise none --threads 1 2
    python3 perfbench/stages.py --noise-probe 12

The first form runs ``shadow-sim`` once per mode count with the span
recorders of spans.py and prints one row per stage: sampling, noise and
accumulation per 1000 snapshots, ``two_rdm`` per call, and the first frame
build. The second compares thread counts by end-to-end time. The third times
a fixed pure-Python loop repeatedly, which shows how steady the machine is.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import os
import statistics
import sys
import tempfile
import time

import spans

PER_1K = ("shadows.ensemble_s", "shadows.sample_bits_s", "shadows.noise_s",
          "shadows.accumulate_s")
PER_CALL = ("shadows.two_rdm_s", "shadows.mitigate_s", "shadows.estimates_s")
ONCE = ("shadows.frame_s", "shadows.exact_two_rdm_s", "io.write_estimates_s")


def run_stages(modes: int, samples: int, kmax: int, noise: str, threads: int) -> dict:
    from freeferm.cli import main

    os.makedirs(".perfbench_out", exist_ok=True)
    eta = max(1, modes // 4)
    recorder = spans.Recorder()
    recorder.install()
    try:
        with tempfile.TemporaryDirectory(dir=".perfbench_out") as out, \
                contextlib.redirect_stdout(io.StringIO()):
            with recorder.cli_call("shadow-sim"):
                main(["shadow-sim", "--modes", str(modes), "--eta", str(eta),
                      "--samples", str(samples), "--noise", noise, "--kmax", str(kmax),
                      "--seed", "1", "--threads", str(threads), "--out", out],
                     standalone_mode=False)
    finally:
        recorder.uninstall()
    summary = recorder.summary()
    row = {"wall_s": summary["cli.calls_s"], "cli.self_s": summary["cli.self_s"]}
    row.update({k: summary[k] * 1000 / samples for k in PER_1K})
    calls = max(summary["shadows.two_rdm_calls"], 1)
    row.update({k: summary[k] / calls for k in PER_CALL})
    row.update({k: summary[k] for k in ONCE})
    return row


def noise_probe(repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(3_000_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--modes", type=int, nargs="*", default=[])
    parser.add_argument("--samples", type=int, default=2000)
    parser.add_argument("--kmax", type=int, default=2)
    parser.add_argument("--noise", default="bit_flip:0.2")
    parser.add_argument("--threads", type=int, nargs="+", default=[1])
    parser.add_argument("--noise-probe", type=int, default=0, metavar="REPEATS")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))

    if args.noise_probe:
        times = noise_probe(args.noise_probe)
        print(f"fixed loop, {len(times)} runs: min {min(times):.3f} s, "
              f"median {statistics.median(times):.3f} s, max {max(times):.3f} s")
    for threads in args.threads:
        for modes in args.modes:
            row = run_stages(modes, args.samples, args.kmax, args.noise, threads)
            print(f"n={modes} T={args.samples} k={args.kmax} threads={threads}")
            for name, value in row.items():
                unit = ("ms per 1k snapshots" if name in PER_1K
                        else "s per call" if name in PER_CALL else "s")
                scale = 1000 if name in PER_1K else 1
                print(f"  {name:32s} {value * scale:10.4f} {unit}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
