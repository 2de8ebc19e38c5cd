"""One round of one workload, in a fresh process.

Run from the root of a checkout; the package is imported from ``src/``:

    python3 perfbench/worker.py --workload compile --seed 1 \\
        --inputs .perfbench_out/work/inputs --out .perfbench_out/work/round-0 [--trace]

The round times the import of ``freeferm.cli`` (set-up), then the workload's
CLI calls, driven in-process through ``main(args, standalone_mode=False)``,
and its library calls (wall time). Peak resident memory is read when the
timed phase ends, before the outputs are checked. The last line of standard
output is one JSON object with the timings, the operation counts, the check
results and, with ``--trace``, the per-layer figures.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

# nothing above main may import numpy: the timed import of freeferm.cli loads it


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import freeferm.cli
    setup_s = time.perf_counter() - start
    if not os.path.abspath(freeferm.cli.__file__).startswith(src + os.sep):
        print(f"freeferm imported from {freeferm.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    recorder = None
    if args.trace:
        import spans
        recorder = spans.Recorder()
        recorder.install()
    rnd = workloads.Round(args.workload, args.inputs, args.out, args.seed, recorder)
    with contextlib.redirect_stdout(io.StringIO()):
        start, cpu_start = time.perf_counter(), time.process_time()
        rnd.run()
        wall_s = time.perf_counter() - start
        cpu_s = time.process_time() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder is not None:
        recorder.uninstall()

    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": rnd.attempted,
        "failed": rnd.failed,
        "errors": rnd.errors,
        "checks": [[name, bool(ok), detail] for name, ok, detail in workloads.run_checks(rnd)],
    }
    if recorder is not None:
        layers = recorder.summary()
        layers.update(rnd.circuit_counts())
        sims = [end - start for name, start, end in recorder.cli_spans if name == "shadow-sim"]
        samples = workloads.TOMOGRAPHY.get(args.workload, {}).get("samples", 0)
        layers["cli.snapshots_per_s"] = samples * len(sims) / sum(sims) if sims else 0.0
        record["layers"] = layers
        record["absent"] = recorder.absent
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
