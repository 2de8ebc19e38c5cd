"""The benchmark's fixed definition: workloads, metrics and bounds.

``BENCHMARK.json`` at the repository root is generated from this module:

    python3 perfbench/spec.py

Bounds are the share of the parent's median by which a metric may worsen
before a change counts as a regression; README.md gives the measured spread
behind each one.
"""
from __future__ import annotations

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 25

WORKLOADS = [
    ("tomo-rdm", "shadow-sim n=10 k=2 with bit-flip noise: 2-RDM assembly and mitigation "
                 "dominate, so the 2-RDM linear map moves it"),
    ("tomo-sample", "shadow-sim n=16 k=1 noiseless: rotate-and-condition sampling "
                    "is nearly all of it; no 2-RDM work"),
    ("hamiltonian", "greedy partition at n=8 and analytic partition at n=12: pairwise "
                    "anticommutation tests, integral reading and symmetry checks"),
    ("compile", "naive and blocked compilation of Haar Q at n=16, 32, 64 with recomposition: "
                "the only workload in circuits"),
]

# (name, unit, better, bound)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

# (name, unit, better); seconds are summed busy time of the layer's spans
PER_LAYER = [
    ("cli.self_s", "s", "lower"),
    ("cli.snapshots_per_s", "1/s", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("shadows.two_rdm_s", "s", "lower"),
    ("shadows.two_rdm_calls", "count", "lower"),
    ("shadows.mitigate_s", "s", "lower"),
    ("shadows.estimates_s", "s", "lower"),
    ("shadows.sample_bits_s", "s", "lower"),
    ("shadows.ensemble_s", "s", "lower"),
    ("shadows.noise_s", "s", "lower"),
    ("shadows.accumulate_s", "s", "lower"),
    ("shadows.snapshots", "count", "higher"),
    ("shadows.frame_s", "s", "lower"),
    ("shadows.exact_two_rdm_s", "s", "lower"),
    ("gaussian.slater_covariance_s", "s", "lower"),
    ("io.write_estimates_s", "s", "lower"),
    ("io.estimates_bytes", "bytes", "lower"),
    ("io.read_integrals_s", "s", "lower"),
    ("partition.majorana_form_s", "s", "lower"),
    ("partition.greedy_s", "s", "lower"),
    ("partition.analytic_s", "s", "lower"),
    ("partition.from_template_s", "s", "lower"),
    ("partition.norms_report_s", "s", "lower"),
    ("partition.terms", "count", "lower"),
    ("partition.sets", "count", "lower"),
    ("circuits.compile_naive_s", "s", "lower"),
    ("circuits.compile_blocked_s", "s", "lower"),
    ("circuits.program_to_orthogonal_s", "s", "lower"),
    ("circuits.rotations", "count", "lower"),
    ("circuits.depth", "layers", "lower"),
    ("io.read_matrix_s", "s", "lower"),
    ("io.write_program_s", "s", "lower"),
    ("io.read_program_s", "s", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def main() -> int:
    with open("BENCHMARK.json", "w") as fh:
        json.dump(benchmark_json(), fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
