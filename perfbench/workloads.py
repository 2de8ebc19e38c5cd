"""The workloads: the operations of one round and the checks of their outputs.

``Round.run`` is the timed phase; ``Round.check`` and ``Round.circuit_counts``
read the outputs afterwards. CLI calls go through ``freeferm.cli.main`` and
library calls through the ``freeferm.io`` and ``freeferm.circuits`` module
attributes, looked up at call time so that the span recorders in spans.py
see them.
"""
from __future__ import annotations

import json
import os

import checks
import inputs

# shadow-sim parameters; the CLI derives the random state and the snapshots from --seed
TOMOGRAPHY = {
    "tomo-rdm": {"modes": 10, "eta": 1, "samples": 10000, "flip": 0.2, "kmax": 2, "threads": 1},
    "tomo-sample": {"modes": 16, "eta": 4, "samples": 10000, "flip": 0.0, "kmax": 1, "threads": 1},
}
INPUT_KINDS = {"tomo-rdm": (), "tomo-sample": (), "hamiltonian": ("integrals",),
               "compile": ("orthogonal",)}


class Round:
    """Runs one workload's operations and counts the ones that fail."""

    def __init__(self, name: str, inputs_dir: str, out: str, seed: int, recorder=None):
        self.name, self.inputs, self.out, self.seed = name, inputs_dir, out, seed
        self.recorder = recorder
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.kept = {}  # library results the checks need

    def attempt(self, label, fn):
        """Run one operation; a nonzero exit or an exception counts as failed."""
        self.attempted += 1
        try:
            result = fn()
        except SystemExit as exc:  # the CLI's error path exits
            if exc.code in (0, None):
                return None
            self.failed += 1
            self.errors.append(f"{label}: exit {exc.code}")
            return None
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        return result

    def cli(self, args: list[str]):
        import freeferm.cli

        def call():
            if self.recorder is None:
                return freeferm.cli.main(args, standalone_mode=False)
            with self.recorder.cli_call(args[0]):
                return freeferm.cli.main(args, standalone_mode=False)

        return self.attempt(args[0], call)

    # -- workloads -----------------------------------------------------------

    def run(self):
        os.makedirs(self.out, exist_ok=True)
        if self.name in TOMOGRAPHY:
            self._tomography(TOMOGRAPHY[self.name])
        elif self.name == "hamiltonian":
            self._hamiltonian()
        elif self.name == "compile":
            self._compile()
        else:
            raise ValueError(f"unknown workload {self.name!r}")

    def _tomography(self, p):
        noise = f"bit_flip:{p['flip']}" if p["flip"] else "none"
        self.cli(["shadow-sim", "--modes", str(p["modes"]), "--eta", str(p["eta"]),
                  "--samples", str(p["samples"]), "--noise", noise, "--kmax", str(p["kmax"]),
                  "--seed", str(self.seed), "--threads", str(p["threads"]), "--out", self.out])

    def _hamiltonian(self):
        for method in ("greedy", "analytic"):
            self.cli(["partition", "--input", self._input(f"ints_{method}"), "--method", method,
                      "--report", os.path.join(self.out, f"report_{method}.json")])

    def _compile(self):
        import freeferm.circuits
        import freeferm.io

        for n in inputs.COMPILE_SIZES:
            for scheme in ("naive", "blocked"):
                path = os.path.join(self.out, f"program_n{n}_{scheme}.json")
                self.cli(["compile", "--input", self._input(f"q{n}"), "--scheme", scheme,
                          "--out", path])
                program = self.attempt("read_program", lambda: freeferm.io.read_program(path))
                self.kept[(n, scheme)] = self.attempt(
                    "program_to_orthogonal",
                    lambda: freeferm.circuits.program_to_orthogonal(program))

    def _input(self, name: str) -> str:
        return os.path.join(self.inputs, inputs.input_name(name))

    # -- checks and counts, after the timed phase ----------------------------

    def check(self) -> list[tuple[str, bool, str]]:
        if self.name in TOMOGRAPHY:
            p = TOMOGRAPHY[self.name]
            return checks.check_tomography(self.out, p["modes"], p["eta"], p["samples"],
                                           p["kmax"], p["flip"])
        if self.name == "hamiltonian":
            return [r for method in ("greedy", "analytic")
                    for r in checks.check_partition(
                        self._input(f"ints_{method}"),
                        os.path.join(self.out, f"report_{method}.json"), method, self.seed)]
        results = []
        for n in inputs.COMPILE_SIZES:
            programs = {s: self._program(n, s) for s in ("naive", "blocked")}
            recovered = {s: self.kept[(n, s)] for s in programs}
            results += checks.check_compile(self._input(f"q{n}"), programs, recovered)
        return results

    def _program(self, n: int, scheme: str) -> dict:
        with open(os.path.join(self.out, f"program_n{n}_{scheme}.json")) as fh:
            return json.load(fh)

    def circuit_counts(self) -> dict:
        if self.name != "compile":
            return {"circuits.rotations": 0, "circuits.depth": 0}
        programs = [self._program(n, s) for n in inputs.COMPILE_SIZES for s in ("naive", "blocked")]
        return {"circuits.rotations": sum(checks.rotation_count(p) for p in programs),
                "circuits.depth": sum(checks.program_depth(p) for p in programs)}


def run_checks(rnd: Round) -> list[tuple[str, bool, str]]:
    try:
        return rnd.check()
    except Exception as exc:  # outputs missing after a failed operation
        return [("outputs readable", False, f"{type(exc).__name__}: {exc}")]
