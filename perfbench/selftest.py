"""Show that the output checks accept real outputs and reject corrupted ones.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For each of tomography, partitioning and compilation, the real CLI writes a
small output, every check must pass on it, and then one corruption (a
perturbed estimate, a member moved to another set, a perturbed gate angle)
must make at least one check fail. Exits 0 iff all three cases behave.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

import checks
import inputs


def _failing(results) -> list[str]:
    return [name for name, ok, _ in results if not ok]


def _rewrite(path: str, change) -> None:
    with open(path) as fh:
        obj = json.load(fh)
    change(obj)
    with open(path, "w") as fh:
        json.dump(obj, fh)


def tomography_case(cli, out: str):
    cli(["shadow-sim", "--modes", "6", "--eta", "1", "--samples", "10000",
         "--noise", "bit_flip:0.2", "--kmax", "2", "--seed", "5", "--out", out])
    clean = checks.check_tomography(out, 6, 1, 10000, 2, 0.2)

    def perturb(obj):
        first = next(iter(obj["estimates"].values()))
        first["mean"] += 1e-3

    _rewrite(os.path.join(out, "estimates.json"), perturb)
    return clean, checks.check_tomography(out, 6, 1, 10000, 2, 0.2)


def partition_case(cli, out: str):
    ints_path = os.path.join(out, "ints.json")
    with open(ints_path, "w") as fh:
        json.dump(inputs.integrals_json(*inputs.random_integrals(4, inputs.stream(5, 1))), fh)
    report = os.path.join(out, "report.json")
    cli(["partition", "--input", ints_path, "--method", "greedy", "--report", report])
    clean = checks.check_partition(ints_path, report, "greedy", 5)

    def move(obj):
        # greedy first fit placed set 1's first member after it failed set 0,
        # so in set 0 it commutes with some member
        src, dst = obj["sets"][1], obj["sets"][0]
        dst["members"].append(src["members"].pop(0))
        dst["betas"].append(src["betas"].pop(0))

    _rewrite(report, move)
    return clean, checks.check_partition(ints_path, report, "greedy", 5)


def compile_case(cli, out: str):
    from freeferm import io as ffio
    from freeferm import program_to_orthogonal

    q_path = os.path.join(out, "q.json")
    with open(q_path, "w") as fh:
        json.dump(inputs.orthogonal_json(inputs.haar_orthogonal(32, inputs.stream(5, 2))), fh)
    paths = {s: os.path.join(out, f"program_{s}.json") for s in ("naive", "blocked")}
    for scheme, path in paths.items():
        cli(["compile", "--input", q_path, "--scheme", scheme, "--out", path])

    def run_checks():
        programs, recovered = {}, {}
        for scheme, path in paths.items():
            with open(path) as fh:
                programs[scheme] = json.load(fh)
            recovered[scheme] = program_to_orthogonal(ffio.read_program(path))
        return checks.check_compile(q_path, programs, recovered)

    clean = run_checks()

    def perturb(obj):
        gate = next(g for g in obj["gates"] if g["kind"] != "pauli")
        gate["theta"] += 1e-6

    _rewrite(paths["naive"], perturb)
    return clean, run_checks()


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    from freeferm.cli import main as freeferm_main

    def cli(args):
        with contextlib.redirect_stdout(io.StringIO()):
            freeferm_main(args, standalone_mode=False)

    work = os.path.join(root, ".perfbench_out", "selftest")
    all_ok = True
    try:
        for label, case in (("perturbed estimate", tomography_case),
                            ("moved set member", partition_case),
                            ("perturbed gate angle", compile_case)):
            out = os.path.join(work, case.__name__)
            os.makedirs(out, exist_ok=True)
            clean, dirty = case(cli, out)
            ok = not _failing(clean) and bool(_failing(dirty))
            all_ok &= ok
            print(f"{'PASS' if ok else 'FAIL'}  {label}: clean output fails "
                  f"{_failing(clean) or 'no check'}; corrupted output fails {_failing(dirty)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
