"""Write a checkout's fixed-seed outputs into one directory, for a byte-identity diff.

Run from anywhere:

    python3 tools/golden_outputs.py --root CHECKOUT --out DIR

Each command runs in a fresh process on ``CHECKOUT/src`` (``python -m
freeferm.cli``), and the settings and inputs come from ``CHECKOUT/perfbench``.
``DIR`` receives:

* ``shadow-sim/<setting>-seed<s>/``: ``estimates.json``, ``error_curve.csv`` and
  ``samples.csv`` of ``shadow-sim --save-samples`` for seeds 1-3, at the
  ``tomo-rdm`` and ``tomo-sample`` settings of ``perfbench/workloads.py`` and at
  the ``ancilla`` setting ``--modes 8 --eta 4 --noise depolarizing:0.1
  --threads 2``, whose state gets an extra empty mode;
* ``compile/seed<s>/``: the naive and blocked program of each orthogonal input
  that ``perfbench/inputs.py`` writes for seeds 1-3 (18 programs);
* ``partition/seed<s>/``: the greedy and analytic report on its integrals for
  seeds 1-3 (6 reports);
* ``verify/modes<m>.txt``: the lines of ``verify --modes m``, m = 2-5.

Any command that exits nonzero stops the run. Two checkouts are compared with

    diff -r DIR_A DIR_B
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

SEEDS = (1, 2, 3)
ANCILLA = {"modes": 8, "eta": 4, "samples": 10000, "noise": "depolarizing:0.1", "kmax": 2,
           "threads": 2}


def cli(root: str, args: list[str]) -> str:
    """Run ``freeferm.cli`` with ``args`` in a fresh process on ``root``'s src; its stdout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-m", "freeferm.cli", *args], cwd=root, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def shadow_settings(tomography: dict) -> dict:
    """Setting name -> shadow-sim options: the tomography workloads, then the ancilla run."""
    settings = {name: {"modes": p["modes"], "eta": p["eta"], "samples": p["samples"],
                       "noise": f"bit_flip:{p['flip']}" if p["flip"] else "none",
                       "kmax": p["kmax"], "threads": p["threads"]}
                for name, p in tomography.items()}
    return {**settings, "ancilla": ANCILLA}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout whose outputs are written")
    parser.add_argument("--out", required=True, help="directory for the outputs")
    args = parser.parse_args(argv)
    root, out = os.path.abspath(args.root), os.path.abspath(args.out)

    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout's perfbench
    sys.path.insert(0, os.path.join(root, "perfbench"))
    import inputs
    import workloads

    for name, p in shadow_settings(workloads.TOMOGRAPHY).items():
        for seed in SEEDS:
            cli(root, ["shadow-sim", *(f"--{k}={v}" for k, v in p.items()), f"--seed={seed}",
                       "--save-samples", "--out", os.path.join(out, "shadow-sim",
                                                              f"{name}-seed{seed}")])

    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            paths = inputs.write_inputs(seed, os.path.join(tmp, f"seed{seed}"))
            compiled = os.path.join(out, "compile", f"seed{seed}")
            reports = os.path.join(out, "partition", f"seed{seed}")
            os.makedirs(compiled, exist_ok=True)
            os.makedirs(reports, exist_ok=True)
            for n in inputs.COMPILE_SIZES:
                for scheme in ("naive", "blocked"):
                    cli(root, ["compile", "--input", paths[f"q{n}"], "--scheme", scheme,
                               "--out", os.path.join(compiled, f"program_n{n}_{scheme}.json")])
            for method in inputs.HAMILTONIAN_SIZES:
                cli(root, ["partition", "--input", paths[f"ints_{method}"], "--method", method,
                           "--report", os.path.join(reports, f"report_{method}.json")])

    os.makedirs(os.path.join(out, "verify"), exist_ok=True)
    for modes in (2, 3, 4, 5):
        with open(os.path.join(out, "verify", f"modes{modes}.txt"), "w") as fh:
            fh.write(cli(root, ["verify", "--modes", str(modes)]))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
