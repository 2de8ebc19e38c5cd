"""Seeded input generators for the benchmark workloads.

Every input is a pure function of the workload seed, so the same seed writes
byte-identical files. The files use the formats the ``freeferm`` CLI reads
(see the project README); they are written with ``json`` directly, so the
program under test only ever receives finished inputs.

    python3 perfbench/inputs.py --seed 7 --out inputs/

writes every workload's inputs for seed 7 into ``inputs/``.
"""
from __future__ import annotations

import argparse
import json
import os

import numpy as np

# sizes of the generated inputs; the workloads in workloads.py refer to them
HAMILTONIAN_SIZES = {"greedy": 8, "analytic": 12}
COMPILE_SIZES = (16, 32, 64)

# index permutations of (p, q, r, s) under which real integrals are invariant
EIGHTFOLD = (
    (0, 1, 2, 3), (3, 1, 2, 0), (0, 2, 1, 3), (3, 2, 1, 0),
    (1, 0, 3, 2), (2, 0, 3, 1), (1, 3, 0, 2), (2, 3, 0, 1),
)


def stream(seed: int, *labels: int) -> np.random.Generator:
    """Independent random stream for one input of one seed."""
    return np.random.default_rng([seed, *labels])


def random_integrals(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Dense real integrals: symmetric h1 and an h2 with the eightfold symmetry."""
    h1 = rng.normal(size=(n, n))
    h1 = 0.5 * (h1 + h1.T)
    raw = rng.normal(size=(n, n, n, n))
    h2 = sum(np.transpose(raw, perm) for perm in EIGHTFOLD) / len(EIGHTFOLD)
    # the average is symmetric only up to rounding; copy one representative
    # into every image so the symmetry holds bit for bit
    for idx in np.ndindex(h2.shape):
        rep = min(tuple(idx[i] for i in perm) for perm in EIGHTFOLD)
        h2[idx] = h2[rep]
    return h1, h2


def integrals_json(h1: np.ndarray, h2: np.ndarray) -> dict:
    n = h1.shape[0]
    items = [
        {"pqrs": list(map(int, idx)), "value": float(h2[idx])}
        for idx in np.ndindex(h2.shape)
    ]
    return {"n": n, "h1": h1.tolist(), "h2": items}


def haar_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random element of O(dim): QR of a Gaussian matrix, signs fixed."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))[None, :]


def orthogonal_json(q: np.ndarray) -> dict:
    return {"kind": "orthogonal", "n_modes": q.shape[0] // 2, "data": q.reshape(-1).tolist()}


def _dump(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)
        fh.write("\n")


def input_name(name: str) -> str:
    """File name of an input: ``ints_greedy``, ``ints_analytic`` or ``q<n>``."""
    if name.startswith("ints_"):
        return f"ints_n{HAMILTONIAN_SIZES[name[5:]]}.json"
    return f"q_n{int(name[1:])}.json"


def write_inputs(seed: int, out: str, kinds=("integrals", "orthogonal")) -> dict[str, str]:
    """Write the inputs of the given kinds for ``seed`` into ``out``; return name -> path."""
    os.makedirs(out, exist_ok=True)
    made = {}
    if "integrals" in kinds:
        for label, (method, n) in enumerate(sorted(HAMILTONIAN_SIZES.items())):
            made[f"ints_{method}"] = integrals_json(*random_integrals(n, stream(seed, 1, label)))
    if "orthogonal" in kinds:
        for n in COMPILE_SIZES:
            made[f"q{n}"] = orthogonal_json(haar_orthogonal(2 * n, stream(seed, 2, n)))
    paths = {}
    for name, obj in made.items():
        paths[name] = os.path.join(out, input_name(name))
        _dump(paths[name], obj)
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the input files")
    args = parser.parse_args(argv)
    for name, path in write_inputs(args.seed, args.out).items():
        print(f"{name}: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
