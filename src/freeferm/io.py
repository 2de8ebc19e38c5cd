"""JSON and CSV serialization for matrices, programs, integrals, and samples.

Floats are serialized with Python's shortest round-trip representation, so
every double survives a write/read cycle bit-exactly.
"""
from __future__ import annotations

import csv
import json

import numpy as np

from .circuits import GateProgram, PauliLayer, XXRot, ZRot
from .partition import AnticommutingPartition, ElectronicIntegrals

MATRIX_KINDS = ("covariance", "quadratic_hamiltonian", "orthogonal")


def matrix_to_json(kind: str, matrix: np.ndarray) -> dict:
    if kind not in MATRIX_KINDS:
        raise ValueError(f"unknown matrix kind {kind!r}")
    matrix = np.asarray(matrix, dtype=float)
    dim = matrix.shape[0]
    if matrix.shape != (dim, dim) or dim % 2:
        raise ValueError("matrix must be square with even dimension")
    return {"kind": kind, "n_modes": dim // 2, "data": matrix.reshape(-1).tolist()}


def matrix_from_json(obj: dict, expect_kind: str | None = None) -> tuple[str, np.ndarray]:
    kind = obj.get("kind")
    if expect_kind is not None and kind != expect_kind:
        raise ValueError(f"expected a {expect_kind!r} matrix, found {kind!r}")
    n = int(obj["n_modes"])
    data = np.array(obj["data"], dtype=float)
    if data.size != (2 * n) ** 2:
        raise ValueError("matrix payload has the wrong size")
    return kind, data.reshape(2 * n, 2 * n)


def write_matrix(path, kind: str, matrix) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_json(kind, matrix), fh)
        fh.write("\n")


def read_matrix(path, expect_kind: str | None = None) -> tuple[str, np.ndarray]:
    with open(path) as fh:
        return matrix_from_json(json.load(fh), expect_kind)


def program_to_json(p: GateProgram) -> list:
    out = []
    for gate in p.gates:
        if isinstance(gate, ZRot):
            out.append({"kind": "zrot", "q": gate.qubit, "theta": gate.theta})
        elif isinstance(gate, XXRot):
            out.append({"kind": "xxrot", "q": [gate.qubit, gate.qubit + 1], "theta": gate.theta})
        else:
            out.append({"kind": "pauli", "string": gate.letters})
    return out


def program_from_json(data: list, n_qubits: int) -> GateProgram:
    gates = []
    for item in data:
        kind = item["kind"]
        if kind == "zrot":
            gates.append(ZRot(int(item["q"]), float(item["theta"])))
        elif kind == "xxrot":
            lo, hi = (int(x) for x in item["q"])
            if hi != lo + 1:
                raise ValueError("xxrot must act on adjacent qubits")
            gates.append(XXRot(lo, float(item["theta"])))
        elif kind == "pauli":
            gates.append(PauliLayer(item["string"]))
        else:
            raise ValueError(f"unknown gate kind {kind!r}")
    return GateProgram(n_qubits, tuple(gates))


def write_program(path, p: GateProgram) -> None:
    with open(path, "w") as fh:
        json.dump({"n_qubits": p.n_qubits, "gates": program_to_json(p)}, fh)
        fh.write("\n")


def read_program(path) -> GateProgram:
    with open(path) as fh:
        obj = json.load(fh)
    return program_from_json(obj["gates"], int(obj["n_qubits"]))


def integrals_to_json(ints: ElectronicIntegrals) -> dict:
    h2 = [
        {"pqrs": list(idx), "value": val}
        for idx, val in sorted(ints.h2.items())
    ]
    return {"n": ints.n, "h1": ints.h1.tolist(), "h2": h2}


def integrals_from_json(obj: dict) -> ElectronicIntegrals:
    h2 = {tuple(item["pqrs"]): float(item["value"]) for item in obj["h2"]}
    return ElectronicIntegrals(int(obj["n"]), np.array(obj["h1"], dtype=float), h2)


def write_integrals(path, ints: ElectronicIntegrals) -> None:
    with open(path, "w") as fh:
        json.dump(integrals_to_json(ints), fh)
        fh.write("\n")


def read_integrals(path) -> ElectronicIntegrals:
    with open(path) as fh:
        return integrals_from_json(json.load(fh))


def estimates_to_json(means: dict, count: int, n_modes: int) -> dict:
    body = {
        ",".join(map(str, idx)): {"mean": val, "count": count}
        for idx, val in sorted(means.items())
    }
    return {"n_modes": n_modes, "count": count, "estimates": body}


def estimates_from_json(obj: dict) -> tuple[dict, int, int]:
    means = {}
    for key, item in obj["estimates"].items():
        idx = tuple(int(x) for x in key.split(",") if x != "")
        means[idx] = float(item["mean"])
    return means, int(obj["count"]), int(obj["n_modes"])


def write_estimates(path, means: dict, count: int, n_modes: int) -> None:
    with open(path, "w") as fh:
        json.dump(estimates_to_json(means, count, n_modes), fh)
        fh.write("\n")


def partition_report(poly_report: dict, partition: AnticommutingPartition,
                     extra: dict | None = None) -> dict:
    body = {
        "sets": [
            {
                "members": [list(idx) for idx in s.members],
                "betas": list(map(float, s.betas)),
                "gamma": s.gamma,
            }
            for s in partition.sets
        ],
        "covers": partition.covers,
    }
    body.update(poly_report)
    if extra:
        body.update(extra)
    return body


class SampleWriter:
    """Incremental CSV writer: one row per snapshot."""

    def __init__(self, path):
        self._fh = open(path, "w", newline="")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(["id", "permutation", "signs", "bits"])
        self._next = 0

    def write_raw(self, perm, signs, bits):
        self._writer.writerow(
            [
                self._next,
                " ".join(map(str, perm)),
                " ".join(map(str, signs)),
                "".join(map(str, bits)),
            ]
        )
        self._next += 1

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
