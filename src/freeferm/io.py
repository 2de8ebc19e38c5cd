"""JSON and CSV serialization for matrices, programs, integrals, and samples.

Floats are serialized with Python's shortest round-trip representation, so
every double survives a write/read cycle bit-exactly.
"""
from __future__ import annotations

import json

import numpy as np

from .circuits import GateProgram, PauliLayer, XXRot, ZRot
from .partition import AnticommutingPartition, ElectronicIntegrals
from .shadows import _colex_sets

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
    try:
        kind = obj.get("kind")
        if expect_kind is not None and kind != expect_kind:
            raise ValueError(f"expected a {expect_kind!r} matrix, found {kind!r}")
        n = int(obj["n_modes"])
        data = np.array(obj["data"], dtype=float)
    except (AttributeError, TypeError) as err:
        raise ValueError(f"malformed matrix file: {err}") from err
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


def _gate_to_json(gate) -> dict:
    if isinstance(gate, ZRot):
        return {"kind": "zrot", "q": gate.qubit, "theta": gate.theta}
    if isinstance(gate, XXRot):
        return {"kind": "xxrot", "q": [gate.qubit, gate.qubit + 1], "theta": gate.theta}
    return {"kind": "pauli", "string": gate.letters}


def program_to_json(p: GateProgram) -> list:
    return [_gate_to_json(gate) for gate in p.gates]


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


# gates per json.dumps call: the C encoder's speed without a whole-file string
_PROGRAM_CHUNK = 256


def write_program(path, p: GateProgram) -> None:
    """Write the bytes ``json.dump`` would, encoding the gate list in chunks."""
    with open(path, "w") as fh:
        fh.write(f'{{"n_qubits": {p.n_qubits:d}, "gates": [')
        for start in range(0, len(p.gates), _PROGRAM_CHUNK):
            chunk = [_gate_to_json(g) for g in p.gates[start:start + _PROGRAM_CHUNK]]
            fh.write((", " if start else "") + json.dumps(chunk)[1:-1])
        fh.write("]}\n")


def read_program(path) -> GateProgram:
    with open(path) as fh:
        obj = json.load(fh)
    return program_from_json(obj["gates"], int(obj["n_qubits"]))


def integrals_to_json(ints: ElectronicIntegrals) -> dict:
    """The file form of the integrals: ``h2`` lists its nonzero entries in ascending order."""
    at = np.argwhere(ints.h2)
    h2 = [{"pqrs": idx, "value": val}
          for idx, val in zip(at.tolist(), ints.h2[tuple(at.T)].tolist())]
    return {"n": ints.n, "h1": ints.h1.tolist(), "h2": h2}


def _integrals_args(obj: dict) -> tuple[int, np.ndarray, np.ndarray]:
    """n, h1 and the (n, n, n, n) h2 tensor of an integrals file.

    An ``h2`` index that is not four whole numbers in [0, n), or that occurs twice,
    raises ``ValueError`` naming the first such item in file order.
    """
    try:
        n, h1 = int(obj["n"]), np.array(obj["h1"], dtype=float)
        pqrs = [tuple(item["pqrs"]) for item in obj["h2"]]
        values = [float(item["value"]) for item in obj["h2"]]
        if h1.shape != (n, n):
            raise ValueError("one-body matrix must be n x n")
        orbitals = set(range(n))
        bad = next((idx for idx in pqrs if len(idx) != 4 or not orbitals.issuperset(idx)), None)
    except TypeError as err:
        raise ValueError(f"malformed integrals file: {err}") from err
    if bad is not None:
        raise ValueError(f"bad two-body index {bad}")
    flat = np.ravel_multi_index(np.array(pqrs, dtype=np.int64).reshape(-1, 4).T, (n,) * 4)
    seen = np.bincount(flat, minlength=n ** 4)
    if seen.max() > 1:
        raise ValueError(f"duplicate two-body index {pqrs[int(np.argmax(seen[flat] > 1))]}")
    h2 = np.zeros(n ** 4)
    h2[flat] = values
    return n, h1, h2.reshape((n,) * 4)


def write_integrals(path, ints: ElectronicIntegrals) -> None:
    with open(path, "w") as fh:
        json.dump(integrals_to_json(ints), fh)
        fh.write("\n")


def read_integrals(path) -> ElectronicIntegrals:
    with open(path) as fh:
        args = _integrals_args(json.load(fh))
    # the parsed file, one dict per h2 entry, is freed before the integrals are checked
    return ElectronicIntegrals(*args)


def estimates_from_json(obj: dict) -> tuple[dict[int, np.ndarray], int, int]:
    """Sector arrays, count and mode count: the inverse of ``write_estimates``.

    Each degree the file holds must cover every ascending set of that degree
    below 2 n_modes, and no other key may occur, else ``ValueError``.
    """
    n_modes, body = int(obj["n_modes"]), obj["estimates"]
    sectors = {}
    for degree in sorted({key.count(",") + 1 for key in body}):
        keys = [",".join(map(str, idx)) for idx in _colex_sets(2 * n_modes, degree).tolist()]
        if degree % 2 or any(key not in body for key in keys):
            raise ValueError(f"estimates do not cover the degree-{degree} sector")
        sectors[degree // 2] = np.array([body[key]["mean"] for key in keys], dtype=float)
    if sum(map(len, sectors.values())) != len(body):
        raise ValueError("estimates hold keys that are not ascending index sets")
    return sectors, int(obj["count"]), n_modes


def write_estimates(path, sectors: dict, count: int, n_modes: int) -> None:
    """Write sector arrays {j: means in colex order} as ``estimates.json``.

    The bytes are ``json.dump``'s with the keys in lexicographic tuple order,
    written as one join; padded with -1, a set sorts before its extensions.
    """
    universe, width = 2 * n_modes, 2 * max(sectors)
    rows = np.concatenate([np.pad(_colex_sets(universe, 2 * j), ((0, 0), (0, width - 2 * j)),
                                  constant_values=-1) for j in sectors])
    means = np.concatenate(list(sectors.values()))
    # per set: '"i', ',j' per further index ('' for padding), '": {"mean": ', mean, count
    cells = np.empty((len(rows), width + 3), dtype=object)
    cells[:, 0] = np.array([f'"{i}' for i in range(universe)], dtype=object)[rows[:, 0]]
    cells[:, 1:width] = np.array([f",{i}" for i in range(universe)] + [""], dtype=object)[rows[:, 1:]]
    cells[:, width] = '": {"mean": '
    cells[:, width + 1] = json.dumps(means.tolist())[1:-1].split(", ")  # NaN, Infinity as json
    cells[:, width + 2] = f', "count": {count:d}}}, '
    body = "".join(cells[np.lexsort(rows.T[::-1])].ravel().tolist())[:-2]
    with open(path, "w") as fh:
        fh.write(f'{{"n_modes": {n_modes:d}, "count": {count:d}, "estimates": {{{body}}}}}\n')


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
    """Incremental CSV writer: one row per snapshot, written a batch at a time."""

    def __init__(self, path):
        self._fh = open(path, "w", newline="")
        self._fh.write("id,permutation,signs,bits\r\n")
        self._next = 0

    def write_batch(self, perms, signs, bits):
        """Append one row per snapshot, with csv's \\r\\n line ends; no field needs quoting."""
        rows = zip(range(self._next, self._next + len(perms)),
                   perms.tolist(), signs.tolist(), bits.tolist())
        self._fh.write("".join(
            f"{i},{' '.join(map(str, p))},{' '.join(map(str, s))},{''.join(map(str, b))}\r\n"
            for i, p, s, b in rows))
        self._next += len(perms)

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
