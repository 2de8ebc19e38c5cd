"""JSON and CSV serialization for matrices, programs, integrals, and samples.

Floats are serialized with Python's shortest round-trip representation, so
every double survives a write/read cycle bit-exactly.
"""
from __future__ import annotations

import json
from itertools import chain
from operator import itemgetter

import numpy as np

from .circuits import GateProgram
from .partition import AnticommutingPartition, ElectronicIntegrals
from .shadows import _colex_sets

MATRIX_KINDS = ("covariance", "quadratic_hamiltonian", "orthogonal")


def _size(value, field: str) -> int:
    """A size read from a file: an integer >= 1 that is not a boolean, else ``ValueError``."""
    if type(value) is not int or value < 1:
        raise ValueError(f"{field} must be an integer >= 1, found {value!r}")
    return value


def _floats(values: list, name) -> np.ndarray:
    """JSON numbers as floats; any other entry (``"1.0"``, ``true``) is named by ``name(k)``."""
    if {int, float}.issuperset(map(type, values)):
        return np.array(values, dtype=float)
    k = next(k for k, v in enumerate(values) if type(v) not in (int, float))
    raise ValueError(f"{name(k)} is not a number: {values[k]!r}")


def write_json(path, obj) -> None:
    """Write ``json.dump``'s bytes for ``obj`` and a newline, in one write."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj) + "\n")


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
        n = _size(obj["n_modes"], "n_modes")
        data = _floats(obj["data"], "matrix entry {}".format)
    except (AttributeError, TypeError, OverflowError) as err:
        raise ValueError(f"malformed matrix file: {err}") from err
    if data.size != (2 * n) ** 2:
        raise ValueError("matrix payload has the wrong size")
    return kind, data.reshape(2 * n, 2 * n)


def write_matrix(path, kind: str, matrix) -> None:
    write_json(path, matrix_to_json(kind, matrix))


def read_matrix(path, expect_kind: str | None = None) -> tuple[str, np.ndarray]:
    with open(path) as fh:
        return matrix_from_json(json.load(fh), expect_kind)


def program_to_json(p: GateProgram) -> list:
    """The ``gates`` list of a program file: one entry per rotation, then the ``pauli`` entry."""
    gates = [{"kind": "xxrot", "q": [a // 2, a // 2 + 1], "theta": t} if a % 2
             else {"kind": "zrot", "q": a // 2, "theta": t}
             for a, t in zip(p.axes.tolist(), p.thetas.tolist())]
    return gates + [{"kind": "pauli", "string": p.letters}]


def _axis(kind, q) -> int:
    """The Majorana axis of a rotation entry: q is an integer, or two adjacent ones for xxrot."""
    if kind == "zrot" and type(q) is int:
        return 2 * q
    if kind != "xxrot" or type(q) is not list or list(map(type, q)) != [int, int] \
            or q[1] != q[0] + 1:
        raise ValueError(f"bad rotation entry: kind {kind!r} with q {q!r}")
    return 2 * q[0] + 1


def program_from_json(data: list, n_qubits: int) -> GateProgram:
    """The inverse of ``program_to_json``: rotations, then exactly one ``pauli`` entry.

    A ``theta`` must be a number; any other input raises ``ValueError``.
    """
    n_qubits = _size(n_qubits, "n_qubits")
    try:
        # a pauli entry before the last is not a rotation, so _axis refuses it
        if not data or data[-1]["kind"] != "pauli":
            raise ValueError("a gate list must end in its one pauli entry")
        axes = [_axis(item["kind"], item["q"]) for item in data[:-1]]
        thetas = [item["theta"] for item in data[:-1]]
        letters = data[-1]["string"]
    except (KeyError, TypeError) as err:
        raise ValueError(f"malformed gate list: {err!r}") from err
    if not {int, float}.issuperset(map(type, thetas)):
        raise ValueError("a rotation angle must be a number")
    return GateProgram(n_qubits, axes, thetas, letters)


def write_program(path, p: GateProgram) -> None:
    """Write ``json.dump``'s bytes as one join: per rotation its axis' head, then its angle."""
    heads = [f'{{"kind": "xxrot", "q": [{a // 2}, {a // 2 + 1}], "theta": ' if a % 2
             else f'{{"kind": "zrot", "q": {a // 2}, "theta": ' for a in range(2 * p.n_qubits - 1)]
    reprs = json.dumps(p.thetas.tolist())[1:-1].split(", ")  # NaN, Infinity as json
    cells = "".join(heads[a] + r + "}, " for a, r in zip(p.axes.tolist(), reprs))
    layer = json.dumps({"kind": "pauli", "string": p.letters})
    with open(path, "w") as fh:
        fh.write(f'{{"n_qubits": {p.n_qubits:d}, "gates": [{cells}{layer}]}}\n')


def read_program(path) -> GateProgram:
    with open(path) as fh:
        obj = json.load(fh)
    if type(obj) is not dict:
        raise ValueError("a program file must be a JSON object")
    return program_from_json(obj.get("gates"), obj.get("n_qubits"))


def integrals_to_json(ints: ElectronicIntegrals) -> dict:
    """The file form of the integrals: ``h2`` lists its nonzero entries in ascending order."""
    at = np.argwhere(ints.h2)
    h2 = [{"pqrs": idx, "value": val}
          for idx, val in zip(at.tolist(), ints.h2[tuple(at.T)].tolist())]
    return {"n": ints.n, "h1": ints.h1.tolist(), "h2": h2}


def _integrals_args(obj: dict) -> tuple[int, np.ndarray, np.ndarray]:
    """n, h1 and the (n, n, n, n) h2 tensor of an integrals file.

    Every h1 entry and h2 value must be a JSON number. An ``h2`` index that is
    not four integers in [0, n), or that occurs twice, raises ``ValueError``
    naming the first such item in file order; booleans and floats are not
    integers here.
    """
    try:
        n, rows, items = _size(obj["n"], "n"), obj["h1"], obj["h2"]
        if type(rows) is not list or len(rows) != n or {n} != set(map(len, rows)):
            raise ValueError("one-body matrix must be n x n")
        h1 = _floats(list(chain.from_iterable(rows)), lambda k: f"h1 entry {divmod(k, n)}")
        pqrs = list(map(itemgetter("pqrs"), items))
        flat = list(chain.from_iterable(pqrs))
        whole = {4}.issuperset(map(len, pqrs)) and {int}.issuperset(map(type, flat))
        values = _floats(list(map(itemgetter("value"), items)),
                         lambda k: f"two-body value at {tuple(pqrs[k])}")
    except (TypeError, OverflowError) as err:
        raise ValueError(f"malformed integrals file: {err}") from err
    at = np.array(flat if whole else [-1, 0, 0, 0]).reshape(-1, 4)  # beyond int64: objects
    if np.any((at < 0) | (at >= n)):
        bad = next(tuple(idx) for idx in pqrs if len(idx) != 4
                   or not all(type(i) is int and 0 <= i < n for i in idx))
        raise ValueError(f"bad two-body index {bad}")
    flat = np.ravel_multi_index(at.T.astype(np.int64), (n,) * 4)
    seen = np.bincount(flat, minlength=n ** 4)
    if seen.max() > 1:
        raise ValueError(f"duplicate two-body index {tuple(pqrs[int(np.argmax(seen[flat] > 1))])}")
    h2 = np.zeros(n ** 4)
    h2[flat] = values
    return n, h1.reshape(n, n), h2.reshape((n,) * 4)


def write_integrals(path, ints: ElectronicIntegrals) -> None:
    write_json(path, integrals_to_json(ints))


def read_integrals(path) -> ElectronicIntegrals:
    with open(path) as fh:
        args = _integrals_args(json.load(fh))
    # the parsed file, one dict per h2 entry, is freed before the integrals are checked
    return ElectronicIntegrals(*args)


def estimates_from_json(obj: dict) -> tuple[dict[int, np.ndarray], int, int]:
    """Sector arrays, count and mode count: the inverse of ``write_estimates``.

    The file must hold at least one sector, each degree it holds must cover
    every ascending set of that degree below 2 n_modes, no other key may occur,
    and each entry must be {"mean": number, "count": the file's count}, else
    ``ValueError``.
    """
    n_modes, count = _size(obj["n_modes"], "n_modes"), _size(obj["count"], "count")
    body = obj["estimates"]
    if type(body) is not dict or not body:
        raise ValueError("estimates hold no sector")
    for key, e in body.items():
        ok = type(e) is dict and e.keys() == {"mean", "count"} and type(e["mean"]) in (int, float)
        if not ok or (type(e["count"]), e["count"]) != (int, count):
            raise ValueError(f'estimate {key!r} is not {{"mean": number, "count": {count}}}')
    sectors = {}
    for degree in sorted({key.count(",") + 1 for key in body}):
        keys = [",".join(map(str, idx)) for idx in _colex_sets(2 * n_modes, degree).tolist()]
        if degree % 2 or any(key not in body for key in keys):
            raise ValueError(f"estimates do not cover the degree-{degree} sector")
        sectors[degree // 2] = np.array([body[key]["mean"] for key in keys], dtype=float)
    if sum(map(len, sectors.values())) != len(body):
        raise ValueError("estimates hold keys that are not ascending index sets")
    return sectors, count, n_modes


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
    sets = [{"members": s.members, "betas": s.betas.tolist(), "gamma": s.gamma}
            for s in partition.sets]
    return {"sets": sets, "covers": partition.covers, **poly_report, **(extra or {})}


class SampleWriter:
    """Incremental CSV writer: one row per snapshot, written a batch at a time."""

    def __init__(self, path):
        self._fh = open(path, "w", newline="")
        self._fh.write("id,permutation,signs,bits\r\n")
        self._next = 0

    def write_batch(self, perms, signs, bits):
        """Append one row per snapshot, with csv's \\r\\n line ends; no field needs quoting.

        The rows are one join of cells from string tables; the last column of a
        field looks up its value in the table's second half, which ends in the
        field's separator.
        """
        (size, m), n = perms.shape, bits.shape[1]
        cells = np.empty((size, 2 * m + n + 1), dtype=object)
        cells[:, 0] = list(map("{},".format, range(self._next, self._next + size)))
        last = np.arange(m) == m - 1
        perm_cells = np.array([f"{v}{sep}" for sep in " ," for v in range(m)], dtype=object)
        sign_cells = np.array(["-1 ", "", "1 ", "-1,", "", "1,"], dtype=object)
        bit_cells = np.array(["0", "1", "0\r\n", "1\r\n"], dtype=object)
        cells[:, 1:m + 1] = perm_cells[perms + m * last]
        cells[:, m + 1:-n] = sign_cells[signs + 1 + 3 * last]
        cells[:, -n:] = bit_cells[bits + 2 * (np.arange(n) == n - 1)]
        self._fh.write("".join(cells.ravel().tolist()))
        self._next += size

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
