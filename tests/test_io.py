"""Serialization round trips for the file formats."""
import csv
import gc
import io as io_module
import json
from contextlib import nullcontext
from math import comb

import numpy as np
import pytest

import freeferm as ff
from freeferm import io

from conftest import colex_sets, random_orthogonal, random_symmetric_integrals


def test_matrix_round_trip(tmp_path, rng):
    q = random_orthogonal(6, rng)
    path = tmp_path / "q.json"
    io.write_matrix(path, "orthogonal", q)
    kind, back = io.read_matrix(path)
    assert kind == "orthogonal"
    assert np.array_equal(back, q)
    with pytest.raises(ValueError):
        io.read_matrix(path, expect_kind="covariance")


def test_matrix_kind_validation():
    with pytest.raises(ValueError):
        io.matrix_to_json("mystery", np.eye(4))
    with pytest.raises(ValueError):
        io.matrix_to_json("orthogonal", np.eye(3))


def test_float_round_trip_is_exact(tmp_path, rng):
    m = ff.vacuum_covariance(2).matrix * (1.0 / 3.0)
    path = tmp_path / "cov.json"
    io.write_matrix(path, "covariance", m)
    _, back = io.read_matrix(path)
    assert np.array_equal(back, m)  # bit-exact, not approximate


def test_program_file_round_trip(tmp_path, rng):
    q = random_orthogonal(8, rng)
    prog = ff.compile_blocked(q)
    path = tmp_path / "prog.json"
    io.write_program(path, prog)
    assert io.read_program(path) == prog
    payload = json.loads(path.read_text())
    kinds = {g["kind"] for g in payload["gates"]}
    assert kinds <= {"zrot", "xxrot", "pauli"}


@pytest.mark.parametrize("rotations, layer", [
    (0, False), (0, True), (1, False), (1, True), (300, False), (300, True),
])
def test_write_program_matches_json_dump(tmp_path, rng, rotations, layer):
    n = 4
    thetas = rng.normal(size=rotations)
    thetas[:5] = [-0.0, 1e-300, 2.0 / 3.0, np.pi, np.nan][:rotations]  # json spells NaN as NaN
    prog = ff.GateProgram(n, rng.integers(2 * n - 1, size=rotations), thetas,
                          "XYZI" if layer else "IIII")
    io.write_program(tmp_path / "joined.json", prog)
    with open(tmp_path / "dumped.json", "w") as fh:
        json.dump({"n_qubits": n, "gates": io.program_to_json(prog)}, fh)
        fh.write("\n")
    assert (tmp_path / "joined.json").read_bytes() == (tmp_path / "dumped.json").read_bytes()


def program_file(n):
    """A valid program file on n qubits: a Z and an XX rotation where n allows, then the layer."""
    gates = [{"kind": "zrot", "q": n - 1, "theta": 0.5}] if n else []
    gates += [{"kind": "xxrot", "q": [0, 1], "theta": -0.25}] if n > 1 else []
    return {"n_qubits": n, "gates": gates + [{"kind": "pauli", "string": "X" * n}]}


def assert_readers_reject(tmp_path, obj):
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError):
        io.read_program(path)
    with pytest.raises(ValueError):
        io.program_from_json(obj["gates"], obj["n_qubits"])


DROP = object()


@pytest.mark.parametrize("n, gate, field, value", [
    (2, 0, "q", 1.7), (2, 0, "q", True), (3, 1, "q", [True, 2]), (3, 1, "q", [1, 3]),
    (2, 0, "theta", "0.5"), (2, 0, "theta", True), (2, 0, "kind", DROP), (2, 1, "q", DROP),
    (2, None, "n_qubits", 2.9), (1, None, "n_qubits", True), (0, None, "n_qubits", 0),
], ids=["q-float", "q-true", "xxrot-q-true", "xxrot-q-not-adjacent", "theta-string", "theta-true",
        "no-kind", "no-q", "n_qubits-float", "n_qubits-true", "n_qubits-0"])
def test_program_readers_reject_malformed_fields(tmp_path, n, gate, field, value):
    # int() read 1.7 as 1 and true as 1, and a missing field ended in a KeyError
    obj = program_file(n)
    if n:
        assert io.program_from_json(obj["gates"], n).n_qubits == n  # valid before the edit
    entry = obj if gate is None else obj["gates"][gate]
    if value is DROP:
        del entry[field]
    else:
        entry[field] = value
    assert_readers_reject(tmp_path, obj)


@pytest.mark.parametrize("order", [[2, 0, 1], [0, 1, 2, 2], [0, 1], []],
                         ids=["pauli-first", "two-pauli", "no-pauli", "empty"])
def test_program_readers_reject_misplaced_pauli(tmp_path, order):
    # a program is rotations followed by exactly one pauli entry
    obj = program_file(2)
    obj["gates"] = [obj["gates"][k] for k in order]
    assert_readers_reject(tmp_path, obj)


def test_json_writers_match_json_dump(tmp_path, rng):
    # each writes its file in one write; the bytes are json.dump's and a newline
    q = random_orthogonal(6, rng)
    q[0, :3] = -0.0, 1e-300, 2.0 / 3.0
    ints = ff.ElectronicIntegrals(3, *random_symmetric_integrals(3, rng))
    poly = ff.majorana_form(ints)
    part = ff.greedy_partition(poly)
    report = io.partition_report(ff.norms_report(poly, part), part,
                                 {"method": "greedy", "constant": poly.constant})
    for write, args, obj in [
        (io.write_matrix, ("orthogonal", q), io.matrix_to_json("orthogonal", q)),
        (io.write_integrals, (ints,), io.integrals_to_json(ints)),
        (io.write_json, (report,), report),
    ]:
        write(tmp_path / "written.json", *args)
        with open(tmp_path / "dumped.json", "w") as fh:
            json.dump(obj, fh)
            fh.write("\n")
        assert (tmp_path / "written.json").read_bytes() == (tmp_path / "dumped.json").read_bytes()


def test_integrals_round_trip(tmp_path, rng):
    h1, h2 = random_symmetric_integrals(3, rng)
    # p + q + r + s is the same on every image of an entry, so this keeps the symmetry
    h2[np.indices(h2.shape).sum(axis=0) % 3 == 0] = 0.0
    ints = ff.ElectronicIntegrals(3, h1, h2)
    path = tmp_path / "ints.json"
    io.write_integrals(path, ints)
    # only the nonzero entries are written, in ascending order
    items = json.loads(path.read_text())["h2"]
    assert [tuple(item["pqrs"]) for item in items] == [
        idx for idx in np.ndindex(h2.shape) if h2[idx] != 0.0]
    back = io.read_integrals(path)
    assert np.array_equal(back.h1, ints.h1)
    assert np.array_equal(back.h2, ints.h2)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("read, text, bad", [
    (io.read_integrals, '{"n": 1, "h1": [[0.5]], "h2": [{"pqrs": [0, 0, 0, 0], "value": 1}]}', 0),
    (io.read_integrals, '{"n": 1, "h1": [[0.5]], "h2": [{"pqrs": [0, 0, 0, 9], "value": 1}]}', 1),
    (io.read_integrals, '{"n": 1, "h1": [[0.5]], "h2": [', 1),
    (io.read_program, '{"n_qubits": 1, "gates": [{"kind": "pauli", "string": "X"}]}', 0),
    (io.read_program, '{"n_qubits": 1, "gates": [{"kind": "zrot", "q": 0}]}', 1),
    (io.read_program, '[]', 1),
    (io.read_matrix, '{"kind": "orthogonal", "n_modes": 1, "data": [1, 0, 0, 1]}', 0),
    (io.read_matrix, '{"kind": "orthogonal", "n_modes": 1, "data": [1, 0, 0]}', 1),
])
def test_readers_keep_the_callers_collector_state(tmp_path, enabled, read, text, bad):
    # the readers pause the cyclic collector and hand back the caller's setting on every exit
    path = tmp_path / "in.json"
    path.write_text(text)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(ValueError) if bad else nullcontext():
            read(path)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_estimates_round_trip(tmp_path):
    sectors = {1: np.array([0.25, -1.0 / 7.0, 0.0, 1e-300, -3.5, 2.0 / 3.0]),
               2: np.array([-1.0 / 7.0])}
    path = tmp_path / "est.json"
    io.write_estimates(path, sectors, count=128, n_modes=2)
    back, count, n_modes = io.estimates_from_json(json.loads(path.read_text()))
    assert back.keys() == sectors.keys() and count == 128 and n_modes == 2
    assert all(np.array_equal(back[j], sectors[j]) for j in sectors)


def test_write_estimates_matches_sorted_dump(tmp_path, rng):
    # n = 4 with k = 3: degrees 2, 4 and 6 interleave in tuple order
    n, count = 4, 77
    sectors = {j: rng.normal(size=comb(2 * n, 2 * j)) for j in (1, 2, 3)}
    # json spells these NaN, Infinity and -Infinity, not as repr does
    sectors[2][[5, 17, 40]] = np.nan, np.inf, -np.inf
    keyed = {idx: float(sectors[j][r])
             for j in sectors for r, idx in enumerate(colex_sets(2 * n, 2 * j))}
    body = {",".join(map(str, idx)): {"mean": keyed[idx], "count": count}
            for idx in sorted(keyed)}
    expected = tmp_path / "dump.json"
    with open(expected, "w") as fh:
        json.dump({"n_modes": n, "count": count, "estimates": body}, fh)
        fh.write("\n")
    path = tmp_path / "est.json"
    io.write_estimates(path, sectors, count, n)
    assert path.read_bytes() == expected.read_bytes()
    assert b"NaN" in path.read_bytes() and b"-Infinity" in path.read_bytes()


def test_estimates_from_json_rejects_missing_set(tmp_path, rng):
    n = 3
    sectors = {j: rng.normal(size=comb(2 * n, 2 * j)) for j in (1, 2)}
    path = tmp_path / "est.json"
    io.write_estimates(path, sectors, 10, n)
    obj = json.loads(path.read_text())
    del obj["estimates"]["1,2,4,5"]
    with pytest.raises(ValueError, match="degree-4"):
        io.estimates_from_json(obj)
    obj = json.loads(path.read_text())
    obj["estimates"]["1,0"] = obj["estimates"]["0,1"]
    with pytest.raises(ValueError, match="not ascending"):
        io.estimates_from_json(obj)


@pytest.mark.parametrize("field, value", [
    ("n_modes", 1.9), ("n_modes", True), ("n_modes", 0), ("count", 2.5), ("count", True),
])
def test_estimates_from_json_rejects_size_that_is_not_an_integer(tmp_path, field, value):
    # int() read {"n_modes": 1.9, "count": 2.5} as (1, 2) and true as 1
    path = tmp_path / "est.json"
    io.write_estimates(path, {1: np.zeros(1)}, 3, 1)
    obj = json.loads(path.read_text())
    obj[field] = value
    with pytest.raises(ValueError, match=f"{field} must be an integer >= 1, found {value!r}"):
        io.estimates_from_json(obj)


@pytest.mark.parametrize("entry", [
    {"mean": 0.5, "count": 7}, {"mean": 0.5, "count": 3.0}, {"mean": 0.5, "count": True},
    {"count": 3}, {"mean": True, "count": 3}, {"mean": "0.5", "count": 3},
    {"mean": 0.5, "count": 3, "extra": 1}, 0.5,
], ids=["count-other", "count-float", "count-true", "no-mean", "mean-true", "mean-string",
        "extra-key", "not-an-object"])
def test_estimates_from_json_rejects_malformed_entry(tmp_path, entry):
    # a per-set count of 7 against the file's 3 was accepted and dropped, and true read as 1.0
    path = tmp_path / "est.json"
    io.write_estimates(path, {1: np.zeros(1)}, 3, 1)
    obj = json.loads(path.read_text())
    obj["estimates"]["0,1"] = entry
    with pytest.raises(ValueError, match="is not"):
        io.estimates_from_json(obj)


@pytest.mark.parametrize("body", [{}, []])
def test_estimates_from_json_rejects_file_without_sectors(tmp_path, body):
    # these read as no sectors at all
    path = tmp_path / "est.json"
    io.write_estimates(path, {1: np.zeros(1)}, 3, 1)
    obj = json.loads(path.read_text())
    obj["estimates"] = body
    with pytest.raises(ValueError, match="no sector"):
        io.estimates_from_json(obj)


def test_sample_writer(tmp_path):
    perms = np.array([[2, 0, 3, 1], [0, 1, 2, 3], [3, 2, 1, 0]])
    signs = np.array([[1, -1, 1, 1], [1, 1, 1, 1], [-1, -1, 1, -1]], dtype=np.int8)
    bits = np.array([[1, 0], [0, 0], [1, 1]], dtype=np.uint8)
    path = tmp_path / "samples.csv"
    with io.SampleWriter(path) as writer:
        writer.write_batch(perms[:2], signs[:2], bits[:2])
        writer.write_batch(perms[2:], signs[2:], bits[2:])
        writer.write_batch(perms[:0], signs[:0], bits[:0])
    # the bytes of one csv.writer row per snapshot, ids counting on across batches
    expected = io_module.StringIO(newline="")
    rows = csv.writer(expected)
    rows.writerow(["id", "permutation", "signs", "bits"])
    for i, (perm, sign, bit) in enumerate(zip(perms, signs, bits)):
        rows.writerow([i, " ".join(map(str, perm)), " ".join(map(str, sign)),
                       "".join(map(str, bit))])
    assert path.read_bytes() == expected.getvalue().encode()
    assert path.read_text().splitlines()[1] == "0,2 0 3 1,1 -1 1 1,10"


def test_sample_writer_matches_row_by_row_format(tmp_path, rng):
    # n = 10: two-digit permutation entries; the second batch starts at id 300
    n, size = 10, 1000
    perms = np.argsort(rng.random((size, 2 * n)), axis=1)
    signs = np.where(rng.random((size, 2 * n)) < 0.5, -1, 1).astype(np.int8)
    bits = (rng.random((size, n)) < 0.5).astype(np.uint8)
    path = tmp_path / "samples.csv"
    with io.SampleWriter(path) as writer:
        writer.write_batch(perms[:300], signs[:300], bits[:300])
        writer.write_batch(perms[300:], signs[300:], bits[300:])
    rows = "".join(f"{i},{' '.join(map(str, p))},{' '.join(map(str, s))},{''.join(map(str, b))}\r\n"
                   for i, (p, s, b) in enumerate(zip(perms.tolist(), signs.tolist(), bits.tolist())))
    assert path.read_bytes() == ("id,permutation,signs,bits\r\n" + rows).encode()
