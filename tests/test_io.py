"""Serialization round trips for the file formats."""
import json

import numpy as np
import pytest

import freeferm as ff
from freeferm import io

from conftest import random_orthogonal, random_symmetric_integrals


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


def test_integrals_round_trip(tmp_path, rng):
    h1, h2 = random_symmetric_integrals(3, rng)
    ints = ff.ElectronicIntegrals(3, h1, h2)
    path = tmp_path / "ints.json"
    io.write_integrals(path, ints)
    back = io.read_integrals(path)
    assert np.array_equal(back.h1, ints.h1)
    assert back.h2 == ints.h2


def test_estimates_round_trip(tmp_path):
    means = {(0, 1): 0.25, (0, 1, 2, 3): -1.0 / 7.0}
    path = tmp_path / "est.json"
    io.write_estimates(path, means, count=128, n_modes=2)
    back, count, n_modes = io.estimates_from_json(json.loads(path.read_text()))
    assert back == means and count == 128 and n_modes == 2


def test_sample_writer(tmp_path):
    path = tmp_path / "samples.csv"
    with io.SampleWriter(path) as writer:
        writer.write_raw(np.array([2, 0, 3, 1]), np.array([1, -1, 1, 1], dtype=np.int8),
                         np.array([1, 0], dtype=np.uint8))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "id,permutation,signs,bits"
    assert lines[1] == "0,2 0 3 1,1 -1 1 1,10"
