"""Command-line interface behavior and determinism."""
import json

import numpy as np
import pytest
from click.testing import CliRunner

import freeferm as ff
from freeferm import cli, io
from freeferm.cli import main

from conftest import random_orthogonal, random_symmetric_integrals


@pytest.fixture
def runner():
    return CliRunner()


def read_all(directory):
    out = {}
    for path in sorted(directory.iterdir()):
        out[path.name] = path.read_bytes()
    return out


def test_shadow_sim_rejects_zero_samples(runner, tmp_path):
    result = runner.invoke(main, [
        "shadow-sim", "--modes", "2", "--eta", "1", "--samples", "0",
        "--out", str(tmp_path / "out"),
    ])
    assert result.exit_code != 0
    assert "error:invalid-argument" in result.output
    assert "samples must be >= 1" in result.output


@pytest.mark.parametrize("kmax", ["0", "5"])
def test_shadow_sim_rejects_kmax_out_of_range(runner, tmp_path, kmax):
    result = runner.invoke(main, [
        "shadow-sim", "--modes", "4", "--eta", "1", "--samples", "100",
        "--kmax", kmax, "--out", str(tmp_path / "out"),
    ])
    assert result.exit_code != 0
    assert result.output.strip() == "error:invalid-argument: kmax must lie in [1, modes]"


@pytest.mark.parametrize("value, message", [
    ("x", "FREEFERM_THREADS must be an integer, got 'x'"),
    ("0", "threads must be >= 1"),
])
def test_shadow_sim_rejects_bad_thread_variable(runner, tmp_path, monkeypatch, value, message):
    monkeypatch.setenv("FREEFERM_THREADS", value)
    result = runner.invoke(main, [
        "shadow-sim", "--modes", "2", "--eta", "1", "--samples", "100",
        "--out", str(tmp_path / "out"),
    ])
    assert result.exit_code != 0
    assert result.output.strip().splitlines() == [f"error:invalid-argument: {message}"]


def test_shadow_sim_outputs_and_determinism(runner, tmp_path):
    args = [
        "shadow-sim", "--modes", "3", "--eta", "1", "--samples", "2000",
        "--seed", "11", "--noise", "bit_flip:0.1", "--save-samples",
    ]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    res = runner.invoke(main, args + ["--out", str(out_a)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, args + ["--out", str(out_b), "--threads", "3"])
    assert res.exit_code == 0, res.output
    files_a = read_all(out_a)
    files_b = read_all(out_b)
    assert set(files_a) == {"estimates.json", "error_curve.csv", "samples.csv"}
    # byte-identical regardless of thread count
    assert files_a == files_b

    est = json.loads(files_a["estimates.json"])
    assert est["count"] == 2000
    curve = files_a["error_curve.csv"].decode().strip().splitlines()
    assert curve[0] == "T,unmitigated_error,mitigated_error"
    assert [int(row.split(",")[0]) for row in curve[1:]] == [1000, 2000]
    samples = files_a["samples.csv"].decode().strip().splitlines()
    assert len(samples) == 2001


def test_shadow_sim_chunk_matches_sample_snapshots(runner, tmp_path):
    # one chunk: the run is sample_snapshots on the chunk's stream, then add_batch
    n, eta, seed = 5, 2, 9
    assert not ff.symmetry_spec(n, eta).ancilla_added
    out = tmp_path / "run"
    res = runner.invoke(main, [
        "shadow-sim", "--modes", str(n), "--eta", str(eta), "--samples", "1000",
        "--seed", str(seed), "--noise", "bit_flip:0.1", "--out", str(out),
    ])
    assert res.exit_code == 0, res.output
    cov = ff.slater_covariance(cli._random_slater(n, eta, seed))
    perms, signs, bits = ff.sample_snapshots(cov, 1000, cli._chunk_rng(seed, 0),
                                             noise=ff.NoiseModel("bit_flip", 0.1))
    acc = ff.ShadowAccumulator(n, 2)
    acc.add_batch(perms, signs, bits)
    means, count, n_modes = io.estimates_from_json(
        json.loads((out / "estimates.json").read_text()))
    assert (count, n_modes) == (1000, n)
    assert means == acc.estimates()


def test_shadow_sim_alt_group(runner, tmp_path):
    res = runner.invoke(main, [
        "shadow-sim", "--modes", "2", "--eta", "1", "--samples", "1000",
        "--group", "alt", "--out", str(tmp_path / "alt"),
    ])
    assert res.exit_code == 0, res.output


def test_compile_identity(runner, tmp_path):
    src = tmp_path / "q.json"
    io.write_matrix(src, "orthogonal", np.eye(6))
    out = tmp_path / "prog.json"
    res = runner.invoke(main, [
        "compile", "--input", str(src), "--scheme", "naive", "--out", str(out), "--stats",
    ])
    assert res.exit_code == 0, res.output
    prog = io.read_program(out)
    assert prog.stats().rotation_count == 0
    stats = json.loads(res.output.strip().splitlines()[-1])
    assert stats["depth"] == 0


def test_compile_round_trip_via_cli(runner, tmp_path, rng):
    q = random_orthogonal(8, rng)
    src = tmp_path / "q.json"
    io.write_matrix(src, "orthogonal", q)
    out = tmp_path / "prog.json"
    res = runner.invoke(main, [
        "compile", "--input", str(src), "--scheme", "blocked", "--out", str(out),
    ])
    assert res.exit_code == 0, res.output
    prog = io.read_program(out)
    assert np.max(np.abs(ff.program_to_orthogonal(prog) - q)) < 1e-9


def test_compile_rejects_bad_matrix(runner, tmp_path):
    src = tmp_path / "q.json"
    io.write_matrix(src, "orthogonal", np.eye(4) * 2.0)
    res = runner.invoke(main, [
        "compile", "--input", str(src), "--out", str(tmp_path / "prog.json"),
    ])
    assert res.exit_code != 0
    assert "error:invalid-input" in res.output


def test_partition_analytic_counts(runner, tmp_path, rng):
    n = 4
    h1, h2 = random_symmetric_integrals(n, rng)
    src = tmp_path / "ints.json"
    io.write_integrals(src, ff.ElectronicIntegrals(n, h1, h2))
    report_path = tmp_path / "report.json"
    res = runner.invoke(main, [
        "partition", "--input", str(src), "--method", "analytic",
        "--report", str(report_path),
    ])
    assert res.exit_code == 0, res.output
    report = json.loads(report_path.read_text())
    assert report["analytic_quartic_sets"] == 12
    assert report["bounds_ok"]
    assert report["covers"]
    assert report["Lambda_c"] <= report["Lambda"] + 1e-12


def test_partition_greedy_report(runner, tmp_path, rng):
    n = 3
    h1, h2 = random_symmetric_integrals(n, rng)
    src = tmp_path / "ints.json"
    io.write_integrals(src, ff.ElectronicIntegrals(n, h1, h2))
    report_path = tmp_path / "report.json"
    res = runner.invoke(main, [
        "partition", "--input", str(src), "--report", str(report_path),
    ])
    assert res.exit_code == 0, res.output
    report = json.loads(report_path.read_text())
    assert report["method"] == "greedy"
    for entry in report["sets"]:
        assert abs(sum(b * b for b in entry["betas"]) - 1.0) < 1e-9


def test_verify_passes(runner):
    res = runner.invoke(main, ["verify", "--modes", "3", "--seed", "3"])
    assert res.exit_code == 0, res.output
    assert "FAIL" not in res.output
    assert "PASS" in res.output


def test_verify_rejects_large_modes(runner):
    res = runner.invoke(main, ["verify", "--modes", "9"])
    assert res.exit_code != 0
