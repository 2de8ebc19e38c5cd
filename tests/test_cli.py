"""Command-line interface behavior and determinism."""
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import freeferm as ff
from freeferm import cli, io, oracle
from freeferm.dense import dense_unitary
from freeferm.cli import main
from freeferm.shadows import ShadowAccumulator

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


def test_shadow_sim_rejects_zero_threads(runner, tmp_path):
    result = runner.invoke(main, [
        "shadow-sim", "--modes", "2", "--eta", "1", "--samples", "100",
        "--threads", "0", "--out", str(tmp_path / "out"),
    ])
    assert result.exit_code != 0
    assert result.output.strip().splitlines() == ["error:invalid-argument: threads must be >= 1"]


SEED_ERRORS = [("-3", "seed must be >= 0"), (str(2 ** 63), "seed must be < 2**63"),
               (str(2 ** 64), "seed must be < 2**63")]


@pytest.mark.parametrize("seed, message", SEED_ERRORS)
def test_shadow_sim_rejects_seed_outside_int64(runner, tmp_path, seed, message):
    # a Philox key list holding an int >= 2**63 becomes float64, so such seeds collided
    result = runner.invoke(main, [
        "shadow-sim", "--modes", "2", "--eta", "1", "--samples", "100", "--seed", seed,
        "--out", str(tmp_path / "out"),
    ])
    assert result.exit_code == 2
    assert result.output.strip().splitlines() == [f"error:invalid-argument: {message}"]
    assert not (tmp_path / "out").exists()


def test_shadow_sim_largest_seeds_stay_distinct(runner, tmp_path):
    estimates = []
    for seed in (2 ** 63 - 2, 2 ** 63 - 1):
        out = tmp_path / str(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["shadow-sim", "--modes", "2", "--eta", "1", "--samples",
                                          "100", "--seed", str(seed), "--out", str(out)])
        assert result.exit_code == 0, result.output
        estimates.append((out / "estimates.json").read_bytes())
    assert estimates[0] != estimates[1]


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
    sectors, count, n_modes = io.estimates_from_json(
        json.loads((out / "estimates.json").read_text()))
    assert (count, n_modes) == (1000, n)
    expected = acc.sector_means()
    assert sectors.keys() == expected.keys()
    assert all(np.array_equal(sectors[j], expected[j]) for j in expected)


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
        "compile", "--input", str(src), "--scheme", "blocked", "--out", str(out), "--stats",
    ])
    assert res.exit_code == 0, res.output
    prog = io.read_program(out)
    assert np.max(np.abs(ff.program_to_orthogonal(prog) - q)) < 1e-9
    stats = json.loads(res.output.strip().splitlines()[-1])
    assert set(stats) == {"scheme", "one_qubit_count", "two_qubit_count", "depth",
                          "residual", "compile_s"}
    assert 0.0 <= stats["residual"] < 1e-9
    assert stats["compile_s"] >= 0.0


def test_compile_rejects_bad_matrix(runner, tmp_path):
    src = tmp_path / "q.json"
    io.write_matrix(src, "orthogonal", np.eye(4) * 2.0)
    res = runner.invoke(main, [
        "compile", "--input", str(src), "--out", str(tmp_path / "prog.json"),
    ])
    assert res.exit_code != 0
    assert "error:invalid-input" in res.output


def test_compile_rejects_null_mode_count(runner, tmp_path):
    src = tmp_path / "q.json"
    src.write_text(json.dumps({"kind": "orthogonal", "n_modes": None, "data": [1.0, 0.0, 0.0, 1.0]}))
    res = runner.invoke(main, [
        "compile", "--input", str(src), "--out", str(tmp_path / "prog.json"),
    ])
    assert res.exit_code != 0
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:invalid-input: ")
    assert not (tmp_path / "prog.json").exists()


@pytest.mark.parametrize("n_modes, data", [(1.7, [1.0, 0.0, 0.0, 1.0]), (True, [1.0, 0.0, 0.0, 1.0]),
                                           (0, [])], ids=["float", "bool", "zero"])
def test_compile_rejects_mode_count_that_is_not_a_size(runner, tmp_path, n_modes, data):
    src = tmp_path / "q.json"
    src.write_text(json.dumps({"kind": "orthogonal", "n_modes": n_modes, "data": data}))
    res = runner.invoke(main, [
        "compile", "--input", str(src), "--out", str(tmp_path / "prog.json"),
    ])
    assert res.exit_code != 0
    assert res.output.strip().splitlines() == [
        f"error:invalid-input: n_modes must be an integer >= 1, found {n_modes!r}"]
    assert not (tmp_path / "prog.json").exists()


@pytest.mark.filterwarnings("error")  # a numpy warning would print a second stderr line
@pytest.mark.parametrize("scheme", ["naive", "blocked"])
@pytest.mark.parametrize("entry", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_compile_rejects_non_finite_matrix(runner, tmp_path, entry, scheme):
    src = tmp_path / "q.json"
    src.write_text(json.dumps({"kind": "orthogonal", "n_modes": 1, "data": [entry, 0.0, 0.0, 1.0]}))
    res = runner.invoke(main, [
        "compile", "--input", str(src), "--scheme", scheme, "--out", str(tmp_path / "prog.json"),
        "--stats",
    ])
    assert res.exit_code != 0
    assert res.output.strip().splitlines() == [
        "error:invalid-input: input matrix has non-finite entries"]
    assert not (tmp_path / "prog.json").exists()


@pytest.mark.parametrize("entry", ["1.0", True], ids=["string", "true"])
def test_compile_rejects_matrix_entry_that_is_not_a_number(runner, tmp_path, entry):
    # np.array(..., dtype=float) read "1.0" and true as 1.0
    src = tmp_path / "q.json"
    src.write_text(json.dumps({"kind": "orthogonal", "n_modes": 1, "data": [1.0, 0.0, 0.0, entry]}))
    res = runner.invoke(main, [
        "compile", "--input", str(src), "--out", str(tmp_path / "prog.json"),
    ])
    assert res.exit_code != 0
    assert res.output.strip().splitlines() == [
        f"error:invalid-input: matrix entry 3 is not a number: {entry!r}"]
    assert not (tmp_path / "prog.json").exists()


@pytest.mark.parametrize("payload", [[1, 2], "str"], ids=["list", "string"])
def test_compile_rejects_non_object_file(runner, tmp_path, payload):
    src = tmp_path / "q.json"
    src.write_text(json.dumps(payload))
    res = runner.invoke(main, [
        "compile", "--input", str(src), "--out", str(tmp_path / "prog.json"),
    ])
    assert res.exit_code != 0
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:invalid-input: malformed matrix file: ")
    assert not (tmp_path / "prog.json").exists()


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


@pytest.mark.parametrize("pqrs, message", [
    ([-1, 0, 0, 0], "bad two-body index (-1, 0, 0, 0)"),
    ([0, 2, 0, 0], "bad two-body index (0, 2, 0, 0)"),
    ([0, 0, 0], "bad two-body index (0, 0, 0)"),
    ([0, 0, 0, 1], "two-body integrals violate permutational symmetry at (0, 0, 0, 1)"),
    ([0, True, True, 0], "bad two-body index (0, True, True, 0)"),
    ([True, True, True, True], "bad two-body index (True, True, True, True)"),
    ([1.0, 1, 1, 1], "bad two-body index (1.0, 1, 1, 1)"),
])
def test_partition_rejects_bad_two_body_entry(runner, tmp_path, pqrs, message):
    src = tmp_path / "ints.json"
    h2 = [{"pqrs": [0, 0, 0, 0], "value": 0.5}, {"pqrs": pqrs, "value": 1.0}]
    src.write_text(json.dumps({"n": 2, "h1": [[1.0, 0.0], [0.0, 1.0]], "h2": h2}))
    res = runner.invoke(main, [
        "partition", "--input", str(src), "--report", str(tmp_path / "report.json"),
    ])
    assert res.exit_code != 0
    assert res.output.strip().splitlines() == [f"error:invalid-input: {message}"]
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("n", [1.7, True, 0], ids=["float", "bool", "zero"])
def test_partition_rejects_orbital_count_that_is_not_a_size(runner, tmp_path, n):
    src = tmp_path / "ints.json"
    src.write_text(json.dumps({"n": n, "h1": [[1.0]], "h2": [{"pqrs": [0, 0, 0, 0], "value": 0.5}]}))
    res = runner.invoke(main, [
        "partition", "--input", str(src), "--report", str(tmp_path / "report.json"),
    ])
    assert res.exit_code != 0
    assert res.output.strip().splitlines() == [
        f"error:invalid-input: n must be an integer >= 1, found {n!r}"]
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("field, value", [("h2", "0.5"), ("h2", True), ("h1", "1.0"), ("h1", True)],
                         ids=["h2-string", "h2-true", "h1-string", "h1-true"])
def test_partition_rejects_integral_that_is_not_a_number(runner, tmp_path, field, value):
    # float() and np.array(..., dtype=float) read "0.5" as 0.5 and true as 1.0
    h1, h2 = [[1.0, 0.0], [0.0, 1.0]], [{"pqrs": [0, 0, 0, 0], "value": 0.5}]
    if field == "h1":
        h1[1][1], message = value, f"h1 entry (1, 1) is not a number: {value!r}"
    else:
        h2[0]["value"], message = value, f"two-body value at (0, 0, 0, 0) is not a number: {value!r}"
    src = tmp_path / "ints.json"
    src.write_text(json.dumps({"n": 2, "h1": h1, "h2": h2}))
    res = runner.invoke(main, [
        "partition", "--input", str(src), "--report", str(tmp_path / "report.json"),
    ])
    assert res.exit_code != 0
    assert res.output.strip().splitlines() == [f"error:invalid-input: {message}"]
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("item", [{"pqrs": 5, "value": 1.0}, {"pqrs": [0, 0, 0, 0], "value": None}])
def test_partition_rejects_malformed_two_body_item(runner, tmp_path, item):
    src = tmp_path / "ints.json"
    src.write_text(json.dumps({"n": 2, "h1": [[1.0, 0.0], [0.0, 1.0]], "h2": [item]}))
    res = runner.invoke(main, [
        "partition", "--input", str(src), "--report", str(tmp_path / "report.json"),
    ])
    assert res.exit_code != 0
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:invalid-input: ")
    assert not (tmp_path / "report.json").exists()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("h1, h2, message", [
    ([[1.0, NAN], [NAN, 1.0]], [([0, 0, 0, 0], 0.5), ([1, 1, 1, 1], NAN)],
     "one-body integral at (0, 1) is not finite"),
    ([[1.0, 0.0], [0.0, 1.0]], [([0, 0, 0, 0], 0.5), ([1, 1, 1, 1], NAN)],
     "two-body integral at (1, 1, 1, 1) is not finite"),
    ([[1.0, 0.0], [0.0, 1.0]], [([0, 0, 0, 0], -INF), ([1, 1, 1, 1], INF)],
     "two-body integral at (0, 0, 0, 0) is not finite"),
    ([[1.0, 0.0], [0.0, INF]], [([0, 0, 0, 0], 0.5), ([1, 1, 1, 1], -INF)],
     "one-body integral at (1, 1) is not finite"),
    ([[1.0, 0.0], [0.0, 1.0]], [([0, 0, 0, 0], 0.5), ([0, 1, 1, 0], 0.2), ([0, 0, 0, 0], 0.5)],
     "duplicate two-body index (0, 0, 0, 0)"),
], ids=["nan", "nan-two-body", "inf", "inf-one-body", "duplicate"])
def test_partition_rejects_non_finite_or_repeated_integrals(runner, tmp_path, h1, h2, message):
    src = tmp_path / "ints.json"
    items = [{"pqrs": pqrs, "value": value} for pqrs, value in h2]
    src.write_text(json.dumps({"n": 2, "h1": h1, "h2": items}))
    res = runner.invoke(main, [
        "partition", "--input", str(src), "--report", str(tmp_path / "report.json"),
    ])
    assert res.exit_code != 0
    assert res.output.strip().splitlines() == [f"error:invalid-input: {message}"]
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("method", ["greedy", "analytic"])
def test_partition_report_ignores_item_order(runner, tmp_path, rng, method):
    # the averaged integrals are symmetric only up to rounding, so summing the images of
    # a quartic set in file order would round differently
    src = tmp_path / "ints.json"
    io.write_integrals(src, ff.ElectronicIntegrals(4, *random_symmetric_integrals(4, rng)))
    obj = json.loads(src.read_text())
    obj["h2"] = [obj["h2"][i] for i in rng.permutation(len(obj["h2"]))]
    shuffled = tmp_path / "shuffled.json"
    shuffled.write_text(json.dumps(obj))
    reports = []
    for path in (src, shuffled):
        report = tmp_path / f"report_{path.stem}.json"
        res = runner.invoke(main, ["partition", "--input", str(path), "--method", method,
                                   "--report", str(report)])
        assert res.exit_code == 0, res.output
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]


def test_verify_passes(runner):
    res = runner.invoke(main, ["verify", "--modes", "3", "--seed", "3"])
    assert res.exit_code == 0, res.output
    assert "FAIL" not in res.output
    assert "PASS" in res.output


def test_verify_rejects_large_modes(runner):
    res = runner.invoke(main, ["verify", "--modes", "9"])
    assert res.exit_code != 0


def test_verify_rejects_negative_seed(runner):
    res = runner.invoke(main, ["verify", "--seed", "-1"])
    assert res.exit_code == 2
    assert res.output.strip().splitlines() == ["error:invalid-argument: seed must be >= 0"]


@pytest.mark.parametrize("seed, message", SEED_ERRORS[1:])
def test_verify_rejects_seed_outside_int64(runner, seed, message):
    # the same rule as shadow-sim's; -3 is test_verify_rejects_negative_seed's case
    res = runner.invoke(main, ["verify", "--modes", "2", "--seed", seed])
    assert res.exit_code == 2
    assert res.output.strip().splitlines() == [f"error:invalid-argument: {message}"]


def _phase_flipped(a, b):
    out = ff.multiply(a, b)
    return ff.MajoranaMonomial(out.n_modes, out.indices, out.phase_pow_i + 2)


def _biased_add_batch(self, *batch, add_batch=ShadowAccumulator.add_batch):
    add_batch(self, *batch)
    for signed in self.signed.values():
        signed += 1


VERIFY_LINES = ("monomial products", "Wick", "free spectra", "Born", "recompose",
                "conjugate", "estimator identity")


@pytest.mark.parametrize("owner, name, fake, failing", [
    (oracle, "multiply", _phase_flipped, {"monomial products"}),
    # the estimator identity takes its truth from Wick, so it fails too
    (oracle, "wick_expectation", lambda cov, mono: ff.wick_expectation(cov, mono) + 1e-6,
     {"Wick", "estimator identity"}),
    (oracle, "spectrum", lambda ham: ff.spectrum(ham) + 1e-6, {"free spectra"}),
    (oracle, "measurement_distribution", lambda cov: ff.measurement_distribution(cov) + 1e-6,
     {"Born"}),
    (oracle, "program_to_orthogonal", lambda prog: ff.program_to_orthogonal(prog) + 1e-6,
     {"recompose"}),
    (oracle, "dense_unitary", lambda prog: dense_unitary(prog) * (1 + 1e-6), {"conjugate"}),
    (ShadowAccumulator, "add_batch", _biased_add_batch, {"estimator identity"}),
])
def test_verify_fails_when_a_fast_path_is_off(runner, monkeypatch, owner, name, fake, failing):
    monkeypatch.setattr(owner, name, fake)
    res = runner.invoke(main, ["verify", "--modes", "2", "--seed", "3"])
    assert res.exit_code == 1, res.output
    lines = res.output.strip().splitlines()
    assert len(lines) == len(VERIFY_LINES)
    for key, line in zip(VERIFY_LINES, lines):
        assert key in line
        assert ("  FAIL  " if key in failing else "  PASS  ") in line, line


def _loaded_after(code):
    """Run ``code`` in a fresh interpreter; return the scipy and validation modules it loaded."""
    code += ("\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
             " or m in ('freeferm.dense', 'freeferm.oracle')))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ff.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_oracle_and_scipy_stats_unloaded():
    # only verify needs scipy and the dense oracle, and imports them itself;
    # at start-up scipy.linalg alone costs every command about 0.2 s
    assert _loaded_after("import freeferm.cli") == "[]"


def test_commands_other_than_verify_run_without_scipy(tmp_path, rng):
    io.write_matrix(tmp_path / "q.json", "orthogonal", random_orthogonal(8, rng))
    io.write_integrals(tmp_path / "h.json",
                       ff.ElectronicIntegrals(3, *random_symmetric_integrals(3, rng)))
    calls = [
        ["shadow-sim", "--modes", "4", "--eta", "2", "--samples", "200", "--kmax", "2",
         "--noise", "bit_flip:0.1", "--seed", "1", "--out", str(tmp_path / "sim")],
        ["compile", "--input", str(tmp_path / "q.json"), "--out", str(tmp_path / "p.json"),
         "--stats"],
        ["partition", "--input", str(tmp_path / "h.json"), "--report", str(tmp_path / "r.json")],
    ]
    code = "from freeferm.cli import main\n" + "".join(
        f"main({args!r}, standalone_mode=False)\n" for args in calls)
    assert _loaded_after(code) == "[]"
    assert (tmp_path / "sim" / "error_curve.csv").read_text().count("\n") == 2
    assert (tmp_path / "p.json").exists() and (tmp_path / "r.json").exists()


def test_shadow_sim_rejects_existing_file_as_output(runner, tmp_path):
    out = tmp_path / "taken"
    out.write_text("keep")
    res = runner.invoke(main, [
        "shadow-sim", "--modes", "2", "--eta", "1", "--samples", "10", "--out", str(out),
    ])
    assert res.exit_code == 2
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:invalid-argument: ")
    assert out.read_text() == "keep"


@pytest.mark.parametrize("command", ["compile", "partition"])
@pytest.mark.parametrize("bad_side, code", [("input", "invalid-input"),
                                            ("output", "invalid-argument")])
def test_unusable_path_is_one_error_line(runner, tmp_path, rng, command, bad_side, code):
    src = tmp_path / "in.json"
    if command == "compile":
        io.write_matrix(src, "orthogonal", np.eye(4))
    else:
        io.write_integrals(src, ff.ElectronicIntegrals(2, *random_symmetric_integrals(2, rng)))
    # a directory passes click's exists check and fails only when opened
    read = tmp_path if bad_side == "input" else src
    out = tmp_path / ("missing/out.json" if bad_side == "output" else "out.json")
    flag = "--out" if command == "compile" else "--report"
    res = runner.invoke(main, [command, "--input", str(read), flag, str(out)])
    assert res.exit_code == 2
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error:{code}: ")
    assert [p.name for p in tmp_path.iterdir()] == ["in.json"]


@pytest.mark.parametrize("blocked", ["samples.csv", "estimates.json", "error_curve.csv"])
def test_shadow_sim_unusable_output_file_is_one_error_line(runner, tmp_path, blocked):
    (tmp_path / blocked).mkdir()
    res = runner.invoke(main, ["shadow-sim", "--modes", "2", "--eta", "1", "--samples", "10",
                               "--kmax", "1", "--save-samples", "--out", str(tmp_path)])
    assert res.exit_code == 2
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:invalid-argument: ")
    if blocked != "samples.csv":
        # the run failed before its first chunk, so it wrote no sample row
        assert not (tmp_path / "samples.csv").exists()
