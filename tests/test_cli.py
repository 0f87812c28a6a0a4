"""End-to-end tests of the command-line surface."""

import json
import math
import os

import numpy as np
import pytest

from chsh_kcbs import cli, experiments
from chsh_kcbs.analytic import chsh_coefficients
from chsh_kcbs.circuits import estimators, prepare_state1, run_hybrid_tests, sample_shot_stack
from chsh_kcbs.analytic import state1, state1_margins
from chsh_kcbs.observables import (alice_rotation, b0_closed_form, bm_bm1_closed_form,
                                   kcbs_observables, kcbs_pair, kcbs_vectors, s_operator)
from helpers import matrix_from_json, read_csv, three_register_probabilities


def run_cli(*argv):
    return cli.main(list(argv))


def test_threshold_prints_six_decimals(capsys):
    assert run_cli("threshold", "--n", "5") == 0
    assert capsys.readouterr().out.strip() == "0.723607"


def test_threshold_rejects_even_cycle(capsys):
    assert run_cli("threshold", "--n", "4") == cli.EXIT_DOMAIN
    assert "error" in capsys.readouterr().err


def test_usage_errors_exit_2(capsys):
    assert run_cli("threshold") == cli.EXIT_USAGE
    assert run_cli("landscape", "--n", "5", "--theta", "0:10", "--phi", "0:10:2",
                   "--out", "x.csv") == cli.EXIT_USAGE
    assert run_cli("not-a-command") == cli.EXIT_USAGE
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert run_cli("--help") == 0
    assert "Exit codes" in capsys.readouterr().out
    assert run_cli("landscape", "--help") == 0
    capsys.readouterr()


def test_coexist_single_row(tmp_path):
    out = tmp_path / "coexist.csv"
    assert run_cli("coexist", "--n", "5:5:1", "--out", str(out)) == 0
    header, rows, metadata = read_csv(str(out))
    assert header == ["n", "theta_opt_deg", "overlap", "residual"]
    assert len(rows) == 1
    n, theta, overlap, residual = rows[0]
    assert int(n) == 5
    assert float(theta) == pytest.approx(49.605, abs=0.01)
    assert float(overlap) == pytest.approx(0.343069, abs=1e-4)
    assert float(residual) <= 1e-9
    assert metadata["command"] == "coexist"
    assert "timestamp" in metadata


def test_coexist_range(tmp_path):
    out = tmp_path / "coexist.csv"
    assert run_cli("coexist", "--n", "5:9:2", "--out", str(out)) == 0
    _, rows, _ = read_csv(str(out))
    assert [int(r[0]) for r in rows] == [5, 7, 9]


def test_observables_dump_round_trips(tmp_path):
    out = tmp_path / "observables.json"
    assert run_cli("observables", "--n", "5", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 5
    assert len(payload["kcbs_vectors"]) == 5
    assert len(payload["kcbs_observables"]) == 5
    vecs = [matrix_from_json(v).reshape(-1) for v in payload["kcbs_vectors"]]
    assert np.array_equal(vecs, kcbs_vectors(5))
    mats = [matrix_from_json(entry) for entry in payload["kcbs_observables"]]
    assert np.array_equal(mats, kcbs_observables(5))
    b0 = matrix_from_json(payload["b0"])
    assert np.allclose(b0, b0_closed_form(5).matrix, atol=1e-12)
    s = matrix_from_json(payload["s_operator"])
    assert np.allclose(s, s_operator(5).matrix, atol=1e-12)
    labels = [entry["label"] for entry in payload["kcbs_observables"]]
    assert labels == [f"B_{j}" for j in range(5)]
    assert payload["metadata"]["command"] == "observables"


def test_landscape_csv_round_trip(tmp_path):
    out = tmp_path / "landscape.csv"
    assert run_cli("landscape", "--n", "5", "--theta", "0:180:5", "--phi", "0:360:5",
                   "--mode", "analytic", "--out", str(out)) == 0
    header, rows, _ = read_csv(str(out))
    assert header == ["n", "theta_deg", "phi_deg", "chsh_margin", "kcbs_margin",
                      "mode", "shots", "seed"]
    assert len(rows) == 25
    for row in rows:
        assert row[5] == "analytic"
        assert row[6] == "" and row[7] == ""
        chsh, kcbs = state1_margins(math.radians(float(row[1])),
                                    math.radians(float(row[2])), 5)
        # Nine significant digits must re-parse to within one unit in the
        # ninth digit of the in-memory value.
        assert float(row[3]) == pytest.approx(chsh, rel=1e-8, abs=1e-12)
        assert float(row[4]) == pytest.approx(kcbs, rel=1e-8, abs=1e-12)


def test_landscape_circuit_mode_columns(tmp_path):
    out = tmp_path / "landscape.csv"
    assert run_cli("landscape", "--n", "5", "--theta", "40:90:2", "--phi", "0:0:1",
                   "--mode", "circuit", "--shots", "2000", "--seed", "3",
                   "--out", str(out)) == 0
    _, rows, _ = read_csv(str(out))
    assert len(rows) == 2
    for cell, row in enumerate(rows):
        assert row[5] == "circuit"
        assert int(row[6]) == 2000
        assert int(row[7]) >= 0
        # Both integer columns are written verbatim: the shot count and the cell seed.
        assert row[6] == "2000"
        assert row[7] == str(experiments._cell_seed(3, cell))


def test_circuit_landscape_matches_term_by_term_protocol_runs(tmp_path):
    # The CSV of a seeded circuit landscape, rebuilt one Fourier test at a
    # time: each term as a one-row run_hybrid_tests stack, its shots drawn in term
    # order from one generator seeded by the cell seed.
    n, shots, master_seed = 7, 500, 11
    thetas, phis = [0.0, 60.0, 120.0, 180.0], [0.0, 45.0, 90.0]
    out = tmp_path / "landscape.csv"
    assert run_cli("landscape", "--n", str(n), "--theta", "0:180:4", "--phi", "0:90:3",
                   "--mode", "circuit", "--shots", str(shots), "--seed", str(master_seed),
                   "--out", str(out), "--no-timestamp") == 0

    bm, b0 = bm_bm1_closed_form(n).matrix, b0_closed_form(n).matrix
    lines = ["n,theta_deg,phi_deg,chsh_margin,kcbs_margin,mode,shots,seed\n"]
    for cell, (theta, phi) in enumerate((t, p) for t in thetas for p in phis):
        state = prepare_state1(math.radians(theta), math.radians(phi))
        co = chsh_coefficients(state, n)
        r0, r2 = alice_rotation(co.omega0).matrix, alice_rotation(co.omega2).matrix
        terms = [(r2, bm), (r2, b0), (r0, bm), (r0, b0)]
        terms += [(np.eye(2), kcbs_pair(n, j).matrix) for j in range(n)]
        cell_seed = experiments._cell_seed(master_seed, cell)
        rng = np.random.default_rng(cell_seed)
        estimates = []
        for alice, bob in terms:
            probs = np.clip(run_hybrid_tests(state, alice[None], bob[None])[0], 0.0, None)
            f0, f1, f2 = rng.multinomial(shots, probs / probs.sum()) / shots
            estimates.append((9.0 * (f0 - f1 - f2) - 1.0) / 8.0)
        chsh = estimates[0] + estimates[1] + estimates[2] - estimates[3] - 2.0
        kcbs = 0.0
        for j in range(n):
            kcbs += (-1.0 if j == n - 1 else 1.0) * estimates[4 + j]
        kcbs -= n - 2.0
        lines.append(f"{n},{theta:.9g},{phi:.9g},{chsh:.9g},{kcbs:.9g},circuit,{shots},"
                     f"{cell_seed}\n")

    written = out.read_bytes()
    assert written[written.index(b"n,theta_deg"):] == "".join(lines).encode()


def test_circuit_landscape_records_its_seed_scheme(tmp_path):
    grid = ("--n", "5", "--theta", "30:60:2", "--phi", "0:0:1", "--no-timestamp")
    circuit, analytic = tmp_path / "circuit.csv", tmp_path / "analytic.csv"
    assert run_cli("landscape", *grid, "--mode", "circuit", "--shots", "10",
                   "--out", str(circuit)) == 0
    assert run_cli("landscape", *grid, "--out", str(analytic)) == 0
    assert read_csv(str(circuit))[2]["seed_scheme"] == "2"
    assert "seed_scheme" not in read_csv(str(analytic))[2]


def test_multi_block_landscape_matches_one_kernel_call(tmp_path):
    thetas, phis = np.linspace(0, 180, 67), np.linspace(0, 360, 1001)
    assert thetas.size * phis.size > experiments.BLOCK_CELLS
    out = tmp_path / "landscape.csv"
    assert run_cli("landscape", "--n", "7", "--theta", "0:180:67", "--phi", "0:360:1001",
                   "--out", str(out), "--no-timestamp") == 0
    _, rows, _ = read_csv(str(out))
    chsh, kcbs = state1_margins(np.deg2rad(thetas)[:, None], np.deg2rad(phis)[None, :], 7)
    expected = [["7", "%.9g" % t, "%.9g" % p, "%.9g" % c, "%.9g" % k, "analytic", "", ""]
                for t, p, c, k in zip(np.repeat(thetas, phis.size).tolist(),
                                      np.tile(phis, thetas.size).tolist(),
                                      chsh.ravel().tolist(), kcbs.ravel().tolist())]
    assert rows == expected


@pytest.mark.parametrize("block, n, theta, phi", [
    (7, 5, "0:180:5", "-30:330:16"),  # rows wider than a block: row slices and a remainder
    (7, 5, "0:180:9", "0:360:3"),  # several rows per block and a short last block
    (None, 100000001, "0,90,180", "0:360:5"),  # CHSH in exponent form at theta = 0 and 180
    (None, 7, "0,12.5,180", "-90,-1e-7,0,45"),  # negative phi and comma lists
])
def test_landscape_bytes_match_per_field_formatting(monkeypatch, tmp_path, block, n, theta, phi):
    # The writer formats theta and KCBS once per row and phi once per pass;
    # the bytes must be those of formatting every field of every cell alone.
    if block is not None:
        monkeypatch.setattr(experiments, "BLOCK_CELLS", block)
    out = tmp_path / "landscape.csv"
    assert run_cli("landscape", "--n", str(n), f"--theta={theta}", f"--phi={phi}",
                   "--out", str(out), "--no-timestamp") == 0
    thetas, phis = np.array(cli.angle_grid(theta)), np.array(cli.angle_grid(phi))
    chsh, kcbs = state1_margins(np.deg2rad(thetas)[:, None], np.deg2rad(phis)[None, :], n)
    expected = "".join(
        f"{n},{'%.9g' % t},{'%.9g' % p},{'%.9g' % c},{'%.9g' % k},analytic,,\n"
        for t, p, c, k in zip(np.repeat(thetas, phis.size).tolist(),
                              np.tile(phis, thetas.size).tolist(),
                              chsh.ravel().tolist(), kcbs.ravel().tolist()))
    header = ",".join(experiments.LandscapeTable.header)
    assert out.read_text().endswith(f"\n{header}\n{expected}")
    if n == 100000001:
        assert ",-8.8817842e-16," in expected


def test_circuit_landscape_bytes_do_not_depend_on_the_block_size(monkeypatch, tmp_path):
    # Rows wider than a 7-cell block are written as row slices, the last one short.
    argv = ("landscape", "--n", "5", "--theta", "30:90:3", "--phi=-30:330:16",
            "--mode", "circuit", "--shots", "200", "--seed", "4", "--no-timestamp", "--out")
    whole, split = tmp_path / "whole.csv", tmp_path / "split.csv"
    assert run_cli(*argv, str(whole)) == 0
    monkeypatch.setattr(experiments, "BLOCK_CELLS", 7)
    assert run_cli(*argv, str(split)) == 0
    assert split.read_bytes() == whole.read_bytes()
    assert len(read_csv(str(whole))[1]) == 3 * 16


@pytest.mark.parametrize("via_config", [False, True])
def test_circuit_landscape_without_shots_is_a_usage_error(tmp_path, capsys, via_config):
    out = tmp_path / "landscape.csv"
    argv = ["landscape", "--n", "5", "--theta", "30:90:3", "--phi", "0", "--out", str(out)]
    if via_config:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mode": "circuit"}))
        argv += ["--config", str(config)]
    else:
        argv += ["--mode", "circuit"]
    assert run_cli(*argv) == cli.EXIT_USAGE
    assert "--shots" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["analytic", "circuit"])
def test_landscape_rejects_theta_outside_range(tmp_path, capsys, mode):
    out = tmp_path / "landscape.csv"
    assert run_cli("landscape", "--n", "5", "--theta", "200:300:3", "--phi", "0:0:1",
                   "--mode", mode, "--shots", "100", "--out", str(out)) == cli.EXIT_DOMAIN
    assert "theta" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, grid", [("--theta", "nan:90:2"), ("--theta", "0:inf:2"),
                                        ("--phi", "nan:0:1"), ("--phi", "0:-inf:3")])
def test_landscape_rejects_non_finite_grid_endpoints(tmp_path, capsys, flag, grid):
    out = tmp_path / "landscape.csv"
    grids = {"--theta": "0:90:2", "--phi": "0:0:1", flag: grid}
    assert run_cli("landscape", "--n", "5", *(item for pair in grids.items() for item in pair),
                   "--out", str(out)) == cli.EXIT_USAGE
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["coexist", "scaling"])
def test_empty_cycle_range_is_a_usage_error(tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    assert run_cli(command, "--n", "7:5:2", "--out", str(out)) == cli.EXIT_USAGE
    assert "empty cycle range" in capsys.readouterr().err
    # An empty list in a config file is refused the same way.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": []}))
    assert run_cli(command, "--config", str(config), "--out", str(out)) == cli.EXIT_USAGE
    assert "empty" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("shots", ["0", "-5"])
def test_shots_must_be_positive(tmp_path, capsys, shots):
    out = tmp_path / "out"
    assert run_cli("landscape", "--n", "5", "--theta", "40:90:2", "--phi", "0:0:1",
                   "--mode", "circuit", "--shots", shots, "--out", str(out)) == cli.EXIT_USAGE
    assert run_cli("fourier-test", "--n", "5", "--theta", "90", "--phi", "0", "--alice", "id",
                   "--bob", "b0", "--shots", shots, "--out", str(out)) == cli.EXIT_USAGE
    # Config-file values go through the same check.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"shots": int(shots)}))
    assert run_cli("fourier-test", "--config", str(config), "--n", "5", "--theta", "90",
                   "--phi", "0", "--alice", "id", "--bob", "b0",
                   "--out", str(out)) == cli.EXIT_USAGE
    assert "positive integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, args", [
    ("landscape", ["--n", "5", "--theta", "40:90:2", "--phi", "0:0:1", "--mode", "circuit"]),
    ("fourier-test", ["--n", "5", "--theta", "90", "--phi", "0", "--alice", "id", "--bob", "b0"]),
])
def test_shots_above_the_multinomial_limit_are_a_usage_error(tmp_path, capsys, command, args):
    out = tmp_path / "out"
    for shots in (2**63, 10**20):
        assert run_cli(command, *args, "--shots", str(shots), "--out", str(out)) == cli.EXIT_USAGE
        assert "positive integer <= 2**63 - 1" in capsys.readouterr().err
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"shots": shots}))
        assert run_cli(command, *args, "--config", str(config),
                       "--out", str(out)) == cli.EXIT_USAGE
        assert "'shots'" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli(command, *args, "--shots", str(2**63 - 1), "--out", str(out),
                   "--no-timestamp") == 0


def test_identical_runs_differ_only_in_timestamp(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    args = ("coexist", "--n", "5:9:2")
    assert run_cli(*args, "--out", str(first)) == 0
    assert run_cli(*args, "--out", str(second)) == 0
    keep = lambda text: [line for line in text.splitlines()
                         if not line.startswith("# timestamp:")]
    assert keep(first.read_text()) == keep(second.read_text())
    assert any(line.startswith("# timestamp:") for line in first.read_text().splitlines())


def test_no_timestamp_makes_output_reproducible(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    args = ("landscape", "--n", "5", "--theta", "0:90:4", "--phi", "0:90:4",
            "--mode", "analytic", "--no-timestamp")
    assert run_cli(*args, "--out", str(first)) == 0
    assert run_cli(*args, "--out", str(second)) == 0
    assert first.read_bytes() == second.read_bytes()
    assert b"timestamp" not in first.read_bytes()


def test_scaling_csv(tmp_path):
    out = tmp_path / "scaling.csv"
    assert run_cli("scaling", "--n", "5:9:2", "--out", str(out)) == 0
    header, rows, metadata = read_csv(str(out))
    assert header == ["n", "theta_opt_deg", "overlap", "residual",
                      "psi_n_kcbs_margin", "psi_n_chsh_margin", "asym_kcbs", "asym_chsh"]
    assert [int(r[0]) for r in rows] == [5, 7, 9]
    first = rows[0]
    assert float(first[6]) == pytest.approx(8 / 9, abs=1e-9)
    assert float(first[7]) == pytest.approx(56 / 81, abs=1e-9)
    assert "loglog_slope" in metadata


def test_fourier_test_exact_output(tmp_path):
    out = tmp_path / "fourier.json"
    assert run_cli("fourier-test", "--n", "5", "--theta", "49.605", "--phi", "0",
                   "--alice", "w0", "--bob", "bmbm1", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    probs = payload["probabilities"]
    assert probs["p0"] + probs["p1"] + probs["p2"] == pytest.approx(1.0, abs=1e-12)
    assert payload["counts"] is None
    assert payload["shots"] is None
    assert payload["estimators"]["combined"] == pytest.approx(payload["exact_value"], abs=1e-10)
    assert payload["estimators"]["from_p0"] == pytest.approx(payload["exact_value"], abs=1e-10)
    # The written probabilities are the whole protocol run as one circuit, to the bit,
    # and the estimators are their stacked readout.
    theta = math.radians(49.605)
    alice = alice_rotation(chsh_coefficients(state1(theta, 0.0), 5).omega0).matrix
    expected = three_register_probabilities(theta, 0.0, alice, bm_bm1_closed_form(5).matrix)
    assert list(probs.values()) == expected
    assert list(payload["estimators"].values()) == estimators([expected])[0].tolist()


def test_fourier_test_sampled_output(tmp_path):
    out = tmp_path / "fourier.json"
    assert run_cli("fourier-test", "--n", "5", "--theta", "90", "--phi", "0",
                   "--alice", "id", "--bob", "pair:3", "--shots", "50000",
                   "--seed", "11", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert sum(payload["counts"]) == 50000
    assert payload["seed"] == 11
    assert payload["shots"] == 50000
    assert abs(payload["estimators"]["combined"] - payload["exact_value"]) <= 0.05
    assert payload["bob"] == "B_3 B_4"
    # Counts and estimators are row 0 of the library's shot stack at the same seed.
    probs = run_hybrid_tests(prepare_state1(math.pi / 2, 0.0), np.eye(2)[None],
                             kcbs_pair(5, 3).matrix[None])
    counts, estimates = sample_shot_stack(probs, 50000, 11)
    assert payload["counts"] == counts[0].tolist()
    assert list(payload["estimators"].values()) == estimates[0].tolist()
    assert list(payload["probabilities"].values()) == probs[0].tolist()


def test_fourier_test_theta_range_is_checked_in_degrees(tmp_path, capsys):
    out = tmp_path / "fourier.json"
    assert run_cli("fourier-test", "--n", "5", "--theta", "200", "--phi", "0", "--alice", "id",
                   "--bob", "b0", "--out", str(out)) == cli.EXIT_DOMAIN
    assert "theta must lie in [0, 180] degrees, got 200.0" in capsys.readouterr().err
    assert not out.exists()


def test_fourier_test_rejects_unknown_bob(tmp_path, capsys):
    out = tmp_path / "fourier.json"
    code = run_cli("fourier-test", "--n", "5", "--theta", "90", "--phi", "0",
                   "--alice", "id", "--bob", "nope", "--out", str(out))
    assert code == cli.EXIT_USAGE
    assert not out.exists()
    capsys.readouterr()


def test_unknown_bob_from_a_config_file_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "fourier.json"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bob": "nope"}))
    assert run_cli("fourier-test", "--config", str(config), "--n", "5", "--theta", "90",
                   "--phi", "0", "--alice", "id", "--out", str(out)) == cli.EXIT_USAGE
    assert "unknown Bob observable" in capsys.readouterr().err
    assert not out.exists()


def test_fourier_test_pair_index_must_be_an_integer(tmp_path, capsys):
    out = tmp_path / "fourier.json"
    args = ("fourier-test", "--n", "5", "--theta", "90", "--phi", "0", "--alice", "id")
    assert run_cli(*args, "--bob", "pair:x", "--out", str(out)) == cli.EXIT_USAGE
    assert "integer J" in capsys.readouterr().err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bob": "pair:x"}))
    assert run_cli(*args, "--config", str(config), "--out", str(out)) == cli.EXIT_USAGE
    assert "integer J" in capsys.readouterr().err
    # An integer J outside the cycle stays a domain error.
    assert run_cli(*args, "--bob", "pair:5", "--out", str(out)) == cli.EXIT_DOMAIN
    assert "pair index" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--theta", "--phi"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_fourier_test_rejects_non_finite_angles(tmp_path, capsys, flag, value):
    out = tmp_path / "fourier.json"
    angles = {"--theta": "90", "--phi": "0", flag: value}
    assert run_cli("fourier-test", "--n", "5", *(f"{k}={v}" for k, v in angles.items()),
                   "--alice", "w0", "--bob", "b0", "--out", str(out)) == cli.EXIT_USAGE
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["shots", "seed"])
def test_config_list_is_a_usage_error_for_scalar_flags(tmp_path, capsys, key):
    out = tmp_path / "fourier.json"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: [0]}))
    assert run_cli("fourier-test", "--config", str(config), "--n", "5", "--theta", "90",
                   "--phi", "0", "--alice", "id", "--bob", "b0",
                   "--out", str(out)) == cli.EXIT_USAGE
    assert "does not take a list" in capsys.readouterr().err
    assert not out.exists()


def test_config_lists_for_grid_flags(tmp_path, capsys):
    out = tmp_path / "landscape.csv"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"theta": [30, 60], "phi": [0]}))
    assert run_cli("landscape", "--config", str(config), "--n", "5", "--out", str(out)) == 0
    _, rows, _ = read_csv(str(out))
    assert [(float(r[1]), float(r[2])) for r in rows] == [(30.0, 0.0), (60.0, 0.0)]
    out.unlink()
    config.write_text(json.dumps({"theta": [30, "60"], "phi": [0]}))
    assert run_cli("landscape", "--config", str(config), "--n", "5",
                   "--out", str(out)) == cli.EXIT_USAGE
    assert "invalid list entry" in capsys.readouterr().err
    # Each entry then goes through the flag's own parser: angles must be finite, sizes integers.
    for entry in (float("nan"), 10**400):  # 10**400 is past the float range
        config.write_text(json.dumps({"theta": [30, entry], "phi": [0]}))
        assert run_cli("landscape", "--config", str(config), "--n", "5",
                       "--out", str(out)) == cli.EXIT_USAGE
        assert "finite" in capsys.readouterr().err
    config.write_text(json.dumps({"n": [5, 7.0]}))
    assert run_cli("coexist", "--config", str(config), "--out", str(out)) == cli.EXIT_USAGE
    assert "'n'" in capsys.readouterr().err
    assert not out.exists()


def test_config_angle_list_is_echoed_as_a_list(tmp_path):
    out = tmp_path / "landscape.csv"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"theta": [30, 60, 90], "phi": [0]}))
    assert run_cli("landscape", "--config", str(config), "--n", "5", "--out", str(out)) == 0
    _, rows, metadata = read_csv(str(out))
    assert [float(r[1]) for r in rows] == [30.0, 60.0, 90.0]
    assert metadata["theta"] == "30,60,90"
    assert metadata["phi"] == "0"


@pytest.mark.parametrize("grid, echo", [("0:180:181", "0:180:181"),
                                        ("0.1234567:90:2", "0.1234567:90:2"),
                                        ("0.1:1e-07:3", "0.1:1e-07:3"),
                                        ("1.00000001:2:2", "1.00000001:2:2")])
def test_grid_echo_reads_back_as_the_same_grid(tmp_path, grid, echo):
    out = tmp_path / "landscape.csv"
    assert run_cli("landscape", "--n", "5", "--theta", grid, "--phi", "0:0:1",
                   "--out", str(out)) == 0
    metadata = read_csv(str(out))[2]
    assert metadata["theta"] == echo
    assert np.array_equal(cli.angle_grid(metadata["theta"]), cli.angle_grid(grid))


# The README commands with an output file (the analytic grid shrunk), plus config-file lists.
_README_RUNS = {
    "observables": ["observables", "--n", "5"],
    "landscape-analytic": ["landscape", "--n", "5", "--theta", "0:180:19", "--phi", "0:360:37",
                           "--mode", "analytic"],
    "landscape-circuit": ["landscape", "--n", "5", "--theta", "30:90:3", "--phi", "0:180:2",
                          "--mode", "circuit", "--shots", "20000", "--seed", "7"],
    "coexist": ["coexist", "--n", "5:55:2"],
    "scaling": ["scaling", "--n", "5:999:2"],
    "fourier-test": ["fourier-test", "--n", "5", "--theta", "49.605", "--phi", "0", "--alice",
                     "w0", "--bob", "bmbm1", "--shots", "100000", "--seed", "1"],
    "landscape-config-list": ["landscape", "--n", "5", {"theta": [30, 60.5, 90], "phi": [0]}],
    "coexist-config-list": ["coexist", {"n": [5, 7, 11]}],
    "coexist-falling": ["coexist", "--n", "9,7,5"],  # evenly spaced, but no positive step
    "coexist-repeated": ["coexist", "--n", "5,5,5"],
}


@pytest.mark.parametrize("name", _README_RUNS)
def test_echoed_metadata_reads_back_as_the_same_run(tmp_path, name):
    # Rerun with flags rebuilt from the file's own metadata; the file must come out the same.
    argv = list(_README_RUNS[name])
    if isinstance(argv[-1], dict):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(argv.pop()))
        argv += ["--config", str(config)]
    first, second = tmp_path / "first.out", tmp_path / "second.out"
    assert run_cli(*argv, "--out", str(first), "--no-timestamp") == 0
    if argv[0] in ("observables", "fourier-test"):
        metadata = json.loads(first.read_text())["metadata"]
    else:
        metadata = read_csv(str(first))[2]
    flags = cli.build_parser()[1][metadata.pop("command")][2]
    assert set(metadata) - set(flags) <= {"seed_scheme", "loglog_slope"}
    rebuilt = [f"--{key.replace('_', '-')}={value}" for key, value in metadata.items()
               if key in flags and value != ""]
    assert run_cli(argv[0], *rebuilt, "--out", str(second), "--no-timestamp") == 0
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("command, args", [
    ("landscape", ["--theta", "0:0:1", "--phi", "0:0:1", "--mode", "circuit", "--shots", "10"]),
    ("observables", []),
])
def test_a_size_too_large_for_memory_is_a_domain_error(tmp_path, capsys, command, args):
    # n = 10**15 + 1 asks numpy for about 7 PiB, beyond the address space, so the
    # request is refused before anything is allocated.
    out = tmp_path / "out"
    assert run_cli(command, "--n", str(10**15 + 1), *args, "--out", str(out)) == cli.EXIT_DOMAIN
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("via_config", [False, True])
def test_a_grid_too_large_for_memory_is_a_domain_error(monkeypatch, tmp_path, capsys, via_config):
    # The grid is built while the flags are parsed; the refused allocation is
    # simulated rather than asked of numpy.
    counts = []

    def refuse(start, stop, count):
        counts.append(count)
        raise MemoryError(f"Unable to allocate {count * 8} bytes")

    monkeypatch.setattr(cli.np, "linspace", refuse)
    out, config = tmp_path / "out.csv", tmp_path / "config.json"
    grid = ["--theta", "0:180:100000000000"]
    if via_config:
        config.write_text(json.dumps({"theta": "0:180:100000000000"}))
        grid = ["--config", str(config)]
    assert run_cli("landscape", "--n", "5", *grid, "--phi", "0",
                   "--out", str(out)) == cli.EXIT_DOMAIN
    assert counts == [100000000000]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def test_io_error_leaves_no_partial_file(tmp_path, capsys):
    missing_dir = tmp_path / "not-here" / "out.csv"
    code = run_cli("coexist", "--n", "5:5:1", "--out", str(missing_dir))
    assert code == cli.EXIT_IO
    assert not missing_dir.exists()
    assert not (tmp_path / "not-here").exists()
    capsys.readouterr()


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 7}))
    assert run_cli("threshold", "--config", str(config)) == 0
    assert capsys.readouterr().out.strip() == "0.784851"
    # An explicit flag wins over the config file.
    assert run_cli("threshold", "--config", str(config), "--n", "5") == 0
    assert capsys.readouterr().out.strip() == "0.723607"


def test_missing_config_file_is_an_io_error(tmp_path, capsys):
    assert run_cli("threshold", "--n", "5",
                   "--config", str(tmp_path / "absent.json")) == cli.EXIT_IO
    assert "I/O error" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"{n: 5}", b"\xff\xfe{}"])
def test_config_file_that_is_not_json_is_a_usage_error(tmp_path, capsys, content):
    config = tmp_path / "config.json"
    config.write_bytes(content)
    assert run_cli("threshold", "--config", str(config), "--n", "5") == cli.EXIT_USAGE
    assert "is not valid JSON" in capsys.readouterr().err


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bogus": 1}))
    assert run_cli("threshold", "--config", str(config), "--n", "5") == cli.EXIT_USAGE
    capsys.readouterr()


def test_config_keys_are_the_command_flags(tmp_path, capsys):
    # A config file cannot name --config or --help, but it can set a boolean flag.
    config = tmp_path / "config.json"
    for key in ("config", "help"):
        config.write_text(json.dumps({key: "x"}))
        assert run_cli("threshold", "--config", str(config), "--n", "5") == cli.EXIT_USAGE
        assert f"config key {key!r} is not a flag" in capsys.readouterr().err
    out = tmp_path / "coexist.csv"
    config.write_text(json.dumps({"no-timestamp": True}))
    assert run_cli("coexist", "--config", str(config), "--n", "5", "--out", str(out)) == 0
    assert "# timestamp:" not in out.read_text()


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_boolean_config_flag_takes_only_json_booleans(tmp_path, capsys, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"no-timestamp": value}))
    out = tmp_path / "coexist.csv"
    assert run_cli("coexist", "--config", str(config), "--n", "5", "--out", str(out)) == \
        cli.EXIT_USAGE
    assert "no-timestamp" in capsys.readouterr().err
    assert not out.exists()
    # JSON false keeps the timestamp.
    config.write_text(json.dumps({"no-timestamp": False}))
    assert run_cli("coexist", "--config", str(config), "--n", "5", "--out", str(out)) == 0
    assert "timestamp" in read_csv(str(out))[2]


@pytest.mark.parametrize("command, args", [
    ("landscape", ["--n", "5", "--theta", "30:60:2", "--phi", "0:0:1", "--mode", "circuit",
                   "--shots", "10"]),
    ("landscape", ["--n", "5", "--theta", "30:60:2", "--phi", "0:0:1"]),
    ("fourier-test", ["--n", "5", "--theta", "30", "--phi", "0", "--alice", "w0", "--bob", "b0",
                      "--shots", "10"]),
])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command, args):
    out = tmp_path / "out"
    assert run_cli(command, *args, "--seed", "-1", "--out", str(out)) == cli.EXIT_USAGE
    assert "--seed" in capsys.readouterr().err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": -1}))
    assert run_cli(command, *args, "--config", str(config), "--out", str(out)) == cli.EXIT_USAGE
    assert "'seed'" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli(command, *args, "--seed", "0", "--out", str(out), "--no-timestamp") == 0


def test_config_echoed_into_metadata(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": "7:7:1"}))
    out = tmp_path / "coexist.csv"
    assert run_cli("coexist", "--config", str(config), "--out", str(out)) == 0
    _, rows, metadata = read_csv(str(out))
    assert [int(r[0]) for r in rows] == [7]
    assert metadata["n"] == "7"
    assert metadata["command"] == "coexist"


def test_scaling_solves_all_sizes_in_a_few_kernel_calls(tmp_path, monkeypatch):
    calls = []
    kernel = experiments.analytic.state1_margins

    def spy(theta, phi, n):
        calls.append(np.size(n))
        return kernel(theta, phi, n)

    monkeypatch.setattr(experiments.analytic, "state1_margins", spy)
    out = tmp_path / "scaling.csv"
    assert run_cli("scaling", "--n", "5:999:2", "--out", str(out), "--no-timestamp") == 0
    assert len(read_csv(str(out))[1]) == 498
    assert len(calls) <= 60


def test_scaling_slope_is_fitted_over_the_written_rows(tmp_path):
    out = tmp_path / "scaling.csv"
    assert run_cli("scaling", "--n", "5:99:4", "--out", str(out)) == 0
    _, rows, metadata = read_csv(str(out))
    sizes = list(range(5, 100, 4))
    assert [int(r[0]) for r in rows] == sizes and len(rows) == 24
    overlaps = experiments.coexistence_points(sizes)["overlap"]
    slope = np.polyfit(np.log(sizes), np.log(overlaps), 1)[0]
    assert metadata["loglog_slope"] == "%.9g" % slope
    written = np.polyfit(np.log(sizes), np.log([float(r[2]) for r in rows]), 1)[0]
    assert float(metadata["loglog_slope"]) == pytest.approx(written, rel=1e-7)


def test_scaling_fits_no_slope_through_one_distinct_size(tmp_path, capsys):
    # Repeated sizes fix no slope: no metadata line, and no fit to warn about.
    out = tmp_path / "scaling.csv"
    assert run_cli("scaling", "--n", "5,5", "--out", str(out)) == 0
    _, rows, metadata = read_csv(str(out))
    assert [r[0] for r in rows] == ["5", "5"]
    assert "loglog_slope" not in metadata
    assert capsys.readouterr().err == ""
    # A repeated size among distinct ones leaves the fit where it was.
    assert run_cli("scaling", "--n", "5,5,7", "--out", str(out)) == 0
    with_repeat = float(read_csv(str(out))[2]["loglog_slope"])
    assert run_cli("scaling", "--n", "5,7", "--out", str(out)) == 0
    assert with_repeat == pytest.approx(float(read_csv(str(out))[2]["loglog_slope"]),
                                        rel=1e-8)


@pytest.mark.parametrize("command", ["coexist", "scaling"])
def test_residual_above_tolerance_is_a_domain_error(tmp_path, capsys, command):
    # At n = 1e8 + 1 the margins lose about n^2 eps to cancellation and
    # cannot meet to RESIDUAL_TOL at any angle.
    out = tmp_path / "out.csv"
    assert run_cli(command, "--n", "100000001", "--out", str(out)) == cli.EXIT_DOMAIN
    err = capsys.readouterr().err
    assert "n = 100000001" in err and "RESIDUAL_TOL" in err
    assert not out.exists()


def test_scaling_rejects_even_cycles(tmp_path, capsys):
    out = tmp_path / "scaling.csv"
    assert run_cli("scaling", "--n", "5:9:1", "--out", str(out)) == cli.EXIT_DOMAIN
    assert not out.exists()
    capsys.readouterr()


def test_validate_command_passes(capsys):
    # One line per row of the library suite, then the count line.
    rows = experiments.run_validation()
    assert run_cli("validate") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"{len(rows)}/{len(rows)} checks passed"
    assert len(lines) == len(rows) + 1
    for line, (name, value, tolerance, ok) in zip(lines, rows):
        assert line == f"[PASS] {name}: {value:.3g} <= {tolerance:g}"


def test_validate_failure_exits_1(monkeypatch, capsys):
    rows = [("first gap", 1e-13, 1e-12, True), ("second gap", 3e-9, 1e-10, False)]
    monkeypatch.setattr(cli.experiments, "run_validation", lambda: rows)
    assert run_cli("validate") == cli.EXIT_VALIDATION
    assert capsys.readouterr().out.splitlines() == [
        "[PASS] first gap: 1e-13 <= 1e-12",
        "[FAIL] second gap: 3e-09 <= 1e-10",
        "1/2 checks passed",
    ]


def _nan_estimators(probs):
    return np.full(np.shape(probs), math.nan)


@pytest.mark.parametrize("module, name, patch, row", [
    ("analytic", "chsh_value", lambda *args: math.nan, "closed-form CHSH vs matrices"),
    ("circuits", "estimators", _nan_estimators, "Fourier test vs analytic correlators"),
], ids=["chsh_value", "fourier_estimators"])
def test_validate_fails_on_a_nan_value(monkeypatch, capsys, module, name, patch, row):
    # A NaN gap must make its row fail, not vanish from a running maximum.
    monkeypatch.setattr(getattr(experiments, module), name, patch)
    assert run_cli("validate") == cli.EXIT_VALIDATION
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
    assert len(failed) == 1
    assert failed[0].startswith(f"[FAIL] {row}, max gap: nan <= ")


def test_module_entry_point():
    import subprocess
    import sys
    result = subprocess.run([sys.executable, "-m", "chsh_kcbs", "threshold", "--n", "9"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.strip() == "0.823497"
