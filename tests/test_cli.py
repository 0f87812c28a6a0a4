"""End-to-end tests of the command-line surface."""

import json
import math
import os

import numpy as np
import pytest

from chsh_kcbs import cli, experiments, serialize
from chsh_kcbs.analytic import state1_margins
from chsh_kcbs.observables import b0_closed_form, kcbs_vector, s_operator


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
    header, rows, metadata = serialize.read_csv(str(out))
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
    _, rows, _ = serialize.read_csv(str(out))
    assert [int(r[0]) for r in rows] == [5, 7, 9]


def test_observables_dump_round_trips(tmp_path):
    out = tmp_path / "observables.json"
    assert run_cli("observables", "--n", "5", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 5
    assert len(payload["kcbs_vectors"]) == 5
    assert len(payload["kcbs_observables"]) == 5
    vec = serialize.matrix_from_json(payload["kcbs_vectors"][0]).reshape(-1)
    assert np.allclose(vec, kcbs_vector(5, 0), atol=1e-12)
    b0 = serialize.matrix_from_json(payload["b0"])
    assert np.allclose(b0, b0_closed_form(5).matrix, atol=1e-12)
    s = serialize.matrix_from_json(payload["s_operator"])
    assert np.allclose(s, s_operator(5).matrix, atol=1e-12)
    labels = [entry["label"] for entry in payload["kcbs_observables"]]
    assert labels == [f"B_{j}" for j in range(5)]
    assert payload["metadata"]["command"] == "observables"


def test_landscape_csv_round_trip(tmp_path):
    out = tmp_path / "landscape.csv"
    assert run_cli("landscape", "--n", "5", "--theta", "0:180:5", "--phi", "0:360:5",
                   "--mode", "analytic", "--out", str(out)) == 0
    header, rows, _ = serialize.read_csv(str(out))
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
    _, rows, _ = serialize.read_csv(str(out))
    assert len(rows) == 2
    for cell, row in enumerate(rows):
        assert row[5] == "circuit"
        assert int(row[6]) == 2000
        assert int(row[7]) >= 0
        # Both integer columns are written verbatim: the shot count and the cell seed.
        assert row[6] == "2000"
        assert row[7] == str(experiments._cell_seed(3, cell))


def test_multi_block_landscape_matches_one_kernel_call(tmp_path):
    thetas, phis = np.linspace(0, 180, 67), np.linspace(0, 360, 1001)
    assert thetas.size * phis.size > experiments.BLOCK_CELLS
    out = tmp_path / "landscape.csv"
    assert run_cli("landscape", "--n", "7", "--theta", "0:180:67", "--phi", "0:360:1001",
                   "--out", str(out), "--no-timestamp") == 0
    _, rows, _ = serialize.read_csv(str(out))
    chsh, kcbs = state1_margins(np.deg2rad(thetas)[:, None], np.deg2rad(phis)[None, :], 7)
    expected = [["7", serialize.format_float(t), serialize.format_float(p),
                 serialize.format_float(c), serialize.format_float(k), "analytic", "", ""]
                for t, p, c, k in zip(np.repeat(thetas, phis.size).tolist(),
                                      np.tile(phis, thetas.size).tolist(),
                                      chsh.ravel().tolist(), kcbs.ravel().tolist())]
    assert rows == expected


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
    header, rows, metadata = serialize.read_csv(str(out))
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
    assert code == cli.EXIT_DOMAIN
    assert not out.exists()
    capsys.readouterr()


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
    _, rows, _ = serialize.read_csv(str(out))
    assert [(float(r[1]), float(r[2])) for r in rows] == [(30.0, 0.0), (60.0, 0.0)]
    out.unlink()
    config.write_text(json.dumps({"theta": [30, "60"], "phi": [0]}))
    assert run_cli("landscape", "--config", str(config), "--n", "5",
                   "--out", str(out)) == cli.EXIT_USAGE
    assert "invalid list entry" in capsys.readouterr().err
    assert not out.exists()


def test_config_angle_list_is_echoed_as_a_list(tmp_path):
    out = tmp_path / "landscape.csv"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"theta": [30, 60, 90], "phi": [0]}))
    assert run_cli("landscape", "--config", str(config), "--n", "5", "--out", str(out)) == 0
    _, rows, metadata = serialize.read_csv(str(out))
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
    metadata = serialize.read_csv(str(out))[2]
    assert metadata["theta"] == echo
    assert np.array_equal(cli.angle_grid(metadata["theta"]), cli.angle_grid(grid))


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


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bogus": 1}))
    assert run_cli("threshold", "--config", str(config), "--n", "5") == cli.EXIT_USAGE
    capsys.readouterr()


def test_config_echoed_into_metadata(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": "7:7:1"}))
    out = tmp_path / "coexist.csv"
    assert run_cli("coexist", "--config", str(config), "--out", str(out)) == 0
    _, rows, metadata = serialize.read_csv(str(out))
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
    assert len(serialize.read_csv(str(out))[1]) == 498
    assert len(calls) <= 60


def test_scaling_slope_is_fitted_over_the_written_rows(tmp_path):
    out = tmp_path / "scaling.csv"
    assert run_cli("scaling", "--n", "5:99:4", "--out", str(out)) == 0
    _, rows, metadata = serialize.read_csv(str(out))
    sizes = list(range(5, 100, 4))
    assert [int(r[0]) for r in rows] == sizes and len(rows) == 24
    overlaps = experiments.coexistence_points(sizes)["overlap"]
    slope = np.polyfit(np.log(sizes), np.log(overlaps), 1)[0]
    assert metadata["loglog_slope"] == serialize.format_float(slope)
    written = np.polyfit(np.log(sizes), np.log([float(r[2]) for r in rows]), 1)[0]
    assert float(metadata["loglog_slope"]) == pytest.approx(written, rel=1e-7)


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
    assert run_cli("validate") == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_validate_failure_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(cli.experiments, "run_validation", lambda report: False)
    assert run_cli("validate") == cli.EXIT_VALIDATION
    capsys.readouterr()


def test_module_entry_point():
    import subprocess
    import sys
    result = subprocess.run([sys.executable, "-m", "chsh_kcbs", "threshold", "--n", "9"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.strip() == "0.823497"
