"""End-to-end tests of the command-line surface."""

import errno
import json
import math
import os
import sys

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


def test_help_shows_required_flags_without_brackets(capsys):
    assert run_cli("landscape", "--help") == 0
    usage = " ".join(capsys.readouterr().out.split("\n\n")[0].split())
    for flag in ("--n N", "--theta THETA", "--phi PHI", "--out OUT"):
        assert f" {flag}" in usage and f"[{flag}]" not in usage
    assert "[--mode {analytic,circuit}] [--shots SHOTS] [--seed SEED]" in usage


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
    assert np.allclose(s, s_operator(5), atol=1e-12)
    labels = [entry["label"] for entry in payload["kcbs_observables"]]
    assert labels == [f"B_{j}" for j in range(5)]
    assert payload["metadata"]["command"] == "observables"


_FOURIER_TEST = ("fourier-test", "--n", "7", "--theta", "120", "--phi", "21", "--alice", "w0",
                 "--bob", "pair:3")


@pytest.mark.parametrize("argv", [("observables", "--n", "7"), _FOURIER_TEST,
                                  (*_FOURIER_TEST, "--shots", "1000", "--seed", "4")],
                         ids=["observables", "fourier-test-exact", "fourier-test-sampled"])
def test_a_streamed_json_file_is_the_text_of_json_dumps(tmp_path, argv):
    # The writer streams the encoder's chunks; they must join to the one-shot text.
    out = tmp_path / "out.json"
    assert run_cli(*argv, "--out", str(out), "--no-timestamp") == 0
    text = out.read_bytes().decode("utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


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
        chsh, kcbs = state1_margins(float(row[1]), float(row[2]), 5)
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
        assert row[7] == str(np.random.SeedSequence((3, cell)).generate_state(1)[0])


def test_circuit_landscape_matches_term_by_term_protocol_runs(tmp_path):
    # The CSV of a seeded circuit landscape, rebuilt one Fourier test at a
    # time: each term as a one-cell, one-term run_hybrid_tests grid, its outcome-0 count
    # drawn in term order from one generator seeded by the cell seed (scheme 3) and read
    # through the from_p0 estimator.  At n = 101 a cell's KCBS
    # pairs span two blocks of the default BLOCK_TERMS, the wraparound pair alone
    # in the second.
    shots, master_seed = 500, 11
    for n, thetas, phis in ((7, [0.0, 60.0, 120.0, 180.0], [0.0, 45.0, 90.0]),
                            (101, [30.0, 90.0], [0.0, 90.0])):
        _check_term_by_term(tmp_path, n, thetas, phis, shots, master_seed)


def _check_term_by_term(tmp_path, n, thetas, phis, shots, master_seed):
    out = tmp_path / f"landscape-{n}.csv"
    assert run_cli("landscape", "--n", str(n), "--theta", ",".join(map(str, thetas)),
                   "--phi", ",".join(map(str, phis)),
                   "--mode", "circuit", "--shots", str(shots), "--seed", str(master_seed),
                   "--out", str(out), "--no-timestamp") == 0

    bm, b0 = bm_bm1_closed_form(n).matrix, b0_closed_form(n).matrix
    lines = ["n,theta_deg,phi_deg,chsh_margin,kcbs_margin,mode,shots,seed\n"]
    for cell, (theta, phi) in enumerate((t, p) for t in thetas for p in phis):
        state = prepare_state1(math.radians(theta), math.radians(phi))
        co = chsh_coefficients(state[0], n)
        r0, r2 = alice_rotation(co.omega0).matrix, alice_rotation(co.omega2).matrix
        terms = [(r2, bm), (r2, b0), (r0, bm), (r0, b0)]
        terms += [(np.eye(2), kcbs_pair(n, j).matrix) for j in range(n)]
        cell_seed = np.random.SeedSequence((master_seed, cell)).generate_state(1)[0]
        rng = np.random.default_rng(cell_seed)
        estimates = []
        for alice, bob in terms:
            p0 = run_hybrid_tests(state, alice[None, None], bob[None])[0, 0, 0]
            f0 = rng.binomial(shots, min(max(p0, 0.0), 1.0)) / shots
            estimates.append((9.0 * f0 - 5.0) / 4.0)
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
    assert read_csv(str(circuit))[2]["seed_scheme"] == "3"
    assert "seed_scheme" not in read_csv(str(analytic))[2]


def test_multi_block_landscape_matches_one_kernel_call(tmp_path):
    thetas, phis = np.linspace(0, 180, 67), np.linspace(0, 360, 1001)
    assert thetas.size * phis.size > experiments.BLOCK_CELLS
    out = tmp_path / "landscape.csv"
    assert run_cli("landscape", "--n", "7", "--theta", "0:180:67", "--phi", "0:360:1001",
                   "--out", str(out), "--no-timestamp") == 0
    _, rows, _ = read_csv(str(out))
    chsh, kcbs = state1_margins(thetas[:, None], phis, 7)
    expected = [["7", "%.9g" % t, "%.9g" % p, "%.9g" % c, "%.9g" % k, "analytic", "", ""]
                for t, p, c, k in zip(np.repeat(thetas, phis.size).tolist(),
                                      np.tile(phis, thetas.size).tolist(), chsh.ravel().tolist(),
                                      np.repeat(kcbs, phis.size).tolist())]
    assert rows == expected


@pytest.mark.parametrize("block, n, theta, phi", [
    (7, 5, "0:180:5", "-30:330:16"),  # rows wider than a block: row slices and a remainder
    (7, 5, "0:180:9", "0:360:3"),  # several rows per block and a short last block
    (None, 100000001, "0,90,180", "0:360:5"),  # CHSH in exponent form at theta = 0 and 180
    (None, 7, "0,12.5,180", "-90,-1e-7,0,45"),  # negative phi and comma lists
])
def test_landscape_bytes_match_per_field_formatting(monkeypatch, tmp_path, block, n, theta, phi):
    # The writer formats theta and KCBS once per row and phi once per block;
    # the bytes must be those of formatting every field of every cell alone.
    if block is not None:
        monkeypatch.setattr(experiments, "BLOCK_CELLS", block)
    out = tmp_path / "landscape.csv"
    assert run_cli("landscape", "--n", str(n), f"--theta={theta}", f"--phi={phi}",
                   "--out", str(out), "--no-timestamp") == 0
    thetas, phis = np.array(cli.angle_grid(theta)), np.array(cli.angle_grid(phi))
    chsh, kcbs = state1_margins(thetas[:, None], phis, n)
    expected = "".join(
        f"{n},{'%.9g' % t},{'%.9g' % p},{'%.9g' % c},{'%.9g' % k},analytic,,\n"
        for t, p, c, k in zip(np.repeat(thetas, phis.size).tolist(),
                              np.tile(phis, thetas.size).tolist(), chsh.ravel().tolist(),
                              np.repeat(kcbs, phis.size).tolist()))
    header = ",".join(experiments.LandscapeTable.header)
    assert out.read_text().endswith(f"\n{header}\n{expected}")
    if n == 100000001:
        # The CHSH margin at theta = 0 is -4(1 - c)/(1 + c), about -pi^2/n^2.
        assert ",-9.8696042e-16," in expected


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


@pytest.mark.parametrize("argv, value", [
    (("landscape", "--n", "5", "--theta", "0:180:3"), "-90:90:3"),
    (("landscape", "--n", "5", "--theta", "0:180:3"), "-45,45"),
    (("fourier-test", "--n", "5", "--theta", "30", "--alice", "w0", "--bob", "b0"), "-1e-3"),
])
def test_a_negative_value_after_a_space_writes_the_bytes_of_the_equals_form(tmp_path, argv,
                                                                           value):
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    assert run_cli(*argv, "--phi", value, "--no-timestamp", "--out", str(spaced)) == 0
    assert run_cli(*argv, f"--phi={value}", "--no-timestamp", "--out", str(joined)) == 0
    assert spaced.read_bytes() == joined.read_bytes()


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
def test_shots_above_the_binomial_count_limit_are_a_usage_error(tmp_path, capsys, command, args):
    out = tmp_path / "out"
    for shots in (2**63, 10**20):
        assert run_cli(command, *args, "--shots", str(shots), "--out", str(out)) == cli.EXIT_USAGE
        assert "positive integer <= 2**63 - 1" in capsys.readouterr().err
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"shots": shots}))
        assert run_cli(command, *args, "--config", str(config),
                       "--out", str(out)) == cli.EXIT_USAGE
        assert "argument --shots: must be a positive integer" in capsys.readouterr().err
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
    # The written probabilities are the whole protocol run as one circuit, within 1e-15,
    # and the estimators are their stacked readout.
    theta = math.radians(49.605)
    alice = alice_rotation(chsh_coefficients(state1(theta, 0.0), 5).omega0).matrix
    expected = three_register_probabilities(theta, 0.0, alice, bm_bm1_closed_form(5).matrix)
    assert np.max(np.abs(np.array(list(probs.values())) - expected)) <= 1e-15
    written = list(probs.values())
    assert list(payload["estimators"].values()) == estimators([written])[0].tolist()


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
    # Counts and estimators are the library's one-cell, one-test shot stack at the same seed.
    probs = run_hybrid_tests(prepare_state1(math.pi / 2, 0.0), np.eye(2)[None, None],
                             kcbs_pair(5, 3).matrix[None])
    counts, estimates = sample_shot_stack(probs, 50000, [11])
    assert payload["counts"] == counts[0, 0].tolist()
    assert list(payload["estimators"].values()) == estimates[0, 0].tolist()
    assert list(payload["probabilities"].values()) == probs[0, 0].tolist()


@pytest.mark.parametrize("theta, phi, change", [("31", "21", "swap"), ("31", "21", "p1 up one ulp"),
                                               ("59", "0", "p2 down one ulp")])
def test_fourier_test_counts_read_outcome_0_alone(tmp_path, monkeypatch, theta, phi, change):
    # P(1) = P(2) up to rounding.  Swapping them, or moving either by one ulp, moves no
    # count and no estimator: outcome 0 is drawn, then the other shots split at exactly 1/2.
    # At these inputs a multinomial draw of the three outcomes moves its counts.
    argv = ("fourier-test", "--n", "5", "--theta", theta, "--phi", phi, "--alice", "w0",
            "--bob", "pair:3", "--shots", "1000", "--seed", "4", "--no-timestamp", "--out")
    assert run_cli(*argv, str(tmp_path / "base.json")) == 0
    run = cli.circuits.run_hybrid_tests

    def changed(states, alice_ops, bob_ops):
        probs = run(states, alice_ops, bob_ops)
        p1, p2 = probs[..., 1].copy(), probs[..., 2].copy()
        if change == "swap":
            probs[..., 1], probs[..., 2] = p2, p1
        elif change == "p1 up one ulp":
            probs[..., 1] = np.nextafter(p1, 1.0)
        else:
            probs[..., 2] = np.nextafter(p2, 0.0)
        return probs

    monkeypatch.setattr(cli.circuits, "run_hybrid_tests", changed)
    assert run_cli(*argv, str(tmp_path / "changed.json")) == 0
    base, got = (json.loads((tmp_path / name).read_text())
                 for name in ("base.json", "changed.json"))
    assert got["probabilities"] != base["probabilities"]
    assert got["counts"] == base["counts"] and got["estimators"] == base["estimators"]


@pytest.mark.parametrize("mode", [(), ("--mode", "circuit", "--shots", "100", "--seed", "2")],
                         ids=["analytic", "circuit"])
def test_a_huge_phi_writes_the_margins_of_the_angle_it_names(tmp_path, mode):
    # phi is reduced modulo 360 degrees, exactly, before it becomes radians, so each huge
    # phi writes the margin columns of its reduced angle byte for byte; the phi column and
    # the echo keep phi as given.
    def landscape(phi):
        out = tmp_path / "landscape.csv"
        assert run_cli("landscape", "--n", "5", "--theta", "0:180:7", f"--phi={phi}", *mode,
                       "--no-timestamp", "--out", str(out)) == 0
        _, rows, metadata = read_csv(str(out))
        return [row[3:] for row in rows], {row[2] for row in rows}, metadata["phi"]

    for given, reduced in (("10000000030", "310"), ("1e15", "280"), ("1e300", "0"),
                           ("-1e300", "0")):
        margins, phis, echo = landscape(given)
        assert margins == landscape(reduced)[0], given
        assert phis == {"%.9g" % float(given)} and float(echo) == float(given)


@pytest.mark.parametrize("shots", [(), ("--shots", "1000", "--seed", "4")], ids=["exact", "shots"])
def test_fourier_test_at_a_huge_phi_writes_the_values_of_the_angle_it_names(tmp_path, shots):
    payloads = []
    for phi in ("1e300", "0"):
        out = tmp_path / f"fourier-{phi}.json"
        assert run_cli("fourier-test", "--n", "5", "--theta", "90", f"--phi={phi}", "--alice",
                       "w0", "--bob", "b0", *shots, "--out", str(out)) == 0
        payloads.append(json.loads(out.read_text()))
    huge, zero = payloads
    for key in ("probabilities", "counts", "estimators", "exact_value"):
        assert huge[key] == zero[key], key
    assert huge["phi_deg"] == 1e300


@pytest.mark.parametrize("n, j", [(3037000501, 3037000499), (10**30 + 1, 10**30 - 1)],
                         ids=["j-n-beyond-int64", "n-beyond-int64"])
def test_fourier_test_reads_any_pair_of_a_huge_cycle(tmp_path, n, j):
    # Cycle rows are built from j pi / n, so no J (n - 1) product has to fit 64 bits.
    out = tmp_path / "fourier.json"
    assert run_cli("fourier-test", "--n", str(n), "--theta", "90", "--phi", "0", "--alice", "id",
                   "--bob", f"pair:{j}", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["bob"] == f"B_{j} B_{j + 1}"
    assert math.isfinite(payload["exact_value"])


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


@pytest.mark.parametrize("value", [5, True, 1.5, None, {"path": "x.csv"}])
@pytest.mark.parametrize("command, args", [
    ("coexist", ("--n", "5")),
    ("landscape", ("--n", "5", "--theta", "0:90:2", "--phi", "0")),
])
def test_config_out_must_be_a_string(tmp_path, capsys, monkeypatch, value, command, args):
    # A flag that takes a value but has no type takes a JSON string, as on the command line.
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out": value}))
    assert run_cli(command, *args, "--config", str(config)) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "config key 'out' takes a string" in err
    assert err.count("usage:") == 1
    assert os.listdir(tmp_path) == ["config.json"]


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
    assert "argument --n: invalid literal for int()" in capsys.readouterr().err
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
    flags = cli.build_parser()[1][metadata.pop("command")][1]
    assert set(metadata) - set(flags) <= {"seed_scheme", "loglog_slope"}
    rebuilt = [f"--{key.replace('_', '-')}={value}" for key, value in metadata.items()
               if key in flags and value != ""]
    assert run_cli(argv[0], *rebuilt, "--out", str(second), "--no-timestamp") == 0
    assert second.read_bytes() == first.read_bytes()


# Each README command with an output file, and a negative phi grid, which a config gives as text.
_CONFIG_RUNS = {name: argv for name, argv in _README_RUNS.items() if not isinstance(argv[-1], dict)}
_CONFIG_RUNS["landscape-negative-phi"] = ["landscape", "--n", "5", "--theta", "0:180:3",
                                          "--phi", "-90:90:5"]


@pytest.mark.parametrize("name", _CONFIG_RUNS)
def test_a_config_file_holding_every_flag_writes_the_bytes_of_the_flags(tmp_path, name):
    command, *flags = _CONFIG_RUNS[name]
    by_flags, by_config = tmp_path / "flags.out", tmp_path / "config.out"
    assert run_cli(command, *flags, "--no-timestamp", "--out", str(by_flags)) == 0
    settings = {"no-timestamp": True, "out": str(by_config)}
    for flag, text in zip(flags[::2], flags[1::2]):
        settings[flag.removeprefix("--")] = int(text) if text.isdigit() else text
    config = tmp_path / "config.json"
    config.write_text(json.dumps(settings))
    assert run_cli(command, "--config", str(config)) == 0
    assert by_config.read_bytes() == by_flags.read_bytes()


def test_a_size_too_large_for_memory_is_a_domain_error(tmp_path, capsys):
    # n = 10**15 + 1: the observables ask numpy for about 7 PiB, beyond the address
    # space, and are refused before anything is allocated.
    out = tmp_path / "out"
    assert run_cli("observables", "--n", str(10**15 + 1), "--out", str(out)) == cli.EXIT_DOMAIN
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


BEYOND_A_FLOAT = 10**400 + 1


@pytest.mark.parametrize("command, sizes, args", [
    ("threshold", str(BEYOND_A_FLOAT), []),
    ("observables", str(BEYOND_A_FLOAT), ["--out", "out.json"]),
    ("landscape", str(BEYOND_A_FLOAT), ["--theta", "0", "--phi", "0", "--out", "out.csv"]),
    ("landscape", str(BEYOND_A_FLOAT), ["--theta", "0", "--phi", "0", "--mode", "circuit",
                                        "--shots", "10", "--out", "out.csv"]),
    ("coexist", str(BEYOND_A_FLOAT), ["--out", "out.csv"]),
    ("coexist", f"5,{BEYOND_A_FLOAT}", ["--out", "out.csv"]),
    ("scaling", f"5,{BEYOND_A_FLOAT}", ["--out", "out.csv"]),
    ("fourier-test", str(BEYOND_A_FLOAT), ["--theta", "30", "--phi", "0", "--alice", "w0",
                                           "--bob", "b0", "--out", "out.json"]),
], ids=["threshold", "observables", "landscape", "circuit-landscape", "coexist", "coexist-list",
        "scaling-list", "fourier-test"])
def test_a_size_beyond_a_float_is_a_domain_error(tmp_path, capsys, monkeypatch, command, sizes,
                                                 args):
    # The cycle constants need n as a float; a larger n is refused by name, not
    # left to an OverflowError traceback under the validation-failure code.
    monkeypatch.chdir(tmp_path)
    assert run_cli(command, "--n", sizes, *args) == cli.EXIT_DOMAIN
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cycle size must be an odd integer in [5, ")
    assert err[0].endswith(f"got {BEYOND_A_FLOAT}")
    assert os.listdir(tmp_path) == []


LARGEST_ODD_SIZE = int(sys.float_info.max) - 1


@pytest.mark.parametrize("command, args", [
    ("threshold", []),
    ("landscape", ["--theta", "0:180:3", "--phi", "0:90:2", "--out", "out.csv"]),
    ("fourier-test", ["--theta", "45", "--phi", "0", "--alice", "w0", "--bob", "bmbm1",
                      "--out", "out.json"]),
])
def test_the_largest_odd_size_runs_with_no_overflow_warning(tmp_path, monkeypatch, capsys,
                                                            command, args):
    # The suite turns warnings into errors: an overflow inside the cycle constants,
    # such as 2 n beyond the largest float, would fail this run.
    monkeypatch.chdir(tmp_path)
    assert run_cli(command, "--n", str(LARGEST_ODD_SIZE), *args) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["coexist", "scaling"])
def test_the_largest_odd_size_solves_with_no_overflow_warning(tmp_path, capsys, command):
    # The overlap, 8/n = 4.45e-308, is still a normal float, and no product of sizes
    # or of margin gaps is formed; the suite's warnings are errors.
    out = tmp_path / "out.csv"
    assert run_cli(command, "--n", str(LARGEST_ODD_SIZE), "--out", str(out)) == 0
    assert capsys.readouterr().err == ""
    row = read_csv(str(out))[1][0]
    assert row[0] == str(LARGEST_ODD_SIZE)
    assert float(row[2]) * LARGEST_ODD_SIZE == pytest.approx(8.0, rel=1e-8)


@pytest.mark.parametrize("sizes", [
    "5:99999999999999999999:2",  # more sizes than a list can hold
    "5:2000000000000001:2",  # 10**15 sizes, 8 PB of pointers, beyond the address space
])
def test_a_cycle_range_too_long_for_memory_is_a_domain_error(tmp_path, capsys, sizes):
    out = tmp_path / "out.csv"
    assert run_cli("coexist", "--n", sizes, "--out", str(out)) == cli.EXIT_DOMAIN
    assert capsys.readouterr().err.splitlines() == [
        f"error: cycle range {sizes!r} has too many sizes for memory"]
    assert os.listdir(tmp_path) == []


def test_io_error_leaves_no_partial_file(tmp_path, capsys):
    _check_missing_parent(tmp_path, capsys, "coexist", "--n", "5:5:1")


def test_json_io_error_names_the_output_path(tmp_path, capsys):
    _check_missing_parent(tmp_path, capsys, "fourier-test", "--n", "5", "--theta", "30",
                          "--phi", "0", "--alice", "w0", "--bob", "b0")


def _check_missing_parent(tmp_path, capsys, *argv):
    missing_dir = tmp_path / "not-here" / "out"
    code = run_cli(*argv, "--out", str(missing_dir))
    assert code == cli.EXIT_IO
    # The message names the output path, not the temp file beside it.
    assert capsys.readouterr().err.splitlines() == [
        f"I/O error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {str(missing_dir)!r}"]
    assert not missing_dir.exists()
    assert not (tmp_path / "not-here").exists()


# Every command that writes a file, on inputs that take seconds to compute.
_OUT_COMMANDS = [
    ("landscape", ["--n", "5", "--theta", "0:180:2001", "--phi", "0:360:721"]),
    ("fourier-test", ["--n", "5", "--theta", "30", "--phi", "0", "--alice", "w0", "--bob", "b0"]),
    ("coexist", ["--n", "5:1000001:2"]),
    ("scaling", ["--n", "5:1000001:2"]),
    ("observables", ["--n", "20001"]),
]


def _spy_on_computing(monkeypatch):
    """Record each landscape pass, coexistence solve, cycle build and Fourier test a run starts."""
    computed = []
    for owner, name in ((experiments.LandscapeTable, "blocks"), (experiments, "_coexistence"),
                        (cli.observables, "kcbs_vectors"), (cli.circuits, "run_hybrid_tests")):
        monkeypatch.setattr(owner, name, lambda *args, name=name: computed.append(name))
    return computed


@pytest.mark.parametrize("command, args", _OUT_COMMANDS)
def test_an_output_directory_is_refused_before_any_block_is_computed(tmp_path, capsys,
                                                                    monkeypatch, command, args):
    computed = _spy_on_computing(monkeypatch)
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli(command, *args, "--out", str(out)) == cli.EXIT_IO
    assert capsys.readouterr().err.splitlines() == [
        f"I/O error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(out)!r}"]
    assert computed == []
    assert os.listdir(tmp_path) == ["out"] and os.listdir(out) == []


@pytest.mark.parametrize("command, args", _OUT_COMMANDS)
@pytest.mark.parametrize("out", ["", os.path.join("missing", "out")])
def test_an_empty_or_parentless_output_is_refused_before_anything_is_computed(
        tmp_path, capsys, monkeypatch, command, args, out):
    # An empty path names no file; its temp file would go to the working
    # directory's parent, the directory of abspath("").
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    computed = _spy_on_computing(monkeypatch)
    assert run_cli(command, *args, "--out", out) == cli.EXIT_IO
    assert capsys.readouterr().err.splitlines() == [
        f"I/O error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {out!r}"]
    assert computed == []
    assert os.listdir(tmp_path) == ["work"] and os.listdir(work) == []


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
    assert "argument --seed: must be a non-negative integer" in capsys.readouterr().err
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
    kernel = experiments.analytic._chsh_margin

    def spy(weight, geo):
        calls.append(np.size(geo.n))
        return kernel(weight, geo)

    monkeypatch.setattr(experiments.analytic, "_chsh_margin", spy)
    out = tmp_path / "scaling.csv"
    assert run_cli("scaling", "--n", "5:999:2", "--out", str(out), "--no-timestamp") == 0
    assert len(read_csv(str(out))[1]) == 498
    assert len(calls) <= 60
    assert calls == [498] * len(calls)


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
def test_residual_above_tolerance_is_a_domain_error(tmp_path, capsys, monkeypatch, command):
    # A CHSH margin that jumps by 2e-6 where it meets the KCBS margin, at the
    # overlap m, cannot meet it to RESIDUAL_TOL at any overlap.
    kernel = experiments.analytic._chsh_margin
    m = experiments.coexistence_points([100000001])["overlap"][0]

    def jumping(weight, geo):
        chsh = kernel(weight, geo)
        return chsh + np.where(chsh > m, 1e-6, -1e-6)

    monkeypatch.setattr(experiments.analytic, "_chsh_margin", jumping)
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
