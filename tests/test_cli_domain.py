"""One sweep of the CLI's input domain: every command over a table of edge inputs.

Each case runs ``cli.main`` in-process with warnings as errors.  It must return 0, 2, 3
or 4 (the code the table pins) with no exception escaping; on exit 0 every number in the
output parses and is finite, and on exit 3 the message names the offending value.  On exit
0 the values are checked too: each analytic landscape margin against the textbook forms in
mpmath, and each Fourier test's estimator from its exact probabilities against its exact
value.  Work that is O(n) at a huge n, the observables and circuit landscapes, runs only at
small n.
"""

import json
import math
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from chsh_kcbs import cli
from chsh_kcbs.serialize import FLOAT_FIELD
from helpers import read_csv, textbook_margins

LARGEST = int(sys.float_info.max) - 1  # the largest odd size a float holds
SIZES = {"3": 3, "4": 4, "5": 5, "7": 7, "2**53+1": 2**53 + 1, "1e12+1": 10**12 + 1,
         "2**1020+1": 2**1020 + 1, "largest": LARGEST, "above-largest": LARGEST + 2}
REFUSED_SIZES = (3, 4, LARGEST + 2)
SMALL = ("3", "4", "5", "7", "above-largest")  # O(n) commands run only at these sizes
ACCEPTED = ",".join(str(n) for n in SIZES.values() if n not in REFUSED_SIZES)
ANGLES = ["--theta", "45", "--phi", "0"]
W0 = ["--alice", "w0", "--bob", "bmbm1"]
GRID = ["--theta", "0:180:3", "--phi", "0:90:2"]
CIRCUIT = ["--mode", "circuit", "--shots", "10"]
MODES = {"analytic": [], "circuit": CIRCUIT}


def _case(label, code, argv, value=None, config=None):
    """A table row: the argv, any config file's contents, the pinned code, and on exit 3 the
    offending value the message must name."""
    return pytest.param(argv, config, code, value, id=f"{argv[0]}-{label}")


def _size_cases():
    for label, n in SIZES.items():
        code, value = (3, n) if n in REFUSED_SIZES else (0, None)
        commands = [("", ["threshold"]), ("", ["coexist"]), ("", ["scaling"]),
                    ("", ["landscape", *GRID]), ("", ["fourier-test", *ANGLES, *W0]),
                    ("-pair", ["fourier-test", *ANGLES, "--alice", "id", "--bob", f"pair:{n - 1}"])]
        if label in SMALL:
            commands += [("", ["observables"]), ("-circuit", ["landscape", *GRID, *CIRCUIT])]
        for suffix, (command, *args) in commands:
            yield _case(f"n={label}{suffix}", code, [command, "--n", str(n), *args], value)
        if label in ("4", "above-largest"):
            yield _case(f"config-n={label}", 3, ["threshold"], n, {"n": n})


def _range_cases():
    for command in ("coexist", "scaling"):
        yield _case("mixed-sizes", 0, [command, "--n", ACCEPTED])
        yield _case("mixed-sizes-and-3", 3, [command, "--n", ACCEPTED + ",3"], 3)
        yield _case("mixed-sizes-above-largest", 3, [command, "--n", f"5,{LARGEST + 2}"],
                    LARGEST + 2)
        yield _case("config-mixed-list", 0, [command], config={"n": [5, 7, 2**53 + 1, LARGEST]})
        yield _case("config-list-with-3", 3, [command], 3, {"n": [5, 3]})
        for label, text, code in (("one-size-range", "5:5:2", 0), ("empty-range", "7:5:2", 2),
                                  ("falling-range", "9:5:-2", 2), ("zero-step", "5:9:0", 2),
                                  ("two-part-range", "5:9", 2), ("empty-text", "", 2)):
            yield _case(label, code, [command, "--n", text])
            yield _case(f"config-{label}", code, [command], config={"n": text})


def _angle_cases():
    for label, flag, code, value in (("theta=0", ["--theta", "0"], 0, None),
                                     ("theta=180", ["--theta", "180"], 0, None),
                                     ("theta=-1e-300", ["--theta=-1e-300"], 3, "-1e-300"),
                                     ("theta=-1e-300-space", ["--theta", "-1e-300"], 3,
                                      "-1e-300"),
                                     ("theta=180+1e-7", ["--theta", "180.0000001"], 3,
                                      "180.0000001"),
                                     ("theta=nan", ["--theta", "nan"], 2, None),
                                     ("theta=inf", ["--theta", "inf"], 2, None)):
        for mode, args in MODES.items():
            yield _case(f"{label}-{mode}", code, ["landscape", "--n", "5", *flag, "--phi", "0",
                                                  *args], value)
        yield _case(label, code, ["fourier-test", "--n", "5", *flag, "--phi", "0", *W0], value)
    for label, phi, code in (("phi=1e308", "1e308", 0), ("phi=-1e308-space", "-1e308", 0),
                             ("phi=-1e-3-space", "-1e-3", 0), ("phi=nan", "nan", 2),
                             ("phi=inf", "inf", 2)):
        for mode, args in MODES.items():
            yield _case(f"{label}-{mode}", code, ["landscape", "--n", "5", "--theta", "90",
                                                  "--phi", phi, *args])
        yield _case(label, code, ["fourier-test", "--n", "5", "--theta", "90", "--phi", phi,
                                  *W0])
    for label, phi in (("phi-grid-space", "-90:90:3"), ("phi-list-space", "-45,45")):
        for mode, args in MODES.items():
            yield _case(f"{label}-{mode}", 0, ["landscape", "--n", "5", "--theta", "90",
                                               "--phi", phi, *args])
    for label, theta, code, value in (("falling-grid", "180:0:3", 0, None),
                                      ("count=0", "0:180:0", 2, None),
                                      ("count=1", "0:180:1", 0, None),
                                      ("count=1e12", f"0:180:{10**12}", 3, 10**12),
                                      ("empty-list-entry", "0,", 2, None)):
        for mode, args in MODES.items():
            yield _case(f"{label}-{mode}", code, ["landscape", "--n", "5", "--theta", theta,
                                                  "--phi", "0", *args], value)
    base = ["landscape", "--n", "5", "--phi", "0"]
    for label, config, code, value in (("theta=-1e-300", {"theta": -1e-300}, 3, "-1e-300"),
                                       ("theta=nan-grid", {"theta": "nan:90:2"}, 2, None),
                                       ("theta-list", {"theta": [0, 90, 180]}, 0, None),
                                       ("theta-empty-list", {"theta": []}, 2, None),
                                       ("count=0", {"theta": "0:180:0"}, 2, None),
                                       ("count=1e12", {"theta": f"0:180:{10**12}"}, 3, 10**12)):
        yield _case(f"config-{label}", code, base, value, config)
    yield _case("config-phi=1e308", 0, ["landscape", "--n", "5", "--theta", "90"],
                config={"phi": 1e308})
    yield _case("config-theta=180+1e-7", 3, ["fourier-test", "--n", "5", "--phi", "0", *W0],
                "180.0000001", {"theta": 180.0000001})


def _sampling_cases():
    for label, shots, code in (("shots=0", 0, 2), ("shots=1", 1, 0),
                               ("shots=2**63-1", 2**63 - 1, 0), ("shots=2**63", 2**63, 2),
                               ("shots=-1", -1, 2)):
        for command, args in (("landscape", ["--theta", "90", "--phi", "0", "--mode", "circuit"]),
                              ("fourier-test", [*ANGLES, *W0])):
            yield _case(label, code, [command, "--n", "5", *args, "--shots", str(shots)])
            yield _case(f"config-{label}", code, [command, "--n", "5", *args],
                        config={"shots": shots})
    for label, seed, code in (("seed=-1", -1, 2), ("seed=0", 0, 0)):
        for command, args in (("landscape", ["--theta", "90", "--phi", "0", *CIRCUIT]),
                              ("fourier-test", [*ANGLES, *W0, "--shots", "10"])):
            yield _case(label, code, [command, "--n", "5", *args, "--seed", str(seed)])
            yield _case(f"config-{label}", code, [command, "--n", "5", *args],
                        config={"seed": seed})


def _other_cases():
    yield _case("plain", 0, ["validate"])
    yield _case("config-unknown-key", 2, ["validate"], config={"n": 5})
    yield _case("out-is-a-directory", 4, ["coexist", "--n", "5", "--out", "."])


CASES = [*_size_cases(), *_range_cases(), *_angle_cases(), *_sampling_cases(), *_other_cases()]
OUT = {"observables": "out.json", "fourier-test": "out.json", "landscape": "out.csv",
       "coexist": "out.csv", "scaling": "out.csv"}


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:  # not a number, such as a mode or a label
        return True


def _reject(constant):
    raise ValueError(f"non-finite JSON number {constant}")


def _json_numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for item in node:
            yield from _json_numbers(item)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node


def _check_output(path, stdout: str) -> None:
    """Every number in the file at ``path`` (if any) and on stdout parses and is finite."""
    assert all(_finite(token.strip("[](),:;")) for token in stdout.split()), stdout
    if path is None:
        return
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        numbers = _json_numbers(json.loads(text, parse_constant=_reject))
        assert all(math.isfinite(v) for v in numbers)
        return
    lines = text.splitlines()
    metadata = [line for line in lines if line.startswith("# ")]
    header, *rows = lines[len(metadata):]
    assert rows and all(_finite(line.partition(": ")[2]) for line in metadata)
    for row in rows:
        fields = row.split(",")
        assert len(fields) == len(header.split(",")), row
        assert all(field in ("", "analytic", "circuit") or math.isfinite(float(field))
                   for field in fields), row


def _margin_misses(path, absolute: float) -> list:
    """The analytic margins in the CSV at ``path`` that neither agree with the textbook forms to
    the 9 significant digits written nor lie within ``absolute`` of them.

    The reference runs at max(50, 2 digits(n) + 60) digits, phi reduced exactly mod 360 degrees.
    Every angle the sweep writes reads back from its 9-digit text as the angle it ran.
    """
    mp = pytest.importorskip("mpmath").mp
    header, rows, _ = read_csv(str(path))
    misses = []
    for field in (dict(zip(header, row)) for row in rows):
        n, phi = int(field["n"]), Fraction(float(field["phi_deg"])) % 360
        with mp.workdps(max(50, 2 * len(str(n)) + 60)):
            theta = mp.mpf(float(field["theta_deg"])) * mp.pi / 180
            phi = phi.numerator * mp.pi / (180 * phi.denominator)
            for name, exact in zip(("chsh_margin", "kcbs_margin"),
                                   textbook_margins(mp, n, theta, phi)):
                text = field[name]
                if text != FLOAT_FIELD % float(exact) and abs(float(text) - exact) > absolute:
                    misses.append((field, name, mp.nstr(exact, 12)))
    return misses


def _check_values(argv, path) -> None:
    """An analytic landscape's margins agree with the textbook forms to 9 digits, or within
    the smallest normal float where they underflow (about 1e-614 at n = 2**1020 + 1); a Fourier
    test's estimator from its exact probabilities is within 1e-12 of its exact value."""
    if argv[0] == "landscape" and "circuit" not in argv:
        assert _margin_misses(path, absolute=sys.float_info.min) == []
    elif argv[0] == "fourier-test":
        payload = json.loads(path.read_text(encoding="utf-8"))
        p0, p1, p2 = payload["probabilities"].values()
        assert abs((9.0 * (p0 - p1 - p2) - 1.0) / 8.0 - payload["exact_value"]) <= 1e-12


@pytest.fixture
def no_huge_grid(monkeypatch):
    """Refuse a grid count above 10**7 as numpy refuses an allocation beyond memory, without
    asking the machine for it (10**12 points would be 8 TB)."""
    linspace = np.linspace

    def bounded(start, stop, num=50, **kwargs):
        if num > 10**7:
            raise MemoryError(f"Unable to allocate {8 * num / 2**40:.3g} TiB for an array with "
                              f"shape ({num},) and data type float64")
        return linspace(start, stop, num, **kwargs)

    monkeypatch.setattr(cli.np, "linspace", bounded)


@pytest.mark.parametrize("argv, config, code, value", CASES)
def test_every_command_keeps_the_exit_contract_on_edge_inputs(tmp_path, monkeypatch, capsys,
                                                              no_huge_grid, argv, config, code,
                                                              value):
    monkeypatch.chdir(tmp_path)
    argv = list(argv)
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv += ["--config", "config.json"]
    out = tmp_path / OUT[argv[0]] if argv[0] in OUT and "--out" not in argv else None
    if out is not None:
        argv += ["--out", out.name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cli.main(argv + ["--no-timestamp"])
    captured = capsys.readouterr()
    assert got in (0, 2, 3, 4)
    assert got == code, captured.err
    if got == 0:
        _check_output(out, captured.out)
        _check_values(argv, out)
    if got == 3:
        assert re.search(rf"(?<![\d.]){re.escape(str(value))}(?![\d.])", captured.err), captured.err


def test_the_chsh_margin_at_theta_180_is_right_to_nine_digits_at_n_2_53_plus_1(tmp_path):
    out = tmp_path / "out.csv"
    assert cli.main(["landscape", "--n", str(2**53 + 1), "--theta", "180", "--phi", "0",
                     "--out", str(out), "--no-timestamp"]) == 0
    assert _margin_misses(out, absolute=0.0) == []


@pytest.mark.parametrize("n", [2**53 + 1, 10**17 + 1])
@pytest.mark.parametrize("theta, phi", [("180", "0"), ("90", "90"), ("90", "-90")])
def test_margins_where_the_weight_vanishes_match_mpmath_with_their_sign(tmp_path, n, theta, phi):
    # The interference weight sin^2(theta) cos^2(phi) is exactly 0 here.  A degree-to-radian
    # residue of 1e-32 in it wrote +1.40106374e-32, a false violation, at n = 10**17 + 1.
    out = tmp_path / "out.csv"
    assert cli.main(["landscape", "--n", str(n), "--theta", theta, f"--phi={phi}",
                     "--out", str(out), "--no-timestamp"]) == 0
    assert _margin_misses(out, absolute=0.0) == []
    assert float(read_csv(str(out))[1][0][3]) < 0
