"""Command-line surface for the package.

Subcommands: observables, threshold, landscape, coexist, scaling,
fourier-test, validate.  Angles are degrees on the command line and
radians internally; angle grids are ``start:stop:count`` with inclusive
endpoints, cycle ranges are ``start:stop:step``, and both also take a
comma list.  A JSON config file can supply defaults for any flag of the
chosen subcommand (a list as the flag's comma list); explicit flags win.
This module alone decides what an output file records: the effective
flags, echoed as text that reads back as the same run, the command's
own keys, then a timestamp unless ``--no-timestamp`` is given.

Exit codes: 0 success, 1 validation failure, 2 usage error,
3 domain error (invalid cycle, no intersection, malformed state, a size
too large for memory, ...), 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from datetime import datetime, timezone

import numpy as np

from . import analytic, circuits, experiments, observables, serialize
from .errors import ChshKcbsError
from .linalg import expectation, tensor

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4


def angle_grid(text: str):
    """Parse start:stop:count (degrees, inclusive endpoints) or a comma list of angles."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise argparse.ArgumentTypeError(
            f"expected start:stop:count or a comma list of angles, got {text!r}")
    try:
        angles = [float(part) for part in (text.split(",") if len(parts) == 1 else parts[:2])]
        count = int(parts[2]) if len(parts) == 3 else None
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not all(map(math.isfinite, angles)):
        raise argparse.ArgumentTypeError(f"angles must be finite, got {text!r}")
    if count is None:
        return angles
    if count < 1:
        raise argparse.ArgumentTypeError("grid count must be at least 1")
    return np.linspace(angles[0], angles[1], count)


def cycle_range(text: str) -> list[int]:
    """Parse start:stop:step or a comma list of sizes (one integer is a list of one)."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [int(part) for part in text.split(",")]
        if len(parts) == 3:
            start, stop, step = int(parts[0]), int(parts[1]), int(parts[2])
            if step < 1:
                raise argparse.ArgumentTypeError("step must be positive")
            sizes = list(range(start, stop + 1, step))
            if not sizes:
                raise argparse.ArgumentTypeError(f"empty cycle range {text!r}")
            return sizes
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    raise argparse.ArgumentTypeError(f"expected N, N,N,... or start:stop:step, got {text!r}")


def _checked(parse, ok, requirement: str):
    """An argparse type: ``parse`` the text, then refuse a value that fails ``ok``."""
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value
    return convert


shot_count = _checked(int, lambda v: 0 < v <= circuits.MAX_SHOTS, "a positive integer <= 2**63 - 1")
seed_int = _checked(int, lambda value: value >= 0, "a non-negative integer")
finite_float = _checked(float, math.isfinite, "finite")


def bob_selector(text: str) -> str:
    """Accept ``b0``, ``bmbm1`` or ``pair:J`` with an integer J; J's range is checked per cycle."""
    if text in ("b0", "bmbm1") or re.fullmatch(r"pair:[+-]?\d+", text):
        return text
    if text.startswith("pair:"):
        raise argparse.ArgumentTypeError(f"pair:J needs an integer J, got {text!r}")
    raise argparse.ArgumentTypeError(f"unknown Bob observable {text!r}; use b0, bmbm1, or pair:J")


def build_parser():
    """Build the parser plus, per command, its subparser, required flags and flag actions.

    Required flags are validated after the optional config file merges in,
    so they are declared optional here and tracked separately.  The flag
    actions are the keys a config file may set; ``--config`` is not one.
    """
    parser = argparse.ArgumentParser(
        prog="chsh-kcbs",
        description="Closed-form and circuit evaluation of the hybrid CHSH-KCBS scenario.",
        epilog="Exit codes: 0 ok, 1 validation failure, 2 usage error, "
               "3 domain error (also a size too large for memory), 4 I/O error.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, tuple[argparse.ArgumentParser, tuple[str, ...], dict]] = {}

    def command(name, requires=(), **kwargs):
        """Add a subcommand and return its flag adder, which records each flag's action."""
        sub = subparsers.add_parser(name, **kwargs)
        sub.add_argument("--config", default=None,
                         help="JSON file with default values for this command's flags")
        actions = {}
        commands[name] = (sub, tuple(requires), actions)

        def flag(*names, **options):
            action = sub.add_argument(*names, **options)
            actions[action.dest] = action

        flag("--no-timestamp", action="store_true",
             help="omit the timestamp line from output files")
        return flag

    flag = command("observables", requires=("n", "out"),
                   help="dump the n-cycle vectors and observables as JSON")
    flag("--n", type=int, help="odd cycle size >= 5")
    flag("--out", help="output JSON path")

    flag = command("threshold", requires=("n",),
                   help="print the KCBS-violating population threshold")
    flag("--n", type=int, help="odd cycle size >= 5")

    flag = command("landscape", requires=("n", "theta", "phi", "out"),
                   help="scan the minimal-state margins over a (theta, phi) grid")
    flag("--n", type=int, help="odd cycle size >= 5")
    flag("--theta", type=angle_grid, help="theta grid in degrees, start:stop:count or a list")
    flag("--phi", type=angle_grid, help="phi grid in degrees, start:stop:count or a list")
    flag("--mode", choices=("analytic", "circuit"), default="analytic")
    flag("--shots", type=shot_count, default=None, help="shots per correlator (circuit mode)")
    flag("--seed", type=seed_int, default=None, help="master seed (circuit mode)")
    flag("--out", help="output CSV path")

    flag = command("coexist", requires=("n", "out"),
                   help="solve the margin crossing for each cycle size")
    flag("--n", type=cycle_range, help="cycle sizes, N, N,N,... or start:stop:step")
    flag("--out", help="output CSV path")

    flag = command("scaling", requires=("n", "out"),
                   help="coexistence scaling plus the scaling-family margins")
    flag("--n", type=cycle_range, help="cycle sizes, N, N,N,... or start:stop:step")
    flag("--out", help="output CSV path")

    flag = command("fourier-test", requires=("n", "theta", "phi", "alice", "bob", "out"),
                   help="run one Fourier-test correlator on the minimal state")
    flag("--n", type=int, help="odd cycle size >= 5")
    flag("--theta", type=finite_float, help="theta in degrees")
    flag("--phi", type=finite_float, help="phi in degrees")
    flag("--alice", choices=("w0", "w2", "id"),
         help="Alice setting: optimal R(omega0), optimal R(omega2), or identity")
    flag("--bob", type=bob_selector, help="Bob observable: b0, bmbm1, or pair:J for B_J B_J+1")
    flag("--shots", type=shot_count, default=None, help="sample this many shots")
    flag("--seed", type=seed_int, default=0, help="sampling seed")
    flag("--out", help="output JSON path")

    command("validate", help="run the invariant suite; exit 0 iff everything passes")

    return parser, commands


def _apply_config(args, parser, sub, actions, argv):
    """Reparse with config-file values as defaults; explicit flags still win.

    ``actions`` maps each flag's dest to its argparse action; any other key
    is a usage error.
    """
    try:
        with open(args.config, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        sub.error(f"config file {args.config!r} is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        sub.error(f"config file {args.config!r} must hold a JSON object")
    for key, value in payload.items():
        dest = key.replace("-", "_")
        action = actions.get(dest)
        if action is None:
            sub.error(f"config key {key!r} is not a flag of this command")
        if isinstance(value, list):  # the flag's comma-list text, parsed by the flag's type
            if action.type not in (angle_grid, cycle_range):
                sub.error(f"config key {key!r} does not take a list")
            if not value:
                sub.error(f"config key {key!r} is an empty list")
            if not all(type(v) in (int, float) for v in value):
                sub.error(f"config key {key!r} holds an invalid list entry")
            value = ",".join(map(str, value))
        elif action.nargs == 0 and type(value) is not bool:
            sub.error(f"config key {key!r} takes true or false")
        if action.type is not None:
            try:
                value = action.type(str(value))
            except (argparse.ArgumentTypeError, ValueError) as exc:
                sub.error(f"config key {key!r}: {exc}")
        if action.choices is not None and value not in action.choices:
            sub.error(f"config key {key!r} must be one of {tuple(action.choices)}")
        sub.set_defaults(**{dest: value})
    return parser.parse_args(argv)


# Parsed values that are not echoed as flags: the command leads the echo.
_NOT_ECHOED = ("command", "config", "no_timestamp", "out")


def _metadata(args, **extra) -> dict:
    """A run's file metadata: the echoed flags, the command's ``extra`` keys, then the timestamp.

    Each echoed value is flag text that reads back as the same value; an
    empty value is a flag left unset.  The timestamp, the one field that
    differs between identical runs, is left out under ``--no-timestamp``.
    """
    metadata = {"command": args.command}
    for key, value in sorted(vars(args).items()):
        if key in _NOT_ECHOED:
            continue
        if isinstance(value, np.ndarray):  # an angle grid
            value = f"{_echo_float(value[0])}:{_echo_float(value[-1])}:{value.size}"
        elif isinstance(value, list):  # cycle sizes (int) or an angle list (float)
            value = (_compact_range(value) if type(value[0]) is int
                     else ",".join(map(_echo_float, value)))
        metadata[key] = "" if value is None else value
    metadata.update(extra)
    if not args.no_timestamp:
        metadata["timestamp"] = datetime.now(timezone.utc).isoformat()
    return metadata


def _echo_float(value) -> str:
    """The short ``:g`` text where it reads back as the same float, else the full repr."""
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


def _compact_range(values: list) -> str:
    """``start:stop:step`` for three or more sizes rising by one step, else a comma list."""
    steps = {b - a for a, b in zip(values, values[1:])}
    if len(values) >= 3 and len(steps) == 1 and min(steps) > 0:
        return f"{values[0]}:{values[-1]}:{steps.pop()}"
    return ",".join(str(v) for v in values)


def _bob_observable(n: int, selector: str) -> observables.Observable:
    if selector == "b0":
        return observables.b0_closed_form(n)
    if selector == "bmbm1":
        return observables.bm_bm1_closed_form(n)
    return observables.kcbs_pair(n, int(selector.split(":", 1)[1]))


def _run_observables(args) -> int:
    n = args.n
    vectors, cycle = observables.kcbs_vectors(n), observables.kcbs_observables(n)
    payload = {
        "n": n,
        "kcbs_vectors": [serialize.matrix_to_json(vector) for vector in vectors],
        "kcbs_observables": [{"label": f"B_{j}", **serialize.matrix_to_json(matrix)}
                             for j, matrix in enumerate(cycle)],
        "b0": serialize.matrix_to_json(observables.b0_closed_form(n).matrix),
        "bm_bm1": serialize.matrix_to_json(observables.bm_bm1_closed_form(n).matrix),
        "s_operator": serialize.matrix_to_json(observables.s_operator(n).matrix),
    }
    serialize.write_json(args.out, payload, metadata=_metadata(args))
    return EXIT_OK


def _run_threshold(args) -> int:
    print(f"{analytic.p2_threshold(args.n):.6f}")
    return EXIT_OK


def _run_landscape(args) -> int:
    table = experiments.landscape_scan(args.n, args.theta, args.phi, mode=args.mode,
                                       shots=args.shots, seed=args.seed)
    scheme = {"seed_scheme": experiments.SEED_SCHEME} if args.mode == "circuit" else {}
    serialize.write_csv(args.out, table.header, table, metadata=_metadata(args, **scheme))
    return EXIT_OK


def _write_columns(args, header, columns, **extra):
    """Write the named columns, n as integers and the rest as floats, under the run's metadata."""
    serialize.write_csv(args.out, header,
                        serialize.Columns((int,) + (float,) * (len(header) - 1),
                                          tuple(columns[name] for name in header)),
                        metadata=_metadata(args, **extra))


def _run_coexist(args) -> int:
    _write_columns(args, ["n", "theta_opt_deg", "overlap", "residual"],
                   experiments.coexistence_points(args.n))
    return EXIT_OK


def _run_scaling(args) -> int:
    columns, slope = experiments.scaling_study(args.n)
    fit = {} if slope is None else {"loglog_slope": slope}
    _write_columns(args, ["n", "theta_opt_deg", "overlap", "residual", "psi_n_kcbs_margin",
                          "psi_n_chsh_margin", "asym_kcbs", "asym_chsh"], columns, **fit)
    return EXIT_OK


def _run_fourier_test(args) -> int:
    experiments.check_theta_deg(args.theta)
    theta = math.radians(args.theta)
    phi = math.radians(args.phi)
    psi = analytic.state1(theta, phi)
    coeff = analytic.chsh_coefficients(psi, args.n)
    alice = {"w0": observables.alice_rotation(coeff.omega0),
             "w2": observables.alice_rotation(coeff.omega2),
             "id": observables.Observable(np.eye(2), "I")}[args.alice]
    bob = _bob_observable(args.n, args.bob)

    probs = circuits.run_hybrid_tests(circuits.prepare_state1(theta, phi),
                                      alice.matrix[None], bob.matrix[None])
    counts, estimators = (circuits.sample_shot_stack(probs, args.shots, args.seed) if args.shots
                          else (None, circuits.estimators(probs)))

    payload = {
        "n": args.n,
        "theta_deg": args.theta,
        "phi_deg": args.phi,
        "alice": alice.label,
        "bob": bob.label,
        "probabilities": dict(zip(("p0", "p1", "p2"), probs[0].tolist())),
        "counts": None if counts is None else counts[0].tolist(),
        "shots": args.shots,
        "estimators": dict(zip(("combined", "from_p0", "from_p1"), estimators[0].tolist())),
        "exact_value": expectation(psi, tensor(alice.matrix, bob.matrix)),
        "seed": args.seed if args.shots else None,
    }
    serialize.write_json(args.out, payload, metadata=_metadata(args))
    return EXIT_OK


def _run_validate(args) -> int:
    rows = experiments.run_validation()
    for name, value, tolerance, ok in rows:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {value:.3g} <= {tolerance:g}")
    passed = sum(ok for *_, ok in rows)
    print(f"{passed}/{len(rows)} checks passed")
    return EXIT_OK if passed == len(rows) else EXIT_VALIDATION


_RUNNERS = {
    "observables": _run_observables,
    "threshold": _run_threshold,
    "landscape": _run_landscape,
    "coexist": _run_coexist,
    "scaling": _run_scaling,
    "fourier-test": _run_fourier_test,
    "validate": _run_validate,
}


def main(argv=None) -> int:
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        sub, requires, actions = commands[args.command]
        if args.config:
            args = _apply_config(args, parser, sub, actions, argv)
        for dest in requires:
            if getattr(args, dest, None) is None:
                sub.error(f"the following arguments are required: --{dest}")
        if getattr(args, "mode", None) == "circuit" and args.shots is None:
            sub.error("--mode circuit requires --shots")
        return _RUNNERS[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ChshKcbsError, ValueError, MemoryError) as exc:  # MemoryError: a size too large
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
