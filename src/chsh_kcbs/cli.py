"""Command-line surface for the package.

Subcommands: observables, threshold, landscape, coexist, scaling,
fourier-test, validate.  Angles are degrees on the command line and
radians internally; angle grids are ``start:stop:count`` with inclusive
endpoints, cycle ranges are ``start:stop:step``.  A JSON config file can
supply defaults for any flag of the chosen subcommand; explicit flags
win, and the effective configuration is echoed into every output file.

Exit codes: 0 success, 1 validation failure, 2 usage error,
3 domain error (invalid cycle, no intersection, malformed state, ...),
4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import analytic, circuits, experiments, observables, serialize
from .errors import ChshKcbsError
from .linalg import expectation, tensor

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4


def angle_grid(text: str) -> np.ndarray:
    """Parse start:stop:count (degrees, inclusive endpoints)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start:stop:count, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if count < 1:
        raise argparse.ArgumentTypeError("grid count must be at least 1")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise argparse.ArgumentTypeError(f"grid endpoints must be finite, got {text!r}")
    return np.linspace(start, stop, count)


def cycle_range(text: str) -> list[int]:
    """Parse start:stop:step (or a single integer) into a list of cycle sizes."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [int(parts[0])]
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
    raise argparse.ArgumentTypeError(f"expected N or start:stop:step, got {text!r}")


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


positive_int = _checked(int, lambda value: value >= 1, "a positive integer")
finite_float = _checked(float, math.isfinite, "finite")


def bob_selector(text: str) -> str:
    """Check that ``pair:J`` has an integer J; names and J's range are checked per cycle."""
    if text.startswith("pair:") and not re.fullmatch(r"pair:[+-]?\d+", text):
        raise argparse.ArgumentTypeError(f"pair:J needs an integer J, got {text!r}")
    return text


# The flag types that yield a list, with the check each entry of a config-file list passes.
_LIST_ENTRY_OK = {angle_grid: lambda v: type(v) in (int, float) and math.isfinite(v),
                  cycle_range: lambda v: type(v) is int}


def build_parser():
    """Build the parser plus per-command metadata.

    Required flags are validated after the optional config file merges in,
    so they are declared optional here and tracked separately.
    """
    parser = argparse.ArgumentParser(
        prog="chsh-kcbs",
        description="Closed-form and circuit evaluation of the hybrid CHSH-KCBS scenario.",
        epilog="Exit codes: 0 ok, 1 validation failure, 2 usage error, "
               "3 domain error, 4 I/O error.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}
    required: dict[str, tuple[str, ...]] = {}

    def command(name, requires=(), **kwargs):
        sub = subparsers.add_parser(name, **kwargs)
        sub.add_argument("--config", default=None,
                         help="JSON file with default values for this command's flags")
        sub.add_argument("--no-timestamp", action="store_true",
                         help="omit the timestamp line from output files")
        commands[name] = sub
        required[name] = tuple(requires)
        return sub

    sub = command("observables", requires=("n", "out"),
                  help="dump the n-cycle vectors and observables as JSON")
    sub.add_argument("--n", type=int, help="odd cycle size >= 5")
    sub.add_argument("--out", help="output JSON path")

    sub = command("threshold", requires=("n",),
                  help="print the KCBS-violating population threshold")
    sub.add_argument("--n", type=int, help="odd cycle size >= 5")

    sub = command("landscape", requires=("n", "theta", "phi", "out"),
                  help="scan the minimal-state margins over a (theta, phi) grid")
    sub.add_argument("--n", type=int, help="odd cycle size >= 5")
    sub.add_argument("--theta", type=angle_grid, help="theta grid in degrees, start:stop:count")
    sub.add_argument("--phi", type=angle_grid, help="phi grid in degrees, start:stop:count")
    sub.add_argument("--mode", choices=("analytic", "circuit"), default="analytic")
    sub.add_argument("--shots", type=positive_int, default=None,
                     help="shots per correlator (circuit mode)")
    sub.add_argument("--seed", type=int, default=None, help="master seed (circuit mode)")
    sub.add_argument("--out", help="output CSV path")

    sub = command("coexist", requires=("n", "out"),
                  help="solve the margin crossing for each cycle size")
    sub.add_argument("--n", type=cycle_range, help="cycle sizes, N or start:stop:step")
    sub.add_argument("--out", help="output CSV path")

    sub = command("scaling", requires=("n", "out"),
                  help="coexistence scaling plus the scaling-family margins")
    sub.add_argument("--n", type=cycle_range, help="cycle sizes, N or start:stop:step")
    sub.add_argument("--out", help="output CSV path")

    sub = command("fourier-test", requires=("n", "theta", "phi", "alice", "bob", "out"),
                  help="run one Fourier-test correlator on the minimal state")
    sub.add_argument("--n", type=int, help="odd cycle size >= 5")
    sub.add_argument("--theta", type=finite_float, help="theta in degrees")
    sub.add_argument("--phi", type=finite_float, help="phi in degrees")
    sub.add_argument("--alice", choices=("w0", "w2", "id"),
                     help="Alice setting: optimal R(omega0), optimal R(omega2), or identity")
    sub.add_argument("--bob", type=bob_selector,
                     help="Bob observable: b0, bmbm1, or pair:J for B_J B_J+1")
    sub.add_argument("--shots", type=positive_int, default=None, help="sample this many shots")
    sub.add_argument("--seed", type=int, default=0, help="sampling seed")
    sub.add_argument("--out", help="output JSON path")

    command("validate", help="run the invariant suite; exit 0 iff everything passes")

    return parser, commands, required


def _apply_config(args, parser, sub, argv):
    """Reparse with config-file values as defaults; explicit flags still win."""
    try:
        with open(args.config, encoding="utf-8") as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as exc:
        sub.error(f"config file {args.config!r} is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        sub.error(f"config file {args.config!r} must hold a JSON object")
    actions = {action.dest: action for action in sub._actions}
    for key, value in payload.items():
        dest = key.replace("-", "_")
        action = actions.get(dest)
        if action is None or dest in ("help", "config"):
            sub.error(f"config key {key!r} is not a flag of this command")
        if isinstance(value, list):
            entry_ok = _LIST_ENTRY_OK.get(action.type)
            if entry_ok is None:
                sub.error(f"config key {key!r} does not take a list")
            if not value:
                sub.error(f"config key {key!r} is an empty list")
            if not all(map(entry_ok, value)):
                sub.error(f"config key {key!r} holds an invalid list entry")
            if action.type is angle_grid:
                value = [float(v) for v in value]
        elif action.type is not None:
            try:
                value = action.type(str(value))
            except (argparse.ArgumentTypeError, ValueError) as exc:
                sub.error(f"config key {key!r}: {exc}")
        if action.choices is not None and value not in action.choices:
            sub.error(f"config key {key!r} must be one of {tuple(action.choices)}")
        sub.set_defaults(**{dest: value})
    return parser.parse_args(argv)


def _effective_config(args, skip=("config", "no_timestamp", "out")) -> dict:
    """The parsed flags as text that reads back as the same values."""
    config = {"command": args.command}
    for key, value in sorted(vars(args).items()):
        if key in skip or key == "command":
            continue
        if isinstance(value, np.ndarray):  # an angle grid
            value = f"{_echo_float(value[0])}:{_echo_float(value[-1])}:{value.size}"
        elif isinstance(value, list):  # cycle sizes (int) or a config-file angle list (float)
            value = (_compact_range(value) if type(value[0]) is int
                     else ",".join(map(_echo_float, value)))
        config[key] = "" if value is None else value
    return config


def _echo_float(value) -> str:
    """The short ``:g`` text where it reads back as the same float, else the full repr."""
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


def _compact_range(values: list) -> str:
    steps = {b - a for a, b in zip(values, values[1:])}
    if len(values) >= 3 and len(steps) == 1:
        return f"{values[0]}:{values[-1]}:{steps.pop()}"
    return ",".join(str(v) for v in values)


def _bob_observable(n: int, selector: str) -> observables.Observable:
    if selector == "b0":
        return observables.b0_closed_form(n)
    if selector == "bmbm1":
        return observables.bm_bm1_closed_form(n)
    if selector.startswith("pair:"):
        return observables.kcbs_pair(n, int(selector.split(":", 1)[1]))
    raise ValueError(f"unknown Bob observable {selector!r}; use b0, bmbm1, or pair:J")


def _run_observables(args) -> int:
    n = args.n
    payload = {
        "n": n,
        "kcbs_vectors": [serialize.matrix_to_json(observables.kcbs_vector(n, j))
                         for j in range(n)],
        "kcbs_observables": [
            {"label": observables.kcbs_observable(n, j).label,
             **serialize.matrix_to_json(observables.kcbs_observable(n, j).matrix)}
            for j in range(n)
        ],
        "b0": serialize.matrix_to_json(observables.b0_closed_form(n).matrix),
        "bm_bm1": serialize.matrix_to_json(observables.bm_bm1_closed_form(n).matrix),
        "s_operator": serialize.matrix_to_json(observables.s_operator(n).matrix),
    }
    serialize.write_json(args.out, payload, metadata=_effective_config(args),
                         timestamp=not args.no_timestamp)
    return EXIT_OK


def _run_threshold(args) -> int:
    print(f"{analytic.p2_threshold(args.n):.6f}")
    return EXIT_OK


def _run_landscape(args) -> int:
    table = experiments.landscape_scan(args.n, args.theta, args.phi, mode=args.mode,
                                       shots=args.shots, seed=args.seed)
    serialize.write_csv(args.out, table.header, table, metadata=_effective_config(args),
                        timestamp=not args.no_timestamp)
    return EXIT_OK


def _write_columns(args, header, columns, metadata):
    """Write the named columns: n as integers, the rest as floats."""
    serialize.write_csv(args.out, header,
                        serialize.Columns((int,) + (float,) * (len(header) - 1),
                                          tuple(columns[name] for name in header)),
                        metadata=metadata, timestamp=not args.no_timestamp)


def _run_coexist(args) -> int:
    _write_columns(args, ["n", "theta_opt_deg", "overlap", "residual"],
                   experiments.coexistence_points(args.n), _effective_config(args))
    return EXIT_OK


def _run_scaling(args) -> int:
    columns, slope = experiments.scaling_study(args.n)
    metadata = _effective_config(args)
    if slope is not None:
        metadata["loglog_slope"] = serialize.format_float(slope)
    _write_columns(args, ["n", "theta_opt_deg", "overlap", "residual", "psi_n_kcbs_margin",
                          "psi_n_chsh_margin", "asym_kcbs", "asym_chsh"], columns, metadata)
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

    report = circuits.run_hybrid_protocol(circuits.prepare_state1(theta, phi), alice, bob)
    if args.shots:
        report = circuits.sample_shots(report, args.shots, args.seed)

    payload = {
        "n": args.n,
        "theta_deg": args.theta,
        "phi_deg": args.phi,
        "alice": alice.label,
        "bob": bob.label,
        "probabilities": {"p0": report.p0, "p1": report.p1, "p2": report.p2},
        "counts": list(report.counts) if report.counts is not None else None,
        "shots": report.shots,
        "estimators": {"combined": report.estimator_combined,
                       "from_p0": report.estimator_p0,
                       "from_p1": report.estimator_p1},
        "exact_value": expectation(psi, tensor(alice.matrix, bob.matrix)),
        "seed": report.seed,
    }
    serialize.write_json(args.out, payload, metadata=_effective_config(args),
                         timestamp=not args.no_timestamp)
    return EXIT_OK


def _run_validate(args) -> int:
    return EXIT_OK if experiments.run_validation(report=print) else EXIT_VALIDATION


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
    parser, commands, required = build_parser()
    try:
        args = parser.parse_args(argv)
        sub = commands[args.command]
        if getattr(args, "config", None):
            args = _apply_config(args, parser, sub, argv)
        for dest in required.get(args.command, ()):
            if getattr(args, dest, None) is None:
                sub.error(f"the following arguments are required: --{dest}")
    except SystemExit as exc:
        return int(exc.code or 0)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        return _RUNNERS[args.command](args)
    except ChshKcbsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
