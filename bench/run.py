"""Benchmark of the chsh-kcbs command line, end to end and layer by layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload scaling --seed 1 --seconds 60 --trace 0

``--trace 0`` times whole ``python -m chsh_kcbs ... --no-timestamp``
invocations in child processes, one at a time, for ``--seconds`` seconds,
each after a timed bare ``import chsh_kcbs`` (the set-up time), and checks
every output file.  ``--trace 1`` runs the CLI in this process instead,
once untraced and once with every layer wrapped by :mod:`tracer`, for
each workload in turn (the selected one first), and reports per-layer
counts and self times under ``<workload>.<layer>``.  ``--small`` shrinks
every workload so the harness tests run in seconds.

Human-readable lines go to stdout first; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full record, with its environment manifest, is written to
``bench/out/BENCH_<workload>_seed<seed>_trace<0|1>.json``.
The machine is left as it is (no pinning, no cache drops): the spread of
the individual samples is reported instead.  On a shared 2-CPU machine
the speed of plain Python drifts by up to 1.6x over tens of seconds, so
a run needs about a minute for its median to settle.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SCHEMA_VERSION = 1

MIN_INVOCATIONS = 3
CHILD_TIMEOUT_S = 150.0

END_TO_END = {"wall_s": "s", "units_per_s": "units/s", "peak_rss_mb": "MiB", "setup_s": "s"}

# Per-layer metrics, reported as "<workload>.<metric>" from the traced run.
PER_LAYER = {
    "landscape-analytic": (
        "experiments.landscape_scan.self_s", "experiments.landscape_scan.records",
        "cli.self_s", "serialize.write_csv.self_s", "serialize.write_csv.rows",
        "serialize.write_csv.bytes", "analytic.state1_margins.calls",
        "analytic.state1_margins.self_s", "analytic.state1_margins.cells"),
    "landscape-circuit": tuple(
        f"{layer}.{field}"
        for layer in ("circuits.run_hybrid_protocol", "circuits.run_circuit",
                      "circuits.controlled_power", "circuits.prepare_state1",
                      "circuits.sample_shots", "linalg.unitarity_check",
                      "linalg.hermiticity_check", "observables.kcbs_pair",
                      "analytic.chsh_coefficients")
        for field in ("calls", "self_s")) + ("circuits.sample_shots.shots",),
    "scaling": (
        "experiments.coexistence_point.calls", "experiments.coexistence_point.self_s",
        "experiments.coexistence_point.iterations", "experiments.scaling_study.self_s",
        "analytic.state1_margins.calls", "analytic.state1_margins.self_s",
        "analytic.state1_margins.cells"),
}
ALL_WORKLOAD_LAYER = ("cli.main.wall_s", "trace.overhead_s")

# Exact counts at the commit that defined this benchmark, for the full-size
# workloads.  Printed beside the measured counts as a sanity check of the
# tracer; never gated on, since later changes are meant to lower them.
REFERENCE_COUNTS = {
    "landscape-analytic.analytic.state1_margins.calls": 1,
    "landscape-analytic.analytic.state1_margins.cells": 260281,
    "landscape-circuit.circuits.run_hybrid_protocol.calls": 2500,
    "landscape-circuit.circuits.run_circuit.calls": 2600,
    "landscape-circuit.linalg.unitarity_check.calls": 20400,
    "landscape-circuit.circuits.controlled_power.calls": 5100,
    "landscape-circuit.observables.kcbs_pair.calls": 2100,
    "scaling.experiments.coexistence_point.calls": 498,
    "scaling.experiments.coexistence_point.iterations": 23904,
    "scaling.analytic.state1_margins.calls": 25896,
}


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "B" if metric.endswith(".bytes") else "count"


def per_layer_metrics() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    return {f"{workload}.{metric}": layer_unit(metric)
            for workload, metrics in PER_LAYER.items()
            for metric in metrics + ALL_WORKLOAD_LAYER}


@dataclass
class Invocation:
    returncode: int
    wall_s: float
    peak_rss_kib: int
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], workdir: Path) -> Invocation:
    """Run ``python <argv>`` to completion; wall time from spawn to exit, own peak RSS.

    ``os.wait4`` gives the child's own ``ru_maxrss``; ``RUSAGE_CHILDREN``
    would report the maximum over every child so far.
    """
    with open(workdir / "stderr.txt", "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=workdir, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Invocation(proc.returncode, wall, usage.ru_maxrss, err.read()[-2000:])


def spawn_cli(args: list[str], workdir: Path) -> Invocation:
    return spawn(["-m", "chsh_kcbs", *args], workdir)


def timing_summary(samples: list[float]) -> dict:
    """Median, sample count, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    summary = {"median": statistics.median(ordered), "count": len(ordered),
               "min": ordered[0], "max": ordered[-1]}
    for pct in (99, 95, 90, 75, 50):
        if len(ordered) * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(ordered, n=100, method="inclusive")[pct - 1]
            summary[f"p{pct}"] = cut
            break
    return summary


class OutputChecker:
    """Checks the first output of a workload in full, then requires identical bytes.

    With ``--no-timestamp`` the CLI is deterministic, so every repeat must
    reproduce the verified file byte for byte.
    """

    def __init__(self, spec, seed: int):
        self.spec = spec
        self.seed = seed
        self.digest = None

    def problems(self, path: Path) -> list[str]:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if self.digest is not None:
            return [] if digest == self.digest else [f"{path.name} differs from the first run"]
        problems = self.spec.check(path, self.seed)
        if not problems:
            self.digest = digest
        return problems


def measure_end_to_end(spec, seed: int, seconds: float, workdir: Path,
                       run_cli=spawn_cli) -> dict:
    """Time CLI invocations for ``seconds`` and check each output; also time the import.

    Each CLI invocation follows one timed ``import chsh_kcbs``, so set-up
    samples spread over the whole window like the invocations do; a failed
    import counts against its invocation.  No invocation starts that would
    be expected to end past the window.
    """
    start = time.monotonic()
    spawn(["-c", "import chsh_kcbs"], workdir)  # untimed: fills the bytecode cache
    out = workdir / "out.csv"
    argv = spec.argv(str(out))
    checker = OutputChecker(spec, seed)
    setup, walls, rss, failures, rounds = [], [], [], [], []
    while (len(walls) < MIN_INVOCATIONS
           or time.monotonic() - start + statistics.median(rounds) < seconds):
        begin = time.monotonic()
        importing = spawn(["-c", "import chsh_kcbs"], workdir)
        setup.append(importing.wall_s)
        if out.exists():
            out.unlink()
        run = run_cli(argv, workdir)
        walls.append(run.wall_s)
        rss.append(run.peak_rss_kib / 1024.0)
        if run.returncode != 0:
            problems = [f"exit code {run.returncode}: {run.stderr.strip()}"]
        elif not out.exists():
            problems = ["no output file"]
        else:
            problems = checker.problems(out)
        if importing.returncode != 0:
            problems.append(f"set-up import exit code {importing.returncode}: "
                            f"{importing.stderr.strip()}")
        if problems:
            failures.append({"invocation": len(walls) - 1, "problems": problems[:5]})
        rounds.append(time.monotonic() - begin)

    wall = timing_summary(walls)
    return {
        "argv": argv,
        "attempted": len(walls),
        "failed": len(failures),
        "failures": failures,
        "samples": {"wall_s": walls, "peak_rss_mb": rss, "setup_s": setup},
        "wall_s": wall,
        "setup_s": timing_summary(setup),
        "metrics": {
            "wall_s": wall["median"],
            "units_per_s": spec.units / wall["median"],
            "peak_rss_mb": statistics.median(rss),
            "setup_s": statistics.median(setup),
        },
    }


def measure_layers(order: list[str], seed: int, seconds: float, small: bool,
                   workdir: Path) -> dict:
    """Run each workload's CLI in-process, untraced then traced, for ``seconds``."""
    import workloads
    from tracer import Tracer

    from chsh_kcbs import cli

    start = time.monotonic()
    jobs = []
    for name in order:
        spec = workloads.WORKLOADS[name].inputs(seed, small)
        out = workdir / f"{name}.csv"
        jobs.append((name, spec.argv(str(out)), out, OutputChecker(spec, seed)))

    attempted, failures = 0, []
    untraced = {name: [] for name in order}
    traced = {name: [] for name in order}
    layers = {name: [] for name in order}

    def call(name, argv, out, checker, main):
        nonlocal attempted
        attempted += 1
        begin = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - begin
        problems = [f"exit code {code}"] if code != 0 else checker.problems(out)
        if problems:
            failures.append({"workload": name, "problems": problems[:5]})
        return elapsed

    def run_untraced(job):
        untraced[job[0]].append(call(*job, cli.main))

    def run_traced(job):
        with Tracer() as tracer:
            traced[job[0]].append(call(*job, tracer.span("cli", cli.main)))
        layers[job[0]].append({span: stats.as_dict() for span, stats in tracer.stats.items()})

    for job in jobs:  # untimed warm-up: first-call costs and the reference output
        call(*job, cli.main)
    rounds = []
    while not rounds or time.monotonic() - start + rounds[-1] < seconds:
        begin = time.monotonic()
        # Alternate which of the pair runs first, so order effects cancel.
        pair = (run_untraced, run_traced) if len(rounds) % 2 == 0 else (run_traced, run_untraced)
        for job in jobs:
            for step in pair:
                step(job)
        rounds.append(time.monotonic() - begin)

    metrics, counts_vary = {}, []
    for name in order:
        for metric in PER_LAYER[name]:
            span, _, field = metric.rpartition(".")
            values = [round_layers.get(span, {}).get(field, 0) for round_layers in layers[name]]
            if field.endswith("_s"):
                metrics[f"{name}.{metric}"] = statistics.median(values)
            else:
                metrics[f"{name}.{metric}"] = values[0]
                if len(set(values)) > 1:
                    counts_vary.append(f"{name}.{metric}: {values}")
        metrics[f"{name}.cli.main.wall_s"] = statistics.median(untraced[name])
        # Paired by round, so drift in machine speed between rounds cancels.
        metrics[f"{name}.trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(traced[name], untraced[name]))
    return {
        "argv": {name: argv for name, argv, _, _ in jobs},
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "rounds": len(rounds),
        "samples": {"untraced_s": untraced, "traced_s": traced},
        "layers": layers,
        "counts_vary_between_rounds": counts_vary,
        "metrics": metrics,
    }


def git_revision() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the package sources, identifying the code when there is no git clone."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "chsh_kcbs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def manifest(workload, seed: int, small: bool) -> dict:
    import numpy

    import workloads

    return {
        "schema_version": SCHEMA_VERSION,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "loadavg_start": os.getloadavg(),
        "workload": workload.name,
        "seed": seed,
        "small": small,
        "why": {w.name: w.why for w in workloads.WORKLOADS.values()},
    }


def print_end_to_end(workload, spec, result: dict):
    metrics = result["metrics"]
    for name in ("wall_s", "setup_s"):
        summary = result[name]
        tail = ", ".join(f"{key} = {value:.4f} s" for key, value in summary.items()
                         if key.startswith("p"))
        print(f"{name} = {metrics[name]:.4f} s  (median of {summary['count']}; "
              f"min {summary['min']:.4f}, max {summary['max']:.4f}"
              f"{'; ' + tail if tail else '; no percentile has ten samples beyond it'})")
    print(f"units_per_s = {metrics['units_per_s']:.1f} units/s  "
          f"({workload.unit}/s, {spec.units} {workload.unit} per invocation)")
    print(f"peak_rss_mb = {metrics['peak_rss_mb']:.1f} MiB  (median child ru_maxrss)")
    print(f"error_rate = {result['failed'] / result['attempted']:.4f} ratio  "
          f"({result['failed']} failed of {result['attempted']} attempted)")


def print_layers(result: dict, small: bool):
    for name, value in result["metrics"].items():
        unit = layer_unit(name)
        shown = f"{value:.6f}" if unit == "s" else f"{value}"
        reference = REFERENCE_COUNTS.get(name)
        note = ""
        if reference is not None and not small:
            note = f"  (reference {reference}: {'match' if value == reference else 'differs'})"
        print(f"{name} = {shown} {unit}{note}")
    print(f"error_rate = {result['failed'] / result['attempted']:.4f} ratio  "
          f"({result['failed']} failed of {result['attempted']} attempted)")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(PER_LAYER))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="shrink every workload (harness tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "chsh_kcbs" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'chsh_kcbs'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import chsh_kcbs
    if Path(chsh_kcbs.__file__).resolve().parent != SRC / "chsh_kcbs":
        print(f"error: imported chsh_kcbs from {chsh_kcbs.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    record = {"manifest": manifest(workload, args.seed, args.small)}
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            order = [args.workload] + [w for w in PER_LAYER if w != args.workload]
            result = measure_layers(order, args.seed, args.seconds, args.small, workdir)
            print_layers(result, args.small)
            units = per_layer_metrics()
        else:
            spec = workload.inputs(args.seed, args.small)
            result = measure_end_to_end(spec, args.seed, args.seconds, workdir)
            print_end_to_end(workload, spec, result)
            units = END_TO_END
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()

    record["manifest"]["loadavg_end"] = os.getloadavg()
    record["result"] = result
    suffix = "_small" if args.small else ""
    path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}{suffix}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
