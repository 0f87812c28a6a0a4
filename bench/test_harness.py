"""Tests of the benchmark harness itself, on the small-size workloads.

Run from the repository root:  python3 -m pytest bench/test_harness.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from chsh_kcbs import circuits, linalg  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)


def bench(*args, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_describes_the_harness():
    for entry in BENCHMARK["workloads"]:
        assert workloads.WORKLOADS[entry["name"]].why == entry["why"]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_metrics()


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_printed_with_units(name):
    proc = bench("--workload", name, "--seed", "4", "--seconds", "0", "--trace", "0", "--small")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    for metric, unit in [*run.END_TO_END.items(), ("error_rate", "ratio")]:
        assert any(line.startswith(f"{metric} = ") and f" {unit}" in line
                   for line in lines[:-1]), (metric, lines)
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_per_layer_metrics_printed_with_units():
    proc = bench("--workload", "scaling", "--seed", "4", "--seconds", "0", "--trace", "1",
                 "--small")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.per_layer_metrics()
    for metric, unit in run.per_layer_metrics().items():
        assert any(line.startswith(f"{metric} = ") and line.split()[3] == unit
                   for line in lines[:-1]), metric


def _corrupt_digit(path: Path):
    """Change the last digit of the first margin in a middle data row."""
    lines = path.read_text().splitlines(keepends=True)
    first_row = next(i for i, line in enumerate(lines) if line[0].isdigit())
    index = (first_row + len(lines)) // 2
    fields = lines[index].split(",")
    digit = fields[3][-1]
    fields[3] = fields[3][:-1] + str((int(digit) + 1) % 10)
    lines[index] = ",".join(fields)
    path.write_text("".join(lines))


def _drop_row(path: Path):
    lines = path.read_text().splitlines(keepends=True)
    del lines[-2]
    path.write_text("".join(lines))


def _measure(name, tmp_path, damage, every=True):
    spec = workloads.WORKLOADS[name].inputs(7, small=True)
    calls = []

    def run_cli(argv, workdir):
        invocation = run.spawn_cli(argv, workdir)
        calls.append(argv)
        if every or len(calls) == 2:
            damage(Path(argv[argv.index("--out") + 1]))
        return invocation

    return run.measure_end_to_end(spec, 7, 0.0, tmp_path, run_cli=run_cli)


@pytest.mark.parametrize("name,damage", [
    ("landscape-analytic", _corrupt_digit),
    ("landscape-analytic", _drop_row),
    ("landscape-circuit", _drop_row),
    ("scaling", _drop_row),
])
def test_damaged_output_counts_as_failure(name, damage, tmp_path):
    result = _measure(name, tmp_path, damage)
    assert result["failed"] == result["attempted"] >= run.MIN_INVOCATIONS


def test_changed_repeat_counts_as_failure(tmp_path):
    result = _measure("landscape-circuit", tmp_path, _corrupt_digit, every=False)
    assert result["failed"] == 1
    assert "differs from the first run" in result["failures"][0]["problems"][0]


def test_clean_outputs_pass(tmp_path):
    result = _measure("landscape-circuit", tmp_path, lambda path: None)
    assert result["failed"] == 0


def test_checks_recompute_margins_independently(tmp_path):
    spec = workloads.WORKLOADS["landscape-analytic"].inputs(3, small=True)
    out = tmp_path / "out.csv"
    assert run.spawn_cli(spec.argv(str(out)), tmp_path).returncode == 0
    assert spec.check(out, 0) == []
    _corrupt_digit(out)
    assert spec.check(out, 0)


def test_seed_changes_inputs_not_size():
    for name in NAMES:
        a, b = (workloads.WORKLOADS[name].inputs(seed, small=False) for seed in (1, 2))
        assert a != b and a.units == b.units
    grid = workloads.WORKLOADS["landscape-analytic"].inputs(9, small=False)
    assert 0 <= grid.theta[0] and grid.theta[1] <= 180


def test_tracer_self_time_and_restore():
    tracer = Tracer()

    def inner():
        sum(range(20000))

    traced_inner = tracer.span("inner", inner)
    tracer.span("outer", lambda: (traced_inner(), traced_inner()))()
    outer_stats, inner_stats = tracer.stats["outer"], tracer.stats["inner"]
    assert inner_stats.calls == 2 and outer_stats.calls == 1
    assert outer_stats.self_s == pytest.approx(outer_stats.total_s - inner_stats.total_s)

    original = circuits.unitarity_check
    with Tracer():
        assert circuits.unitarity_check is not original
        assert linalg.unitarity_check is not original
    assert circuits.unitarity_check is original and linalg.unitarity_check is original


def test_fails_without_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "scaling", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
