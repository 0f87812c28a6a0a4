"""Peak memory of large-n runs stays bounded in n, measured on the command line in a child."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# The command runs as the child of a small launcher, which reports its exit
# code and peak resident set from os.wait4.  A child's ru_maxrss on Linux
# also counts the resident set it was forked with, so forking the command
# from the test process would add the test process's own memory.
LAUNCHER = """
import os, subprocess, sys
child = subprocess.Popen([sys.executable, "-m", "chsh_kcbs", *sys.argv[1:]],
                         stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_mib(tmp_path, *args) -> float:
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    result = subprocess.run([sys.executable, "-c", LAUNCHER, *args, "--no-timestamp"],
                            capture_output=True, text=True, cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    code, peak = map(int, result.stdout.split())
    assert code == 0
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    return peak / (1024 * 1024 if sys.platform == "darwin" else 1024)


needs_wait4 = pytest.mark.skipif(not hasattr(os, "wait4"), reason="os.wait4 is not available")


@needs_wait4
def test_large_n_circuit_cell_runs_in_bounded_memory(tmp_path):
    # All n + 4 terms of one cell at once took 117 MiB at n = 20001; term
    # blocks of at most BLOCK_TERMS rows keep the peak near the import floor.
    peak = _peak_mib(tmp_path, "landscape", "--n", "20001", "--theta", "40", "--phi", "10",
                     "--mode", "circuit", "--shots", "100", "--seed", "1", "--out", "cell.csv")
    assert peak < 60


@needs_wait4
def test_large_n_kcbs_pair_runs_in_bounded_memory(tmp_path):
    # Building the whole cycle to multiply two of its rows took 519 MiB here.
    peak = _peak_mib(tmp_path, "fourier-test", "--n", "2000001", "--theta", "40", "--phi", "10",
                     "--alice", "id", "--bob", "pair:0", "--out", "pair.json")
    assert peak < 60


@needs_wait4
def test_multi_block_analytic_landscape_runs_in_bounded_memory(tmp_path):
    # 2001 x 721 = 1442721 cells, 23 kernel blocks of at most experiments.BLOCK_CELLS
    # cells, each formatted and written before the next is computed.
    peak = _peak_mib(tmp_path, "landscape", "--n", "5", "--theta", "0:180:2001",
                     "--phi", "0:360:721", "--out", "grid.csv")
    assert peak < 60


@needs_wait4
def test_narrow_theta_scan_runs_in_bounded_memory(tmp_path):
    # 200001 theta rows of one cell: 4 kernel blocks, each laid out as one row of cells
    # and formatted serialize.RUN_CELLS cells at a time; peaked at 40.8 MiB on x86-64
    # Linux, Python 3.11, numpy 2.4, against 45.2 MiB when each theta row was formatted alone.
    peak = _peak_mib(tmp_path, "landscape", "--n", "5", "--theta", "0:180:200001", "--phi", "0",
                     "--out", "scan.csv")
    assert peak < 50


@needs_wait4
def test_many_size_scaling_table_is_written_in_bounded_blocks(tmp_path):
    # 200000 sizes: formatting all rows in one % call peaked at 170 MiB (x86-64 Linux,
    # Python 3.11, numpy 2.4); runs of serialize.RUN_CELLS cells per % call bound the
    # writer, and the one block of the whole table peaks at 92.3 MiB.  The rest is the
    # size list and the bisection's arrays, which still grow with the size count.
    peak = _peak_mib(tmp_path, "scaling", "--n", "5:400001:2", "--out", "scaling.csv")
    assert peak < 135
