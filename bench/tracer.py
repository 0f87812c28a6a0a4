"""In-process tracing of the package's layers, from outside the package.

The tracer wraps module attributes for the duration of a ``with`` block
and restores them afterwards; no source file is touched.  A module that
imported a function by name holds its own binding, so each binding the
call paths go through is wrapped (``circuits.unitarity_check`` as well as
``linalg.unitarity_check``), and both report under the defining module's
name.  Per-row helpers such as ``serialize.format_float`` (about 1.3M
calls on the analytic landscape) are not wrapped; ``serialize`` is
measured around ``write_csv`` with row and byte counts instead.

A span's self time is its duration minus the durations of the traced
spans it encloses.  Spans are aggregated per name as they close: calls,
total time, self time and the layer's work counters.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

import numpy as np


def _landscape_records(args, kwargs, result):
    return {"records": len(result)}


def _margin_cells(args, kwargs, result):
    return {"cells": int(np.size(result[0]))}


def _bisection_iterations(args, kwargs, result):
    return {"iterations": result.iterations}


def _sampled_shots(args, kwargs, result):
    return {"shots": result.shots}


def _written_rows(args, kwargs, result):
    path, _, rows = args[:3]
    return {"rows": len(rows), "bytes": os.path.getsize(path)}


# (module, attribute, span name, work counters from (args, kwargs, result)).
LAYERS = (
    ("experiments", "landscape_scan", "experiments.landscape_scan", _landscape_records),
    ("experiments", "scaling_study", "experiments.scaling_study", None),
    ("experiments", "coexistence_point", "experiments.coexistence_point", _bisection_iterations),
    ("analytic", "state1_margins", "analytic.state1_margins", _margin_cells),
    ("analytic", "chsh_coefficients", "analytic.chsh_coefficients", None),
    ("observables", "kcbs_pair", "observables.kcbs_pair", None),
    ("observables", "hermiticity_check", "linalg.hermiticity_check", None),
    ("circuits", "run_hybrid_protocol", "circuits.run_hybrid_protocol", None),
    ("circuits", "prepare_state1", "circuits.prepare_state1", None),
    ("circuits", "run_circuit", "circuits.run_circuit", None),
    ("circuits", "controlled_power", "circuits.controlled_power", None),
    ("circuits", "sample_shots", "circuits.sample_shots", _sampled_shots),
    ("circuits", "unitarity_check", "linalg.unitarity_check", None),
    ("circuits", "hermiticity_check", "linalg.hermiticity_check", None),
    ("linalg", "unitarity_check", "linalg.unitarity_check", None),
    ("linalg", "hermiticity_check", "linalg.hermiticity_check", None),
    ("serialize", "write_csv", "serialize.write_csv", _written_rows),
)


class LayerStats:
    __slots__ = ("calls", "total_s", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts = defaultdict(int)

    def as_dict(self) -> dict:
        return {"calls": self.calls, "total_s": self.total_s, "self_s": self.self_s,
                **self.counts}


class Tracer:
    """Aggregated spans of one traced call tree.

    Use as a context manager to wrap every binding in :data:`LAYERS`;
    :meth:`span` wraps one more callable, such as the CLI entry point.
    """

    def __init__(self):
        self.stats: dict[str, LayerStats] = defaultdict(LayerStats)
        self._open_child_s: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, counters=None):
        stats = self.stats[name]
        open_child_s = self._open_child_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = open_child_s.pop()
                if open_child_s:
                    open_child_s[-1] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children
            if counters is not None:
                for key, value in counters(args, kwargs, result).items():
                    stats.counts[key] += value
            return result

        return traced

    def __enter__(self):
        for module_name, attribute, name, counters in LAYERS:
            module = importlib.import_module(f"chsh_kcbs.{module_name}")
            original = getattr(module, attribute, None)
            if original is None:  # a layer the code no longer has reports no calls
                continue
            self._patched.append((module, attribute, original))
            setattr(module, attribute, self.span(name, original, counters))
        return self

    def __exit__(self, *exc):
        while self._patched:
            module, attribute, original = self._patched.pop()
            setattr(module, attribute, original)
        return False
