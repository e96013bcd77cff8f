"""Outside-in layer trace for the benchmark.

Spans are recorded by wrapping the package's public functions at the
module attribute their caller looks them up through, so no file of the
package changes.  Each span keeps its name, start, end, parent span and
the id of the workload run (one ``cli.main`` call) it belongs to.  Spans
live in flat in-memory arrays while the benchmark runs and are written
out once, when it ends.

A layer's self time is its span's duration minus the time its child
spans cover.  That is only meaningful when the spans of a run nest: one
root span, and every other span inside its parent's interval.  Then the
self times are non-negative and add up to the root span's duration.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT_SPAN = "cli.main"


def _iterations(arguments, result) -> int:
    return result.iterations


def _reference_levels(arguments, result) -> int:
    return arguments["grid"].n_steps if arguments["spec"].mode == "parabolic" else 1


def _one_level(arguments, result) -> int:
    return 1


def _time_levels(arguments, result) -> int:
    return len(arguments["t"]) - 1


# (module, attribute its caller looks up, span name, counter, count function).
# A count function sees the call's bound arguments and its result.
PATCHES = (
    ("schwarz1d.cli", "run_elliptic", "schwarz.run", "schwarz.iterations", _iterations),
    ("schwarz1d.cli", "run_parabolic", "schwarz.run", "schwarz.iterations", _iterations),
    ("schwarz1d.oracle", "tau_factors", "oracle.tau", None, None),
    ("schwarz1d.oracle", "dirichlet_tau_factors", "oracle.tau", None, None),
    ("schwarz1d.schwarz", "validate_problem", "problem.validate", None, None),
    ("schwarz1d.schwarz", "build_grid", "geometry.build_grid", None, None),
    ("schwarz1d.schwarz", "reference_solve", "discretize.reference_solve",
     "discretize.levels", _reference_levels),
    ("schwarz1d.schwarz", "solve_semilinear_elliptic", "discretize.subdomain_solve",
     "discretize.levels", _one_level),
    ("schwarz1d.schwarz", "solve_semilinear_parabolic", "discretize.subdomain_solve",
     "discretize.levels", _time_levels),
    ("schwarz1d.discretize", "solve_banded", "discretize.solve_banded", None, None),
    ("schwarz1d.schwarz", "weighted_sup_norm", "schwarz.norm", None, None),
    ("schwarz1d.schwarz", "seminorm_sq_profile", "schwarz.norm", None, None),
    ("schwarz1d.transmission", "extract", "transmission.extract", None, None),
)


class Tracer:
    """Span recorder; ``run_id`` tags every span recorded while it is set."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[int, Counter] = {}
        self.run_id = -1
        self._stack = [-1]
        for name in [ROOT_SPAN] + [patch[2] for patch in PATCHES]:
            self._name_index(name)

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str, counter: str | None = None, count=None):
        """``fn`` recording one span per call, and ``count(...)`` into ``counter``."""
        ni = self._name_index(name)
        signature = inspect.signature(fn) if counter is not None else None
        clock = time.perf_counter
        stack, names, parents, runs = self._stack, self.name, self.parent, self.run
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(ni)
            parents.append(stack[-1])
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if counter is not None:
                arguments = signature.bind(*args, **kwargs).arguments
                self.counters.setdefault(self.run_id, Counter())[counter] += count(
                    arguments, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Install the layer wrappers; restore every original attribute on exit.

        An attribute the package no longer has raises ``AttributeError``, so a
        renamed layer fails the traced run instead of reporting no calls.
        """
        saved = []
        try:
            for module_name, attr, name, counter, count in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, counter, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def spans(self, run_id: int) -> dict[str, np.ndarray]:
        """Spans of one run as arrays; ``parent`` indexes into the same arrays."""
        run = np.frombuffer(self.run, dtype=np.int32)
        idx = np.flatnonzero(run == run_id)
        remap = np.full(len(run), -1, dtype=np.int64)
        remap[idx] = np.arange(idx.size)
        parent = np.frombuffer(self.parent, dtype=np.int32)[idx]
        start, end = np.frombuffer(self.start)[idx], np.frombuffer(self.end)[idx]
        return {
            "name": np.frombuffer(self.name, dtype=np.int32)[idx],
            "parent": np.where(parent >= 0, remap[np.maximum(parent, 0)], -1),
            "start": start,
            "end": end,
            "duration": end - start,
        }

    def nesting_problems(self, run_id: int) -> list[str]:
        """Why the spans of one run do not nest; empty when they do."""
        s = self.spans(run_id)
        roots = np.flatnonzero(s["parent"] < 0)
        problems = []
        if roots.size != 1 or self.names[s["name"][roots[0]]] != ROOT_SPAN:
            problems.append(f"{roots.size} spans without a parent, expected one {ROOT_SPAN}")
        child = np.flatnonzero(s["parent"] >= 0)
        parent = s["parent"][child]
        outside = child[(s["start"][child] < s["start"][parent])
                        | (s["end"][child] > s["end"][parent])]
        if outside.size:
            problems.append(f"{outside.size} spans end outside their parent span, first: "
                            + self.names[s["name"][outside[0]]])
        overlapping = np.flatnonzero(_self_times(s) < -1e-9)
        if overlapping.size:
            problems.append(f"{overlapping.size} spans have overlapping children, first: "
                            + self.names[s["name"][overlapping[0]]])
        return problems

    def layer_totals(self, run_id: int) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds in one run."""
        s = self.spans(run_id)
        self_s = _self_times(s)
        totals = {}
        for ni, name in enumerate(self.names):
            mask = s["name"] == ni
            totals[name] = {"calls": int(mask.sum()),
                            "total_s": float(s["duration"][mask].sum()),
                            "self_s": float(self_s[mask].sum())}
        return totals

    def dump(self, path: Path) -> None:
        """Write every span as CSV: run, span, parent, name, start and end seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("run,span,parent,name,start_s,end_s\n")
            for sid in range(len(self.start)):
                fh.write(f"{self.run[sid]},{sid},{self.parent[sid]},"
                         f"{self.names[self.name[sid]]},{self.start[sid] - t0:.9f},"
                         f"{self.end[sid] - t0:.9f}\n")


def _self_times(s: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the durations of its children."""
    child = np.zeros(s["duration"].size)
    has_parent = s["parent"] >= 0
    np.add.at(child, s["parent"][has_parent], s["duration"][has_parent])
    return s["duration"] - child


def layer_metrics(tracer: Tracer, run_id: int) -> dict[str, float]:
    """The per-layer metrics of one traced run (see NOTES.md for their meaning)."""
    t = tracer.layer_totals(run_id)
    counts = tracer.counters.get(run_id, Counter())
    banded = t["discretize.solve_banded"]
    solve = t["discretize.subdomain_solve"]
    norm = t["schwarz.norm"]
    return {
        "discretize.solve_banded_calls": banded["calls"],
        "discretize.solve_banded_s": banded["total_s"],
        "discretize.solve_banded_us": 1e6 * banded["total_s"] / max(banded["calls"], 1),
        "discretize.subdomain_solve_calls": solve["calls"],
        "discretize.subdomain_solve_s": solve["total_s"],
        "discretize.subdomain_solve_self_s": solve["self_s"],
        "discretize.picard_steps_per_level":
            banded["calls"] / max(counts["discretize.levels"], 1),
        "discretize.reference_solve_s": t["discretize.reference_solve"]["total_s"],
        "schwarz.norm_calls": norm["calls"],
        "schwarz.norm_s": norm["total_s"],
        "schwarz.iterations": counts["schwarz.iterations"],
        "schwarz.engine_self_s": t["schwarz.run"]["self_s"],
        "transmission.extract_calls": t["transmission.extract"]["calls"],
        "transmission.extract_s": t["transmission.extract"]["total_s"],
        "problem.validate_s": t["problem.validate"]["total_s"],
        "geometry.build_grid_s": t["geometry.build_grid"]["total_s"],
        "oracle.tau_calls": t["oracle.tau"]["calls"],
        "oracle.tau_s": t["oracle.tau"]["total_s"],
        "cli.self_s": t[ROOT_SPAN]["self_s"],
    }

