"""Overlapping interval partitions and matching uniform grids.

A partition of (0, L) into open subdomains must satisfy four structural
rules before the iteration engine will accept it:

1. the subdomains cover (0, L),
2. interior boundary points of different subdomains never coincide,
3. no point lies in three subdomains (for every l and every pair of
   distinct neighbors l', l'' of l, the sets Omega_l' and Omega_l'' are
   disjoint),
4. every interface point Gamma_{l,l'} -- an interior boundary point of
   Omega_l that lies in the closure of Omega_{l'} -- is strictly inside
   Omega_{l'}, and Omega_l has at most one in each neighbor Omega_{l'}.

In one dimension the valid partitions are exactly overlapping chains.
Grids snap every subdomain endpoint onto a node so interface data can be
exchanged without interpolation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Partition",
    "Grid",
    "SubGrid",
    "build_uniform_partition",
    "validate_partition",
    "build_grid",
]

# coincidence tolerance for endpoint comparisons, relative to L
_EPS = 1e-12
# cell counts build_grid tries beyond the smallest one that meets h_target
_SNAP_CANDIDATES = 5000
# nodes a grid may have: 80 MB per array of node values (the largest
# benchmarked grid has 2e4 nodes)
_MAX_NODES = 10**7
# time levels x nodes a space-time grid may have: 400 MB per space-time
# field (the largest shipped, benchmarked or tested one is 2001 x 241)
_MAX_SPACE_TIME_VALUES = 5 * 10**7


@dataclass(frozen=True)
class Partition:
    """Ordered overlapping subdomains of (0, length).

    ``interfaces[(l, m)]`` holds the interior boundary points of subdomain
    l that fall inside closure(subdomain m); for a valid chain each such
    set is a single point.  ``neighbor_sets[l]`` is the set of indices m
    with overlapping interiors.  Indices are 0-based.
    """

    length: float
    subdomains: tuple[tuple[float, float], ...]
    neighbor_sets: tuple[frozenset[int], ...] = field(init=False)
    interfaces: dict = field(init=False, compare=False)

    def __post_init__(self) -> None:
        # no config reaches this, but README's library example builds a Partition directly
        if not self.length > 0:
            raise ValueError("domain length must be positive")
        subs = tuple((float(lo), float(hi)) for lo, hi in self.subdomains)
        if len(subs) < 2:
            raise ValueError("need at least two subdomains")
        for lo, hi in subs:
            if not lo < hi:
                raise ValueError(f"empty subdomain ({lo}, {hi})")
        object.__setattr__(self, "subdomains", subs)

        tol = _EPS * self.length
        neighbor_sets = []
        for l, (lo, hi) in enumerate(subs):
            nbs = frozenset(
                m for m, (lo2, hi2) in enumerate(subs)
                if m != l and min(hi, hi2) - max(lo, lo2) > tol
            )
            neighbor_sets.append(nbs)
        object.__setattr__(self, "neighbor_sets", tuple(neighbor_sets))

        # interface sets exist only toward neighbors (overlapping interiors)
        interfaces: dict[tuple[int, int], tuple[float, ...]] = {}
        for l, (lo, hi) in enumerate(subs):
            inner = [p for p in (lo, hi) if tol < p < self.length - tol]
            for m in neighbor_sets[l]:
                lo2, hi2 = subs[m]
                pts = tuple(p for p in inner if lo2 - tol <= p <= hi2 + tol)
                if pts:
                    interfaces[(l, m)] = pts
        object.__setattr__(self, "interfaces", interfaces)

    @property
    def count(self) -> int:
        return len(self.subdomains)


def build_uniform_partition(length: float, count: int, overlap: float) -> Partition:
    """Equal-width chain where consecutive subdomains overlap by ``overlap``.

    Requires 0 < overlap < length / (2 * count), which keeps interfaces
    apart and rules out triple overlap with a wide margin.
    """
    if count < 2:
        raise ValueError("need at least two subdomains")
    if not overlap > 0:
        raise ValueError("overlap must be positive")
    # a count past the float range leaves no room for any overlap
    limit = length / (2 * count) if count <= sys.float_info.max else 0.0
    if not overlap < limit:
        raise ValueError(
            f"overlap {overlap:g} too large: requires overlap < L/(2I) = {limit:g} "
            "to keep interfaces separated and avoid triple overlap"
        )
    width = (length + (count - 1) * overlap) / count
    subs = []
    for l in range(count):
        lo = l * (width - overlap)
        hi = lo + width
        subs.append((0.0 if l == 0 else lo, length if l == count - 1 else hi))
    return Partition(length=length, subdomains=tuple(subs))


def validate_partition(part: Partition) -> list[str]:
    """Check the four structural rules; returns violations (empty = valid)."""
    tol = _EPS * part.length
    violations: list[str] = []
    subs = part.subdomains

    # rule 1: union equals (0, L).  Sweep intervals in order of left end;
    # the subdomains are open, so consecutive ones must overlap strictly
    # (touching endpoints leave the shared point uncovered).
    order = sorted(range(len(subs)), key=lambda l: subs[l][0])
    gap = subs[order[0]][0] > tol
    covered_to = subs[order[0]][1]
    for l in order[1:]:
        lo, hi = subs[l]
        if lo > covered_to - tol:  # >=: the point covered_to itself is missed
            gap = True
        covered_to = max(covered_to, hi)
    if gap or covered_to < part.length - tol:
        violations.append("union/overlap: subdomains do not cover (0, L)")

    # rule 2: interior boundary points must not coincide across subdomains
    def inner_pts(l: int) -> list[float]:
        return [p for p in subs[l] if tol < p < part.length - tol]

    for l in range(len(subs)):
        for m in range(l + 1, len(subs)):
            for p in inner_pts(l):
                if any(abs(p - q) <= tol for q in inner_pts(m)):
                    violations.append(
                        f"interface coincidence: subdomains {l} and {m} share "
                        f"the interior boundary point {p!r}"
                    )

    # rule 3: no triple overlap among the neighbors of any subdomain
    for l, nbs in enumerate(part.neighbor_sets):
        nbs = sorted(nbs)
        for i, m in enumerate(nbs):
            for m2 in nbs[i + 1:]:
                lo = max(subs[m][0], subs[m2][0])
                hi = min(subs[m][1], subs[m2][1])
                if hi - lo > tol:
                    violations.append(
                        f"triple overlap: subdomains {m} and {m2} (both neighbors "
                        f"of {l}) intersect on ({lo:g}, {hi:g})"
                    )

    # rule 4: interfaces strictly interior to the neighbor, at most one per
    # neighbor (the exchange holds one datum per pair (l, m))
    for (l, m), pts in part.interfaces.items():
        lo, hi = subs[m]
        if len(pts) > 1:
            violations.append(_several_interfaces(l, m, pts))
        for p in pts:
            if not (p - lo > tol and hi - p > tol):
                violations.append(
                    f"interface placement: point {p!r} of subdomain {l} is not "
                    f"strictly inside subdomain {m}"
                )
    return violations


def _several_interfaces(l: int, m: int, pts: tuple[float, ...]) -> str:
    """Rule 4's message for a subdomain l with more than one interface in m."""
    return (f"interface placement: subdomain {l} has {len(pts)} interface points "
            f"{pts} in subdomain {m}; at most one is allowed")


@dataclass(frozen=True)
class SubGrid:
    """Nodes of one subdomain (or of the whole domain)."""

    x: np.ndarray
    h: float

    @property
    def n(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class Grid:
    """Uniform global grid with all subdomain endpoints on nodes."""

    h: float
    x: np.ndarray
    sub_ranges: tuple[tuple[int, int], ...]  # inclusive global node ranges
    interface_index: dict  # (l, m) -> global node index
    dt: float | None = None
    n_steps: int | None = None
    t: np.ndarray | None = None

    def nodes(self, l: int) -> slice:
        """Slice of the global nodes that belong to subdomain l."""
        lo, hi = self.sub_ranges[l]
        return slice(lo, hi + 1)

    def subgrid(self, l: int) -> SubGrid:
        return SubGrid(x=self.x[self.nodes(l)], h=self.h)

    def monodomain(self) -> SubGrid:
        return SubGrid(x=self.x, h=self.h)


def build_grid(part: Partition, h_target: float, dt_target: float | None = None,
               time_horizon: float | None = None) -> Grid:
    """Uniform grid with h <= h_target and every endpoint snapped to a node.

    Searches the smallest cell count N >= L/h_target for which all interior
    subdomain endpoints land on nodes (relative tolerance 1e-9); raises
    ValueError when no such N exists within ``_SNAP_CANDIDATES`` more,
    when a subdomain has two interfaces in one neighbor, when h_target
    asks for more than ``_MAX_NODES`` nodes, or when the time axis asks
    for more than ``_MAX_SPACE_TIME_VALUES`` levels x nodes, before
    anything is allocated.  The optional time axis uses
    dt = T / ceil(T / dt_target) <= dt_target.
    """
    if not (h_target > 0 and part.length / h_target < math.inf):
        raise ValueError(f"h_target must be positive and L / h_target finite, got {h_target!r}")
    for (l, m), pts in part.interfaces.items():
        if len(pts) > 1:
            raise ValueError(_several_interfaces(l, m, pts))
    length = part.length
    endpoints = sorted({p for lo_hi in part.subdomains for p in lo_hi
                        if 0.0 < p < length})
    n_min = max(2, math.ceil(length / h_target - 1e-12))
    if n_min + 1 > _MAX_NODES:
        raise ValueError(f"h_target {h_target!r} needs {n_min + 1} nodes; at most "
                         f"{_MAX_NODES} are allowed")
    n_cells = None
    for n in range(n_min, n_min + _SNAP_CANDIDATES + 1):
        idx = np.array(endpoints) * n / length
        if np.all(np.abs(idx - np.round(idx)) <= 1e-9 * max(1.0, n)):
            n_cells = n
            break
    if n_cells is None:
        raise ValueError(
            f"subdomain endpoints {endpoints} not snappable onto a uniform grid "
            f"with N in [{n_min}, {n_min + _SNAP_CANDIDATES}]"
        )

    dt = n_steps = t = None
    if dt_target is not None:
        if time_horizon is None:
            raise ValueError("a time axis needs both dt_target and time_horizon")
        if not (dt_target > 0 and time_horizon > 0 and time_horizon / dt_target < math.inf):
            raise ValueError(f"dt_target and time_horizon must be positive and T / dt_target "
                             f"finite, got {dt_target!r} and {time_horizon!r}")
        n_steps = max(1, math.ceil(time_horizon / dt_target - 1e-12))
        values = (n_steps + 1) * (n_cells + 1)
        if values > _MAX_SPACE_TIME_VALUES:
            raise ValueError(f"dt_target {dt_target!r} needs {n_steps + 1} time levels x "
                             f"{n_cells + 1} nodes = {values} values; at most "
                             f"{_MAX_SPACE_TIME_VALUES} are allowed")
        dt = time_horizon / n_steps
        t = np.linspace(0.0, time_horizon, n_steps + 1)

    h = length / n_cells
    x = np.linspace(0.0, length, n_cells + 1)

    def node_of(p: float) -> int:
        return int(round(p * n_cells / length))

    sub_ranges = tuple((node_of(lo), node_of(hi)) for lo, hi in part.subdomains)
    interface_index = {key: node_of(p) for key, (p,) in part.interfaces.items()}
    return Grid(h=h, x=x, sub_ranges=sub_ranges, interface_index=interface_index, dt=dt,
                n_steps=n_steps, t=t)
