"""Overlapping interval partitions and matching uniform grids.

A partition of (0, L) into open subdomains is valid, and ``Partition``
builds it, exactly when

1. every endpoint lies in [0, L] and every point of (0, L) lies in one or
   two subdomains (union/overlap, triple overlap),
2. interior endpoints of different subdomains never coincide (interface
   coincidence),
3. no subdomain has both of its ends strictly inside one other subdomain
   (interface placement): the exchange holds one datum per pair (l, m).

Then every interior endpoint of a subdomain l lies strictly inside exactly
one other subdomain m, and that point is the interface Gamma_{l,m}.  The
partitions need not be chains: a subdomain may share an outer end of the
domain with one that contains it, as in (0, 0.5), (0, 1).  Endpoints are
compared with the tolerance 1e-12 L.  Grids snap every subdomain endpoint
onto a node so interface data can be exchanged without interpolation.  A
grid holds the nodes of the whole domain and each subdomain's range of
them: subdomain l's nodes are the view ``grid.x[grid.nodes(l)]``, which
with the step ``grid.h`` is all a subdomain operator reads of the grid.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Partition",
    "Grid",
    "build_uniform_partition",
    "build_grid",
]

# coincidence tolerance for endpoint comparisons, relative to L
_EPS = 1e-12
# items an error message lists before it gives only their count
_SHOWN = 5
# cell counts build_grid tries beyond the smallest one that meets h_target
_SNAP_CANDIDATES = 5000
# endpoint x candidate tests build_grid makes at once: one endpoint against
# all 5,001 candidates, and more endpoints as fewer candidates are left
_SNAP_BLOCK = 1 << 16
# nodes a grid may have: 80 MB per array of node values (the largest
# benchmarked grid has 2e4 nodes)
_MAX_NODES = 10**7
# time levels x nodes a space-time grid may have: 400 MB per space-time
# field (the largest shipped, benchmarked or tested one is 2001 x 241)
_MAX_SPACE_TIME_VALUES = 5 * 10**7


@dataclass(frozen=True)
class Partition:
    """Overlapping subdomains of (0, length), valid once built.

    The constructor checks the module's rules and raises one ValueError
    that names the ones the subdomains break.  ``interfaces[(l, m)]`` is
    the interface point of subdomain l inside subdomain m, one float, with
    the keys in ascending order.  Indices are 0-based.
    """

    length: float
    subdomains: tuple[tuple[float, float], ...]
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
        interfaces, bad = _judge(self.length, subs)
        if bad:
            raise ValueError("partition fails validation: " + _first(bad, "; "))
        object.__setattr__(self, "interfaces", interfaces)

    @property
    def count(self) -> int:
        return len(self.subdomains)


def _judge(length: float, subs: tuple[tuple[float, float], ...]) -> tuple[dict, list[str]]:
    """The interfaces of ``subs`` and the rules they break, from one pass
    over their ends sorted by position."""
    tol = _EPS * length
    bad = [f"union/overlap: subdomain {l} = ({lo!r}, {hi!r}) is not inside "
           f"(0, L) = (0, {length:g})"
           for l, (lo, hi) in enumerate(subs) if lo < -tol or hi > length + tol]

    interfaces: dict[tuple[int, int], float] = {}
    inside: set[int] = set()  # the subdomains that contain the position x
    x_prev, inner_prev = 0.0, None  # inner_prev: the last interior end, (x, l)

    def at(p: float) -> float:  # an end within tol of 0 or L is at it
        return 0.0 if p <= tol else length if p >= length - tol else p

    def segment(a: float, b: float) -> None:
        if not inside:
            bad.append(f"union/overlap: no subdomain contains ({a!r}, {b!r})")
        elif len(inside) > 2:
            bad.append(f"triple overlap: subdomains {_first(sorted(inside))} all contain "
                       f"({a!r}, {b!r})")

    # (position, 0 at a right end and 1 at a left end, subdomain): the
    # subdomains are open, so at one position the right ends go first
    ends = sorted(end for l, (lo, hi) in enumerate(subs)
                  for end in ((at(hi), 0, l), (at(lo), 1, l)))
    for x, group in itertools.groupby(ends, key=lambda end: end[0]):
        group = list(group)
        if x > x_prev:
            segment(x_prev, x)
        inside.difference_update(l for _, left, l in group if not left)
        if 0.0 < x < length:
            # open subdomains that touch leave the point they share uncovered
            if not inside and group[0][1] == 0 and group[-1][1] == 1:
                bad.append(f"union/overlap: no subdomain contains {x!r}")
            host = next(iter(inside)) if len(inside) == 1 else None
            for _, left, l in group:
                if inner_prev and x - inner_prev[0] <= tol and inner_prev[1] != l:
                    bad.append(f"interface coincidence: subdomains {min(l, inner_prev[1])} and "
                               f"{max(l, inner_prev[1])} share the interior boundary point {x!r}")
                inner_prev = (x, l)
                if host is None:
                    continue
                interfaces[(l, host)] = x
                hi = subs[l][1]
                if left and at(hi) < length and hi < subs[host][1]:
                    bad.append(f"interface placement: subdomain {l} has 2 interface points "
                               f"{(x, hi)} in subdomain {host}, but at most one is allowed")
        inside.update(l for _, left, l in group if left)
        x_prev = x
    if x_prev < length:
        segment(x_prev, length)
    return dict(sorted(interfaces.items())), bad


def _first(items: list, sep: str = ", ") -> str:
    """``items`` joined by ``sep``; past the first ``_SHOWN``, only their count."""
    shown = sep.join(str(item) for item in items[:_SHOWN])
    return shown if len(items) <= _SHOWN else f"{shown}{sep}... ({len(items) - _SHOWN} more)"


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


@dataclass(frozen=True)
class Grid:
    """Uniform global grid with all subdomain endpoints on nodes.

    ``x`` holds every node and ``sub_ranges[l]`` subdomain l's first and
    last, so ``x[nodes(l)]`` is subdomain l's nodes; the time axis ``t``
    (``n_steps`` steps of ``dt``) is None for an elliptic grid.
    """

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


def build_grid(part: Partition, h_target: float, dt_target: float | None = None,
               time_horizon: float | None = None) -> Grid:
    """Uniform grid with h <= h_target and every endpoint snapped to a node.

    Searches the smallest cell count N >= L/h_target for which all interior
    subdomain endpoints land on nodes (relative tolerance 1e-9), filtering
    the candidates by a block of endpoints at a time; raises ValueError as
    soon as no N within ``_SNAP_CANDIDATES`` more is left,
    when h_target asks for more than ``_MAX_NODES`` nodes, or when the
    time axis asks for more than ``_MAX_SPACE_TIME_VALUES`` levels x
    nodes, before anything is allocated.  The optional time axis uses
    dt = T / ceil(T / dt_target) <= dt_target.
    """
    if not (h_target > 0 and part.length / h_target < math.inf):
        raise ValueError(f"h_target must be positive and L / h_target finite, got {h_target!r}")
    length = part.length
    endpoints = np.array(sorted({p for lo_hi in part.subdomains for p in lo_hi
                                 if 0.0 < p < length}))
    n_min = max(2, math.ceil(length / h_target - 1e-12))
    if n_min + 1 > _MAX_NODES:
        raise ValueError(f"h_target {h_target!r} needs {n_min + 1} nodes; at most "
                         f"{_MAX_NODES} are allowed")
    # keep the candidates N that snap each block of endpoints in turn
    candidates = np.arange(n_min, n_min + _SNAP_CANDIDATES + 1)
    lo = 0
    while candidates.size and lo < endpoints.size:
        hi = lo + max(1, _SNAP_BLOCK // candidates.size)
        idx = endpoints[lo:hi, None] * candidates / length
        snapped = np.abs(idx - np.round(idx)) <= 1e-9 * np.maximum(1.0, candidates)
        candidates, lo = candidates[snapped.all(axis=0)], hi
    if not candidates.size:
        raise ValueError(
            f"subdomain endpoints [{_first(endpoints.tolist())}] not snappable onto a "
            f"uniform grid with N in [{n_min}, {n_min + _SNAP_CANDIDATES}]"
        )
    n_cells = int(candidates[0])

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
    interface_index = {key: node_of(p) for key, p in part.interfaces.items()}
    return Grid(h=h, x=x, sub_ranges=sub_ranges, interface_index=interface_index, dt=dt,
                n_steps=n_steps, t=t)
