"""Transmission operators on subdomain interfaces.

Interface data for the receiving subdomain l at its interface point gamma
inside neighbor m is one of

    Dirichlet:    u_m(gamma)
    Robin:        a(gamma) du_m/dn(gamma) + p * u_m(gamma)

where n is the outward normal of the *receiving* subdomain (+1 at its
right end, -1 at its left end), and the same operator appears on both
sides of the transmission equality.  The normal derivative uses the
one-sided three-point stencil pointing into the receiving subdomain --
the identical formula the assembly uses for its Robin boundary row -- so
the exchange is bit-consistent with the subdomain solves: feeding both
sides the restriction of one global field reproduces the assembly value
exactly, not just to O(h^2).  ``links`` resolves and checks every
interface once per run; ``extract`` only does arithmetic on a neighbor's
field, and the engine's Robin rows read the same ``Link.p`` it uses.

A Robin config body's ``rho`` (default 1) scales every p: ``robin`` applies
it once, so Robin with p and rho is the same spec as Robin with rho*p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import Grid
from .problem import REQUIRED, ProblemSpec, is_positive_number, read_form

__all__ = [
    "TransmissionSpec",
    "Link",
    "links",
    "extract",
]


def _read_p(p, what: str):
    """``p``, with the "l,m" keys of a Robin table read as index pairs (l, m)."""
    return {_pair(k): v for k, v in p.items()} if isinstance(p, dict) else p


def _pair(key) -> tuple[int, int]:
    """A Robin table key "l,m" as the index pair (l, m)."""
    try:
        l, m = (int(s) for s in key.split(","))
        return l, m
    except (AttributeError, ValueError):
        raise ValueError(f'Robin table key {key!r} must have the form "l,m" '
                         "(receiving and neighbor subdomain index)") from None


def _check_p(p, what: str) -> None:
    """A ValueError unless ``p``, one number or a table of them, holds only
    positive finite numbers."""
    if not all(map(is_positive_number, p.values() if isinstance(p, dict) else (p,))):
        raise ValueError(f"Robin parameters {what} must be positive finite numbers, got {p!r}")


@dataclass(frozen=True)
class TransmissionSpec:
    """Which operator each interface uses.

    ``p`` is one positive finite number for every interface or a table
    keyed by the (receiving, neighbor) pair of exactly the interfaces;
    Dirichlet ignores it.  A Robin body's ``rho`` is no field: ``robin``
    stores every p already multiplied by it.
    """

    kind: str  # "dirichlet" | "robin"
    p: float | dict = 1.0

    # read_form's table; robin checks p and rho
    _FORMS = {"dirichlet": (None, {}),
              "robin": (None, {"p": (_read_p, REQUIRED), "rho": (lambda rho, _: rho, 1.0)})}

    def __post_init__(self) -> None:
        # README builds one directly; is_robin is kind != "dirichlet", so "robni" would be Robin
        if self.kind not in self._FORMS:
            raise ValueError(f"unknown transmission kind {self.kind!r}")
        if self.kind != "dirichlet":
            _check_p(self.p, "p")

    @classmethod
    def dirichlet(cls) -> "TransmissionSpec":
        return cls(kind="dirichlet")

    @classmethod
    def robin(cls, p, rho: float = 1.0) -> "TransmissionSpec":
        """Robin exchange with every p multiplied by ``rho``, so that
        ``robin(p, rho) == robin(p * rho)``.

        A ValueError names a raw p or rho that is not a positive finite
        number, checked before they are multiplied (a bool, a string or an
        integer past the float range never reaches ``*``), and then a
        product that is not, one that overflows or underflows to 0.
        """
        _check_p(p, "p")
        if not is_positive_number(rho):
            raise ValueError(f"rho must be a positive finite number, got {rho!r}")
        p = {k: v * rho for k, v in p.items()} if isinstance(p, dict) else p * rho
        _check_p(p, f"p * rho (rho = {rho!r})")
        return cls(kind="robin", p=p)

    @property
    def is_robin(self) -> bool:
        return self.kind != "dirichlet"

    @classmethod
    def from_dict(cls, d: dict) -> "TransmissionSpec":
        kind, entries = read_form(d, cls._FORMS, "transmission")
        return cls.robin(**entries) if kind == "robin" else cls(kind)


class Link(NamedTuple):
    """Interface end of a receiving subdomain: neighbor ``m``, node ``j`` among
    its nodes, outward ``normal`` (+1 right, -1 left), a(gamma) and the Robin
    ``p`` (None for Dirichlet), and the grid step ``h``."""

    m: int
    j: int
    normal: int
    a: float | None
    p: float | None
    h: float


def links(tspec: TransmissionSpec, grid: Grid, spec: ProblemSpec) -> list[tuple]:
    """(left, right) ``Link`` of every subdomain, None on the outer boundary.

    Raises ValueError when an interface lies fewer nodes inside its neighbor
    than the stencil needs (1 for Dirichlet, 2 for Robin) or when a
    Robin table does not name exactly the interfaces.  Each Robin ``Link.p``
    is the spec's p as a float: ``TransmissionSpec.robin`` has applied rho
    and checked the product.
    """
    if tspec.is_robin and isinstance(tspec.p, dict):
        missing = [k for k in grid.interface_index if k not in tspec.p]
        if missing:
            raise ValueError(f"transmission table missing interfaces {missing}")
        extra = [k for k in tspec.p if k not in grid.interface_index]
        if extra:
            raise ValueError(f"transmission table names non-interface pairs {extra}")
    depth = 2 if tspec.is_robin else 1
    ends = [[None, None] for _ in grid.sub_ranges]
    for (l, m), idx in grid.interface_index.items():
        lo, hi = grid.sub_ranges[m]
        inside = min(idx - lo, hi - idx)
        if inside < depth:
            raise ValueError(
                f"interface of subdomain {l} lies only {inside} node(s) inside "
                f"neighbor {m}; need >= {depth} (refine h or widen the overlap)"
            )
        a = p = None
        if tspec.is_robin:
            a = float(spec.a.value(grid.x[idx], spec.length))
            p = float(tspec.p[(l, m)] if isinstance(tspec.p, dict) else tspec.p)
        right = idx == grid.sub_ranges[l][1]
        ends[l][right] = Link(m, idx - lo, 1 if right else -1, a, p, grid.h)
    return [tuple(pair) for pair in ends]


def extract(link: Link, neighbor_field: np.ndarray):
    """Datum at ``link`` from the neighbor's iterate on its own nodes, a
    vector or a (nodes, time levels) matrix (then one datum per level)."""
    u, j, n = neighbor_field, link.j, link.normal
    if link.p is None:
        return u[j]
    dudn = (3.0 * u[j] - 4.0 * u[j - n] + u[j - 2 * n]) / (2.0 * link.h)
    return link.a * dudn + link.p * u[j]
