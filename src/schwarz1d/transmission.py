"""Transmission operators on subdomain interfaces.

Interface data for the receiving subdomain l at its interface point gamma
inside neighbor m is one of

    Dirichlet:    u_m(gamma)
    Robin:        a(gamma) du_m/dn(gamma) + p * u_m(gamma)
    ScaledRobin:  a(gamma) du_m/dn(gamma) + rho * p * u_m(gamma)

where n is the outward normal of the *receiving* subdomain (+1 at its
right end, -1 at its left end), and the same operator appears on both
sides of the transmission equality.  The normal derivative uses the
one-sided three-point stencil pointing into the receiving subdomain --
the identical formula the assembly uses for its Robin boundary row -- so
the exchange is bit-consistent with the subdomain solves: feeding both
sides the restriction of one global field reproduces the assembly value
exactly, not just to O(h^2).  There is no second path for the initial
guess: the engine samples u^0 on the grid and applies ``extract`` to it,
so the first sweep sees the same discrete operator as every later one.

ScaledRobin(p, rho) is by construction the same operator as Robin(rho*p).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .geometry import Grid
from .problem import ProblemSpec

__all__ = [
    "TransmissionSpec",
    "TransmissionError",
    "extract",
    "normal_derivative",
]


class TransmissionError(ValueError):
    """Bad transmission parameters or an interface outside the neighbor grid."""


def _positive_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and v > 0


@dataclass(frozen=True)
class TransmissionSpec:
    """Which operator each interface uses.

    ``p`` is either one positive number for every interface or a table
    keyed by the (receiving, neighbor) index pair.  ``rho`` rescales every
    Robin parameter (ScaledRobin); Dirichlet ignores both.
    """

    kind: str  # "dirichlet" | "robin" | "scaled_robin"
    p: float | dict = 1.0
    rho: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("dirichlet", "robin", "scaled_robin"):
            raise TransmissionError(f"unknown transmission kind {self.kind!r}")
        if self.kind != "dirichlet":
            values = self.p.values() if isinstance(self.p, dict) else (self.p,)
            if not all(_positive_number(v) for v in values):
                raise TransmissionError(f"Robin parameters p must be positive numbers, "
                                        f"got {self.p!r}")
            if not _positive_number(self.rho):
                raise TransmissionError(f"rho must be a positive number, got {self.rho!r}")

    @classmethod
    def dirichlet(cls) -> "TransmissionSpec":
        return cls(kind="dirichlet")

    @classmethod
    def robin(cls, p) -> "TransmissionSpec":
        return cls(kind="robin", p=p)

    @classmethod
    def scaled_robin(cls, p, rho: float) -> "TransmissionSpec":
        if not _positive_number(rho):
            raise TransmissionError(f"rho must be a positive number, got {rho!r}")
        return cls(kind="scaled_robin", p=p, rho=float(rho))

    @property
    def is_robin(self) -> bool:
        return self.kind != "dirichlet"

    def p_effective(self, key: tuple[int, int]) -> float:
        """Robin coefficient at one interface, rho scaling applied."""
        if not self.is_robin:
            raise TransmissionError("Dirichlet transmission has no Robin parameter")
        p = self.p[key] if isinstance(self.p, dict) else self.p
        scale = self.rho if self.kind == "scaled_robin" else 1.0
        return float(p) * scale

    @classmethod
    def from_dict(cls, d: dict) -> "TransmissionSpec":
        if not isinstance(d, dict) or len(d) != 1:
            raise TransmissionError(f"bad transmission spec: {d!r}")
        kind, body = next(iter(d.items()))
        if kind == "dirichlet":
            return cls.dirichlet()
        if kind not in ("robin", "scaled_robin"):
            raise TransmissionError(f"unknown transmission kind {kind!r}")
        if not isinstance(body, dict) or "p" not in body:
            raise TransmissionError(f"{kind} transmission needs a 'p' entry, got {body!r}")
        p = body["p"]
        if isinstance(p, dict):
            p = {tuple(int(s) for s in k.split(",")): v for k, v in p.items()}
        if kind == "robin":
            return cls.robin(p)
        if "rho" not in body:
            raise TransmissionError(f"scaled_robin transmission needs a 'rho' entry, got {body!r}")
        return cls.scaled_robin(p, body["rho"])


def normal_derivative(values: np.ndarray, j: int, h: float, normal: int):
    """One-sided second-order du/dn at local node j of ``values``.

    The stencil runs from j into the domain the normal points out of:
    (3 u_j - 4 u_{j-n} + u_{j-2n}) / (2h).  ``values`` may be a vector or
    a (nodes, time) matrix; the derivative is taken along axis 0.
    """
    if normal not in (-1, 1):
        raise TransmissionError(f"normal sign must be +-1, got {normal}")
    if not (0 <= j - 2 * normal < values.shape[0] and 0 <= j < values.shape[0]):
        raise TransmissionError("one-sided stencil leaves the neighbor grid")
    return (3.0 * values[j] - 4.0 * values[j - normal] + values[j - 2 * normal]) / (2.0 * h)


def extract(tspec: TransmissionSpec, grid: Grid, spec: ProblemSpec, l: int,
            neighbor: int, neighbor_field: np.ndarray):
    """Interface datum for receiving subdomain l from its neighbor's field.

    ``neighbor_field`` is the neighbor's current iterate on its own nodes
    (vector, or (nodes, time levels) matrix for space-time fields).  The
    returned datum is a scalar or a per-time-level array.
    """
    gamma_idx = grid.interface_index[(l, neighbor)]
    nb_lo, nb_hi = grid.sub_ranges[neighbor]
    if not nb_lo < gamma_idx < nb_hi:
        raise TransmissionError(
            f"interface node {gamma_idx} is not strictly inside neighbor {neighbor}"
        )
    j = gamma_idx - nb_lo
    if tspec.kind == "dirichlet":
        return neighbor_field[j]

    lo, hi = grid.sub_ranges[l]
    normal = 1 if gamma_idx == hi else -1
    a_val = float(spec.a(grid.x[gamma_idx]))
    p_eff = tspec.p_effective((l, neighbor))
    dudn = normal_derivative(neighbor_field, j, grid.h, normal)
    return a_val * dudn + p_eff * neighbor_field[j]
