"""Finite-difference assembly and solves on one subdomain.

Second-order scheme on a uniform grid for

    -(a u')' + b u' + c u = F(x, u) + source,

with the diffusion term in flux form (a evaluated at half-nodes) and a
centered difference for b u'.  Boundary rows are either Dirichlet or
Robin; a Robin condition  a du/dn + p u = flux  is discretized with the
ghost-free one-sided second-order stencil

    du/dn(x0)      ~ (3 u0 - 4 u1 + u2) / (2h)          (left end, n = -1)
    du/dn(x_{N})   ~ (3 uN - 4 u_{N-1} + u_{N-2}) / (2h) (right end, n = +1)

whose second interior point is eliminated with the adjacent interior PDE
row, keeping the system tridiagonal without losing the stencil (the
solved field satisfies the three-point Robin relation to round-off).
Interface extraction pairs with the identical stencil so a restriction
of the monodomain solution is an exact fixed point of the iteration.

The semilinear term is handled by fixed-point (Picard) linearization:
freeze u in F, solve the linear system, repeat.  With c > Lipschitz(F)
(elliptic) or the implicit-Euler shift c + 1/dt (parabolic) the map is a
contraction.  Time stepping is implicit Euler: unconditionally stable,
first order in dt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy.linalg import solve_banded as _scipy_solve_banded

from .geometry import SubGrid
from .problem import ProblemSpec

__all__ = [
    "DirichletBC",
    "RobinBC",
    "BandedSystem",
    "SingularSystemError",
    "PicardError",
    "assemble_elliptic",
    "solve_banded",
    "solve_semilinear_elliptic",
    "solve_semilinear_parabolic",
    "reference_solve",
]

#: values on a subdomain's nodes; elliptic solves return a 1D vector,
#: parabolic solves a (nodes, time levels) matrix.
Field = np.ndarray


class SingularSystemError(RuntimeError):
    """The banded system has a zero pivot or produced non-finite values."""


class PicardError(RuntimeError):
    """Fixed-point iteration failed to reach tolerance.

    Carries the history of successive-difference norms and, for time
    stepping, the failing time level.
    """

    def __init__(self, message: str, diffs: list[float], time_level: int | None = None):
        super().__init__(message)
        self.diffs = diffs
        self.time_level = time_level


@dataclass(frozen=True)
class DirichletBC:
    """u = value at the boundary node; value may be a per-time-level array."""

    value: Union[float, np.ndarray]


@dataclass(frozen=True)
class RobinBC:
    """a du/dn + p u = flux at the boundary node (n = outward normal)."""

    p: float
    flux: Union[float, np.ndarray]


BCValue = Union[DirichletBC, RobinBC]


@dataclass
class BandedSystem:
    """Tridiagonal system: sub/main/sup diagonals and right-hand side.

    ``sub[i]`` multiplies u_i in row i+1, ``sup[i]`` multiplies u_{i+1} in
    row i.  ``meta`` records assembly warnings (e.g. the mesh exceeding the
    diagonal-dominance threshold h* = 2 lambda / max|b|).
    """

    n: int
    sub: np.ndarray
    main: np.ndarray
    sup: np.ndarray
    rhs: np.ndarray
    meta: dict = field(default_factory=dict)

    def dense(self) -> np.ndarray:
        m = np.diag(self.main)
        m[np.arange(1, self.n), np.arange(self.n - 1)] = self.sub
        m[np.arange(self.n - 1), np.arange(1, self.n)] = self.sup
        return m


class _Operator:
    """Tridiagonal matrix of -(a u')' + b u' + (c + shift) u with its boundary rows.

    The matrix depends on the boundary-condition kinds and the Robin
    parameters, not on the boundary data, so it is assembled once per
    subdomain solve; ``system`` then fills in only the right-hand side.
    """

    def __init__(self, spec: ProblemSpec, sg: SubGrid, bc_left: BCValue,
                 bc_right: BCValue, c_shift: float = 0.0):
        if sg.n < 5:
            raise ValueError(f"subdomain grid too coarse ({sg.n} nodes, need >= 5)")
        self.sg = sg
        self.spec = spec
        x, h = sg.x, sg.h
        xh = 0.5 * (x[:-1] + x[1:])
        a_half = np.atleast_1d(np.asarray(spec.a(xh), dtype=float)) + np.zeros(sg.n - 1)
        b = np.atleast_1d(np.asarray(spec.b(x), dtype=float)) + np.zeros(sg.n)
        c = np.atleast_1d(np.asarray(spec.c(x), dtype=float)) + np.zeros(sg.n) + c_shift
        a_nodes = np.atleast_1d(np.asarray(spec.a(x), dtype=float)) + np.zeros(sg.n)

        n = sg.n
        sub = np.zeros(n)  # sub[i] multiplies u_{i-1} in row i
        main = np.zeros(n)
        sup = np.zeros(n)  # sup[i] multiplies u_{i+1} in row i
        i = np.arange(1, n - 1)
        sub[i] = -a_half[i - 1] / h**2 - b[i] / (2 * h)
        main[i] = (a_half[i - 1] + a_half[i]) / h**2 + c[i]
        sup[i] = -a_half[i] / h**2 + b[i] / (2 * h)

        # per end: (row, boundary data, eliminated row, alpha, pivot); the
        # eliminated row is None for Dirichlet
        self._ends = []
        for end, bc in ((0, bc_left), (n - 1, bc_right)):
            if isinstance(bc, DirichletBC):  # u = value; the row's other entries stay 0
                main[end] = 1.0
                self._ends.append((end, np.asarray(bc.value, dtype=float), None, None, None))
                continue
            # one-sided stencil written toward the interior; the third point
            # is eliminated with the neighboring interior row, which keeps
            # the matrix tridiagonal and the relation exact at the solution
            alpha = a_nodes[end] / (2 * h)
            if end == 0:
                s, d, t3 = sub[1], main[1], sup[1]  # row 1: s*u0+d*u1+t3*u2
                if abs(t3) < 1e-300:
                    raise SingularSystemError("cannot eliminate Robin stencil point")
                main[0] = 3 * alpha + bc.p - alpha * s / t3
                sup[0] = -4 * alpha - alpha * d / t3
                self._ends.append((0, np.asarray(bc.flux, dtype=float), 1, alpha, t3))
            else:
                m = n - 1
                s, d, t3 = sub[m - 1], main[m - 1], sup[m - 1]
                if abs(s) < 1e-300:
                    raise SingularSystemError("cannot eliminate Robin stencil point")
                main[m] = 3 * alpha + bc.p - alpha * t3 / s
                sub[m] = -4 * alpha - alpha * d / s
                self._ends.append((m, np.asarray(bc.flux, dtype=float), m - 1, alpha, s))
        self._sub, self._main, self._sup = sub[1:], main, sup[:-1]

        lam = spec.a.lower_bound
        if lam is None:
            lam = float(np.min(np.concatenate([a_half, a_nodes])))
        b_max = float(np.max(np.abs(b)))
        h_star = np.inf if b_max == 0.0 else 2.0 * lam / b_max
        warnings = []
        if h > h_star:
            warnings.append(f"h = {h:g} above diagonal-dominance threshold h* = {h_star:g}")
        self.meta = {"warnings": warnings, "h": h, "h_star": h_star}

    def system(self, rhs_core: np.ndarray, level: int = 0) -> BandedSystem:
        """The system with ``rhs_core`` in the interior rows and the boundary
        data of time ``level`` (ignored for scalar data) in the boundary rows."""
        rhs = np.asarray(rhs_core, dtype=float).copy()
        for end, data, row, alpha, pivot in self._ends:
            value = data[level] if data.ndim else data
            rhs[end] = value if row is None else value - alpha * rhs[row] / pivot
        return BandedSystem(n=self.sg.n, sub=self._sub, main=self._main, sup=self._sup,
                            rhs=rhs, meta=self.meta)


def assemble_elliptic(spec: ProblemSpec, sg: SubGrid, bc_left: BCValue,
                      bc_right: BCValue, frozen_u: Field | None = None) -> BandedSystem:
    """Assemble the linearized elliptic system with F frozen at ``frozen_u``."""
    op = _Operator(spec, sg, bc_left, bc_right)
    frozen = np.zeros(sg.n) if frozen_u is None else np.asarray(frozen_u, dtype=float)
    rhs_core = spec.source_values(sg.x) + np.atleast_1d(spec.F(sg.x, frozen)) + np.zeros(sg.n)
    return op.system(rhs_core)


def solve_banded(system: BandedSystem) -> Field:
    """Solve the tridiagonal system (LAPACK banded LU)."""
    ab = np.zeros((3, system.n))
    ab[0, 1:] = system.sup
    ab[1, :] = system.main
    ab[2, :-1] = system.sub
    try:
        u = _scipy_solve_banded((1, 1), ab, system.rhs, check_finite=True)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SingularSystemError(f"banded solve failed: {exc}") from exc
    if not np.all(np.isfinite(u)):
        raise SingularSystemError("banded solve produced non-finite values")
    return u


def _picard_solve(op: _Operator, rhs_fixed: np.ndarray, level: int, u_start: np.ndarray,
                  picard_tol: float, picard_max: int) -> tuple[Field, int, list[float]]:
    spec, x = op.spec, op.sg.x
    if spec.F.kind == "zero":
        return solve_banded(op.system(rhs_fixed, level)), 1, [0.0]
    u = u_start
    diffs: list[float] = []
    for m in range(1, picard_max + 1):
        rhs = rhs_fixed + np.atleast_1d(spec.F(x, u))
        u_new = solve_banded(op.system(rhs, level))
        diff = float(np.max(np.abs(u_new - u)))
        diffs.append(diff)
        u = u_new
        if diff <= picard_tol:
            return u, m, diffs
    raise PicardError(
        f"Picard iteration did not reach {picard_tol:g} in {picard_max} steps "
        f"(last diff {diffs[-1]:g})", diffs,
    )


def solve_semilinear_elliptic(spec: ProblemSpec, sg: SubGrid, bc_left: BCValue,
                              bc_right: BCValue, picard_tol: float = 1e-10,
                              picard_max: int = 200,
                              u_start: Field | None = None) -> tuple[Field, int]:
    """Solve -(a u')' + b u' + c u = F(x, u) + source on one subdomain.

    Returns the converged field and the number of Picard steps.  With
    c > Lipschitz(F) the iteration contracts at rate ~ C / min(c).
    """
    op = _Operator(spec, sg, bc_left, bc_right)
    rhs_fixed = spec.source_values(sg.x) + np.zeros(sg.n)
    start = np.zeros(sg.n) if u_start is None else np.asarray(u_start, dtype=float)
    u, iters, _ = _picard_solve(op, rhs_fixed, 0, start, picard_tol, picard_max)
    return u, iters


def solve_semilinear_parabolic(spec: ProblemSpec, sg: SubGrid, bc_left: BCValue,
                               bc_right: BCValue, initial: Field, dt: float,
                               t: np.ndarray, picard_tol: float = 1e-10,
                               picard_max: int = 200) -> Field:
    """March d/dt u - (a u')' + b u' + c u = F(x,u) + source by implicit Euler.

    ``bc_left``/``bc_right`` carry one boundary value (or Robin flux) per
    time level; each level solves a semilinear elliptic problem with c
    shifted by 1/dt and the previous level folded into the source.
    Returns the (nodes, len(t)) space-time field.
    """
    n_steps = len(t) - 1
    op = _Operator(spec, sg, bc_left, bc_right, c_shift=1.0 / dt)
    field = np.empty((sg.n, n_steps + 1))
    field[:, 0] = np.asarray(initial, dtype=float)
    for m in range(1, n_steps + 1):
        rhs_fixed = spec.source_values(sg.x, float(t[m])) + field[:, m - 1] / dt
        try:
            u, _, _ = _picard_solve(op, rhs_fixed, m, field[:, m - 1], picard_tol,
                                    picard_max)
        except PicardError as exc:
            raise PicardError(f"time level {m} (t = {t[m]:g}): {exc}", exc.diffs,
                              time_level=m) from exc
        field[:, m] = u
    return field


def reference_solve(spec: ProblemSpec, grid, picard_tol: float = 1e-10,
                    picard_max: int = 200) -> Field:
    """Monodomain solve with the same discretization as the subdomain solves.

    Iteration errors measured against this field contain no discretization
    component: a restriction of the result is an exact fixed point of the
    multi-domain sweep.
    """
    sg = grid.monodomain()
    g0, gL = spec.boundary_values()
    if spec.mode == "elliptic":
        u, _ = solve_semilinear_elliptic(spec, sg, DirichletBC(g0), DirichletBC(gL),
                                         picard_tol, picard_max)
        return u
    if grid.t is None:
        raise ValueError("parabolic reference needs a grid with a time axis")
    initial = np.asarray(spec.g.value(sg.x, spec.length), dtype=float) + np.zeros(sg.n)
    return solve_semilinear_parabolic(spec, sg, DirichletBC(g0), DirichletBC(gL), initial,
                                      grid.dt, grid.t, picard_tol, picard_max)
