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

The matrix of a subdomain never changes during a run: it depends on the
boundary-condition kinds, the Robin parameters and 1/dt, not on the
boundary data.  An ``Operator`` assembles it once and LU-factors it with
LAPACK ``gttrf``; each Picard step then costs one ``gttrs`` solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy.linalg import get_lapack_funcs

from .geometry import SubGrid
from .problem import ProblemSpec

__all__ = [
    "DirichletBC",
    "RobinBC",
    "BandedSystem",
    "Operator",
    "SingularSystemError",
    "NonFiniteError",
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

_gttrf, _gttrs = get_lapack_funcs(("gttrf", "gttrs"), dtype=np.float64)


class SingularSystemError(RuntimeError):
    """The banded system has a zero pivot or produced non-finite values."""


class NonFiniteError(SingularSystemError):
    """A solve produced non-finite values (the engine reads this as divergence)."""


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
    diagonal-dominance threshold h* = 2 lambda / max|b|).  ``lu`` holds the
    matrix's LAPACK gttrf factors when an ``Operator`` built the system.
    """

    n: int
    sub: np.ndarray
    main: np.ndarray
    sup: np.ndarray
    rhs: np.ndarray
    meta: dict = field(default_factory=dict)
    lu: tuple | None = None

    def dense(self) -> np.ndarray:
        m = np.diag(self.main)
        m[np.arange(1, self.n), np.arange(self.n - 1)] = self.sub
        m[np.arange(self.n - 1), np.arange(1, self.n)] = self.sup
        return m


def _robin_p(bc: BCValue) -> float | None:
    """What the matrix needs of a boundary condition: its Robin p, None for Dirichlet."""
    return None if isinstance(bc, DirichletBC) else float(bc.p)


def _factor(sub: np.ndarray, main: np.ndarray, sup: np.ndarray) -> tuple:
    """LAPACK gttrf factors (dl, d, du, du2, ipiv) of a tridiagonal matrix."""
    dl, d, du, du2, ipiv, info = _gttrf(sub, main, sup)
    if info > 0:
        raise SingularSystemError(f"banded solve failed: zero pivot in row {info}")
    return dl, d, du, du2, ipiv


class Operator:
    """Factored tridiagonal matrix of -(a u')' + b u' + (c + c_shift) u with its
    boundary rows.

    The matrix depends on the boundary-condition kinds, the Robin parameters
    ``robin_p`` (left, right; None for a Dirichlet end) and the shift (1/dt
    in time stepping), never on the boundary data.  The engine therefore
    builds one Operator per subdomain per run; its LU factors serve every
    Picard step, time level and Schwarz iteration, and ``system`` fills in
    only the right-hand side.
    """

    def __init__(self, spec: ProblemSpec, sg: SubGrid, robin_p: tuple,
                 c_shift: float = 0.0):
        if sg.n < 5:
            raise ValueError(f"subdomain grid too coarse ({sg.n} nodes, need >= 5)")
        self.sg = sg
        self.n = sg.n
        self.spec = spec
        self.robin_p = tuple(robin_p)
        self.c_shift = c_shift
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

        # per end: (row, eliminated row, alpha, pivot); the eliminated row is
        # None for Dirichlet
        self._ends = []
        for end, p in ((0, self.robin_p[0]), (n - 1, self.robin_p[1])):
            if p is None:  # u = value; the row's other entries stay 0
                main[end] = 1.0
                self._ends.append((end, None, None, None))
                continue
            # one-sided stencil written toward the interior; the third point
            # is eliminated with the neighboring interior row, which keeps
            # the matrix tridiagonal and the relation exact at the solution
            alpha = a_nodes[end] / (2 * h)
            if end == 0:
                s, d, t3 = sub[1], main[1], sup[1]  # row 1: s*u0+d*u1+t3*u2
                if abs(t3) < 1e-300:
                    raise SingularSystemError("cannot eliminate Robin stencil point")
                main[0] = 3 * alpha + p - alpha * s / t3
                sup[0] = -4 * alpha - alpha * d / t3
                self._ends.append((0, 1, alpha, t3))
            else:
                m = n - 1
                s, d, t3 = sub[m - 1], main[m - 1], sup[m - 1]
                if abs(s) < 1e-300:
                    raise SingularSystemError("cannot eliminate Robin stencil point")
                main[m] = 3 * alpha + p - alpha * t3 / s
                sub[m] = -4 * alpha - alpha * d / s
                self._ends.append((m, m - 1, alpha, s))
        self._sub, self._main, self._sup = sub[1:], main, sup[:-1]
        self.lu = _factor(self._sub, self._main, self._sup)

        lam = spec.a.lower_bound
        if lam is None:
            lam = float(np.min(np.concatenate([a_half, a_nodes])))
        b_max = float(np.max(np.abs(b)))
        h_star = np.inf if b_max == 0.0 else 2.0 * lam / b_max
        warnings = []
        if h > h_star:
            warnings.append(f"h = {h:g} above diagonal-dominance threshold h* = {h_star:g}")
        self.meta = {"warnings": warnings, "h": h, "h_star": h_star}

    @classmethod
    def for_bcs(cls, spec: ProblemSpec, sg: SubGrid, bc_left: BCValue,
                bc_right: BCValue, c_shift: float = 0.0) -> "Operator":
        """The operator of the kinds and Robin parameters of ``bc_left``/``bc_right``."""
        return cls(spec, sg, (_robin_p(bc_left), _robin_p(bc_right)), c_shift)

    def boundary_data(self, bc_left: BCValue, bc_right: BCValue, levels: int) -> tuple:
        """The data of both ends as per-level lists of length ``levels``.

        Raises ValueError when the conditions are not the kinds (and Robin
        parameters) the matrix was built for.
        """
        if (_robin_p(bc_left), _robin_p(bc_right)) != self.robin_p:
            raise ValueError(f"operator built for Robin parameters {self.robin_p} got "
                             f"boundary conditions {bc_left!r}, {bc_right!r}")
        return tuple(
            np.broadcast_to(np.asarray(bc.value if isinstance(bc, DirichletBC) else bc.flux,
                                       dtype=float), (levels,)).tolist()
            for bc in (bc_left, bc_right))

    def system(self, rhs: np.ndarray, data: tuple, level: int = 0) -> BandedSystem:
        """The system with ``rhs`` in the interior rows and ``data`` (from
        ``boundary_data``) of time ``level`` in the boundary rows.

        ``rhs`` becomes the system's right-hand side: its boundary rows are
        overwritten in place.
        """
        for (end, row, alpha, pivot), values in zip(self._ends, data):
            value = values[level]
            rhs[end] = value if row is None else value - alpha * rhs[row] / pivot
        return BandedSystem(self.n, self._sub, self._main, self._sup, rhs, self.meta,
                            self.lu)


def assemble_elliptic(spec: ProblemSpec, sg: SubGrid, bc_left: BCValue,
                      bc_right: BCValue, frozen_u: Field | None = None) -> BandedSystem:
    """Assemble the linearized elliptic system with F frozen at ``frozen_u``."""
    op = Operator.for_bcs(spec, sg, bc_left, bc_right)
    frozen = np.zeros(sg.n) if frozen_u is None else np.asarray(frozen_u, dtype=float)
    rhs_core = spec.source_values(sg.x) + np.atleast_1d(spec.F(sg.x, frozen)) + np.zeros(sg.n)
    return op.system(rhs_core, op.boundary_data(bc_left, bc_right, 1))


def solve_banded(system: BandedSystem) -> Field:
    """Solve the tridiagonal system (LAPACK banded LU: gttrs on gttrf factors).

    A system built by an ``Operator`` carries the operator's factors, so a
    solve is one ``gttrs`` call; a hand-built one is factored on the spot.
    Raises SingularSystemError on a zero pivot.  The result is not checked
    for finiteness: the subdomain solves check their whole field once.
    """
    if system.lu is not None:
        return _gttrs(*system.lu, system.rhs)[0]
    # scipy's gttrf wrapper rejects n < 3; pad smaller systems with identity rows
    pad = max(3 - system.n, 0)
    lu = _factor(np.pad(system.sub, (0, pad)), np.pad(system.main, (0, pad), constant_values=1.0),
                 np.pad(system.sup, (0, pad)))
    return _gttrs(*lu, np.pad(system.rhs, (0, pad)))[0][:system.n]


def _check_finite(u: Field) -> Field:
    if not np.isfinite(u).all():
        raise NonFiniteError("banded solve produced non-finite values")
    return u


def _picard_solve(op: Operator, rhs_fixed: np.ndarray, data: tuple, level: int,
                  u_start: np.ndarray, picard_tol: float,
                  picard_max: int) -> tuple[Field, int, list[float]]:
    """Solve one level; ``rhs_fixed`` is overwritten when F is zero."""
    F, x = op.spec.F, op.sg.x
    if F.kind == "zero":
        return solve_banded(op.system(rhs_fixed, data, level)), 1, [0.0]
    u = u_start
    diffs: list[float] = []
    for m in range(1, picard_max + 1):
        u_new = solve_banded(op.system(rhs_fixed + F(x, u), data, level))
        diff = float(np.abs(u_new - u).max())
        if not math.isfinite(diff):
            raise NonFiniteError("banded solve produced non-finite values")
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
                              picard_max: int = 200, u_start: Field | None = None,
                              op: Operator | None = None) -> tuple[Field, int]:
    """Solve -(a u')' + b u' + c u = F(x, u) + source on one subdomain.

    Returns the converged field and the number of Picard steps.  With
    c > Lipschitz(F) the iteration contracts at rate ~ C / min(c).  ``op``
    is the subdomain's operator for these boundary-condition kinds (built
    here when None).  Raises NonFiniteError when the field is not finite.
    """
    if op is None:
        op = Operator.for_bcs(spec, sg, bc_left, bc_right)
    data = op.boundary_data(bc_left, bc_right, 1)
    rhs_fixed = spec.source_values(sg.x) + np.zeros(sg.n)
    start = np.zeros(sg.n) if u_start is None else np.asarray(u_start, dtype=float)
    u, iters, _ = _picard_solve(op, rhs_fixed, data, 0, start, picard_tol, picard_max)
    return _check_finite(u), iters


def solve_semilinear_parabolic(spec: ProblemSpec, sg: SubGrid, bc_left: BCValue,
                               bc_right: BCValue, initial: Field, dt: float,
                               t: np.ndarray, picard_tol: float = 1e-10,
                               picard_max: int = 200,
                               op: Operator | None = None) -> Field:
    """March d/dt u - (a u')' + b u' + c u = F(x,u) + source by implicit Euler.

    ``bc_left``/``bc_right`` carry one boundary value (or Robin flux) per
    time level; each level solves a semilinear elliptic problem with c
    shifted by 1/dt and the previous level folded into the source.  ``op``
    is the subdomain's operator with that shift (built here when None).
    Returns the (nodes, len(t)) space-time field; raises NonFiniteError
    when it is not finite.
    """
    n_steps = len(t) - 1
    if op is None:
        op = Operator.for_bcs(spec, sg, bc_left, bc_right, c_shift=1.0 / dt)
    elif op.c_shift != 1.0 / dt:
        raise ValueError(f"operator built for shift {op.c_shift:g}, not 1/dt = {1.0 / dt:g}")
    data = op.boundary_data(bc_left, bc_right, n_steps + 1)
    # a source that is None or a DataFn cannot depend on time: sample it once
    source = None if callable(spec.source) else spec.source_values(sg.x)
    field = np.empty((sg.n, n_steps + 1))
    field[:, 0] = np.asarray(initial, dtype=float)
    for m in range(1, n_steps + 1):
        src = spec.source_values(sg.x, float(t[m])) if source is None else source
        rhs_fixed = src + field[:, m - 1] / dt
        try:
            u, _, _ = _picard_solve(op, rhs_fixed, data, m, field[:, m - 1], picard_tol,
                                    picard_max)
        except PicardError as exc:
            raise PicardError(f"time level {m} (t = {t[m]:g}): {exc}", exc.diffs,
                              time_level=m) from exc
        field[:, m] = u
    return _check_finite(field)


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
