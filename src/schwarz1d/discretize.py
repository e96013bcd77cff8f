"""Finite-difference subdomain operators and their solves.

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

The matrix of a subdomain never changes during a run: which end is a
Robin row, the Robin parameters and 1/dt fix it; only the boundary data
change from sweep to sweep.  An ``Operator`` assembles it once and
LU-factors it with LAPACK ``gttrf``.  The solves take the operator and
the boundary data (the Dirichlet value or the Robin flux of each end);
each Picard step fills the boundary rows of the right-hand side and costs
one ``gttrs`` solve.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import get_lapack_funcs

from .geometry import SubGrid
from .problem import ProblemSpec

__all__ = [
    "Operator",
    "SingularSystemError",
    "NonFiniteError",
    "PicardError",
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
    """The operator has a zero pivot or a solve produced non-finite values."""


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


class Operator:
    """Factored tridiagonal matrix of -(a u')' + b u' + (c + c_shift) u with its
    boundary rows.

    ``robin_p`` (left, right) is the Robin parameter of each end, None for a
    Dirichlet end; ``c_shift`` is 1/dt in time stepping.  The matrix does not
    depend on the boundary data, so the engine builds one Operator per
    subdomain per run; its LU factors ``lu`` serve every Picard step, time
    level and Schwarz iteration, and ``system`` fills in only the boundary
    rows of a right-hand side.  ``meta`` records the diagonal-dominance
    threshold h* = 2 lambda / max|b| and a warning when h exceeds it.
    Raises SingularSystemError when the matrix has a zero pivot.
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
        dl, d, du, du2, ipiv, info = _gttrf(self._sub, self._main, self._sup)
        if info > 0:
            raise SingularSystemError(f"singular operator: zero pivot in row {info}")
        self.lu = (dl, d, du, du2, ipiv)

        lam = spec.a.lower_bound
        if lam is None:
            lam = float(np.min(np.concatenate([a_half, a_nodes])))
        b_max = float(np.max(np.abs(b)))
        h_star = np.inf if b_max == 0.0 else 2.0 * lam / b_max
        warnings = []
        if h > h_star:
            warnings.append(f"h = {h:g} above diagonal-dominance threshold h* = {h_star:g}")
        self.meta = {"warnings": warnings, "h": h, "h_star": h_star}

    def system(self, rhs: np.ndarray, left: float, right: float) -> np.ndarray:
        """``rhs`` with its boundary rows set from the data of both ends.

        ``rhs`` holds the interior rows' right-hand side and is overwritten
        in place.  ``left``/``right`` is the Dirichlet value or the Robin
        flux of that end.
        """
        for (end, row, alpha, pivot), value in zip(self._ends, (left, right)):
            rhs[end] = value if row is None else value - alpha * rhs[row] / pivot
        return rhs

    def dense(self) -> np.ndarray:
        """The matrix as a dense array (an oracle view; the solves never build it)."""
        m = np.diag(self._main)
        m[np.arange(1, self.n), np.arange(self.n - 1)] = self._sub
        m[np.arange(self.n - 1), np.arange(1, self.n)] = self._sup
        return m


def solve_banded(lu, rhs: np.ndarray) -> Field:
    """Solve with an operator's LAPACK gttrf factors ``lu`` (one gttrs call).

    The result is not checked for finiteness: the subdomain solves check
    their whole field once.
    """
    return _gttrs(*lu, rhs)[0]


def _check_finite(u: Field) -> Field:
    if not np.isfinite(u).all():
        raise NonFiniteError("banded solve produced non-finite values")
    return u


def _picard_solve(op: Operator, rhs_fixed: np.ndarray, left: float, right: float,
                  u_start: np.ndarray, picard_tol: float,
                  picard_max: int) -> tuple[Field, int]:
    """Solve one level; ``rhs_fixed`` is overwritten when F is zero."""
    F, x = op.spec.F, op.sg.x
    if F.kind == "zero":
        return solve_banded(op.lu, op.system(rhs_fixed, left, right)), 1
    u = u_start
    diffs: list[float] = []
    for m in range(1, picard_max + 1):
        u_new = solve_banded(op.lu, op.system(rhs_fixed + F(x, u), left, right))
        diff = float(np.abs(u_new - u).max())
        if not math.isfinite(diff):
            raise NonFiniteError("banded solve produced non-finite values")
        diffs.append(diff)
        u = u_new
        if diff <= picard_tol:
            return u, m
    raise PicardError(
        f"Picard iteration did not reach {picard_tol:g} in {picard_max} steps "
        f"(last diff {diffs[-1]:g})", diffs,
    )


def solve_semilinear_elliptic(op: Operator, left: float, right: float,
                              picard_tol: float = 1e-10, picard_max: int = 200,
                              u_start: Field | None = None) -> tuple[Field, int]:
    """Solve -(a u')' + b u' + c u = F(x, u) + source on ``op``'s subdomain.

    ``left``/``right`` is the Dirichlet value or the Robin flux of each end,
    as ``op.robin_p`` says.  The Picard loop starts from ``u_start`` (zero
    when None).  Returns the converged field and the number of Picard
    steps.  With c > Lipschitz(F) the iteration contracts at rate
    ~ C / min(c).  Raises NonFiniteError when the field is not finite.
    """
    sg = op.sg
    rhs_fixed = op.spec.source_values(sg.x) + np.zeros(sg.n)
    start = np.zeros(sg.n) if u_start is None else np.asarray(u_start, dtype=float)
    u, iters = _picard_solve(op, rhs_fixed, float(left), float(right), start, picard_tol,
                             picard_max)
    return _check_finite(u), iters


def _per_level(value, levels: int) -> list[float]:
    return np.broadcast_to(np.asarray(value, dtype=float), (levels,)).tolist()


def solve_semilinear_parabolic(op: Operator, left, right, initial: Field, dt: float,
                               t: np.ndarray, picard_tol: float = 1e-10,
                               picard_max: int = 200) -> Field:
    """March d/dt u - (a u')' + b u' + c u = F(x,u) + source by implicit Euler.

    ``op`` is the subdomain's operator with the shift 1/dt.  ``left``/
    ``right`` is the Dirichlet value or the Robin flux of each end, one
    scalar or one value per time level of ``t``.  Each level solves a
    semilinear elliptic problem with the previous level folded into the
    source.  Returns the (nodes, len(t)) space-time field; raises
    NonFiniteError when it is not finite.
    """
    if op.c_shift != 1.0 / dt:
        raise ValueError(f"operator built for shift {op.c_shift:g}, not 1/dt = {1.0 / dt:g}")
    spec, sg = op.spec, op.sg
    n_steps = len(t) - 1
    left, right = _per_level(left, n_steps + 1), _per_level(right, n_steps + 1)
    # a source that is None or a DataFn cannot depend on time: sample it once
    source = None if callable(spec.source) else spec.source_values(sg.x)
    field = np.empty((sg.n, n_steps + 1))
    field[:, 0] = np.asarray(initial, dtype=float)
    for m in range(1, n_steps + 1):
        src = spec.source_values(sg.x, float(t[m])) if source is None else source
        rhs_fixed = src + field[:, m - 1] / dt
        try:
            u, _ = _picard_solve(op, rhs_fixed, left[m], right[m], field[:, m - 1],
                                 picard_tol, picard_max)
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
        u, _ = solve_semilinear_elliptic(Operator(spec, sg, (None, None)), g0, gL,
                                         picard_tol, picard_max)
        return u
    if grid.t is None:
        raise ValueError("parabolic reference needs a grid with a time axis")
    initial = np.asarray(spec.g.value(sg.x, spec.length), dtype=float) + np.zeros(sg.n)
    op = Operator(spec, sg, (None, None), c_shift=1.0 / grid.dt)
    return solve_semilinear_parabolic(op, g0, gL, initial, grid.dt, grid.t, picard_tol,
                                      picard_max)
