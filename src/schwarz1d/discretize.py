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

The module raises builtin errors only, and its messages say what went
wrong: an ``Operator`` that cannot be built (a grid too coarse, a Robin
stencil point that cannot be eliminated, a zero pivot) is a ValueError,
and a Picard loop that spends its budget is a RuntimeError that names
the budget, the last difference and, in a parabolic solve, the time
level.  A solve that succeeds returns its field unchecked: a field that
is not finite is the caller's to judge.

The matrix of a subdomain never changes during a run: which end is a
Robin row, the Robin parameters and 1/dt fix it; only the boundary data
change from sweep to sweep.  An ``Operator`` assembles it once and
LU-factors it with LAPACK ``gttrf``; it also samples a source that cannot
depend on time once, as ``source``.  The solves take the operator and
the boundary data (the Dirichlet value or the Robin flux of each end).

Both solves are one march over time levels: a parabolic solve marches
all levels of its time axis, an elliptic solve (and with it the
elliptic reference) one level.  The systems have ~100 nodes in the
parabolic runs, so a numpy call costs more than its arithmetic; the
march therefore makes its buffers once per solve and allocates nothing
per Picard step: ``gttrs`` solves in place, into the right-hand side,
and the Picard loop rotates two such buffers, so it never writes into
the caller's start vector.  Each Picard step calls ``solve_banded``
once, through this module's attribute, which a tracer may replace: the
count of those calls is the number of Picard steps.  Every solve
returns its field with that count, its Picard total: the march adds
each level's steps once the level is done.  A parabolic march
writes each level into one row of a time-major (levels, nodes) buffer,
and the solve returns that buffer's transposed view: a (nodes, levels)
field that is not C-contiguous, with no copy made.  The buffer is the
caller's ``out`` when given, so a caller that is done with each field
before the next solve makes one buffer for all of them.

``gttrf`` and ``gttrs`` are the ``dgttrf`` / ``dgttrs`` of scipy's LAPACK
extension module ``scipy.linalg._flapack``, the very objects that
``scipy.linalg.get_lapack_funcs`` returns.  The module loads that one
extension by its file instead of importing ``scipy.linalg``, whose
``__init__`` pulls in the rest of scipy's linear algebra, its array-API
layer, ``numpy.f2py`` and ``numpy.testing``: about 25 MB of memory and a
quarter of a second at every start, for two routines.
"""

from __future__ import annotations

import importlib.util
import math
import os
from collections.abc import Sequence
from importlib.machinery import PathFinder

import numpy as np
import scipy

from .problem import ProblemSpec

__all__ = [
    "Operator",
    "solve_banded",
    "solve_semilinear_elliptic",
    "solve_semilinear_parabolic",
    "reference_solve",
]

#: values on a subdomain's nodes; elliptic solves return a 1D vector,
#: parabolic solves a (nodes, time levels) matrix, the transposed view of
#: a time-major buffer.
Field = np.ndarray


def _load_flapack():
    """scipy's LAPACK extension module, loaded without importing scipy.linalg.

    ``import scipy`` above has run scipy's own set-up of its shared
    libraries (which Windows wheels need); the extension is found in
    scipy's ``linalg`` directory and loaded under its real name.
    """
    name = "scipy.linalg._flapack"
    spec = PathFinder.find_spec(name, [os.path.join(scipy.__path__[0], "linalg")])
    if spec is None:
        raise ImportError(f"{name} not found in {scipy.__path__[0]}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
_gttrf, _gttrs = _flapack.dgttrf, _flapack.dgttrs


class Operator:
    """Factored tridiagonal matrix of -(a u')' + b u' + (c + c_shift) u with its
    boundary rows, on the uniform nodes ``x`` of step ``h``.

    ``x`` is a subdomain's nodes, ``grid.x[grid.nodes(l)]``, or the whole
    grid's for the reference; the operator keeps it as ``op.x`` and its
    size as ``op.n``.  ``robin_p`` (left, right) is the Robin parameter of
    each end, None for a Dirichlet end; ``c_shift`` is a constant added to
    c, 1/dt in time stepping.  The matrix does not depend on the boundary
    data, so the engine builds one Operator per subdomain per run; its LU
    factors ``lu`` serve every Picard step, time level and Schwarz
    iteration, and ``system`` fills in only the boundary rows of a
    right-hand side.  Both Robin ends come from one formula, so
    the right end's row is the left end's mirrored.  ``source`` is the
    source sampled on the nodes when it is None or an Fn, which cannot
    depend on time, and None for a callable ``f(x, t)``, which the solves
    sample per call or time level; it is read-only, so a solve must copy
    it before writing.
    ``warnings`` holds a warning when h exceeds the diagonal-dominance
    threshold h* = 2 lambda / max|b|, with lambda the least a on the nodes
    and midpoints.  Raises ValueError when the matrix cannot be built: a
    subdomain grid of fewer than 5 nodes, a Robin stencil point that cannot
    be eliminated, an entry that overflows a float (such as a / h^2 for a
    huge a), or a zero pivot.  The assembly runs under an ``np.errstate``
    that silences numpy's overflow and invalid-value warnings, since the
    finiteness check names them.  A solve never raises for its matrix; it
    returns its field, finite or not.
    """

    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, spec: ProblemSpec, x: np.ndarray, h: float, robin_p: tuple,
                 c_shift: float = 0.0):
        n = x.size
        if n < 5:
            raise ValueError(f"subdomain grid too coarse ({n} nodes, need >= 5)")
        self.x, self.n, self.spec, self.c_shift = x, n, spec, c_shift
        L = spec.length
        xh = 0.5 * (x[:-1] + x[1:])
        a_half = spec.a.value(xh, L)
        b = spec.b.value(x, L)
        c = spec.c.value(x, L) + c_shift
        a_nodes = spec.a.value(x, L)

        sub, main, sup = np.zeros((3, n))  # sub[i] / sup[i] multiplies u_{i-1} / u_{i+1} in row i
        i = np.arange(1, n - 1)
        sub[i] = -a_half[i - 1] / h**2 - b[i] / (2 * h)
        main[i] = (a_half[i - 1] + a_half[i]) / h**2 + c[i]
        sup[i] = -a_half[i] / h**2 + b[i] / (2 * h)

        # per end: (row, eliminated row, alpha, pivot); the eliminated row is
        # None for Dirichlet.  alpha and pivot are Python floats, whose
        # arithmetic in system() is cheaper than numpy scalars' and the same
        self._ends = []
        for end, p in ((0, robin_p[0]), (n - 1, robin_p[1])):
            if p is None:  # u = value; the row's other entries stay 0
                main[end] = 1.0
                self._ends.append((end, None, None, None))
                continue
            # one-sided stencil written toward the interior; its third point
            # is eliminated with the interior row next to the end, which keeps
            # the matrix tridiagonal and the relation exact at the solution.
            # near[i] / far[i] is row i's coefficient of its neighbor toward /
            # away from the end, so that row reads near*u_end + main*u_row +
            # far*u_third, and far[end] is the end row's off-diagonal
            alpha = a_nodes[end] / (2 * h)
            row, near, far = (1, sub, sup) if end == 0 else (n - 2, sup, sub)
            pivot = far[row]
            if abs(pivot) < 1e-300:
                raise ValueError("cannot eliminate Robin stencil point")
            main[end] = 3 * alpha + p - alpha * near[row] / pivot
            far[end] = -4 * alpha - alpha * main[row] / pivot
            self._ends.append((end, row, float(alpha), float(pivot)))
        if not all(np.isfinite(v).all() for v in (sub, main, sup)):
            raise ValueError(f"a matrix entry overflows a float: a / h^2, b / h or c is not "
                             f"finite at h = {h:g}")
        dl, d, du, du2, ipiv, info = _gttrf(sub[1:], main, sup[:-1])
        if info > 0:
            raise ValueError(f"singular operator: zero pivot in row {info}")
        self.lu = (dl, d, du, du2, ipiv)
        self.source = None
        if not callable(spec.source):
            self.source = spec.source_values(x)
            self.source.setflags(write=False)

        lam = float(np.minimum(a_half.min(), a_nodes.min()))  # a NaN stays, as min() may drop it
        b_max = float(np.max(np.abs(b)))
        h_star = np.inf if b_max == 0.0 else 2.0 * lam / b_max
        self.warnings = ([f"h = {h:g} above diagonal-dominance threshold h* = {h_star:g}"]
                         if h > h_star else [])

    def system(self, rhs: np.ndarray, left: float, right: float) -> np.ndarray:
        """``rhs`` with its boundary rows set from the data of both ends.

        ``rhs`` holds the interior rows' right-hand side and is overwritten
        in place.  ``left``/``right`` is the Dirichlet value or the Robin
        flux of that end.
        """
        (end0, row0, alpha0, pivot0), (end1, row1, alpha1, pivot1) = self._ends
        rhs[end0] = left if row0 is None else left - alpha0 * rhs.item(row0) / pivot0
        rhs[end1] = right if row1 is None else right - alpha1 * rhs.item(row1) / pivot1
        return rhs


def solve_banded(lu, rhs: np.ndarray) -> Field:
    """Solve with an operator's LAPACK gttrf factors ``lu`` (one gttrs call).

    The solve overwrites ``rhs`` with the solution and returns it, so a
    caller that needs the right-hand side afterwards passes a copy.  (A
    ``rhs`` that is not a contiguous float64 vector is copied by the
    LAPACK wrapper and left as it was.)  The result is not checked for
    finiteness.
    """
    # trans and overwrite_b by position: the keyword costs more than the copy
    return _gttrs(*lu, rhs, "N", 1)[0]


def _march(op: Operator, left: Sequence[float], right: Sequence[float], t, u: Field | None,
           dt: float | None, picard_tol: float, picard_max: int,
           field: np.ndarray | None = None) -> tuple[Field, int]:
    """Solve the levels m = 1, 2, ... of ``t`` in turn; return the last one's
    field and the Picard steps of all levels (one for a level with F zero),
    which is the number of ``solve_banded`` calls.

    ``left``/``right``/``t`` hold one entry per level, entry 0 unused.  The
    fixed part of a level's right-hand side is its source at t[m] plus the
    previous level over ``dt``, or with ``dt`` None (one elliptic level)
    the source plus 0.0, which turns -0.0 into 0.0.  ``u`` is the previous
    level (None: zero) and starts the level's Picard loop; it is only
    read.  Row m of ``field`` receives level m.  The buffers are made once
    per call: each Picard step builds its right-hand side in the buffer
    that does not hold ``u`` and solves it in place, so the two swap roles.
    ufuncs get their ``out`` by position, which costs less than the keyword.
    """
    if picard_max < 1:
        raise ValueError(f"picard_max must be >= 1, got {picard_max}")
    F, x, lu, source, system = op.spec.F, op.x, op.lu, op.source, op.system
    add, subtract, absolute = np.add, np.subtract, np.abs
    # a ufunc takes a 0-d array operand faster than a Python float, same bits
    shift = None if dt is None else np.array(dt)
    fixed = np.empty(op.n)
    linear = F.kind == "zero"
    if not linear:  # F zero: fixed is solved in place, so no more buffers
        rhs, spare, work = np.empty(op.n), np.empty(op.n), np.empty(op.n)
        if u is None:
            u = np.zeros(op.n)
    steps, total = 1, 0  # a level with F zero takes one step
    for m in range(1, len(t)):
        src = op.spec.source_values(x, float(t[m])) if source is None else source
        if shift is None:
            add(src, 0.0, fixed)
        else:
            add(src, np.divide(u, shift, fixed), fixed)
        lo, hi = left[m], right[m]
        if linear:
            u = solve_banded(lu, system(fixed, lo, hi))
        else:
            for steps in range(1, picard_max + 1):
                add(F(x, u, rhs), fixed, rhs)
                u_new = solve_banded(lu, system(rhs, lo, hi))
                absolute(subtract(u_new, u, work), work)
                # argmax stops at the first NaN, as np.max would return it
                diff = work.item(work.argmax())
                u, rhs, spare = u_new, spare, rhs
                # a non-finite difference ends the level as it is: the field
                # carries it to the caller, whose error norm judges it
                if diff <= picard_tol or not math.isfinite(diff):
                    break
            else:
                # a spent budget still accepts the level within picard_tol *
                # max|u|, since the solve's round-off grows with the field
                if diff > picard_tol * absolute(u, work).max():
                    level = "" if dt is None else f"time level {m} (t = {t[m]:g}): "
                    raise RuntimeError(f"{level}Picard iteration did not reach {picard_tol:g} "
                                       f"in {picard_max} steps (last diff {diff:g})")
        total += steps
        if field is not None:
            field[m] = u
    return u, total


def solve_semilinear_elliptic(op: Operator, left: float, right: float,
                              picard_tol: float = 1e-10, picard_max: int = 200,
                              u_start: Field | None = None) -> tuple[Field, int]:
    """Solve -(a u')' + b u' + c u = F(x, u) + source on ``op``'s subdomain.

    ``left``/``right`` is the Dirichlet value or the Robin flux of each end,
    as the ``robin_p`` that built ``op`` says.  The Picard loop starts from
    ``u_start`` (zero when None) and stops once a step changes the field by
    at most ``picard_tol`` (max norm); when ``picard_max`` steps are spent, a
    last change of at most ``picard_tol * max|u|`` is accepted too, and a
    larger one raises RuntimeError.  With c > Lipschitz(F) the iteration contracts
    at rate ~ C / min(c).  Returns the field and the number of Picard
    steps.  The field is not checked: a step whose change is not finite
    ends the loop, and the non-finite field is returned for the caller to
    judge.
    """
    start = None if u_start is None else np.asarray(u_start, dtype=float)
    # one level, whose source is sampled at t = 0
    return _march(op, [None, float(left)], [None, float(right)], (0.0, 0.0), start, None,
                  picard_tol, picard_max)


def _per_level(value, levels: int) -> Sequence[float]:
    """``value`` per level, indexed as Python floats: one float listed
    ``levels`` times for a scalar, else a memoryview of the values, which
    makes no float object until a level reads it."""
    value = np.asarray(value, dtype=float)
    if value.ndim == 0:
        return [float(value)] * levels
    return memoryview(np.ascontiguousarray(np.broadcast_to(value, (levels,))))


def solve_semilinear_parabolic(op: Operator, left, right, initial: Field, dt: float,
                               t: np.ndarray, picard_tol: float = 1e-10,
                               picard_max: int = 200,
                               out: np.ndarray | None = None) -> tuple[Field, int]:
    """March d/dt u - (a u')' + b u' + c u = F(x,u) + source by implicit Euler.

    ``op`` is the subdomain's operator with the shift 1/dt.  ``left``/
    ``right`` is the Dirichlet value or the Robin flux of each end, one
    scalar or one value per time level of ``t``.  Each level solves a
    semilinear elliptic problem with the previous level folded into the
    source, and runs the Picard loop of ``solve_semilinear_elliptic``; a
    level that spends its budget raises RuntimeError naming the level.
    The source is ``op.source`` at every level unless it is callable.
    Returns the (nodes, len(t)) space-time field, the transposed view of
    the march's time-major buffer (not C-contiguous: each level is a
    contiguous column), and the Picard steps of all its levels.  The
    field is not checked: a level that is not
    finite is marched on, as the later levels that it makes non-finite.
    ``out``, a float64 vector of at least len(t) * op.n values, is the
    buffer when given: the field overwrites its leading values, so it
    lives only until ``out`` is written again.  A caller whose fields die
    one by one passes one buffer to all its solves.
    """
    if op.c_shift != 1.0 / dt:
        raise ValueError(f"operator built for shift {op.c_shift:g}, not 1/dt = {1.0 / dt:g}")
    levels = len(t)
    # time-major, so each level's row is contiguous
    field = np.empty((levels, op.n)) if out is None else out[:levels * op.n].reshape(levels, op.n)
    field[0] = np.asarray(initial, dtype=float)
    # an inf level turns the later ones NaN (sin(inf), inf - inf), which
    # the caller's error norm judges, so numpy need not warn
    with np.errstate(invalid="ignore"):
        steps = _march(op, _per_level(left, levels), _per_level(right, levels), t, field[0],
                       dt, picard_tol, picard_max, field)[1]
    return field.T, steps


def reference_solve(spec: ProblemSpec, grid, picard_tol: float = 1e-10,
                    picard_max: int = 200) -> tuple[Field, int]:
    """Monodomain solve with the same discretization as the subdomain solves;
    returns the field and its Picard steps, as the solves do.

    Iteration errors measured against this field contain no discretization
    component: a restriction of the result is an exact fixed point of the
    multi-domain sweep.  It fails as the solves do, a ValueError for an
    operator that cannot be built and a RuntimeError for a spent Picard
    budget, and returns its field unchecked.  It reads the nodes ``x``,
    the step ``h`` and, in a parabolic solve, the time axis ``t`` and
    ``dt`` of ``grid``.
    """
    g0, gL = spec.boundary_values()
    if spec.mode == "elliptic":
        return solve_semilinear_elliptic(Operator(spec, grid.x, grid.h, (None, None)), g0, gL,
                                         picard_tol, picard_max)
    if grid.t is None:
        raise ValueError("parabolic reference needs a grid with a time axis")
    op = Operator(spec, grid.x, grid.h, (None, None), c_shift=1.0 / grid.dt)
    return solve_semilinear_parabolic(op, g0, gL, spec.g.value(grid.x, spec.length), grid.dt,
                                      grid.t, picard_tol, picard_max)
