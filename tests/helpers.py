"""Independent oracles shared by the test modules.

Everything here is deliberately written against the math, not against the
package internals: dense Gaussian elimination for linear solves, the
finite-difference matrix written from its formulas row by row,
hand-differentiated manufactured solutions, the closed-form contraction
factors in their published algebraic form, the Picard march written
plainly, one new array per operation, and the matrix of the discrete
interface map, read off the public sweep one unit datum at a time.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from schwarz1d.discretize import solve_banded
from schwarz1d.problem import ProblemSpec
from schwarz1d.schwarz import exchange, sweep


def dense_solve(A, b):
    """Gaussian elimination with partial pivoting (no library solver)."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    n = b.size
    for col in range(n):
        piv = col + int(np.argmax(np.abs(A[col:, col])))
        if A[piv, col] == 0.0:
            raise ZeroDivisionError("singular matrix")
        if piv != col:
            A[[col, piv]] = A[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
        for row in range(col + 1, n):
            f = A[row, col] / A[col, col]
            A[row, col:] -= f * A[col, col:]
            b[row] -= f * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - A[row, row + 1:] @ x[row + 1:]) / A[row, row]
    return x


def difference_matrix(spec: ProblemSpec, x, h: float, robin_p, c_shift: float = 0.0):
    """The finite-difference matrix of -(a u')' + b u' + (c + c_shift) u on the
    uniform nodes ``x`` of step ``h``, one row at a time from the formulas.

    Interior row i is the flux form with a at the midpoints and a centered
    b u':  (-a_{i-1/2} u_{i-1} + (a_{i-1/2} + a_{i+1/2}) u_i - a_{i+1/2} u_{i+1}) / h^2
    + b_i (u_{i+1} - u_{i-1}) / (2h) + (c_i + c_shift) u_i.  An end whose
    ``robin_p`` entry is None is the Dirichlet row u_end.  A Robin end with
    parameter p is the three-point relation a (3 u_end - 4 u_next + u_third)
    / (2h) + p u_end, with a at the end node, left as it is (nothing
    eliminated), so the matrix is not tridiagonal there.  The right-hand
    side is the interior rows' data with each end's row holding its
    Dirichlet value or Robin flux.
    """
    n, L = len(x), spec.length
    A = np.zeros((n, n))
    for i in range(1, n - 1):
        a_lo = spec.a.value(0.5 * (x[i - 1] + x[i]), L)
        a_hi = spec.a.value(0.5 * (x[i] + x[i + 1]), L)
        b, c = spec.b.value(x[i], L), spec.c.value(x[i], L) + c_shift
        A[i, i - 1] = -a_lo / h**2 - b / (2 * h)
        A[i, i] = (a_lo + a_hi) / h**2 + c
        A[i, i + 1] = -a_hi / h**2 + b / (2 * h)
    for end, step, p in ((0, 1, robin_p[0]), (n - 1, -1, robin_p[1])):
        if p is None:
            A[end, end] = 1.0
            continue
        a = spec.a.value(x[end], L)
        A[end, end] = 3 * a / (2 * h) + p
        A[end, end + step] = -4 * a / (2 * h)
        A[end, end + 2 * step] = a / (2 * h)
    return A


def tau_exponent5(L, L1, L2, p, q):
    """Double-sweep contraction factor in the exponent-5 algebraic form.

    |4 e^{5L2} + e^{5L} + p (e^{5L2} - e^{5L})| / |4 e^{5L2} + 1 + p (e^{5L2} - 1)|
    * |4 e^{5L1} + 1 - q (e^{5L1} - 1)| / |4 e^{5L1} + e^{5L} - q (e^{5L1} - e^{5L})|
    """
    X = math.exp(5 * L2)
    Y = math.exp(5 * L)
    Z = math.exp(5 * L1)
    f1 = abs((4 * X + Y + p * (X - Y)) / (4 * X + 1 + p * (X - 1)))
    f2 = abs((4 * Z + 1 - q * (Z - 1)) / (4 * Z + Y - q * (Z - Y)))
    return f1 * f2


class SineSolution:
    """Manufactured u*(x) = sin(pi x / L): exact values and derivatives."""

    def __init__(self, length: float):
        self.length = length
        self.w = math.pi / length

    def u(self, x):
        return np.sin(self.w * np.asarray(x, dtype=float))

    def du(self, x):
        return self.w * np.cos(self.w * np.asarray(x, dtype=float))

    def d2u(self, x):
        return -self.w**2 * np.sin(self.w * np.asarray(x, dtype=float))


def manufactured_elliptic(spec: ProblemSpec) -> tuple[ProblemSpec, SineSolution]:
    """Spec whose exact solution is sin(pi x / L) (vanishes at both ends).

    The source is  -a u*'' + b u*' + c u* - F(x, u*),  differentiated by
    hand for the constant diffusion coefficients the catalog uses.
    """
    assert spec.a.kind == "constant", "manufactured source assumes constant a"
    sol, L = SineSolution(spec.length), spec.length

    def src(x, t):
        x = np.asarray(x, dtype=float)
        ustar = sol.u(x)
        return (-spec.a.value(0.0, L) * sol.d2u(x) + np.atleast_1d(spec.b.value(x, L)) * sol.du(x)
                + np.atleast_1d(spec.c.value(x, L)) * ustar - np.atleast_1d(spec.F(x, ustar)))

    return replace(spec, source=src), sol


def manufactured_parabolic(spec: ProblemSpec) -> tuple[ProblemSpec, "object"]:
    """Spec whose exact solution is exp(-t) sin(pi x / L)."""
    assert spec.a.kind == "constant"
    sol, L = SineSolution(spec.length), spec.length

    class SpaceTime:
        @staticmethod
        def u(x, t):
            return math.exp(-t) * sol.u(x)

    def src(x, t):
        x = np.asarray(x, dtype=float)
        decay = math.exp(-t)
        ustar = decay * sol.u(x)
        return (-decay * sol.u(x) - spec.a.value(0.0, L) * decay * sol.d2u(x)
                + np.atleast_1d(spec.b.value(x, L)) * decay * sol.du(x)
                + np.atleast_1d(spec.c.value(x, L)) * ustar - np.atleast_1d(spec.F(x, ustar)))

    return replace(spec, source=src), SpaceTime


def fitted_order(hs, errs) -> float:
    """Least-squares slope of log err against log h (the observed order)."""
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


def plain_picard_march(op, left, right, u, t, dt=None, picard_tol=1e-10, picard_max=200):
    """The semilinear solves as a plain Picard march that allocates on every step.

    Level m = 1 .. len(t) - 1 solves  A u = F(x, u) + fixed  on ``op``, with
    the boundary data ``left``/``right`` (a scalar, or one value per level of
    ``t``).  ``fixed`` is the source at t[m] plus the previous level over
    ``dt``; with ``dt`` None (one elliptic level) it is the source plus 0.0,
    which turns -0.0 into 0.0.  A level with F zero is one solve.  Otherwise
    Picard steps, started from the previous level, repeat until
    max|u_new - u| <= picard_tol.  ``u`` is level 0 (None: zero).  Returns the
    levels as a (nodes, len(t)) array and the Picard steps of each level.
    """
    spec, x = op.spec, op.x
    left, right = (np.broadcast_to(np.asarray(v, dtype=float), (len(t),)) for v in (left, right))
    u = np.zeros(op.n) if u is None else np.array(u, dtype=float)
    levels, steps = [u], []
    for m in range(1, len(t)):
        source = spec.source_values(x, float(t[m]))
        fixed = source + 0.0 if dt is None else source + u / dt
        data = float(left[m]), float(right[m])
        if spec.F.kind == "zero":
            u = solve_banded(op.lu, op.system(fixed.copy(), *data))
            steps.append(1)
        else:
            for step in range(1, picard_max + 1):
                u_new = solve_banded(op.lu, op.system(spec.F(x, u) + fixed, *data))
                diff = np.max(np.abs(u_new - u))
                u = u_new
                if diff <= picard_tol:
                    break
            else:
                raise AssertionError(f"level {m}: no Picard convergence in {picard_max} steps")
            steps.append(step)
        levels.append(u)
    return np.array(levels).T, steps


def snapped_cell_count(endpoints, length, n_min, candidates=5000):
    """The smallest N in n_min .. n_min + candidates that puts every endpoint p
    on a node, p N / L within 1e-9 max(1, N) of an integer; None if none does.

    Every candidate is tried against every endpoint, in order.
    """
    for n in range(n_min, n_min + candidates + 1):
        if all(abs(p * n / length - round(p * n / length)) <= 1e-9 * max(1.0, n)
               for p in endpoints):
            return n
    return None


def lattice_chain(rng, length, count, denominator):
    """A random chain of ``count`` overlapping subdomains of (0, length) whose
    interior ends are distinct points length * j / denominator.

    With the interior ends sorted, s_0 < s_1 < ..., subdomain i is
    (s_{2i-2}, s_{2i+1}), from 0 for the first and to ``length`` for the
    last: it overlaps its successor on (s_{2i}, s_{2i+1}), and no point is
    in three subdomains.
    """
    js = sorted(rng.choice(np.arange(1, denominator), size=2 * count - 2, replace=False))
    s = [length * int(j) / denominator for j in js]
    return tuple(zip([0.0, *s[0::2]], [*s[1::2], length]))


def interface_map(plan) -> np.ndarray:
    """The matrix M of one Jacobi sweep's map on the interface data of a
    linear elliptic ``plan``; the iteration converges iff rho(M) < 1.

    The map is affine, S(d) = M d + S(0), so column j of M is
    S(e_j) - S(0).  S(d) writes ``d`` into the interface slots (the Nones)
    of ``exchange(plan, [])``, solves one sweep from those data and reads
    the same slots of the data that the new fields give.
    """
    problem = plan.cfg.problem
    assert problem.mode == "elliptic" and problem.F.kind == "zero", "S must be affine"
    template = exchange(plan, [])
    slots = [(l, end) for l, pair in enumerate(template)
             for end, datum in enumerate(pair) if datum is None]
    starts = [None] * len(plan.ops)

    def S(d):
        data = [list(pair) for pair in template]
        for (l, end), value in zip(slots, d):
            data[l][end] = float(value)
        new = exchange(plan, [field for field, _ in sweep(plan, data, starts)])
        return np.array([float(new[l][end]) for l, end in slots])

    base = S(np.zeros(len(slots)))
    return np.column_stack([S(e) - base for e in np.eye(len(slots))])
