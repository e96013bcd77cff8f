import ast
import itertools
import math
from collections import namedtuple
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from schwarz1d import discretize
from schwarz1d.discretize import (
    Operator,
    reference_solve,
    solve_banded,
    solve_semilinear_elliptic,
    solve_semilinear_parabolic,
)
from schwarz1d.geometry import build_grid, build_uniform_partition
from schwarz1d.problem import (
    Fn,
    Nonlinearity,
    ProblemSpec,
    catalog_lookup,
)

from helpers import (
    dense_solve,
    difference_matrix,
    fitted_order,
    manufactured_elliptic,
    manufactured_parabolic,
    plain_picard_march,
)


# the nodes and step of a uniform grid on (0, length), which Operator takes
SubGrid = namedtuple("SubGrid", "x h")


def subgrid(length: float, n_cells: int) -> SubGrid:
    x = np.linspace(0.0, length, n_cells + 1)
    return SubGrid(x=x, h=length / n_cells)


def simple_spec(a=1.0, b=0.0, c=0.0, F=None, length=1.0, source=None) -> ProblemSpec:
    return ProblemSpec(
        mode="elliptic",
        a=Fn.constant(a),
        b=Fn.constant(b),
        c=Fn.constant(c),
        F=F or Nonlinearity.zero(),
        g=Fn.zero(),
        length=length,
        source=source,
    )


def dirichlet(spec, sg, c_shift=0.0) -> Operator:
    return Operator(spec, *sg, (None, None), c_shift)


def frozen_rhs(spec: ProblemSpec, x, frozen_u, left: float, right: float) -> np.ndarray:
    """Right-hand side of the difference formulas with F frozen at ``frozen_u``:
    source + F in the interior rows, the boundary data in the end rows."""
    rhs = spec.source_values(x) + np.atleast_1d(spec.F(x, frozen_u)) + np.zeros(x.size)
    rhs[0], rhs[-1] = left, right
    return rhs


def roundoff(u) -> float:
    """Round-off bound of a solved field ``u``: the condition number of a
    second-difference matrix grows as its size squared."""
    return 10 * np.finfo(float).eps * u.size**2 * np.max(np.abs(u))


def random_operator(rng, robin_p=None) -> tuple[Operator, np.ndarray]:
    """An operator with random coefficients, end kinds, Robin p and shift,
    and the difference matrix of the same problem."""
    n_cells = int(rng.integers(4, 50))
    length = float(rng.uniform(0.5, 2.0))
    spec = simple_spec(a=rng.uniform(0.5, 2.0), b=rng.uniform(-5.0, 5.0),
                       c=rng.uniform(0.5, 5.0), length=length)
    if robin_p is None:
        robin_p = tuple(None if rng.random() < 0.5 else float(rng.uniform(0.1, 10.0))
                        for _ in range(2))
    c_shift = 0.0 if rng.random() < 0.5 else float(rng.uniform(1.0, 100.0))
    sg = subgrid(length, n_cells)
    return Operator(spec, *sg, robin_p, c_shift), difference_matrix(spec, *sg, robin_p, c_shift)


# --------------------------------------------------------------------------
# operators and solve_banded
# --------------------------------------------------------------------------

def test_dirichlet_rows_are_identity_rows():
    # a Dirichlet end is the row u = value; the fill writes the data there and
    # leaves the interior rows as given, and the solve returns the data at the
    # ends to round-off: a pivoting gttrf need not return them bit for bit
    rng = np.random.default_rng(3)
    for _ in range(20):
        op, _ = random_operator(rng, robin_p=(None, None))
        interior = rng.uniform(-5, 5, op.n)
        left, right = rng.uniform(-5, 5, 2)
        rhs = op.system(interior.copy(), left, right)
        np.testing.assert_array_equal(rhs, np.r_[left, interior[1:-1], right])
        u = solve_banded(op.lu, rhs)
        np.testing.assert_allclose(u[[0, -1]], [left, right], rtol=0, atol=roundoff(u))


def test_discrete_laplacian_exact_for_quadratic():
    # -u'' + s u = 2 + s u* with u* = x(1 - x): the three-point stencil and the
    # one-sided Robin stencil are exact for quadratics; u* vanishes at both ends
    # and has du*/dn = -1 there, so the Dirichlet data are 0 and the Robin fluxes -1
    shift = 3.0
    for robin_p in ((None, None), (1.5, None), (None, 0.5), (2.0, 3.0)):
        op = Operator(simple_spec(), *subgrid(1.0, 8), robin_p, c_shift=shift)
        x = op.x
        exact = x * (1 - x)
        left, right = (0.0 if p is None else -1.0 for p in robin_p)
        rhs = op.system(2.0 + shift * exact, left, right)
        np.testing.assert_allclose(solve_banded(op.lu, rhs), exact, atol=1e-13)


def test_against_dense_elimination_oracle():
    # the tridiagonal solve, its Robin rows eliminated, against Gaussian
    # elimination of the difference formulas with the three-point Robin rows
    rng = np.random.default_rng(7)
    for _ in range(100):
        op, A = random_operator(rng)
        # a solution of order one keeps the absolute bound as strict as for
        # matrices with entries of order one, whatever 1/h^2 is
        rhs = A @ rng.uniform(-5, 5, op.n)
        x_banded = solve_banded(op.lu, op.system(rhs.copy(), rhs[0], rhs[-1]))
        x_dense = dense_solve(A, rhs)
        assert np.max(np.abs(x_banded - x_dense)) <= 1e-10


def test_residual_postcondition():
    # the solved field satisfies every difference formula, the un-eliminated
    # Robin rows among them, to round-off of the solution's scale
    rng = np.random.default_rng(11)
    for _ in range(100):
        op, A = random_operator(rng)
        rhs = rng.uniform(-5, 5, op.n)
        x = solve_banded(op.lu, op.system(rhs.copy(), rhs[0], rhs[-1]))
        res = np.max(np.abs(A @ x - rhs))
        norm_a = np.max(np.sum(np.abs(A), axis=1))
        assert res <= 1e-12 * (norm_a * np.max(np.abs(x)) + np.max(np.abs(rhs)))


def test_singular_system_raises():
    # Neumann rows at both ends of -u'' = 0: constants span the kernel
    spec = catalog_lookup("laplace1d")
    for n_cells in (4, 8, 16):
        with pytest.raises(ValueError, match="zero pivot"):
            Operator(spec, *subgrid(1.0, n_cells), (0.0, 0.0))
    with pytest.raises(ValueError, match="too coarse"):
        Operator(spec, *subgrid(1.0, 3), (None, None))


def test_reused_operator_reproduces_a_fresh_solve_bitwise():
    spec = replace(catalog_lookup("heat-semilinear"), time_horizon=0.1)
    sg = subgrid(1.0, 20)
    t = np.linspace(0, 0.1, 11)
    left, right = np.linspace(0.0, 0.1, 11), np.ones(11)
    initial = np.sin(np.pi * sg.x)
    op = Operator(spec, *sg, (None, 2.0), c_shift=1.0 / 0.01)
    fresh, _ = solve_semilinear_parabolic(Operator(spec, *sg, (None, 2.0), c_shift=1.0 / 0.01),
                                          left, right, initial, 0.01, t)
    for _ in range(2):
        reused, _ = solve_semilinear_parabolic(op, left, right, initial, 0.01, t)
        assert np.array_equal(reused, fresh)


_LAPACK_IS_SCIPYS = """
import sys
import numpy as np
if sys.argv[1] == "scipy.linalg first":
    import scipy.linalg
from schwarz1d import discretize
assert ("scipy.linalg" in sys.modules) == (sys.argv[1] == "scipy.linalg first")
from scipy.linalg import lapack

assert discretize._gttrf.__doc__ == lapack.dgttrf.__doc__
assert discretize._gttrs.__doc__ == lapack.dgttrs.__doc__
n, h = 9, 1e-3
interior = np.full(n - 2, -1 / h**2)
systems = {
    # Dirichlet rows (diagonal 1) beside interior rows of size 1/h^2
    "pivots": (np.r_[interior, 0.0], np.r_[1.0, np.full(n - 2, 2 / h**2), 1.0],
               np.r_[0.0, interior]),
    "no pivots": (np.full(n - 1, -1.0), np.full(n, 4.0), np.full(n - 1, -1.5)),
}
rhs = np.sin(np.arange(n) + 0.5)
for name, (dl, d, du) in systems.items():
    ours, scipys = discretize._gttrf(dl, d, du), lapack.dgttrf(dl, d, du)
    assert scipys[-1] == 0
    assert (scipys[4] != np.arange(1, n + 1)).any() == (name == "pivots")
    assert [np.asarray(a).tobytes() for a in ours] == [np.asarray(a).tobytes() for a in scipys]
    x, x_scipy = discretize._gttrs(*ours[:5], rhs), lapack.dgttrs(*scipys[:5], rhs)
    assert x_scipy[1] == 0
    assert x[0].tobytes() == x_scipy[0].tobytes()
print("same")
"""


@pytest.mark.parametrize("order", ["package first", "scipy.linalg first"])
def test_lapack_routines_are_scipys_own(fresh_python, order):
    # the package loads scipy's LAPACK extension without scipy.linalg; its
    # gttrf / gttrs must be scipy's, bit for bit, whichever is imported first
    assert fresh_python(_LAPACK_IS_SCIPYS, order) == "same\n"


def test_missing_lapack_extension_is_an_import_error_naming_it(monkeypatch, tmp_path):
    monkeypatch.setattr(discretize.scipy, "__path__", [str(tmp_path)])
    with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack not found"):
        discretize._load_flapack()


@pytest.mark.parametrize("F", [Nonlinearity.zero(), Nonlinearity.sine(1.0)])
def test_operator_source_survives_repeated_solves(F):
    # the F-zero solve fills the boundary rows of its right-hand side in
    # place; it must do so on a copy of the operator's sampled source
    spec = simple_spec(b=1.0, c=4.0, F=F, source=Fn.sine(-3.0, 2))
    sg = subgrid(1.0, 24)
    op = Operator(spec, *sg, (None, 2.0))
    for left, right in ((0.0, 0.0), (5.0, -2.0), (-1.0, 7.0)):
        u, _ = solve_semilinear_elliptic(op, left, right)
    fresh, _ = solve_semilinear_elliptic(Operator(spec, *sg, (None, 2.0)), -1.0, 7.0)
    assert np.array_equal(u, fresh)
    assert np.array_equal(op.source, -3.0 * np.sin(2 * np.pi * sg.x))


def test_a_type_error_inside_a_source_surfaces_its_own_message():
    # a source is called as f(x, t) only: a TypeError raised inside it is
    # not taken for a one-argument source and retried as f(x)
    def src(x, t):
        return t[0] * x  # t is a float

    message = "^'float' object is not subscriptable$"
    spec = simple_spec(c=4.0, source=src)
    heat = heat_operator(Nonlinearity.zero(), source=src)
    solves = [
        lambda: spec.source_values(np.linspace(0.0, 1.0, 5), 0.5),
        lambda: solve_semilinear_elliptic(dirichlet(spec, subgrid(1.0, 10)), 0.0, 0.0),
        lambda: solve_semilinear_parabolic(heat, 0.0, 1.0, np.zeros(heat.n), 0.01,
                                           np.linspace(0, 0.1, 11)),
    ]
    for solve in solves:
        with pytest.raises(TypeError, match=message) as caught:
            solve()
        assert caught.value.__context__ is None


def test_parabolic_solve_rejects_operator_of_other_shift():
    op = Operator(simple_spec(c=1.0), *subgrid(1.0, 10), (None, 2.0))
    with pytest.raises(ValueError, match="shift"):
        solve_semilinear_parabolic(op, 0.0, 1.0, np.zeros(op.n), 0.01,
                                   np.linspace(0, 0.1, 11))


@pytest.mark.parametrize("F", [Nonlinearity.zero(), Nonlinearity.sine(1.0)])
def test_non_finite_data_reach_the_elliptic_field(F):
    # a solve returns what it computed; its first Picard difference is not
    # finite, which ends the loop after one step
    op = Operator(simple_spec(c=4.0, F=F), *subgrid(1.0, 10), (None, None))
    for value in (np.inf, np.nan):
        u, steps = solve_semilinear_elliptic(op, value, 0.0)
        assert not np.isfinite(u).any() and steps == 1


@pytest.mark.parametrize("F", [Nonlinearity.zero(), Nonlinearity.sine(1.0)])
def test_parabolic_solve_into_a_given_buffer_is_the_solve_bitwise(F):
    # the field fills the leading values of ``out``, time-major, and a
    # larger buffer's tail is left alone
    op = heat_operator(F)
    t = np.linspace(0, 0.1, 11)
    args = (op, 1.0, np.linspace(0.0, 1.0, 11), np.sin(np.pi * op.x), 0.01, t)
    fresh, steps = solve_semilinear_parabolic(*args)
    out = np.full(t.size * op.n + 7, -1.0)
    u, steps_out = solve_semilinear_parabolic(*args, out=out)
    assert steps_out == steps
    assert np.shares_memory(u, out)
    assert u.shape == fresh.shape and u.tobytes() == fresh.tobytes()
    assert np.array_equal(out[:t.size * op.n], fresh.T.ravel())
    assert np.all(out[t.size * op.n:] == -1.0)


def heat_operator(F, robin_p=(None, 2.0), n_cells=20, dt=0.01, source=None) -> Operator:
    spec = replace(catalog_lookup("heat-semilinear"), F=F, time_horizon=0.1, source=source)
    return Operator(spec, *subgrid(1.0, n_cells), robin_p, c_shift=1.0 / dt)


def assert_non_finite_from_level(field, clean, m):
    """Levels before m of ``field`` are ``clean``'s bit for bit; every later
    level has a value that is not finite."""
    assert field[:, :m].tobytes() == clean[:, :m].tobytes()
    assert not np.isfinite(field[:, m:]).all(axis=0).any()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("F", [Nonlinearity.zero(), Nonlinearity.sine(1.0)])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_datum_at_an_interior_time_level_reaches_the_field(F, value):
    # the level is marched on, and so are the later levels it spoils,
    # without a numpy warning (sin(inf) and inf - inf would give one)
    op = heat_operator(F)
    t = np.linspace(0, 0.1, 11)
    initial = np.sin(np.pi * op.x)
    clean, _ = solve_semilinear_parabolic(op, np.zeros(11), 0.0, initial, 0.01, t)
    left = np.zeros(11)
    left[4] = value
    field, _ = solve_semilinear_parabolic(op, left, 0.0, initial, 0.01, t)
    assert_non_finite_from_level(field, clean, 4)


@pytest.mark.parametrize("F", [Nonlinearity.zero(), Nonlinearity.sine(1.0)])
def test_non_finite_source_at_an_interior_node_reaches_the_field(F):
    def source(x, t):
        values = np.zeros_like(x)
        if t == 0.04:
            values[7] = np.nan
        return values

    t = np.linspace(0, 0.1, 11)
    assert t[4] == 0.04
    initial = np.sin(np.pi * heat_operator(F).x)
    clean, _ = solve_semilinear_parabolic(heat_operator(F), 0.0, 0.0, initial, 0.01, t)
    field, _ = solve_semilinear_parabolic(heat_operator(F, source=source), 0.0, 0.0, initial,
                                          0.01, t)
    assert_non_finite_from_level(field, clean, 4)


@pytest.mark.parametrize("F", [Nonlinearity.zero(), Nonlinearity.sine(1.0)])
def test_nan_only_in_the_last_entry_of_the_picard_difference_is_found(monkeypatch, F):
    # the right end is a Dirichlet row, so the first solve overwrites the NaN
    # of the initial state there and is finite: the difference of the first
    # Picard step is NaN in its last entry alone, which ends level 1 after
    # that step.  The NaN stays in the returned field, at level 0
    op = heat_operator(F, robin_p=(2.0, None))
    initial = np.sin(np.pi * op.x)
    initial[-1] = np.nan
    solves = []
    original = discretize.solve_banded

    def recorded(lu, rhs):
        solves.append(original(lu, rhs).copy())
        return solves[-1]

    monkeypatch.setattr(discretize, "solve_banded", recorded)
    field, _ = solve_semilinear_parabolic(op, 0.0, 0.0, initial, 0.01, np.linspace(0, 0.1, 11))
    assert np.isfinite(solves[0]).all()
    assert field[:, 1].tobytes() == solves[0].tobytes()
    assert np.isnan(field[-1, 0]) and np.isfinite(field).sum() == field.size - 1


# --------------------------------------------------------------------------
# the march against the plain Picard algorithm
# --------------------------------------------------------------------------

MARCH_F = {"zero": Nonlinearity.zero(), "linear": Nonlinearity.linear(1.5),
           "sine1": Nonlinearity.sine(1.0), "sine2": Nonlinearity.sine(2.0)}
MARCH_ENDS = {"dirichlet": (None, None), "robin-left": (2.0, None), "robin-right": (None, 0.5),
              "robin": (1.5, 3.0)}
MARCH_SOURCES = {"data": Fn.sine(-3.0, 2),
                 "callable": lambda x, t: np.cos(3.0 * x) * (1.0 + 5.0 * t) - 0.5,
                 "minus-zero": Fn.constant(-0.0)}


def counted_solves(monkeypatch) -> list:
    """Count the package's solve_banded calls (the plain march calls its own)."""
    calls = []
    original = discretize.solve_banded

    def counted(lu, rhs):
        calls.append(1)
        return original(lu, rhs)

    monkeypatch.setattr(discretize, "solve_banded", counted)
    return calls


@pytest.mark.parametrize("source", MARCH_SOURCES)
@pytest.mark.parametrize("ends", MARCH_ENDS)
@pytest.mark.parametrize("F", MARCH_F)
def test_parabolic_march_is_the_plain_algorithm_bitwise(monkeypatch, F, ends, source):
    op = heat_operator(MARCH_F[F], robin_p=MARCH_ENDS[ends], n_cells=24,
                       source=MARCH_SOURCES[source])
    t = np.linspace(0, 0.1, 11)
    initial = np.sin(np.pi * op.x) + 0.3 * op.x
    for left, right in ((0.25, -1.0), (np.linspace(0.0, 1.0, 11), np.cos(5.0 * t))):
        calls = counted_solves(monkeypatch)
        field, total = solve_semilinear_parabolic(op, left, right, initial, 0.01, t)
        plain, steps = plain_picard_march(op, left, right, initial, t, dt=0.01)
        assert field.tobytes() == plain.tobytes()
        assert total == len(calls) == sum(steps)
        if F != "zero":
            assert max(steps) > 1


@pytest.mark.parametrize("source", MARCH_SOURCES)
@pytest.mark.parametrize("ends", MARCH_ENDS)
@pytest.mark.parametrize("F", MARCH_F)
def test_elliptic_march_is_the_plain_algorithm_bitwise(monkeypatch, F, ends, source):
    spec = simple_spec(b=1.0, c=4.0, F=MARCH_F[F], source=MARCH_SOURCES[source])
    op = Operator(spec, *subgrid(1.0, 24), MARCH_ENDS[ends])
    # zero data with the -0.0 source give a field of signed zeros
    for (left, right), start in itertools.product(((0.25, -1.0), (0.0, 0.0)),
                                                  (None, np.cos(op.x))):
        calls = counted_solves(monkeypatch)
        u, iters = solve_semilinear_elliptic(op, left, right, u_start=start)
        plain, steps = plain_picard_march(op, left, right, start, (0.0, 0.0))
        assert u.tobytes() == plain[:, 1].tobytes()
        assert [iters] == steps == [len(calls)]


def test_solve_banded_overwrites_its_rhs_with_the_solution():
    spec, sg = simple_spec(c=4.0), subgrid(1.0, 24)
    op = Operator(spec, *sg, (1.5, None))
    rhs = op.system(np.cos(op.x), 0.25, -1.0)
    expected = dense_solve(difference_matrix(spec, *sg, (1.5, None)),
                           np.r_[0.25, np.cos(op.x)[1:-1], -1.0])
    x = solve_banded(op.lu, rhs)
    assert x is rhs
    np.testing.assert_allclose(x, expected, atol=1e-12)


@pytest.mark.parametrize("ends", MARCH_ENDS)
@pytest.mark.parametrize("F", MARCH_F)
def test_march_never_writes_into_the_start_vector(F, ends):
    # a read-only start raises on any write; warm starts and u0 = "reference"
    # hand the solves arrays they do not own
    elliptic = Operator(simple_spec(b=1.0, c=4.0, F=MARCH_F[F], source=Fn.sine(-3.0, 2)),
                        *subgrid(1.0, 24), MARCH_ENDS[ends])
    start = np.cos(elliptic.x)
    start.setflags(write=False)
    u, _ = solve_semilinear_elliptic(elliptic, 0.25, -1.0, u_start=start)
    assert np.array_equal(start, np.cos(elliptic.x)) and not np.shares_memory(u, start)

    op = heat_operator(MARCH_F[F], robin_p=MARCH_ENDS[ends], n_cells=24)
    initial = np.sin(np.pi * op.x) + 0.3 * op.x
    initial.setflags(write=False)
    field, _ = solve_semilinear_parabolic(op, 0.25, -1.0, initial, 0.01, np.linspace(0, 0.1, 11))
    assert np.array_equal(initial, np.sin(np.pi * op.x) + 0.3 * op.x)
    assert np.array_equal(field[:, 0], initial)


# --------------------------------------------------------------------------
# elliptic solves
# --------------------------------------------------------------------------

def test_laplace_dirichlet_exact_for_linear_solution():
    u, _ = solve_semilinear_elliptic(dirichlet(simple_spec(), subgrid(1.0, 4)), 0.0, 1.0)
    np.testing.assert_allclose(u, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-14)


@pytest.mark.parametrize("problem_id", ["laplace1d", "example31", "elliptic-semilinear"])
def test_manufactured_solution_second_order(problem_id):
    base = catalog_lookup(problem_id)
    spec, sol = manufactured_elliptic(base)
    errs, hs = [], []
    for n in (50, 100, 200):
        sg = subgrid(spec.length, n)
        u, _ = solve_semilinear_elliptic(dirichlet(spec, sg), 0.0, 0.0)
        errs.append(np.max(np.abs(u - sol.u(sg.x))))
        hs.append(sg.h)
    assert fitted_order(hs, errs) >= 1.9


def test_robin_right_end_exact_for_linear_solution():
    # -u'' = 0, u(0) = 0, u'(1) + p u(1) = g0 has u = g0 x / (1 + p)
    p, g0 = 1.0, 3.0
    spec = simple_spec()
    sg = subgrid(1.0, 16)
    u, _ = solve_semilinear_elliptic(Operator(spec, *sg, (None, p)), 0.0, g0)
    np.testing.assert_allclose(u, g0 * sg.x / (1 + p), atol=1e-12)
    # the solved field satisfies the one-sided Robin relation itself
    h = sg.h
    dudn = (3 * u[-1] - 4 * u[-2] + u[-3]) / (2 * h)
    np.testing.assert_allclose(dudn + p * u[-1], g0, atol=1e-12)


@pytest.mark.parametrize("c", [0.0, 4.0])
@pytest.mark.parametrize("n_cells", [5, 10, 39])
@pytest.mark.parametrize("left_p, right_p", [(2.5, None), (2.5, 0.75)], ids=["one", "both"])
def test_robin_end_rows_mirror_each_other_bitwise(c, n_cells, left_p, right_p):
    # x -> L - x turns b into -b and swaps the ends: with constant a and c
    # the right end's rows are the left end's, so the boundary rows of a
    # right-hand side fill entry for entry, and the solutions mirror each
    # other to round-off (gttrf pivots the two matrices in different rows)
    b = 3.0
    sg = subgrid(1.0, n_cells)
    op = Operator(simple_spec(b=b, c=c), *sg, (left_p, right_p))
    mirror = Operator(simple_spec(b=-b, c=c), *sg, (right_p, left_p))
    rhs = np.random.default_rng(n_cells).standard_normal(op.n)
    filled = op.system(rhs.copy(), 1.25, -0.5)
    mirrored = mirror.system(rhs[::-1].copy(), -0.5, 1.25)
    assert np.array_equal(filled, mirrored[::-1])
    u, v = solve_banded(op.lu, filled), solve_banded(mirror.lu, mirrored)
    np.testing.assert_allclose(u, v[::-1], rtol=0, atol=roundoff(u))


def test_robin_discretization_second_order():
    # u* = sin(x) + 2 on (0,1) with a=1, c=1: source = 2 sin(x) + 2
    spec = simple_spec(c=1.0, source=lambda x, t: 2 * np.sin(x) + 2.0)
    p = 1.5
    flux = math.cos(1.0) + p * (math.sin(1.0) + 2.0)
    errs, hs = [], []
    for n in (25, 50, 100, 200):
        sg = subgrid(1.0, n)
        u, _ = solve_semilinear_elliptic(Operator(spec, *sg, (None, p)), 2.0, flux)
        errs.append(np.max(np.abs(u - (np.sin(sg.x) + 2.0))))
        hs.append(sg.h)
    assert fitted_order(hs, errs) >= 1.9


def test_dominance_threshold_warning_recorded():
    spec = simple_spec(b=30.0, c=1.0)
    sg = subgrid(1.0, 10)  # h = 0.1 > h* = 2/30
    assert any("h*" in w for w in dirichlet(spec, sg).warnings)
    assert dirichlet(spec, subgrid(1.0, 1000)).warnings == []


# --------------------------------------------------------------------------
# semilinear elliptic (Picard)
# --------------------------------------------------------------------------

def test_zero_nonlinearity_takes_one_picard_step():
    spec = simple_spec(c=1.0, source=lambda x, t: np.ones_like(x))
    u, iters = solve_semilinear_elliptic(dirichlet(spec, subgrid(1.0, 32)), 0.0, 0.0)
    assert iters == 1


def test_linear_nonlinearity_matches_absorbed_coefficient_oracle():
    # F = s u with c - s > 0 is the linear problem with coefficient c - s
    s, c = 1.5, 4.0
    spec = simple_spec(c=c, F=Nonlinearity.linear(s), source=lambda x, t: np.sin(np.pi * x))
    oracle_spec = simple_spec(c=c - s, source=lambda x, t: np.sin(np.pi * x))
    sg = subgrid(1.0, 64)
    u, iters = solve_semilinear_elliptic(dirichlet(spec, sg), 0.0, 0.0)
    oracle, _ = solve_semilinear_elliptic(dirichlet(oracle_spec, sg), 0.0, 0.0)
    np.testing.assert_allclose(u, oracle, atol=1e-9)
    # contraction ratio of the fixed-point map is at most s/c (+ mesh effects)
    assert iters <= math.ceil(math.log(1e-10) / math.log(s / c + 0.1)) + 2


def test_picard_iteration_ratio_bounded_by_s_over_c():
    s, c = 2.0, 5.0
    spec = simple_spec(c=c, F=Nonlinearity.linear(s), source=lambda x, t: np.cos(np.pi * x))
    op = dirichlet(spec, subgrid(1.0, 100))
    op_diffs = []
    u = np.zeros(op.n)
    for _ in range(12):  # with Dirichlet ends the formulas' right-hand side is the system's
        u_new = solve_banded(op.lu, frozen_rhs(spec, op.x, u, 0.0, 0.0))
        op_diffs.append(np.max(np.abs(u_new - u)))
        u = u_new
    ratios = [d2 / d1 for d1, d2 in zip(op_diffs[1:-1], op_diffs[2:]) if d1 > 1e-14]
    assert max(ratios) <= s / c + 0.05


def test_sine_nonlinearity_residual_small():
    spec = simple_spec(c=4.0, F=Nonlinearity.sine(1.0), source=lambda x, t: np.sin(np.pi * x))
    sg = subgrid(1.0, 80)
    u, _ = solve_semilinear_elliptic(dirichlet(spec, sg), 0.0, 0.0)
    A = difference_matrix(spec, *sg, (None, None))
    residual = np.max(np.abs(A @ u - frozen_rhs(spec, sg.x, u, 0.0, 0.0)))
    assert residual <= 1e-8


def test_picard_step_count_mesh_independent():
    spec = simple_spec(c=4.0, F=Nonlinearity.sine(2.0), source=lambda x, t: np.cos(np.pi * x))
    counts = set()
    for n in (40, 80, 160):
        _, iters = solve_semilinear_elliptic(dirichlet(spec, subgrid(1.0, n)), 0.0, 0.0)
        counts.add(iters)
    assert max(counts) - min(counts) <= 1


def test_picard_failure_names_its_budget_and_last_difference():
    spec = simple_spec(c=4.0, F=Nonlinearity.sine(2.0), source=lambda x, t: np.ones_like(x))
    with pytest.raises(RuntimeError, match=r"^Picard iteration did not reach 1e-10 in 2 steps "
                                           r"\(last diff \d"):
        solve_semilinear_elliptic(dirichlet(spec, subgrid(1.0, 32)), 0.0, 0.0, picard_max=2)


def test_a_spent_picard_budget_accepts_a_change_within_tol_times_max_u():
    # four steps leave a change above picard_tol in both solves; it lies
    # within picard_tol * max|u| only for the field of size 1e6
    spec = simple_spec(c=4.0, F=Nonlinearity.sine(2.0), source=lambda x, t: np.ones_like(x))
    op = dirichlet(spec, subgrid(1.0, 32))
    with pytest.raises(RuntimeError, match="in 4 steps"):
        solve_semilinear_elliptic(op, 0.5, 0.0, picard_max=4)
    u, steps = solve_semilinear_elliptic(op, 1e6, 0.0, picard_max=4)
    converged, more = solve_semilinear_elliptic(op, 1e6, 0.0)
    assert steps == 4 < more
    assert 0.0 < np.max(np.abs(u - converged)) <= 1e-10 * np.max(np.abs(u))


def test_elliptic_solve_rejects_picard_max_below_one():
    op = dirichlet(catalog_lookup("elliptic-semilinear"), subgrid(1.0, 32))
    with pytest.raises(ValueError, match="picard_max must be >= 1"):
        solve_semilinear_elliptic(op, 0.0, 0.0, picard_max=0)


# --------------------------------------------------------------------------
# parabolic stepping
# --------------------------------------------------------------------------

def test_heat_mode_decay_matches_eigenvalue_oracle():
    # u_t = u'' with u(x,0) = sin(pi x): each implicit-Euler step scales the
    # discrete mode by 1 / (1 + dt mu_h), mu_h = (2/h^2)(1 - cos(pi h))
    spec = ProblemSpec(
        mode="parabolic", a=Fn.constant(1.0), b=Fn.constant(0.0),
        c=Fn.constant(0.0), F=Nonlinearity.zero(), g=Fn.sine(1.0, 1),
        length=1.0, time_horizon=0.05,
    )
    n, dt = 50, 0.01
    sg = subgrid(1.0, n)
    t = np.linspace(0, 0.05, 6)
    field, _ = solve_semilinear_parabolic(dirichlet(spec, sg, 1.0 / dt), np.zeros(6), 0.0,
                                          np.sin(np.pi * sg.x), dt, t)
    mu_h = 2.0 / sg.h**2 * (1 - math.cos(math.pi * sg.h))
    lam = 1.0 / (1.0 + dt * mu_h)
    inner = slice(1, -1)
    for m in range(1, 6):
        np.testing.assert_allclose(field[inner, m] / field[inner, m - 1],
                                   lam, rtol=1e-10)
    assert abs(lam - 1.0 / (1.0 + math.pi**2 * dt)) < 1e-3


def test_zero_data_gives_zero_field():
    spec = ProblemSpec(
        mode="parabolic", a=Fn.constant(1.0), b=Fn.constant(0.0),
        c=Fn.constant(0.0), F=Nonlinearity.zero(), g=Fn.zero(),
        length=1.0, time_horizon=0.1,
    )
    sg = subgrid(1.0, 20)
    t = np.linspace(0, 0.1, 11)
    field, _ = solve_semilinear_parabolic(dirichlet(spec, sg, 1.0 / 0.01), np.zeros(11), 0.0,
                                          np.zeros(sg.x.size), 0.01, t)
    assert np.max(np.abs(field)) == 0.0


def test_manufactured_parabolic_first_order_in_dt():
    base = catalog_lookup("heat-semilinear")
    spec, sol = manufactured_parabolic(replace(base, time_horizon=1.0))
    n = 400
    sg = subgrid(1.0, n)
    errs, dts = [], []
    for steps in (25, 50, 100):
        dt = 1.0 / steps
        t = np.linspace(0, 1.0, steps + 1)
        field, _ = solve_semilinear_parabolic(dirichlet(spec, sg, 1.0 / dt), 0.0, 0.0,
                                              np.sin(np.pi * sg.x), dt, t)
        exact = np.exp(-t)[None, :] * np.sin(np.pi * sg.x)[:, None]
        errs.append(np.max(np.abs(field - exact)))
        dts.append(dt)
    assert fitted_order(dts, errs) >= 0.9


def test_parabolic_picard_failure_names_the_level():
    spec = replace(catalog_lookup("heat-semilinear"), time_horizon=0.1)
    sg = subgrid(1.0, 20)
    t = np.linspace(0, 0.1, 11)
    with pytest.raises(RuntimeError, match="time level"):
        solve_semilinear_parabolic(dirichlet(spec, sg, 1.0 / 0.01), 0.0, 0.0,
                                   np.sin(np.pi * sg.x), 0.01, t, picard_max=1)


def test_parabolic_picard_failure_at_an_interior_level_names_it():
    # zero data and state take one step per level until the left datum jumps
    # to 1 at level 5, whose Picard loop needs more than three steps
    op = heat_operator(Nonlinearity.sine(1.0), robin_p=(None, None))
    t = np.linspace(0, 0.1, 11)
    left = np.where(np.arange(11) >= 5, 1.0, 0.0)
    with pytest.raises(RuntimeError) as err:
        solve_semilinear_parabolic(op, left, 0.0, np.zeros(op.n), 0.01, t, picard_max=3)
    assert str(err.value).startswith(
        "time level 5 (t = 0.05): Picard iteration did not reach 1e-10 in 3 steps (last diff ")
    assert float(str(err.value).rpartition("last diff ")[2].rstrip(")")) > 1e-10


def test_parabolic_solve_rejects_picard_max_below_one():
    spec = replace(catalog_lookup("heat-semilinear"), time_horizon=0.1)
    sg = subgrid(1.0, 20)
    t = np.linspace(0, 0.1, 11)
    with pytest.raises(ValueError, match="picard_max must be >= 1"):
        solve_semilinear_parabolic(dirichlet(spec, sg, 1.0 / 0.01), 0.0, 0.0,
                                   np.sin(np.pi * sg.x), 0.01, t, picard_max=0)


# --------------------------------------------------------------------------
# reference solve
# --------------------------------------------------------------------------

def test_reference_matches_manufactured_solution():
    spec, sol = manufactured_elliptic(catalog_lookup("example31"))
    part = build_uniform_partition(spec.length, 2, 0.2)
    grid = build_grid(part, 0.01)
    u, _ = reference_solve(spec, grid)
    assert np.max(np.abs(u - sol.u(grid.x))) < 5e-4  # O(h^2) at h = 0.01


def test_reference_laplace_ramp_exact():
    spec = replace(catalog_lookup("laplace1d"), g=Fn.polynomial([0.0, 1.0]))
    part = build_uniform_partition(1.0, 2, 0.2)
    grid = build_grid(part, 0.05)
    u, steps = reference_solve(spec, grid)
    np.testing.assert_allclose(u, grid.x, atol=1e-12)
    assert steps == 1  # F zero: one solve


def test_reference_restriction_solves_subdomain_system():
    # plugging the reference into a subdomain's difference formulas leaves no
    # residual
    spec = catalog_lookup("example31")
    part = build_uniform_partition(spec.length, 2, 0.2)
    grid = build_grid(part, 0.01)
    u, _ = reference_solve(spec, grid)
    lo, hi = grid.sub_ranges[0]
    x, v = grid.x[grid.nodes(0)], u[lo:hi + 1]
    A = difference_matrix(spec, x, grid.h, (None, None))
    res = A @ v - frozen_rhs(spec, x, v, u[lo], u[hi])
    assert np.max(np.abs(res)) < 1e-9


def test_parabolic_reference_needs_a_time_axis():
    spec = catalog_lookup("heat-semilinear")
    grid = build_grid(build_uniform_partition(spec.length, 2, 0.2), 0.05)  # no dt
    with pytest.raises(ValueError, match="^parabolic reference needs a grid with a time axis$"):
        reference_solve(spec, grid)


def test_discretize_reads_no_module_of_the_package_but_problem():
    # an operator takes its nodes and step, not a grid object
    tree = ast.parse(Path(discretize.__file__).read_text(encoding="utf-8"))
    assert {node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level} == {"problem"}
