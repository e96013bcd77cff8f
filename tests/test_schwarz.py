import itertools
import json
import math
import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from schwarz1d.cli import build_schwarz_config, load_config, main
from schwarz1d.geometry import Partition, build_grid, build_uniform_partition
from schwarz1d.oracle import AnalyticCase, classical_laplace_rate, tau_factors
from schwarz1d.discretize import reference_solve
from schwarz1d.problem import Fn, Nonlinearity, ProblemSpec, catalog_lookup
from schwarz1d.schwarz import (
    SchwarzConfig,
    SchwarzRunError,
    _LAPLACE_BLOCK,
    _SUP_BLOCK,
    _WINDOW_INTERVALS,
    _WINDOW_STARTS,
    _simpson,
    _trapezoid_weights,
    double_sweep_ratio,
    exchange,
    iterate,
    plan,
    run_elliptic,
    run_parabolic,
    seminorm_sq_profile,
    solve_reference,
    sweep,
    verdict,
    weighted_sup_norm,
)
from schwarz1d.transmission import TransmissionSpec

from helpers import interface_map


# --------------------------------------------------------------------------
# rate fitting
# --------------------------------------------------------------------------

def test_double_sweep_ratio_zero_floor_flagged_as_zero():
    E = [1.0, 0.1, 0.0, 0.0]
    assert double_sweep_ratio(E, 4) == 0.0


def test_double_sweep_ratio_ignores_parity_oscillation():
    # E alternates between two geometric strands with the same double-step
    tau = 0.3
    E = []
    for k in range(1, 15):
        amp = 1000.0 if k % 2 else 1.0
        E.append(amp * tau ** (k / 2))
    np.testing.assert_allclose(double_sweep_ratio(E, 8), tau, rtol=1e-12)


# --------------------------------------------------------------------------
# norms
# --------------------------------------------------------------------------

def test_weighted_sup_norm_trivials():
    t = np.linspace(0, 2, 21)
    ones = np.ones((5, 21))
    assert weighted_sup_norm(ones, 10.0, t) == 1.0
    assert weighted_sup_norm(0 * ones, 10.0, t) == 0.0
    # e = exp(alpha t / 2) cancels the weight exactly
    alpha = 3.0
    e = np.exp(alpha * t / 2)[None, :].repeat(4, axis=0)
    np.testing.assert_allclose(weighted_sup_norm(e, alpha, t), 1.0, rtol=1e-12)


def test_laplace_seminorm_closed_form_decaying_exponential():
    # f = exp(-beta t): transform 1/(beta+y), window integral
    # 1/(beta+a') - 1/(beta+a'+1), decreasing in a' so the sup sits at alpha
    beta, alpha = 2.0, 8.0
    t = np.linspace(0.0, 3.0, 6001)
    f = np.exp(-beta * t)
    expected_sq = 1.0 / (beta + alpha) - 1.0 / (beta + alpha + 1.0)
    got_sq = seminorm_sq_profile(f[None, :], alpha, t)[0]
    assert abs(got_sq - expected_sq) < 1e-6
    np.testing.assert_allclose(got_sq, expected_sq, rtol=1e-4)


def test_laplace_seminorm_zero_and_homogeneity():
    t = np.linspace(0.0, 2.0, 801)
    assert seminorm_sq_profile(np.zeros((1, t.size)), 10.0, t)[0] == 0.0
    f = np.exp(-t) * np.sin(3 * t)
    base = seminorm_sq_profile(f[None, :], 10.0, t)[0]
    for c in (-4.0, 0.5):
        np.testing.assert_allclose(seminorm_sq_profile(c * f[None, :], 10.0, t)[0],
                                   c**2 * base, rtol=1e-12)


def test_seminorm_profile_matches_scalar_function():
    t = np.linspace(0.0, 2.0, 401)
    rows = np.vstack([np.exp(-t), np.exp(-2 * t) * np.cos(t)])
    # each row of a profile is that row's own one-row profile
    prof = seminorm_sq_profile(rows, 9.0, t)
    for i in range(2):
        np.testing.assert_allclose(prof[i], seminorm_sq_profile(rows[i][None, :], 9.0, t)[0],
                                   rtol=1e-12)


def _polynomial_integrals(x, degree, rng):
    """Rows of random polynomials of ``degree`` on ``x`` and their exact integrals."""
    P = np.polynomial.polynomial
    coeffs = rng.normal(size=(4, degree + 1))
    y = np.array([P.polyval(x, c) for c in coeffs])
    exact = [P.polyval(x[-1], P.polyint(c)) - P.polyval(x[0], P.polyint(c)) for c in coeffs]
    return y, exact


@pytest.mark.parametrize("panels", [1, 4, 32])
def test_simpson_rule_exactness_on_uniform_points(panels):
    # at the window step 1/64 the parabola through each panel's three points
    # integrates cubics exactly
    rng = np.random.default_rng(panels)
    h = 1.0 / _WINDOW_INTERVALS
    x = 0.5 + h * np.arange(2 * panels + 1)
    y, exact = _polynomial_integrals(x, 3, rng)
    np.testing.assert_allclose(_simpson(y, h), exact, rtol=1e-12, atol=1e-12)


def test_simpson_rule_is_scipys_on_the_window_points():
    # at h = 1/64 scipy's per-pair factors are exactly 1, 4 and 1, so its
    # sums are the same operations in the same order; imported here only,
    # since the package itself never loads scipy.integrate
    from scipy.integrate import simpson

    rng = np.random.default_rng(11)
    x = np.arange(_WINDOW_INTERVALS + 1) / _WINDOW_INTERVALS
    for _ in range(200):
        y = rng.normal(size=(7, x.size)) * 10.0 ** rng.uniform(-30, 30, size=(7, 1))
        assert _simpson(y, 1.0 / _WINDOW_INTERVALS).tobytes() == simpson(y, x=x).tobytes()


def test_seminorm_follows_alpha_and_time_grid():
    # two grids of one length but different horizons, and two alphas, in
    # turn: every call must see its own windows and kernel
    grids = {T: np.linspace(0.0, T, 1601) for T in (2.0, 3.0)}
    first = {}
    for _ in range(2):
        for T, t in grids.items():
            for alpha in (2.0, 5.0):
                got = seminorm_sq_profile(np.exp(-t), alpha, t)
                first.setdefault((T, alpha), got)
                assert np.array_equal(got, first[(T, alpha)])
    for (T, alpha), got in first.items():
        # transform of exp(-t) on [0, T]: (1 - exp(-(y+1) T)) / (y+1), which
        # decreases in y, so the sup sits on the first window [alpha, alpha + 1]
        y = np.linspace(alpha, alpha + 1.0, 20001)
        transform = (1.0 - np.exp(-(y + 1.0) * T)) / (y + 1.0)
        # the trapezoidal transform is off by about (dt (y+1))^2 / 12 relative,
        # 1.5e-5 at dt = 3/1600, y = 6; squaring doubles that
        np.testing.assert_allclose(got[0], np.trapezoid(transform**2, y), rtol=1e-4)


def whole_kernel_profile(e, alpha, t):
    """The seminorm profile of the error ``e`` from its definition in one line
    per step: the whole (window points, levels) trapezoidal Laplace kernel,
    one matmul, Simpson over each window and the max over the windows."""
    starts = np.geomspace(alpha, 10.0 * alpha, _WINDOW_STARTS)
    y = np.linspace(0.0, 1.0, _WINDOW_INTERVALS + 1)
    windows = starts[:, None] + y
    kernel = np.exp(-np.outer(windows.ravel(), t)) * _trapezoid_weights(t)
    transforms = (e @ kernel.T).reshape(len(e), starts.size, y.size)
    return np.max([_simpson(transforms[:, i] ** 2, 1.0 / _WINDOW_INTERVALS)
                   for i in range(starts.size)], axis=0)


@pytest.mark.parametrize("t", [np.linspace(0.0, 2.0, 801),
                               np.concatenate([[0.0], np.geomspace(1e-3, 1.5, 300)])],
                         ids=["uniform", "graded"])
def test_norms_built_in_place_equal_the_one_line_expressions(t):
    alpha = 7.0
    e = np.random.default_rng(3).normal(size=(6, t.size))
    before = e.copy()
    # the factored kernel rounds otherwise than exp(-(s + d) t), and the
    # blocks add their sums in another order: both differ by about 1e-15
    np.testing.assert_allclose(seminorm_sq_profile(e, alpha, t),
                               whole_kernel_profile(e, alpha, t), rtol=1e-13, atol=0.0)
    assert weighted_sup_norm(e, alpha, t) == float(np.max(e**2 * np.exp(-alpha * t)))
    assert weighted_sup_norm(e[2], alpha, t) == float(np.max(e[2]**2 * np.exp(-alpha * t)))
    assert e.tobytes() == before.tobytes()


@pytest.mark.parametrize("levels", [_LAPLACE_BLOCK // 2, _LAPLACE_BLOCK, 3 * _LAPLACE_BLOCK + 5],
                         ids=["below-block", "one-block", "not-a-multiple"])
def test_seminorm_of_u_and_ref_is_the_profile_of_the_whole_error(levels):
    # the operands as a run has them: a transposed time-major field and
    # rows of a wider reference
    rng = np.random.default_rng(levels)
    t = np.linspace(0.0, 2.0, levels)
    u = rng.normal(size=(levels, 30)).T
    ref = rng.normal(size=(levels, 50)).T[10:40]
    got = seminorm_sq_profile(u, 10.0, t, ref)
    assert got.tobytes() == seminorm_sq_profile(u - ref, 10.0, t).tobytes()
    np.testing.assert_allclose(got, whole_kernel_profile(u - ref, 10.0, t), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("last", [np.inf, np.nan], ids=["inf", "nan"])
def test_a_non_finite_value_in_the_last_block_makes_the_seminorm_and_the_run_diverge(last):
    t = np.linspace(0.0, 2.0, 2 * _LAPLACE_BLOCK + 7)
    u = np.random.default_rng(8).normal(size=(t.size, 20)).T
    u[11, -1] = last
    profile = seminorm_sq_profile(u, 10.0, t)
    assert not math.isfinite(profile[11])
    assert np.isfinite(np.delete(profile, 11)).all()
    # a run's norm reads the reference in its last level too: a Robin run
    # against a poisoned reference ends "diverged" at its first norm
    p = plan(heat_cfg(transmission=TransmissionSpec.robin(1.0), dt_target=0.001))
    assert p.grid.t.size > _LAPLACE_BLOCK
    reference, _ = solve_reference(p)
    reference[reference.shape[0] // 2, -1] = last
    hist = run_parabolic(p, reference)
    assert hist.verdict == "diverged" and hist.iterations == 0


@pytest.mark.parametrize("alpha", [3.0, 400.0], ids=["weighted", "weight-underflows"])
@pytest.mark.parametrize("last", [0.5, np.inf, np.nan], ids=["finite", "inf", "nan"])
def test_weighted_sup_norm_by_blocks_equals_the_one_shot_max(last, alpha):
    # the operands as a run has them: a transposed time-major field and
    # rows of a wider reference; one value of the last level is set, so
    # it lies in the last block, where exp(-400 t) is 0 and 0 * inf is NaN
    rng = np.random.default_rng(5)
    t = np.linspace(0.0, 2.0, 1001)
    u = rng.normal(size=(t.size, 100)).T
    ref = rng.normal(size=(t.size, 140)).T[20:120]
    u[37, -1] = last
    assert u.size > 10 * _SUP_BLOCK
    with np.errstate(invalid="ignore"):
        expected = float(np.max((u - ref) ** 2 * np.exp(-alpha * t)))
        got = weighted_sup_norm(u, alpha, t, ref)
    assert got.hex() == expected.hex()
    assert math.isnan(got) == (math.isnan(last) or (math.isinf(last) and alpha == 400.0))


# --------------------------------------------------------------------------
# elliptic engine
# --------------------------------------------------------------------------

def laplace_cfg(**kw):
    prob = catalog_lookup("laplace1d")
    part = build_uniform_partition(1.0, 2, 0.2)
    base = dict(problem=prob, partition=part, h_target=0.01,
                transmission=TransmissionSpec.dirichlet(), u0="one",
                stop_tol=1e-10, k_max=100)
    base.update(kw)
    return SchwarzConfig(**base)


def test_laplace_dirichlet_matches_classical_rate():
    hist = run_elliptic(plan(laplace_cfg()))
    assert hist.verdict == "converged"
    expected = classical_laplace_rate(1.0, 0.4, 0.6)
    np.testing.assert_allclose(hist.rate_per_double, expected, rtol=2e-2)
    # for -u'' = 0 the discrete linear profiles reproduce the factor exactly
    np.testing.assert_allclose(hist.rate_per_double, expected, rtol=1e-10)


def test_monotone_decrease_for_dirichlet_elliptic():
    hist = run_elliptic(plan(laplace_cfg()))
    tail = hist.E[2:]
    assert all(b < a for a, b in zip(tail, tail[1:]))


@pytest.mark.parametrize("problem_id", ["laplace1d", "example31", "elliptic-semilinear"])
@pytest.mark.parametrize("count", [2, 3])
def test_dirichlet_errors_eventually_monotone_across_catalog(problem_id, count):
    prob = catalog_lookup(problem_id)
    part = build_uniform_partition(prob.length, count, 0.4 * prob.length / count)
    cfg = SchwarzConfig(problem=prob, partition=part, h_target=prob.length / 100,
                        transmission=TransmissionSpec.dirichlet(), u0="one",
                        stop_tol=1e-9, k_max=200)
    hist = run_elliptic(plan(cfg))
    assert hist.verdict == "converged"
    # Jacobi chains improve the max norm every double sweep; between sweeps
    # the norm may sit exactly flat while data crosses the middle subdomains
    tail = hist.E[4:]
    assert all(b <= a for a, b in zip(tail, tail[1:]))
    assert all(tail[k + 2] < tail[k] for k in range(len(tail) - 2))


def test_reference_initial_guess_is_a_fixed_point_elliptic():
    for problem_id, tsp in [
        ("laplace1d", TransmissionSpec.dirichlet()),
        ("example31", TransmissionSpec.robin({(0, 1): 1.0, (1, 0): 50.0})),
        ("elliptic-semilinear", TransmissionSpec.robin(2.0, rho=4.0)),
    ]:
        prob = catalog_lookup(problem_id)
        part = build_uniform_partition(prob.length, 2, 0.1 * prob.length)
        cfg = SchwarzConfig(problem=prob, partition=part, h_target=prob.length / 100,
                            transmission=tsp, u0="reference", k_max=3,
                            stop_tol=1e-300)
        hist = run_elliptic(plan(cfg))
        assert max(hist.E) <= 10 * cfg.picard_tol


def test_first_robin_sweep_applies_the_transmission_stencil_to_u0():
    # -u'' = 0 with zero data: the reference is 0 and each first iterate is
    # linear, so the discrete solve is exact.  Subdomain 0 = (0, L2) solves
    # u(0) = 0, u'(L2) + p u(L2) = g0, so max|u| = |g0| L2 / (1 + p L2);
    # subdomain 1 = (L1, 1) solves -u'(L1) + p u(L1) = g1, u(1) = 0, so
    # max|u| = |g1| (1 - L1) / (1 + p (1 - L1)).  g0 and g1 are the one-sided
    # stencil plus p u applied to u0 = sin(pi x) sampled on the grid.
    p, h = 2.0, 0.02
    prob = catalog_lookup("laplace1d")
    part = build_uniform_partition(1.0, 2, 0.1)
    cfg = SchwarzConfig(problem=prob, partition=part, h_target=h,
                        transmission=TransmissionSpec.robin(p), u0="sine", k_max=1)
    hist = run_elliptic(plan(cfg))
    grid = build_grid(part, h)
    u = np.sin(np.pi * grid.x)
    j0, j1 = grid.interface_index[(0, 1)], grid.interface_index[(1, 0)]
    L2, L1 = grid.x[j0], grid.x[j1]
    g0 = (3 * u[j0] - 4 * u[j0 - 1] + u[j0 - 2]) / (2 * grid.h) + p * u[j0]
    g1 = (3 * u[j1] - 4 * u[j1 + 1] + u[j1 + 2]) / (2 * grid.h) + p * u[j1]
    expected = max(abs(g0) * L2 / (1 + p * L2), abs(g1) * (1 - L1) / (1 + p * (1 - L1)))
    assert hist.iterations == 1
    np.testing.assert_allclose(hist.E[0], expected, rtol=1e-12)


def test_bad_initial_guess_rejected_before_any_solve(monkeypatch):
    import schwarz1d.schwarz as engine

    def boom(*args, **kwargs):
        raise AssertionError("no solve may run for a bad initial guess")

    monkeypatch.setattr(engine, "reference_solve", boom)
    with pytest.raises(ValueError, match="bad data u0 spec: True"):
        run_elliptic(plan(laplace_cfg(u0=True)))
    with pytest.raises(ValueError, match="unknown data u0 shorthand 'foo'"):
        run_elliptic(plan(laplace_cfg(u0="foo")))


def test_reference_failure_is_labelled(monkeypatch):
    import schwarz1d.schwarz as engine

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic reference failure")

    monkeypatch.setattr(engine, "reference_solve", boom)
    with pytest.raises(SchwarzRunError, match=r"^reference solve: synthetic") as err:
        run_elliptic(plan(laplace_cfg()))
    assert err.value.history is None


def test_a_reference_failure_of_any_type_is_labelled(monkeypatch):
    # a TypeError is no solver error, and is labelled as every other failure
    import schwarz1d.schwarz as engine

    def boom(*args, **kwargs):
        raise TypeError("synthetic reference failure")

    monkeypatch.setattr(engine, "reference_solve", boom)
    with pytest.raises(SchwarzRunError) as err:
        solve_reference(plan(laplace_cfg()))
    assert str(err.value) == "reference solve: synthetic reference failure"
    assert isinstance(err.value.__cause__, TypeError)


@pytest.mark.parametrize("target, label", [
    ("reference_solve", "reference solve"),
    ("solve_semilinear_elliptic", "iteration 1, subdomain 1"),
])
def test_a_failure_without_a_message_is_labelled_with_its_type_name(monkeypatch, target, label):
    import schwarz1d.schwarz as engine

    def boom(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(engine, target, boom)
    with pytest.raises(SchwarzRunError) as err:
        run_elliptic(plan(laplace_cfg()))
    assert str(err.value) == f"{label}: MemoryError"


@pytest.mark.parametrize("F", [Nonlinearity.zero(), Nonlinearity.sine(1.0)], ids=["zero", "sine"])
def test_a_non_finite_reference_is_a_reference_failure(F):
    # the source is finite where validate samples it (t = 0) and NaN at
    # every later level; a run needs a finite reference for its norms
    def source(x, t):
        return np.full_like(x, np.nan if t > 0.0 else 0.0)

    prob = replace(catalog_lookup("heat-semilinear"), time_horizon=1.0, source=source, F=F)
    p = plan(heat_cfg(problem=prob))
    for solve in (partial(solve_reference, p), partial(run_parabolic, p)):
        with pytest.raises(SchwarzRunError, match=r"^reference solve: banded solve produced "
                                                  r"non-finite values$") as err:
            solve()
        assert err.value.history is None


def test_jacobi_order_determinism_bitwise():
    # a Jacobi sweep reads only the previous iterate, so listing the
    # subdomains in reverse order must reproduce the run bit for bit
    prob = catalog_lookup("elliptic-semilinear")
    part = build_uniform_partition(1.0, 3, 0.08)
    def run(partition):
        cfg = SchwarzConfig(problem=prob, partition=partition, h_target=0.01,
                            transmission=TransmissionSpec.robin(2.0), u0="one",
                            stop_tol=1e-9, k_max=40)
        return run_elliptic(plan(cfg))
    fwd = run(part)
    rev = run(Partition(length=part.length, subdomains=part.subdomains[::-1]))
    assert fwd.E == rev.E
    assert len(fwd.final_fields) == len(rev.final_fields) == 3
    for a, b in zip(fwd.final_fields, rev.final_fields[::-1]):
        assert np.array_equal(a, b)


def test_jacobi_order_determinism_bitwise_parabolic():
    # a waveform-relaxation sweep hands each field on as it is solved, yet
    # every solve reads the previous iterate's data: the reversed subdomains
    # give the same norms bit for bit
    part = build_uniform_partition(1.0, 3, 0.15)
    def run(partition):
        return run_parabolic(plan(heat_cfg(partition=partition, k_max=6, stop_tol=1e-300)))
    fwd = run(part)
    rev = run(Partition(length=part.length, subdomains=part.subdomains[::-1]))
    assert fwd.iterations == 6
    assert fwd.E == rev.E
    assert [r.norms for r in fwd.records] == [r.norms[::-1] for r in rev.records]


def test_divergent_robin_run_matches_oracle_and_guard():
    prob = catalog_lookup("example31")
    part = Partition(length=2.0, subdomains=((0.0, 1.95), (1.9, 2.0)))
    cfg = SchwarzConfig(problem=prob, partition=part, h_target=0.005,
                        transmission=TransmissionSpec.robin({(0, 1): 1.0, (1, 0): 50.0}),
                        u0="one", stop_tol=1e-10, k_max=300, rate_window=10)
    hist = run_elliptic(plan(cfg))
    assert hist.verdict == "diverged"
    assert hist.E[-1] > cfg.guard_factor * hist.E[0]
    tau = tau_factors(AnalyticCase(L=2.0, L1=1.9, L2=1.95, p=1.0, q=50.0)).tau
    np.testing.assert_allclose(hist.rate_per_double, tau, rtol=5e-2)


def test_convergent_robin_run_matches_oracle():
    prob = catalog_lookup("example31")
    part = Partition(length=2.0, subdomains=((0.0, 1.9), (1.7, 2.0)))
    cfg = SchwarzConfig(problem=prob, partition=part, h_target=0.002,
                        transmission=TransmissionSpec.robin({(0, 1): 1.0, (1, 0): 50.0}),
                        u0="one", stop_tol=1e-8, k_max=100, rate_window=10)
    hist = run_elliptic(plan(cfg))
    assert hist.verdict == "converged"
    tau = tau_factors(AnalyticCase(L=2.0, L1=1.7, L2=1.9, p=1.0, q=50.0)).tau
    np.testing.assert_allclose(hist.rate_per_double, tau, rtol=5e-2)


def test_subdomain_failure_names_iteration_and_subdomain(monkeypatch):
    import schwarz1d.schwarz as engine

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic solver failure")

    # reference_solve is untouched; only the sweep's subdomain solves fail
    monkeypatch.setattr(engine, "solve_semilinear_elliptic", boom)
    with pytest.raises(SchwarzRunError, match=r"iteration 1, subdomain 1"):
        run_elliptic(plan(laplace_cfg()))


def test_engine_rejects_invalid_setup():
    prob = catalog_lookup("laplace1d")
    part = build_uniform_partition(1.0, 2, 0.2)
    # a valid parabolic plan, run by the elliptic engine
    heat = plan(SchwarzConfig(problem=catalog_lookup("heat-semilinear"), partition=part,
                              h_target=0.01, dt_target=0.01,
                              transmission=TransmissionSpec.dirichlet()))
    with pytest.raises(ValueError, match="run_elliptic needs a elliptic problem, got parabolic"):
        run_elliptic(heat)
    with pytest.raises(ValueError, match="^partition fails validation: triple overlap"):
        Partition(length=1.0, subdomains=((0.0, 0.6), (0.3, 0.8), (0.5, 1.0)))
    with pytest.raises(ValueError, match="^partition length differs from problem domain length$"):
        plan(SchwarzConfig(problem=prob, partition=build_uniform_partition(2.0, 2, 0.2),
                           h_target=0.01, transmission=TransmissionSpec.dirichlet()))


def test_plan_takes_a_sine_coefficient_and_scaled_exp_data():
    # coefficients and data read one set of forms: sine was data-only and
    # scaled-exp coefficient-only
    prob = ProblemSpec.from_dict({"mode": "elliptic", "L": 1.0, "a": 1.0, "c": 0.0,
                                  "b": {"sine": {"amplitude": 0.5, "mode": 2}},
                                  "g": {"scaled-exp": {"value": 1.0, "rate": -1.0}}})
    assert prob.b == Fn.sine(0.5, 2) and prob.g == Fn.scaled_exp(1.0, -1.0)
    p = plan(laplace_cfg(problem=prob, u0=Fn.scaled_exp(2.0, 0.5)))
    assert run_elliptic(p).verdict == "converged"


def test_plan_builds_every_operator_and_solves_nothing(monkeypatch):
    import schwarz1d.discretize as discretize

    def boom(*args, **kwargs):
        raise AssertionError("a plan solves nothing")

    monkeypatch.setattr(discretize, "solve_banded", boom)
    cfg = laplace_cfg(transmission=TransmissionSpec.robin(2.0))
    p = plan(cfg)
    assert p.cfg is cfg and p.norm_kind == "sup" and cfg.u0 == Fn.constant(1.0)
    assert [op.x.tolist() for op in p.ops] == [p.grid.x[p.grid.nodes(l)].tolist() for l in (0, 1)]
    (outer0, link0), (link1, outer1) = p.links
    assert outer0 is None and outer1 is None
    assert (link0.m, link0.p, link1.m, link1.p) == (1, 2.0, 0, 2.0)


@pytest.mark.parametrize("setting", ["stop_tol", "alpha", "picard_tol"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_config_rejects_non_finite_tolerances(setting, value):
    # an infinite stop_tol would call any first iterate converged
    with pytest.raises(ValueError, match=rf"^{setting} must be a finite number, got"):
        laplace_cfg(**{setting: value})
    with pytest.raises(ValueError, match=rf"^{setting} must be positive$"):
        laplace_cfg(**{setting: 0.0})


def test_elliptic_plan_rejects_a_time_step():
    with pytest.raises(ValueError, match=r"^elliptic runs take no dt_target \(grid.dt\)$"):
        plan(laplace_cfg(dt_target=0.01))


def test_csv_rows_shape(tmp_path):
    config = load_config(CONFIGS / "laplace_dirichlet.json")
    config["run"].update(max_iters=6, stop_tol=1e-300)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["--quiet", "run", "--config", str(path), "--out", str(tmp_path)]) == 1
    header, *lines = (tmp_path / "history.csv").read_text(encoding="utf-8").splitlines()
    assert header == "k,l,norm,E_k,rate,verdict"
    rows = [line.split(",") for line in lines]
    # iterations x subdomains rows, (k, l) in order
    expected = [(k, l) for k in range(1, 7) for l in (1, 2)]
    assert [(int(k), int(l)) for k, l, *_ in rows] == expected
    assert all(verdict == "stalled" for *_, verdict in rows)
    E = [float(ek) for _, l, _, ek, _, _ in rows if l == "1"]
    for k, _, _, _, rate, _ in rows:
        k = int(k)
        assert rate == ("" if k == 1 else format(E[k - 1] / E[k - 2], ".17g"))


# --------------------------------------------------------------------------
# parabolic engine
# --------------------------------------------------------------------------

def heat_cfg(**kw):
    prob = catalog_lookup("heat-semilinear")
    prob = replace(prob, time_horizon=1.0)
    part = build_uniform_partition(1.0, 2, 0.2)
    base = dict(problem=prob, partition=part, h_target=0.02, dt_target=0.01,
                transmission=TransmissionSpec.dirichlet(), u0="one",
                stop_tol=1e-8, k_max=30, alpha=10.0)
    base.update(kw)
    return SchwarzConfig(**base)


def test_parabolic_dirichlet_weighted_norm_decays_geometrically():
    p = plan(heat_cfg())
    hist = run_parabolic(p)
    assert p.norm_kind == "weighted-sup2"
    assert hist.verdict == "converged"
    ratios = [b / a for a, b in zip(hist.E[1:], hist.E[2:])]
    assert all(r < 1.0 for r in ratios)


def test_parabolic_robin_seminorm_history_decreases():
    p = plan(heat_cfg(transmission=TransmissionSpec.robin(1.0)))
    hist = run_parabolic(p)
    assert p.norm_kind == "laplace-seminorm2"
    assert hist.verdict == "converged"
    tail = hist.E[1:]
    assert all(b < a for a, b in zip(tail, tail[1:]))


def test_an_overflowing_sum_of_finite_seminorms_is_an_error_not_a_verdict(monkeypatch):
    # a Robin run's E_k sums its subdomain norms: finite ones can sum to inf
    import schwarz1d.schwarz as engine

    monkeypatch.setattr(engine, "_error_norm", lambda *args: 1e308)
    with pytest.raises(SchwarzRunError, match=r"^iteration 1: the error norm E_k overflows") as err:
        run_parabolic(plan(heat_cfg(transmission=TransmissionSpec.robin(1.0))))
    assert (err.value.history.verdict, err.value.history.iterations) == ("error", 0)


def test_parabolic_reference_initial_guess_is_fixed_point():
    for tsp in (TransmissionSpec.dirichlet(), TransmissionSpec.robin(1.0)):
        hist = run_parabolic(plan(heat_cfg(transmission=tsp, u0="reference", k_max=3,
                                           stop_tol=1e-300)))
        cfg_tol = 1e-10
        assert max(hist.E) <= 10 * cfg_tol


@pytest.mark.parametrize("mode", ["elliptic", "parabolic"])
def test_a_given_reference_is_read_and_left_untouched(monkeypatch, mode):
    # with u0 = "reference" every first iterate and elliptic warm start is a
    # view of the reference; a read-only one raises on any write
    import schwarz1d.schwarz as engine

    settings = dict(u0="reference", k_max=3, stop_tol=1e-300)
    if mode == "elliptic":  # semilinear, so each Picard loop reads its warm start
        p = plan(laplace_cfg(problem=catalog_lookup("elliptic-semilinear"), **settings))
        run = run_elliptic
    else:
        p, run = plan(heat_cfg(**settings)), run_parabolic
    expected = run(p)
    reference, _ = solve_reference(p)
    kept = reference.copy()
    reference.setflags(write=False)

    def boom(*args, **kwargs):
        raise AssertionError("a run given its reference solves none")

    monkeypatch.setattr(engine, "reference_solve", boom)
    hist = run(p, reference)
    assert np.array_equal(reference, kept)
    assert hist.E == expected.E and hist.verdict == expected.verdict


def test_parabolic_needs_time_axis():
    with pytest.raises(ValueError, match="dt_target"):
        run_parabolic(plan(heat_cfg(dt_target=None)))


# --------------------------------------------------------------------------
# the record stream and the verdict rule
# --------------------------------------------------------------------------

def first_verdict(E, stop_tol=1e-8, guard_factor=1e3, k_max=5):
    """(k, verdict) at the first k of ``E`` whose verdict is not None, as a
    run reads its error norms one by one; None if no k has one."""
    for k, E_k in enumerate(E, start=1):
        end = verdict(k, E[0], E_k, stop_tol, guard_factor, k_max)
        if end:
            return k, end
    return None


@pytest.mark.parametrize("E, settings, expected", [
    pytest.param([1.0, 0.5, 1e-9], {}, (3, "converged"), id="converged"),
    pytest.param([1e-8], {}, (1, "converged"), id="converged-at-stop-tol-at-k1"),
    # 1e-8 is above guard_factor * E_1 = 5e-9, and at most stop_tol (a run
    # takes guard_factor > 1, so that both hold needs a pure call)
    pytest.param([2e-8, 1e-8], {"guard_factor": 0.25}, (2, "converged"),
                 id="converged-before-the-guard"),
    pytest.param([1.0, 10.0, 1000.1], {}, (3, "diverged"), id="guard"),
    pytest.param([1.0, 1000.0, 1000.0, 1000.0, 1000.0], {}, (5, "stalled"),
                 id="guard-is-strict"),
    # a guard_factor below 1 would end any run at k = 1 if the guard read it
    pytest.param([1.0, 0.9], {"guard_factor": 0.5}, (2, "diverged"), id="guard-from-k2"),
    # no stop_tol is below a zero E_1, so only a negative one lets E_1 = 0 go on
    pytest.param([0.0, 1.0, 1e300, 1e300, 1e300], {"stop_tol": -1.0}, (5, "stalled"),
                 id="guard-needs-positive-E1"),
    pytest.param([1.0, math.inf], {"guard_factor": 1e308}, (2, "diverged"), id="inf"),
    pytest.param([1.0, math.nan], {}, (2, "diverged"), id="nan"),
    pytest.param([math.nan], {}, (1, "diverged"), id="nan-at-k1"),
    pytest.param([math.inf], {"k_max": 1}, (1, "diverged"), id="inf-at-k-max"),
    pytest.param([1.0] * 5, {}, (5, "stalled"), id="stalled"),
    pytest.param([1.0], {"k_max": 1}, (1, "stalled"), id="stalled-at-k1"),
    pytest.param([1.0, 1.0, 1.0, 1.0, 1e-9], {}, (5, "converged"), id="converged-at-k-max"),
    pytest.param([1.0, 1.0, 1.0, 1.0, 2e3], {}, (5, "diverged"), id="diverged-at-k-max"),
    pytest.param([1.0, 0.9, 0.8], {}, None, id="going-on"),
])
def test_verdict_rule(E, settings, expected):
    assert first_verdict(E, **settings) == expected


def test_a_non_finite_sweep_ends_the_stream_and_is_not_recorded():
    # the divergent Robin table with no guard in reach: the interface data
    # grow until a solve overflows; the stream's last record is that sweep,
    # which the run does not record
    prob = catalog_lookup("example31")
    part = Partition(length=2.0, subdomains=((0.0, 1.95), (1.9, 2.0)))
    cfg = SchwarzConfig(problem=prob, partition=part, h_target=0.01,
                        transmission=TransmissionSpec.robin({(0, 1): 0.1, (1, 0): 500.0}),
                        u0="one", k_max=20000, guard_factor=1e308)
    p = plan(cfg)
    fields = []
    stream = list(iterate(p, solve_reference(p)[0], fields))
    hist = run_elliptic(p)
    assert not math.isfinite(stream[-1].E) and fields == []
    assert all(math.isfinite(rec.E) for rec in stream[:-1])
    assert [rec[:4] for rec in hist.records] == [rec[:4] for rec in stream[:-1]]  # no wall
    assert hist.verdict == "diverged"


@pytest.mark.parametrize("make_cfg", [
    pytest.param(partial(laplace_cfg, problem=catalog_lookup("elliptic-semilinear")),
                 id="elliptic"),
    pytest.param(heat_cfg, id="parabolic-dirichlet"),
    pytest.param(partial(heat_cfg, transmission=TransmissionSpec.robin(1.0)),
                 id="parabolic-robin"),
])
def test_picard_totals_count_every_solve_banded_call(monkeypatch, make_cfg):
    # one Picard step is one solve_banded call, whatever the steps per level
    import schwarz1d.discretize as discretize

    calls = []
    original = discretize.solve_banded

    def counted(lu, rhs):
        calls.append(1)
        return original(lu, rhs)

    monkeypatch.setattr(discretize, "solve_banded", counted)
    p = plan(make_cfg(k_max=4, stop_tol=1e-300))
    reference, steps = solve_reference(p)
    assert steps == len(calls) > 0
    records = list(itertools.islice(iterate(p, reference, []), 4))
    assert sum(sum(rec.steps) for rec in records) == len(calls) - steps
    assert all(len(rec.steps) == len(p.ops) and min(rec.steps) >= 1 for rec in records)
    assert max(max(rec.steps) for rec in records) > 1  # F is not zero
    # the run reads the same stream: the same records, but the wall times
    hist = (run_parabolic if p.cfg.problem.mode == "parabolic" else run_elliptic)(p, reference)
    assert [rec[:4] for rec in hist.records] == [rec[:4] for rec in records]
    assert [rec.k for rec in records] == [1, 2, 3, 4]


# --------------------------------------------------------------------------
# final iterate and working set
# --------------------------------------------------------------------------

def test_final_fields_are_the_last_recorded_iterate():
    cfg = laplace_cfg()
    hist = run_elliptic(plan(cfg))
    assert hist.verdict == "converged"
    grid = build_grid(cfg.partition, cfg.h_target)
    reference, _ = reference_solve(cfg.problem, grid)
    assert len(hist.final_fields) == 2
    assert [float(np.max(np.abs(f - reference[grid.nodes(l)])))
            for l, f in enumerate(hist.final_fields)] == hist.records[-1].norms


def test_final_fields_are_empty_after_a_non_finite_sweep():
    # tau = 1.93 per double sweep and no guard in reach: the interface data
    # grow until a solve overflows, and that sweep is not recorded
    prob = catalog_lookup("example31")
    part = Partition(length=2.0, subdomains=((0.0, 1.95), (1.9, 2.0)))
    cfg = SchwarzConfig(problem=prob, partition=part, h_target=0.01,
                        transmission=TransmissionSpec.robin({(0, 1): 0.1, (1, 0): 500.0}),
                        u0="one", k_max=20000, guard_factor=1e308)
    hist = run_elliptic(plan(cfg))
    assert hist.verdict == "diverged"
    assert 300 < hist.iterations < cfg.k_max
    assert hist.E[-1] <= cfg.guard_factor * hist.E[0]  # not stopped by the guard
    assert hist.final_fields == []


def test_final_fields_are_empty_after_a_failed_sweep():
    # a callable source is sampled once by validate, once by the reference
    # and once per subdomain solve, so its 11th call is sweep 5's first
    # solve, which fails; the four sweeps before it stay recorded
    calls = itertools.count(1)

    def source(x, t):
        if next(calls) == 11:
            raise RuntimeError("synthetic source failure")
        return -np.sin(np.pi * x / 2.0)

    prob = replace(catalog_lookup("example31"), source=source)
    part = Partition(length=2.0, subdomains=((0.0, 1.95), (1.9, 2.0)))
    cfg = SchwarzConfig(problem=prob, partition=part, h_target=0.005,
                        transmission=TransmissionSpec.robin({(0, 1): 1.0, (1, 0): 50.0}),
                        u0="one", k_max=300)
    with pytest.raises(SchwarzRunError, match=r"^iteration 5, subdomain 1: synthetic") as err:
        run_elliptic(plan(cfg))
    assert err.value.history.iterations == 4
    assert err.value.history.verdict == "error"
    assert err.value.history.final_fields == []


def largest_field_bytes(p) -> int:
    """Bytes of the largest subdomain's space-time field of plan ``p``."""
    return max(op.n for op in p.ops) * p.grid.t.size * 8


def test_parabolic_dirichlet_run_holds_one_iterate_at_a_time():
    # the traced peak of a whole run stays within the monodomain reference
    # and one subdomain field: each field is measured and handed off before
    # the next solve overwrites the run's one buffer, and the weighted sup
    # norm forms each error a block of levels at a time; 5% slack covers
    # the operators, the interface data and the per-call arrays
    cfg = heat_cfg(partition=build_uniform_partition(1.0, 3, 0.15), h_target=0.004,
                   dt_target=0.001, k_max=2)
    tracemalloc.start()
    try:
        p = plan(cfg)
        hist = run_parabolic(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hist.iterations == 2 and hist.final_fields == []
    reference = p.grid.x.size * p.grid.t.size * 8
    assert peak <= 1.05 * (reference + largest_field_bytes(p))


def test_parabolic_robin_run_holds_one_iterate_at_a_time():
    # the traced peak of a whole run stays within what must be live at once:
    # the monodomain reference, one subdomain field in the run's one buffer
    # and the seminorm's arrays, whose size does not grow with the number
    # of levels: for one block of levels, the factor tables, the kernel at
    # every window point and the error, and the transforms with their
    # block's part; 20% slack covers numpy's iteration buffers and the
    # small per-call arrays
    cfg = heat_cfg(partition=build_uniform_partition(1.0, 3, 0.15), dt_target=0.002,
                   transmission=TransmissionSpec.robin(1.0), k_max=2)
    tracemalloc.start()
    try:
        p = plan(cfg)
        hist = run_parabolic(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hist.iterations == 2 and hist.final_fields == []
    assert p.grid.t.size > _LAPLACE_BLOCK
    n_max = max(op.n for op in p.ops)
    starts, offsets = _WINDOW_STARTS, _WINDOW_INTERVALS + 1
    block = ((starts + offsets + starts * offsets + n_max) * _LAPLACE_BLOCK
             + 2 * n_max * starts * offsets) * 8
    reference = p.grid.x.size * p.grid.t.size * 8
    assert peak <= 1.2 * (block + reference + largest_field_bytes(p))


# --------------------------------------------------------------------------
# one Jacobi sweep by hand
# --------------------------------------------------------------------------

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def shipped_cfg(name: str, **kw) -> SchwarzConfig:
    return replace(build_schwarz_config(load_config(CONFIGS / f"{name}.json"))[0], **kw)


SWEEP_CASES = {
    "laplace-dirichlet": partial(shipped_cfg, "laplace_dirichlet"),
    "divergent-robin": partial(shipped_cfg, "counterexample_divergent"),
    "heat-dirichlet": heat_cfg,
    "heat-robin": partial(heat_cfg, transmission=TransmissionSpec.robin(1.0)),
    # one Robin parameter per interface end: the middle subdomain hands
    # data to both neighbors, and a datum sent to the wrong end would show
    "three-robin-table": partial(
        laplace_cfg, problem=catalog_lookup("example31"),
        partition=build_uniform_partition(2.0, 3, 0.2),
        transmission=TransmissionSpec.from_dict(
            {"robin": {"p": {"0,1": 1.0, "1,0": 2.0, "1,2": 3.0, "2,1": 4.0}}})),
}


def error_norm(p, l: int, field, ref) -> float:
    """Subdomain l's error norm, as the schwarz module defines it for ``p``'s run."""
    alpha, t = p.cfg.alpha, p.grid.t
    if p.norm_kind == "weighted-sup2":
        return weighted_sup_norm(field, alpha, t, ref)
    if p.norm_kind == "laplace-seminorm2":
        return float(np.trapezoid(seminorm_sq_profile(field - ref, alpha, t), p.ops[l].x))
    return float(np.max(np.abs(field - ref)))


@pytest.mark.parametrize("case", SWEEP_CASES)
def test_hand_loop_of_exchange_and_sweep_is_the_run(case):
    # five sweeps from the sampled u0, each from the data the previous
    # iterate gives and, elliptic, from its fields; a parabolic sweep starts
    # from g, so the sweeps need no reference, which is solved only for the
    # norms.  A run of five iterations must give the same norms, bit for
    # bit, and an elliptic run must end on the same fields (a parabolic run
    # keeps none)
    cfg = SWEEP_CASES[case](k_max=5, stop_tol=1e-300)
    p = plan(cfg)
    fields = [cfg.u0.value(op.x, cfg.problem.length) for op in p.ops]
    iterates = []
    for _ in range(5):
        fields = [field for field, _ in sweep(p, exchange(p, fields), fields)]
        iterates.append(fields)
    reference, _ = solve_reference(p)
    refs = [reference[p.grid.nodes(l)] for l in range(len(p.ops))]
    norms = [[error_norm(p, l, f, ref) for l, (f, ref) in enumerate(zip(iterate, refs))]
             for iterate in iterates]
    parabolic = cfg.problem.mode == "parabolic"
    hist = (run_parabolic if parabolic else run_elliptic)(p)
    assert hist.iterations == 5 and hist.verdict == "stalled"
    assert [rec.norms for rec in hist.records] == norms
    kept = [] if parabolic else fields
    assert [f.tobytes() for f in kept] == [f.tobytes() for f in hist.final_fields]


@pytest.mark.parametrize("case", SWEEP_CASES)
def test_reference_restrictions_are_a_fixed_point_of_one_sweep(case):
    # the exchange and the subdomain rows use one stencil, so the restrictions
    # of the monodomain reference reproduce themselves up to round-off and
    # the Picard tolerance, relative to the largest value (Laplace's
    # reference is zero, and so must the sweep be)
    p = plan(SWEEP_CASES[case](picard_tol=1e-12))
    reference, _ = solve_reference(p)
    refs = [reference[p.grid.nodes(l)] for l in range(len(p.ops))]
    fields = [field for field, _ in sweep(p, exchange(p, refs), refs)]
    scale = float(np.max(np.abs(reference)))
    for field, ref in zip(fields, refs):
        assert np.max(np.abs(field - ref)) <= 1e-12 * scale


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", SWEEP_CASES)
def test_one_nan_datum_gives_a_non_finite_field_and_a_diverged_run(monkeypatch, case):
    # sweep yields the field its solve computed, not finite where the NaN
    # reaches it, and a run whose first data carry that NaN ends "diverged"
    # at that field's norm, with no iteration recorded
    import schwarz1d.schwarz as engine

    def poisoned(p, fields):
        data = exchange(p, fields)
        if not fields:  # a run's outer data, which every sweep hands off into
            return data
        assert all(np.isfinite(datum).all() for pair in data for datum in pair)
        datum = np.array(data[0][1], dtype=float)
        datum.flat[-1] = np.nan  # the last time level of a parabolic datum
        data[0] = [data[0][0], datum]
        return data

    p = plan(SWEEP_CASES[case]())
    fields = [p.cfg.u0.value(op.x, p.cfg.problem.length) for op in p.ops]
    swept = [field for field, _ in sweep(p, poisoned(p, fields), fields)]
    assert not np.isfinite(swept[0]).all()
    assert all(np.isfinite(field).all() for field in swept[1:])
    monkeypatch.setattr(engine, "exchange", poisoned)
    hist = (run_parabolic if p.cfg.problem.mode == "parabolic" else run_elliptic)(p)
    assert hist.verdict == "diverged"
    assert hist.iterations == 0 and hist.final_fields == []


@pytest.mark.parametrize("name", ["heat_dirichlet", "heat_robin"])
def test_parabolic_sweep_starts_from_the_initial_state_the_reference_starts_from(name):
    # g sampled on a subdomain's nodes is the reference's first level there,
    # bit for bit, so one sweep written by hand, which solves no reference,
    # gives the run's first-iteration norms bit for bit
    p = plan(shipped_cfg(name, k_max=1))
    prob = p.cfg.problem
    fields = [p.cfg.u0.value(op.x, prob.length) for op in p.ops]
    fields = [field for field, _ in sweep(p, exchange(p, fields), fields)]
    reference, _ = solve_reference(p)
    refs = [reference[p.grid.nodes(l)] for l in range(len(p.ops))]
    for op, ref in zip(p.ops, refs):
        assert prob.g.value(op.x, prob.length).tobytes() == ref[:, 0].tobytes()
    norms = [error_norm(p, l, f, ref) for l, (f, ref) in enumerate(zip(fields, refs))]
    assert [rec.norms for rec in run_parabolic(p, reference).records] == [norms]


def test_sweep_names_the_iteration_and_subdomain_whose_picard_loop_fails():
    # one Picard step cannot reach the tolerance from u0 = 1; the plan
    # solves nothing, so no reference fails first
    prob = catalog_lookup("elliptic-semilinear")
    p = plan(SchwarzConfig(problem=prob, partition=build_uniform_partition(prob.length, 2, 0.2),
                           h_target=0.01, transmission=TransmissionSpec.dirichlet(), u0="one",
                           picard_max=1))
    fields = [np.ones(op.n) for op in p.ops]
    for args, k in (((), 1), ((4,), 4)):
        with pytest.raises(SchwarzRunError,
                           match=rf"^iteration {k}, subdomain 1: Picard iteration did not "
                                 r"reach 1e-10 in 1 steps") as err:
            list(sweep(p, exchange(p, fields), fields, *args))
        assert err.value.history is None


# --------------------------------------------------------------------------
# a nonlinearity that decides the Robin verdict
# --------------------------------------------------------------------------

def semilinear_robin_cfg(F=None, p=None) -> SchwarzConfig:
    """The divergent counterexample's partition and Robin table 1 / 50 on
    example31 with c = 12 and ``F``, at h = 5e-3, u0 "one", 400 iterations;
    ``p``, when given, is one Robin parameter for every interface end."""
    cfg = load_config(CONFIGS / "counterexample_divergent.json")
    cfg["problem"] = {"mode": "elliptic", "L": 2, "a": 1, "b": 3, "c": 12,
                      "source": {"sine": {"amplitude": -1}}, **({} if F is None else {"F": F})}
    cfg["grid"]["h"] = 5e-3
    cfg["run"]["max_iters"] = 400
    if p is not None:
        cfg["transmission"] = {"robin": {"p": p}}
    return build_schwarz_config(cfg)[0]


def test_a_sine_nonlinearity_holds_robin_exchange_on_a_period_four_cycle():
    # c = 12 exceeds the Lipschitz bound 6 of F = 6 sin(u), so the run is
    # valid, but the linear factor at c - 6 is above 1: the fixed point
    # repels, while |F| <= 6 keeps the iterate bounded.  E settles on a
    # cycle of period 4, not 2: its pairs two apart differ by 2.1e-3
    # relative, its pairs four apart by 3.0e-10 at iteration 381, falling
    # as the orbit approaches the cycle
    hist = run_elliptic(plan(semilinear_robin_cfg({"sine": {"param": 6}})))
    assert hist.verdict == "stalled" and hist.iterations == 400
    E = np.array(hist.E)
    assert np.all(E[-20:] > 1.0)
    assert np.all(np.abs(E[-20:] - E[-24:-4]) <= 1e-9 * E[-20:])
    assert np.max(np.abs(E[-20:] - E[-22:-2]) / E[-20:]) > 1e-3


def test_the_parabolic_twin_of_the_cycling_case_converges_at_the_linear_rate():
    # the elliptic case above cycles; with d/dt and the time weight alpha = 10
    # the same operator, F and Robin table converge, at the linear witness
    # of c - C + alpha = 12 - 6 + 10: the fourth power of the spectral
    # radius of that elliptic map (E is a squared seminorm)
    cfg = load_config(CONFIGS / "counterexample_divergent.json")
    cfg["problem"] = {"mode": "parabolic", "L": 2, "T": 1, "a": 1, "b": 3, "c": 12,
                      "F": {"sine": {"param": 6}}, "source": {"sine": {"amplitude": -1}}}
    cfg["grid"] = {"h": 1e-2, "dt": 0.02}
    cfg["run"] = {"alpha": 10, "stop_tol": 1e-8, "u0": "one", "max_iters": 80}
    hist = run_parabolic(plan(build_schwarz_config(cfg)[0]))
    assert hist.verdict == "converged" and hist.iterations == 43
    cfg["problem"] = {"mode": "elliptic", "L": 2, "a": 1, "b": 3, "c": 16,
                      "source": {"sine": {"amplitude": -1}}}
    del cfg["grid"]["dt"]
    linear = plan(build_schwarz_config(cfg)[0])
    witness = float(np.max(np.abs(np.linalg.eigvals(interface_map(linear))))) ** 4
    assert witness == pytest.approx(0.6037, abs=1e-4)
    assert hist.rate_per_double == pytest.approx(witness, rel=0.03)


@pytest.mark.parametrize("F, p, iterations, rate", [
    pytest.param({"sine": {"param": -6}}, None, 151, 0.7172, id="F=-6sin"),
    pytest.param(None, None, 337, 0.8720, id="F=0"),
    pytest.param({"sine": {"param": 6}}, 1.0, 61, 0.4792, id="uniform-p"),
])
def test_the_cycling_robin_case_converges_with_another_sign_no_F_or_one_p(F, p, iterations,
                                                                            rate):
    hist = run_elliptic(plan(semilinear_robin_cfg(F, p)))
    assert hist.verdict == "converged" and hist.iterations == iterations
    assert hist.rate_per_double == pytest.approx(rate, abs=1e-4)
