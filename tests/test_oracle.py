import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from schwarz1d.oracle import (
    AnalyticCase,
    asymptotic_tau_large_q,
    classical_laplace_rate,
    dirichlet_tau_factors,
    divergence_threshold_L1,
    run_tau,
    tau_factors,
)
from schwarz1d.geometry import Partition, build_uniform_partition
from schwarz1d.problem import Fn, Nonlinearity, catalog_lookup
from schwarz1d.schwarz import SchwarzConfig, plan
from schwarz1d.transmission import TransmissionSpec

from helpers import tau_exponent5


def random_cases(n, seed=0):
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < n:
        L = float(rng.uniform(0.5, 3.0))
        L1, L2 = np.sort(rng.uniform(0.05 * L, 0.95 * L, size=2))
        if L2 - L1 < 0.02 * L:
            continue
        p, q = (float(v) for v in rng.uniform(0.1, 80.0, size=2))
        cases.append(AnalyticCase(L=L, L1=float(L1), L2=float(L2), p=p, q=q))
    return cases


def test_matches_exponent5_form_on_pinned_cases():
    # same algebra written two ways; pinned values evaluated from the
    # exponent-5 expression directly
    f = tau_factors(AnalyticCase(L=2, L1=1.7, L2=1.9, p=1, q=50))
    np.testing.assert_allclose(f.tau, 0.25190663756947035, rtol=1e-12)
    f = tau_factors(AnalyticCase(L=2, L1=1.9, L2=1.95, p=1, q=50))
    np.testing.assert_allclose(f.tau, 1.2077311921632212, rtol=1e-12)


def test_matches_exponent5_form_randomized():
    for case in random_cases(300):
        expected = tau_exponent5(case.L, case.L1, case.L2, case.p, case.q)
        np.testing.assert_allclose(tau_factors(case).tau, expected, rtol=1e-9)


def test_unit_p_makes_first_factor_exponent5_unity():
    # with p = 1 the first factor reduces to exp(-4L) in the raw form,
    # i.e. exactly 1 after the exponent-5 normalization
    case = AnalyticCase(L=2.0, L1=1.0, L2=1.5, p=1.0, q=7.0)
    f = tau_factors(case)
    np.testing.assert_allclose(abs(f.tau1) * math.exp(4 * case.L), 1.0, rtol=1e-12)


def test_numerator_roots_give_tau_zero():
    L, L1, L2 = 2.0, 1.0, 1.9
    e5L2, e5L = math.exp(5 * L2), math.exp(5 * L)
    p_star = -(4 * e5L2 + e5L) / (e5L2 - e5L)  # zero of the first numerator
    assert p_star > 0
    f = tau_factors(AnalyticCase(L=L, L1=L1, L2=L2, p=p_star, q=5.0))
    assert abs(f.tau) < 1e-12
    e5L1 = math.exp(5 * L1)
    q_star = (4 * e5L1 + 1) / (e5L1 - 1)  # zero of the second numerator
    f = tau_factors(AnalyticCase(L=L, L1=L1, L2=L2, p=2.0, q=q_star))
    assert abs(f.tau) < 1e-12


def test_reflection_symmetry_with_swapped_roots():
    # reflecting x -> L - x swaps the subdomains, sends the roots {4, -1}
    # of the operator to {1, -4}, and exchanges p and q
    for case in random_cases(100, seed=4):
        reflected = AnalyticCase(L=case.L, L1=case.L - case.L2, L2=case.L - case.L1,
                                 p=case.q, q=case.p)
        t1 = tau_factors(case).tau
        t2 = tau_factors(reflected, roots=(1.0, -4.0)).tau
        np.testing.assert_allclose(t1, t2, rtol=1e-10)


def test_degenerate_denominator_raises():
    # q < 0 can zero the second denominator; solve for that q
    L, L1, L2 = 2.0, 1.0, 1.5
    w, dw = (math.exp(4 * (L1 - L)) - math.exp(-(L1 - L)),
             4 * math.exp(4 * (L1 - L)) + math.exp(-(L1 - L)))
    q_bad = dw / w  # makes phi2'(L1) - q phi2(L1) = 0
    with pytest.raises(ValueError):
        tau_factors(AnalyticCase(L=L, L1=L1, L2=L2, p=1.0, q=q_bad))


def test_vanishing_denominator_raises_for_positive_q():
    # the model's roots keep both denominators positive for positive p and q;
    # with roots 4 and 1 a positive q zeroes the second one
    L, L1, L2, roots = 2.0, 1.0, 1.5, (4.0, 1.0)
    w, dw = (math.exp(4 * (L1 - L)) - math.exp(L1 - L),
             4 * math.exp(4 * (L1 - L)) - math.exp(L1 - L))
    assert dw / w > 0
    with pytest.raises(ValueError, match="denominator vanishes"):
        tau_factors(AnalyticCase(L=L, L1=L1, L2=L2, p=1.0, q=dw / w), roots)


@pytest.mark.parametrize("L", [10.0, 20.0, 60.0])
def test_long_domain_ratio_is_not_a_vanishing_denominator(L):
    # the unnormalized profiles make tau2's numerator ~ 1e18 at L = 10
    # beside a denominator ~ 25, whose own terms are ~ 4 and ~ 22
    case = AnalyticCase(L=L, L1=L - 0.1, L2=L - 0.05, p=1.0, q=50.0)
    np.testing.assert_allclose(tau_factors(case).tau, tau_exponent5(L, L - 0.1, L - 0.05, 1, 50),
                               rtol=1e-13)


def shifted_roots(s: float) -> tuple[float, float]:
    """Roots of r^2 - 3r - (4 + s) = 0: the model operator shifted by s."""
    d = math.sqrt(9.0 + 4.0 * (4.0 + s))
    return (3.0 + d) / 2.0, (3.0 - d) / 2.0


def test_steep_shifted_roots_give_a_small_tau():
    # s = 300 gives the roots 19 and -16; the factor keeps falling with s
    case = AnalyticCase(L=2.0, L1=1.9, L2=1.95, p=1.0, q=50.0)
    assert shifted_roots(300.0) == (19.0, -16.0)
    taus = [tau_factors(case, shifted_roots(s)).tau for s in (100.0, 200.0, 300.0)]
    np.testing.assert_allclose(taus[-1], 0.07648426417419767, rtol=1e-12)
    assert taus == sorted(taus, reverse=True) and taus[0] < 1.0


def test_divergence_threshold_closed_form():
    L = 2.0
    expected = math.log((math.exp(5 * L) + 1) / 2) / 5
    np.testing.assert_allclose(divergence_threshold_L1(L), expected, rtol=1e-14)
    # cross-check by bisection on the defining equation 2 e^{5x} = e^{5L} + 1
    lo, hi = 0.0, L
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 2 * math.exp(5 * mid) < math.exp(5 * L) + 1:
            lo = mid
        else:
            hi = mid
    np.testing.assert_allclose(divergence_threshold_L1(L), lo, atol=1e-12)


def test_asymptotic_tau_equals_one_at_threshold():
    for L in (1.0, 2.0, 3.0):
        L1s = divergence_threshold_L1(L)
        np.testing.assert_allclose(asymptotic_tau_large_q(L, L1s), 1.0, rtol=1e-12)


def test_asymptotic_tau_equals_its_exponential_form():
    # the old form (exp(sL1) - 1) / (exp(sL) - exp(sL1)) wherever it is
    # finite and well conditioned: each exponent's rounded argument is off
    # by about s L ulp, and its difference cancels when L1 nears L
    rng = np.random.default_rng(7)
    for _ in range(2000):
        L = float(rng.uniform(0.5, 5.0))
        L1 = float(rng.uniform(0.01 * L, L - 0.2))
        old = math.expm1(5.0 * L1) / (math.exp(5.0 * L) - math.exp(5.0 * L1))
        np.testing.assert_allclose(asymptotic_tau_large_q(L, L1), old, rtol=1e-14, atol=0.0)


def test_asymptotic_tau_stays_finite_where_the_exponentials_overflow():
    # exp(5 L) overflows past L = 142, but the factor depends on L - L1
    L = 150.0
    with pytest.raises(OverflowError):
        math.exp(5.0 * L)
    np.testing.assert_allclose(asymptotic_tau_large_q(L, L - 0.1), 1.0 / math.expm1(0.5),
                               rtol=1e-12)
    # far from the interface the factor, about exp(-5 (L - L1)), leaves the
    # float range downwards: subnormal at L - L1 = 148.1, zero at 198.1
    assert 0.0 < asymptotic_tau_large_q(L, 1.9) < 1e-320
    assert asymptotic_tau_large_q(200.0, 1.9) == 0.0


@pytest.mark.parametrize("L, L1, message", [
    pytest.param(2.0, 2.0, "need 0 < L1 < L, got L=2.0, L1=2.0", id="L1-at-L"),
    pytest.param(2.0, 200.0, "need 0 < L1 < L, got L=2.0, L1=200.0", id="L1-beyond-L"),
    pytest.param(2.0, -1.0, "need 0 < L1 < L, got L=2.0, L1=-1.0", id="L1-negative"),
    pytest.param(2.0, math.nan, "need 0 < L1 < L, got L=2.0, L1=nan", id="L1-nan"),
    pytest.param(math.inf, 1.9, "lengths L and L1 must be finite numbers, got L=inf, L1=1.9",
                 id="L-infinite"),
])
def test_asymptotic_tau_refuses_lengths_outside_the_geometry(L, L1, message):
    with pytest.raises(ValueError) as err:
        asymptotic_tau_large_q(L, L1)
    assert str(err.value) == message


def test_large_q_verdict_flips_across_threshold():
    L = 2.0
    L1s = divergence_threshold_L1(L)
    q = 1e6
    below = tau_factors(AnalyticCase(L=L, L1=L1s - 0.01, L2=1.93, p=1.0, q=q)).tau
    above = tau_factors(AnalyticCase(L=L, L1=L1s + 0.01, L2=1.93, p=1.0, q=q)).tau
    assert below < 1.0 < above


def test_threshold_large_domain_expansion():
    L = 10.0
    np.testing.assert_allclose(divergence_threshold_L1(L), L - math.log(2) / 5,
                               atol=1e-20)


def test_rho_rescue_at_oracle_level():
    case = AnalyticCase(L=2.0, L1=1.9, L2=1.95, p=1.0, q=50.0)
    assert tau_factors(case).tau > 1.0
    taus = [tau_factors(replace(case, p=2.0 ** k, q=50.0 * 2.0 ** k)).tau for k in range(11)]
    assert any(t < 1.0 for t in taus)
    crossing = next(k for k, t in enumerate(taus) if t < 1.0)
    assert crossing <= 10


def test_classical_laplace_rate_examples():
    np.testing.assert_allclose(classical_laplace_rate(2.0, 0.9, 1.1), (9 / 11) ** 2,
                               rtol=1e-14)
    # symmetric case L2 = L - L1
    np.testing.assert_allclose(classical_laplace_rate(1.0, 0.3, 0.7), (0.3 / 0.7) ** 2,
                               rtol=1e-14)


def test_classical_rate_refuses_lengths_out_of_order():
    with pytest.raises(ValueError, match="need 0 < L1 < L2 < L"):
        classical_laplace_rate(1.0, 0.7, 0.3)


def test_classical_rate_tends_to_one_as_overlap_vanishes():
    L, L1 = 1.0, 0.45
    rates = [classical_laplace_rate(L, L1, L1 + eps) for eps in (0.1, 0.01, 0.001)]
    assert all(r < 1.0 for r in rates)
    assert rates == sorted(rates)  # increasing toward 1
    assert rates[-1] > 0.99


def test_classical_rate_decreases_with_overlap_at_fixed_midpoint():
    L, mid = 2.0, 1.0
    rates = [classical_laplace_rate(L, mid - d / 2, mid + d / 2)
             for d in (0.1, 0.2, 0.4, 0.8)]
    assert rates == sorted(rates, reverse=True)


@given(st.floats(0.2, 5.0), st.data())
def test_classical_rate_below_one_for_strict_overlap(L, data):
    L1 = data.draw(st.floats(0.05 * L, 0.9 * L))
    L2 = data.draw(st.floats(L1 * 1.001 + 1e-6, 0.95 * L))
    if not L1 < L2 < L:
        return
    assert classical_laplace_rate(L, L1, L2) < 1.0


def test_classical_rate_rejects_an_infinite_length():
    # 0 < L1 < L2 < L admits L = inf, whose rate would be inf / inf = nan
    with pytest.raises(ValueError, match=r"^lengths L, L1 and L2 must be finite numbers, "
                                         r"got L=inf, L1=1\.0, L2=2\.0$"):
        classical_laplace_rate(math.inf, 1.0, 2.0)


def test_geometry_validation():
    with pytest.raises(ValueError):
        AnalyticCase(L=1.0, L1=0.8, L2=0.5, p=1.0, q=1.0)


def test_infinite_length_is_rejected_as_not_finite():
    # an infinite L passes 0 < L1 < L2 < L; its right profile is infinite
    with pytest.raises(ValueError, match=r"^lengths L, L1 and L2 must be finite numbers, "
                                         r"got L=inf, L1=1\.9, L2=1\.95$"):
        AnalyticCase(L=math.inf, L1=1.9, L2=1.95, p=1.0, q=50.0)


@pytest.mark.parametrize("factors", [tau_factors, dirichlet_tau_factors])
@pytest.mark.parametrize("L, L1, L2, message", [
    # exp(L - L2) past the float range: the right profile overflows at L2
    pytest.param(1e3, 1.9, 1.95, r"the right error profile overflows a float at x = 1\.95 "
                                 r"\(L = 1000\)", id="right"),
    # exp(4 L2) past the float range: the left profile overflows at L2
    pytest.param(400.0, 300.0, 300.5, r"the left error profile overflows a float at "
                                      r"x = 300\.5 \(L = 400\)", id="left"),
])
def test_an_overflowing_profile_is_named_with_its_length(factors, L, L1, L2, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        factors(AnalyticCase(L=L, L1=L1, L2=L2, p=1.0, q=50.0))


@pytest.mark.parametrize("roots, L1, L2, side, x, dirichlet_tau", [
    # exp(4 L2) is finite at L2 = 177.3, but 4 exp(4 L2) is not
    pytest.param((4.0, -1.0), 100.0, 177.3, "left", r"177\.3", 1.3547716372644618e-168,
                 id="left"),
    # the mirror image: exp(4 (L - L1)) at L1 = 0.7
    pytest.param((1.0, -4.0), 0.7, 1.0, "right", r"0\.7", 0.21786014324775105, id="right"),
])
def test_an_overflowing_profile_derivative_is_named_with_its_length(roots, L1, L2, side, x,
                                                                     dirichlet_tau):
    case = AnalyticCase(L=178.0, L1=L1, L2=L2, p=1.0, q=50.0)
    with pytest.raises(ValueError, match=rf"^the derivative of the {side} error profile "
                                         rf"overflows a float at x = {x} \(L = 178\)$"):
        tau_factors(case, roots)
    # the Dirichlet factors read no derivative
    np.testing.assert_allclose(dirichlet_tau_factors(case, roots).tau, dirichlet_tau,
                               rtol=1e-12)


def test_dirichlet_factors_below_one_for_overlapping_split():
    f = dirichlet_tau_factors(AnalyticCase(L=2.0, L1=0.9, L2=1.1, p=1.0, q=1.0))
    assert 0.0 < f.tau < 1.0


# the shipped divergent run: example31 on (0, 1.95) | (1.9, 2), Robin p = 1, q = 50
DIVERGENT = AnalyticCase(L=2.0, L1=1.9, L2=1.95, p=1.0, q=50.0)
DIVERGENT_TABLE = {(0, 1): 1.0, (1, 0): 50.0}


@pytest.mark.parametrize("L, L1, L2", [(DIVERGENT.L, DIVERGENT.L1, DIVERGENT.L2),
                                       (1.0, 0.4, 0.6), (3.0, 0.5, 2.5)])
def test_dirichlet_factors_are_the_robin_limit_of_large_parameters(L, L1, L2):
    # B(v) = v' + P v over P tends to B(v) = v: at L2, with the left profile v
    # and slope d and the right profile w and slope e,
    # tau1(P) = (e + P w) / (d + P v) = (w / v) (1 + c / P + ...), and tau2
    # alike, so the relative gap to each Dirichlet factor falls as 1 / P
    dirichlet = dirichlet_tau_factors(AnalyticCase(L=L, L1=L1, L2=L2, p=1.0, q=1.0))
    gaps = {}
    for P in (1e2, 1e4, 1e6, 1e8):
        robin = tau_factors(AnalyticCase(L=L, L1=L1, L2=L2, p=P, q=P))
        gaps[P] = [abs(r / d - 1.0) for r, d in zip(robin, dirichlet)]
    np.testing.assert_allclose(robin, dirichlet, rtol=1e-6)
    for P in (1e4, 1e6, 1e8):
        assert all(gap < earlier for gap, earlier in zip(gaps[P], gaps[P / 100]))
    np.testing.assert_allclose(np.multiply(gaps[1e8], 1e8), np.multiply(gaps[1e6], 1e6),
                               rtol=1e-2)


def divergent_plan(problem=None, transmission=TransmissionSpec.robin(DIVERGENT_TABLE),
                   subdomains=((0.0, 1.95), (1.9, 2.0))):
    """The plan of an elliptic run of ``problem`` (example31) on (0, 2)."""
    return plan(SchwarzConfig(problem=problem or catalog_lookup("example31"),
                              partition=Partition(2.0, subdomains), h_target=0.005,
                              transmission=transmission))


def planned_tau(*args):
    p = divergent_plan(*args)
    return run_tau(p.cfg.problem, p.cfg.partition, p.links)


def test_run_tau_of_the_model_operator_whatever_its_data():
    model = catalog_lookup("example31")
    want = tau_factors(DIVERGENT).tau
    assert planned_tau(model) == want
    # the errors see neither the source nor g
    assert planned_tau(replace(model, source=None, g=Fn.constant(3.0))) == want
    # the closed form takes the numbers the run's Robin rows use, rho applied
    assert planned_tau(model, TransmissionSpec.robin(DIVERGENT_TABLE, 4.0)) == (
        tau_factors(replace(DIVERGENT, p=4.0, q=200.0)).tau)
    assert planned_tau(model, TransmissionSpec.dirichlet()) == (
        dirichlet_tau_factors(DIVERGENT).tau)


@pytest.mark.parametrize("edit", [
    # the same roots, but a Robin row reads a du/dn + p u, so p would act as p / a
    pytest.param(lambda m: replace(m, a=Fn.constant(2.0), b=Fn.constant(6.0),
                                   c=Fn.constant(8.0)), id="a-2"),
    pytest.param(lambda m: replace(m, c=Fn.constant(5.0)), id="c-5"),
    pytest.param(lambda m: replace(m, b=Fn.polynomial([3.0, 0.1])), id="b-not-constant"),
    pytest.param(lambda m: replace(m, F=Nonlinearity.linear(0.5)), id="F-nonzero"),
    pytest.param(lambda m: replace(m, mode="parabolic", time_horizon=1.0), id="parabolic"),
])
def test_run_tau_is_none_off_the_model_operator(edit):
    p = divergent_plan()
    assert run_tau(edit(p.cfg.problem), p.cfg.partition, p.links) is None


def test_run_tau_is_none_on_three_subdomains_and_for_a_degenerate_tau():
    model = catalog_lookup("example31")
    p = plan(SchwarzConfig(problem=model, partition=build_uniform_partition(2.0, 3, 0.1),
                           h_target=0.005, transmission=TransmissionSpec.robin(1.0)))
    assert run_tau(p.cfg.problem, p.cfg.partition, p.links) is None
    # exp(4 x) overflows a float on (0, 200), which the tau command reports
    long = Partition(200.0, ((0.0, 199.5), (199.0, 200.0)))
    assert run_tau(replace(model, length=200.0), long, divergent_plan().links) is None


def test_run_tau_is_none_off_a_chain():
    # subdomain 1 holds all of subdomain 0, so only 0 has an interface
    p = divergent_plan(transmission=TransmissionSpec.robin(1.0),
                       subdomains=((0.0, 1.0), (0.0, 2.0)))
    assert run_tau(p.cfg.problem, p.cfg.partition, p.links) is None
