import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from schwarz1d.oracle import (
    AnalyticCase,
    InterfaceState,
    asymptotic_tau_large_q,
    classical_laplace_rate,
    dirichlet_tau_factors,
    divergence_threshold_L1,
    step_interface,
    tau_factors,
)

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


def test_step_interface_fixed_point_and_composition():
    case = AnalyticCase(L=2.0, L1=1.7, L2=1.9, p=1.0, q=50.0)
    s0 = step_interface(case, InterfaceState(A=0.0, B=0.0))
    assert s0 == InterfaceState(A=0.0, B=0.0)
    f = tau_factors(case)
    s = InterfaceState(A=1.0, B=1.0)
    for _ in range(2):
        s = step_interface(case, s)
    np.testing.assert_allclose((s.A, s.B), (f.tau1 * f.tau2, f.tau1 * f.tau2), rtol=1e-14)


def test_iterated_map_consistent_with_tau_formula():
    case = AnalyticCase(L=2.0, L1=1.7, L2=1.9, p=1.0, q=50.0)
    s = InterfaceState(A=1.0, B=1.0)
    states = [s]
    for _ in range(20):
        s = step_interface(case, s)
        states.append(s)
    ratios = [abs(states[k + 2].A / states[k].A) for k in range(0, 19, 2)]
    np.testing.assert_allclose(ratios, tau_factors(case).tau, rtol=1e-10)


def test_iterated_map_matches_tau_on_random_cases():
    for case in random_cases(50, seed=9):
        tau = tau_factors(case).tau
        if not (1e-12 < tau < 1e10):
            continue
        s = InterfaceState(A=1.0, B=1.0)
        for _ in range(20):
            s = step_interface(case, s)
        observed = (abs(s.A)) ** (1.0 / 10.0)  # A_20 = (tau1 tau2)^10 * A_0
        np.testing.assert_allclose(observed, tau, rtol=1e-8)


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
    taus = [tau_factors(replace(case, rho=2.0 ** k)).tau for k in range(11)]
    assert any(t < 1.0 for t in taus)
    crossing = next(k for k, t in enumerate(taus) if t < 1.0)
    assert crossing <= 10


def test_classical_laplace_rate_examples():
    np.testing.assert_allclose(classical_laplace_rate(2.0, 0.9, 1.1), (9 / 11) ** 2,
                               rtol=1e-14)
    # symmetric case L2 = L - L1
    np.testing.assert_allclose(classical_laplace_rate(1.0, 0.3, 0.7), (0.3 / 0.7) ** 2,
                               rtol=1e-14)


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


def test_geometry_validation():
    with pytest.raises(ValueError):
        AnalyticCase(L=1.0, L1=0.8, L2=0.5, p=1.0, q=1.0)
    with pytest.raises(ValueError):
        AnalyticCase(L=1.0, L1=0.2, L2=0.5, p=1.0, q=1.0, rho=-1.0)


def test_dirichlet_factors_below_one_for_overlapping_split():
    f = dirichlet_tau_factors(AnalyticCase(L=2.0, L1=0.9, L2=1.1, p=1.0, q=1.0))
    assert 0.0 < f.tau < 1.0
