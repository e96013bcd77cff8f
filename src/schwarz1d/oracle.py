"""Closed-form interface maps and contraction factors for two-subdomain runs.

For the constant-coefficient model  u'' - 3u' - 4u = f  on (0, L) with
u(0) = u(L) = 0, split into (0, L2) and (L1, L), the iteration errors are
exact combinations of the homogeneous solutions exp(4x) and exp(-x)
(roots of r^2 - 3r - 4 = 0) that vanish at the outer boundary:

    e_left^k (x) = A_k * (exp(4 x)       - exp(-x)),
    e_right^k(x) = B_k * (exp(4 (x - L)) - exp(-(x - L))).

A Jacobi sweep with Robin exchange -- parameter p at x = L2 (operator
v' + p v) and q at x = L1 (operator v' - q v) -- maps the coefficients
linearly and in crossed fashion:

    A_{k+1} = tau1 * B_k,      B_{k+1} = tau2 * A_k,

so every double sweep rescales both amplitudes by tau1 * tau2, and the
iteration converges iff  tau = |tau1 * tau2| < 1.  For p = 1 the first
factor has magnitude exp(-4L) * 1 exactly, and for q -> infinity

    tau -> (exp(5 L1) - 1) / (exp(5 L) - exp(5 L1)),

which crosses 1 at  L1* = ln((exp(5L) + 1) / 2) / 5:  placing the right
subdomain's interface beyond L1* makes large-q Robin exchange diverge,
while rescaling both parameters by a large enough rho restores tau < 1.

The Dirichlet (trace-exchange) factors for the same model and the
classical two-subdomain factor for -u'' = 0 are included as baselines
for validating the numerical engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .problem import is_positive_number

__all__ = [
    "AnalyticCase",
    "InterfaceState",
    "TauFactors",
    "tau_factors",
    "dirichlet_tau_factors",
    "step_interface",
    "asymptotic_tau_large_q",
    "divergence_threshold_L1",
    "classical_laplace_rate",
]

#: characteristic roots of r^2 - 3r - 4 = 0 for the model operator
ROOTS = (4.0, -1.0)


class TauFactors(NamedTuple):
    tau1: float  # signed A_{k+1} / B_k
    tau2: float  # signed B_{k+1} / A_k
    tau: float  # |tau1 * tau2|, the per-double-sweep contraction factor


@dataclass(frozen=True)
class AnalyticCase:
    """Two-subdomain geometry (0, L2) | (L1, L) with Robin parameters.

    ``p`` acts at x = L2 (left subdomain's interface), ``q`` at x = L1
    (right subdomain's interface); ``rho`` rescales both.  All three must
    be positive finite numbers, the rule a run applies to its Robin
    parameters; a non-positive q can make the right subdomain's problem
    singular.
    """

    L: float
    L1: float
    L2: float
    p: float
    q: float
    rho: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.L1 < self.L2 < self.L):
            raise ValueError(f"need 0 < L1 < L2 < L, got {self}")
        if not (is_positive_number(self.p) and is_positive_number(self.q)):
            raise ValueError(f"Robin parameters p and q must be positive finite numbers, "
                             f"got p={self.p!r}, q={self.q!r}")
        if not is_positive_number(self.rho):
            raise ValueError(f"rho must be a positive finite number, got {self.rho!r}")


@dataclass(frozen=True)
class InterfaceState:
    """Amplitudes of the two exponential error profiles."""

    A: float
    B: float


def _phi(x: float, anchor: float, roots) -> tuple[float, float]:
    """Profile vanishing at ``anchor`` and its derivative, at x."""
    rp, rm = roots
    ep, em = math.exp(rp * (x - anchor)), math.exp(rm * (x - anchor))
    return ep - em, rp * ep - rm * em


def _checked_ratio(num: float, den: float, *terms: float) -> float:
    """num / den, or a ValueError when ``den``, the sum of ``terms``, cancels
    to within 1e-14 of its largest term.

    The scale is the denominator's own terms, not the numerator: the
    profiles are not normalized, so on a long domain a legitimate ratio
    can exceed 1e14.
    """
    if abs(den) <= 1e-14 * max(map(abs, terms)):
        raise ValueError(f"interface-map denominator vanishes (num={num:g}, den={den:g})")
    return num / den


def tau_factors(case: AnalyticCase, roots=ROOTS) -> TauFactors:
    """Signed Robin interface-map factors and their double-sweep product.

    tau1 applies v' + p v at L2 to the right profile over the left one;
    tau2 applies v' - q v at L1 the other way around.  ``case.rho``
    multiplies both p and q.
    """
    p = case.rho * case.p
    q = case.rho * case.q
    for name, value, scaled in (("p", case.p, p), ("q", case.q, q)):
        if not math.isfinite(scaled):
            raise ValueError(f"Robin parameter rho * {name} = {case.rho!r} * {value!r} "
                             f"is not finite")
    v1, d1 = _phi(case.L2, 0.0, roots)        # left profile at L2
    w1, e1 = _phi(case.L2, case.L, roots)     # right profile at L2
    tau1 = _checked_ratio(e1 + p * w1, d1 + p * v1, d1, p * v1)
    v2, d2 = _phi(case.L1, 0.0, roots)        # left profile at L1
    w2, e2 = _phi(case.L1, case.L, roots)     # right profile at L1
    tau2 = _checked_ratio(d2 - q * v2, e2 - q * w2, e2, q * w2)
    return TauFactors(tau1=tau1, tau2=tau2, tau=abs(tau1 * tau2))


def dirichlet_tau_factors(case: AnalyticCase, roots=ROOTS) -> TauFactors:
    """Trace-exchange (Dirichlet) factors for the same two-subdomain model."""
    v1, _ = _phi(case.L2, 0.0, roots)
    w1, _ = _phi(case.L2, case.L, roots)
    v2, _ = _phi(case.L1, 0.0, roots)
    w2, _ = _phi(case.L1, case.L, roots)
    tau1 = _checked_ratio(w1, v1, v1)
    tau2 = _checked_ratio(v2, w2, w2)
    return TauFactors(tau1=tau1, tau2=tau2, tau=abs(tau1 * tau2))


def step_interface(case: AnalyticCase, state: InterfaceState,
                   roots=ROOTS) -> InterfaceState:
    """One Jacobi sweep of the exact interface map (cross-coupled)."""
    f = tau_factors(case, roots)
    return InterfaceState(A=f.tau1 * state.B, B=f.tau2 * state.A)


def asymptotic_tau_large_q(L: float, L1: float, roots=ROOTS) -> float:
    """Limit of tau for p = 1 as q -> infinity.

    Equals (exp(sL1) - 1) / (exp(sL) - exp(sL1)) with s = r+ - r-; the
    p = 1 factor contributes exactly 1 for the default roots.
    """
    s = roots[0] - roots[1]
    return math.expm1(s * L1) / (math.exp(s * L) - math.exp(s * L1))


def divergence_threshold_L1(L: float, roots=ROOTS) -> float:
    """Interface position where the large-q asymptotic factor crosses 1.

    Root of 2 exp(s L1) = exp(s L) + 1, i.e. L1* = ln((exp(sL) + 1)/2) / s
    with s = r+ - r- = 5: for L1 > L1* the p = 1, large-q exchange
    diverges, for L1 < L1* it contracts.  Computed via logaddexp so the
    expression stays finite for large L (L1* -> L - ln(2)/s).
    """
    import numpy as np

    s = roots[0] - roots[1]
    return float((np.logaddexp(s * L, 0.0) - math.log(2.0)) / s)


def classical_laplace_rate(L: float, L1: float, L2: float) -> float:
    """Per-double-sweep factor of trace exchange for -u'' = 0.

    Error profiles are linear and vanish at the outer boundary, so one
    double sweep rescales them by (L1 / L2) * ((L - L2) / (L - L1)) < 1
    whenever the overlap (L1, L2) is nonempty.
    """
    if not (0.0 < L1 < L2 < L):
        raise ValueError(f"need 0 < L1 < L2 < L, got L={L}, L1={L1}, L2={L2}")
    return (L1 / L2) * ((L - L2) / (L - L1))
