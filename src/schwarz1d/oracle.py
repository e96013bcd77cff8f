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

Both transmissions come from one crossed ratio: each factor is
B(one profile) / B(the other) at its interface, with B(v) = v' + p v for
Robin exchange (p, or -q at L1) and B(v) = v for Dirichlet (trace)
exchange, the Robin map's p, q -> infinity limit.  The classical
two-subdomain factor for -u'' = 0 is included for validating the
numerical engine.  ``run_tau`` decides from a run's
operator and partition whether its errors are this model's, and if so
gives its Robin or Dirichlet tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .geometry import Partition
from .problem import Fn, ProblemSpec, is_positive_number

__all__ = [
    "AnalyticCase",
    "TauFactors",
    "tau_factors",
    "dirichlet_tau_factors",
    "run_tau",
    "asymptotic_tau_large_q",
    "divergence_threshold_L1",
    "classical_laplace_rate",
]

#: characteristic roots of r^2 - 3r - 4 = 0 for the model operator
ROOTS = (4.0, -1.0)
#: its coefficients (a, b, c) in the problem module's -(a u')' + b u' + c u:
#: -a r^2 + b r + c = 0 has the roots ROOTS for a = 1, b = r+ + r-, c = -r+ r-
_MODEL = (Fn.constant(1.0), Fn.constant(sum(ROOTS)), Fn.constant(-ROOTS[0] * ROOTS[1]))


class TauFactors(NamedTuple):
    tau1: float  # signed A_{k+1} / B_k
    tau2: float  # signed B_{k+1} / A_k
    tau: float  # |tau1 * tau2|, the per-double-sweep contraction factor


def _check_lengths(L: float, L1: float, L2: float | None = None) -> None:
    """A ValueError unless 0 < L1 < L2 < L (0 < L1 < L without L2), all finite."""
    chain = {"L1": L1, "L": L} if L2 is None else {"L1": L1, "L2": L2, "L": L}
    *first, last = names = sorted(chain)  # L, L1[, L2]
    got = ", ".join(f"{name}={chain[name]!r}" for name in names)
    values = [0.0, *chain.values()]
    if not all(lo < hi for lo, hi in zip(values, values[1:])):
        raise ValueError(f"need 0 < {' < '.join(chain)}, got {got}")
    if not all(map(is_positive_number, values[1:])):
        raise ValueError(f"lengths {', '.join(first)} and {last} must be finite numbers, "
                         f"got {got}")


@dataclass(frozen=True)
class AnalyticCase:
    """Two-subdomain geometry (0, L2) | (L1, L) with Robin parameters.

    ``p`` acts at x = L2 (left subdomain's interface), ``q`` at x = L1
    (right subdomain's interface); ``rho`` rescales both.  All three must
    be positive finite numbers, the rule a run applies to its Robin
    parameters; a non-positive q can make the right subdomain's problem
    singular.  The lengths L1 < L2 < L must be finite too.
    """

    L: float
    L1: float
    L2: float
    p: float
    q: float
    rho: float = 1.0

    def __post_init__(self) -> None:
        _check_lengths(self.L, self.L1, self.L2)
        if not (is_positive_number(self.p) and is_positive_number(self.q)):
            raise ValueError(f"Robin parameters p and q must be positive finite numbers, "
                             f"got p={self.p!r}, q={self.q!r}")
        if not is_positive_number(self.rho):
            raise ValueError(f"rho must be a positive finite number, got {self.rho!r}")


def _crossed_ratio(case: AnalyticCase, x: float, num: str, p: float | None, roots) -> float:
    """B(the ``num`` error profile) / B(the other one) at x, with B(v) = v' + p v
    at a Robin end and B(v) = v at a Dirichlet end (p None).

    The left profile vanishes at 0, the right one at L.  A ValueError when
    a profile overflows a float, as on a long domain, when B reads a slope
    that does (a root times a finite exponential can leave the float
    range) or a Robin term p v that does (a finite p near the float range
    times a profile value above 1), or when the denominator cancels to
    within 1e-14 of its largest term: the scale is its own terms, not the
    numerator, since the profiles are not normalized and on a long domain
    a legitimate ratio can exceed 1e14.
    """
    rp, rm = roots
    b = {}  # side: (B(profile), its terms)
    for side, anchor in (("left", 0.0), ("right", case.L)):
        try:
            ep, em = math.exp(rp * (x - anchor)), math.exp(rm * (x - anchor))
        except OverflowError:
            raise ValueError(f"the {side} error profile overflows a float at x = {x:g} "
                             f"(L = {case.L:g})") from None
        value, slope = ep - em, rp * ep - rm * em
        if p is None:
            b[side] = value, (value,)
        elif math.isinf(slope):
            raise ValueError(f"the derivative of the {side} error profile overflows a float "
                             f"at x = {x:g} (L = {case.L:g})")
        elif math.isinf(p * value):
            raise ValueError(f"the Robin term p v = {p:g} * {value:g} of the {side} error "
                             f"profile overflows a float at x = {x:g} (L = {case.L:g})")
        else:
            b[side] = slope + p * value, (slope, p * value)
    top, (den, terms) = b[num][0], b["left" if num == "right" else "right"]
    if abs(den) <= 1e-14 * max(map(abs, terms)):
        raise ValueError(f"interface-map denominator vanishes (num={top:g}, den={den:g})")
    return top / den


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
    tau1 = _crossed_ratio(case, case.L2, "right", p, roots)
    tau2 = _crossed_ratio(case, case.L1, "left", -q, roots)
    return TauFactors(tau1=tau1, tau2=tau2, tau=abs(tau1 * tau2))


def dirichlet_tau_factors(case: AnalyticCase, roots=ROOTS) -> TauFactors:
    """Trace-exchange (Dirichlet) factors: ``tau_factors``' ratios with B(v) = v."""
    tau1 = _crossed_ratio(case, case.L2, "right", None, roots)
    tau2 = _crossed_ratio(case, case.L1, "left", None, roots)
    return TauFactors(tau1=tau1, tau2=tau2, tau=abs(tau1 * tau2))


def run_tau(problem: ProblemSpec, partition: Partition, links: list) -> float | None:
    """The closed-form tau of a run whose errors are this module's model, else None.

    That is an elliptic run of the model operator (constant a = 1, b = 3,
    c = 4, F zero) on a chain of two subdomains, each with one interface
    inside the other; neither the source nor the data g enter the
    errors.  ``links`` are the run's ``transmission.links``,
    whose ``Link.p`` at each interface, rho applied, is the Robin p or q,
    and None for Dirichlet exchange, whose tau does not depend on them.
    A degenerate tau is None too.
    """
    if (problem.mode != "elliptic" or (problem.a, problem.b, problem.c) != _MODEL
            or problem.F.lipschitz != 0.0 or partition.count != 2
            or len(partition.interfaces) != 2):
        return None
    left = int(partition.subdomains[1][0] < partition.subdomains[0][0])  # the one at x = 0
    right = 1 - left
    L2, L1 = partition.interfaces[(left, right)], partition.interfaces[(right, left)]
    p, q = links[left][1].p, links[right][0].p
    try:
        case = AnalyticCase(L=partition.length, L1=L1, L2=L2, p=p or 1.0, q=q or 1.0)
        # both are looked up at call time: perfbench's tracer patches them by name
        return (dirichlet_tau_factors(case) if p is None else tau_factors(case)).tau
    except ValueError:
        return None


def asymptotic_tau_large_q(L: float, L1: float, roots=ROOTS) -> float:
    """Limit of tau for p = 1 as q -> infinity.

    Equals (exp(sL1) - 1) / (exp(sL) - exp(sL1)) with s = r+ - r-; the
    p = 1 factor contributes exactly 1 for the default roots.  It is
    evaluated as -expm1(-s L1) exp(-x) / -expm1(-x) with x = s (L - L1),
    the same ratio divided through by exp(sL), which cannot overflow; a
    factor below the float range rounds to 0.  The lengths must satisfy
    0 < L1 < L and be finite.
    """
    _check_lengths(L, L1)
    s = roots[0] - roots[1]
    x = s * (L - L1)
    return -math.expm1(-s * L1) * math.exp(-x) / -math.expm1(-x)


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
    _check_lengths(L, L1, L2)
    return (L1 / L2) * ((L - L2) / (L - L1))
