"""The discrete interface map, a witness of the contraction factors.

One Jacobi sweep of a linear elliptic run is an affine map of the
interface data; the squared spectral radius of its matrix M
(``helpers.interface_map``) is the per-double-sweep factor of the
discrete iteration, which the closed forms predict and the run's fitted
rate measures.  Over random geometries it carries the paper's claims:
Dirichlet exchange always contracts, and so does Robin exchange once the
reaction term carries the 1/dt of a time step.
"""

import math
from pathlib import Path

import numpy as np

from schwarz1d.cli import build_schwarz_config, load_config
from schwarz1d.geometry import Partition
from schwarz1d.oracle import classical_laplace_rate, run_tau
from schwarz1d.problem import Fn, Nonlinearity, ProblemSpec
from schwarz1d.schwarz import SchwarzConfig, plan
from schwarz1d.transmission import TransmissionSpec

from helpers import interface_map, lattice_chain

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def shipped_plan(name: str):
    return plan(build_schwarz_config(load_config(CONFIGS / f"{name}.json"))[0])


def rho_squared(p) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(interface_map(p))))) ** 2


def test_laplace_dirichlet_map_has_the_classical_rate():
    # discrete harmonic functions are linear, as the continuous ones, so
    # the discrete factor is the closed form's to round-off
    np.testing.assert_allclose(rho_squared(shipped_plan("laplace_dirichlet")),
                               classical_laplace_rate(1.0, 0.4, 0.6), rtol=1e-12)


def test_divergent_robin_map_has_the_run_rate_and_the_closed_form_tau(shipped_run):
    p = shipped_plan("counterexample_divergent")
    rho2 = rho_squared(p)
    code, out = shipped_run("counterexample_divergent")
    assert code == 2
    summary = (out / "summary.txt").read_text().splitlines()
    rate = float(next(line for line in summary if line.startswith("rate/double:")).split()[-1])
    # the run's errors are M's dominant mode after 142 sweeps; the closed
    # form differs from the discrete map by the discretization error
    np.testing.assert_allclose(rho2, rate, rtol=1e-10)
    np.testing.assert_allclose(rho2, run_tau(p.cfg.problem, p.cfg.partition, p.links),
                               rtol=1e-5)


CELLS = 400  # cuts, overlaps and h on the lattice L j / 400
DRAWS = 200


def random_draws(rng):
    """(L, a, b, c, subdomains, Robin p per interface end) of each draw:
    a chain of 2-4 subdomains on the lattice, p log-uniform in [0.05, 100]."""
    for _ in range(DRAWS):
        L, a = rng.uniform(0.5, 3.0), rng.uniform(0.2, 3.0)
        b, c = rng.uniform(-5.0, 5.0), rng.uniform(0.0, 10.0)
        count = int(rng.integers(2, 5))
        subdomains = lattice_chain(rng, L, count, CELLS)
        ps = np.exp(rng.uniform(math.log(0.05), math.log(100.0), 2 * count - 2))
        yield L, a, b, c, subdomains, ps


def linear_plan(L, a, b, c, partition, transmission):
    problem = ProblemSpec(mode="elliptic", a=Fn.constant(a), b=Fn.constant(b),
                          c=Fn.constant(c), F=Nonlinearity.zero(), g=Fn.zero(), length=L)
    return plan(SchwarzConfig(problem=problem, partition=partition, h_target=L / CELLS,
                              transmission=transmission))


def test_dirichlet_and_time_step_robin_exchange_contract_on_random_geometries():
    # plain Robin exchange (reaction c alone) can expand, the paper's
    # elliptic failure; with c + 1000, the 1/dt of a time step, it contracts
    rng = np.random.default_rng(0)
    kept = 0
    for L, a, b, c, subdomains, ps in random_draws(rng):
        if L / CELLS > 2.0 * a / abs(b):  # no diagonal dominance
            continue
        try:
            part = Partition(length=L, subdomains=subdomains)
            plans = {"dirichlet": linear_plan(L, a, b, c, part, TransmissionSpec.dirichlet()),
                     "robin + 1/dt": linear_plan(L, a, b, c + 1000.0, part, TransmissionSpec.robin(
                         dict(zip(part.interfaces, map(float, ps)))))}
        except ValueError:  # a subdomain below 5 nodes
            continue
        kept += 1
        for kind, p in plans.items():
            assert rho_squared(p) < 1.0, (kind, L, a, b, c, subdomains, ps)
    assert kept >= 100
