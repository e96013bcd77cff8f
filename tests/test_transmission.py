import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from schwarz1d.geometry import Partition, build_grid
from schwarz1d.problem import catalog_lookup
from schwarz1d.transmission import (
    TransmissionSpec,
    extract,
    links,
)


@pytest.fixture
def setup():
    """Two subdomains of (0, 2) with interfaces at 1.0 and 0.75."""
    spec = replace(catalog_lookup("laplace1d"), length=2.0)
    part = Partition(length=2.0, subdomains=((0.0, 1.0), (0.75, 2.0)))
    grid = build_grid(part, 0.05)
    return spec, part, grid


def link(tspec, grid, spec, l, m):
    """The Link through which subdomain l receives from neighbor m."""
    (found,) = [k for k in links(tspec, grid, spec)[l] if k is not None and k.m == m]
    return found


def neighbor_values(grid, m, fn):
    lo, hi = grid.sub_ranges[m]
    return fn(grid.x[lo:hi + 1])


def test_spec_requires_positive_parameters():
    with pytest.raises(ValueError):
        TransmissionSpec.robin(0.0)
    with pytest.raises(ValueError):
        TransmissionSpec.robin({(0, 1): 1.0, (1, 0): -2.0})
    with pytest.raises(ValueError):
        TransmissionSpec.scaled_robin(1.0, rho=0.0)


def test_dirichlet_extracts_the_trace(setup):
    spec, part, grid = setup
    field = neighbor_values(grid, 1, lambda x: np.full_like(x, 5.0))
    datum = extract(link(TransmissionSpec.dirichlet(), grid, spec, 0, 1), field)
    assert datum == 5.0


def test_robin_on_linear_field_is_exact(setup):
    # field u(x) = x, interface x = 1, outward normal +1, a = 1, p = 2:
    # datum = 1 * 1 + 2 * 1 = 3
    spec, part, grid = setup
    field = neighbor_values(grid, 1, lambda x: x)
    datum = extract(link(TransmissionSpec.robin(2.0), grid, spec, 0, 1), field)
    np.testing.assert_allclose(datum, 3.0, atol=1e-13)


def test_scaled_robin_scales_the_trace_term(setup):
    spec, part, grid = setup
    field = neighbor_values(grid, 1, lambda x: x)
    datum = extract(link(TransmissionSpec.scaled_robin(2.0, rho=10.0), grid, spec, 0, 1), field)
    np.testing.assert_allclose(datum, 21.0, atol=1e-12)


def test_scaled_robin_equals_robin_with_scaled_p(setup):
    spec, part, grid = setup
    rng = np.random.default_rng(3)
    field = neighbor_values(grid, 1, lambda x: np.sin(3 * x) + rng.normal(size=x.size))
    a = extract(link(TransmissionSpec.scaled_robin(2.0, rho=7.0), grid, spec, 0, 1), field)
    b = extract(link(TransmissionSpec.robin(14.0), grid, spec, 0, 1), field)
    assert a == b  # identical arithmetic, bitwise


def test_extraction_is_linear(setup):
    spec, part, grid = setup
    rng = np.random.default_rng(5)
    lo, hi = grid.sub_ranges[1]
    n = hi - lo + 1
    u, v = rng.normal(size=n), rng.normal(size=n)
    alpha, beta = 2.5, -1.25
    for tsp in (TransmissionSpec.dirichlet(), TransmissionSpec.robin(3.0)):
        mixed = extract(link(tsp, grid, spec, 0, 1), alpha * u + beta * v)
        parts = alpha * extract(link(tsp, grid, spec, 0, 1), u) + beta * extract(
            link(tsp, grid, spec, 0, 1), v)
        np.testing.assert_allclose(mixed, parts, rtol=1e-12, atol=1e-12)


def test_parabolic_fields_extract_per_time_level(setup):
    spec, part, grid = setup
    lo, hi = grid.sub_ranges[1]
    x = grid.x[lo:hi + 1]
    field = np.outer(x, np.array([1.0, 2.0, -1.0]))  # u(x, t_m) = x * c_m
    datum = extract(link(TransmissionSpec.robin(2.0), grid, spec, 0, 1), field)
    np.testing.assert_allclose(datum, 3.0 * np.array([1.0, 2.0, -1.0]), atol=1e-12)


def test_robin_extraction_second_order(setup):
    spec, part, _ = setup
    errs, hs = [], []
    part = Partition(length=2.0, subdomains=((0.0, 1.0), (0.75, 2.0)))
    for h in (0.05, 0.025, 0.0125, 0.00625):
        grid = build_grid(part, h)
        field = neighbor_values(grid, 1, lambda x: np.sin(x))
        datum = extract(link(TransmissionSpec.robin(2.0), grid, spec, 0, 1), field)
        exact = math.cos(1.0) + 2.0 * math.sin(1.0)
        errs.append(abs(datum - exact))
        hs.append(grid.h)
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert order >= 1.9


def test_left_end_normal_points_outward(setup):
    # receiving subdomain 1 at its left end: normal -1, datum a*(-u') + p u
    spec, part, grid = setup
    field = neighbor_values(grid, 0, lambda x: x)
    datum = extract(link(TransmissionSpec.robin(2.0), grid, spec, 1, 0), field)
    np.testing.assert_allclose(datum, -1.0 + 2.0 * 0.75, atol=1e-13)


def test_stencil_needs_two_interior_nodes():
    # the overlap (0.95, 1) is one cell wide, so each interface lies one node
    # inside its neighbor: enough for a trace, too shallow for the Robin stencil
    spec = replace(catalog_lookup("laplace1d"), length=2.0)
    grid = build_grid(Partition(length=2.0, subdomains=((0.0, 1.0), (0.95, 2.0))), 0.05)
    assert link(TransmissionSpec.dirichlet(), grid, spec, 1, 0).j == 19
    with pytest.raises(ValueError, match=r"subdomain 0 lies only 1 node\(s\) inside "
                                         r"neighbor 1; need >= 2"):
        links(TransmissionSpec.robin(1.0), grid, spec)


def test_links_resolve_each_end_once(setup):
    # subdomain 0 = (0, 1) receives at its right end x = 1 (node 20 of
    # neighbor 1 = (0.75, 2)), subdomain 1 at its left end x = 0.75
    spec, part, grid = setup
    (outer0, right0), (left1, outer1) = links(
        TransmissionSpec.scaled_robin({(0, 1): 2.0, (1, 0): 3.0}, rho=4.0), grid, spec)
    assert outer0 is None and outer1 is None
    assert (right0.m, right0.j, right0.normal, right0.a, right0.p) == (1, 5, 1, 1.0, 8.0)
    assert (left1.m, left1.j, left1.normal, left1.a, left1.p) == (0, 15, -1, 1.0, 12.0)
    dirichlet = links(TransmissionSpec.dirichlet(), grid, spec)[0][1]
    assert (dirichlet.a, dirichlet.p) == (None, None)


@pytest.mark.parametrize("table, message", [
    pytest.param({(0, 1): 1.0}, r"transmission table missing interfaces \[\(1, 0\)\]",
                 id="missing"),
    pytest.param({(0, 1): 1.0, (1, 0): 50.0, (5, 6): 2.0},
                 r"transmission table names non-interface pairs \[\(5, 6\)\]",
                 id="extra"),
])
def test_links_need_a_table_entry_for_exactly_the_interfaces(setup, table, message):
    spec, part, grid = setup
    with pytest.raises(ValueError, match=message):
        links(TransmissionSpec.robin(table), grid, spec)


@pytest.mark.parametrize("key", ["a", "1", "1,0,2", "1.5,0", ""])
def test_from_dict_names_a_bad_table_key(key):
    with pytest.raises(ValueError, match=f"Robin table key {key!r} must have the "
                                         'form "l,m"'):
        TransmissionSpec.from_dict({"robin": {"p": {key: 1.0, "1,0": 50.0}}})


@given(st.floats(0.1, 50.0), st.floats(0.5, 20.0))
def test_scaled_robin_identity_for_all_parameters(p, rho):
    spec = replace(catalog_lookup("laplace1d"), length=2.0)
    part = Partition(length=2.0, subdomains=((0.0, 1.0), (0.75, 2.0)))
    grid = build_grid(part, 0.05)
    lo, hi = grid.sub_ranges[1]
    field = np.cos(grid.x[lo:hi + 1])
    a = extract(link(TransmissionSpec.scaled_robin(p, rho=rho), grid, spec, 0, 1), field)
    b = extract(link(TransmissionSpec.robin(p * rho), grid, spec, 0, 1), field)
    np.testing.assert_allclose(a, b, rtol=0, atol=0)


# the four transmission forms of README's config schema
@pytest.mark.parametrize("literal, want", [
    pytest.param({"dirichlet": {}}, TransmissionSpec.dirichlet(), id="dirichlet"),
    pytest.param({"robin": {"p": 1.0}}, TransmissionSpec.robin(1.0), id="robin"),
    pytest.param({"robin": {"p": {"0,1": 1.0, "1,0": 50.0}}},
                 TransmissionSpec.robin({(0, 1): 1.0, (1, 0): 50.0}), id="robin-table"),
    pytest.param({"scaled_robin": {"p": 2.0, "rho": 8.0}},
                 TransmissionSpec.scaled_robin(2.0, rho=8.0), id="scaled-robin"),
])
def test_from_dict_reads_readme_forms(literal, want):
    assert TransmissionSpec.from_dict(literal) == want


def test_spec_refuses_an_unknown_kind():
    # a config never reaches this check: its reader refuses the kind first
    with pytest.raises(ValueError, match="unknown transmission kind 'neumann'"):
        TransmissionSpec(kind="neumann")
