import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from schwarz1d import geometry
from schwarz1d.geometry import Partition, build_grid, build_uniform_partition

from helpers import lattice_chain, snapped_cell_count


def violations(length, subdomains) -> list[str]:
    """The rules ``Partition`` names when it refuses ``subdomains``."""
    with pytest.raises(ValueError) as err:
        Partition(length=length, subdomains=subdomains)
    prefix = "partition fails validation: "
    assert str(err.value).startswith(prefix)
    return str(err.value)[len(prefix):].split("; ")


def test_uniform_two_subdomain_example():
    part = build_uniform_partition(2.0, 2, 0.2)
    np.testing.assert_allclose(part.subdomains, [(0.0, 1.1), (0.9, 2.0)])
    assert part.interfaces.keys() == {(0, 1), (1, 0)}
    np.testing.assert_allclose(part.interfaces[(0, 1)], [1.1])
    np.testing.assert_allclose(part.interfaces[(1, 0)], [0.9])


def test_uniform_three_subdomain_chain():
    part = build_uniform_partition(3.0, 3, 0.3)
    assert list(part.interfaces) == [(0, 1), (1, 0), (1, 2), (2, 1)]
    (lo0, hi0), _, (lo2, hi2) = part.subdomains
    assert min(hi0, hi2) - max(lo0, lo2) <= 0  # ends do not overlap
    for l in range(2):
        lo_a, hi_a = part.subdomains[l]
        lo_b, hi_b = part.subdomains[l + 1]
        np.testing.assert_allclose(hi_a - lo_b, 0.3)


def test_uniform_overlap_too_large_names_the_rule():
    with pytest.raises(ValueError, match="triple overlap"):
        build_uniform_partition(2.0, 3, 0.5)


def test_validate_accepts_plain_two_subdomain_overlap():
    part = Partition(length=2.0, subdomains=((0.0, 1.2), (0.8, 2.0)))
    assert part.interfaces == {(0, 1): 1.2, (1, 0): 0.8}


def test_validate_rejects_three_mutually_overlapping_intervals():
    assert violations(1.0, ((0.0, 0.6), (0.3, 0.8), (0.5, 1.0))) == [
        "triple overlap: subdomains 0, 1, 2 all contain (0.5, 0.6)"]


def test_validate_rejects_touching_but_disjoint_intervals():
    assert violations(2.0, ((0.0, 1.0), (1.0, 2.0))) == [
        "union/overlap: no subdomain contains 1.0",
        "interface coincidence: subdomains 0 and 1 share the interior boundary point 1.0"]


def test_validate_rejects_coincident_interior_boundaries():
    # third subdomain starts exactly where the first one ends
    out = violations(2.0, ((0.0, 1.2), (0.8, 2.0), (1.2, 1.6)))
    assert "interface coincidence: subdomains 0 and 2 share the interior boundary point 1.2" in out


def test_validate_rejects_neighbors_that_overlap_each_other():
    assert violations(2.0, ((0.0, 1.5), (1.0, 2.0), (1.4, 1.8))) == [
        "triple overlap: subdomains 0, 1, 2 all contain (1.4, 1.5)"]


def test_validate_messages_tell_close_points_apart():
    # subdomains narrower than 1e-6 L: 0.3 and 0.3000000001 print alike
    # under %g, and each of them breaks the same rules
    out = violations(1.0, ((0.0, 0.5), (0.3, 0.3000000001), (0.3, 0.3000000001), (0.45, 1.0)))
    assert "interface coincidence: subdomains 1 and 2 share the interior boundary point " \
        "0.3000000001" in out
    assert "triple overlap: subdomains 0, 1, 2 all contain (0.3, 0.3000000001)" in out
    assert len(out) == len(set(out)) == 5


@pytest.mark.parametrize("subdomains, message", [
    pytest.param(((0.0, 0.6), (0.4, 1.2)), "subdomain 1 = (0.4, 1.2)", id="past-L"),
    pytest.param(((-0.1, 0.6), (0.4, 1.0)), "subdomain 0 = (-0.1, 0.6)", id="before-0"),
])
def test_partition_refuses_a_subdomain_outside_the_domain(subdomains, message):
    assert violations(1.0, subdomains) == [
        f"union/overlap: {message} is not inside (0, L) = (0, 1)"]


def test_partition_takes_ends_within_its_tolerance_of_the_domain_ends():
    part = Partition(1.0, ((-1e-13, 0.6), (0.4, 1.0 + 1e-13)))
    assert part.interfaces == {(0, 1): 0.6, (1, 0): 0.4}


def test_partition_message_lists_the_first_violations_and_counts_the_rest():
    # eight disjoint subdomains leave nine gaps of (0, 9)
    out = violations(9.0, tuple((k + 0.25, k + 0.75) for k in range(1, 9)))
    assert out[:2] == ["union/overlap: no subdomain contains (0.0, 1.25)",
                       "union/overlap: no subdomain contains (1.75, 2.25)"]
    assert out[5:] == ["... (4 more)"]


def test_grid_two_subdomain_example():
    part = build_uniform_partition(2.0, 2, 0.2)
    grid = build_grid(part, 0.01)
    assert grid.x.size == 201
    assert grid.interface_index[(0, 1)] == 110
    assert grid.interface_index[(1, 0)] == 90
    assert grid.sub_ranges == ((0, 110), (90, 200))
    np.testing.assert_allclose(grid.h * (grid.x.size - 1), 2.0)


def test_grid_snaps_to_coarsest_admissible_width():
    part = Partition(length=1.0, subdomains=((0.0, 0.75), (0.25, 1.0)))
    grid = build_grid(part, 0.3)
    assert grid.h == 0.25  # smallest N >= 4 with endpoints on nodes


def test_grid_without_dt_has_no_time_axis():
    part = build_uniform_partition(1.0, 2, 0.1)
    grid = build_grid(part, 0.05)
    assert grid.dt is None and grid.t is None


def test_grid_time_axis():
    part = build_uniform_partition(1.0, 2, 0.1)
    grid = build_grid(part, 0.05, dt_target=0.3, time_horizon=1.0)
    assert grid.n_steps == 4 and grid.dt == 0.25
    np.testing.assert_allclose(grid.t, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_grid_unsnappable_endpoints_raise():
    part = Partition(length=1.0, subdomains=((0.0, 1 / np.sqrt(2)), (0.5, 1.0)))
    with pytest.raises(ValueError, match=r"^subdomain endpoints \[0\.5, 0\.70710678\d+\] "
                                         r"not snappable onto a uniform grid with N in \[10, "):
        build_grid(part, 0.1)
    # past the first five endpoints the message gives only their count
    part = build_uniform_partition(1.0, 2000, 1e-4 / np.pi)
    with pytest.raises(ValueError, match=r"^subdomain endpoints \[(0\.\d+, ){5}\.\.\. "
                                         r"\(3993 more\)\] not snappable"):
        build_grid(part, 1e-4)


def test_grid_picks_the_cell_count_of_a_brute_force_search():
    # random lattice chains; no candidate N is a multiple of 7919, so a chain
    # on that lattice is not snappable
    rng = np.random.default_rng(7)
    for _ in range(200):
        count = int(rng.integers(2, 7))
        denominator = int(rng.choice([*range(2 * count - 1, 41), 997, 7919]))
        length = float(rng.choice([1.0, 2.0, 0.7, 3.3]))
        part = Partition(length=length, subdomains=lattice_chain(rng, length, count, denominator))
        h_target = length / float(rng.uniform(2.0, 400.0))
        ends = sorted({p for lo_hi in part.subdomains for p in lo_hi if 0.0 < p < length})
        expected = snapped_cell_count(ends, length, max(2, math.ceil(length / h_target - 1e-12)))
        if expected is None:
            with pytest.raises(ValueError, match="not snappable"):
                build_grid(part, h_target)
        else:
            assert build_grid(part, h_target).x.size - 1 == expected


def test_grid_needs_horizon_with_dt():
    part = build_uniform_partition(1.0, 2, 0.1)
    with pytest.raises(ValueError):
        build_grid(part, 0.05, dt_target=0.1)


@pytest.mark.parametrize("h_target, dt_target, name", [
    pytest.param(1e-320, None, "h_target", id="h"),
    pytest.param(0.1, 1e-310, "dt_target", id="dt"),
])
def test_grid_count_past_the_float_range_names_the_step(h_target, dt_target, name):
    part = build_uniform_partition(1.0, 2, 0.1)
    with pytest.raises(ValueError, match=rf"^{name} .* finite, got"):
        build_grid(part, h_target, dt_target, time_horizon=1.0)


def test_grid_too_fine_names_its_node_count_before_allocating():
    # 1e15 + 1 nodes: np.linspace would ask for 7.11 PiB
    part = build_uniform_partition(1.0, 2, 0.1)
    with pytest.raises(ValueError, match=r"^h_target 1e-15 needs 1000000000000001 nodes; "
                                        r"at most 10000000 are allowed$"):
        build_grid(part, 1e-15)


def test_grid_node_cap_admits_exactly_its_count(monkeypatch):
    part = Partition(length=1.0, subdomains=((0.0, 0.6), (0.4, 1.0)))
    monkeypatch.setattr(geometry, "_MAX_NODES", 11)
    assert build_grid(part, 0.1).x.size == 11
    with pytest.raises(ValueError, match=r"needs 12 nodes; at most 11"):
        build_grid(part, 0.095)


def test_grid_time_axis_too_fine_names_its_value_count_before_allocating():
    # 2e13 + 1 levels: np.linspace would ask for 146 TiB for the time axis alone
    part = build_uniform_partition(1.0, 3, 0.15)
    with pytest.raises(ValueError, match=r"^dt_target 1e-13 needs 20000000000001 time levels "
                                         r"x 241 nodes = 4820000000000241 values; at most "
                                         r"50000000 are allowed$"):
        build_grid(part, 0.005, 1e-13, time_horizon=2.0)


def test_grid_space_time_cap_admits_exactly_its_count(monkeypatch):
    part = Partition(length=1.0, subdomains=((0.0, 0.6), (0.4, 1.0)))
    monkeypatch.setattr(geometry, "_MAX_SPACE_TIME_VALUES", 121)
    assert build_grid(part, 0.1, 0.1, time_horizon=1.0).t.size == 11
    with pytest.raises(ValueError, match=r"^dt_target 0.095 needs 12 time levels x 11 nodes = "
                                         r"132 values; at most 121"):
        build_grid(part, 0.1, 0.095, time_horizon=1.0)


def test_partition_rejects_two_interfaces_in_one_neighbor():
    # subdomain 1 = (0.3, 0.6) lies inside subdomain 0, so both its ends
    # would be interfaces in 0, but the exchange holds one datum per pair
    assert violations(1.0, ((0.0, 1.0), (0.3, 0.6))) == [
        "interface placement: subdomain 1 has 2 interface points (0.3, 0.6) in "
        "subdomain 0, but at most one is allowed"]


def test_partition_keeps_a_subdomain_at_an_outer_end_of_one_that_holds_it():
    # not chains: one subdomain shares an outer end with the one that holds it
    assert Partition(1.0, ((0.0, 0.5), (0.0, 1.0))).interfaces == {(0, 1): 0.5}
    assert Partition(1.0, ((0.0, 1.0), (0.5, 1.0))).interfaces == {(1, 0): 0.5}


@given(st.integers(0, 1), st.lists(st.tuples(st.integers(-1, 16), st.integers(1, 16)),
                                   min_size=2, max_size=6))
@example(0, [(0, 5), (3, 5)])  # a chain
@example(0, [(0, 4), (0, 8)])  # one subdomain at the outer end of another
@example(1, [(0, 5), (3, 5)])  # an end past L
def test_partition_accepts_exactly_the_partitions_the_rules_describe(cut, ends):
    # on the 1/8 lattice the rules read directly: the subdomains over each
    # segment's midpoint, the interior ends, the ends and strict nesting
    subs = tuple((lo / 8, (lo + width) / 8) for lo, width in ends)
    cells = max(1, max(lo + width for lo, width in ends) - cut)
    length = cells / 8
    cover = [sum(lo < (2 * k + 1) / 16 < hi for lo, hi in subs) for k in range(cells)]
    inner = [p for sub in subs for p in sub if 0 < p < length]
    valid = (all(c in (1, 2) for c in cover)
             and len(inner) == len(set(inner))
             and all(0 <= p <= length for sub in subs for p in sub)
             and not any(lo2 < lo and hi < hi2 for lo, hi in subs for lo2, hi2 in subs
                         if 0 < lo and hi < length))
    if valid:
        Partition(length=length, subdomains=subs)
    else:
        assert violations(length, subs)


@given(
    st.floats(0.5, 4.0),
    st.integers(2, 5),
    st.floats(0.05, 0.95),
)
def test_uniform_partition_round_trip(length, count, frac):
    overlap = frac * length / (2 * count)
    part = build_uniform_partition(length, count, overlap)
    # a chain: each subdomain has one interface in each of its neighbours
    assert list(part.interfaces) == sorted((l, m) for l in range(count)
                                           for m in (l - 1, l + 1) if 0 <= m < count)


@given(st.integers(2, 4), st.sampled_from([0.05, 0.1, 0.15, 0.125]))
def test_interfaces_at_least_one_node_inside_neighbor(count, overlap):
    part = build_uniform_partition(2.0, count, overlap)
    grid = build_grid(part, 0.01)
    for (l, m), idx in grid.interface_index.items():
        lo, hi = grid.sub_ranges[m]
        assert idx - lo >= 1 and hi - idx >= 1


def test_partition_refuses_a_non_positive_length():
    # a run never reaches this check: its problem refuses the length first
    with pytest.raises(ValueError, match="domain length must be positive"):
        Partition(length=0.0, subdomains=((0.0, 0.6), (0.4, 1.0)))
