import numpy as np
import pytest
from hypothesis import given, strategies as st

from schwarz1d import geometry
from schwarz1d.geometry import (
    Partition,
    build_grid,
    build_uniform_partition,
    validate_partition,
)


def test_uniform_two_subdomain_example():
    part = build_uniform_partition(2.0, 2, 0.2)
    np.testing.assert_allclose(part.subdomains, [(0.0, 1.1), (0.9, 2.0)])
    assert part.interfaces.keys() == {(0, 1), (1, 0)}
    np.testing.assert_allclose(part.interfaces[(0, 1)], [1.1])
    np.testing.assert_allclose(part.interfaces[(1, 0)], [0.9])
    assert part.neighbor_sets == (frozenset({1}), frozenset({0}))


def test_uniform_three_subdomain_chain():
    part = build_uniform_partition(3.0, 3, 0.3)
    assert part.neighbor_sets[1] == frozenset({0, 2})
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
    assert validate_partition(part) == []


def test_validate_rejects_three_mutually_overlapping_intervals():
    part = Partition(length=1.0, subdomains=((0.0, 0.6), (0.3, 0.8), (0.5, 1.0)))
    out = validate_partition(part)
    assert any("triple overlap" in v for v in out)


def test_validate_rejects_touching_but_disjoint_intervals():
    part = Partition(length=2.0, subdomains=((0.0, 1.0), (1.0, 2.0)))
    out = validate_partition(part)
    assert any("union/overlap" in v for v in out)
    assert part.interfaces == {}  # no overlap, no interface sets


def test_validate_rejects_coincident_interior_boundaries():
    # third subdomain starts exactly where the first one ends
    part = Partition(length=2.0, subdomains=((0.0, 1.2), (0.8, 2.0), (1.2, 1.6)))
    out = validate_partition(part)
    assert any("interface coincidence" in v for v in out)


def test_validate_rejects_neighbors_that_overlap_each_other():
    part = Partition(length=2.0, subdomains=((0.0, 1.5), (1.0, 2.0), (1.4, 1.8)))
    out = validate_partition(part)
    assert any("triple overlap" in v for v in out)


def test_validate_messages_tell_close_points_apart():
    # subdomains narrower than 1e-6 L: 0.3 and 0.3000000001 print alike
    # under %g, and each of them breaks the same rules
    part = Partition(1.0, ((0.0, 0.5), (0.3, 0.3000000001), (0.3, 0.3000000001), (0.45, 1.0)))
    out = validate_partition(part)
    assert "interface placement: point 0.3000000001 of subdomain 1 is not strictly " \
        "inside subdomain 2" in out
    assert len(out) == len(set(out)) == 13


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
    with pytest.raises(ValueError, match="not snappable"):
        build_grid(part, 0.1)


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


def test_grid_rejects_two_interfaces_in_one_neighbor():
    # subdomain 1 = (0.3, 0.6) lies inside subdomain 0, so both its ends are
    # interfaces in 0; the message is validate_partition's rule 4
    part = Partition(length=1.0, subdomains=((0.0, 1.0), (0.3, 0.6)))
    message = ("interface placement: subdomain 1 has 2 interface points (0.3, 0.6) in "
               "subdomain 0; at most one is allowed")
    assert message in validate_partition(part)
    with pytest.raises(ValueError) as err:
        build_grid(part, 0.1)
    assert str(err.value) == message


@given(st.lists(st.tuples(st.integers(0, 16), st.integers(1, 16)), min_size=2, max_size=6))
def test_validate_never_repeats_a_message(ends):
    # every message names its own (l, m, point) or (m, m2, l)
    subs = tuple((lo / 8, (lo + width) / 8) for lo, width in ends)
    part = Partition(length=max(hi for _, hi in subs), subdomains=subs)
    out = validate_partition(part)
    assert len(out) == len(set(out))


@given(
    st.floats(0.5, 4.0),
    st.integers(2, 5),
    st.floats(0.05, 0.95),
)
def test_uniform_partition_round_trip(length, count, frac):
    overlap = frac * length / (2 * count)
    part = build_uniform_partition(length, count, overlap)
    assert validate_partition(part) == []
    # chain neighbor structure
    for l in range(count):
        expected = {m for m in (l - 1, l + 1) if 0 <= m < count}
        assert part.neighbor_sets[l] == frozenset(expected)


@given(st.integers(2, 4), st.sampled_from([0.05, 0.1, 0.15, 0.125]))
def test_interfaces_at_least_one_node_inside_neighbor(count, overlap):
    part = build_uniform_partition(2.0, count, overlap)
    grid = build_grid(part, 0.01)
    for (l, m), idx in grid.interface_index.items():
        lo, hi = grid.sub_ranges[m]
        assert idx - lo >= 1 and hi - idx >= 1
