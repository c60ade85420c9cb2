"""Unit and property tests for the torus topology and network model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.network import NetworkMessage, TorusNetwork
from repro.noc.topology import TorusTopology
from repro.utils.statistics import Counter

TORUS = TorusTopology(width=4, height=4)
vertices = st.integers(min_value=0, max_value=TORUS.num_vertices - 1)


class TestTopology:
    def test_coordinates_roundtrip(self):
        for vertex in range(TORUS.num_vertices):
            x, y = TORUS.coordinates(vertex)
            assert TORUS.vertex(x, y) == vertex

    def test_wraparound_distance(self):
        # Vertex 0 is (0,0); vertex 3 is (3,0): one hop via wrap-around.
        assert TORUS.hop_distance(0, 3) == 1
        # Opposite corner (2,2) is the farthest point on a 4x4 torus.
        assert TORUS.hop_distance(0, TORUS.vertex(2, 2)) == 4

    def test_neighbours(self):
        neighbours = TORUS.neighbours(0)
        assert len(neighbours) == 4
        assert set(neighbours) == {1, 3, 4, 12}

    def test_route_endpoints_and_length(self):
        route = TORUS.route(0, 10)
        assert route[0] == 0 and route[-1] == 10
        assert len(route) == TORUS.hop_distance(0, 10) + 1

    def test_invalid_vertex_rejected(self):
        with pytest.raises(ValueError):
            TORUS.hop_distance(0, 16)

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ValueError):
            TorusTopology(width=0, height=4)


@settings(max_examples=100, deadline=None)
@given(src=vertices, dst=vertices)
def test_property_distance_symmetric_and_bounded(src, dst):
    distance = TORUS.hop_distance(src, dst)
    assert distance == TORUS.hop_distance(dst, src)
    assert 0 <= distance <= 4  # max for a 4x4 torus is 2 + 2
    assert (distance == 0) == (src == dst)


@settings(max_examples=100, deadline=None)
@given(src=vertices, dst=vertices)
def test_property_route_follows_neighbour_links(src, dst):
    route = TORUS.route(src, dst)
    for here, there in zip(route, route[1:]):
        assert there in TORUS.neighbours(here)
    assert len(route) - 1 == TORUS.hop_distance(src, dst)


@settings(max_examples=100, deadline=None)
@given(a=vertices, b=vertices, c=vertices)
def test_property_triangle_inequality(a, b, c):
    assert TORUS.hop_distance(a, c) <= TORUS.hop_distance(a, b) + TORUS.hop_distance(b, c)


class TestNetworkModel:
    def test_latency_proportional_to_hops(self):
        network = TorusNetwork(TORUS, router_hop_cycles=1, link_hop_cycles=1)
        assert network.latency(0, 0) == 0
        assert network.latency(0, 1) == 2
        assert network.latency(0, TORUS.vertex(2, 2)) == 8

    def test_message_flit_count(self):
        assert NetworkMessage(0, 1, payload_bytes=0).flits == 1
        assert NetworkMessage(0, 1, payload_bytes=64).flits == 9

    def test_send_accumulates_counters(self):
        counters = Counter()
        network = TorusNetwork(TORUS, counters=counters)
        network.send_control(0, 1)
        network.send_data(0, 1, line_bytes=64)
        assert counters["network_messages"] == 2
        # 1 hop * (1 flit + 9 flits) = 10 weighted hops on each counter.
        assert counters["network_router_hops"] == 10
        assert counters["network_link_hops"] == 10

    def test_same_vertex_message_costs_no_hops(self):
        counters = Counter()
        network = TorusNetwork(TORUS, counters=counters)
        assert network.send_control(5, 5) == 0
        assert counters["network_router_hops"] == 0
