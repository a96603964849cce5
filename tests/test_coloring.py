"""Exact chromatic number and criticality classification tests."""

import itertools
import random

import pytest

from helpers import random_graph
from turanlab import coloring
from turanlab import (
    SimpleGraph,
    chromatic_number,
    complete,
    complete_multipartite,
    criticality,
    cycle,
    disjoint_union,
    is_k_colorable,
    join,
    path,
    turan,
    wheel,
)


class TestChromaticNumber:
    def test_standards(self):
        assert chromatic_number(SimpleGraph(0)) == 0
        assert chromatic_number(SimpleGraph(5)) == 1
        assert chromatic_number(path(6)) == 2
        assert chromatic_number(cycle(6)) == 2
        assert chromatic_number(cycle(7)) == 3
        assert chromatic_number(complete(6)) == 6
        assert chromatic_number(turan(11, 4)) == 4

    def test_wheels_alternate(self):
        # even rim -> 3, odd rim -> 4
        assert chromatic_number(wheel(7)) == 3
        assert chromatic_number(wheel(6)) == 4

    def test_is_k_colorable_monotone(self):
        g = cycle(5)
        assert not is_k_colorable(g, 0)
        assert not is_k_colorable(g, 1)
        assert not is_k_colorable(g, 2)
        assert is_k_colorable(g, 3)
        assert is_k_colorable(g, 4)
        assert is_k_colorable(g, 5)
        assert is_k_colorable(g, 6)
        # no vertex needs a color; an edgeless graph needs one
        assert all(is_k_colorable(SimpleGraph(0), k) for k in (0, 1, 2))
        assert not is_k_colorable(SimpleGraph(3), 0)
        assert is_k_colorable(SimpleGraph(3), 1)
        with pytest.raises(ValueError, match="nonnegative"):
            is_k_colorable(g, -1)

    def test_disjoint_union_takes_max(self):
        g = disjoint_union([complete(4), cycle(5)])
        assert chromatic_number(g) == 4

    def test_random_graphs_bounded_by_greedy(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 9))
            chi = chromatic_number(g)
            assert is_k_colorable(g, chi)
            assert chi == 1 or not is_k_colorable(g, chi - 1)

    @pytest.mark.parametrize(
        "g, chi, searches",
        [
            (complete(512), 512, 0),
            (turan(60, 3), 3, 0),
            (turan(512, 3), 3, 0),
            (wheel(7), 3, 0),
            (cycle(6), 2, 0),
            (cycle(5), 3, 1),
            (wheel(6), 4, 1),
        ],
    )
    def test_no_search_when_the_bounds_meet(self, g, chi, searches, monkeypatch):
        # the clique bound meets the colouring bound on cliques, Turán graphs,
        # odd wheels and even cycles: no backtracking search runs at all
        calls = []

        def counting(graph, k):
            calls.append(k)
            return is_k_colorable(graph, k)

        monkeypatch.setattr(coloring, "is_k_colorable", counting)
        assert chromatic_number(g) == chi
        assert len(calls) == searches


def reference_chromatic_number(g: SimpleGraph) -> int:
    """The least k with a proper colouring, trying every map to k colours."""
    edges = list(g.edges())
    k = 0
    while not any(
        all(col[u] != col[v] for u, v in edges)
        for col in itertools.product(range(k), repeat=g.n)
    ):
        k += 1
    return k


class TestAgainstReference:
    def test_atlas_graphs_up_to_six_vertices(self):
        nx = pytest.importorskip("networkx")
        graphs = [
            SimpleGraph(h.number_of_nodes(), h.edges())
            for h in nx.graph_atlas_g()
            if h.number_of_nodes() <= 6
        ]
        assert len(graphs) == 209
        for g in graphs:
            assert chromatic_number(g) == reference_chromatic_number(g)


class TestCriticality:
    def test_odd_order_wheels(self):
        # even rim: deleting the hub drops to bipartite, no edge does
        for n in (5, 7, 9):
            rep = criticality(wheel(n))
            assert rep.chi == 3
            assert rep.is_vertex_critical
            assert not rep.is_edge_critical

    def test_even_order_wheels(self):
        # odd rim: 4-chromatic, and losing any spoke or rim edge drops chi
        for n in (4, 6, 8):
            rep = criticality(wheel(n))
            assert rep.chi == 4
            assert rep.is_edge_critical
            assert rep.is_vertex_critical

    def test_complete_graphs(self):
        for n in (3, 4, 5):
            rep = criticality(complete(n))
            assert rep.chi == n
            assert rep.is_edge_critical
            assert rep.is_vertex_critical

    def test_witnesses_are_least(self):
        rep = criticality(complete(4))
        assert rep.vertex_witness == 0
        assert rep.edge_witness == (0, 1)

    def test_non_critical_graph(self):
        # a path is 2-chromatic; removing one vertex keeps an edge
        rep = criticality(path(4))
        assert rep.chi == 2
        assert not rep.is_vertex_critical
        assert not rep.is_edge_critical

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            criticality(SimpleGraph(0))

    def test_single_edge_is_edge_critical(self):
        rep = criticality(path(2))
        assert rep.chi == 2
        assert rep.is_edge_critical
