"""Partition diagnostics, degree audits, and layered-shape audits."""

import json
import random

import pytest

from helpers import random_graph
from turanlab import (
    ForbiddenFamily,
    SimpleGraph,
    complete,
    cycle,
    disjoint_union,
    dominating_clique,
    is_vertex_move_optimal,
    join,
    min_degree_audit,
    min_internal_partition,
    structure_audit,
    turan,
    turan_edge_count,
    w_set,
    wheel,
)
from turanlab.stability import EXACT_CAP, _internal_edges, _layout, _local_search


class TestMinInternalPartition:
    def test_multipartite_reaches_zero(self):
        diag = min_internal_partition(turan(9, 3), 3)
        assert diag.internal_edges == 0
        assert diag.mode == "exact"

    def test_odd_cycle_needs_one(self):
        assert min_internal_partition(cycle(5), 2).internal_edges == 1

    def test_parts_beyond_the_order_are_empty_and_first(self):
        # the DP splits into n singletons; the other r - n parts lead, empty
        for g, r in ((cycle(5), 8), (complete(3), 3), (SimpleGraph(0), 2)):
            diag = min_internal_partition(g, r)
            singletons = tuple((v,) for v in reversed(range(g.n)))
            assert diag.parts == ((),) * (r - g.n) + singletons
            assert diag.internal_edges == 0
        # r far above n costs no more DP levels than r = n
        diag = min_internal_partition(cycle(10), 1000)
        assert diag.parts[:990] == ((),) * 990 and diag.internal_edges == 0

    def test_clique_floor(self):
        # K_4 in two parts keeps at least two inside edges
        assert min_internal_partition(complete(4), 2).internal_edges == 2

    def test_parts_cover_and_are_disjoint(self):
        rng = random.Random(41)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 10))
            diag = min_internal_partition(g, 3)
            seen = sorted(v for part in diag.parts for v in part)
            assert seen == list(range(g.n))
        with pytest.raises(ValueError, match="need r >= 2, got r=1"):
            min_internal_partition(cycle(5), 1)
        for theta in (0.0, 1.0):
            with pytest.raises(ValueError, match="theta must lie in"):
                min_internal_partition(cycle(5), 2, theta=theta)

    def test_local_search_matches_exact_on_small_graphs(self):
        rng = random.Random(43)
        for s in range(30):
            g = random_graph(rng, rng.randint(3, 10))
            exact = min_internal_partition(g, 2)
            local = _local_search(g, 2, s)
            assert _internal_edges(g, local) == exact.internal_edges
            assert is_vertex_move_optimal(g, _layout(g, local))

    def test_local_search_is_deterministic(self):
        g = random_graph(random.Random(47), 12)
        assert _local_search(g, 3, 9) == _local_search(g, 3, 9)

    def test_order_picks_the_method(self):
        rng = random.Random(53)
        at_cap = min_internal_partition(random_graph(rng, EXACT_CAP), 2)
        assert at_cap.mode == "exact"
        g = random_graph(rng, EXACT_CAP + 1)
        a = min_internal_partition(g, 2)
        assert a.mode == "local-search"
        assert min_internal_partition(g, 2).parts == a.parts
        assert is_vertex_move_optimal(g, a.parts)
        # every vertex of K3 would leave the full part for the empty one
        assert not is_vertex_move_optimal(complete(3), [(0, 1, 2), ()])

    def test_json_shape(self):
        diag = min_internal_partition(cycle(5), 2)
        doc = diag.to_json_dict()
        assert doc["schema"] == "partition-diagnostics/1"
        assert json.loads(diag.to_json()) == doc


class TestWSet:
    def test_high_degree_vertices_only(self):
        # the hub of a large star is the only vertex near degree n
        g = join([complete(1), SimpleGraph(9)])
        assert w_set(g, (tuple(range(10)),), 0.5) == (0,)

    def test_threshold_selects_the_apex(self):
        # over the minimum partition only the dominating vertex keeps
        # theta * n neighbors inside its own part
        g = join([complete(1), disjoint_union([complete(3), complete(3)])])
        diag = min_internal_partition(g, 2, theta=0.2)
        assert diag.internal_edges == 4
        assert diag.w_set == (0,)
        # a looser threshold admits every vertex
        loose = min_internal_partition(g, 2, theta=0.1)
        assert loose.w_set == tuple(range(7))

    def test_theta_range_validated(self):
        g = complete(3)
        with pytest.raises(ValueError):
            w_set(g, (tuple(range(3)),), 0.0)
        with pytest.raises(ValueError):
            w_set(g, (tuple(range(3)),), 1.0)
        # the parts are validated too, as they are by is_vertex_move_optimal
        for parts, message in (
            (((0, 1), (2, 3)), "vertex 3 out of range for n=3"),
            (((0, 1), (1, 2)), "parts overlap"),
            (((0,), (2,)), "parts do not cover the vertex set"),
        ):
            with pytest.raises(ValueError, match=message):
                w_set(g, parts, 0.5)
            with pytest.raises(ValueError, match=message):
                is_vertex_move_optimal(g, parts)


class TestMinDegreeAudit:
    def test_turan_graph_passes(self):
        assert min_degree_audit(turan(12, 3), 3, 0.1)

    def test_sparse_graph_fails(self):
        assert not min_degree_audit(cycle(12), 3, 0.1)
        for args, message in (
            ((SimpleGraph(0), 3, 0.1), "at least one vertex"),
            ((cycle(12), 0, 0.1), "need r >= 1, got r=0"),
            ((cycle(12), 3, 1.5), "theta must lie in"),
        ):
            with pytest.raises(ValueError, match=message):
                min_degree_audit(*args)


class TestDominatingClique:
    def test_join_produces_universal_vertices(self):
        g = join([complete(2), cycle(5)])
        assert dominating_clique(g) == (0, 1)

    def test_no_universal_vertices(self):
        assert dominating_clique(turan(6, 2)) == ()

    def test_complete_graph_is_all_vertices(self):
        assert dominating_clique(complete(4)) == (0, 1, 2, 3)


class TestStructureAudit:
    def footer_provider(self, m, ell):
        return turan_edge_count(m, 2)

    def test_layered_extremal_graph_passes(self):
        g = join([complete(1), turan(8, 2)])
        fam = ForbiddenFamily([complete(3), complete(3)])
        audit = structure_audit(g, fam, self.footer_provider)
        assert audit.q == 1
        assert audit.ell == 2
        assert audit.ell_in_range
        assert audit.shape_ok
        assert audit.inner_free
        assert audit.inner_edges == audit.expected_inner_edges == 16
        assert audit.passed

    def test_plain_turan_graph_passes_at_first_layer(self):
        fam = ForbiddenFamily([complete(3), complete(3)])
        audit = structure_audit(turan(9, 2), fam, self.footer_provider)
        assert audit.q == 0
        assert audit.ell == 1
        assert audit.passed

    def test_edge_deficit_fails(self):
        g = join([complete(1), turan(8, 2).without_edge(1, 5)])
        fam = ForbiddenFamily([complete(3), complete(3)])
        audit = structure_audit(g, fam, self.footer_provider)
        assert audit.shape_ok
        assert not audit.passed

    def test_too_many_layers_flagged(self):
        # two universal vertices but a two-member family: every triangle
        # crosses both universal vertices, so the graph stays free while
        # the layer index overshoots
        fam = ForbiddenFamily([complete(3), complete(3)])
        g = join([complete(2), SimpleGraph(5)])
        audit = structure_audit(g, fam, self.footer_provider)
        assert audit.q == 2
        assert not audit.ell_in_range
        assert not audit.passed

    def test_rejects_non_free_graph(self):
        fam = ForbiddenFamily([complete(3)])
        with pytest.raises(ValueError):
            structure_audit(complete(3), fam, self.footer_provider)

    def test_json_shape(self):
        fam = ForbiddenFamily([complete(3), complete(3)])
        audit = structure_audit(turan(9, 2), fam, self.footer_provider)
        doc = audit.to_json_dict()
        assert doc["schema"] == "structure-audit/1"
        assert json.loads(audit.to_json()) == doc
