"""Unit tests for the bitset graph core and standard builders."""

import random

import pytest

from helpers import random_graph
from turanlab import (
    SimpleGraph,
    complete,
    complete_multipartite,
    cycle,
    disjoint_union,
    empty_graph,
    join,
    path,
    turan,
    turan_edge_count,
    wheel,
)


class TestSimpleGraph:
    def test_empty(self):
        g = SimpleGraph(4)
        assert g.n == 4
        assert g.edge_count == 0
        assert g.edges() == []

    def test_edge_basics(self):
        g = SimpleGraph(3, [(0, 1), (1, 2)])
        assert g.edge_count == 2
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert g.degrees() == (1, 2, 1)

    def test_rejects_loops_and_bad_vertices(self):
        with pytest.raises(ValueError):
            SimpleGraph(3, [(1, 1)])
        with pytest.raises(ValueError):
            SimpleGraph(3, [(0, 3)])

    def test_duplicate_edges_collapse(self):
        g = SimpleGraph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_edges_lexicographic(self):
        g = SimpleGraph(4, [(2, 3), (0, 2), (0, 1)])
        assert g.edges() == [(0, 1), (0, 2), (2, 3)]

    def test_non_edges_partition_pairs(self):
        g = SimpleGraph(5, [(0, 1), (2, 4)])
        pairs = {(i, j) for j in range(5) for i in range(j)}
        assert set(g.edges()) | set(g.non_edges()) == pairs
        assert not set(g.edges()) & set(g.non_edges())

    def test_relabel_roundtrip(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(1, 8)
            g = random_graph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            inverse = [0] * n
            for i, p in enumerate(perm):
                inverse[p] = i
            assert g.relabel(perm).relabel(inverse) == g

    def test_relabel_validates_permutation(self):
        g = SimpleGraph(3, [(0, 1)])
        with pytest.raises(ValueError):
            g.relabel([0, 0, 1])

    def test_induced_subgraph(self):
        g = cycle(5)
        h = g.induced([0, 1, 2])
        assert h.n == 3
        assert h.edges() == [(0, 1), (1, 2)]
        for keep, bad in (([-1, 0], -1), ([0, 3], 3), ([5], 5)):
            with pytest.raises(ValueError, match=f"vertex {bad}"):
                path(3).induced(keep)

    def test_without_vertex(self):
        g = complete(4)
        h = g.without_vertex(2)
        assert h == complete(3)
        for v in (7, 3, -1):
            with pytest.raises(ValueError, match=f"vertex {v}"):
                path(3).without_vertex(v)

    def test_with_edge_is_functional(self):
        g = SimpleGraph(3)
        h = g.with_edge(0, 2)
        assert g.edge_count == 0
        assert h.has_edge(0, 2)
        assert h.without_edge(0, 2) == g
        for u, v, bad in ((-1, 2, -1), (0, 3, 3)):
            with pytest.raises(ValueError, match=f"vertex {bad}"):
                h.without_edge(u, v)


class TestBuilders:
    def test_complete(self):
        for n in range(1, 7):
            g = complete(n)
            assert g.edge_count == n * (n - 1) // 2

    def test_path_and_cycle(self):
        assert path(1).edge_count == 0
        assert path(5).edge_count == 4
        assert cycle(5).edge_count == 5
        assert all(d == 2 for d in cycle(6).degrees())

    def test_wheel_shape(self):
        # hub 0 sees everyone; rim vertices have degree 3
        g = wheel(7)
        assert g.degrees() == (6, 3, 3, 3, 3, 3, 3)
        assert g.edge_count == 12

    def test_wheel_small_is_complete(self):
        assert wheel(4) == complete(4)

    def test_complete_multipartite(self):
        g = complete_multipartite([2, 3])
        assert g.edge_count == 6
        assert not g.has_edge(0, 1)
        assert g.has_edge(0, 2)

    def test_turan_matches_edge_count_formula(self):
        for n in range(0, 15):
            for r in range(1, 5):
                assert turan(n, r).edge_count == turan_edge_count(n, r)

    def test_turan_one_part_is_empty(self):
        assert turan(5, 1).edge_count == 0

    def test_turan_edge_count_matches_pair_sum(self):
        for n in range(41):
            for r in range(1, 46):
                q, rem = divmod(n, r)
                sizes = [q + 1] * rem + [q] * (r - rem)
                want = 0
                for i in range(r):
                    for j in range(i + 1, r):
                        want += sizes[i] * sizes[j]
                assert turan_edge_count(n, r) == want, (n, r)

    def test_turan_with_more_parts_than_vertices(self):
        assert turan_edge_count(5, 10**12) == 10
        assert turan(5, 10**12) == complete(5)


class TestCombinators:
    def test_disjoint_union_blocks(self):
        g = disjoint_union([complete(3), complete(2)])
        assert g.n == 5
        assert g.edge_count == 4
        assert not g.has_edge(2, 3)

    def test_join_edge_count(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 6))
            h = random_graph(rng, rng.randint(1, 6))
            j = join([g, h])
            assert j.edge_count == g.edge_count + h.edge_count + g.n * h.n

    def test_join_of_empties_is_multipartite(self):
        j = join([empty_graph(2), empty_graph(3), empty_graph(2)])
        assert j == complete_multipartite([2, 3, 2])
