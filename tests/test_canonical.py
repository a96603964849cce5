"""Canonical certificate and isomorphism tests."""

import random

import pytest

from turanlab import (
    SimpleGraph,
    canonical_form,
    certificate,
    complete,
    complete_multipartite,
    cycle,
    disjoint_union,
    is_isomorphic,
    path,
    turan,
    wheel,
)
from turanlab.canonical import _refine


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> SimpleGraph:
    edges = [(i, j) for j in range(1, n) for i in range(j) if rng.random() < p]
    return SimpleGraph(n, edges)


def atlas_graphs() -> list[SimpleGraph]:
    """All 1253 graphs on at most 7 vertices, from the networkx atlas."""
    nx = pytest.importorskip("networkx")
    return [
        SimpleGraph(h.number_of_nodes(), h.edges()) for h in nx.graph_atlas_g()
    ]


def degree_partition(g: SimpleGraph) -> list[tuple[int, ...]]:
    by_degree: dict[int, list[int]] = {}
    for v in range(g.n):
        by_degree.setdefault(g.degree(v), []).append(v)
    return [tuple(by_degree[d]) for d in sorted(by_degree)]


def is_equitable(g: SimpleGraph, cells: list[tuple[int, ...]]) -> bool:
    """Every vertex of a cell has the same neighbor count in every cell."""
    for other in cells:
        mask = sum(1 << v for v in other)
        for cell in cells:
            if len({(g.adj[v] & mask).bit_count() for v in cell}) > 1:
                return False
    return True


class TestCertificate:
    def test_invariant_under_relabeling(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(1, 9)
            g = random_graph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            assert certificate(g.relabel(perm)) == certificate(g)

    def test_separates_same_degree_sequence(self):
        # both 2-regular on 6 vertices
        assert certificate(cycle(6)) != certificate(
            disjoint_union([complete(3), complete(3)])
        )
        # both 3-regular on 6 vertices: K_{3,3} vs the prism
        prism = SimpleGraph(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
        )
        assert certificate(complete_multipartite([3, 3])) != certificate(prism)

    def test_distinct_orders_distinct(self):
        assert certificate(SimpleGraph(3)) != certificate(SimpleGraph(4))


def unpack_certificate(cert: bytes) -> SimpleGraph:
    """The graph whose row-major upper triangle the certificate packs."""
    n = int.from_bytes(cert[:4], "big")
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    body = int.from_bytes(cert[4:], "big")
    width = 8 * (len(cert) - 4)
    return SimpleGraph(
        n, [pq for i, pq in enumerate(pairs) if body >> (width - 1 - i) & 1]
    )


class TestCanonicalForm:
    def test_atlas_graphs_and_relabelings(self):
        rng = random.Random(29)
        graphs = atlas_graphs()
        graphs += [random_graph(rng, rng.randint(8, 11)) for _ in range(100)]
        for g in graphs:
            cert, h = canonical_form(g)
            assert cert == certificate(g)
            assert h == unpack_certificate(cert)
            assert h.edge_count == g.edge_count
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(g.relabel(perm)) == (cert, h)


class TestIsIsomorphic:
    def test_positive_pairs(self):
        assert is_isomorphic(turan(6, 3), complete_multipartite([2, 2, 2]))
        assert is_isomorphic(wheel(4), complete(4))
        g = cycle(7)
        assert is_isomorphic(g, g.relabel([3, 5, 0, 6, 1, 4, 2]))

    def test_negative_pairs(self):
        assert not is_isomorphic(path(4), cycle(4))
        assert not is_isomorphic(cycle(6), disjoint_union([complete(3), complete(3)]))

    def test_random_relabelings(self):
        rng = random.Random(17)
        for _ in range(50):
            n = rng.randint(1, 8)
            g = random_graph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            assert is_isomorphic(g, g.relabel(perm))

    def test_edge_flip_breaks_isomorphism(self):
        g = path(5)
        h = g.without_edge(0, 1).with_edge(0, 2)
        # rewiring one endpoint changes the degree sequence
        assert not is_isomorphic(g, h)


class TestAtlas:
    def test_certificates_separate_every_atlas_graph(self):
        rng = random.Random(3)
        graphs = atlas_graphs()
        assert len(graphs) == 1253
        certs = [certificate(g) for g in graphs]
        assert len(set(certs)) == len(graphs)
        relabeled = []
        for g in graphs:
            perm = list(range(g.n))
            rng.shuffle(perm)
            relabeled.append(certificate(g.relabel(perm)))
        assert relabeled == certs

    def test_refine_is_equitable(self):
        rng = random.Random(23)
        graphs = atlas_graphs()
        graphs += [random_graph(rng, rng.randint(1, 10)) for _ in range(300)]
        for g in graphs:
            start = degree_partition(g)
            cells = _refine(g.adj, start)
            assert sorted(v for c in cells for v in c) == list(range(g.n))
            assert is_equitable(g, cells)
            # individualizing a vertex, as the certificate search does
            if g.n > 1:
                v = rng.randrange(g.n)
                pinned = [(v,)] + [tuple(u for u in c if u != v) for c in start]
                cells = _refine(g.adj, [c for c in pinned if c])
                assert is_equitable(g, cells)
