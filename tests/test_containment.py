"""Subgraph containment, disjoint families, and the through-vertex check."""

import random

import pytest

from helpers import random_graph
from turanlab import (
    Embedding,
    ForbiddenFamily,
    SimpleGraph,
    complete,
    complete_multipartite,
    contains_disjoint_family,
    contains_disjoint_family_through,
    contains_subgraph,
    cycle,
    disjoint_union,
    embedding_is_valid,
    is_free,
    path,
    turan,
    wheel,
)
from turanlab.containment import (
    PLAN_CACHE_SIZE,
    _iter_embeddings,
    _orbit_representatives,
    _plan,
)


class TestContainsSubgraph:
    def test_triangle_in_complete(self):
        emb = contains_subgraph(complete(5), complete(3))
        assert emb is not None
        assert embedding_is_valid(complete(5), complete(3), emb)

    def test_triangle_not_in_bipartite(self):
        assert contains_subgraph(turan(8, 2), complete(3)) is None

    def test_subgraph_not_induced(self):
        # C_4 sits inside K_4 as a non-induced subgraph
        assert contains_subgraph(complete(4), cycle(4)) is not None

    def test_pattern_larger_than_host(self):
        assert contains_subgraph(complete(3), complete(4)) is None

    def test_wheel_in_itself_and_supergraph(self):
        assert contains_subgraph(wheel(7), wheel(7)) is not None
        assert contains_subgraph(complete(7), wheel(7)) is not None

    def test_found_embeddings_are_valid(self):
        rng = random.Random(23)
        patterns = [complete(3), path(4), cycle(4), cycle(5)]
        for _ in range(50):
            host = random_graph(rng, rng.randint(4, 8))
            for pat in patterns:
                emb = contains_subgraph(host, pat)
                if emb is not None:
                    assert embedding_is_valid(host, pat, emb)


class TestForbiddenFamily:
    def test_validates_patterns(self):
        with pytest.raises(ValueError):
            ForbiddenFamily([])
        with pytest.raises(ValueError):
            ForbiddenFamily([SimpleGraph(0)])

    def test_total_order_and_chromatic(self):
        fam = ForbiddenFamily([wheel(7), complete(3)])
        assert fam.total_order == 10
        assert fam.chromatic_numbers == (3, 3)
        assert fam.min_chromatic == 3
        assert len(fam) == 2

    def test_order_is_significant(self):
        fam = ForbiddenFamily([complete(3), complete(4)])
        assert fam[0] == complete(3)
        assert fam[1] == complete(4)


class TestDisjointFamily:
    def test_two_triangles(self):
        host = disjoint_union([complete(3), complete(3)])
        fam = ForbiddenFamily([complete(3), complete(3)])
        found = contains_disjoint_family(host, fam)
        assert found is not None
        used = set()
        for emb in found:
            assert not used & emb.vertex_set()
            used |= emb.vertex_set()

    def test_overlap_not_allowed(self):
        # K_4 holds many triangles but no two vertex-disjoint ones
        fam = ForbiddenFamily([complete(3), complete(3)])
        assert contains_disjoint_family(complete(4), fam) is None
        assert is_free(complete(4), fam)

    def test_single_pattern_family(self):
        assert contains_disjoint_family(complete(4), [complete(3)]) is not None

    def test_total_order_exceeds_host(self):
        fam = ForbiddenFamily([complete(3), complete(3)])
        assert contains_disjoint_family(complete(5), fam) is None
        for v in range(5):
            assert not contains_disjoint_family_through(complete(5), fam, v)


class TestThroughVertex:
    def test_requires_the_vertex(self):
        # one triangle at vertices 3,4,5 of K_3 + K_3; vertex 0 in the other
        host = disjoint_union([complete(3), complete(3)])
        fam = ForbiddenFamily([complete(3), complete(3)])
        assert contains_disjoint_family_through(host, fam, 0)

    def test_false_when_vertex_uninvolved(self):
        # apex + triangle + isolated vertex: family needs the apex's triangle
        host = SimpleGraph(5, [(0, 1), (1, 2), (0, 2)])
        fam = ForbiddenFamily([complete(3)])
        assert contains_disjoint_family_through(host, fam, 1)
        assert not contains_disjoint_family_through(host, fam, 4)

    def test_vertex_out_of_range(self):
        fam = ForbiddenFamily([complete(3)])
        for v in (99, -1):
            with pytest.raises(ValueError, match=rf"vertex {v} .* order 5"):
                contains_disjoint_family_through(complete(5), fam, v)

    def test_agrees_with_unrestricted_search_on_free_parents(self):
        # when host minus the vertex is free, the through check decides
        # containment outright
        rng = random.Random(29)
        fam = ForbiddenFamily([complete(3)])
        hits = 0
        for _ in range(100):
            g = random_graph(rng, 6, p=0.35)
            v = 5
            if not is_free(g.without_vertex(v), fam):
                continue
            got = contains_disjoint_family_through(g, fam, v)
            want = contains_disjoint_family(g, fam) is not None
            assert got == want
            hits += got
        assert hits  # the sample exercises both outcomes


def _disjoint_choice(images, need=None, used=frozenset()) -> bool:
    """True when one vertex set can be taken from each list, pairwise
    disjoint, with ``need`` (when given) covered by one of them."""
    if not images:
        return need is None
    return any(
        _disjoint_choice(images[1:], None if need in s else need, used | s)
        for s in images[0]
        if not used & s
    )


def _to_nx(g: SimpleGraph):
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


class TestAgainstNetworkx:
    """Seeded differential check against networkx monomorphisms, a reference
    that shares no code with the search under test."""

    def test_random_hosts_and_families(self):
        pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher

        pool = [
            complete(3),
            path(3),
            cycle(4),
            cycle(5),
            wheel(5),
            complete(4),
            complete(1),
            disjoint_union([complete(2), complete(2)]),
        ]
        rng = random.Random(47)
        outcomes = set()
        for _ in range(150):
            host = random_graph(rng, rng.randint(3, 8), p=rng.choice([0.3, 0.5, 0.7]))
            # repeated patterns are drawn often: Aut(union) swaps them
            fam = [rng.choice(pool)]
            for _ in range(rng.randint(0, 2)):
                fam.append(fam[-1] if rng.random() < 0.5 else rng.choice(pool))
            hx = _to_nx(host)
            # the image vertex sets of each pattern in the host
            images_of = {
                pat: {
                    frozenset(m)
                    for m in GraphMatcher(hx, _to_nx(pat)).subgraph_monomorphisms_iter()
                }
                for pat in set(fam)
            }
            images = [list(images_of[pat]) for pat in fam]
            contained = _disjoint_choice(images)
            assert is_free(host, fam) == (not contained)
            found = contains_disjoint_family(host, fam)
            if found is not None:
                assert len(found) == len(fam)
                used = set()
                for pat, emb in zip(fam, found):
                    assert embedding_is_valid(host, pat, emb)
                    assert not used & emb.vertex_set()
                    used |= emb.vertex_set()
            for v in range(host.n):
                through = _disjoint_choice(images, need=v)
                assert contains_disjoint_family_through(host, fam, v) == through
                outcomes.add((contained, through))
        # the sample reaches every possible pair of outcomes
        assert outcomes == {(False, False), (True, False), (True, True)}


def _edge_image(pattern: SimpleGraph, mapping) -> frozenset:
    return frozenset(frozenset((mapping[u], mapping[v])) for u, v in pattern.edges())


class TestOneEmbeddingPerCopy:
    """The search yields one embedding per copy (automorphism class of
    embeddings), checked against networkx monomorphisms and automorphisms."""

    PATTERNS = [
        complete(3),
        complete(4),
        cycle(4),
        cycle(5),
        cycle(6),
        wheel(5),
        wheel(7),
        path(4),
        complete_multipartite([2, 3]),
        complete_multipartite([2, 2, 2]),
        disjoint_union([complete(2), complete(2)]),
        complete_multipartite([1, 4]),
        disjoint_union([complete(3), complete(3)]),
    ]

    def test_copies_against_networkx(self):
        pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher

        rng = random.Random(53)
        copies = 0
        for _ in range(100):
            pat = rng.choice(self.PATTERNS)
            host = random_graph(
                rng, rng.randint(pat.n, 10), p=rng.choice([0.3, 0.5, 0.7])
            )
            autos = list(GraphMatcher(_to_nx(pat), _to_nx(pat)).isomorphisms_iter())
            orbit_min = {min(a[v] for a in autos) for v in range(pat.n)}
            assert _orbit_representatives(pat) == tuple(sorted(orbit_min))
            matcher = GraphMatcher(_to_nx(host), _to_nx(pat))
            monos = [
                {v: u for u, v in m.items()}
                for m in matcher.subgraph_monomorphisms_iter()
            ]
            want = {_edge_image(pat, m) for m in monos}
            got = [_edge_image(pat, m) for m in _iter_embeddings(host, pat)]
            assert len(got) == len(set(got))
            assert set(got) == want
            assert len(got) * len(autos) == len(monos)
            copies += len(got)
            for v in range(host.n):
                through = [_edge_image(pat, m) for m in _iter_embeddings(host, pat, v)]
                assert len(through) == len(set(through))
                assert set(through) == {
                    img for img in want if any(v in e for e in img)
                }
        assert copies > 1000  # the sample is not mostly empty

    def test_symmetric_pattern_in_itself(self):
        k30 = complete(30)
        emb = contains_subgraph(k30, k30)
        assert emb is not None and embedding_is_valid(k30, k30, emb)
        assert _orbit_representatives(k30) == (0,)
        # the chain from Stab(pin) orders the other 29 vertices: C(29, 2) pairs
        for pin in range(30):
            assert sum(map(len, _plan(k30, pin).above)) == 29 * 28 // 2
        info = _plan.cache_info()
        assert info.maxsize == PLAN_CACHE_SIZE
        assert info.currsize <= PLAN_CACHE_SIZE
