"""Subgraph containment, disjoint families, and the through-vertex check."""

import random

import pytest

from helpers import random_graph
from turanlab import (
    ForbiddenFamily,
    SimpleGraph,
    best_feasible_wheel_graph,
    complete,
    complete_multipartite,
    contains_disjoint_family,
    contains_disjoint_family_through,
    contains_subgraph,
    cycle,
    disjoint_union,
    embedding_is_valid,
    is_free,
    join,
    path,
    turan,
    wheel,
)
from turanlab.containment import (
    PLAN_CACHE_SIZE,
    _iter_embeddings,
    _plans,
)


class TestContainsSubgraph:
    def test_triangle_in_complete(self):
        emb = contains_subgraph(complete(5), complete(3))
        assert type(emb) is tuple
        assert embedding_is_valid(complete(5), complete(3), emb)
        # not injective, off the host, and too short
        for m in ((0, 0, 1), (0, 1, 7), (0, 1)):
            assert not embedding_is_valid(complete(4), complete(3), m)

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

    def test_union_follows_family_order(self):
        pats = [complete(3), wheel(7)]
        fam = ForbiddenFamily(pats)
        assert fam.union == disjoint_union(pats)
        assert len(fam) == 2
        # the witness is sliced back into the members' blocks in family order
        host = disjoint_union([wheel(7), complete(3)])
        found = contains_disjoint_family(host, fam)
        assert [len(emb) for emb in found] == [3, 7]
        assert all(embedding_is_valid(host, p, emb) for p, emb in zip(pats, found))

    def test_order_is_significant(self):
        fam = ForbiddenFamily([complete(3), complete(4)])
        assert fam[0] == complete(3)
        assert fam[1] == complete(4)
        assert repr(fam) == (
            "ForbiddenFamily([SimpleGraph(n=3, e=3), SimpleGraph(n=4, e=6)])"
        )

    def test_compares_by_value_in_order(self):
        fam = ForbiddenFamily([complete(3), complete(4)])
        same = ForbiddenFamily([complete(3), complete(4)])
        assert fam == same and hash(fam) == hash(same)
        assert fam != ForbiddenFamily([complete(4), complete(3)])
        # a family is the tuple of its patterns
        assert isinstance(fam, tuple)
        assert fam == (complete(3), complete(4))
        assert {fam: 1}[same] == 1


class TestDisjointFamily:
    def test_two_triangles(self):
        host = disjoint_union([complete(3), complete(3)])
        fam = ForbiddenFamily([complete(3), complete(3)])
        found = contains_disjoint_family(host, fam)
        assert found is not None
        assert all(type(emb) is tuple for emb in found)
        used = set()
        for emb in found:
            assert not used & set(emb)
            used |= set(emb)

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


def _blow_up(rng: random.Random) -> SimpleGraph:
    """A random graph on 2..4 vertices with each vertex blown up into a
    block of 1..3 twins, independent or a clique, and each edge into a
    complete bipartite join: a host rich in both kinds of twins."""
    base = random_graph(rng, rng.randint(2, 4))
    blocks, start = [], 0
    for _ in range(base.n):
        size = rng.randint(1, 3)
        blocks.append(range(start, start + size))
        start += size
    edges = [(a, b) for u, v in base.edges() for a in blocks[u] for b in blocks[v]]
    for block in blocks:
        if rng.random() < 0.5:
            edges += [(a, b) for a in block for b in block if a < b]
    return SimpleGraph(start, edges)


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
                    assert not used & set(emb)
                    used |= set(emb)
            for v in range(host.n):
                through = _disjoint_choice(images, need=v)
                assert contains_disjoint_family_through(host, fam, v) == through
                outcomes.add((contained, through))
        # the sample reaches every possible pair of outcomes
        assert outcomes == {(False, False), (True, False), (True, True)}


def _edge_image(pattern: SimpleGraph, mapping) -> frozenset:
    return frozenset(frozenset((mapping[u], mapping[v])) for u, v in pattern.edges())


def _twin_swaps(hx) -> list[tuple[int, int]]:
    """The transpositions of twins in the networkx graph ``hx``: vertex
    pairs whose neighbourhoods are equal apart from each other."""
    return [
        (a, b)
        for a in hx
        for b in hx
        if a < b and set(hx[a]) - {b} == set(hx[b]) - {a}
    ]


def _swap_closure(copies, swaps) -> set:
    """Every image of the edge images ``copies`` under the ``swaps``."""
    seen, todo = set(copies), list(copies)
    while todo:
        img = todo.pop()
        for a, b in swaps:
            moved = {a: b, b: a}
            out = frozenset(frozenset(moved.get(x, x) for x in e) for e in img)
            if out not in seen:
                seen.add(out)
                todo.append(out)
    return seen


class TestOneEmbeddingPerCopy:
    """The search yields one embedding per copy (automorphism class of
    embeddings) up to swapping host twins, checked against networkx
    monomorphisms and automorphisms."""

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
        copies = twin_free = 0
        for _ in range(100):
            pat = rng.choice(self.PATTERNS)
            host = random_graph(
                rng, rng.randint(pat.n, 10), p=rng.choice([0.3, 0.5, 0.7])
            )
            autos = list(GraphMatcher(_to_nx(pat), _to_nx(pat)).isomorphisms_iter())
            orbit_min = {min(a[v] for a in autos) for v in range(pat.n)}
            reps = tuple(plan.order[0] for plan in _plans(pat, True))
            assert reps == tuple(sorted(orbit_min))
            hx = _to_nx(host)
            matcher = GraphMatcher(hx, _to_nx(pat))
            monos = [
                {v: u for u, v in m.items()}
                for m in matcher.subgraph_monomorphisms_iter()
            ]
            want = {_edge_image(pat, m) for m in monos}
            got = [_edge_image(pat, m) for m in _iter_embeddings(host, pat)]
            assert len(got) == len(set(got))
            swaps = _twin_swaps(hx)
            assert set(got) <= want
            assert _swap_closure(got, swaps) == want
            if not swaps:
                # no twins: exactly one embedding per copy
                assert set(got) == want
                assert len(got) * len(autos) == len(monos)
                twin_free += 1
            copies += len(got)
            for v in range(host.n):
                through = [_edge_image(pat, m) for m in _iter_embeddings(host, pat, v)]
                want_v = {img for img in want if any(v in e for e in img)}
                assert len(through) == len(set(through))
                assert set(through) <= want_v
                fixing_v = [swap for swap in swaps if v not in swap]
                assert _swap_closure(through, fixing_v) == want_v
        assert copies > 1000  # the sample is not mostly empty
        assert twin_free >= 40  # and often twin-free

    def test_witness_is_least_on_twin_rich_hosts(self):
        pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher

        rng = random.Random(59)
        small = [complete(3), cycle(4), cycle(5), wheel(5), path(4), complete(4)]
        cases = [(_blow_up(rng), small) for _ in range(20)]
        cases += [
            (join([complete(s), SimpleGraph(t)]), small)
            for s in (1, 2, 3)
            for t in (2, 4, 6)
        ]
        wheels = [complete(3), cycle(4), wheel(5), wheel(7)]
        cases += [(best_feasible_wheel_graph(n, 3), wheels) for n in range(6, 15)]
        for host, patterns in cases:
            hx = _to_nx(host)
            for pat in patterns:
                (plan,) = _plans(pat, False)
                monos = [
                    {v: u for u, v in m.items()}
                    for m in GraphMatcher(hx, _to_nx(pat)).subgraph_monomorphisms_iter()
                ]
                # the lex-least, in slot order, of the pair-respecting embeddings
                least = min(
                    (
                        tuple(m[v] for v in plan.order)
                        for m in monos
                        if all(
                            m[plan.order[j]] > m[v]
                            for v, up in zip(plan.order, plan.above)
                            for j in up
                        )
                    ),
                    default=None,
                )
                emb = contains_subgraph(host, pat)
                assert least == (
                    None if emb is None else tuple(emb[v] for v in plan.order)
                )
                # vertex sets of the copies, and those disjoint from another
                sets = {sum(1 << u for u in m.values()) for m in monos}
                pairs = {a for a in sets if any(not a & b for b in sets)}
                for v in range(host.n):
                    assert contains_disjoint_family_through(host, [pat], v) == any(
                        a >> v & 1 for a in sets
                    )
                    assert contains_disjoint_family_through(host, [pat, pat], v) == any(
                        a >> v & 1 for a in pairs
                    )

    def test_symmetric_pattern_in_itself(self):
        k30 = complete(30)
        emb = contains_subgraph(k30, k30)
        assert emb is not None and embedding_is_valid(k30, k30, emb)
        # one orbit, so one pinned plan; the chain from Stab(pin) orders the
        # other 29 vertices: C(29, 2) pairs
        (plan,) = _plans(k30, True)
        assert plan.order[0] == 0
        assert sum(map(len, plan.above)) == 29 * 28 // 2
        info = _plans.cache_info()
        assert info.maxsize == PLAN_CACHE_SIZE
        assert info.currsize <= PLAN_CACHE_SIZE


class TestPinnedSlots:
    def test_pins_component_then_family_order(self):
        # a pinned plan maps the pin's whole component first, then the other
        # members' blocks in family order, so an image of the pin that its
        # component cannot map onto fails before any other member is searched
        k3, c5, w5, w7 = complete(3), cycle(5), wheel(5), wheel(7)
        for members in ([k3, c5], [c5, k3], [w7, w5], [w5, k3, c5]):
            fam = ForbiddenFamily(members)
            block = [i for i, p in enumerate(fam) for _ in range(p.n)]
            for plan in _plans(fam.union, True):
                home = block[plan.order[0]]
                expect = sorted(block, key=lambda b: (b != home, b))
                assert [block[v] for v in plan.order] == expect, (members, plan)


class TestStabilizerChain:
    """Each plan's lex-leader pairs are the orbits of its stabilizer chain,
    checked against networkx automorphisms on twin-rich patterns: the
    self-embedding searches that find the orbits run with the twin rule on."""

    PATTERNS = [
        complete(5),
        cycle(4),
        wheel(5),
        wheel(7),
        complete_multipartite([2, 3]),
        complete_multipartite([3, 3]),
        complete_multipartite([1, 4]),
        disjoint_union([complete(3), complete(3)]),
        disjoint_union([cycle(5), cycle(5)]),
        disjoint_union([wheel(7), wheel(5)]),
    ]

    def test_chain_orbits_against_networkx(self):
        pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher

        for pat in self.PATTERNS:
            autos = list(GraphMatcher(_to_nx(pat), _to_nx(pat)).isomorphisms_iter())
            for pinned in (False, True):
                for plan in _plans(pat, pinned):
                    order, above = plan.order, plan.above
                    for i, v in enumerate(order):
                        if pinned and i == 0:
                            assert above[0] == ()
                            continue
                        orbit = {
                            a[v] for a in autos if all(a[x] == x for x in order[:i])
                        }
                        assert {order[j] for j in above[i]} | {v} == orbit, (pat, i)
