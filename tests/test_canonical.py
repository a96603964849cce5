"""Canonical certificate and isomorphism tests."""

import hashlib
import random
from itertools import islice

import pytest

from helpers import random_graph
from turanlab import (
    SimpleGraph,
    brute_force_ex,
    canonical_form,
    certificate,
    complete,
    complete_multipartite,
    cycle,
    disjoint_union,
    is_isomorphic,
    join,
    path,
    turan,
    wheel,
)
from turanlab import canonical
from turanlab.canonical import _canonical_order, _refine, automorphisms


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


def mask(cell: tuple[int, ...]) -> int:
    return sum(1 << v for v in cell)


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

    def test_certificate_bytes_pinned(self):
        # computed at commit 5104833, before the search refined from the new
        # cells only, pruned by moved-point masks and backjumped: the pruning
        # must not move a single certificate byte
        rng = random.Random(41)
        graphs = atlas_graphs()
        graphs += [random_graph(rng, rng.randint(8, 11)) for _ in range(300)]
        digest = hashlib.sha256(b"".join(certificate(g) for g in graphs))
        assert digest.hexdigest() == (
            "5d87e9af0d8512d8687cada07d09dff132381cc6b6d85edbe05cef8802bccf84"
        )
        # and the first leaf that reaches each certificate
        orders = bytes(v for g in graphs for v in _canonical_order(g)[1])
        assert hashlib.sha256(orders).hexdigest() == (
            "f1c5a19f1c1f1a02555351898e69776d10410be39c2997e78518d8956b0a1009"
        )


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

    @pytest.mark.parametrize(
        "g",
        [
            complete(40),
            complete_multipartite([20, 20]),
            SimpleGraph(30),
            turan(30, 3),
            cycle(40),
        ],
        ids=["K40", "K20,20", "E30", "T30,3", "C40"],
    )
    def test_large_symmetric_graphs(self, g):
        # without the backjump to the parting node, K40 took about 100 s and
        # K20,20 about 26 s on a shared 2-vCPU Xeon guest
        cert, h = canonical_form(g)
        assert h == unpack_certificate(cert)
        perm = list(range(g.n))
        random.Random(g.n).shuffle(perm)
        assert canonical_form(g.relabel(perm)) == (cert, h)

    def test_empty_graph_levels(self):
        # every level of ex(20, K2) is one empty graph to certify
        assert brute_force_ex(20, [complete(2)], allow_large=True).ex_value == 0


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
            cells = _refine(g.adj, start, [mask(c) for c in start])
            assert sorted(v for c in cells for v in c) == list(range(g.n))
            assert is_equitable(g, cells)
            # the search's root: the unit partition refined against V gives
            # the degree partition's cells, in order
            if g.n >= 1:
                unit = _refine(g.adj, [tuple(range(g.n))], [(1 << g.n) - 1])
                assert unit == cells
            # a vertex pinned in front of the degree partition, which is not
            # equitable, so every cell is a splitter
            if g.n > 1:
                v = rng.randrange(g.n)
                pinned = [(v,)] + [tuple(u for u in c if u != v) for c in start]
                pinned = [c for c in pinned if c]
                cells = _refine(g.adj, pinned, [mask(c) for c in pinned])
                assert is_equitable(g, cells)

    def test_refine_from_new_cells_only(self):
        # below an equitable partition, individualizing v needs only {v} and
        # the rest of its cell as splitters, or the rest alone, and gives the
        # same ordered cells as every cell
        rng = random.Random(31)
        graphs = atlas_graphs()
        graphs += [random_graph(rng, rng.randint(8, 11)) for _ in range(100)]
        for g in graphs:
            start = degree_partition(g)
            root = _refine(g.adj, start, [mask(c) for c in start])
            for i, cell in enumerate(root):
                if len(cell) == 1:
                    continue
                for v in cell:
                    rest = tuple(u for u in cell if u != v)
                    child = root[:i] + [(v,), rest] + root[i + 1:]
                    every = _refine(g.adj, child, [mask(c) for c in child])
                    assert _refine(g.adj, child, [1 << v, mask(rest)]) == every
                    assert _refine(g.adj, child, [mask(rest)]) == every
                    assert is_equitable(g, every)


def mask_orbit_count(n: int, perms) -> int:
    """Orbits of the 2^n vertex masks under the group the perms generate."""
    parent = list(range(1 << n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for gamma in perms:
        for nb in range(1 << n):
            image = sum(1 << gamma[x] for x in range(n) if nb >> x & 1)
            parent[find(nb)] = find(image)
    return sum(1 for x in range(1 << n) if find(x) == x)


class TestAutomorphisms:
    def test_permutations_preserve_edges(self):
        rng = random.Random(43)
        graphs = atlas_graphs()
        graphs += [random_graph(rng, rng.randint(1, 11), 0.3) for _ in range(200)]
        graphs += [cycle(9), wheel(7), complete_multipartite([3, 3, 2])]
        for g in graphs:
            edges = {frozenset(e) for e in g.edges()}
            for gamma in automorphisms(g):
                assert sorted(gamma) == list(range(g.n))
                assert {frozenset((gamma[u], gamma[v])) for u, v in edges} == edges

    def test_mask_orbits_match_full_group(self):
        # every mask orbit under Aut(G) is one orbit of the group the found
        # automorphisms generate; Aut(G) comes from networkx, which shares
        # no code with the canonical search
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher

        for h in nx.graph_atlas_g()[:209]:  # n <= 6
            n = h.number_of_nodes()
            g = SimpleGraph(n, h.edges())
            full = [
                [iso[x] for x in range(n)]
                for iso in GraphMatcher(h, h).isomorphisms_iter()
            ]
            orbits = {
                min(sum(1 << gamma[x] for x in range(n) if nb >> x & 1)
                    for gamma in full)
                for nb in range(1 << n)
            }
            assert mask_orbit_count(n, automorphisms(g)) == len(orbits)

    def test_found_automorphisms_generate_the_full_group(self):
        # the group the found automorphisms generate, closed by breadth-first
        # search, has the order of Aut(G) counted by networkx
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher

        cap = 5040
        rng = random.Random(29)
        graphs = [
            random_graph(rng, rng.randint(7, 11), rng.choice([0.2, 0.3, 0.5, 0.7]))
            for _ in range(30)
        ]
        for h in (nx.petersen_graph(), nx.hypercube_graph(3)):
            h = nx.convert_node_labels_to_integers(h)
            graphs.append(SimpleGraph(h.number_of_nodes(), h.edges()))
        graphs += [
            cycle(8), cycle(9), wheel(7), wheel(9),
            complete_multipartite([3, 3]), complete_multipartite([2, 2, 2]),
            disjoint_union([cycle(4)] * 2), disjoint_union([complete(3)] * 3),
            disjoint_union([wheel(5)] * 2), disjoint_union([cycle(5)] * 2),
            complete(7), path(9), SimpleGraph(7),
        ]
        for g in graphs:
            h = nx.empty_graph(g.n)
            h.add_edges_from(g.edges())
            isos = GraphMatcher(h, h).isomorphisms_iter()
            count = sum(1 for _ in islice(isos, cap + 1))
            if count > cap:
                continue
            gens = automorphisms(g)
            group = {tuple(range(g.n))}
            queue = list(group)
            while queue:
                sigma = queue.pop()
                for gamma in gens:
                    tau = tuple(gamma[x] for x in sigma)
                    if tau not in group:
                        group.add(tau)
                        queue.append(tau)
            assert len(group) == count, g


class TestMemo:
    """The search result is kept on the graph that was searched."""

    def test_later_calls_run_no_search(self, monkeypatch):
        graphs = [wheel(7), complete_multipartite([3, 3]), cycle(9), SimpleGraph(0)]
        certs = [certificate(g) for g in graphs]

        def boom(*args):
            raise AssertionError("searched again")

        monkeypatch.setattr(canonical, "_refine", boom)
        for g, cert in zip(graphs, certs):
            assert certificate(g) == cert
            assert automorphisms(g) == [gamma for gamma, _ in g._canon[2]]
            assert canonical_form(g)[0] == cert
        with pytest.raises(AssertionError, match="searched again"):
            certificate(wheel(7))

    def test_memo_equals_a_fresh_search(self):
        rng = random.Random(47)
        graphs = atlas_graphs()
        graphs += [random_graph(rng, rng.randint(8, 13)) for _ in range(100)]
        for g in graphs:
            first = _canonical_order(g)
            assert g._canon is first and _canonical_order(g) is first
            _, order, auts = first
            assert isinstance(order, tuple) and isinstance(auts, tuple)
            fresh = SimpleGraph(g.n, g.edges())
            assert fresh._canon is None
            assert _canonical_order(fresh) == first

    def test_memo_leaves_equality_and_hash_alone(self):
        g = wheel(9)
        certificate(g)
        fresh = wheel(9)
        assert fresh._canon is None
        assert g == fresh and hash(g) == hash(fresh)
        assert len({g, fresh}) == 1

    def test_builders_return_graphs_without_a_memo(self):
        g = wheel(7)
        certificate(g)
        built = [
            g.relabel(range(g.n)),
            g.induced(range(g.n)),
            g.with_edge(1, 3),
            g.without_edge(0, 1),
            g.without_vertex(6),
            disjoint_union([g]),
            join([g]),
        ]
        for h in built:
            assert h._canon is None
        same = g.relabel(range(g.n))
        assert same == g
        assert _canonical_order(same) == g._canon
        assert same._canon is not g._canon
