"""Exact canonical forms for small graphs.

``certificate`` returns a byte string that is identical for two graphs if and
only if they are isomorphic; ``canonical_form`` also returns the graph
relabeled into the order that the certificate packs.  It is computed by
equitable refinement plus individualization: starting from the degree
partition, the partition is refined until equitable; when it is not yet
discrete, each vertex of the first smallest cell is individualized in turn
and the search recurses, keeping the lexicographically smallest adjacency
encoding over all discrete leaves.

Refinement is a splitter queue that enqueues every cell it creates.  Once a
cell has been used as a splitter, every cell is uniform against it, and
later splits keep that true; since each final cell was enqueued when it was
created and the queue drains, the final partition is equitable without a
separate check (McKay and Piperno, Practical graph isomorphism II, 2014).

Two standard prunings keep symmetric inputs (complete graphs, Turan graphs,
cycles) from exploding: leaves that reproduce the current best encoding
reveal automorphisms, and branches whose root vertex lies in the orbit of an
already explored sibling under automorphisms fixing the individualization
path are skipped.  Exactness is the point here; the intended scale is the
oracle's (n <= 12 or so), where this is comfortably fast.
"""

from __future__ import annotations

from .graphs import SimpleGraph, bits


def _refine(adj: tuple[int, ...], cells: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Refine an ordered partition to the coarsest equitable one below it.

    Cells are split by neighbor counts against splitter cells; fragments are
    ordered by count, so the result depends only on the isomorphism type of
    (graph, ordered partition).  Every fragment is enqueued when it is
    created, so each final cell has served as a splitter and the result is
    equitable once the queue drains.
    """
    queue = [sum(1 << v for v in c) for c in cells]
    while queue:
        smask = queue.pop()
        newcells: list[tuple[int, ...]] = []
        for cell in cells:
            if len(cell) == 1:
                newcells.append(cell)
                continue
            groups: dict[int, list[int]] = {}
            for v in cell:
                groups.setdefault((adj[v] & smask).bit_count(), []).append(v)
            if len(groups) == 1:
                newcells.append(cell)
            else:
                for key in sorted(groups):
                    frag = tuple(groups[key])
                    newcells.append(frag)
                    queue.append(sum(1 << v for v in frag))
        cells = newcells
    return cells


def _leaf_bytes(n: int, adj: tuple[int, ...], order: list[int]) -> bytes:
    """Adjacency upper triangle packed row-major under the given labeling."""
    out = bytearray(n.to_bytes(4, "big"))
    acc = 0
    nbits = 0
    for p in range(n):
        row = adj[order[p]]
        for q in range(p + 1, n):
            acc = (acc << 1) | ((row >> order[q]) & 1)
            nbits += 1
            if nbits == 8:
                out.append(acc)
                acc = 0
                nbits = 0
    if nbits:
        out.append(acc << (8 - nbits))
    return bytes(out)


def _canonical_order(g: SimpleGraph) -> tuple[bytes, list[int]]:
    """The certificate and the vertex order whose upper triangle it packs."""
    n = g.n
    adj = g.adj
    if n <= 1:
        return _leaf_bytes(n, adj, list(range(n))), list(range(n))

    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(adj[v].bit_count(), []).append(v)
    initial = [tuple(by_degree[d]) for d in sorted(by_degree)]

    best: list[bytes | None] = [None]
    best_order: list[list[int]] = [[]]
    gens: list[tuple[int, ...]] = []

    def search(cells: list[tuple[int, ...]], pathset: tuple[int, ...]) -> None:
        cells = _refine(adj, cells)
        target_index = -1
        target_size = n + 1
        for ci, cell in enumerate(cells):
            if 1 < len(cell) < target_size:
                target_index = ci
                target_size = len(cell)
        if target_index < 0:
            order = [c[0] for c in cells]
            cert = _leaf_bytes(n, adj, order)
            if best[0] is None or cert < best[0]:
                best[0] = cert
                best_order[0] = order
            elif cert == best[0] and order != best_order[0]:
                gamma = [0] * n
                for p in range(n):
                    gamma[best_order[0][p]] = order[p]
                gens.append(tuple(gamma))
            return

        target = cells[target_index]
        explored: set[int] = set()
        for v in target:
            if explored:
                fixers = [
                    gamma for gamma in gens
                    if all(gamma[x] == x for x in pathset)
                ]
                if fixers:
                    closure = set(explored)
                    frontier = list(closure)
                    while frontier:
                        u = frontier.pop()
                        for gamma in fixers:
                            w = gamma[u]
                            if w not in closure:
                                closure.add(w)
                                frontier.append(w)
                    if v in closure:
                        continue
            rest = tuple(u for u in target if u != v)
            child = (
                cells[:target_index] + [(v,), rest] + cells[target_index + 1:]
            )
            search(child, pathset + (v,))
            explored.add(v)

    search(initial, ())
    assert best[0] is not None
    return best[0], best_order[0]


def certificate(g: SimpleGraph) -> bytes:
    """Canonical certificate: equal certificates iff isomorphic graphs."""
    return _canonical_order(g)[0]


def canonical_form(g: SimpleGraph) -> tuple[bytes, SimpleGraph]:
    """The certificate and ``g`` relabeled into the order that produced it.

    Vertex p of the graph is the p-th vertex of that order, so its packed
    upper triangle is the certificate: isomorphic inputs give equal graphs,
    not just equal bytes.
    """
    cert, order = _canonical_order(g)
    perm = [0] * g.n
    for p, v in enumerate(order):
        perm[v] = p
    return cert, g.relabel(perm)


def is_isomorphic(g: SimpleGraph, h: SimpleGraph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    return certificate(g) == certificate(h)
