"""Exact canonical forms for small graphs.

``certificate`` returns a byte string that is identical for two graphs if and
only if they are isomorphic; ``canonical_form`` also returns the graph
relabeled into the order that the certificate packs.  It is computed by
equitable refinement plus individualization: starting from the unit
partition, the partition is refined until equitable; when it is not yet
discrete, each vertex of the first smallest cell is individualized in turn
and the search recurses, keeping the lexicographically smallest adjacency
encoding over all discrete leaves.

Refinement is a splitter stack that pushes every cell it creates.  Once a
cell has been used as a splitter, every cell is uniform against it, and
later splits keep that true; since each final cell was pushed when it was
created and the stack drains, the final partition is equitable without a
separate check.  The root pushes V, which splits the unit cell by degree.  A
child that individualizes v pushes only the rest of v's cell: the other
cells belong to an equitable partition, so every cell below it is already
uniform against them, and a cell uniform against v's old cell and against
the rest is uniform against {v}.

Leaves that reproduce the best encoding reveal automorphisms, each stored
with the mask of the points it moves, so "fixes the individualization path"
is one AND.  Each node keeps orbit masks over its target cell, merges them
under the fixing automorphisms found since it last looked, and skips a
vertex in the orbit of an explored sibling.  Such an automorphism also maps
the best leaf's path onto the new leaf's path and fixes their common prefix,
so the new leaf's subtree below the parting node is the image of one
already searched, and the search returns there at once (McKay, Practical
graph isomorphism, Congr. Numer. 30, 1981; McKay and Piperno, Practical
graph isomorphism II, J. Symb. Comput. 60, 2014).  Every pruned leaf is the
image of an earlier leaf with the same encoding, so the certificate and the
first leaf that reaches it do not depend on the pruning.

``automorphisms`` returns the automorphisms the search found.  Each is an
automorphism of G, and that is all a caller may rely on: nothing here
proves that they generate Aut(G).  Tests check it on samples: on every graph
of at most six vertices their mask orbits are those of Aut(G), and on random
graphs of 7 to 11 vertices and named ones (Petersen, Q3, wheels, unions of
cycles and cliques) the group they generate has the order of Aut(G).

A graph is immutable, so the first search of a graph keeps its result, in
tuples, on the graph (``SimpleGraph._canon``), and every later
``certificate``, ``canonical_form`` or ``automorphisms`` call on it reads
that back.  The memo lives as long as the graph; an equal graph built
separately, a relabeling included, has its own.
"""

from __future__ import annotations

from .graphs import SimpleGraph, bits


def _refine(
    adj: tuple[int, ...], cells: list[tuple[int, ...]], splitters: list[int]
) -> list[tuple[int, ...]]:
    """Refine an ordered partition by a stack of splitter masks.

    Cells are split by neighbor counts against splitter cells; fragments are
    ordered by count, so the result depends only on the isomorphism type of
    (graph, ordered partition, splitters).  Every fragment is pushed when it
    is created, so the result is equitable once the stack drains, provided
    every cell is already uniform against each input cell not in
    ``splitters``.
    """
    n = len(adj)
    stack = list(splitters)
    while stack and len(cells) < n:
        smask = stack.pop()
        newcells: list[tuple[int, ...]] = []
        for cell in cells:
            if len(cell) > 1:
                counts = [(adj[v] & smask).bit_count() for v in cell]
                if counts.count(counts[0]) < len(cell):
                    groups: dict[int, list[int]] = {}
                    for v, c in zip(cell, counts):
                        groups.setdefault(c, []).append(v)
                    for key in sorted(groups):
                        frag = tuple(groups[key])
                        newcells.append(frag)
                        stack.append(sum(1 << v for v in frag))
                    continue
            newcells.append(cell)
        cells = newcells
    return cells


def _canonical_order(
    g: SimpleGraph,
) -> tuple[bytes, tuple[int, ...], tuple[tuple[tuple[int, ...], int], ...]]:
    """The certificate, the vertex order whose upper triangle it packs, and
    the automorphisms found on the way, each with its moved-point mask.  The
    first call searches and keeps the result on ``g``; later calls read it.

    Each leaf is compared by one int: its upper triangle read row-major, the
    first pair most significant.  Every leaf has the same width, so int
    order is the order of the packed bytes, and the least code is packed
    once: 4 bytes of n, then the code shifted to a byte boundary.
    """
    if g._canon is not None:
        return g._canon
    n = g.n
    adj = g.adj
    best: list = [None, None, ()]  # code, order, path
    gens: list[tuple[tuple[int, ...], int]] = []  # automorphism, moved points

    def search(
        cells: list[tuple[int, ...]], splitters: list[int], path: tuple[int, ...]
    ) -> int:
        """Refine a node and search below it; returns the depth to resume at."""
        cells = _refine(adj, cells, splitters)
        depth = len(path)
        target_index = -1
        target_size = n + 1
        for ci, cell in enumerate(cells):
            if 1 < len(cell) < target_size:
                target_index = ci
                target_size = len(cell)
        if target_index < 0:
            order = [c[0] for c in cells]
            code = 0
            for p, v in enumerate(order):
                row = adj[v]
                for u in order[p + 1:]:
                    code = code << 1 | row >> u & 1
            if best[0] is None or code < best[0]:
                best[:] = code, order, path
            elif code == best[0]:
                gamma = [0] * n
                for p in range(n):
                    gamma[best[1][p]] = order[p]
                moved = sum(1 << x for x in range(n) if gamma[x] != x)
                gens.append((tuple(gamma), moved))
                # gamma fixes the common prefix and maps the best path's
                # child there onto ours: our subtree there is its image
                parting = 0
                while path[parting] == best[2][parting]:
                    parting += 1
                return parting
            return depth - 1

        target = cells[target_index]
        tmask = sum(1 << v for v in target)
        pathmask = sum(1 << v for v in path)
        orbit = {v: 1 << v for v in target}
        explored = 0
        looked = 0
        for v in target:
            for gamma, moved in gens[looked:]:
                if not moved & pathmask:
                    for x in target:
                        y = gamma[x]
                        if not orbit[x] >> y & 1:
                            merged = orbit[x] | orbit[y]
                            for u in bits(merged):
                                orbit[u] = merged
            looked = len(gens)
            if orbit[v] & explored:
                continue
            rest = tuple(u for u in target if u != v)
            resume = search(
                cells[:target_index] + [(v,), rest] + cells[target_index + 1:],
                [tmask ^ 1 << v],
                path + (v,),
            )
            if resume < depth:
                return resume
            explored |= 1 << v
        return depth - 1

    try:
        # the root: the unit partition and V; the null graph's has no cell
        search([tuple(range(n))] if n else [], [(1 << n) - 1], ())
    finally:
        del search  # the closure refers to itself: break the cycle
    width = n * (n - 1) // 2
    size = -(-width // 8)
    cert = n.to_bytes(4, "big") + (best[0] << 8 * size - width).to_bytes(size, "big")
    g._canon = cert, tuple(best[1]), tuple(gens)
    return g._canon


def certificate(g: SimpleGraph) -> bytes:
    """Canonical certificate: equal certificates iff isomorphic graphs."""
    return _canonical_order(g)[0]


def canonical_form(g: SimpleGraph) -> tuple[bytes, SimpleGraph]:
    """The certificate and ``g`` relabeled into the order that produced it.

    Vertex p of the graph is the p-th vertex of that order, so its packed
    upper triangle is the certificate: isomorphic inputs give equal graphs,
    not just equal bytes.
    """
    cert, order, _ = _canonical_order(g)
    perm = [0] * g.n
    for p, v in enumerate(order):
        perm[v] = p
    return cert, g.relabel(perm)


def automorphisms(g: SimpleGraph) -> list[tuple[int, ...]]:
    """Automorphisms of ``g`` found by the canonical search, as vertex maps;
    after ``certificate(g)`` they are read off the memo, with no search."""
    return [gamma for gamma, _ in _canonical_order(g)[2]]


def is_isomorphic(g: SimpleGraph, h: SimpleGraph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    return certificate(g) == certificate(h)
