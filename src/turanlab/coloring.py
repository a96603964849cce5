"""Exact chromatic numbers and criticality probes for small graphs.

The chromatic number is computed by iterating exact k-colorability tests
between a clique lower bound and a greedy upper bound.  The k-colorability
test is plain backtracking over vertices in descending degree order with the
standard symmetry break (a vertex may only open one fresh color), which is
entirely adequate at pattern scale (n around 15 or below).

A graph F is vertex-critical when deleting some vertex drops chi(F), and
edge-critical when deleting some edge does.  Edge-critical implies
vertex-critical; the converse fails, and odd wheels are the standard
counterexample, which is what makes them interesting forbidden patterns.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import SimpleGraph, bits


def _greedy_clique_bound(g: SimpleGraph, cap: int) -> int:
    """Size of a greedily grown clique; a valid lower bound for chi.  Stops
    at ``cap``, an upper bound for chi that no clique exceeds."""
    best = 1 if g.n else 0
    order = sorted(range(g.n), key=lambda v: -g.adj[v].bit_count())
    for start in order:
        clique = [start]
        cand = g.adj[start]
        while cand:
            pick = -1
            pick_score = -1
            for u in bits(cand):
                score = (g.adj[u] & cand).bit_count()
                if score > pick_score:
                    pick, pick_score = u, score
            clique.append(pick)
            cand &= g.adj[pick]
        best = max(best, len(clique))
        if best >= cap:
            break
    return best


def _greedy_coloring_bound(g: SimpleGraph) -> int:
    """Colors used by largest-first greedy coloring; an upper bound for chi."""
    color = [-1] * g.n
    used = 0
    for v in sorted(range(g.n), key=lambda v: -g.adj[v].bit_count()):
        taken = 0
        for u in bits(g.adj[v]):
            if color[u] >= 0:
                taken |= 1 << color[u]
        c = 0
        while (taken >> c) & 1:
            c += 1
        color[v] = c
        used = max(used, c + 1)
    return used


def is_k_colorable(g: SimpleGraph, k: int) -> bool:
    """Exact test by backtracking; k >= 0."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    order = sorted(range(g.n), key=lambda v: -g.adj[v].bit_count())
    pos = {v: i for i, v in enumerate(order)}
    earlier = [
        [pos[u] for u in bits(g.adj[v]) if pos[u] < i]
        for i, v in enumerate(order)
    ]
    color = [-1] * g.n

    def assign(i: int, opened: int) -> bool:
        if i == g.n:
            return True
        taken = 0
        for j in earlier[i]:
            taken |= 1 << color[j]
        limit = min(k, opened + 1)
        for c in range(limit):
            if not (taken >> c) & 1:
                color[i] = c
                if assign(i + 1, max(opened, c + 1)):
                    return True
        return False

    try:
        return assign(0, 0)
    finally:
        del assign  # the closure refers to itself: break the cycle


def chromatic_number(g: SimpleGraph) -> int:
    """Exact chromatic number; 0 for the null graph, 1 for edgeless graphs."""
    high = _greedy_coloring_bound(g)
    low = max(2, _greedy_clique_bound(g, high))
    for k in range(low, high):
        if is_k_colorable(g, k):
            return k
    return high


@dataclass(frozen=True)
class CriticalityReport:
    """Criticality summary for one pattern.

    ``vertex_witness`` is the least vertex whose deletion drops chi by one
    (None when no vertex does); ``edge_witness`` is the lexicographically
    least such edge.  An edge witness forces a vertex witness.
    """

    chi: int
    vertex_witness: int | None
    edge_witness: tuple[int, int] | None

    @property
    def is_vertex_critical(self) -> bool:
        return self.vertex_witness is not None

    @property
    def is_edge_critical(self) -> bool:
        return self.edge_witness is not None


def criticality(f: SimpleGraph) -> CriticalityReport:
    """Exhaustive single-deletion criticality check with least witnesses."""
    if f.n < 1:
        raise ValueError("criticality needs at least one vertex")
    chi = chromatic_number(f)
    vertex_witness = None
    for v in range(f.n):
        if chromatic_number(f.without_vertex(v)) == chi - 1:
            vertex_witness = v
            break
    edge_witness = None
    for u, v in f.edges():
        if chromatic_number(f.without_edge(u, v)) == chi - 1:
            edge_witness = (u, v)
            break
    return CriticalityReport(chi, vertex_witness, edge_witness)
