"""Immutable simple graphs on a dense bitset adjacency, plus standard builders.

Vertices are 0..n-1.  Each row of the adjacency is a Python int used as a
bitmask, so neighborhood intersection, degree, and edge counting are single
int operations.  Graphs are immutable: every mutator returns a new instance,
which keeps search code (containment, oracle enumeration) free of aliasing
bugs and makes instances safe to share across data structures.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class SimpleGraph:
    """An undirected simple graph with int-bitmask adjacency rows."""

    __slots__ = ("n", "adj", "edge_count")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.adj = tuple(rows)
        self.edge_count = sum(r.bit_count() for r in rows) // 2

    @classmethod
    def _from_rows(cls, n: int, rows: Iterable[int]) -> "SimpleGraph":
        """Trusted constructor: rows must already be symmetric and loop-free."""
        g = object.__new__(cls)
        g.n = n
        g.adj = tuple(rows)
        g.edge_count = sum(r.bit_count() for r in g.adj) // 2
        return g

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(r.bit_count() for r in self.adj)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self.adj[v]))

    def edges(self) -> list[tuple[int, int]]:
        """All edges (u, v) with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1)
            for off in bits(rest):
                out.append((u, u + 1 + off))
        return out

    def non_edges(self) -> list[tuple[int, int]]:
        """All vertex pairs (u, v), u < v, that are not edges."""
        out = []
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if not (self.adj[u] >> v) & 1:
                    out.append((u, v))
        return out

    def with_edge(self, u: int, v: int) -> "SimpleGraph":
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"invalid edge ({u},{v})")
        rows = list(self.adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return SimpleGraph._from_rows(self.n, rows)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    def without_edge(self, u: int, v: int) -> "SimpleGraph":
        self._check_vertex(u)
        self._check_vertex(v)
        rows = list(self.adj)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return SimpleGraph._from_rows(self.n, rows)

    def induced(self, keep: Iterable[int]) -> "SimpleGraph":
        """Induced subgraph on ``keep``, relabeled 0..len(keep)-1 in sorted order."""
        kept = sorted(set(keep))
        for v in kept[:1] + kept[-1:]:  # sorted, so the ends bound the rest
            self._check_vertex(v)
        index = {v: i for i, v in enumerate(kept)}
        rows = [0] * len(kept)
        for v in kept:
            for w in bits(self.adj[v]):
                if w in index:
                    rows[index[v]] |= 1 << index[w]
        return SimpleGraph._from_rows(len(kept), rows)

    def without_vertex(self, v: int) -> "SimpleGraph":
        self._check_vertex(v)
        return self.induced(u for u in range(self.n) if u != v)

    def relabel(self, perm: Iterable[int]) -> "SimpleGraph":
        """Image under ``perm``: old vertex i becomes perm[i]."""
        p = list(perm)
        if sorted(p) != list(range(self.n)):
            raise ValueError("perm must be a permutation of 0..n-1")
        rows = [0] * self.n
        for u, row in enumerate(self.adj):
            acc = 0
            for v in bits(row):
                acc |= 1 << p[v]
            rows[p[u]] = acc
        return SimpleGraph._from_rows(self.n, rows)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SimpleGraph)
            and self.n == other.n
            and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, e={self.edge_count})"


# === standard builders ===


def empty_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n)


def complete(n: int) -> SimpleGraph:
    full = (1 << n) - 1
    return SimpleGraph._from_rows(n, (full ^ (1 << v) for v in range(n)))


def path(n: int) -> SimpleGraph:
    """The path P_n on n vertices (n-1 edges); P_1 is a single vertex."""
    if n < 1:
        raise ValueError(f"path needs at least 1 vertex, got {n}")
    return SimpleGraph(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> SimpleGraph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return SimpleGraph(n, ((i, (i + 1) % n) for i in range(n)))


def wheel(n: int) -> SimpleGraph:
    """The wheel W_n on n vertices: hub 0 joined to the cycle 1..n-1."""
    if n < 4:
        raise ValueError(f"wheel needs at least 4 vertices, got {n}")
    edges = [(0, v) for v in range(1, n)]
    edges += [(1 + i, 1 + (i + 1) % (n - 1)) for i in range(n - 1)]
    return SimpleGraph(n, edges)


def complete_multipartite(sizes: Iterable[int]) -> SimpleGraph:
    """Complete multipartite graph; parts occupy consecutive vertex blocks."""
    parts = list(sizes)
    if not parts or any(s < 1 for s in parts):
        raise ValueError(f"part sizes must be positive, got {parts}")
    n = sum(parts)
    full = (1 << n) - 1
    rows = [0] * n
    start = 0
    for s in parts:
        block = ((1 << s) - 1) << start
        for v in range(start, start + s):
            rows[v] = full ^ block
        start += s
    return SimpleGraph._from_rows(n, rows)


def turan(n: int, r: int) -> SimpleGraph:
    """The Turan graph T(n, r): complete r-partite, parts as equal as possible.

    The ceil(n/r) parts come first, so vertex blocks are weakly decreasing.
    """
    if r < 1:
        raise ValueError(f"turan needs r >= 1, got r={r}")
    if n < 0:
        raise ValueError(f"turan needs n >= 0, got n={n}")
    if n == 0:
        return empty_graph(0)
    parts = min(r, n)  # parts beyond n would be empty
    q, rem = divmod(n, parts)
    return complete_multipartite([q + 1] * rem + [q] * (parts - rem))


def turan_edge_count(n: int, r: int) -> int:
    """Edge count of T(n, r) without building the graph."""
    if r < 1 or n < 0:
        raise ValueError(f"invalid Turan parameters n={n}, r={r}")
    # C(n, 2) minus the pairs inside each part; as the part sizes sum to n,
    # that is (n^2 - sum of squared part sizes) / 2
    q, rem = divmod(n, r)
    return (n * n - rem * (q + 1) ** 2 - (r - rem) * q * q) // 2


# === disjoint union and join ===


def disjoint_union(parts: Iterable[SimpleGraph]) -> SimpleGraph:
    """Disjoint union; the i-th summand occupies the i-th consecutive block."""
    gs = list(parts)
    if not gs:
        raise ValueError("disjoint_union needs at least one graph")
    n = sum(g.n for g in gs)
    rows = []
    shift = 0
    for g in gs:
        rows.extend(r << shift for r in g.adj)
        shift += g.n
    return SimpleGraph._from_rows(n, rows)


def join(parts: Iterable[SimpleGraph]) -> SimpleGraph:
    """Join: disjoint union plus all edges between distinct summands."""
    gs = list(parts)
    if not gs:
        raise ValueError("join needs at least one graph")
    n = sum(g.n for g in gs)
    full = (1 << n) - 1
    rows = []
    shift = 0
    for g in gs:
        block = ((1 << g.n) - 1) << shift
        others = full ^ block
        rows.extend((r << shift) | others for r in g.adj)
        shift += g.n
    return SimpleGraph._from_rows(n, rows)
