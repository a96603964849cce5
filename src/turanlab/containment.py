"""Subgraph containment and disjoint-family containment.

Containment is plain subgraph semantics, never induced: an embedding maps
pattern vertices injectively into the host so that every pattern edge lands
on a host edge; extra host edges are fine.  A family F_1, ..., F_h is
contained when there are pairwise vertex-disjoint embeddings of all h
patterns simultaneously.  An embedding of the disjoint union
F_1 ∪ ... ∪ F_h is exactly such a system, so every family search is one
search for the family's cached union (``ForbiddenFamily.union``), its
embedding sliced back into one mapping per member.

Each pattern is compiled once per pinned vertex into a cached plan: the
slot order (component by component, each in descending degree, then index),
the forward neighbours of each slot, and lex-leader pairs from the pattern's
stabilizer chain.  The embedding search keeps one candidate bitset per slot
and forward-checks it: placing a vertex narrows its neighbours' domains to
the host row, and an empty domain backtracks at once.  The pairs make it
yield exactly one embedding per copy (automorphism class of embeddings)
instead of |Aut(F)|.  Aut(F_1 ∪ ... ∪ F_h) swaps equal members, so the same
pairs order their copies and a system is found once, not once per
permutation of equal members.  The first embedding found is a deterministic
witness, though not always the lexicographically least mapping.

The embedding generator owns the through-vertex pins: for the copies
through a host vertex it runs one search per orbit representative of
Aut(pattern), pinned on that vertex, so each such copy is found once.  The
search for the orbit of v starts at v's component: an image of v in a
component that v's cannot map onto fails there, before any other is searched.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple, Sequence

from .coloring import chromatic_number
from .graphs import SimpleGraph, bits, disjoint_union


@dataclass(frozen=True)
class Embedding:
    """An injective pattern -> host map; mapping[i] is the image of vertex i."""

    mapping: tuple[int, ...]

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.mapping)


def embedding_is_valid(host: SimpleGraph, pattern: SimpleGraph, emb: Embedding) -> bool:
    """Check injectivity and that every pattern edge maps onto a host edge."""
    m = emb.mapping
    if len(m) != pattern.n or len(set(m)) != pattern.n:
        return False
    if any(not 0 <= v < host.n for v in m):
        return False
    return all(host.has_edge(m[u], m[v]) for u, v in pattern.edges())


class ForbiddenFamily:
    """An ordered list of forbidden patterns F_1, ..., F_h (h >= 1)."""

    def __init__(self, patterns: Sequence[SimpleGraph]):
        pats = tuple(patterns)
        if not pats:
            raise ValueError("a forbidden family needs at least one pattern")
        if any(p.n < 1 for p in pats):
            raise ValueError("patterns must have at least one vertex")
        self.patterns = pats

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self):
        return iter(self.patterns)

    def __getitem__(self, i: int) -> SimpleGraph:
        return self.patterns[i]

    @property
    def total_order(self) -> int:
        """Sum of pattern orders: the least host order that can contain all."""
        return sum(p.n for p in self.patterns)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Member i's first vertex in ``union``.  The largest member comes
        first, so a search fails fast, and equal members sit side by side."""
        pats = self.patterns
        order = sorted(
            range(len(pats)),
            key=lambda i: (-pats[i].n, -pats[i].edge_count, pats[i].adj, i),
        )
        start, shift = [0] * len(pats), 0
        for i in order:
            start[i] = shift
            shift += pats[i].n
        return tuple(start)

    @cached_property
    def union(self) -> SimpleGraph:
        """F_1 ∪ ... ∪ F_h, member i in the block from ``offsets[i]``: a host
        contains the family exactly when it contains this one graph."""
        return disjoint_union(p for _, p in sorted(zip(self.offsets, self.patterns)))

    @cached_property
    def chromatic_numbers(self) -> tuple[int, ...]:
        return tuple(chromatic_number(p) for p in self.patterns)

    @property
    def min_chromatic(self) -> int:
        return min(self.chromatic_numbers)

    def __repr__(self) -> str:
        inner = ", ".join(repr(p) for p in self.patterns)
        return f"ForbiddenFamily([{inner}])"


def as_family(family) -> ForbiddenFamily:
    """``family`` itself when it already is a ForbiddenFamily, else a new one
    over the given patterns; the hot containment calls never copy."""
    if isinstance(family, ForbiddenFamily):
        return family
    return ForbiddenFamily(family)


PLAN_CACHE_SIZE = 256  # compiled plans kept; a miss only recompiles one


class _Plan(NamedTuple):
    """How to search one pattern, compiled once per (pattern, pinned vertex).

    Slot i holds pattern vertex ``order[i]``, whose image needs host degree
    ``need[i]``.  Placing slot i narrows the domains of its later neighbour
    slots ``fwd[i]`` to the host row, and those of the slots ``above[i]`` to
    host vertices above its image: the lex-leader conditions.
    """

    order: tuple[int, ...]
    need: tuple[int, ...]
    fwd: tuple[tuple[int, ...], ...]
    above: tuple[tuple[int, ...], ...]


def _search(plan: _Plan, adj: Sequence[int], doms: list[int]) -> Iterator[list[int]]:
    """Yield slot-indexed host assignments, slot i drawn from ``doms[i]``.

    Forward checking on candidate bitsets (McCreesh, Prosser and Trimble,
    "The Glasgow Subgraph Solver", ICGT 2020): placing a slot ANDs its host
    row into each forward neighbour's domain, which also removes the used
    vertices, and a lex-leader partner's domain keeps only the vertices
    above the image; a domain that empties backtracks at once.  Candidates
    go in ascending host order.  The yielded list is reused.
    """
    p = len(plan.order)
    fwd, above = plan.fwd, plan.above
    assign = [0] * p

    def extend(i: int, doms: list[int], used: int) -> Iterator[list[int]]:
        if i == p:
            yield assign
            return
        cand = doms[i] & ~used
        while cand:
            low = cand & -cand
            cand ^= low
            now = used | low
            u = low.bit_length() - 1
            nd = doms[:]
            row = adj[u] & ~now
            for j in fwd[i]:
                nd[j] &= row
                if not nd[j]:
                    break
            else:
                high = -(low << 1) & ~now
                for j in above[i]:
                    nd[j] &= high
                    if not nd[j]:
                        break
                else:
                    assign[i] = u
                    yield from extend(i + 1, nd, now)

    yield from extend(0, doms, 0)


def _slots(pattern: SimpleGraph, pin: int | None) -> _Plan:
    """The plan without symmetry pairs.  The slots go component by component,
    ``pin``'s first and the others by least vertex (block order in a union),
    each in descending degree, then index, with ``pin`` first."""
    comp = list(range(pattern.n))  # the least vertex of v's component
    for v in range(pattern.n):
        if comp[v] == v:
            reach, grow = 0, 1 << v
            while grow != reach:
                reach = grow
                for w in bits(reach):
                    grow |= pattern.adj[w]
            for w in bits(reach):
                comp[w] = v
    home = None if pin is None else comp[pin]
    order = sorted(
        range(pattern.n),
        key=lambda v: (comp[v] != home, comp[v], v != pin, -pattern.degree(v), v),
    )
    slot = {v: i for i, v in enumerate(order)}
    fwd = tuple(
        tuple(sorted(slot[w] for w in pattern.neighbors(v) if slot[w] > i))
        for i, v in enumerate(order)
    )
    need = tuple(pattern.degree(v) for v in order)
    return _Plan(tuple(order), need, fwd, ((),) * pattern.n)


def _orbit(pattern: SimpleGraph, plain: _Plan, fixed: int, v: int) -> int:
    """The orbit of ``v``, as a mask, under the automorphisms of ``pattern``
    that fix every vertex of the mask ``fixed``.

    Each candidate image w of ``v`` not yet joined to it gets one pinned
    self-embedding search; the cycles of every automorphism found are joined
    by union-find.  Candidates go from the highest vertex down, so on K_p the
    first search finds a p-cycle.  Aut(F) itself is never enumerated.
    """
    p = pattern.n
    root = list(range(p))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    deg = pattern.degrees()
    same = [
        sum(1 << w for w in range(p) if deg[w] == deg[x]) & ~fixed for x in range(p)
    ]
    for w in range(p - 1, -1, -1):
        if fixed >> w & 1 or deg[w] != deg[v] or find(w) == find(v):
            continue
        doms = [
            1 << x if fixed >> x & 1 else 1 << w if x == v else same[x]
            for x in plain.order
        ]
        for images in _search(plain, pattern.adj, doms):
            for x, image in zip(plain.order, images):
                root[find(x)] = find(image)
            break
    rv = find(v)
    return sum(1 << x for x in range(p) if find(x) == rv)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(pattern: SimpleGraph, pin: int | None) -> _Plan:
    """The compiled plan: slot order, forward neighbours and lex-leader pairs.

    The pairs follow the pattern's stabilizer chain along the slot order
    (Grochow and Kellis, RECOMB 2007): slot i's image lies below the images
    of the other vertices in its orbit under the automorphisms fixing slots
    0..i-1.  Exactly one embedding of each automorphism class meets them
    all.  With a pin the chain starts at Stab(pin), so each copy through the
    pinned host vertex with the pin on it is found once.
    """
    plain = _slots(pattern, pin)
    above = []
    fixed = 0
    for i, v in enumerate(plain.order):
        if i or pin is None:
            orbit = _orbit(pattern, plain, fixed, v) & ~(1 << v)
            above.append(tuple(sorted(plain.order.index(w) for w in bits(orbit))))
        else:
            above.append(())
        fixed |= 1 << v
    return _Plan(plain.order, plain.need, plain.fwd, tuple(above))


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _orbit_representatives(pattern: SimpleGraph) -> tuple[int, ...]:
    """The least vertex of each orbit of Aut(pattern).  Each orbit search
    maps v's component first: in block order, an image of v that v's
    component cannot map onto fails only after every automorphism of the
    components before it is tried."""
    reps, seen = [], 0
    for v in range(pattern.n):
        if not seen >> v & 1:
            reps.append(v)
            seen |= _orbit(pattern, _slots(pattern, v), 0, v)
    return tuple(reps)


def _iter_embeddings(
    host: SimpleGraph, pattern: SimpleGraph, through: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield one embedding (a pattern-indexed tuple) per copy of ``pattern``,
    a copy being an automorphism class of embeddings.

    With ``through``, yield one embedding per copy that uses that host
    vertex: one search per orbit representative of Aut(pattern), pinned on
    it, finds each such copy exactly once.  The degree domains are built
    once per call.  The search forward-checks bitset domains and the first
    yielded embedding is the deterministic witness.
    """
    p = pattern.n
    if p > host.n:
        return
    degrees = host.degrees()
    fit: dict[int, int] = {}
    pins = (None,) if through is None else _orbit_representatives(pattern)
    for pin in pins:
        plan = _plan(pattern, pin)
        for need in plan.need:
            if need not in fit:
                fit[need] = sum(1 << u for u, d in enumerate(degrees) if d >= need)
        doms = [fit[need] for need in plan.need]
        if pin is not None:
            doms[0] &= 1 << through
        if not all(doms):
            continue
        order = plan.order
        for images in _search(plan, host.adj, doms):
            result = [0] * p
            for v, u in zip(order, images):
                result[v] = u
            yield tuple(result)


def contains_subgraph(host: SimpleGraph, pattern: SimpleGraph) -> Embedding | None:
    """An embedding of ``pattern`` in ``host`` (subgraph semantics), or None.

    The witness is the first the forward-checking search finds, one per copy
    by the lex-leader pairs: deterministic, but not always the least mapping.
    """
    for mapping in _iter_embeddings(host, pattern):
        return Embedding(mapping)
    return None


def contains_disjoint_family(host: SimpleGraph, family) -> list[Embedding] | None:
    """Pairwise disjoint embeddings of every family member, or None.

    The witness is the first embedding of the family's union, sliced back
    into one embedding per member in family order.
    """
    fam = as_family(family)
    for mapping in _iter_embeddings(host, fam.union):
        return [
            Embedding(mapping[start:start + p.n])
            for start, p in zip(fam.offsets, fam.patterns)
        ]
    return None


def contains_disjoint_family_through(
    host: SimpleGraph, family, vertex: int
) -> bool:
    """Decide family containment restricted to systems that use ``vertex``.

    When ``host`` minus ``vertex`` is already family-free this decides full
    containment, which is how the oracle checks each one-vertex extension.
    """
    if not 0 <= vertex < host.n:
        raise ValueError(f"vertex {vertex} out of range for a host of order {host.n}")
    for _ in _iter_embeddings(host, as_family(family).union, vertex):
        return True
    return False


def is_free(host: SimpleGraph, family) -> bool:
    """True when the host contains no disjoint system of the whole family."""
    return contains_disjoint_family(host, family) is None
