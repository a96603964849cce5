"""Subgraph containment and disjoint-family containment.

Containment is plain subgraph semantics, never induced: an embedding maps
pattern vertices injectively into the host so that every pattern edge lands
on a host edge; extra host edges are fine.  A family F_1, ..., F_h is
contained when there are pairwise vertex-disjoint embeddings of all h
patterns simultaneously, which the search decides exactly by backtracking
across patterns (a greedy pattern-at-a-time pass would be wrong).

One recursion, ``_find_disjoint``, does every search across patterns.  The
through-vertex check runs it with each distinct pattern first and one
representative of each automorphism orbit of that pattern pinned onto the
given host vertex.  A pinned copy sets no symmetry bound on the equal copies
after it: it alone covers the vertex, so it is not interchangeable with
them, and bounding them could discard the only disjoint system.

Each pattern is compiled once per pinned vertex into a cached plan: the
slot order (descending degree, then index), the forward neighbours of each
slot, and lex-leader pairs from the pattern's stabilizer chain.  The
embedding search keeps one candidate bitset per slot and forward-checks it:
placing a vertex narrows its neighbours' domains to the host row, and an
empty domain backtracks at once.  The pairs make it yield exactly one
embedding per copy (automorphism class of embeddings) instead of |Aut(F)|.
The first embedding found is a deterministic witness, though not always the
lexicographically least mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple, Sequence

from .coloring import chromatic_number
from .graphs import SimpleGraph, bits


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
    """The plan without symmetry pairs: descending degree, then index, with
    ``pin`` first."""
    order = sorted(range(pattern.n), key=lambda v: (-pattern.degree(v), v))
    if pin is not None:
        order.remove(pin)
        order.insert(0, pin)
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
    """The least vertex of each orbit of Aut(pattern)."""
    plain = _slots(pattern, None)
    reps, seen = [], 0
    for v in range(pattern.n):
        if not seen >> v & 1:
            reps.append(v)
            seen |= _orbit(pattern, plain, 0, v)
    return tuple(reps)


def _iter_embeddings(
    host: SimpleGraph,
    pattern: SimpleGraph,
    allowed: int,
    pinned: tuple[int, int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield one embedding (a pattern-indexed tuple) per copy of ``pattern``
    using only ``allowed`` hosts, a copy being an automorphism class of
    embeddings.

    ``pinned`` forces one pattern vertex onto one host vertex; then one
    embedding is yielded per copy through that host vertex that can put the
    pinned vertex on it.  The search forward-checks bitset domains and the
    first yielded embedding is the deterministic witness.
    """
    p = pattern.n
    if allowed.bit_count() < p:
        return
    plan = _plan(pattern, None if pinned is None else pinned[0])
    adj = host.adj
    fit: dict[int, int] = {}
    for need in plan.need:
        if need not in fit:
            fit[need] = sum(1 << u for u in bits(allowed) if adj[u].bit_count() >= need)
    doms = [fit[need] for need in plan.need]
    if pinned is not None:
        doms[0] &= 1 << pinned[1]
    if not all(doms):
        return
    order = plan.order
    for images in _search(plan, adj, doms):
        result = [0] * p
        for v, u in zip(order, images):
            result[v] = u
        yield tuple(result)


def contains_subgraph(host: SimpleGraph, pattern: SimpleGraph) -> Embedding | None:
    """An embedding of ``pattern`` in ``host`` (subgraph semantics), or None.

    The witness is the first the forward-checking search finds, one per copy
    by the lex-leader pairs: deterministic, but not always the least mapping.
    """
    allowed = (1 << host.n) - 1
    for mapping in _iter_embeddings(host, pattern, allowed):
        return Embedding(mapping)
    return None


def _search_order(family: ForbiddenFamily) -> list[int]:
    """Pattern processing order: largest first, equal patterns adjacent."""
    return sorted(
        range(len(family)),
        key=lambda i: (-family[i].n, -family[i].edge_count, family[i].adj, i),
    )


def _find_disjoint(
    host: SimpleGraph,
    family: ForbiddenFamily,
    order: list[int],
    allowed: int,
    out: dict[int, tuple[int, ...]],
    pinned: tuple[int, int] | None = None,
    prev_min: int = -1,
) -> bool:
    """Embed the patterns ``order`` names pairwise disjoint inside
    ``allowed``, recording mappings in ``out``; ``pinned`` applies to the
    first pattern, and a first copy must start above host vertex ``prev_min``.
    """
    if not order:
        return True
    fi, rest = order[0], order[1:]
    pat = family[fi]
    # a pinned copy is not interchangeable with its equal neighbour
    bound_next = pinned is None and bool(rest) and family[rest[0]] == pat
    for mapping in _iter_embeddings(host, pat, allowed, pinned):
        least = min(mapping)
        if least <= prev_min:
            continue
        mask = sum(1 << v for v in mapping)
        out[fi] = mapping
        if _find_disjoint(
            host, family, rest, allowed & ~mask, out,
            prev_min=least if bound_next else -1,
        ):
            return True
        del out[fi]
    return False


def contains_disjoint_family(host: SimpleGraph, family) -> list[Embedding] | None:
    """Pairwise disjoint embeddings of every family member, or None.

    Witnesses are reported in family order.  The search backtracks across
    patterns, processing the largest pattern first to fail fast; for runs of
    identical patterns the copies are forced into increasing order of least
    host vertex, which discards only permutations of interchangeable copies.
    """
    fam = as_family(family)
    if fam.total_order > host.n:
        return None
    order = _search_order(fam)
    found: dict[int, tuple[int, ...]] = {}
    allowed = (1 << host.n) - 1
    if _find_disjoint(host, fam, order, allowed, found):
        return [Embedding(found[i]) for i in range(len(fam))]
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
    fam = as_family(family)
    if fam.total_order > host.n:
        return False
    order = _search_order(fam)
    allowed = (1 << host.n) - 1
    for pos, fi in enumerate(order):
        if pos and fam[order[pos - 1]] == fam[fi]:
            continue  # an equal pattern already tried covering the vertex
        pinned_first = [fi] + order[:pos] + order[pos + 1:]
        # one pin per automorphism orbit finds each copy through the vertex once
        for pv in _orbit_representatives(fam[fi]):
            if _find_disjoint(
                host, fam, pinned_first, allowed, {}, pinned=(pv, vertex)
            ):
                return True
    return False


def is_free(host: SimpleGraph, family) -> bool:
    """True when the host contains no disjoint system of the whole family."""
    return contains_disjoint_family(host, family) is None
