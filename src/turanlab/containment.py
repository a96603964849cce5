"""Subgraph containment and disjoint-family containment.

Containment is plain subgraph semantics, never induced: an embedding maps
pattern vertices injectively into the host so that every pattern edge lands
on a host edge; extra host edges are fine.  A family F_1, ..., F_h is
contained when there are pairwise vertex-disjoint embeddings of all h
patterns simultaneously, which the search decides exactly by backtracking
across patterns (a greedy pattern-at-a-time pass would be wrong).

One recursion, ``_find_disjoint``, does every search across patterns.  The
through-vertex check runs it with each distinct pattern first and one of
that pattern's vertices pinned onto the given host vertex.  A pinned copy
sets no symmetry bound on the equal copies after it: it alone covers the
vertex, so it is not interchangeable with them, and bounding them could
discard the only disjoint system.

The embedding search processes pattern vertices by descending degree and
filters host candidates through bitmask intersection of already-placed
neighbors, which is what makes the exhaustive searches cheap at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

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


def _iter_embeddings(
    host: SimpleGraph,
    pattern: SimpleGraph,
    allowed: int,
    pinned: tuple[int, int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield embeddings (pattern-indexed tuples) using only ``allowed`` hosts.

    ``pinned`` forces one pattern vertex onto one host vertex.  Candidates are
    tried in ascending host order, so the first yielded embedding is the
    deterministic witness.
    """
    p = pattern.n
    if allowed.bit_count() < p:
        return
    order = sorted(range(p), key=lambda v: (-pattern.degree(v), v))
    if pinned is not None:
        order.remove(pinned[0])
        order.insert(0, pinned[0])
    slot_of = {v: i for i, v in enumerate(order)}
    earlier: list[list[int]] = []
    for i, v in enumerate(order):
        earlier.append([slot_of[w] for w in pattern.neighbors(v) if slot_of[w] < i])
    pdeg = [pattern.degree(v) for v in order]
    hdeg = [host.adj[u].bit_count() for u in range(host.n)]

    assign = [0] * p

    def extend(i: int, used: int) -> Iterator[tuple[int, ...]]:
        if i == p:
            result = [0] * p
            for slot, v in enumerate(order):
                result[v] = assign[slot]
            yield tuple(result)
            return
        cand = allowed & ~used
        for j in earlier[i]:
            cand &= host.adj[assign[j]]
        if pinned is not None and i == 0:
            cand &= 1 << pinned[1]
        need = pdeg[i]
        for u in bits(cand):
            if hdeg[u] >= need:
                assign[i] = u
                yield from extend(i + 1, used | (1 << u))

    yield from extend(0, 0)


def contains_subgraph(host: SimpleGraph, pattern: SimpleGraph) -> Embedding | None:
    """First embedding of ``pattern`` in ``host`` (subgraph semantics), or None."""
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
    fam = as_family(family)
    if fam.total_order > host.n:
        return False
    order = _search_order(fam)
    allowed = (1 << host.n) - 1
    for pos, fi in enumerate(order):
        if pos and fam[order[pos - 1]] == fam[fi]:
            continue  # an equal pattern already tried covering the vertex
        pinned_first = [fi] + order[:pos] + order[pos + 1:]
        for pv in range(fam[fi].n):
            if _find_disjoint(
                host, fam, pinned_first, allowed, {}, pinned=(pv, vertex)
            ):
                return True
    return False


def is_free(host: SimpleGraph, family) -> bool:
    """True when the host contains no disjoint system of the whole family."""
    return contains_disjoint_family(host, family) is None
