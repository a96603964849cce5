"""Subgraph containment and disjoint-family containment.

Containment is plain subgraph semantics, never induced: an embedding maps
pattern vertices injectively into the host so that every pattern edge lands
on a host edge; extra host edges are fine.  A family F_1, ..., F_h is
contained when there are pairwise vertex-disjoint embeddings of all h
patterns simultaneously.  An embedding of the disjoint union
F_1 ∪ ... ∪ F_h is exactly such a system, so every family search is one
search for the family's cached union (``ForbiddenFamily.union``), its
embedding sliced back into one mapping per member.

Each pattern is compiled once per pinned vertex into a plan, and ``_plans``
caches the plans of each search: the slot order (component by component,
each in descending degree, then index), the forward neighbours of each slot,
and lex-leader pairs from the pattern's stabilizer chain.  The embedding
search keeps one candidate bitset per slot and forward-checks it: placing a
vertex narrows its neighbours' domains to the host row, and an empty domain
backtracks at once.  The pairs make it yield exactly one embedding per copy
(automorphism class of embeddings) instead of |Aut(F)|.
Aut(F_1 ∪ ... ∪ F_h) swaps equal members, so the same pairs order their
copies and a system is found once, not once per permutation of equal members.

Host twins are branched on once.  Two host vertices are twins when they
share an open neighbourhood (false twins: the far side of K_{n0,n-n0}) or a
closed one (true twins: the vertices of a clique), and swapping two twins
is an automorphism of the host (``graphs.twin_classes``, whose classes also
seed the canonical search's orbits).  Once a slot has tried a vertex it tries
none of that vertex's twins: target-side symmetry breaking (Zampelli,
Deville and Dupont, "Symmetry breaking in subgraph pattern matching",
SymCon 2006) on top of the pattern-side lex-leader pairs (Crawford,
Ginsberg, Luks and Roy, "Symmetry-breaking predicates for search problems",
KR 1996).  Both are exact together when the pinned slots, with single-vertex
domains, come first and every later domain is closed under swapping two
twins that are not pinned images.  Then, in the orbit of any valid
assignment under Aut(F) and those swaps, the lex-least assignment in slot
order meets every pair, and it passes the twin rule, since a smaller unused
twin swapped in would give a smaller assignment in the same orbit.  So a
search finds an assignment exactly when one exists, and one of every copy
up to twin swaps; the first found, the witness, is the lex-least in slot
order of those that meet the pairs, which is also the lex-least of all.
Twins have equal degrees, so all three searches meet the condition: an
unpinned one draws every slot from a degree class; one through a host
vertex pins it on slot 0 and draws the rest from degree classes; and
``_orbit``'s self-embedding searches on the pattern pin the fixed vertices
and v on w first, and draw each later slot from a degree class less the
fixed vertices.  The paper's constructions are made almost wholly of twins,
so a wheel-freeness check that failed once per twin fails once per class.

The embedding generator owns the through-vertex pins: for the copies
through a host vertex it runs one search per orbit representative of
Aut(pattern), pinned on that vertex, so each such copy is found once.  The
search for the orbit of v starts at v's component: an image of v in a
component that v's cannot map onto fails there, before any other is searched.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import islice
from typing import Iterator, NamedTuple, Sequence

from .graphs import SimpleGraph, bits, disjoint_union, twin_classes


def embedding_is_valid(
    host: SimpleGraph, pattern: SimpleGraph, mapping: Sequence[int]
) -> bool:
    """Check that ``mapping`` (mapping[i] the image of pattern vertex i) is
    injective and maps every pattern edge onto a host edge."""
    if len(mapping) != pattern.n or len(set(mapping)) != pattern.n:
        return False
    if any(not 0 <= v < host.n for v in mapping):
        return False
    return all(host.has_edge(mapping[u], mapping[v]) for u, v in pattern.edges())


class ForbiddenFamily(tuple):
    """An ordered tuple of forbidden patterns F_1, ..., F_h (h >= 1): equal
    patterns in the same order make equal families."""

    def __new__(cls, patterns: Sequence[SimpleGraph]):
        pats = super().__new__(cls, patterns)
        if not pats:
            raise ValueError("a forbidden family needs at least one pattern")
        if any(p.n < 1 for p in pats):
            raise ValueError("patterns must have at least one vertex")
        return pats

    @cached_property
    def union(self) -> SimpleGraph:
        """F_1 ∪ ... ∪ F_h, the members' blocks in family order: a host
        contains the family exactly when it contains this one graph."""
        return disjoint_union(self)

    def __repr__(self) -> str:
        inner = ", ".join(repr(p) for p in self)
        return f"ForbiddenFamily([{inner}])"


def as_family(family) -> ForbiddenFamily:
    """``family`` itself when it already is a ForbiddenFamily, else a new one
    over the given patterns; the hot containment calls never copy."""
    if isinstance(family, ForbiddenFamily):
        return family
    return ForbiddenFamily(family)


PLAN_CACHE_SIZE = 256  # searches' plans kept; a miss only recompiles one


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
    """Yield host assignments indexed by pattern vertex, the image of slot
    i's vertex ``plan.order[i]`` drawn from ``doms[i]``.

    Forward checking on candidate bitsets (McCreesh, Prosser and Trimble,
    "The Glasgow Subgraph Solver", ICGT 2020): placing a slot ANDs its host
    row into each forward neighbour's domain, which also removes the used
    vertices, and a lex-leader partner's domain keeps only the vertices
    above the image; a domain that empties backtracks at once.  Candidates
    go in ascending host order, and once u has been tried at a slot, none
    of u's twins is tried there: when ``doms`` meet the module docstring's
    condition, it yields one assignment per class up to swapping host twins,
    and the lex-least in slot order of the valid ones that meet the pairs.
    The twin classes are built from ``adj`` at most once, when a slot first
    moves on to another candidate, so a search that succeeds on its first
    descent never builds them.  The yielded list is reused.
    """
    order, fwd, above = plan.order, plan.fwd, plan.above
    p = len(order)
    assign = [0] * p
    twin: Sequence[int] = ()

    def extend(i: int, doms: list[int], used: int) -> Iterator[list[int]]:
        nonlocal twin
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
                    assign[order[i]] = u
                    yield from extend(i + 1, nd, now)
            if cand:
                if not twin:
                    twin = twin_classes(adj)
                cand &= ~twin[u]

    try:
        yield from extend(0, doms, 0)
    finally:
        del extend  # the closure refers to itself: break the cycle


def _slots(pattern: SimpleGraph, pin: int | None) -> _Plan:
    """The plan without symmetry pairs.  The slots go component by component,
    ``pin``'s first and the others by least vertex (family order in a union),
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

    Each candidate image w of ``v`` outside its orbit mask gets one pinned
    self-embedding search; the cycles of every automorphism found merge the
    orbit masks.  Candidates go from the highest vertex down, so on K_p the
    first search finds a p-cycle.  Aut(F) itself is never enumerated.
    """
    p = pattern.n
    orbit = [1 << x for x in range(p)]
    deg = pattern.degrees()
    same = [
        sum(1 << w for w in range(p) if deg[w] == deg[x]) & ~fixed for x in range(p)
    ]
    for w in range(p - 1, -1, -1):
        if fixed >> w & 1 or deg[w] != deg[v] or orbit[v] >> w & 1:
            continue
        doms = [
            1 << x if fixed >> x & 1 else 1 << w if x == v else same[x]
            for x in plain.order
        ]
        for images in _search(plain, pattern.adj, doms):
            for x, image in enumerate(images):
                if not orbit[x] >> image & 1:
                    merged = orbit[x] | orbit[image]
                    for u in bits(merged):
                        orbit[u] = merged
            break
    return orbit[v]


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plans(pattern: SimpleGraph, pinned: bool) -> tuple[_Plan, ...]:
    """Every plan one search needs, in one cache lookup: the unpinned plan,
    or one plan pinned on the least vertex of each orbit of Aut(pattern).

    A plan is the slot order, the forward neighbours and lex-leader pairs.
    The pairs follow the pattern's stabilizer chain along the slot order
    (Grochow and Kellis, RECOMB 2007): slot i's image lies below the images
    of the other vertices in its orbit under the automorphisms fixing slots
    0..i-1.  Exactly one embedding of each automorphism class meets them
    all.  With a pin the chain starts at Stab(pin), so each copy through the
    pinned host vertex with the pin on it is found once, and the pin's own
    orbit marks the vertices that need no plan of their own.  Each orbit
    search maps v's component first: in block order, an image of v that v's
    component cannot map onto fails only after every automorphism of the
    components before it is tried.
    """
    plans, covered = [], 0
    for pin in range(pattern.n) if pinned else (None,):
        if pin is not None and covered >> pin & 1:
            continue
        plain = _slots(pattern, pin)
        above, fixed = [], 0
        for v in plain.order:
            orbit = _orbit(pattern, plain, fixed, v)
            if fixed or pin is None:
                orbit &= ~(1 << v)
                above.append(tuple(sorted(plain.order.index(w) for w in bits(orbit))))
            else:
                covered |= orbit
                above.append(())
            fixed |= 1 << v
        plans.append(_Plan(plain.order, plain.need, plain.fwd, tuple(above)))
    return tuple(plans)


def _iter_embeddings(
    host: SimpleGraph, pattern: SimpleGraph, through: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield one embedding (a pattern-indexed tuple) per copy of ``pattern``
    up to swapping host twins, a copy being an automorphism class of
    embeddings: every copy is the image of a yielded one under swaps within
    twin classes, and no two yielded ones are the same copy.

    With ``through``, yield one embedding per such class of copies that use
    that host vertex, the swaps fixing it: one search per orbit
    representative of Aut(pattern), pinned on it.  The degree domains are
    built once per call, and the twin classes only by a search that moves
    on from a tried candidate.  The first yielded embedding, the witness, is
    the lex-least (in slot order) of the embeddings that meet the lex-leader
    pairs.
    """
    if pattern.n > host.n:
        return
    degrees = host.degrees()
    fit: dict[int, int] = {}
    for plan in _plans(pattern, through is not None):
        for need in plan.need:
            if need not in fit:
                fit[need] = sum(1 << u for u, d in enumerate(degrees) if d >= need)
        doms = [fit[need] for need in plan.need]
        if through is not None:
            doms[0] &= 1 << through
        if not all(doms):
            continue
        for mapping in _search(plan, host.adj, doms):
            yield tuple(mapping)


def contains_subgraph(host: SimpleGraph, pattern: SimpleGraph) -> tuple[int, ...] | None:
    """An embedding of ``pattern`` in ``host`` (subgraph semantics), or None;
    entry i of the tuple is the image of pattern vertex i.

    The witness is the first the forward-checking search finds: the
    lex-least, in the slot order of ``_plans(pattern, False)``, of the
    embeddings that meet the lex-leader pairs, which twin pruning never
    skips.
    """
    for mapping in _iter_embeddings(host, pattern):
        return mapping
    return None


def contains_disjoint_family(host: SimpleGraph, family) -> list[tuple[int, ...]] | None:
    """Pairwise disjoint embeddings of every family member, or None.

    The witness is the first embedding of the family's union, sliced back
    into one embedding per member in family order.
    """
    fam = as_family(family)
    for mapping in _iter_embeddings(host, fam.union):
        images = iter(mapping)
        return [tuple(islice(images, p.n)) for p in fam]
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
