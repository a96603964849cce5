"""Exact extremal numbers at desk scale, by two independent routes.

``brute_force_ex`` enumerates isomorphism classes of family-free graphs one
vertex at a time.  ``best`` is the strongest known lower bound (seed
constructions plus two internal seeds: the Turan graph on chi_min - 1 parts,
and K_{t-1} plus isolated vertices where t is the family's total order).
Call the sorted degrees of a vertex's neighbours its invariant.  A child is
kept only when its new vertex has minimum degree in it, no other
minimum-degree vertex has a lexicographically larger invariant, and it has
at least b_s edges on s vertices, where b_n = best and
b_{s-1} = b_s - floor(2 b_s / s) (b stays at best while best <= 0).  The
retained set is complete: repeatedly deleting a minimum-degree vertex of
largest invariant takes any n-vertex graph G with at least best edges down
a chain G_n, ..., G_1 in which G_s is G_{s-1} plus a vertex w of minimum
degree whose invariant no other minimum-degree vertex of G_s exceeds.  A
vertex of minimum degree in an s-vertex graph with e edges has degree at
most floor(2e/s), and e - floor(2e/s) does not decrease with e for s >= 2,
so G_s has at least b_s edges (Katona, Nemetz and Simonovits, 1964); and
every G_s is free when G is.  So by induction level s holds a
representative of the class of every G_s: if P represents G_{s-1}, then
G_s is isomorphic to the child of P whose new vertex plays w, and that
child passes every test of ``_children``, the invariant test included,
because isomorphisms keep degrees and invariants.  The induction step uses
only that G_s is free with at least b_s edges, so level s holds every such
class, and ex(s) >= b_s by the chain of a free graph with best edges.  So
level s holds all of EX(s): ``levels`` records its largest edge count,
ex(s), and the number of its classes with that count, |EX(s)|, and
``threshold_scan`` reads each row of a scan off one run at its largest
order.  Freeness of a child is decided by a search
restricted to embeddings through the new vertex, which is exact because
the parent is already known to be free.  A neighbourhood mask of the new
vertex that an automorphism of the parent maps to a smaller mask is skipped
before its child is built: that child is a copy of an earlier one, and the
first child of every class is never skipped, so every level, count and
witness is the same as without the skip (the argument is at ``_children``).

``labeled_filter_ex`` is a deliberately different second oracle for n <= 7:
it holds all 2^C(n,2) labeled graphs as the bits of one Python int, indexed
by edge-set bitmask.  It marks every labeled copy of the forbidden union,
closes the marks upward over the edge slots (the superset zeta transform of
Bjorklund, Husfeldt, Kaski and Koivisto, "Fourier meets Mobius", 2007), so
every graph containing a copy is knocked out, and reads the largest edge
count off the survivors.  Its witnesses are the classes of the surviving
graphs with that many edges.  That set is closed under relabeling, and every
class has a labeling whose degrees do not decrease in vertex order (sort the
vertices by degree), so only those labelings are certified, as in orderly
generation (Read, "Every one a winner", Ann. Discrete Math. 2, 1978).  The
two oracles share no search code, so their agreement is a real cross-check.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from itertools import permutations
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from .canonical import automorphisms, canonical_form, certificate
from .coloring import chromatic_number
from .containment import (
    ForbiddenFamily,
    as_family,
    contains_disjoint_family_through,
    is_free,
)
from .graph6 import Artifact, decode_graph6, encode_graph6
from .graphs import SimpleGraph, bits, complete, disjoint_union, turan

# the largest order brute_force_ex accepts without allow_large=True
HARD_CAP = 10


@dataclass(frozen=True)
class SearchBudget:
    """Caps on an enumeration run; None disables the corresponding cap.

    Both caps are checked once per admitted isomorphism class, so whatever
    runs before the first check or between two checks runs unchecked: the
    validation of the seeds, the internal Turán seed's freeness check among
    them, and the mask scan of each parent.  At large n those alone can far
    outlast ``max_seconds``.  The scan reads the parent's automorphisms
    without a search: the ``certificate`` call that admitted the parent
    found them and kept them on the graph.
    """

    max_candidates: int | None = None
    max_seconds: float | None = None

    def __post_init__(self):
        if self.max_candidates is not None and self.max_candidates < 1:
            raise ValueError(f"max_candidates must be >= 1, got {self.max_candidates}")
        if self.max_seconds is not None and not self.max_seconds > 0:
            raise ValueError(f"max_seconds must be positive, got {self.max_seconds}")


@dataclass(frozen=True)
class ExtremalResult(Artifact):
    """Outcome of an extremal computation.

    ``witnesses`` lists the extremal graphs up to isomorphism, sorted by
    canonical certificate, each in its canonical labeling
    (``canonical_form``), so their bytes depend only on the isomorphism
    class.  ``exhaustive`` is False only on partial results attached to a
    budget error, where ``ex_value`` is just the best known lower bound (-1
    when no free graph on n vertices has been seen) and ``witnesses`` is
    empty.  ``candidates`` counts isomorphism classes
    admitted by the level search, or labeled free graphs for the filter
    oracle.  ``levels`` holds (ex(s), |EX(s)|) for each level s >= 1 that
    the level search completed; it is run diagnostics, neither serialized
    nor compared, so a result equals its ``from_json_dict`` round trip.
    """

    n: int
    family: ForbiddenFamily
    ex_value: int
    witnesses: tuple[SimpleGraph, ...]
    exhaustive: bool
    candidates: int
    levels: tuple[tuple[int, int], ...] = field(default=(), compare=False)

    def to_json_dict(self) -> dict:
        return {
            "schema": "extremal-result/1",
            "n": self.n,
            "family": [encode_graph6(p) for p in self.family],
            "ex_value": self.ex_value,
            "witness_count": len(self.witnesses),
            "witnesses": [encode_graph6(w) for w in self.witnesses],
            "exhaustive": self.exhaustive,
            "candidates": self.candidates,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExtremalResult":
        """Read a result, rejecting a missing key, a ``witness_count`` other
        than the number of witnesses, and a witness whose order is not n."""
        if data.get("schema") != "extremal-result/1":
            raise ValueError(f"unknown result schema: {data.get('schema')!r}")
        try:
            result = cls(
                n=data["n"],
                family=ForbiddenFamily([decode_graph6(s) for s in data["family"]]),
                ex_value=data["ex_value"],
                witnesses=tuple(decode_graph6(s) for s in data["witnesses"]),
                exhaustive=data["exhaustive"],
                candidates=data["candidates"],
            )
            count = data["witness_count"]
        except KeyError as err:
            raise ValueError(f"result document lacks the key {err}") from None
        if count != len(result.witnesses):
            raise ValueError(f"witness_count {count} != {len(result.witnesses)} witnesses")
        if any(w.n != result.n for w in result.witnesses):
            raise ValueError(f"a witness's order is not n = {result.n}")
        return result


class BudgetExceededError(RuntimeError):
    """Raised when a budget cap trips; ``partial`` holds what is known."""

    def __init__(self, message: str, partial: ExtremalResult):
        super().__init__(message)
        self.partial = partial


def _augment(parent: SimpleGraph, nb_mask: int) -> SimpleGraph:
    """Add one vertex adjacent to exactly the masked parent vertices."""
    m = parent.n
    rows = list(parent.adj)
    rows.append(nb_mask)
    mask = nb_mask
    while mask:
        low = mask & -mask
        rows[low.bit_length() - 1] |= 1 << m
        mask ^= low
    return SimpleGraph._from_rows(m + 1, rows)


def _children(
    parent: SimpleGraph, fam: ForbiddenFamily, bound: int
) -> Iterator[SimpleGraph]:
    """One vertex more: yield the parent's free children in ascending mask
    order, where a mask is the new vertex's neighbourhood.

    A child is kept when the new vertex has minimum degree in it, it has at
    least ``bound`` edges, no other minimum-degree vertex (a rival) has a
    larger invariant (the sorted degrees of its neighbours in the child,
    lists of equal length compared lexicographically) and it is free.
    Three rules run on each mask in this order: the degree rule and the
    edge bound, the automorphism skip below, then the invariant test.  All
    three read the parent and the mask only, so a rejected child is never
    built, certified or searched for the family.  The skip maps the mask
    through a few permutations, while the invariant test sorts a list per
    rival, so the skip runs first: on the seeded union jobs running the
    test first was measurably slower.  The invariant test is the invariant
    half of condition (b) of McKay's canonical augmentation (Isomorph-free
    exhaustive generation, J. Algorithms 26, 1998): the new vertex must be
    a minimum-degree vertex of largest invariant, and ties are left to the
    caller's certificates.

    A mask that one of the parent's automorphisms (``automorphisms``) maps
    to a smaller mask is skipped before its child is built.  They cost no
    search: the ``certificate`` call that admitted the parent found them
    and left them on the graph.  The caller, which admits the first child
    of each class, sees the same classes as without the skip: the edge
    bound, the degree rule, the invariant test, freeness and the class of
    the child are all invariant under Aut(parent), so the image mask is
    admissible, passes the invariant test and has a free child exactly
    when this one does, and its child is isomorphic to this one.  Nothing
    maps the least mask of an orbit lower, so it is never skipped, and
    masks are scanned in ascending order, so it comes first.  Each parent
    thus yields the same first labeled child of each class as a scan
    without the skip, the caller keeps the same representatives, and every
    level, count and budget partial is the same.  The permutations need
    only be automorphisms, not generate Aut(parent): a mask that none of
    them maps lower is still yielded, and the caller drops it when its
    class is known.  This is condition (a) of McKay's canonical
    augmentation.
    """
    m = parent.n
    adj = parent.adj
    deg = parent.degrees()
    low = min(deg, default=0)
    # at[d]: the parent vertices of degree d
    at: dict[int, int] = {}
    for u, d in enumerate(deg):
        at[d] = at.get(d, 0) | 1 << u
    # the new vertex of degree k has minimum degree iff k <= low, or
    # k == low + 1 and it is adjacent to every vertex of degree low
    low_mask = at.get(low, 0)
    need = bound - parent.edge_count
    auts = automorphisms(parent)
    for nb in range(1 << m):
        k = nb.bit_count()
        if k < need or k > low + 1 or (k > low and low_mask & ~nb):
            continue
        if any(sum(1 << gamma[x] for x in bits(nb)) < nb for gamma in auts):
            continue
        # the rivals have degree k in the child: degree k outside the mask,
        # or k - 1 inside it; a masked vertex gains one degree, and a masked
        # rival gains the new vertex, of degree k, as a neighbour
        rivals = at.get(k, 0) & ~nb | at.get(k - 1, 0) & nb
        if rivals:
            mine = sorted(deg[x] + 1 for x in bits(nb))
            if any(
                sorted(
                    [deg[x] + (nb >> x & 1) for x in bits(adj[u])]
                    + [k] * (nb >> u & 1)
                ) > mine
                for u in bits(rivals)
            ):
                continue
        child = _augment(parent, nb)
        if not contains_disjoint_family_through(child, fam, m):
            yield child


def _check_order(n: int, allow_large: bool) -> None:
    """Raise ValueError unless ``brute_force_ex`` accepts the order ``n``."""
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    if n > HARD_CAP and not allow_large:
        raise ValueError(
            f"n={n} exceeds HARD_CAP={HARD_CAP}; "
            "pass allow_large=True (--allow-large) to force"
        )


def brute_force_ex(
    n: int,
    family: ForbiddenFamily | Sequence[SimpleGraph],
    budget: SearchBudget | None = None,
    seeds: Sequence[SimpleGraph] = (),
    allow_large: bool = False,
) -> ExtremalResult:
    """Exact ex(n, family) with the complete witness list up to isomorphism.

    ``seeds`` are caller-supplied n-vertex graphs known to be free; they
    tighten the per-level pruning bound and are re-validated here (a wrong
    seed would silently corrupt the answer, so it raises instead).  Orders
    above ``HARD_CAP`` need ``allow_large=True``.  Raises ValueError when no
    graph on n vertices avoids the family, which happens exactly when the
    union has no edges and fits inside n vertices.
    """
    fam = as_family(family)
    _check_order(n, allow_large)

    started = time.monotonic()
    best = -1
    for seed in seeds:
        if seed.n != n:
            raise ValueError(f"seed has {seed.n} vertices, expected {n}")
        if not is_free(seed, fam):
            raise ValueError("seed contains the forbidden family")
        best = max(best, seed.edge_count)
    if fam.union.n > n:
        # the union cannot fit at all, so the complete graph is the unique
        # extremal graph
        return ExtremalResult(n, fam, comb(n, 2), (complete(n),), True, 1)
    r = min(chromatic_number(p) for p in fam) - 1
    if r >= 1:
        t = turan(n, r)
        assert is_free(t, fam), "internal seed must be free"
        best = max(best, t.edge_count)
    # K_k plus isolated vertices has k = union.n - 1 vertices of positive
    # degree, too few for a copy of the union unless a pattern has an
    # isolated vertex; then it may contain one, so it is checked
    k = fam.union.n - 1
    clique = disjoint_union([complete(k), SimpleGraph(n - k)])
    if is_free(clique, fam):
        best = max(best, clique.edge_count)

    # bounds[s]: the fewest edges the s-vertex graph of a min-degree
    # deletion chain of a graph with >= best edges can have
    bounds = [best] * (n + 1)
    for s in range(n, 1, -1):
        b = bounds[s]
        bounds[s - 1] = b - 2 * b // s if b > 0 else b
    budget = budget or SearchBudget()
    cap, secs = budget.max_candidates, budget.max_seconds
    candidates = 0
    current = [SimpleGraph(0)]
    levels: tuple[tuple[int, int], ...] = ()
    for size in range(1, n + 1):
        # the one place a class is admitted: its first child, by certificate
        level: dict[bytes, SimpleGraph] = {}
        for parent in current:
            for child in _children(parent, fam, bounds[size]):
                cert = certificate(child)
                if cert in level:
                    continue
                level[cert] = child
                candidates += 1
                if size == n:
                    best = max(best, child.edge_count)
                if cap is not None and candidates > cap:
                    over = f"candidate cap {cap} exceeded"
                elif secs is not None and time.monotonic() - started > secs:
                    over = f"time cap {secs}s exceeded"
                else:
                    continue
                partial = ExtremalResult(n, fam, best, (), False, candidates, levels)
                raise BudgetExceededError(over, partial)
        if not level:
            raise ValueError(
                f"every graph on {n} vertices contains the family; ex is undefined"
            )
        current = [level[c] for c in sorted(level)]
        top = max(g.edge_count for g in current)
        levels += ((top, sum(g.edge_count == top for g in current)),)

    witnesses = tuple(
        canonical_form(g)[1] for g in current if g.edge_count == best
    )
    assert witnesses, "a validated seed must be rediscovered at the top level"
    return ExtremalResult(n, fam, best, witnesses, True, candidates, levels)


def labeled_filter_ex(
    n: int, family: ForbiddenFamily | Sequence[SimpleGraph]
) -> ExtremalResult:
    """Exact ex(n, family) over the full labeled space, n <= 7.

    ``candidates`` reports the number of labeled free graphs.  Witnesses are
    deduplicated to isomorphism classes and sorted by certificate, so the
    result is directly comparable with brute_force_ex.  Only the top graphs
    whose degrees do not decrease in vertex order are certified: relabeling
    keeps a graph free and its edge count, and sorting the vertices by
    degree gives every class such a labeling (Read, 1978).
    """
    fam = as_family(family)
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    if n > 7:
        raise ValueError(
            f"the labeled filter holds all 2^C(n,2) graphs, so n <= 7; got n={n}"
        )
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    index = {p: e for e, p in enumerate(pairs)}

    # every relabeling of the union is marked; a union on more than n
    # vertices has no image, so nothing is marked
    union = fam.union
    uedges = union.edges()
    masks: set[int] = set()
    for image in permutations(range(n), union.n):
        m = 0
        for a, b in uedges:
            x, y = image[a], image[b]
            if x > y:
                x, y = y, x
            m |= 1 << index[(x, y)]
        masks.add(m)

    # bit m of an int stands for the labeled graph with edge-set mask m; at
    # most C(7,2) = 21 edge slots, so each int has at most 2^21 bits
    size = 1 << len(pairs)
    marks = bytearray((size + 7) // 8)
    for m in masks:
        marks[m >> 3] |= 1 << (m & 7)
    bad = int.from_bytes(marks, "little")
    # close bad upward one slot at a time (the superset zeta transform):
    # a mask with bit e set inherits the mark of the mask without it, so
    # after the last slot every supergraph of a forbidden copy is marked;
    # the same pass sorts the masks into level[c], those with c edges
    level = [1]
    for e in range(len(pairs)):
        step = 1 << e
        has_e, width = ((1 << step) - 1) << step, 2 * step
        while width < size:
            has_e |= has_e << width
            width *= 2
        bad |= (bad << step) & has_e
        # in place with c descending, so level[c - 1] still holds its value
        # from before this slot; a second list of 2^21-bit ints would double
        # the peak memory
        level.append(0)
        for c in range(len(level) - 1, 0, -1):
            level[c] |= level[c - 1] << step
    free = ((1 << size) - 1) & ~bad
    if not free:
        raise ValueError(
            f"every graph on {n} vertices contains the family; ex is undefined"
        )
    ex_value = max(c for c, lv in enumerate(level) if free & lv)
    top = free & level[ex_value]
    del level, bad  # freed before the 2^21-character string below
    # incident[v]: the edge slots at v, so a mask's degree at v is a popcount
    incident = [0] * n
    for e, (i, j) in enumerate(pairs):
        incident[i] |= 1 << e
        incident[j] |= 1 << e

    classes: dict[bytes, SimpleGraph] = {}
    # the character at pos stands for mask len(bits) - 1 - pos; scanning
    # from the right visits the masks in ascending order without a
    # reversed copy
    bits = bin(top)
    pos = bits.rfind("1")
    while pos >= 0:
        mask = len(bits) - 1 - pos
        pos = bits.rfind("1", 0, pos)
        # only labelings with non-decreasing degrees are certified: the top
        # set is closed under relabeling, so every class keeps one
        prev = 0
        for inc in incident:
            d = (mask & inc).bit_count()
            if d < prev:
                break
            prev = d
        else:
            rows = [0] * n
            for e, (i, j) in enumerate(pairs):
                if mask >> e & 1:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
            g = SimpleGraph._from_rows(n, rows)
            classes.setdefault(certificate(g), g)
    witnesses = tuple(canonical_form(classes[c])[1] for c in sorted(classes))
    return ExtremalResult(n, fam, ex_value, witnesses, True, free.bit_count())


@dataclass(frozen=True)
class ThresholdRow:
    """One scanned order: formula value vs oracle value.

    ``oracle``/``witness_count``/``match`` are None when the scan's one
    budget tripped at level s and n >= max(s, t), t the order of the
    family's union, leaving the row unknown: below t, K_n is the answer.
    """

    n: int
    formula: int
    oracle: int | None
    witness_count: int | None
    match: bool | None


@dataclass(frozen=True)
class ThresholdReport(Artifact):
    """Formula-vs-oracle comparison across a range of orders.

    ``first_agreement`` is the order starting the maximal trailing run of
    matching rows (None when the last row is unknown or disagrees), i.e. the
    empirical onset of the formula within the scanned window.
    """

    family: ForbiddenFamily
    rows: tuple[ThresholdRow, ...]
    first_agreement: int | None

    def to_json_dict(self) -> dict:
        return {
            "schema": "threshold-report/1",
            "family": [encode_graph6(p) for p in self.family],
            "rows": [asdict(r) for r in self.rows],
            "first_agreement": self.first_agreement,
        }

    def to_text(self) -> str:
        lines = [f"{'n':>4}  {'formula':>8}  {'oracle':>7}  {'witnesses':>9}  match"]
        for r in self.rows:
            if r.match is None:
                oracle, wit, match = "?", "?", "unknown"
            else:
                oracle, wit = str(r.oracle), str(r.witness_count)
                match = "yes" if r.match else "NO"
            lines.append(
                f"{r.n:>4}  {r.formula:>8}  {oracle:>7}  {wit:>9}  {match}"
            )
        if self.first_agreement is None:
            lines.append("no trailing agreement in the scanned range")
        else:
            lines.append(f"formula agrees from n = {self.first_agreement} onward")
        return "\n".join(lines) + "\n"


def threshold_scan(
    family: ForbiddenFamily | Sequence[SimpleGraph],
    n_range: Iterable[int],
    formula: Callable[[int], int],
    budget: SearchBudget | None = None,
    seeds_provider: Callable[[int], Sequence[SimpleGraph]] | None = None,
    allow_large: bool = False,
) -> ThresholdReport:
    """Compare a closed-form formula with the exact oracle over n_range.

    Every order is checked and the formula evaluated at each before any
    oracle work.  Then ``seeds_provider`` (known free graphs, or an empty
    sequence) is called once, at the largest order N, and ``brute_force_ex``
    runs once at N under the one budget; the rows are read off its
    ``levels``.  A trip at level s leaves the rows from max(s, t) up
    unknown, t the order of the family's union: below t, K_n is the answer.
    """
    fam = as_family(family)
    orders = list(n_range)
    for n in orders:
        _check_order(n, allow_large)
    formulas = [int(formula(n)) for n in orders]
    levels: tuple[tuple[int, int], ...] = ()
    if orders:
        top = max(orders)
        seeds = tuple(seeds_provider(top)) if seeds_provider is not None else ()
        try:
            levels = brute_force_ex(top, fam, budget, seeds, allow_large).levels
        except BudgetExceededError as err:
            levels = err.partial.levels
    # exact[n]: (ex(n), |EX(n)|), and K_n alone below the union's order
    k = fam.union.n
    exact = [(comb(n, 2), 1) for n in range(k)] + list(levels[k - 1:])
    rows: list[ThresholdRow] = []
    for n, value in zip(orders, formulas):
        ex, count = exact[n] if n < len(exact) else (None, None)
        match = None if ex is None else ex == value
        rows.append(ThresholdRow(n, value, ex, count, match))
    first = None
    for row in reversed(rows):
        if row.match:
            first = row.n
        else:
            break
    return ThresholdReport(fam, tuple(rows), first)


@dataclass(frozen=True)
class MaximalityReport:
    """Edge-maximality audit: ``violations`` lists non-edges whose addition
    leaves the graph free, so the graph is maximal iff that list is empty."""

    maximal: bool
    violations: tuple[tuple[int, int], ...]


def maximality_audit(
    g: SimpleGraph, family: ForbiddenFamily | Sequence[SimpleGraph]
) -> MaximalityReport:
    """Check that every single-edge addition creates the forbidden family.

    The input must itself be free (raises otherwise).  Each probe only
    searches embeddings through one endpoint of the added edge: an embedding
    avoiding that endpoint would live inside the original free graph.
    """
    fam = as_family(family)
    if not is_free(g, fam):
        raise ValueError("graph already contains the family; maximality is moot")
    violations = []
    for u, v in g.non_edges():
        probe = g.with_edge(u, v)
        if not contains_disjoint_family_through(probe, fam, u):
            violations.append((u, v))
    return MaximalityReport(not violations, tuple(violations))
