"""Exact extremal numbers at desk scale, by two independent routes.

``brute_force_ex`` enumerates isomorphism classes of family-free graphs one
vertex at a time.  ``best`` is the strongest known lower bound (seed
constructions plus two internal seeds: the Turan graph on chi_min - 1 parts,
and K_{t-1} plus isolated vertices where t is the family's total order).  A
child is kept only when its new vertex has minimum degree in it and it has
at least b_s edges on s vertices, where b_n = best and
b_{s-1} = b_s - floor(2 b_s / s) (b stays at best while best <= 0).  The
retained set is complete: repeatedly deleting a minimum-degree vertex takes
any n-vertex graph G with at least best edges down a chain G_n, ..., G_1 in
which G_s is G_{s-1} plus a vertex of minimum degree; a vertex of minimum
degree in an s-vertex graph with e edges has degree at most floor(2e/s), and
e - floor(2e/s) does not decrease with e for s >= 2, so G_s has at least b_s
edges (Katona, Nemetz and Simonovits, 1964); and every G_s is free when G
is.  So by induction level s holds a representative of the class of every
G_s, and the top level holds every extremal class.  Freeness of a child is
decided by a search restricted to embeddings through the new vertex, which
is exact because the parent is already known to be free.

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
from dataclasses import dataclass
from itertools import permutations
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from .canonical import canonical_form, certificate
from .containment import (
    ForbiddenFamily,
    as_family,
    contains_disjoint_family_through,
    is_free,
)
from .graph6 import decode_graph6, encode_graph6, json_doc
from .graphs import SimpleGraph, complete, disjoint_union, turan

# the largest order brute_force_ex accepts without allow_large=True
HARD_CAP = 10


@dataclass(frozen=True)
class SearchBudget:
    """Caps on an enumeration run; None disables the corresponding cap."""

    max_candidates: int | None = None
    max_seconds: float | None = None

    def __post_init__(self):
        if self.max_candidates is not None and self.max_candidates < 1:
            raise ValueError(f"max_candidates must be >= 1, got {self.max_candidates}")
        if self.max_seconds is not None and not self.max_seconds > 0:
            raise ValueError(f"max_seconds must be positive, got {self.max_seconds}")


@dataclass(frozen=True)
class ExtremalResult:
    """Outcome of an extremal computation.

    ``witnesses`` lists the extremal graphs up to isomorphism, sorted by
    canonical certificate, each in its canonical labeling
    (``canonical_form``), so their bytes depend only on the isomorphism
    class.  ``exhaustive`` is False only on partial results attached to a
    budget error, where ``ex_value`` is just the best known lower bound (-1
    when no free graph on n vertices has been seen) and ``witnesses`` is
    empty.  ``candidates`` counts isomorphism classes
    admitted by the level search, or labeled free graphs for the filter
    oracle.
    """

    n: int
    family: ForbiddenFamily
    ex_value: int
    witnesses: tuple[SimpleGraph, ...]
    exhaustive: bool
    candidates: int

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

    def to_json(self) -> str:
        return json_doc(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExtremalResult":
        if data.get("schema") != "extremal-result/1":
            raise ValueError(f"unknown result schema: {data.get('schema')!r}")
        return cls(
            n=data["n"],
            family=ForbiddenFamily([decode_graph6(s) for s in data["family"]]),
            ex_value=data["ex_value"],
            witnesses=tuple(decode_graph6(s) for s in data["witnesses"]),
            exhaustive=data["exhaustive"],
            candidates=data["candidates"],
        )


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


def _next_level(
    level: Iterable[SimpleGraph], fam: ForbiddenFamily, bound: int
) -> Iterator[tuple[bytes, SimpleGraph]]:
    """One vertex more: yield (certificate, graph) once per new class.

    A child is the parent plus one vertex; it is kept when the new vertex
    has minimum degree in it, it has at least ``bound`` edges and it is
    free.  The degree test reads the parent's degrees and the mask only,
    so a rejected child is never built.
    """
    seen: set[bytes] = set()
    for parent in level:
        m = parent.n
        deg = parent.degrees()
        low = min(deg, default=0)
        # the new vertex of degree k has minimum degree iff k <= low, or
        # k == low + 1 and it is adjacent to every vertex of degree low
        low_mask = sum(1 << u for u, d in enumerate(deg) if d == low)
        need = bound - parent.edge_count
        for nb in range(1 << m):
            k = nb.bit_count()
            if k < need or k > low + 1 or (k > low and low_mask & ~nb):
                continue
            child = _augment(parent, nb)
            if contains_disjoint_family_through(child, fam, m):
                continue
            cert = certificate(child)
            if cert in seen:
                continue
            seen.add(cert)
            yield cert, child


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
    graph on n vertices avoids the family, which happens exactly when some
    pattern with no edges fits inside n vertices.
    """
    fam = as_family(family)
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    if n > HARD_CAP and not allow_large:
        raise ValueError(
            f"n={n} exceeds HARD_CAP={HARD_CAP}; "
            "pass allow_large=True (--allow-large) to force"
        )

    if fam.total_order > n:
        # the union cannot fit at all, so the complete graph is the unique
        # extremal graph
        return ExtremalResult(n, fam, comb(n, 2), (complete(n),), True, 1)

    started = time.monotonic()
    best = -1
    for seed in seeds:
        if seed.n != n:
            raise ValueError(f"seed has {seed.n} vertices, expected {n}")
        if not is_free(seed, fam):
            raise ValueError("seed contains the forbidden family")
        best = max(best, seed.edge_count)
    r = fam.min_chromatic - 1
    if r >= 1:
        t = turan(n, r)
        assert is_free(t, fam), "internal seed must be free"
        best = max(best, t.edge_count)
    # K_k plus isolated vertices has k = total_order - 1 vertices of positive
    # degree, too few for a copy of the union unless a pattern has an
    # isolated vertex; then it may contain one, so it is checked
    k = fam.total_order - 1
    clique = disjoint_union([complete(k), SimpleGraph(n - k)])
    if is_free(clique, fam):
        best = max(best, clique.edge_count)

    candidates = 0

    def check_budget():
        if budget is None:
            return
        over = None
        if budget.max_candidates is not None and candidates > budget.max_candidates:
            over = f"candidate cap {budget.max_candidates} exceeded"
        elif (
            budget.max_seconds is not None
            and time.monotonic() - started > budget.max_seconds
        ):
            over = f"time cap {budget.max_seconds}s exceeded"
        if over is not None:
            partial = ExtremalResult(n, fam, best, (), False, candidates)
            raise BudgetExceededError(over, partial)

    # bounds[s]: the fewest edges the s-vertex graph of a min-degree
    # deletion chain of a graph with >= best edges can have
    bounds = [best] * (n + 1)
    for s in range(n, 1, -1):
        b = bounds[s]
        bounds[s - 1] = b - 2 * b // s if b > 0 else b
    current = [SimpleGraph(0)]
    for size in range(1, n + 1):
        seen: dict[bytes, SimpleGraph] = {}
        for cert, child in _next_level(current, fam, bounds[size]):
            seen[cert] = child
            candidates += 1
            check_budget()
        current = [seen[c] for c in sorted(seen)]

    if not current:
        raise ValueError(
            f"every graph on {n} vertices contains the family; ex is undefined"
        )
    top = max(g.edge_count for g in current)
    ex_value = max(best, top)
    witnesses = tuple(
        canonical_form(g)[1] for g in current if g.edge_count == ex_value
    )
    assert witnesses, "a validated seed must be rediscovered at the top level"
    return ExtremalResult(n, fam, ex_value, witnesses, True, candidates)


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

    # every relabeling of the union is marked, so its block order is moot
    union = fam.union
    masks: set[int] = set()
    if union.n <= n:
        uedges = union.edges()
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

    ``oracle_value``/``witness_count``/``match`` are None when the budget
    tripped at this order, leaving it unknown.
    """

    n: int
    formula_value: int
    oracle_value: int | None
    witness_count: int | None
    match: bool | None


@dataclass(frozen=True)
class ThresholdReport:
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
            "rows": [
                {
                    "n": r.n,
                    "formula": r.formula_value,
                    "oracle": r.oracle_value,
                    "witness_count": r.witness_count,
                    "match": r.match,
                }
                for r in self.rows
            ],
            "first_agreement": self.first_agreement,
        }

    def to_json(self) -> str:
        return json_doc(self.to_json_dict())

    def to_text(self) -> str:
        lines = [f"{'n':>4}  {'formula':>8}  {'oracle':>7}  {'witnesses':>9}  match"]
        for r in self.rows:
            if r.match is None:
                oracle, wit, match = "?", "?", "unknown"
            else:
                oracle, wit = str(r.oracle_value), str(r.witness_count)
                match = "yes" if r.match else "NO"
            lines.append(
                f"{r.n:>4}  {r.formula_value:>8}  {oracle:>7}  {wit:>9}  {match}"
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

    ``seeds_provider`` may supply known free graphs per order to speed the
    oracle up; it must return an empty sequence where it has nothing.
    Budget trips mark single rows unknown instead of aborting the scan.
    """
    fam = as_family(family)
    rows: list[ThresholdRow] = []
    for n in n_range:
        formula_value = int(formula(n))
        seeds = tuple(seeds_provider(n)) if seeds_provider is not None else ()
        try:
            res = brute_force_ex(
                n, fam, budget=budget, seeds=seeds, allow_large=allow_large
            )
        except BudgetExceededError:
            rows.append(ThresholdRow(n, formula_value, None, None, None))
            continue
        rows.append(
            ThresholdRow(
                n, formula_value, res.ex_value, len(res.witnesses),
                res.ex_value == formula_value,
            )
        )
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
