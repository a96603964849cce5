"""Structural diagnostics for extremal graphs.

The extremal characterization says each extremal graph for a properly
ordered family splits as a clique joined onto a smaller extremal graph.
This module makes the machinery around that statement executable at desk
scale: minimum-internal-edge r-partitions, the degree-threshold W-set of a
partition, a minimum-degree audit, and the clique/inner-graph structure
audit itself.

The graph's order picks the partition method: an exact subset DP up to
``EXACT_CAP`` vertices, and above it a seeded multi-start local search with
single-vertex moves: shift a vertex to the part where it has strictly fewer
neighbors.  Every move lowers the internal edge total, so the search
terminates, and a fixpoint is exactly a partition where each vertex already
sits in a part minimizing its internal degree.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

from .containment import ForbiddenFamily, as_family, contains_subgraph, is_free
from .graph6 import Artifact
from .graphs import SimpleGraph


@dataclass(frozen=True)
class PartitionDiagnostics(Artifact):
    """An r-partition with its internal-edge count and degree-threshold set.

    ``w_set`` holds the vertices whose internal degree (neighbors inside
    their own part) is at least theta * n.
    """

    parts: tuple[tuple[int, ...], ...]
    internal_edges: int
    theta: float
    w_set: tuple[int, ...]
    mode: str

    def to_json_dict(self) -> dict:
        return {
            "schema": "partition-diagnostics/1",
            "parts": [list(p) for p in self.parts],
            "internal_edges": self.internal_edges,
            "theta": self.theta,
            "w_set": list(self.w_set),
            "mode": self.mode,
        }


def _part_masks(g: SimpleGraph, parts: Sequence[Sequence[int]]) -> list[int]:
    masks = []
    seen = 0
    for part in parts:
        m = 0
        for v in part:
            if not 0 <= v < g.n:
                raise ValueError(f"vertex {v} out of range for n={g.n}")
            m |= 1 << v
        if m & seen:
            raise ValueError("parts overlap")
        seen |= m
        masks.append(m)
    if seen != (1 << g.n) - 1:
        raise ValueError("parts do not cover the vertex set")
    return masks


def _layout(g: SimpleGraph, masks: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The parts of a partition given as bitmasks, each in vertex order."""
    return tuple(tuple(v for v in range(g.n) if m >> v & 1) for m in masks)


def _internal_edges(g: SimpleGraph, masks: Sequence[int]) -> int:
    total = 0
    for m in masks:
        total += sum((g.adj[v] & m).bit_count() for v in range(g.n) if m >> v & 1)
    return total // 2


def w_set(
    g: SimpleGraph, parts: Sequence[Sequence[int]], theta: float
) -> tuple[int, ...]:
    """Vertices with at least theta * n neighbors inside their own part."""
    if not 0 < theta < 1:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    masks = _part_masks(g, parts)
    out = []
    for m in masks:
        for v in range(g.n):
            if m >> v & 1 and (g.adj[v] & m).bit_count() >= theta * g.n:
                out.append(v)
    return tuple(sorted(out))


# the largest order partitioned exactly: the subset DP holds 2**n entries
EXACT_CAP = 14
# above EXACT_CAP: restarts of the local search and the seed of their RNG
LOCAL_SEARCH_STARTS = 20
LOCAL_SEARCH_SEED = 0


def _exact_min_partition(g: SimpleGraph, r: int) -> list[int]:
    """Globally minimum internal-edge r-partition, as part bitmasks.

    Subset DP: split off one part at a time.  Each chosen part must contain
    the lowest remaining vertex, which halves the submask work without
    losing any unordered partition.  Ties prefer the numerically smallest
    part mask, so the result is deterministic.  Parts beyond the order are
    empty, so the DP splits into min(r, n) parts (at least one) and the
    r - min(r, n) empty parts come first.
    """
    n = g.n
    k = min(r, max(n, 1))
    full = (1 << n) - 1
    esub = [0] * (1 << n)
    adj = g.adj
    for mask in range(1, 1 << n):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        esub[mask] = esub[rest] + (adj[v] & rest).bit_count()

    prev = esub[:]
    choices: list[list[int]] = []
    for _ in range(k - 1):
        cur = [0] * (1 << n)
        ch = [0] * (1 << n)
        for s in range(1, 1 << n):
            low = s & -s
            body = s ^ low
            # the split-off part is t | low for every submask t of body
            t = body
            best = prev[body] + esub[low]
            best_t = low
            while t:
                part = t | low
                val = prev[s ^ part] + esub[part]
                if val < best or (val == best and part < best_t):
                    best, best_t = val, part
                t = (t - 1) & body
            cur[s], ch[s] = best, best_t
        prev = cur
        choices.append(ch)

    masks: list[int] = []
    s = full
    for ch in reversed(choices):
        part = ch[s] if s else 0
        masks.append(part)
        s ^= part
    masks.append(s)
    masks += [0] * (r - k)
    masks.reverse()
    return masks


def _local_search_once(g: SimpleGraph, r: int, rng: random.Random) -> list[int]:
    n = g.n
    adj = g.adj
    assign = [rng.randrange(r) for _ in range(n)]
    masks = [0] * r
    for v, i in enumerate(assign):
        masks[i] |= 1 << v
    moved = True
    while moved:
        moved = False
        for v in range(n):
            i = assign[v]
            row = adj[v]
            target = i
            best = (row & masks[i]).bit_count()
            for j in range(r):
                if j == i:
                    continue
                d = (row & masks[j]).bit_count()
                if d < best:
                    target, best = j, d
            if target != i:
                masks[i] ^= 1 << v
                masks[target] |= 1 << v
                assign[v] = target
                moved = True
    return masks


def is_vertex_move_optimal(g: SimpleGraph, parts: Sequence[Sequence[int]]) -> bool:
    """True iff no vertex has strictly fewer neighbors in another part."""
    masks = _part_masks(g, parts)
    for i, m in enumerate(masks):
        for v in range(g.n):
            if not m >> v & 1:
                continue
            here = (g.adj[v] & m).bit_count()
            for j, other in enumerate(masks):
                if j != i and (g.adj[v] & other).bit_count() < here:
                    return False
    return True


def _local_search(g: SimpleGraph, r: int, seed: int) -> list[int]:
    """Best of LOCAL_SEARCH_STARTS seeded vertex-move descents, as part masks.

    Ties are broken by the lexicographically least part layout.  The result
    is always vertex-move optimal but only heuristically minimum.
    """
    rng = random.Random(seed)
    runs = [_local_search_once(g, r, rng) for _ in range(LOCAL_SEARCH_STARTS)]
    return min(runs, key=lambda masks: (_internal_edges(g, masks), _layout(g, masks)))


def min_internal_partition(
    g: SimpleGraph, r: int, theta: float = 0.1
) -> PartitionDiagnostics:
    """Partition V(g) into r parts minimizing the internal edge total.

    Graphs of at most EXACT_CAP vertices get the exact minimum from the
    subset DP; larger ones get the local search with LOCAL_SEARCH_STARTS
    restarts seeded by LOCAL_SEARCH_SEED.  ``mode`` of the result names the
    method that ran.
    """
    if r < 2:
        raise ValueError(f"need r >= 2, got r={r}")
    if not 0 < theta < 1:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    if g.n <= EXACT_CAP:
        mode, masks = "exact", _exact_min_partition(g, r)
    else:
        mode, masks = "local-search", _local_search(g, r, LOCAL_SEARCH_SEED)

    parts = _layout(g, masks)
    return PartitionDiagnostics(
        parts=parts,
        internal_edges=_internal_edges(g, masks),
        theta=theta,
        w_set=w_set(g, parts, theta),
        mode=mode,
    )


def min_degree_audit(g: SimpleGraph, r: int, theta: float) -> bool:
    """True iff the minimum degree exceeds (1 - 1/r - theta) * n."""
    if g.n < 1:
        raise ValueError("minimum degree needs at least one vertex")
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    if not 0 < theta < 1:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    return min(g.degrees()) > (1 - 1 / r - theta) * g.n


def dominating_clique(g: SimpleGraph) -> tuple[int, ...]:
    """All universal vertices (degree n-1); pairwise adjacent by definition."""
    full = (1 << g.n) - 1
    return tuple(
        v for v in range(g.n) if g.adj[v] == full ^ (1 << v)
    )


@dataclass(frozen=True)
class StructureAudit(Artifact):
    """Clique-join decomposition report for a family-free graph.

    q universal vertices give ell = q + 1.  The graph always equals the join
    of its universal set with the rest, because a universal vertex is
    adjacent to everything, so ``shape_ok`` is the constant True; it stays
    so that ``structure-audit/1`` keeps its fields.  ``inner_free`` and
    ``expected_inner_edges`` are None when ell exceeds the family size
    (flagged by ``ell_in_range``), which the characterization rules out for
    genuine extremal graphs.  Its JSON is its fields plus ``schema``.
    """

    q: int
    ell: int
    ell_in_range: bool
    shape_ok: bool
    inner_free: bool | None
    inner_edges: int
    expected_inner_edges: int | None
    passed: bool

    def to_json_dict(self) -> dict:
        return {"schema": "structure-audit/1", **asdict(self)}


def structure_audit(
    g: SimpleGraph,
    family: ForbiddenFamily | Sequence[SimpleGraph],
    ex_provider: Callable[[int, int], int],
) -> StructureAudit:
    """Check the clique-join shape of a family-free graph.

    The graph is K_q joined to the remainder H, where q counts its
    universal vertices.  Passes iff ell = q + 1 is within the family, H
    avoids F_ell, and e(H) matches ex_provider(n - q, ell).
    """
    fam = as_family(family)
    if not is_free(g, fam):
        raise ValueError("graph contains the family; structure audit expects free input")
    clique = dominating_clique(g)
    q = len(clique)
    ell = q + 1
    in_range = ell <= len(fam)
    others = [v for v in range(g.n) if v not in clique]
    inner = g.induced(others)

    inner_free: bool | None = None
    expected: int | None = None
    if in_range:
        inner_free = contains_subgraph(inner, fam[ell - 1]) is None
        expected = ex_provider(g.n - q, ell)
    passed = bool(in_range and inner_free and inner.edge_count == expected)
    return StructureAudit(
        q=q,
        ell=ell,
        ell_in_range=in_range,
        shape_ok=True,
        inner_free=inner_free,
        inner_edges=inner.edge_count,
        expected_inner_edges=expected,
        passed=passed,
    )
