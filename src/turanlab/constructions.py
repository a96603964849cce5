"""Closed-form extremal values and the matching extremal constructions.

The wheel formula: for the odd wheel on 2k+1 vertices (hub plus an even rim
C_2k, so chi = 3 and the wheel is vertex-critical), the extremal edge count
at order n is

    max over 1 <= n0 <= n of  n0*(n - n0) + floor((k-1)*n0/2) + 1.

The maximizing construction is a complete bipartite graph K_{n0, n-n0} whose
n0 side carries a (k-1)-regular (or nearly regular) graph with no path on
2k-1 vertices, and whose other side carries exactly one edge.  The path-free
layer is realized here by circulant components whose orders all lie in
[k, 2k-2]; that order cap alone guarantees the path cannot appear.

A ``ConstructionRecipe`` is four numbers, (n, k, ell, n0); its component
layout is derived from n0 and k.

The union formula: for a forbidden family F_1, ..., F_h (vertex-critical,
suitably ordered), the extremal edge count at order n is

    max over 1 <= l <= h of  C(l-1, 2) + (l-1)*(n-l+1) + ex(n-l+1, F_l),

realized by joining a clique on l-1 vertices to a graph that is extremal for
F_l alone.  ``union_extremal_value`` takes the inner ex values from a caller
supplied provider, so the same evaluator runs against closed forms, known
tables, or the brute-force oracle.  ``union_wheels_value`` runs through the
same evaluator, with wheel bracket maxima as the inner values.

All evaluators are exact integer arithmetic and are total; a recipe
validates itself and raises instead of silently describing a wrong
graph.
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

from .containment import ForbiddenFamily, as_family, contains_subgraph
from .graph6 import Artifact
from .graphs import SimpleGraph, complete, disjoint_union, join, path


class InfeasibleConstructionError(ValueError):
    """No graph with the requested parameters exists in the target family."""


@dataclass(frozen=True)
class FormulaValue:
    """A formula maximum together with every maximizing parameter."""

    value: int
    argmax: tuple

    def __post_init__(self):
        if not self.argmax:
            raise ValueError("argmax must be nonempty")


def _wheel_bracket(n: int, k: int, n0: int) -> int:
    return n0 * (n - n0) + ((k - 1) * n0) // 2 + 1


def _wheel_bracket_scan(n: int, k: int) -> FormulaValue:
    """Max of the wheel bracket over n0 = 1..n (no validity gate on k).

    The quadratic part n0*(n-n0) + (k-1)*n0/2 peaks at x = (2n+k-1)/4.  Three
    steps from c = floor(x) it is more than 3 below its value at the integer
    nearest x, while the floor term moves the bracket by at most 1/2, so
    every maximizer lies within 2 of c (clamped to [1, n]).
    """
    c = min(max((2 * n + k - 1) // 4, 1), n)
    window = range(max(c - 2, 1), min(c + 2, n) + 1)
    vals = {n0: _wheel_bracket(n, k, n0) for n0 in window}
    best = max(vals.values())
    return FormulaValue(best, tuple(n0 for n0 in window if vals[n0] == best))


def wheel_extremal_value(n: int, k: int) -> FormulaValue:
    """Formula edge count for forbidding the odd wheel on 2k+1 vertices.

    Exact for all sufficiently large n; at small n the true extremal count
    can differ, which is what the oracle and threshold scans are for.
    """
    if k < 3:
        raise ValueError(
            f"wheel formula needs k >= 3 (wheel order 2k+1 >= 7), got k={k}"
        )
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    return _wheel_bracket_scan(n, k)


# === the path-free near-regular layer ===


def _component_orders(n0: int, k: int) -> list[int] | None:
    """Split n0 into component orders in [k, 2k-2], at most one odd when
    the target degree k-1 is odd.  Returns None when impossible: for every
    n0 < k, and for every k < 2, where [k, 2k-2] is empty.  The orders come
    in build order: the (k-1)-regular components in descending order, then
    the one order s with (k-1)*s odd, if any, whose vertex 0 is the
    deficient vertex.

    The fewest parts, t = ceil(n0 / (2k-2)), split evenly lie in [k, 2k-2]
    unless t > n0 // k, and then no t does.  A component of odd order cannot
    be (k-1)-regular; when k-1 is odd both bounds are even, so the odd parts
    share one value v with k < v < 2k-2, and each pair becomes v+1 and v-1.
    """
    if k < 2 or n0 < k:
        return None
    t = -(-n0 // (2 * k - 2))
    if t > n0 // k:
        return None
    base, rem = divmod(n0, t)
    sizes = [base + 1] * rem + [base] * (t - rem)
    if (k - 1) % 2 == 1:
        odd = [i for i, s in enumerate(sizes) if s % 2 == 1]
        for i, j in zip(odd[::2], odd[1::2]):
            sizes[i] += 1
            sizes[j] -= 1
    return sorted(sizes, key=lambda s: ((k - 1) * s % 2, -s))


def _circulant_rows(c: int, distances: Sequence[int]) -> list[int]:
    rows = [0] * c
    for v in range(c):
        for d in distances:
            rows[v] |= 1 << ((v + d) % c)
            rows[v] |= 1 << ((v - d) % c)
    return rows


def _regular_component(c: int, d: int) -> SimpleGraph:
    """A d-regular graph on c vertices when d*c is even, else a graph with
    one vertex of degree d-1 and the rest of degree d (vertex 0 deficient)."""
    if (d * c) % 2 == 0:
        if d % 2 == 0:
            distances = list(range(1, d // 2 + 1))
        else:
            distances = list(range(1, (d - 1) // 2 + 1)) + [c // 2]
        return SimpleGraph._from_rows(c, _circulant_rows(c, distances))
    # d and c both odd: base (d-1)-regular circulant plus a near-perfect
    # matching at distance (c-1)/2 that leaves vertex 0 unmatched
    rows = _circulant_rows(c, range(1, (d - 1) // 2 + 1))
    h = (c - 1) // 2
    for i in range(1, h + 1):
        j = i + h
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return SimpleGraph._from_rows(c, rows)


def _path_free_layer(n0: int, k: int) -> SimpleGraph:
    g = disjoint_union([_regular_component(c, k - 1) for c in _component_orders(n0, k)])
    assert g.edge_count == ((k - 1) * n0) // 2
    return g


def path_free_regular_graph(n0: int, k: int) -> SimpleGraph:
    """A (k-1)-regular or nearly regular graph on n0 vertices with no path
    on 2k-1 vertices, every component of order at most 2k-2.

    Nearly regular means exactly one vertex of degree k-2, which happens
    precisely when (k-1)*n0 is odd; the edge count is floor((k-1)*n0/2)
    either way.  Raises when no such layout exists (for example n0 = 2k-1).
    """
    if k < 3:
        raise ValueError(f"need k >= 3, got k={k}")
    if _component_orders(n0, k) is None:
        raise InfeasibleConstructionError(
            f"n0 = {n0} has no split into component orders in"
            f" [{k}, {2 * k - 2}] compatible with degree {k - 1}"
        )
    return _path_free_layer(n0, k)


def is_path_free_regular(g: SimpleGraph, k: int) -> bool:
    """Validate membership in the layer family for parameter k: the graph is
    (k-1)-regular or nearly (k-1)-regular and contains no path on 2k-1
    vertices."""
    if k < 3:
        raise ValueError(f"need k >= 3, got k={k}")
    if g.n == 0:
        return False
    degs = sorted(g.degrees())
    regular = degs[0] == degs[-1] == k - 1
    nearly = (
        g.n >= 2
        and degs[0] == k - 2
        and degs[1] == degs[-1] == k - 1
    )
    if not (regular or nearly):
        return False
    return contains_subgraph(g, path(2 * k - 1)) is None


# === recipes and the bipartite wheel construction ===


@dataclass(frozen=True)
class ConstructionRecipe(Artifact):
    """A serializable plan for one extremal construction.

    ``ell`` is the size of the dominating clique plus one (ell = 1 means no
    clique layer); ``n0`` the bipartition size carrying the regular layer.
    ``component_layout`` is derived from n0 and k: it lists (order,
    exactly_regular) per layer component.  A recipe that cannot be built
    does not exist: construction raises unless ell >= 1, n0 >= k, the far
    side keeps at least two vertices for its edge, and n0 splits into
    component orders in [k, 2k-2] (none do when k < 2).
    """

    n: int
    k: int
    ell: int
    n0: int

    def __post_init__(self):
        if self.ell < 1:
            raise InfeasibleConstructionError(f"need ell >= 1, got ell={self.ell}")
        n0, k, m = self.n0, self.k, self.n - self.ell + 1
        if m - n0 < 2 or _component_orders(n0, k) is None:
            raise InfeasibleConstructionError(
                f"n0 = {n0} infeasible at inner order {m} for k = {k}: needs"
                f" n0 >= k, a far side of at least 2, and a split into"
                f" component orders in [k, 2k-2]"
            )

    @property
    def component_layout(self) -> tuple[tuple[int, bool], ...]:
        k = self.k
        return tuple((s, (k - 1) * s % 2 == 0) for s in _component_orders(self.n0, k))

    def to_json_dict(self) -> dict:
        return {
            "schema": "construction-recipe/1",
            **asdict(self),
            "component_layout": [
                {"order": c, "regular": reg} for c, reg in self.component_layout
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ConstructionRecipe":
        """Read a recipe, rejecting a missing key, infeasible parameters and
        any layout other than the one derived from n0 and k."""
        if data.get("schema") != "construction-recipe/1":
            raise ValueError(f"unknown recipe schema: {data.get('schema')!r}")
        try:
            recipe = cls(data["n"], data["k"], data["ell"], data["n0"])
            layout = tuple((e["order"], e["regular"]) for e in data["component_layout"])
        except KeyError as err:
            raise ValueError(f"recipe document lacks the key {err}") from None
        if layout != recipe.component_layout:
            raise ValueError(f"component_layout {layout} is not the derived one")
        return recipe


def _best_n0(m: int, k: int) -> int | None:
    """The n0 in [k, m-2] with a feasible layer and the largest bracket at
    inner order m, ties to the larger n0, or None.  The bracket's steps fall
    by at least 1 per unit of n0, so merging the walks down from its top on
    both sides visits n0 in ranked order."""
    if k < 2 or m < k + 2:
        return None
    top = min(max(_wheel_bracket_scan(m, k).argmax[-1], k), m - 2)
    ranked = heapq.merge(
        range(top, k - 1, -1),
        range(top + 1, m - 1),
        key=lambda n0: (_wheel_bracket(m, k, n0), n0),
        reverse=True,
    )
    return next((n0 for n0 in ranked if _component_orders(n0, k) is not None), None)


def wheel_construction_recipe(
    n: int, k: int, n0: int | None = None, ell: int = 1
) -> ConstructionRecipe:
    """Resolve parameters for the (possibly clique-topped) wheel construction.

    With ell = 1 this is the plain bipartite construction at order n.  The
    inner order is m = n - ell + 1.  When n0 is not given, the largest
    maximizer of the wheel bracket at order m that admits a feasible layer
    (and leaves at least two vertices on the far side for its single edge)
    is chosen; if no maximizer is feasible this raises.

    Raises ValueError for k < 3, where no closed form backs the
    construction.  The recipe checks its own feasibility.
    """
    if k < 3:
        raise ValueError(
            f"wheel construction needs k >= 3 (wheel order 2k+1 >= 7), got k={k}"
        )
    if n0 is None:
        m = n - ell + 1
        n0 = _best_n0(m, k)
        if n0 is None or _wheel_bracket(m, k, n0) < _wheel_bracket_scan(m, k).value:
            raise InfeasibleConstructionError(
                f"no maximizer of the bracket at inner order {m} admits a"
                f" feasible layer and a far side of at least 2 for k={k}"
            )
    return ConstructionRecipe(n, k, ell, n0)


def build_from_recipe(recipe: ConstructionRecipe) -> SimpleGraph:
    """Realize a recipe as one join of K_{ell-1}, the layer and the far side.

    Vertex layout: clique first, then the layer's n0 vertices, then the far
    side, whose single edge joins its two lowest-indexed vertices.
    """
    far = recipe.n - recipe.ell + 1 - recipe.n0
    layer = _path_free_layer(recipe.n0, recipe.k)
    return join([complete(recipe.ell - 1), layer, SimpleGraph(far, [(0, 1)])])


def wheel_extremal_graph(n: int, k: int) -> SimpleGraph:
    """The bipartite-plus-layer construction matching the wheel formula: its
    edge count is wheel_extremal_value(n, k).value.  For a chosen n0, build
    ``wheel_construction_recipe(n, k, n0=n0)``.
    """
    recipe = wheel_construction_recipe(n, k)
    g = build_from_recipe(recipe)
    assert g.edge_count == _wheel_bracket(n, k, recipe.n0)
    return g


def best_feasible_wheel_graph(n: int, k: int) -> SimpleGraph:
    """The best realizable construction over every feasible n0, for seeding.

    Unlike wheel_extremal_graph this does not insist on a formula maximizer:
    at orders where every maximizer has an unrealizable layer it falls back
    to the best n0 that works, so exhaustive searches can always start from
    a strong verified lower bound.  Accepts k >= 2.  With m = n - ell + 1,
    the seed with ell layers is
    ``union_extremal_graph(n, ell, best_feasible_wheel_graph(m, k))``.
    """
    n0 = _best_n0(n, k)
    if n0 is None:
        raise InfeasibleConstructionError(f"no feasible n0 at order {n} for k={k}")
    return build_from_recipe(ConstructionRecipe(n, k, 1, n0))


# === union formulas ===


ExProvider = Callable[[int, int], int]
"""Provider signature: (order m, one-based family index l) -> ex(m, F_l)."""


def _layered_max(n: int, h: int, inner: ExProvider) -> FormulaValue:
    """Max over l = 1..h of C(l-1,2) + (l-1)(n-l+1) + inner(n-l+1, l): the
    edges of K_{l-1} joined to a graph on m = n-l+1 vertices with inner(m, l)
    edges.  Layer counts with m < 1 are skipped."""
    terms: dict[int, int] = {}
    for ell in range(1, min(h, n) + 1):
        m = n - ell + 1
        terms[ell] = (ell - 1) * (ell - 2) // 2 + (ell - 1) * m + inner(m, ell)
    if not terms:
        raise ValueError(f"no valid layer count l at n={n} for h={h}")
    best = max(terms.values())
    return FormulaValue(best, tuple(l for l, v in terms.items() if v == best))


def union_extremal_value(
    n: int, family: ForbiddenFamily | Sequence[SimpleGraph], ex_provider: ExProvider
) -> FormulaValue:
    """Max over l of C(l-1,2) + (l-1)(n-l+1) + ex(n-l+1, F_l).

    The inner extremal numbers come from ``ex_provider``; provider failures
    propagate unchanged.
    """
    return _layered_max(n, len(as_family(family)), ex_provider)


def union_extremal_graph(n: int, ell: int, h: SimpleGraph) -> SimpleGraph:
    """Join a clique on ell-1 vertices to ``h``; requires |h| = n - ell + 1.

    Whenever h is F_j-free for every j <= ell, the result is free of the
    disjoint union F_1 + ... + F_h (any system would need ell disjoint
    copies inside h after losing the ell-1 clique vertices).
    """
    if ell < 1:
        raise ValueError(f"need ell >= 1, got {ell}")
    if h.n != n - ell + 1:
        raise ValueError(
            f"inner graph has {h.n} vertices, expected n - ell + 1 = {n - ell + 1}"
        )
    return join([complete(ell - 1), h])


def union_wheels_value(n: int, ks: Sequence[int]) -> FormulaValue:
    """Evaluate the union formula for odd wheels W_{2k_i+1}, k_1 >= ... >= k_m.

    The double maximum over i and n0 >= i of
      n0*(n-n0) + (i-1)*(n0-i+1) + C(i-1,2) + floor((k_i-1)*(n0-i+1)/2) + 1
    equals, term by term with n0' = n0-i+1, the maximum over i of
      C(i-1,2) + (i-1)*(n-i+1) + wheel bracket at order n-i+1 and n0',
    which ``_layered_max`` evaluates; argmax lists every maximizing (i, n0).
    Entries k = 2 are evaluated arithmetically but have no closed-form
    backing.
    """
    ks = list(ks)
    if not ks:
        raise ValueError("ks must be nonempty")
    if any(k < 2 for k in ks):
        raise ValueError(f"each k must be >= 2, got {ks}")
    if any(ks[i] < ks[i + 1] for i in range(len(ks) - 1)):
        raise ValueError(f"ks must be weakly decreasing, got {ks}")
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")

    scans: dict[int, FormulaValue] = {}

    def inner(m: int, i: int) -> int:
        scans[i] = _wheel_bracket_scan(m, ks[i - 1])
        return scans[i].value

    best = _layered_max(n, len(ks), inner)
    return FormulaValue(
        best.value,
        tuple((i, n0 + i - 1) for i in best.argmax for n0 in scans[i].argmax),
    )


# === proper ordering ===


@dataclass(frozen=True)
class ProperOrderReport:
    """Per-index witnesses for the family ordering property.

    ``witnesses[l-1]`` is an extremal graph for F_l alone (at the probed
    order) containing no F_j with j <= l, or None when the full extremal
    list has no such member.  The family is properly ordered at this order
    exactly when every index has a witness.
    """

    n: int
    ordered: bool
    ex_values: tuple[int, ...]
    witnesses: tuple[SimpleGraph | None, ...]


def check_properly_ordered(
    family: ForbiddenFamily | Sequence[SimpleGraph],
    n: int,
    oracle: Callable,
) -> ProperOrderReport:
    """Decide the ordering property at order n using an extremal enumerator.

    ``oracle`` must behave like brute_force_ex: (n, family) -> result with
    ``ex_value`` and a complete ``witnesses`` list.  Budget errors from the
    oracle propagate; this never converts them into a silent verdict.
    """
    fam = as_family(family)
    ex_values: list[int] = []
    witnesses: list[SimpleGraph | None] = []
    for ell in range(1, len(fam) + 1):
        result = oracle(n, ForbiddenFamily([fam[ell - 1]]))
        ex_values.append(result.ex_value)
        found = None
        for cand in result.witnesses:
            if all(
                contains_subgraph(cand, fam[j]) is None for j in range(ell)
            ):
                found = cand
                break
        witnesses.append(found)
    return ProperOrderReport(
        n=n,
        ordered=all(w is not None for w in witnesses),
        ex_values=tuple(ex_values),
        witnesses=tuple(witnesses),
    )
