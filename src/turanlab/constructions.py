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
tables, or the brute-force oracle.  For families of odd wheels the inner
values are wheel bracket maxima.

All evaluators are exact integer arithmetic and are total; builders
validate feasibility and raise instead of silently returning a wrong
graph.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

from .containment import ForbiddenFamily, as_family, contains_subgraph
from .graph6 import json_doc
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
    the target degree k-1 is odd.  Returns None when impossible.

    The fewest parts, t = ceil(n0 / (2k-2)), split evenly lie in [k, 2k-2]
    unless t > n0 // k, and then no t does.  A component of odd order cannot
    be (k-1)-regular; when k-1 is odd both bounds are even, so the odd parts
    share one value v with k < v < 2k-2, and each pair becomes v+1 and v-1.
    """
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
    return sorted(sizes, reverse=True)


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


def _layer_layout(n0: int, k: int) -> tuple[tuple[int, bool], ...]:
    """(order, exactly_regular) per component of the layer on n0 vertices,
    the single odd-order component (if any) last: its vertex 0 is the one
    deficient vertex when the parity demands one.  Raises when n0 has no
    split into component orders in [k, 2k-2]."""
    if n0 < k:
        raise InfeasibleConstructionError(
            f"n0 = {n0} is below the least component order k = {k}"
        )
    sizes = _component_orders(n0, k)
    if sizes is None:
        raise InfeasibleConstructionError(
            f"n0 = {n0} has no split into component orders in"
            f" [{k}, {2 * k - 2}] compatible with degree {k - 1}"
        )
    layout = [(s, (k - 1) * s % 2 == 0) for s in sizes]
    return tuple(sorted(layout, key=lambda entry: not entry[1]))


def _path_free_layer(n0: int, k: int) -> SimpleGraph:
    g = disjoint_union([_regular_component(c, k - 1) for c, _ in _layer_layout(n0, k)])
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
class ConstructionRecipe:
    """A serializable plan for one extremal construction.

    ``ell`` is the size of the dominating clique plus one (ell = 1 means no
    clique layer); ``n0`` the bipartition size carrying the regular layer.
    ``component_layout`` is derived from n0 and k: it lists (order,
    exactly_regular) per layer component.
    """

    n: int
    k: int
    ell: int
    n0: int

    @property
    def component_layout(self) -> tuple[tuple[int, bool], ...]:
        return _layer_layout(self.n0, self.k)

    def to_json_dict(self) -> dict:
        return {
            "schema": "construction-recipe/1",
            "n": self.n,
            "k": self.k,
            "ell": self.ell,
            "n0": self.n0,
            "component_layout": [
                {"order": c, "regular": reg} for c, reg in self.component_layout
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ConstructionRecipe":
        """Read a recipe, rejecting infeasible parameters and any layout other
        than the one derived from n0 and k."""
        if data.get("schema") != "construction-recipe/1":
            raise ValueError(f"unknown recipe schema: {data.get('schema')!r}")
        recipe = wheel_construction_recipe(
            data["n"], data["k"], n0=data["n0"], ell=data["ell"]
        )
        layout = tuple((e["order"], e["regular"]) for e in data["component_layout"])
        if layout != recipe.component_layout:
            raise ValueError(f"component_layout {layout} is not the derived one")
        return recipe

    def to_json(self) -> str:
        return json_doc(self.to_json_dict())


def _best_n0(m: int, k: int) -> int | None:
    """The n0 in [k, m-2] with a feasible layer and the largest bracket at
    inner order m, ties to the larger n0, or None.  The bracket's steps fall
    by at least 1 per unit of n0, so merging the walks down from its top on
    both sides visits n0 in ranked order."""
    if m < k + 2:
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

    Accepts k = 2 (the layer degenerates to a perfect or near-perfect
    matching); the closed-form guarantees attach only to k >= 3, which the
    k-gated entry points enforce.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got k={k}")
    if ell < 1:
        raise ValueError(f"need ell >= 1, got ell={ell}")
    m = n - ell + 1
    if m < k + 2:
        raise InfeasibleConstructionError(
            f"inner order {m} cannot hold a layer of order >= {k}"
            f" plus a two-vertex far side"
        )
    if n0 is None:
        n0 = _best_n0(m, k)
        scan = _wheel_bracket_scan(m, k)
        if n0 is None or _wheel_bracket(m, k, n0) < scan.value:
            raise InfeasibleConstructionError(
                f"no maximizer of the bracket at order {m} (argmax {scan.argmax})"
                f" admits a feasible layer for k={k}"
            )
    elif n0 < k or m - n0 < 2 or _component_orders(n0, k) is None:
        raise InfeasibleConstructionError(
            f"n0 = {n0} infeasible at inner order {m}: needs n0 >= {k},"
            f" a far side of at least 2, and a valid component split"
        )
    return ConstructionRecipe(n, k, ell, n0)


def build_from_recipe(recipe: ConstructionRecipe) -> SimpleGraph:
    """Realize a recipe: K_{ell-1} joined to (K_{n0, m-n0} + layer + edge).

    Vertex layout: clique first, then the layer side, then the far side;
    the far side's single edge joins its two lowest-indexed vertices.
    """
    n0 = recipe.n0
    far = recipe.n - recipe.ell + 1 - n0
    if far < 2:
        raise InfeasibleConstructionError(
            f"far side has {far} vertices, needs at least 2"
        )
    inner = join([_path_free_layer(n0, recipe.k), SimpleGraph(far)])
    inner = inner.with_edge(n0, n0 + 1)
    return union_extremal_graph(recipe.n, recipe.ell, inner)


def wheel_extremal_graph(n: int, k: int, n0: int | None = None) -> SimpleGraph:
    """The bipartite-plus-layer construction matching the wheel formula.

    When feasible at the chosen n0 the edge count equals the bracket at n0;
    with the default n0 (largest feasible maximizer) it equals
    wheel_extremal_value(n, k).value.
    """
    if k < 3:
        raise ValueError(
            f"wheel construction needs k >= 3 (wheel order 2k+1 >= 7), got k={k}"
        )
    recipe = wheel_construction_recipe(n, k, n0=n0)
    g = build_from_recipe(recipe)
    assert g.edge_count == _wheel_bracket(n, k, recipe.n0)
    return g


def best_feasible_wheel_graph(n: int, k: int, ell: int = 1) -> SimpleGraph:
    """The best realizable construction over every feasible n0, for seeding.

    Unlike wheel_extremal_graph this does not insist on a formula maximizer:
    at orders where every maximizer has an unrealizable layer it falls back
    to the best n0 that works, so exhaustive searches can always start from
    a strong verified lower bound.  Accepts k >= 2.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got k={k}")
    if ell < 1:
        raise ValueError(f"need ell >= 1, got ell={ell}")
    m = n - ell + 1
    n0 = _best_n0(m, k)
    if n0 is None:
        raise InfeasibleConstructionError(
            f"no feasible n0 at inner order {m} for k={k}"
        )
    return build_from_recipe(wheel_construction_recipe(n, k, n0=n0, ell=ell))


# === union formulas ===


ExProvider = Callable[[int, int], int]
"""Provider signature: (order m, one-based family index l) -> ex(m, F_l)."""


def _layered_term(ell: int, m: int, inner: int) -> int:
    """Edges of K_{ell-1} joined to a graph on m vertices and inner edges."""
    return (ell - 1) * (ell - 2) // 2 + (ell - 1) * m + inner


def union_extremal_value(
    n: int, family: ForbiddenFamily | Sequence[SimpleGraph], ex_provider: ExProvider
) -> FormulaValue:
    """Max over l of C(l-1,2) + (l-1)(n-l+1) + ex(n-l+1, F_l).

    The inner extremal numbers come from ``ex_provider``; provider failures
    propagate unchanged.
    """
    fam = as_family(family)
    h = len(fam)
    terms: dict[int, int] = {}
    for ell in range(1, h + 1):
        m = n - ell + 1
        if m < 1:
            continue
        terms[ell] = _layered_term(ell, m, ex_provider(m, ell))
    if not terms:
        raise ValueError(f"no valid layer count l at n={n} for h={h}")
    best = max(terms.values())
    return FormulaValue(best, tuple(l for l, v in sorted(terms.items()) if v == best))


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


@dataclass(frozen=True)
class UnionWheelsValue:
    """The odd-wheel union formula with its maximizers.

    ``argmax`` lists every maximizing (i, n0) of the double maximum;
    ``per_index`` is the same maximum read per layer index i.
    ``flagged_ks`` lists entries k < 3, where the wheel bracket is evaluated
    arithmetically but is not backed by the closed form.
    """

    value: int
    argmax: tuple[tuple[int, int], ...]
    per_index: FormulaValue
    flagged_ks: tuple[int, ...]


def union_wheels_value(n: int, ks: Sequence[int]) -> UnionWheelsValue:
    """Evaluate the union formula for odd wheels W_{2k_i+1}, k_1 >= ... >= k_m.

    The double maximum over i and n0 >= i of
      n0*(n-n0) + (i-1)*(n0-i+1) + C(i-1,2) + floor((k_i-1)*(n0-i+1)/2) + 1
    equals, term by term with n0' = n0-i+1, the maximum over i of
      C(i-1,2) + (i-1)*(n-i+1) + wheel bracket at order n-i+1 and n0',
    which is what is evaluated here; argmax pairs are reported as (i, n0).
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

    terms: dict[int, FormulaValue] = {}
    for i, k in enumerate(ks, start=1):
        m = n - i + 1
        if m < 1:
            break
        scan = _wheel_bracket_scan(m, k)
        terms[i] = FormulaValue(_layered_term(i, m, scan.value), scan.argmax)
    best = max(t.value for t in terms.values())
    top = [i for i, t in terms.items() if t.value == best]
    return UnionWheelsValue(
        value=best,
        argmax=tuple((i, n0 + i - 1) for i in top for n0 in terms[i].argmax),
        per_index=FormulaValue(best, tuple(top)),
        flagged_ks=tuple(k for k in ks if k < 3),
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
