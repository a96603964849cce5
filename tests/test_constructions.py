"""Closed-form values, extremal constructions, and family-order checks."""

import json
import time
from pathlib import Path

import pytest

from turanlab import (
    ConstructionRecipe,
    ForbiddenFamily,
    FormulaValue,
    InfeasibleConstructionError,
    SimpleGraph,
    best_feasible_wheel_graph,
    brute_force_ex,
    build_from_recipe,
    check_properly_ordered,
    complete,
    contains_subgraph,
    encode_graph6,
    is_free,
    is_path_free_regular,
    path,
    path_free_regular_graph,
    turan,
    turan_edge_count,
    union_extremal_graph,
    union_extremal_value,
    union_wheels_value,
    wheel,
    wheel_construction_recipe,
    wheel_extremal_graph,
    wheel_extremal_value,
)
from turanlab.constructions import _component_orders

GOLDEN = Path(__file__).parent / "golden"


def union_wheels_reference(n: int, ks: list[int]) -> tuple[int, tuple]:
    """Exhaustive double maximum over (i, n0 >= i) of the union-wheel form."""
    vals = {
        (i, n0): n0 * (n - n0)
        + (i - 1) * (n0 - i + 1)
        + (i - 1) * (i - 2) // 2
        + ((k - 1) * (n0 - i + 1)) // 2
        + 1
        for i, k in enumerate(ks, start=1)
        for n0 in range(i, n + 1)
    }
    best = max(vals.values())
    return best, tuple(p for p, v in vals.items() if v == best)


def matches_reference(n: int, ks: list[int]) -> bool:
    fv = union_wheels_value(n, ks)
    return (fv.value, fv.argmax) == union_wheels_reference(n, ks)


class TestWheelFormula:
    def test_reference_values(self):
        fv = wheel_extremal_value(20, 3)
        assert fv.value == 111
        assert fv.argmax == (10, 11)
        assert wheel_extremal_value(14, 3).value == 57
        assert wheel_extremal_value(14, 3).argmax == (7, 8)
        assert wheel_extremal_value(8, 3).value == 21
        assert wheel_extremal_value(8, 3).argmax == (4, 5)

    def test_gate(self):
        with pytest.raises(ValueError):
            wheel_extremal_value(10, 2)
        with pytest.raises(ValueError, match="need n >= 1, got n=0"):
            wheel_extremal_value(0, 3)

    def test_value_dominates_every_bracket_choice(self):
        for n in range(1, 40):
            fv = wheel_extremal_value(n, 3)
            for n0 in range(n + 1):
                assert fv.value >= n0 * (n - n0) + n0 + 1

    def test_matches_exhaustive_scan(self):
        for k in range(3, 13):
            for n in range(1, 601):
                vals = [
                    n0 * (n - n0) + ((k - 1) * n0) // 2 + 1 for n0 in range(1, n + 1)
                ]
                best = max(vals)
                fv = wheel_extremal_value(n, k)
                assert fv.value == best
                assert fv.argmax == tuple(
                    n0 for n0, v in enumerate(vals, start=1) if v == best
                )

    def test_huge_order_is_exact_and_fast(self):
        n = 10**15
        t0 = time.perf_counter()
        fv = wheel_extremal_value(n, 3)
        assert time.perf_counter() - t0 < 1.0
        assert fv.value == n * n // 4 + n // 2 + 1
        assert fv.argmax == (n // 2, n // 2 + 1)


class TestLayerGraphs:
    def test_regular_layers(self):
        for k in (3, 4, 5):
            for n0 in range(k, 31):
                if n0 == 2 * k - 1:
                    continue
                g = path_free_regular_graph(n0, k)
                assert g.edge_count == ((k - 1) * n0) // 2
                assert is_path_free_regular(g, k)
                assert contains_subgraph(g, path(2 * k - 1)) is None
        # no vertices, and degrees 1, 1, 2, 2, 2: neither regular nor nearly
        assert not is_path_free_regular(SimpleGraph(0), 3)
        assert not is_path_free_regular(path(5), 3)

    def test_degree_profile(self):
        # even total degree: (k-1)-regular; odd: one vertex one lower
        g = path_free_regular_graph(8, 3)
        assert sorted(g.degrees()) == [2] * 8
        g = path_free_regular_graph(9, 4)
        assert sorted(g.degrees()) == [2] + [3] * 8

    def test_infeasible_orders(self):
        for k in (3, 4, 5):
            with pytest.raises(InfeasibleConstructionError):
                path_free_regular_graph(2 * k - 1, k)
            with pytest.raises(InfeasibleConstructionError):
                path_free_regular_graph(k - 1, k)
            with pytest.raises(InfeasibleConstructionError):
                path_free_regular_graph(0, k)
            # every n0 below the least component order, n0 = 0 included
            for n0 in range(-1, k):
                assert _component_orders(n0, k) is None


class TestWheelConstruction:
    def test_edge_counts_match_formula(self):
        for n in (8, 14, 20, 23):
            g = wheel_extremal_graph(n, 3)
            assert g.edge_count == wheel_extremal_value(n, 3).value

    def test_wheel_freeness(self):
        for n in (8, 12, 20):
            assert contains_subgraph(wheel_extremal_graph(n, 3), wheel(7)) is None
        assert contains_subgraph(wheel_extremal_graph(12, 4), wheel(9)) is None

    def test_union_construction_is_union_free(self):
        # K1 ∨ (best k=3 construction on n - 1 vertices) avoids W7 ∪ W7
        buildable = []
        for n in range(31):
            try:
                g = union_extremal_graph(n, 2, best_feasible_wheel_graph(n - 1, 3))
            except InfeasibleConstructionError:
                continue
            assert is_free(g, [wheel(7), wheel(7)]), n
            buildable.append(n)
        assert buildable == list(range(6, 31))

    def test_explicit_bipartition_override(self):
        g = build_from_recipe(wheel_construction_recipe(9, 3, n0=4))
        assert g.n == 9
        assert contains_subgraph(g, wheel(7)) is None

    def test_default_infeasible_raises(self):
        # every formula argmax at this order needs an impossible layer order
        with pytest.raises(InfeasibleConstructionError):
            wheel_extremal_graph(9, 3)

    def test_small_k_rejected(self):
        # the wheel construction needs k >= 3; the k = 2 seeds still build
        for build in (wheel_construction_recipe, wheel_extremal_graph):
            with pytest.raises(ValueError, match="needs k >= 3"):
                build(12, 2)
        # so do the layer graphs and their check
        with pytest.raises(ValueError, match="need k >= 3, got k=2"):
            path_free_regular_graph(4, 2)
        with pytest.raises(ValueError, match="need k >= 3, got k=2"):
            is_path_free_regular(path(3), 2)
        g = best_feasible_wheel_graph(12, 2)
        assert g == build_from_recipe(ConstructionRecipe(12, 2, 1, 6))

    def test_layer_build_order_pinned(self):
        # when k - 1 is odd the component with the deficient vertex is built
        # last, after the regular ones in descending order
        for n, k, n0, layout, edges, g6 in (
            (16, 4, 9, ((4, True), (5, False)), 77, "O~?GGKJ~~~~{~w~w^{F~?"),
            (23, 6, 13, ((6, True), (7, False)), 163,
             "V~~w?CB?WB_V?v~~~~~~{~~b~}F~{F~{B~}?~~_F~{??"),
        ):
            recipe = wheel_construction_recipe(n, k)
            assert (recipe.n0, recipe.component_layout) == (n0, layout)
            g = wheel_extremal_graph(n, k)
            assert (g.edge_count, encode_graph6(g)) == (edges, g6)

    def test_best_feasible_fallback(self):
        # falls back to the best bracket value owning a buildable layer
        g = best_feasible_wheel_graph(9, 3)
        assert g.edge_count == 25
        assert contains_subgraph(g, wheel(7)) is None


class TestRecipes:
    def test_json_roundtrip(self):
        recipe = wheel_construction_recipe(20, 3)
        text = recipe.to_json()
        back = ConstructionRecipe.from_json_dict(json.loads(text))
        assert back == recipe
        assert back.to_json() == text
        # the JSON dict holds JSON-native values only
        assert json.loads(text) == recipe.to_json_dict()

    def test_recipe_rebuild_matches(self):
        recipe = wheel_construction_recipe(14, 3)
        assert build_from_recipe(recipe).edge_count == 57

    def test_mismatched_layout_is_rejected(self):
        # the layout is derived from n0 and k; JSON must carry that one
        doc = wheel_construction_recipe(30, 4).to_json_dict()
        orders = [entry["order"] for entry in doc["component_layout"]]
        assert orders == [6, 6, 4]
        for layout in (
            doc["component_layout"][::-1],
            [{**entry, "regular": False} for entry in doc["component_layout"]],
            doc["component_layout"][:2],
        ):
            with pytest.raises(ValueError, match="component_layout"):
                ConstructionRecipe.from_json_dict({**doc, "component_layout": layout})
        with pytest.raises(ValueError, match="unknown recipe schema"):
            ConstructionRecipe.from_json_dict({**doc, "schema": "recipe/2"})

    def test_tampered_documents_are_rejected(self):
        doc = json.loads((GOLDEN / "gen.json").read_text())
        assert ConstructionRecipe.from_json_dict(doc).to_json_dict() == doc
        for key in sorted(doc.keys() - {"schema"}):
            lacking = {k: v for k, v in doc.items() if k != key}
            with pytest.raises(ValueError, match=key):
                ConstructionRecipe.from_json_dict(lacking)
        layout = [{"order": 4}] + doc["component_layout"][1:]
        with pytest.raises(ValueError, match="regular"):
            ConstructionRecipe.from_json_dict({**doc, "component_layout": layout})
        # a value of the wrong type is named by its key
        for key, value in [
            ("n", "20"), ("k", 3.0), ("ell", True), ("n0", None),
            ("component_layout", [4, 4, 3]),
            ("component_layout", {"order": 4, "regular": True}),
        ]:
            with pytest.raises(ValueError, match=f"field '{key}'"):
                ConstructionRecipe.from_json_dict({**doc, key: value})
        layout = [{**doc["component_layout"][0], "order": "4"}]
        with pytest.raises(ValueError, match="field 'order'"):
            ConstructionRecipe.from_json_dict({**doc, "component_layout": layout})

    def test_every_recipe_builds_and_reads_back(self):
        # a recipe validates itself: either construction raises at once, or
        # its JSON reads back equal and it builds an n-vertex graph
        built = 0
        for n in range(-1, 41):
            for k in range(8):
                for ell in range(5):
                    for n0 in range(-1, n + 1):
                        try:
                            recipe = ConstructionRecipe(n, k, ell, n0)
                        except ValueError:
                            continue
                        text = recipe.to_json()
                        back = ConstructionRecipe.from_json_dict(json.loads(text))
                        assert back == recipe and back.to_json() == text
                        assert build_from_recipe(recipe).n == n
                        built += 1
        assert built > 0
        for args in [(20, 3, 0, 8), (20, 3, 1, 19), (20, 1, 1, 5), (5, 3, 3, 3)]:
            with pytest.raises(InfeasibleConstructionError):
                ConstructionRecipe(*args)

    def test_clique_layer_parameter(self):
        # ell-1 dominating clique vertices sit in front of the inner block
        recipe = wheel_construction_recipe(21, 3, ell=2)
        g = build_from_recipe(recipe)
        assert g.n == 21
        assert g.degree(0) == 20
        assert g.edge_count == 20 + wheel_extremal_value(20, 3).value


def buildable_layers(k: int, top: int) -> set[int]:
    """Every n0 < top whose path-free layer can be built."""
    out = set()
    for n0 in range(top):
        try:
            path_free_regular_graph(n0, k)
        except InfeasibleConstructionError:
            continue
        out.add(n0)
    return out


class TestN0Choice:
    def test_matches_plain_reference(self):
        # reference: the largest (bracket, n0) over n0 with a buildable layer
        # and a far side of at least two vertices
        for k in range(3, 9):
            buildable = buildable_layers(k, 100)
            for n in range(1, 100):
                for ell in (1, 2, 3):
                    m = n - ell + 1
                    keys = [
                        (n0 * (m - n0) + ((k - 1) * n0) // 2 + 1, n0)
                        for n0 in range(m - 1)
                        if n0 in buildable
                    ]
                    if not keys:
                        with pytest.raises(InfeasibleConstructionError):
                            best_feasible_wheel_graph(m, k)
                        continue
                    bracket, n0 = max(keys)
                    g = union_extremal_graph(n, ell, best_feasible_wheel_graph(m, k))
                    assert g == build_from_recipe(
                        wheel_construction_recipe(n, k, n0=n0, ell=ell)
                    )
                    layered = (ell - 1) * (ell - 2) // 2 + (ell - 1) * m
                    assert g.edge_count == layered + bracket
                    if bracket == wheel_extremal_value(m, k).value:
                        assert wheel_construction_recipe(n, k, ell=ell).n0 == n0
                    else:
                        with pytest.raises(InfeasibleConstructionError):
                            wheel_construction_recipe(n, k, ell=ell)


class TestUnionFormula:
    def test_layered_max_over_prefix(self):
        fam = ForbiddenFamily([complete(3), complete(3)])
        provider = lambda m, ell: turan_edge_count(m, 2)
        fv = union_extremal_value(9, fam, provider)
        assert fv.value == 24
        assert fv.argmax == (2,)

    def test_single_member_reduces_to_provider(self):
        fam = ForbiddenFamily([complete(3)])
        provider = lambda m, ell: turan_edge_count(m, 2)
        for n in range(1, 12):
            assert union_extremal_value(n, fam, provider).value == n * n // 4
        # no layer fits at n = 0; at n = 1 only l = 1 does
        with pytest.raises(ValueError, match="no valid layer count"):
            union_extremal_value(0, fam, provider)
        two = ForbiddenFamily([complete(3), complete(3)])
        assert union_extremal_value(1, two, provider).argmax == (1,)

    def test_union_graph_shape(self):
        inner = turan(8, 2)
        g = union_extremal_graph(9, 2, inner)
        assert g.n == 9
        assert g.degree(0) == 8
        assert g.edge_count == 8 + 16
        assert is_free(g, [complete(3), complete(3)])

    def test_union_graph_ell_one_is_identity(self):
        inner = turan(9, 2)
        assert union_extremal_graph(9, 1, inner) == inner

    def test_union_graph_order_mismatch(self):
        with pytest.raises(ValueError):
            union_extremal_graph(9, 2, turan(9, 2))
        with pytest.raises(ValueError, match="need ell >= 1, got 0"):
            union_extremal_graph(9, 0, turan(10, 2))


class TestUnionWheels:
    def test_reference_value(self):
        assert union_wheels_value(24, [3, 2]) == FormulaValue(162, ((2, 13),))
        with pytest.raises(ValueError, match="argmax must be nonempty"):
            FormulaValue(1, ())

    def test_forms_agree_on_a_sweep(self):
        for n in range(1, 60):
            for ks in ([3], [4, 3], [3, 3], [5, 4, 3], [2, 2]):
                assert matches_reference(n, ks), (n, ks)

    def test_requires_descending(self):
        with pytest.raises(ValueError):
            union_wheels_value(20, [3, 4])
        with pytest.raises(ValueError):
            union_wheels_value(20, [])
        with pytest.raises(ValueError):
            union_wheels_value(20, [3, 1])
        with pytest.raises(ValueError, match="need n >= 1, got n=0"):
            union_wheels_value(0, [3])


class TestProperOrder:
    def test_wheel_then_triangle_is_ordered(self):
        rep = check_properly_ordered([wheel(7), complete(3)], 7, brute_force_ex)
        assert rep.ordered
        assert rep.ex_values == (17, 12)
        assert all(w is not None for w in rep.witnesses)

    def test_triangle_then_wheel_is_not(self):
        # every 17-edge wheel-free graph on 7 vertices carries a triangle
        rep = check_properly_ordered([complete(3), wheel(7)], 7, brute_force_ex)
        assert not rep.ordered
        assert rep.ex_values == (12, 17)
        assert rep.witnesses[1] is None
