"""Exhaustive oracle, labeled-space cross-check, scans, and audits."""

import functools
import gc
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import random_graph

import turanlab
from turanlab import (
    BudgetExceededError,
    ExtremalResult,
    ForbiddenFamily,
    SearchBudget,
    SimpleGraph,
    best_feasible_wheel_graph,
    brute_force_ex,
    build_from_recipe,
    canonical_form,
    certificate,
    complete,
    contains_subgraph,
    cycle,
    decode_graph6,
    disjoint_union,
    encode_graph6,
    is_free,
    is_k_colorable,
    labeled_filter_ex,
    maximality_audit,
    path,
    threshold_scan,
    turan,
    turan_edge_count,
    union_extremal_graph,
    union_extremal_value,
    wheel,
    wheel_construction_recipe,
    wheel_extremal_graph,
    wheel_extremal_value,
)
from turanlab.cli import build_formula, build_seeds_provider, parse_family
from turanlab.containment import as_family
from turanlab.graph6 import json_doc
from turanlab.oracle import _children


GOLDEN = Path(__file__).parent / "golden"


@functools.cache
def separate_run(family: str, spec: str, n: int) -> tuple[int, int]:
    """ex(n) and |EX(n)| from a run at n alone, seeded as ``scan`` seeds it."""
    fam = parse_family(family)
    r = brute_force_ex(n, fam, seeds=build_seeds_provider(spec, fam)(n))
    return r.ex_value, len(r.witnesses)


def grow(fam, n: int) -> list[list[bytes]]:
    """Certificates of every class _children reaches on 1..n vertices,
    with no edge bound, each class kept at its first child."""
    fam, level, out = as_family(fam), [SimpleGraph(0)], []
    for _ in range(n):
        found: dict[bytes, SimpleGraph] = {}
        for parent in level:
            for child in _children(parent, fam, 0):
                found.setdefault(certificate(child), child)
        certs = sorted(found)
        level = [found[c] for c in certs]
        out.append(certs)
    return out


class TestBruteForce:
    def test_triangle_free_baseline(self):
        for n in range(1, 8):
            r = brute_force_ex(n, [complete(3)])
            assert r.ex_value == n * n // 4
            assert r.exhaustive
            assert certificate(turan(n, 2)) in [certificate(w) for w in r.witnesses]

    def test_k4_free_baseline(self):
        for n in range(4, 8):
            r = brute_force_ex(n, [complete(4)])
            assert r.ex_value == turan_edge_count(n, 3)

    def test_pattern_too_large_fast_path(self):
        # nothing on 4 vertices can hold a 5-clique, so ex is all pairs
        r = brute_force_ex(4, [complete(5)])
        assert r.ex_value == 6
        assert r.exhaustive
        assert r.witnesses == (complete(4),)

    def test_every_graph_contains_family(self):
        # a single-vertex pattern embeds in anything, so ex is undefined
        with pytest.raises(ValueError):
            brute_force_ex(3, [complete(1)])

    def test_edgeless_witness(self):
        r = brute_force_ex(3, [complete(2)])
        assert r.ex_value == 0
        assert r.witnesses == (SimpleGraph(3),)

    def test_witnesses_are_free_and_extremal(self):
        fam = ForbiddenFamily([cycle(4)])
        r = brute_force_ex(6, fam)
        assert r.witnesses
        for w in r.witnesses:
            assert w.edge_count == r.ex_value
            assert is_free(w, fam)

    def test_hard_cap(self):
        with pytest.raises(ValueError):
            brute_force_ex(11, [complete(3)])
        with pytest.raises(ValueError, match="need n >= 0, got n=-1"):
            brute_force_ex(-1, [complete(3)])

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            brute_force_ex(5, [complete(3)], seeds=(complete(4),))
        with pytest.raises(ValueError):
            brute_force_ex(5, [complete(3)], seeds=(turan(4, 2),))
        with pytest.raises(ValueError, match="seed contains the forbidden family"):
            brute_force_ex(6, [complete(3)], seeds=[complete(6)])
        # below the union's order too, where the answer is K_n
        with pytest.raises(ValueError, match="seed has 5 vertices, expected 2"):
            brute_force_ex(2, [complete(3)], seeds=[complete(5)])

    def test_seeds_do_not_change_answer(self):
        fam = [complete(3), complete(3)]
        plain = brute_force_ex(7, fam)
        seeded = brute_force_ex(
            7, fam, seeds=(union_extremal_graph(7, 2, turan(6, 2)),)
        )
        assert plain.ex_value == seeded.ex_value
        assert [certificate(w) for w in plain.witnesses] == [
            certificate(w) for w in seeded.witnesses
        ]
        assert seeded.candidates <= plain.candidates

    def test_clique_seed_prunes_bipartite_unions(self):
        # the Turan seed of C4 u C4 is edgeless; K7 plus two isolated
        # vertices is the internal seed that keeps n = 9 within budget
        fam = [cycle(4), cycle(4)]
        budget = SearchBudget(max_seconds=60)
        plain = brute_force_ex(9, fam, budget=budget)
        clique = disjoint_union([complete(7), SimpleGraph(2)])
        seeded = brute_force_ex(9, fam, budget=budget, seeds=(clique,))
        assert plain.ex_value == seeded.ex_value == 24
        assert [certificate(w) for w in plain.witnesses] == [
            certificate(w) for w in seeded.witnesses
        ]
        assert len(plain.witnesses) == 2
        # the internal seed prunes exactly as the explicit one does
        assert plain.candidates == seeded.candidates

    def test_clique_seed_skipped_when_it_holds_a_copy(self):
        # K3 plus isolated vertices contains K3 u K1, so it is no seed
        fam = [complete(3), complete(1)]
        for n in range(4, 8):
            a = brute_force_ex(n, fam)
            b = labeled_filter_ex(n, fam)
            assert a.ex_value == b.ex_value, n
            assert [encode_graph6(w) for w in a.witnesses] == [
                encode_graph6(w) for w in b.witnesses
            ], n

    def test_budget_trips_with_partial(self):
        budget = SearchBudget(max_candidates=5)
        with pytest.raises(BudgetExceededError) as info:
            brute_force_ex(7, [complete(3)], budget=budget)
        partial = info.value.partial
        assert not partial.exhaustive
        assert partial.n == 7
        assert partial.candidates == 6
        assert partial.ex_value == 12

    @pytest.mark.parametrize("cap", [5, 50, 300])
    def test_budget_partial_bytes_pinned(self, cap):
        # recorded before the level step skipped masks by the parent's
        # automorphisms: the skip must not move a partial byte
        with pytest.raises(BudgetExceededError) as info:
            brute_force_ex(9, [cycle(4)], budget=SearchBudget(max_candidates=cap))
        golden = GOLDEN / f"budget_c4_n9_cap{cap}.json"
        assert info.value.partial.to_json() == golden.read_text()

    def test_c4_n9_bytes_pinned(self):
        # the largest sparse job, recorded before the level step rejected
        # masks by the neighbour-degree invariant
        r = brute_force_ex(9, [cycle(4)])
        assert r.to_json() == (GOLDEN / "brute_force_c4_n9.json").read_text()

    @pytest.mark.parametrize("cap, completed", [(5, 3), (50, 5), (300, 7)])
    def test_budget_partial_keeps_its_completed_levels(self, cap, completed):
        # the pinned partials above: levels 1..completed finished, and each
        # record is ex(s) and |EX(s)| of its own run
        with pytest.raises(BudgetExceededError) as info:
            brute_force_ex(9, [cycle(4)], budget=SearchBudget(max_candidates=cap))
        levels = info.value.partial.levels
        assert len(levels) == completed
        for s, record in enumerate(levels, start=1):
            r = brute_force_ex(s, [cycle(4)])
            assert record == (r.ex_value, len(r.witnesses)), s

    def test_levels_stay_out_of_the_json(self):
        r = brute_force_ex(8, [cycle(4)])
        assert r.levels[-1] == (r.ex_value, len(r.witnesses)) == (11, 5)
        assert len(r.levels) == 8
        assert "levels" not in r.to_json_dict()

    def test_budget_partial_counts_the_top_level(self):
        # 1226 of the 1753 classes are on 9 vertices: a trip among them
        # reports the best one admitted, not the K3 + E6 seed's 3 edges
        with pytest.raises(BudgetExceededError) as info:
            brute_force_ex(9, [cycle(4)], budget=SearchBudget(max_candidates=1752))
        partial = info.value.partial
        assert (partial.ex_value, partial.candidates) == (13, 1753)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(max_candidates=0)
        with pytest.raises(ValueError):
            SearchBudget(max_seconds=-1.0)
        with pytest.raises(ValueError):
            SearchBudget(max_seconds=float("nan"))


def test_searches_leave_no_cyclic_garbage():
    # the recursive searches of containment, canonical forms and coloring
    # are closures that call themselves; each clears its own name when done,
    # so no call leaves a reference cycle for the collector
    gc.collect()
    gc.disable()
    try:
        brute_force_ex(8, [wheel(7)])
        contains_subgraph(complete(6), cycle(5))
        certificate(cycle(7))
        is_k_colorable(cycle(7), 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestMinDegreeLevels:
    """The level step admits a child only when its new vertex has minimum
    degree.  These gates share no code with that rule."""

    def test_triangle_free_class_counts(self):
        # OEIS A006785: triangle-free graphs on n unlabeled vertices
        counts = [len(certs) for certs in grow([complete(3)], 9)]
        assert counts == [1, 2, 3, 7, 14, 38, 107, 410, 1897]

    def test_every_atlas_class_is_reached(self):
        nx = pytest.importorskip("networkx")
        by_order: dict[int, set[bytes]] = {}
        for h in nx.graph_atlas_g()[1:]:
            g = SimpleGraph(h.number_of_nodes(), h.edges())
            by_order.setdefault(g.n, set()).add(certificate(g))
        # nothing on 7 vertices holds K8, so every class is free
        levels = grow([complete(8)], 7)
        assert [len(certs) for certs in levels] == [1, 2, 4, 11, 34, 156, 1044]
        for n, certs in enumerate(levels, start=1):
            assert set(certs) == by_order[n]

    def test_free_atlas_classes_are_reached(self):
        # the mask rules must lose no free class: networkx's monomorphism
        # test shares no code with them or with containment
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher

        atlas = nx.graph_atlas_g()[1:]
        cases = [
            ([cycle(4)], nx.cycle_graph(4), [1, 2, 4, 8, 18, 44, 117]),
            (
                [complete(3), complete(3)],
                nx.disjoint_union(nx.complete_graph(3), nx.complete_graph(3)),
                [1, 2, 4, 11, 34, 130, 641],
            ),
        ]
        for fam, p, counts in cases:
            free: dict[int, set[bytes]] = {n: set() for n in range(1, 8)}
            for h in atlas:
                if not GraphMatcher(h, p).subgraph_is_monomorphic():
                    g = SimpleGraph(h.number_of_nodes(), h.edges())
                    free[g.n].add(certificate(g))
            levels = grow(fam, 7)
            assert [len(certs) for certs in levels] == counts
            for n, certs in enumerate(levels, start=1):
                assert set(certs) == free[n]

    def test_seeded_wheel_matches_formula_above_hard_cap(self):
        for n, value in [(10, 31), (11, 37), (12, 43)]:
            r = brute_force_ex(
                n, [wheel(7)], seeds=(best_feasible_wheel_graph(n, 3),),
                allow_large=True,
            )
            assert r.ex_value == value == wheel_extremal_value(n, 3).value

    def test_seeded_two_triangles_match_layered_formula_above_hard_cap(self):
        fam = [complete(3), complete(3)]
        for n, value in [(10, 29), (11, 35), (12, 41), (13, 48)]:
            seeds = tuple(
                union_extremal_graph(n, ell, turan(n - ell + 1, 2)) for ell in (1, 2)
            )
            r = brute_force_ex(n, fam, seeds=seeds, allow_large=True)
            formula = union_extremal_value(
                n, fam, lambda m, ell: turan_edge_count(m, 2)
            )
            assert r.ex_value == value == formula.value


SWEEP_FAMILIES = [
    "k3", "c4", "c5", "k3,k3", "w5", "w7", "k4", "c4,c4", "k3,c5", "k2,k2",
    "c5,c5", "w5,k3",
]


def oracle_sweep() -> str:
    """ex, candidates and witnesses of brute_force_ex over SWEEP_FAMILIES at
    n = 0..8, with the error text where there is one; writing this string
    to golden/oracle_sweep.json regenerates that file."""
    rows = []
    for spec in SWEEP_FAMILIES:
        fam = parse_family(spec)
        for n in range(9):
            row = {"family": spec, "n": n}
            try:
                r = brute_force_ex(n, fam)
            except ValueError as e:
                row["error"] = str(e)
            else:
                row["ex_value"] = r.ex_value
                row["candidates"] = r.candidates
                row["witnesses"] = [encode_graph6(w) for w in r.witnesses]
            rows.append(row)
    return json_doc({"rows": rows})


def test_oracle_sweep_golden():
    # recorded before the level step skipped masks by the parent's
    # automorphisms
    assert oracle_sweep() == (GOLDEN / "oracle_sweep.json").read_text()


class TestOrbitSkip:
    """The level step skips a mask that an automorphism of the parent maps
    to a smaller mask, and rejects one whose new vertex has a rival of
    larger invariant.  These gates share no code with ``canonical`` or
    with the oracle's invariant test."""

    def test_skipped_children_are_copies_of_kept_ones(self, monkeypatch):
        nx = pytest.importorskip("networkx")
        import turanlab.oracle as oracle

        built: list[int] = []
        augment = oracle._augment

        def recording(parent, nb):
            built.append(nb)
            return augment(parent, nb)

        monkeypatch.setattr(oracle, "_augment", recording)

        def child(h, nb):
            c = h.copy()
            m = h.number_of_nodes()
            c.add_node(m)
            c.add_edges_from((x, m) for x in range(m) if nb >> x & 1)
            return c

        def passes_invariant(c, new):
            # no other minimum-degree vertex has larger sorted neighbour
            # degrees than the new vertex
            deg = dict(c.degree())
            inv = {v: sorted(deg[x] for x in c[v]) for v in c}
            return all(
                inv[v] <= inv[new] for v in c if deg[v] == deg[new]
            )

        rng = random.Random(53)
        fam = as_family([complete(5)])
        skipped = rejected = 0
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 8), rng.choice([0.2, 0.5, 0.8]))
            if not is_free(g, fam):
                continue
            built.clear()
            list(_children(g, fam, 0))
            deg = g.degrees()
            low = min(deg)
            low_mask = sum(1 << u for u, d in enumerate(deg) if d == low)
            admissible = [
                nb for nb in range(1 << g.n)
                if nb.bit_count() <= low
                or (nb.bit_count() == low + 1 and not low_mask & ~nb)
            ]
            assert set(built) <= set(admissible)
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            for nb in built:
                assert passes_invariant(child(h, nb), g.n)
            for nb in admissible:
                if nb in built:
                    continue
                if not passes_invariant(child(h, nb), g.n):
                    rejected += 1
                    continue
                skipped += 1
                assert any(
                    nx.is_isomorphic(child(h, nb), child(h, kept))
                    for kept in built if kept < nb
                )
        assert skipped > 200
        assert rejected > 200


class TestResultSerialization:
    def test_json_roundtrip_is_byte_identical(self):
        r = brute_force_ex(5, [complete(3)])
        text = r.to_json()
        back = ExtremalResult.from_json_dict(json.loads(text))
        assert back.to_json() == text
        # the levels are not serialized, and not compared either
        assert back == r and hash(back) == hash(r)
        assert back.ex_value == r.ex_value
        assert back.witnesses == r.witnesses
        with pytest.raises(ValueError, match="unknown result schema"):
            ExtremalResult.from_json_dict({**r.to_json_dict(), "schema": "other/1"})

    def test_tampered_documents_are_rejected(self):
        doc = json.loads((GOLDEN / "brute_force.json").read_text())
        assert ExtremalResult.from_json_dict(doc).to_json_dict() == doc
        for key in sorted(doc.keys() - {"schema"}):
            lacking = {k: v for k, v in doc.items() if k != key}
            with pytest.raises(ValueError, match=key):
                ExtremalResult.from_json_dict(lacking)
        with pytest.raises(ValueError, match="witness_count"):
            ExtremalResult.from_json_dict({**doc, "witness_count": 2})
        # a one-vertex witness in a result at n = 3
        with pytest.raises(ValueError, match="order"):
            ExtremalResult.from_json_dict({**doc, "n": 3, "witnesses": ["@"]})

    def test_budget_partial_roundtrip_is_equal(self):
        with pytest.raises(BudgetExceededError) as info:
            brute_force_ex(9, [cycle(4)], budget=SearchBudget(max_candidates=50))
        partial = info.value.partial
        text = partial.to_json()
        back = ExtremalResult.from_json_dict(json.loads(text))
        assert back.to_json() == text
        assert back == partial and partial.levels and not back.levels

    def test_runs_over_equal_families_are_equal(self):
        k3 = complete(3)
        assert brute_force_ex(7, [k3, k3]) == brute_force_ex(
            7, ForbiddenFamily([k3, k3])
        )
        a, b = parse_family("k3,k3"), parse_family("k3,k3")
        assert a is not b
        formula = build_formula("union-turan:2", a)
        report_a = threshold_scan(a, range(3, 8), formula)
        report_b = threshold_scan(b, range(3, 8), formula)
        assert report_a == report_b

    def test_witnesses_encode_as_graph6(self):
        r = brute_force_ex(4, [complete(3)])
        doc = r.to_json_dict()
        assert doc["schema"] == "extremal-result/1"
        assert [decode_graph6(t) for t in doc["witnesses"]] == list(r.witnesses)


class TestLabeledFilter:
    def test_agrees_with_level_search(self):
        families = [
            [complete(3)],
            [complete(3), complete(3)],
            [cycle(4)],
            [path(4)],
            [wheel(5)],
        ]
        for pats in families:
            for n in range(1, 7):
                a = brute_force_ex(n, pats)
                b = labeled_filter_ex(n, pats)
                assert a.ex_value == b.ex_value, (pats, n)
                # both emit each class in its canonical labeling
                assert [encode_graph6(w) for w in a.witnesses] == [
                    encode_graph6(w) for w in b.witnesses
                ], (pats, n)
                for w in a.witnesses:
                    assert canonical_form(w)[1] == w

    def test_order_cap(self):
        with pytest.raises(ValueError):
            labeled_filter_ex(8, [complete(3)])
        with pytest.raises(ValueError, match="need n >= 0, got n=-1"):
            labeled_filter_ex(-1, [complete(3)])

    @staticmethod
    def exhaustive(n: int, pats) -> tuple[int, int, set[bytes]]:
        """(max edges, count, certificates of the max-edge graphs) over the
        free labeled graphs on n vertices, each built and tested with
        is_free."""
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
        best, count, top = -1, 0, set()
        for mask in range(1 << len(pairs)):
            edges = [p for e, p in enumerate(pairs) if mask >> e & 1]
            g = SimpleGraph(n, edges)
            if not is_free(g, pats):
                continue
            count += 1
            if len(edges) > best:
                best, top = len(edges), set()
            if len(edges) == best:
                top.add(certificate(g))
        return best, count, top

    @pytest.mark.parametrize(
        "pats, top",
        [
            ([complete(3)], 6),
            ([complete(3), complete(3)], 5),
            ([cycle(4)], 5),
            ([cycle(5)], 5),
            ([wheel(5)], 5),
            ([path(4)], 5),
        ],
    )
    def test_matches_graph_by_graph_check(self, pats, top):
        for n in range(top + 1):
            r = labeled_filter_ex(n, pats)
            best, count, classes = self.exhaustive(n, pats)
            assert (r.ex_value, r.candidates) == (best, count), n
            # every extremal class, each once
            assert len(r.witnesses) == len(classes), n
            assert {certificate(w) for w in r.witnesses} == classes, n

    @pytest.mark.parametrize(
        "pats, expected",
        [
            ([complete(3)], (12, 1, 133501)),
            ([complete(3), complete(3)], (15, 3, 1251352)),
            ([cycle(4)], (9, 5, 163440)),
            ([cycle(5)], (12, 2, 316453)),
            ([wheel(5)], (15, 1, 1542940)),
        ],
    )
    def test_pinned_at_seven(self, pats, expected):
        r = labeled_filter_ex(7, pats)
        assert (r.ex_value, len(r.witnesses), r.candidates) == expected

    def test_tiny_orders(self):
        for n in (0, 1):
            r = labeled_filter_ex(n, [complete(3)])
            assert (r.ex_value, r.candidates) == (0, 1)
            assert r.witnesses == (SimpleGraph(n),)
        with pytest.raises(ValueError, match="every graph on 2 vertices"):
            labeled_filter_ex(2, [complete(1)])
        # a union larger than n marks nothing: all 8 labeled graphs are free
        r = labeled_filter_ex(3, [complete(4)])
        assert (r.ex_value, r.candidates, r.witnesses) == (3, 8, (complete(3),))

    def test_runs_without_numpy(self):
        code = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from turanlab import complete, labeled_filter_ex\n"
            "r = labeled_filter_ex(6, [complete(3)])\n"
            "print(r.ex_value, r.candidates)\n"
        )
        src = str(Path(turanlab.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "9 5789\n", "")


class TestThresholdScan:
    def test_triangle_scan_all_match(self):
        report = threshold_scan(
            [complete(3)], range(3, 8), lambda n: n * n // 4
        )
        assert all(row.match for row in report.rows)
        assert report.first_agreement == 3

    def test_wheel_scan_has_single_gap(self):
        # the closed form overshoots once before settling
        report = threshold_scan(
            [wheel(7)],
            range(7, 10),
            lambda n: wheel_extremal_value(n, 3).value,
            seeds_provider=lambda n: (
                build_from_recipe(wheel_construction_recipe(n, 3, n0=4)),
            ),
        )
        matches = [row.match for row in report.rows]
        assert matches == [True, True, False]
        oracle = [row.oracle for row in report.rows]
        assert oracle == [17, 21, 25]

    def test_budget_rows_become_unknown(self):
        report = threshold_scan(
            [complete(3)],
            range(3, 9),
            lambda n: n * n // 4,
            budget=SearchBudget(max_candidates=3),
        )
        # the one run at n = 8 admits one class on each of 1..3 vertices,
        # so the cap trips at level 4 and only the row n = 3 is known
        assert [row.match for row in report.rows] == [True] + [None] * 5
        assert all(row.oracle is None for row in report.rows[1:])

    @pytest.mark.parametrize(
        "orders, message",
        [(range(8, 12), "HARD_CAP"), (range(-1, 3), "need n >= 0")],
    )
    def test_every_order_is_checked_before_the_first_runs(
        self, orders, message, monkeypatch
    ):
        import turanlab.oracle as oracle

        calls = []
        run = oracle.brute_force_ex
        monkeypatch.setattr(
            oracle, "brute_force_ex",
            lambda n, *args, **kw: calls.append(("run", n)) or run(n, *args, **kw),
        )

        def formula(n):
            calls.append(("formula", n))
            return n * n // 4

        def provider(n):
            calls.append(("provider", n))
            return (turan(n, 2),)

        with pytest.raises(ValueError, match=message):
            threshold_scan([complete(3)], orders, formula, seeds_provider=provider)
        assert calls == []
        # a scan that runs evaluates every formula first, then calls the
        # provider and the oracle once each, at the largest order
        report = threshold_scan(
            [complete(3)], [5, 3, 7, 4], formula, seeds_provider=provider
        )
        assert calls == [("formula", n) for n in (5, 3, 7, 4)] + [
            ("provider", 7), ("run", 7)
        ]
        assert [r.oracle for r in report.rows] == [6, 2, 12, 4]
        # a formula that raises does so before any oracle work
        calls.clear()
        fam = parse_family("w7")
        wheel_formula = build_formula("wheel:3", fam)
        with pytest.raises(ValueError, match="need n >= 1"):
            threshold_scan(fam, range(0, 8), wheel_formula, seeds_provider=provider)
        assert calls == []

    @pytest.mark.parametrize(
        "family, spec, first, last, cap, unknown_from",
        [
            ("k3", "turan:2", 0, 10, None, None),
            ("c4", "turan:2", 1, 9, None, None),
            ("c5", "turan:2", 1, 9, None, None),
            ("k4", "turan:3", 0, 9, None, None),
            ("w7", "wheel:3", 1, 10, None, None),
            ("k3,k3", "union-turan:2", 1, 10, None, None),
            ("k3,c5", "union-turan:2", 6, 10, None, None),
            ("c4,c4", "union-turan:2", 5, 9, None, None),
            ("k3", "turan:2", 3, 8, 3, 4),
            ("c4", "turan:2", 3, 9, 50, 6),
            ("c4", "turan:2", 3, 9, 300, 8),
            ("c4", "turan:2", 3, 9, 1000, 9),
            ("k3,k3", "union-turan:2", 3, 10, 200, None),
            # a trip at level 3, below the union's order 6: K_n answers
            # rows 1..5, so only the rows from 6 up are unknown
            ("k3,k3", "union-turan:2", 1, 8, 2, 6),
            ("w7", "wheel:3", 7, 10, 100, None),
        ],
    )
    def test_rows_equal_separate_runs(
        self, family, spec, first, last, cap, unknown_from
    ):
        # the one run at the last order against one run per order, each with
        # its own seeds; a budget trip at level s leaves the rows from
        # unknown_from = max(s, t) up unknown, t the order of the family's
        # union, and every row below it exact
        fam = parse_family(family)
        report = threshold_scan(
            fam,
            range(first, last + 1),
            build_formula(spec, fam),
            budget=SearchBudget(max_candidates=cap) if cap else None,
            seeds_provider=build_seeds_provider(spec, fam),
        )
        for row in report.rows:
            if unknown_from is not None and row.n >= unknown_from:
                assert row.match is None and row.oracle is None, row.n
                continue
            assert (row.oracle, row.witness_count) == separate_run(
                family, spec, row.n
            ), row.n
            assert row.match == (row.oracle == row.formula)

    def test_text_table_shape(self):
        report = threshold_scan([complete(3)], range(3, 6), lambda n: n * n // 4)
        text = report.to_text()
        lines = text.strip().splitlines()
        assert lines[0].split() == ["n", "formula", "oracle", "witnesses", "match"]
        assert len(lines) == 1 + 3 + 1
        assert "formula agrees from n = 3 onward" in text

    def test_json_roundtrip(self):
        report = threshold_scan([complete(3)], range(3, 6), lambda n: n * n // 4)
        doc = report.to_json_dict()
        assert doc["schema"] == "threshold-report/1"
        assert json.loads(report.to_json()) == doc


class TestMaximality:
    def test_extremal_witnesses_are_maximal(self):
        r = brute_force_ex(6, [complete(3)])
        for w in r.witnesses:
            assert maximality_audit(w, [complete(3)]).maximal

    def test_construction_is_maximal(self):
        rep = maximality_audit(wheel_extremal_graph(12, 3), [wheel(7)])
        assert rep.maximal
        assert rep.violations == ()

    def test_non_maximal_reports_violations(self):
        rep = maximality_audit(path(4), [complete(3)])
        assert not rep.maximal
        assert (0, 3) in rep.violations

    def test_rejects_non_free_input(self):
        with pytest.raises(ValueError):
            maximality_audit(complete(3), [complete(3)])
