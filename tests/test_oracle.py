"""Exhaustive oracle, labeled-space cross-check, scans, and audits."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import turanlab
from turanlab import (
    BudgetExceededError,
    ExtremalResult,
    ForbiddenFamily,
    SearchBudget,
    SimpleGraph,
    best_feasible_wheel_graph,
    brute_force_ex,
    canonical_form,
    certificate,
    complete,
    cycle,
    decode_graph6,
    disjoint_union,
    encode_graph6,
    is_free,
    labeled_filter_ex,
    maximality_audit,
    path,
    threshold_scan,
    turan,
    turan_edge_count,
    union_extremal_graph,
    union_extremal_value,
    wheel,
    wheel_extremal_graph,
    wheel_extremal_value,
)
from turanlab.containment import as_family
from turanlab.oracle import _next_level


def grow(fam, n: int) -> list[list[bytes]]:
    """Certificates of every class _next_level reaches on 1..n vertices,
    with no edge bound."""
    level, out = [SimpleGraph(0)], []
    for _ in range(n):
        found = sorted(_next_level(level, as_family(fam), 0))
        level = [g for _, g in found]
        out.append([c for c, _ in found])
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

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            brute_force_ex(5, [complete(3)], seeds=(complete(4),))
        with pytest.raises(ValueError):
            brute_force_ex(5, [complete(3)], seeds=(turan(4, 2),))

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

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(max_candidates=0)
        with pytest.raises(ValueError):
            SearchBudget(max_seconds=-1.0)
        with pytest.raises(ValueError):
            SearchBudget(max_seconds=float("nan"))


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


class TestResultSerialization:
    def test_json_roundtrip_is_byte_identical(self):
        r = brute_force_ex(5, [complete(3)])
        text = r.to_json()
        back = ExtremalResult.from_json_dict(json.loads(text))
        assert back.to_json() == text
        assert back.ex_value == r.ex_value
        assert back.witnesses == r.witnesses

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
            seeds_provider=lambda n: (wheel_extremal_graph(n, 3, n0=4),),
        )
        matches = [row.match for row in report.rows]
        assert matches == [True, True, False]
        oracle = [row.oracle_value for row in report.rows]
        assert oracle == [17, 21, 25]

    def test_budget_rows_become_unknown(self):
        report = threshold_scan(
            [complete(3)],
            range(3, 9),
            lambda n: n * n // 4,
            budget=SearchBudget(max_candidates=3),
        )
        # K3 at order n admits n classes, so only n = 3 fits under the cap
        assert [row.match for row in report.rows] == [True] + [None] * 5
        assert all(row.oracle_value is None for row in report.rows[1:])

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
