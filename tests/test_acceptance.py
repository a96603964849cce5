"""Acceptance gate: nine numbered end-to-end checks.

Each test prints one `[criterion N] PASS/FAIL` line with the measured
outcome, then asserts it.  Shared oracle runs (the expensive exhaustive
searches) are computed once per session and reused across criteria.
"""

import random
import time
from itertools import combinations_with_replacement

import pytest

from turanlab import (
    ForbiddenFamily,
    InfeasibleConstructionError,
    SimpleGraph,
    brute_force_ex,
    certificate,
    chromatic_number,
    complete,
    contains_subgraph,
    criticality,
    cycle,
    dominating_clique,
    encode_graph6,
    is_free,
    is_isomorphic,
    is_vertex_move_optimal,
    join,
    labeled_filter_ex,
    maximality_audit,
    min_internal_partition,
    structure_audit,
    threshold_scan,
    turan,
    turan_edge_count,
    union_extremal_graph,
    union_extremal_value,
    wheel,
    wheel_extremal_graph,
    wheel_extremal_value,
)
from turanlab.stability import _internal_edges, _layout, _local_search
from test_constructions import matches_reference


def report(capsys, num: int, ok: bool, detail: str) -> bool:
    with capsys.disabled():
        print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    return ok


def two_triangle_seeds(n: int) -> tuple[SimpleGraph, ...]:
    fam = ForbiddenFamily([complete(3), complete(3)])
    candidates = [turan(n, 2)]
    if n >= 2:
        candidates.append(union_extremal_graph(n, 2, turan(n - 1, 2)))
    return tuple(g for g in candidates if is_free(g, fam))


@pytest.fixture(scope="session")
def oracle_runs():
    """Session-shared exhaustive searches with per-block wall times."""
    runs = {"timings": {}}
    t0 = time.monotonic()
    runs["k3"] = {n: brute_force_ex(n, [complete(3)]) for n in range(3, 9)}
    runs["k4"] = {n: brute_force_ex(n, [complete(4)]) for n in range(4, 9)}
    runs["timings"]["baseline"] = time.monotonic() - t0
    t0 = time.monotonic()
    fam = [complete(3), complete(3)]
    runs["2k3"] = {
        n: brute_force_ex(n, fam, seeds=two_triangle_seeds(n)) for n in range(6, 10)
    }
    runs["timings"]["union"] = time.monotonic() - t0
    return runs


def test_criterion_1_turan_baselines(oracle_runs, capsys):
    failures = []
    for n in range(3, 9):
        r = oracle_runs["k3"][n]
        certs = [certificate(w) for w in r.witnesses]
        if r.ex_value != n * n // 4 or certificate(turan(n, 2)) not in certs:
            failures.append(("k3", n, r.ex_value))
    for n in range(4, 9):
        r = oracle_runs["k4"][n]
        certs = [certificate(w) for w in r.witnesses]
        if r.ex_value != turan_edge_count(n, 3) or certificate(turan(n, 3)) not in certs:
            failures.append(("k4", n, r.ex_value))
    elapsed = oracle_runs["timings"]["baseline"]
    ok = not failures and elapsed < 300
    detail = (
        f"triangle-free ex matches floor(n^2/4) for n=3..8 and K4-free ex "
        f"matches the 3-part bound for n=4..8, balanced witnesses present, "
        f"{elapsed:.1f}s"
        if ok
        else f"mismatches {failures}, {elapsed:.1f}s"
    )
    assert report(capsys, 1, ok, detail)


def test_criterion_2_union_formula_at_desk_scale(oracle_runs, capsys):
    t0 = time.monotonic()
    fam = ForbiddenFamily([complete(3), complete(3)])
    provider = lambda m, ell: turan_edge_count(m, 2)
    r9 = oracle_runs["2k3"][9]
    value_ok = r9.ex_value == 24 == 0 + 1 * 8 + 8 * 8 // 4
    audits_ok = True
    for w in r9.witnesses:
        audit = structure_audit(w, fam, provider)
        inner = w.induced([v for v in range(9) if v not in dominating_clique(w)])
        if not (audit.passed and audit.q == 1 and is_isomorphic(inner, turan(8, 2))):
            audits_ok = False
    scan = threshold_scan(
        fam,
        range(6, 10),
        lambda n: union_extremal_value(n, fam, provider).value,
        seeds_provider=two_triangle_seeds,
    )
    scan_ok = scan.first_agreement == 7 and scan.rows[-1].match
    elapsed = oracle_runs["timings"]["union"] + time.monotonic() - t0
    ok = value_ok and audits_ok and scan_ok and elapsed < 600
    detail = (
        f"ex(9, two triangles) = 24 with {len(r9.witnesses)} witness(es), all "
        f"one-dominating-vertex over a balanced bipartite block; scan 6..9 "
        f"agrees from n = {scan.first_agreement}, {elapsed:.1f}s"
        if ok
        else f"value_ok={value_ok} audits_ok={audits_ok} "
        f"first_agreement={scan.first_agreement}, {elapsed:.1f}s"
    )
    assert report(capsys, 2, ok, detail)


def test_criterion_3_wheel_construction_validity(capsys):
    t0 = time.monotonic()
    edge_fail, free_fail = [], []
    infeasible = {3: [], 4: []}
    for k in (3, 4):
        for n in range(0, 61):
            try:
                g = wheel_extremal_graph(n, k)
            except InfeasibleConstructionError:
                infeasible[k].append(n)
                continue
            if g.edge_count != wheel_extremal_value(n, k).value:
                edge_fail.append((n, k))
            if contains_subgraph(g, wheel(2 * k + 1)) is not None:
                free_fail.append((n, k))
    infeasible_ok = infeasible[3] == [0, 1, 2, 3, 4, 9] and infeasible[4] == list(
        range(6)
    )
    elapsed = time.monotonic() - t0
    ok = not edge_fail and not free_fail and infeasible_ok and elapsed < 300
    detail = (
        f"edge counts equal the closed form for every buildable n <= 60 at "
        f"k in {{3, 4}} (skips: k=3 at n=9 plus trivial small n), wheel-freeness "
        f"confirmed for n <= 60, {elapsed:.1f}s"
        if ok
        else f"edge_fail={edge_fail} free_fail={free_fail} "
        f"infeasible={infeasible}, {elapsed:.1f}s"
    )
    assert report(capsys, 3, ok, detail)


def test_criterion_4_two_maximization_forms_agree(capsys):
    t0 = time.monotonic()
    lists = [
        list(c)
        for size in range(1, 5)
        for c in combinations_with_replacement((5, 4, 3), size)
    ]
    checked, disagreements = 0, []
    for n in range(1, 201):
        for ks in lists:
            if not matches_reference(n, ks):
                disagreements.append((n, ks))
            checked += 1
    elapsed = time.monotonic() - t0
    ok = not disagreements and checked == 200 * len(lists)
    detail = (
        f"value and every (i, n0) maximizer match an exhaustive double "
        f"maximum on all {checked} evaluations (n <= 200, descending k-lists "
        f"of length <= 4 over {{3, 4, 5}}), {elapsed:.1f}s"
        if ok
        else f"disagreements {disagreements[:5]}"
    )
    assert report(capsys, 4, ok, detail)


def test_criterion_5_criticality_table(capsys):
    t0 = time.monotonic()
    rows_ok = []
    for n in (5, 7, 9):
        rep = criticality(wheel(n))
        rows_ok.append(rep.is_vertex_critical and not rep.is_edge_critical)
    for n in (4, 6, 8):
        rows_ok.append(criticality(wheel(n)).is_edge_critical)
    for n in (3, 4, 5):
        rows_ok.append(criticality(complete(n)).is_edge_critical)
    elapsed = time.monotonic() - t0
    ok = all(rows_ok) and elapsed < 60
    detail = (
        f"odd-order wheels vertex-critical and not edge-critical, even-order "
        f"wheels and K3..K5 edge-critical, {elapsed:.2f}s"
        if ok
        else f"row results {rows_ok}"
    )
    assert report(capsys, 5, ok, detail)


def test_criterion_6_maximality_of_witnesses(oracle_runs, capsys):
    checked, bad = 0, 0
    jobs = [
        ([complete(3)], oracle_runs["k3"]),
        ([complete(4)], oracle_runs["k4"]),
        ([complete(3), complete(3)], oracle_runs["2k3"]),
    ]
    for fam, block in jobs:
        for r in block.values():
            for w in r.witnesses:
                checked += 1
                if not maximality_audit(w, fam).maximal:
                    bad += 1
    ok = bad == 0 and checked > 0
    detail = (
        f"all {checked} extremal witnesses are edge-maximal"
        if ok
        else f"{bad} of {checked} witnesses admit a free edge addition"
    )
    assert report(capsys, 6, ok, detail)


def test_criterion_7_dual_oracle_agreement(oracle_runs, capsys):
    t0 = time.monotonic()
    disagreements = []
    families = [
        [complete(3)],
        [complete(3), complete(3)],
        [cycle(4)],
        [cycle(5)],
        [wheel(5)],
    ]

    def answer(r):
        return r.ex_value, [encode_graph6(w) for w in r.witnesses]

    for pats in families:
        for n in range(8):
            if answer(brute_force_ex(n, pats)) != answer(labeled_filter_ex(n, pats)):
                disagreements.append((pats, n))
    elapsed = time.monotonic() - t0
    ok = not disagreements
    detail = (
        f"level search and labeled-space filter return identical ex values "
        f"and byte-equal witness lists for K3, 2K3, C4, C5 and W5 at every "
        f"n <= 7, {elapsed:.1f}s"
        if ok
        else f"disagreements {disagreements}"
    )
    assert report(capsys, 7, ok, detail)


def test_criterion_8_partition_machinery(capsys):
    t0 = time.monotonic()
    agree = optimal = 0
    for s in range(100):
        rng = random.Random(1000 + s)
        n = rng.randint(4, 12)
        edges = [(i, j) for j in range(1, n) for i in range(j) if rng.random() < 0.5]
        g = SimpleGraph(n, edges)
        r = 2 + (s % 2)
        exact = min_internal_partition(g, r)
        local = _local_search(g, r, s)
        if exact.internal_edges == _internal_edges(g, local):
            agree += 1
        if is_vertex_move_optimal(g, _layout(g, local)):
            optimal += 1
    elapsed = time.monotonic() - t0
    ok = agree >= 95 and optimal == 100
    detail = (
        f"local search matches the exact minimum on {agree}/100 seeded graphs "
        f"and is vertex-move optimal on {optimal}/100, {elapsed:.1f}s"
    )
    assert report(capsys, 8, ok, detail)


def test_criterion_9_join_identities(capsys):
    failures = 0
    for s in range(200):
        rng = random.Random(2000 + s)
        gn = rng.randint(1, 6)
        g_edges = [
            (i, j) for j in range(1, gn) for i in range(j) if rng.random() < 0.5
        ]
        hn = rng.randint(1, 6)
        h_edges = [
            (i, j) for j in range(1, hn) for i in range(j) if rng.random() < 0.5
        ]
        g, h = SimpleGraph(gn, g_edges), SimpleGraph(hn, h_edges)
        j = join([g, h])
        if chromatic_number(j) != chromatic_number(g) + chromatic_number(h):
            failures += 1
        if j.edge_count != g.edge_count + h.edge_count + g.n * h.n:
            failures += 1
    ok = failures == 0
    detail = (
        "chromatic number and edge count are additive across the join on "
        f"200 seeded pairs, {failures} failures"
    )
    assert report(capsys, 9, ok, detail)
