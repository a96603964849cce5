"""Regenerate ``bench/references.json``, the pinned answers of every job.

Run from the repository root (takes about a minute):

    python3 bench/make_references.py

Oracle entries hold the ex value, the witness count and the witnesses as
graph6 written by networkx.  Each entry at n <= 7 is cross-checked against
``labeled_filter_ex``, and the values known independently of this code are
asserted before anything is written.  Construction entries hold, per k, the
orders at which ``wheel_extremal_graph`` builds and the closed-form edge
count there; freeness of every order up to the freeness limit is asserted.
"""

from __future__ import annotations

import json
import sys

import networkx as nx

import jobs as joblists

sys.path.insert(0, "src")
import turanlab as tl  # noqa: E402
from turanlab.cli import build_seeds_provider, parse_family  # noqa: E402

# (ex, witness count) known without this code: Mantel for K3, the
# Zarankiewicz-type table for C4 (OEIS A006855), the paper's desk checks
KNOWN = {
    "K3/7": (12, 1), "K3/10": (25, 1), "C4/7": (9, None), "C4/9": (13, 10),
    "C5/9": (20, None), "2K3/9": (24, 1), "W7/9": (25, 5),
}


def nx_graph(g) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def graph6(g) -> str:
    return nx.to_graph6_bytes(nx_graph(g), header=False).decode().strip()


def oracle_entry(label: str, n: int, formula: str | None) -> dict:
    fam = parse_family(",".join(joblists.FAMILIES[label]))
    seeds = build_seeds_provider(formula, fam)(n) if formula else ()
    res = tl.brute_force_ex(n, fam, seeds=seeds)
    entry = {
        "ex": res.ex_value,
        "witness_count": len(res.witnesses),
        "witnesses": [graph6(w) for w in res.witnesses],
    }
    if n <= 7:
        lf = tl.labeled_filter_ex(n, fam)
        summary = (lf.ex_value, tuple((w.n, tuple(w.edges())) for w in lf.witnesses))
        assert lf.ex_value == res.ex_value, (label, n)
        assert joblists.same_classes(summary[1], entry["witnesses"]), (label, n)
    key = joblists.family_key(label, n)
    if key in KNOWN:
        ex, count = KNOWN[key]
        assert entry["ex"] == ex, (key, entry["ex"])
        assert count is None or entry["witness_count"] == count, key
    return entry


def construction_entry(k: int) -> dict:
    pattern = tl.wheel(2 * k + 1)
    buildable, edges = [], {}
    for n in range(joblists.CONSTRUCTION_MAX_N + 1):
        try:
            g = tl.wheel_extremal_graph(n, k)
        except tl.InfeasibleConstructionError:
            continue
        value = tl.wheel_extremal_value(n, k).value
        assert g.n == n and g.edge_count == value, (k, n)
        if n <= joblists.FREENESS_MAX_N:
            assert tl.contains_subgraph(g, pattern) is None, (k, n)
        buildable.append(n)
        edges[str(n)] = value
    return {"buildable": buildable, "edges": edges}


def main() -> None:
    specs = [
        spec for workload in joblists.ORACLE_JOBS.values() for spec in workload
    ] + [(label, joblists.DUAL_N, None) for label in joblists.DUAL_FAMILIES]
    oracle = {}
    for label, n, formula in specs:
        oracle[joblists.family_key(label, n)] = oracle_entry(label, n, formula)
        print(label, n, oracle[joblists.family_key(label, n)]["ex"], flush=True)
    refs = {
        "oracle": oracle,
        "constructions": {f"k{k}": construction_entry(k)
                          for k in joblists.CONSTRUCTION_KS},
    }
    with open(joblists.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
