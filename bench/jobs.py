"""The benchmark's four job lists, their inputs and their answer checks.

Every job calls the public turanlab API and returns a plain answer that is
compared with the pinned references in ``references.json`` after the timed
region.  Oracle answers are compared as the ex value plus the witness set up
to isomorphism, decided by ``networkx.is_isomorphic`` so that the check
shares no code with ``turanlab.canonical``.  Certificate bytes are never
compared: a rewrite of the canonical form may change them legitimately.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCES = Path(__file__).with_name("references.json")

# family label -> pattern tokens in the spelling of the turanlab CLI
FAMILIES = {
    "K3": ["k3"],
    "2K3": ["k3", "k3"],
    "C4": ["c4"],
    "C5": ["c5"],
    "W5": ["w5"],
    "W7": ["w7"],
}

# workload -> oracle jobs (family label, n, seeds formula or None)
ORACLE_JOBS = {
    "union-seeded": (
        [("2K3", n, "union-turan:2") for n in range(6, 10)]
        + [("W7", n, "wheel:3") for n in range(7, 10)]
    ),
    "sparse-unseeded": [("K3", 10, None), ("C4", 9, None), ("C5", 9, None)],
}
DUAL_FAMILIES = ("K3", "2K3", "C4", "C5", "W5")
DUAL_N = 7
# the odd wheel W_{2k+1} that wheel_extremal_graph(n, k) must avoid
CONSTRUCTION_KS = (3, 4)
CONSTRUCTION_MAX_N = 60
FREENESS_MAX_N = 30

WORKLOADS = ("union-seeded", "sparse-unseeded", "construction-verify", "dual-oracle")


@dataclass
class Job:
    """One unit of timed work.

    ``run(api)`` calls the turanlab functions through ``api``, which is the
    package itself or the tracer's timed stand-in, and returns the answer
    that is checked against the pinned reference named by ``ref_key``.
    ``probe`` names the speed probe of ``speed.PROBES`` the job is timed by.
    """

    job_id: str
    kind: str  # "oracle", "filter" or "construction"
    run: Callable[[object], object]
    ref_key: str
    probe: str = "loop"


def family_key(label: str, n: int) -> str:
    return f"{label}/{n}"


def construction_key(k: int, n: int) -> str:
    return f"k{k}/{n}"


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def build_jobs(workload: str, seed: int, tl, refs: dict) -> list[Job]:
    """The workload's job list; ``tl`` is the imported turanlab package.

    The seed relabels the construction seeds handed to the oracle.  It never
    changes an answer, only the labels the seed checks run on.
    """
    from turanlab.cli import build_seeds_provider, parse_family

    rng = random.Random(seed)
    jobs: list[Job] = []
    if workload in ORACLE_JOBS:
        for label, n, formula in ORACLE_JOBS[workload]:
            fam = parse_family(",".join(FAMILIES[label]))
            seeds: tuple = ()
            if formula is not None:
                raw = build_seeds_provider(formula, fam)(n)
                seeds = tuple(g.relabel(rng.sample(range(n), n)) for g in raw)
            jobs.append(Job(
                f"bf:{label}:{n}", "oracle",
                lambda api, n=n, fam=fam, seeds=seeds: api.brute_force_ex(
                    n, fam, seeds=seeds),
                family_key(label, n),
            ))
    elif workload == "dual-oracle":
        for label in DUAL_FAMILIES:
            fam = parse_family(",".join(FAMILIES[label]))
            key = family_key(label, DUAL_N)
            jobs.append(Job(
                f"lf:{label}:{DUAL_N}", "filter",
                lambda api, fam=fam: api.labeled_filter_ex(DUAL_N, fam), key,
            ))
            jobs.append(Job(
                f"bf:{label}:{DUAL_N}", "oracle",
                lambda api, fam=fam: api.brute_force_ex(DUAL_N, fam), key,
            ))
    elif workload == "construction-verify":
        for k in CONSTRUCTION_KS:
            pattern = tl.wheel(2 * k + 1)
            for n in refs["constructions"][f"k{k}"]["buildable"]:
                jobs.append(Job(
                    f"cv:k{k}:{n}", "construction",
                    lambda api, n=n, k=k, pattern=pattern: verify_construction(
                        api, n, k, pattern),
                    construction_key(k, n),
                    probe="search",
                ))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


def verify_construction(api, n: int, k: int, pattern) -> tuple:
    g = api.wheel_extremal_graph(n, k)
    formula = api.wheel_extremal_value(n, k).value
    free = None
    if n <= FREENESS_MAX_N:
        free = api.contains_subgraph(g, pattern) is None
    return (g.n, g.edge_count, formula, free)


def summarize(job: Job, answer) -> tuple:
    """Hashable plain-data form of an answer, for deduplication and checks."""
    if job.kind == "construction":
        return answer
    return (
        answer.ex_value,
        tuple((w.n, tuple(w.edges())) for w in answer.witnesses),
    )


def check(job: Job, summary: tuple, refs: dict) -> str | None:
    """None when the answer matches the pinned reference, else the reason."""
    if job.kind == "construction":
        k, n = job.ref_key.split("/")
        want_edges = refs["constructions"][k]["edges"][n]
        order, edges, formula, free = summary
        if order != int(n):
            return f"construction has {order} vertices, expected {n}"
        if edges != want_edges or formula != want_edges:
            return f"edges {edges}, closed form {formula}, pinned {want_edges}"
        if free is False:
            return "construction contains the forbidden wheel"
        return None
    ref = refs["oracle"][job.ref_key]
    ex_value, witnesses = summary
    if ex_value != ref["ex"]:
        return f"ex {ex_value}, pinned {ref['ex']}"
    if len(witnesses) != ref["witness_count"]:
        return f"{len(witnesses)} witnesses, pinned {ref['witness_count']}"
    if not same_classes(witnesses, ref["witnesses"]):
        return "witness set differs from the pinned one up to isomorphism"
    return None


def same_classes(witnesses, pinned_graph6) -> bool:
    """Each witness matches a distinct pinned graph up to isomorphism."""
    import networkx as nx

    pinned = [nx.from_graph6_bytes(s.encode()) for s in pinned_graph6]
    for n, edges in witnesses:
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        match = next(
            (i for i, h in enumerate(pinned) if nx.is_isomorphic(g, h)), None
        )
        if match is None:
            return False
        pinned.pop(match)
    return not pinned
