"""Command-line surface: constructions, formulas, oracle runs, and audits.

Exit codes: 0 success; 2 usage or validation error; 3 budget exhaustion
(partial results are still written when an output path was given; a trip at
level s leaves a scan's rows from max(s, t) up unknown, t the union's order).

Family specs are comma-separated pattern tokens, order significant:
``wN`` wheel, ``kN`` complete, ``cN`` cycle, ``pN`` path, ``g6:<text>`` a
graph6 literal.  Formula specs, one grammar for ``ex-formula --formula`` and
``scan --formula``: ``turan:R``, ``wheel:K``, ``wheels:K1,K2,...``
(descending), ``union-turan:R`` (layered formula over the given family with
Turan inner values; ``scan`` only, as ``ex-formula`` takes no family).
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict
from typing import Callable, Sequence

from .coloring import criticality
from .constructions import (
    best_feasible_wheel_graph,
    build_from_recipe,
    union_extremal_graph,
    union_extremal_value,
    union_wheels_value,
    wheel_construction_recipe,
    wheel_extremal_value,
)
from .containment import ForbiddenFamily, is_free
from .graph6 import (
    decode_graph6,
    encode_graph6,
    json_doc,
    read_graph6_lines,
    write_graph6_lines,
)
from .graphs import SimpleGraph, complete, cycle, path, turan, turan_edge_count, wheel
from .oracle import (
    HARD_CAP,
    BudgetExceededError,
    SearchBudget,
    brute_force_ex,
    maximality_audit,
    threshold_scan,
)
from .stability import min_degree_audit, min_internal_partition, structure_audit


# the largest order the CLI builds from a number it reads (wN, kN, cN, pN,
# turan:N,R, gen --n, brute-force --n, scan --n-to, stability --r); it
# bounds allocation and recursion
MAX_ORDER = 512


def _bounded_order(n: int, what: str) -> int:
    if n > MAX_ORDER:
        raise ValueError(f"{what}: order {n} exceeds MAX_ORDER={MAX_ORDER}")
    return n


def parse_pattern_token(token: str) -> SimpleGraph:
    """One family token: wN, kN, cN, pN, or g6:<text>."""
    t = token.strip()
    if t.startswith("g6:"):
        return decode_graph6(t[3:])
    if len(t) >= 2 and t[0] in "wkcp" and t[1:].isdigit():
        n = _bounded_order(int(t[1:]), f"pattern {t!r}")
        builder = {"w": wheel, "k": complete, "c": cycle, "p": path}[t[0]]
        return builder(n)
    raise ValueError(
        f"unrecognized pattern token {token!r} (use wN, kN, cN, pN, or g6:...)"
    )


def _family_tokens(spec: str) -> list[str]:
    """The stripped, non-empty tokens of a family spec, in order."""
    tokens = [t.strip() for t in spec.split(",") if t.strip()]
    if not tokens:
        raise ValueError("empty family spec")
    return tokens


def parse_family(spec: str) -> ForbiddenFamily:
    return ForbiddenFamily([parse_pattern_token(t) for t in _family_tokens(spec)])


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated integer list, got {text!r}")


def _parse_formula_spec(spec: str) -> tuple[str, list[int]]:
    """Split a formula spec into its kind and integer arguments, validated."""
    kind, _, arg = spec.partition(":")
    if kind == "wheels":
        ks = _parse_int_list(arg, "wheels formula ks")
        if not ks:
            raise ValueError(f"wheels formula needs at least one k, got {spec!r}")
        return kind, ks
    if kind not in ("turan", "wheel", "union-turan"):
        raise ValueError(
            f"unrecognized formula {spec!r} (use turan:R, wheel:K, wheels:K1,..., "
            f"or union-turan:R)"
        )
    try:
        value = int(arg)
    except ValueError:
        raise ValueError(
            f"{kind} formula needs one integer argument, got {spec!r}"
        ) from None
    if kind != "wheel" and value < 1:
        raise ValueError(f"{kind} formula needs r >= 1, got {value}")
    return kind, [value]


def build_formula(spec: str, family: ForbiddenFamily | None) -> Callable[[int], int]:
    """Resolve a formula spec to a total function of n."""
    kind, ints = _parse_formula_spec(spec)
    if kind == "turan":
        return lambda n: turan_edge_count(n, ints[0])
    if kind == "wheel":
        return lambda n: wheel_extremal_value(n, ints[0]).value
    if kind == "wheels":
        return lambda n: union_wheels_value(n, ints).value
    if family is None:
        raise ValueError("union-turan formula needs a --family")
    provider = lambda m, ell: turan_edge_count(m, ints[0])
    return lambda n: union_extremal_value(n, family, provider).value


def build_seeds_provider(
    spec: str, family: ForbiddenFamily
) -> Callable[[int], tuple[SimpleGraph, ...]]:
    """Construction seeds matching a formula spec, filtered to free graphs.

    Layer l = 1..min(h, n) joins K_{l-1} to T(m, r) or to the best feasible
    wheel construction for k_l on m = n - l + 1 vertices; h is 1 for
    ``turan`` and ``wheel``, |family| for ``union-turan``, |ks| for
    ``wheels``.  Seeding only sharpens the oracle's pruning bound, so a
    layer that is not buildable or not family-free is silently dropped.
    The spec's grammar is checked here, by ``_parse_formula_spec``; its
    values are not: ``wheel:2`` and ``wheels:3,4`` pass, and their checks
    run in ``wheel_extremal_value`` and ``union_wheels_value``, which
    ``scan`` evaluates at every order before it calls the provider.
    """
    kind, ints = _parse_formula_spec(spec)
    if kind in ("turan", "union-turan"):
        h = len(family) if kind == "union-turan" else 1
        inner = lambda m, ell: turan(m, ints[0])
    else:
        h = len(ints)
        inner = lambda m, ell: best_feasible_wheel_graph(m, ints[ell - 1])

    def provide(n: int) -> tuple[SimpleGraph, ...]:
        graphs = []
        for ell in range(1, min(h, n) + 1):
            try:
                graphs.append(union_extremal_graph(n, ell, inner(n - ell + 1, ell)))
            except ValueError:  # InfeasibleConstructionError is one
                pass
        return tuple(g for g in graphs if is_free(g, family))

    return provide


def _emit(args, text: str, doc: dict | None, code: int = 0) -> int:
    """The one report writer: print ``text``, write ``doc`` to ``--json``
    when that path is given, and return the exit code."""
    sys.stdout.write(text)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(json_doc(doc))
    return code


def _read_graph_input(path: str) -> list[SimpleGraph]:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    graphs = read_graph6_lines(text)
    if not graphs:
        raise ValueError(f"no graphs found in {path!r}")
    return graphs


def _budget(args) -> SearchBudget:
    return SearchBudget(args.budget_candidates, args.budget_seconds)


# === subcommand handlers ===


def _cmd_gen(args) -> int:
    doc = None
    if args.spec is None:
        if args.n is None or args.k is None:
            raise ValueError("gen needs --n and --k, or --spec")
        n = _bounded_order(args.n, "gen --n")
        ell = 1 if args.ell is None else args.ell
        recipe = wheel_construction_recipe(n, args.k, n0=args.n0, ell=ell)
        g = build_from_recipe(recipe)
        doc = recipe.to_json_dict()
    elif any(x is not None for x in (args.n, args.k, args.n0, args.ell, args.json)):
        raise ValueError("gen --spec takes no --n, --k, --n0, --ell or --json")
    else:
        t = args.spec.strip()
        if t.startswith("turan:"):
            nr = _parse_int_list(t[len("turan:"):], "turan spec")
            if len(nr) != 2:
                raise ValueError(f"turan spec needs n,r, got {t!r}")
            g = turan(_bounded_order(nr[0], f"turan spec {t!r}"), nr[1])
        else:
            g = parse_pattern_token(t)
    return _emit(args, write_graph6_lines([g]), doc)


def _cmd_ex_formula(args) -> int:
    kind, ints = _parse_formula_spec(args.formula)
    doc = {
        "schema": "formula-value/1",
        "formula": f"{kind}:{','.join(str(x) for x in ints)}",
        "n": args.n,
    }
    if kind == "wheel":
        fv = wheel_extremal_value(args.n, ints[0])
        notes = ["argmax n0: " + ", ".join(str(x) for x in fv.argmax)]
        doc.update(asdict(fv))
    elif kind == "wheels":
        fv = union_wheels_value(args.n, ints)
        per_index = sorted({i for i, _ in fv.argmax})
        flagged = [k for k in ints if k < 3]
        notes = [
            "argmax (i, n0): " + ", ".join(f"({i}, {n0})" for i, n0 in fv.argmax),
            "per-index argmax l: " + ", ".join(str(i) for i in per_index),
        ]
        if flagged:
            notes.append(
                "note: entries with k < 3 have no closed-form backing: "
                + ", ".join(str(k) for k in flagged)
            )
        doc.update(asdict(fv), per_index_argmax=per_index, flagged_ks=flagged)
    elif kind == "turan":
        notes = []
        doc.update(value=turan_edge_count(args.n, ints[0]), argmax=[])
    else:
        raise ValueError(
            f"ex-formula takes no family; scan --family evaluates {args.formula!r}"
        )
    return _emit(args, "\n".join([f"value {doc['value']}"] + notes) + "\n", doc)


def _cmd_brute_force(args) -> int:
    family = parse_family(args.family)
    seeds = tuple(decode_graph6(s) for s in args.seed_g6 or ())
    try:
        result = brute_force_ex(
            _bounded_order(args.n, "brute-force --n"),
            family,
            budget=_budget(args),
            seeds=seeds,
            allow_large=args.allow_large,
        )
    except BudgetExceededError as err:
        sys.stderr.write(f"budget exceeded: {err}\n")
        return _emit(args, "", err.partial.to_json_dict(), 3)
    lines = [
        f"n {result.n}",
        f"ex {result.ex_value}",
        f"exhaustive {'true' if result.exhaustive else 'false'}",
        f"candidates {result.candidates}",
    ] + [f"witness {encode_graph6(w)}" for w in result.witnesses]
    _emit(args, "\n".join(lines) + "\n", result.to_json_dict())
    if args.graph6:
        with open(args.graph6, "w") as fh:
            fh.write(write_graph6_lines(result.witnesses))
    return 0


def _cmd_scan(args) -> int:
    family = parse_family(args.family)
    n_to = _bounded_order(args.n_to, "scan --n-to")
    if n_to < args.n_from:
        raise ValueError(f"--n-to {n_to} is below --n-from {args.n_from}")
    report = threshold_scan(
        family,
        range(args.n_from, n_to + 1),
        build_formula(args.formula, family),
        budget=_budget(args),
        seeds_provider=build_seeds_provider(args.formula, family),
        allow_large=args.allow_large,
    )
    unknown = [r.n for r in report.rows if r.match is None]
    if unknown:
        sys.stderr.write(
            f"budget exceeded: rows from n = {unknown[0]} up are unknown\n"
        )
    return _emit(args, report.to_text(), report.to_json_dict(), 3 if unknown else 0)


def _cmd_verify(args) -> int:
    family = parse_family(args.family)
    graphs = _read_graph_input(args.infile)
    budget = _budget(args)

    # one oracle run per (m, ell); a run that raises is not cached
    @functools.cache
    def provider(m: int, ell: int) -> int:
        return brute_force_ex(
            m,
            ForbiddenFamily([family[ell - 1]]),
            budget=budget,
            allow_large=args.allow_large,
        ).ex_value

    records = []
    for idx, g in enumerate(graphs, start=1):
        free = is_free(g, family)
        maximal = audit = audit_error = None
        if free:
            maximal = maximality_audit(g, family).maximal
            try:
                audit = structure_audit(g, family, provider)
            except (ValueError, BudgetExceededError) as err:
                audit_error = str(err)
                verdict = f"unknown ({audit_error})"
            else:
                verdict = "pass" if audit.passed else "fail"
                verdict += f" (q={audit.q}, ell={audit.ell})"
            parts = ["free yes", f"maximal {'yes' if maximal else 'no'}",
                     f"structure {verdict}"]
        else:
            parts = ["free no", "maximal -", "structure -"]
        # printed per graph: a structure audit can run the oracle for long
        sys.stdout.write(
            f"graph {idx} (n={g.n}, e={g.edge_count}): " + " | ".join(parts) + "\n"
        )
        records.append(
            {
                "index": idx,
                "graph6": encode_graph6(g),
                "n": g.n,
                "edges": g.edge_count,
                "free": free,
                "maximal": maximal,
                "structure": audit.to_json_dict() if audit else None,
                "structure_error": audit_error,
            }
        )
    family_g6 = [encode_graph6(p) for p in family]
    doc = {"schema": "verify-report/1", "family": family_g6, "graphs": records}
    return _emit(args, "", doc)


def _cmd_criticality(args) -> int:
    records = []
    lines = []
    for token in _family_tokens(args.family):
        g = parse_pattern_token(token)
        rep = criticality(g)
        vw = (
            f"yes (vertex {rep.vertex_witness})" if rep.is_vertex_critical else "no"
        )
        ew = (
            f"yes (edge {rep.edge_witness[0]}-{rep.edge_witness[1]})"
            if rep.is_edge_critical
            else "no"
        )
        lines.append(
            f"{token}: chi {rep.chi}, vertex-critical {vw}, edge-critical {ew}"
        )
        records.append({"token": token, **asdict(rep)})
    doc = {"schema": "criticality-report/1", "patterns": records}
    return _emit(args, "\n".join(lines) + "\n", doc)


def _cmd_stability(args) -> int:
    if args.r > MAX_ORDER:
        raise ValueError(f"stability --r: {args.r} parts exceed MAX_ORDER={MAX_ORDER}")
    graphs = _read_graph_input(args.infile)
    docs = []
    for idx, g in enumerate(graphs, start=1):
        diag = min_internal_partition(g, args.r, theta=args.theta)
        audit = min_degree_audit(g, args.r, args.theta) if g.n else False
        sys.stdout.write(
            f"graph {idx} (n={g.n}, e={g.edge_count}): internal edges "
            f"{diag.internal_edges}, mode {diag.mode}\n"
        )
        for i, part in enumerate(diag.parts, start=1):
            members = " ".join(str(v) for v in part) if part else "(empty)"
            sys.stdout.write(f"  part {i}: {members}\n")
        wtxt = " ".join(str(v) for v in diag.w_set) if diag.w_set else "(empty)"
        sys.stdout.write(f"  w-set (theta {diag.theta}): {wtxt}\n")
        sys.stdout.write(
            f"  min-degree audit (r={args.r}, theta {args.theta}): "
            f"{'pass' if audit else 'fail'}\n"
        )
        entry = diag.to_json_dict()
        entry["min_degree_audit"] = audit
        docs.append(entry)
    return _emit(args, "", {"schema": "stability-report/1", "graphs": docs})


# === parser ===


def build_parser() -> argparse.ArgumentParser:
    budgeted = argparse.ArgumentParser(add_help=False)
    budgeted.add_argument(
        "--budget-candidates", type=int, default=None,
        help="abort after this many admitted classes, one budget per whole scan",
    )
    budgeted.add_argument(
        "--budget-seconds", type=float, default=None,
        help="abort after this wall time, one budget per whole scan; checked once"
        " per admitted class, so seed validation and mask scans run unchecked",
    )
    budgeted.add_argument(
        "--allow-large", action="store_true",
        help=f"acknowledge an oracle run above n = {HARD_CAP}",
    )

    parser = argparse.ArgumentParser(
        prog="turanlab",
        description="extremal constructions, Turan-number formulas, and exact "
        "small-order verification for forbidden disjoint unions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "gen",
        help="emit the wheel construction (--n, --k) or a standard graph "
        "(--spec) as graph6",
    )
    p.add_argument("--n", type=int, help="order of the wheel construction")
    p.add_argument("--k", type=int, help="wheel parameter (forbids the wheel on 2k+1)")
    p.add_argument("--n0", type=int, default=None, help="bipartition size override")
    p.add_argument("--ell", type=int, help="clique layer parameter (default 1)")
    p.add_argument(
        "--spec", help="standard graph token (wN/kN/cN/pN/g6:... or turan:N,R) "
        "instead of the wheel construction",
    )
    p.add_argument("--json", help="write the construction recipe JSON here")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser(
        "ex-formula",
        help="evaluate a closed-form extremal edge count",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--formula", required=True, help="turan:R | wheel:K | wheels:KS")
    p.add_argument("--json", help="write the value and argmax as JSON here")
    p.set_defaults(func=_cmd_ex_formula)

    p = sub.add_parser(
        "brute-force", parents=[budgeted],
        help="exact ex(n, family) with all witnesses up to isomorphism",
    )
    p.add_argument("--family", required=True, help="comma-separated pattern tokens")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--seed-g6", action="append", default=None,
        help="known free graph (graph6) used as a pruning seed; repeatable",
    )
    p.add_argument("--json", help="write the ExtremalResult JSON here")
    p.add_argument("--graph6", help="write witness graph6 lines here")
    p.set_defaults(func=_cmd_brute_force)

    p = sub.add_parser(
        "scan", parents=[budgeted],
        help="compare a formula against the oracle over a range of n",
    )
    p.add_argument("--family", required=True)
    p.add_argument("--formula", required=True, help="turan:R | wheel:K | wheels:KS | union-turan:R")
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.add_argument("--json", help="write the threshold report JSON here")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser(
        "verify", parents=[budgeted],
        help="audit graphs from a graph6 file: freeness, maximality, structure",
    )
    p.add_argument("--in", dest="infile", required=True, help="graph6 file, or - for stdin")
    p.add_argument("--family", required=True)
    p.add_argument("--json", help="write the verify report JSON here")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "criticality",
        help="chromatic number and criticality of each pattern",
    )
    p.add_argument("--family", required=True)
    p.add_argument("--json", help="write the criticality report JSON here")
    p.set_defaults(func=_cmd_criticality)

    p = sub.add_parser(
        "stability",
        help="minimum-internal-edge partition diagnostics for graphs in a file",
    )
    p.add_argument("--in", dest="infile", required=True, help="graph6 file, or - for stdin")
    p.add_argument("--r", type=int, required=True, help="number of parts")
    p.add_argument("--theta", type=float, default=0.1)
    p.add_argument("--json", help="write the stability report JSON here")
    p.set_defaults(func=_cmd_stability)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        code = err.code
        return int(code) if code is not None else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
