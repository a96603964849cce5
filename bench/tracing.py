"""Spans at turanlab's layer boundaries, recorded from outside the package.

The tracer rebinds the three names ``turanlab.oracle`` calls through
(``certificate``, ``contains_disjoint_family_through`` and ``is_free``) while
a traced job runs, and hands the job timed stand-ins for the functions the
benchmark calls itself.  A span is ``[name, start, end, parent, job,
outcome]``: ``parent`` indexes the enclosing span of the same job run (-1 at
the top) and ``outcome`` is the wrapped call's return value, which the
aggregation reads for hits, certificates and candidate counts.  Spans stay
in memory until the run ends.
"""

from __future__ import annotations

from contextlib import contextmanager
from math import comb
from time import perf_counter
from types import SimpleNamespace

# the names turanlab.oracle looks up at call time
INNER = ("certificate", "contains_disjoint_family_through", "is_free")
# the public functions the benchmark calls directly
OUTER = (
    "brute_force_ex",
    "labeled_filter_ex",
    "contains_subgraph",
    "wheel_extremal_graph",
    "wheel_extremal_value",
)
LAYER_OF = {
    "brute_force_ex": "oracle",
    "labeled_filter_ex": "labeled_filter",
    "certificate": "canonical",
    "contains_disjoint_family_through": "containment",
    "is_free": "containment",
    "contains_subgraph": "containment",
    "wheel_extremal_graph": "constructions",
    "wheel_extremal_value": "constructions",
}


class Tracer:
    def __init__(self, package, oracle_module):
        self.spans: list[list] = []
        self.job: str | None = None
        self._stack: list[int] = []
        self._oracle = oracle_module
        # a name the module no longer has is left unwrapped: never fired
        self._inner = {
            name: self._wrap(name, getattr(oracle_module, name))
            for name in INNER if hasattr(oracle_module, name)
        }
        self.api = SimpleNamespace(
            **{name: self._wrap(name, getattr(package, name)) for name in OUTER}
        )

    def _wrap(self, name, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                span[5] = fn(*args, **kwargs)
                return span[5]
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def patched(self, job_id: str):
        """Trace one job run; the inner names are restored afterwards."""
        originals = {name: getattr(self._oracle, name) for name in self._inner}
        self.job = job_id
        for name, wrapper in self._inner.items():
            setattr(self._oracle, name, wrapper)
        try:
            yield
        finally:
            for name, fn in originals.items():
                setattr(self._oracle, name, fn)
            self.job = None

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


def summarize_spans(spans: list[list], scale: float) -> dict:
    """Per-layer counts and self times of one traced job run.

    A span's self time is its duration minus the durations of its direct
    children, so the layer times of a job add up to the job's traced time.
    Self times are multiplied by ``scale``.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _job, _out in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out = {
        "calls": {}, "self_s": {}, "containment_hits": 0, "certificates": set(),
        "oracle_candidates": 0, "oracle_children": 0,
        "filter_space": 0, "filter_survivors": 0, "fired": set(),
    }
    for i, (name, start, end, parent, _job, result) in enumerate(spans):
        layer = LAYER_OF[name]
        out["calls"][layer] = out["calls"].get(layer, 0) + 1
        own = (end - start - child_s[i]) * scale
        out["self_s"][layer] = out["self_s"].get(layer, 0.0) + own
        parent_name = spans[parent][0] if parent >= 0 else None
        if parent_name == "brute_force_ex":
            out["fired"].add(name)
            if name == "contains_disjoint_family_through":
                out["oracle_children"] += 1
        if name == "certificate":
            out["certificates"].add(result)
        elif name == "is_free":
            out["containment_hits"] += result is False
        elif name == "contains_disjoint_family_through":
            out["containment_hits"] += result is True
        elif name == "contains_subgraph":
            out["containment_hits"] += result is not None
        elif name == "brute_force_ex" and result is not None:
            out["oracle_candidates"] += result.candidates
        elif name == "labeled_filter_ex" and result is not None:
            out["filter_space"] += 2 ** comb(result.n, 2)
            out["filter_survivors"] += result.candidates
    return out


def counters(summary: dict) -> tuple:
    """The deterministic part of a job summary, compared across runs."""
    return (
        tuple(sorted(summary["calls"].items())),
        summary["containment_hits"],
        len(summary["certificates"]),
        summary["oracle_candidates"],
        summary["oracle_children"],
    )


def compact(spans: list[list], offset: int, t0: float) -> list[list]:
    """Spans without outcomes, times relative to ``t0`` and parents shifted
    by ``offset`` so that several job runs share one list."""
    return [
        [name, round(start - t0, 7), round(end - t0, 7),
         parent + offset if parent >= 0 else -1, job]
        for name, start, end, parent, job, _out in spans
    ]
