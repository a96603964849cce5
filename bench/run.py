"""turanlab benchmark: exact-answer job lists timed through the public API.

Run from the repository root:

    python3 bench/run.py --workload union-seeded --seed 1 --seconds 25 --trace 0

One process, one thread.  The job list is run in passes, each in an order
drawn from the seed, until ``--seconds`` are used up; the first pass always
completes and later passes skip a job that would overrun the deadline.
Every answer is checked against ``bench/references.json`` after the timed
region.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` each job is run once untraced and once traced
and the line carries the per-layer metrics, while the spans of the first
traced run of every job are written to ``.bench_out/``.  The line before
the last holds the environment record, the seed and the sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs as joblists
import tracing
from speed import SpeedMeter

SETUP_REPEATS = 5
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = Path(".bench_out")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=joblists.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment() -> dict:
    import networkx
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                line.split(":", 1)[1].strip()
                for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_seconds() -> float:
    """Reference seconds of ``import turanlab`` in a fresh interpreter, scaled
    by probes run in that interpreter just before and after the import."""
    code = (
        f"import sys, time; sys.path[:0] = [{str(BENCH_DIR)!r}, 'src']; "
        "import speed; a = speed.scale(); t = time.perf_counter(); "
        "import turanlab; t = time.perf_counter() - t; "
        "print(t * (a + speed.scale()) / 2)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        timeout=60,
    )
    return float(out.stdout.strip())


def setup(workload: str, seed: int, tl, meter: SpeedMeter):
    """Median set-up time over repeats: import plus job inputs plus refs."""
    def build():
        refs = joblists.load_references()
        return refs, joblists.build_jobs(workload, seed, tl, refs)

    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds())
        ok, made, _wall, took = meter.measure(build)
        if not ok:
            raise made
        builds.append(took)
    refs, jobs = made
    return jobs, refs, statistics.median(imports) + statistics.median(builds)


def schedule(jobs, seconds: float, rng: random.Random, execute) -> list[float]:
    """Run passes until the deadline; returns the complete passes' times.

    ``execute(job)`` returns the seconds the job took, which decides
    whether the job fits into the remaining time on the next pass.
    """
    deadline = time.perf_counter() + seconds
    last: dict[str, float] = {}
    passes = []
    while True:
        order = list(jobs)
        rng.shuffle(order)
        started, ran = time.perf_counter(), 0
        for job in order:
            took = last.get(job.job_id)
            if took is not None and time.perf_counter() + took > deadline:
                continue
            last[job.job_id] = execute(job)
            ran += 1
        if ran == len(order):
            passes.append(time.perf_counter() - started)
        if ran == 0:
            return passes


class Answers:
    """Distinct answers of every job execution, checked after timing."""

    def __init__(self, jobs):
        self.seen = {j.job_id: {} for j in jobs}
        self.errors: list[str] = []
        self.attempted = 0

    def record(self, job, ok: bool, answer) -> None:
        self.attempted += 1
        if ok:
            summary = joblists.summarize(job, answer)
            seen = self.seen[job.job_id]
            seen[summary] = seen.get(summary, 0) + 1
        else:
            self.errors.append(f"{job.job_id}: {type(answer).__name__}: {answer}")

    def check(self, jobs, refs) -> tuple[int, list[str]]:
        """Failed executions and their reasons, raising ones included."""
        failed, reasons = len(self.errors), list(self.errors)
        for job in jobs:
            for summary, count in self.seen[job.job_id].items():
                why = joblists.check(job, summary, refs)
                if why is not None:
                    failed += count
                    reasons.append(f"{job.job_id}: {why}")
        return failed, reasons


class Runner:
    """Times job executions: ``times`` in reference seconds, ``walls`` in
    plain wall seconds."""

    def __init__(self, jobs, meter: SpeedMeter, answers: Answers):
        self.meter = meter
        self.answers = answers
        self.times = {j.job_id: [] for j in jobs}
        self.walls = {j.job_id: [] for j in jobs}

    def timed(self, job, api) -> float:
        """Run the job once; returns its wall seconds."""
        ok, answer, wall, took = self.meter.measure(lambda: job.run(api), job.probe)
        self.answers.record(job, ok, answer)
        self.times[job.job_id].append(took)
        self.walls[job.job_id].append(wall)
        return wall

    def sample_range(self) -> dict:
        counts = [len(v) for v in self.times.values()]
        return {"min": min(counts), "max": max(counts)}

    def median_times(self, walls: bool = False) -> dict[str, float]:
        series = self.walls if walls else self.times
        return {k: statistics.median(v) for k, v in series.items() if v}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_plain(jobs, args, tl, meter) -> tuple[Answers, dict, dict]:
    answers = Answers(jobs)
    runner = Runner(jobs, meter, answers)
    rng = random.Random(f"job-order:{args.seed}")
    passes = schedule(jobs, args.seconds, rng, lambda job: runner.timed(job, tl))
    rss = peak_rss_mb()
    medians = runner.median_times()
    metrics = {
        "pass_s": metric(sum(medians.values()), "s"),
        "slowest_job_s": metric(max(medians.values()), "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    detail = {
        "complete_passes": len(passes),
        "pass_wall_times_s": passes,
        "pass_wall_s": sum(runner.median_times(walls=True).values()),
        "job_s": medians,
        "samples_per_job": runner.sample_range(),
    }
    return answers, metrics, detail


def run_traced(jobs, args, tl, meter) -> tuple[Answers, dict, dict]:
    import turanlab.oracle

    tracer = tracing.Tracer(tl, turanlab.oracle)
    answers = Answers(jobs)  # both sides are checked, each run is an attempt
    plain, traced = Runner(jobs, meter, answers), Runner(jobs, meter, answers)
    summaries: dict[str, list[dict]] = {j.job_id: [] for j in jobs}
    kept: list[list] = []
    t0 = time.perf_counter()

    def execute(job) -> float:
        def run_traced_once() -> float:
            with tracer.patched(job.job_id):
                took = traced.timed(job, tracer.api)
            spans = tracer.take()
            if not summaries[job.job_id]:
                kept.extend(tracing.compact(spans, len(kept), t0))
            # span times scale like the job's: to reference seconds, probes out
            top = sum(end - start for _, start, end, parent, *_ in spans if parent < 0)
            scale = traced.times[job.job_id][-1] / top
            summaries[job.job_id].append(tracing.summarize_spans(spans, scale))
            return took

        # alternate which side runs first, so neither always runs warm
        if len(plain.times[job.job_id]) % 2 == 0:
            return plain.timed(job, tl) + run_traced_once()
        return run_traced_once() + plain.timed(job, tl)

    rng = random.Random(f"job-order:{args.seed}")
    passes = schedule(jobs, args.seconds, rng, execute)

    metrics, detail = layer_metrics(jobs, summaries)
    traced_s = sum(traced.median_times().values())
    plain_s = sum(plain.median_times().values())
    metrics["trace.overhead_s"] = metric(traced_s - plain_s, "s")
    metrics["trace.overhead_frac"] = metric((traced_s - plain_s) / plain_s, "ratio")
    detail.update(complete_passes=len(passes), traced_pass_s=traced_s,
                  untraced_pass_s=plain_s, samples_per_job=plain.sample_range())

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "fields": ["name", "start_s", "end_s", "parent", "job"],
                   "spans": kept}, fh)
    detail["spans_file"] = str(path)
    return answers, metrics, detail


def layer_metrics(jobs, summaries) -> tuple[dict, dict]:
    """Per-pass layer metrics: counts from each job's first traced run (they
    must repeat exactly), times as the sum over jobs of per-job medians."""
    first = {j.job_id: summaries[j.job_id][0] for j in jobs}
    unstable = [
        j.job_id for j in jobs
        if any(tracing.counters(s) != tracing.counters(first[j.job_id])
               for s in summaries[j.job_id])
    ]
    unmeasured = sorted({
        tracing.LAYER_OF[name]
        for j in jobs if j.kind == "oracle"
        for name in tracing.INNER if name not in first[j.job_id]["fired"]
    })

    def calls(layer):
        return sum(s["calls"].get(layer, 0) for s in first.values())

    def seconds(layer):
        return sum(
            statistics.median(s["self_s"].get(layer, 0.0) for s in summaries[j])
            for j in summaries
        )

    def total(key):
        return sum(s[key] for s in first.values())

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    children = total("oracle_children")
    m["oracle.calls"] = (calls("oracle"), "count")
    m["oracle.candidates"] = (total("oracle_candidates"), "count")
    m["oracle.children"] = (children, "count")
    m["oracle.admit_ratio"] = (ratio(total("oracle_candidates"), children), "ratio")
    m["oracle.self_s"] = (seconds("oracle"), "s")
    for layer in ("containment", "canonical"):
        n, s = calls(layer), seconds(layer)
        m[f"{layer}.calls"] = (n, "count")
        m[f"{layer}.s"] = (s, "s")
        m[f"{layer}.us_per_call"] = (ratio(s * 1e6, n), "us")
    m["containment.hit_ratio"] = (
        ratio(total("containment_hits"), calls("containment")), "ratio")
    distinct = sum(len(s["certificates"]) for s in first.values())
    m["canonical.dup_ratio"] = (
        ratio(calls("canonical") - distinct, calls("canonical")), "ratio")
    lf_calls = calls("labeled_filter")
    m["labeled_filter.calls"] = (lf_calls, "count")
    m["labeled_filter.s"] = (seconds("labeled_filter"), "s")
    m["labeled_filter.space"] = (ratio(total("filter_space"), lf_calls), "count")
    m["labeled_filter.survivors"] = (total("filter_survivors"), "count")
    m["constructions.calls"] = (calls("constructions"), "count")
    m["constructions.s"] = (seconds("constructions"), "s")

    # a layer whose wrapper stopped firing is unmeasured, never zero
    dependent = {
        "containment": ("containment.", "oracle.children", "oracle.admit_ratio",
                        "oracle.self_s"),
        "canonical": ("canonical.", "oracle.self_s"),
    }
    metrics = {}
    for name, (value, unit) in m.items():
        lost = any(name.startswith(dependent[layer]) for layer in unmeasured)
        metrics[name] = metric(None if lost else value, unit)
    detail = {"unmeasured_layers": unmeasured, "unstable_counters": unstable}
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path("src/turanlab/__init__.py").is_file():
        print("bench: run from the turanlab repository root (src/turanlab is "
              "missing here)", file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    import turanlab as tl

    meter = SpeedMeter()
    jobs, refs, setup_s = setup(args.workload, args.seed, tl, meter)
    run = run_traced if args.trace else run_plain
    answers, metrics, detail = run(jobs, args, tl, meter)
    failed, reasons = answers.check(jobs, refs)
    if not args.trace:
        metrics["setup_s"] = metric(setup_s, "s")
    record = {
        "benchmark": "turanlab",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "jobs": len(jobs),
        "fail_frac": failed / answers.attempted,
        "failures": reasons[:20],
        **detail,
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": answers.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
