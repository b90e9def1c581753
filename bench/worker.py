"""Runs one workload's jobs in a fresh process and prints its figures.

``run.py`` starts this once per run, so the peak resident size it
reports belongs to a process that did nothing but this workload (for
cli-batch, to the largest CLI child).  Jobs run as a closed loop, one
at a time; each job is timed between two runs of the reference loop
and its output is checked afterwards, outside the timed interval.
The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from common import ROOT, WORK, CheckFailed  # noqa: E402
from refclock import ScaledTimer  # noqa: E402
from tracer import Tracer, layer_metrics, merge  # noqa: E402

WORKLOADS = ("order-cover", "lattice-product", "cli-batch")
# Each untraced run times at least this many jobs, so that the 90th
# percentile, reported as the tail, has at least ten jobs beyond it.
MIN_JOBS = 100
# Stop starting rounds after this long even if MIN_JOBS is not reached,
# so a run always ends within the time it is allowed.
HARD_STOP_S = 110


@dataclass
class Pass:
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    kinds: list = field(default_factory=list)
    raw_s: list = field(default_factory=list)
    scaled_s: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    layer_times: dict = field(default_factory=dict)
    layer_counts: dict = field(default_factory=dict)
    start_s: float = 0.0

    def jobs_per_s(self, times) -> float:
        return (self.attempted - self.failed) / sum(times)


def _guarded(fn):
    try:
        return "ok", fn()
    except Exception as exc:  # a crash is a job result, reported by the check
        return "raised", exc


def _problem(job, status, value):
    if status == "raised":
        return f"{job.kind}: raised {value!r}"
    try:
        job.check(value)
    except CheckFailed as exc:
        return f"{job.kind}: {exc}"
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"{job.kind}: malformed output ({exc!r})"
    return None


def run_pass(jobs, timer, seconds, rounds, min_jobs, tracer=None, launcher=None) -> Pass:
    """Whole rounds of the job list until the time and job floor are met
    (or exactly ``rounds`` rounds when given)."""
    result = Pass()
    started = time.perf_counter()
    while True:
        for index, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = f"{result.rounds}:{index}:{job.kind}"
            (status, value), raw, factor, _ = timer.time(lambda: _guarded(job.run))
            result.attempted += 1
            result.kinds.append(job.kind)
            result.raw_s.append(raw)
            result.scaled_s.append(raw * factor)
            if tracer is not None:
                _collect_trace(result, tracer, launcher, raw, factor)
            problem = _problem(job, status, value)
            if problem is not None:
                result.failed += 1
                result.problems.append((job.known_fault, problem))
        result.rounds += 1
        elapsed = time.perf_counter() - started
        if rounds is not None:
            if result.rounds >= rounds:
                return result
            continue
        # Stop at the round boundary nearest to the deadline, so runs
        # measure for about ``seconds`` whatever the round length.
        half_round = elapsed / result.rounds / 2
        if (elapsed + half_round >= seconds and result.attempted >= min_jobs) \
                or elapsed >= HARD_STOP_S:
            return result


def _collect_trace(result: Pass, tracer: Tracer, launcher, raw: float, factor: float) -> None:
    times, counts = tracer.take_job()
    if launcher is not None:
        child = launcher.take_child_trace()
        tracer.spans.extend([tracer.job, *span[1:]] for span in child["spans"])
        merge(times, child["times"])
        merge(counts, child["counts"])
        in_cli = child["times"].get("incl:cli.dispatch", 0) + child["times"].get("incl:cli.render", 0)
        result.start_s += (raw - in_cli) * factor
    merge(result.layer_times, times, factor)
    merge(result.layer_counts, counts)


def _figures(p: Pass, times) -> dict:
    return {
        "jobs_per_s": p.jobs_per_s(times),
        "job_p50_ms": statistics.median(times) * 1000,
        "job_tail_ms": statistics.quantiles(times, n=10)[-1] * 1000,  # 90th percentile
    }


def _peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-batch" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def build_jobs(workload: str, seed: int, launcher):
    # Paths relative to the checkout (every job runs there), so that the
    # reports and their sizes do not depend on where the checkout lives.
    workdir = (WORK / "inputs" / f"{workload}-seed{seed}").relative_to(ROOT)
    (ROOT / workdir).mkdir(parents=True, exist_ok=True)
    if workload == "order-cover":
        import order_cover

        return order_cover.build(seed, workdir)
    if workload == "lattice-product":
        import lattice_product

        return lattice_product.build(seed, workdir)
    import cli_batch

    return cli_batch.build(seed, workdir, launcher)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None)
    args = parser.parse_args(argv)
    os.chdir(ROOT)  # job inputs are named relative to the checkout

    launcher = None
    if args.workload == "cli-batch":
        from cli_batch import Launcher

        launcher = Launcher()
    else:
        import isoprod.cli  # noqa: F401  (imported before timing, as a user's process would)
    jobs = build_jobs(args.workload, args.seed, launcher)
    timer = ScaledTimer()
    out = {"jobs_per_round": len(jobs)}

    if not args.trace:
        p = run_pass(jobs, timer, args.seconds, args.rounds, MIN_JOBS)
        passes = [p]
        out["end_to_end"] = dict(_figures(p, p.scaled_s), peak_rss_mb=_peak_rss_mb(args.workload))
        out["raw"] = _figures(p, p.raw_s)
        out["rounds"] = p.rounds
        out["jobs"] = [[kind, raw, scaled] for kind, raw, scaled in zip(p.kinds, p.raw_s, p.scaled_s)]
    else:
        untraced = run_pass(jobs, timer, args.seconds / 2, args.rounds, 0)
        tracer = Tracer()
        tracer.install()
        if launcher is not None:
            launcher.trace_file = WORK / "traces" / f"child-{os.getpid()}.json"
            launcher.trace_file.parent.mkdir(parents=True, exist_ok=True)
        try:
            traced = run_pass(jobs, timer, None, untraced.rounds, 0, tracer, launcher)
        finally:
            tracer.uninstall()
        passes = [untraced, traced]
        layers = layer_metrics(traced.layer_times, traced.layer_counts, traced.rounds, traced.start_s)
        overhead = untraced.jobs_per_s(untraced.scaled_s) / traced.jobs_per_s(traced.scaled_s) - 1
        layers["trace.overhead_pct"] = (overhead * 100, "%")
        out["per_layer"] = layers
        out["rounds"] = traced.rounds
        trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        with open(trace_path, "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(list(span)) + "\n")
        out["trace_file"] = str(trace_path.relative_to(WORK.parent.parent))

    problems = [p for ps in passes for p in ps.problems]
    out["attempted"] = sum(ps.attempted for ps in passes)
    out["failed"] = sum(ps.failed for ps in passes)
    out["correct"] = all(known for known, _ in problems)
    out["problems"] = sorted({text for _, text in problems})[:10]
    out["known_faults"] = sorted({known for known, _ in problems if known})
    out["references_s"] = timer.references
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
