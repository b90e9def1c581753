"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload order-cover --seed 1 --seconds 20 --trace 0

Untraced runs (--trace 0) print the end-to-end metrics: jobs_per_s,
job_p50_ms, job_tail_ms, peak_rss_mb and setup_s.  Traced runs
(--trace 1) print the per-layer metrics and trace.overhead_pct.  Every
run writes a full record (machine, commit, raw and scaled figures, the
raw reference timings, attempted and failed jobs) to
bench/work/results/, and the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from common import child_env  # noqa: E402
from refclock import R_NOMINAL_S, ScaledTimer  # noqa: E402

WORKLOADS = ("order-cover", "lattice-product", "cli-batch")
SETUP_SAMPLES = 15
WORKER_TIMEOUT_S = 160
REQUIRED = ("src/isoprod/cli.py", "tests/oracles.py")


def measure_setup() -> tuple[float, float, list[float]]:
    """Median scaled and raw seconds to start a fresh interpreter and
    import isoprod.cli.  One unmeasured start first writes the bytecode
    caches, which every later start of the program finds in place."""
    command = [sys.executable, "-c", "import isoprod.cli"]
    env = child_env()

    def start():
        subprocess.run(command, cwd=ROOT, env=env, check=True, timeout=60)

    start()
    timer = ScaledTimer()
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        _, seconds, factor, _ = timer.time(start)
        raw.append(seconds)
        scaled.append(seconds * factor)
    return statistics.median(scaled), statistics.median(raw), timer.references


def _commit() -> str:
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            if done.returncode == 0:
                return done.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "isoprod").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return f"no git checkout; sha256 of src/isoprod/*.py {digest.hexdigest()[:16]}"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly this many rounds of the job list (self-test)")
    args = parser.parse_args(argv)

    missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
    if missing:
        print(f"bench: not a checkout of the repository: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    # One CPU for this process, the worker and every child, so that the
    # reference loop and the timed work share the CPU's conditions.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    started = time.time()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(), "commit": _commit(), "r_nominal_s": R_NOMINAL_S,
    }
    if not args.trace:
        setup_s, setup_raw_s, setup_refs = measure_setup()
        record["setup"] = {"scaled_s": setup_s, "raw_s": setup_raw_s, "references_s": setup_refs}

    command = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.rounds is not None:
        command += ["--rounds", str(args.rounds)]
    done = subprocess.run(command, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    if done.returncode != 0 or not done.stdout.strip():
        print(f"bench: worker exited with {done.returncode}", file=sys.stderr)
        return 1
    worker = json.loads(done.stdout.strip().splitlines()[-1])
    record.update(worker)
    record["wall_s"] = time.time() - started

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in worker["per_layer"].items()}
    else:
        e2e = worker["end_to_end"]
        metrics = {
            "jobs_per_s": {"value": e2e["jobs_per_s"], "unit": "1/ref-s"},
            "job_p50_ms": {"value": e2e["job_p50_ms"], "unit": "ref-ms"},
            "job_tail_ms": {"value": e2e["job_tail_ms"], "unit": "ref-ms"},
            "peak_rss_mb": {"value": e2e["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    record["metrics"] = metrics

    results = BENCH / "work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"bench: {args.workload} seed {args.seed}: {worker['attempted']} jobs in "
          f"{worker['rounds']} rounds, {worker['failed']} failed; record in "
          f"bench/work/results/{name}", file=sys.stderr)
    for problem in worker["problems"]:
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps({"correct": worker["correct"], "attempted": worker["attempted"],
                      "failed": worker["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
