"""The benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size toy]

Run from the root of a checkout. It writes the workload's inputs from the
seed, runs passes of the workload in fresh worker processes, checks every
output, and prints a readable summary followed by one JSON line holding the
end-to-end metrics of BENCHMARK.json (``--trace 0``) or its per-layer
metrics (``--trace 1``).

An untraced run makes passes until the next one would end after S seconds
(at least ``min_passes``). A traced run makes one traced pass and one
untraced pass of the same inputs: the first gives the per-layer counts and
self times, the difference in wall time is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import tracer
import workloads
from workloads import Inputs, Verdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The whole command must end within 180 s, even if the program slows down
# or hangs: no pass starts, or keeps running, past this many seconds.
RUN_LIMIT_S = 165.0


@dataclass
class Pass:
    """Timings and checked outcome of one worker process."""

    key: int  # passes with equal keys ran the same inputs
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    campaign_s: list[float] = field(default_factory=list)
    stats_s: list[float] = field(default_factory=list)
    runs: int = 0
    shas: list[str] = field(default_factory=list)
    verdict: Verdict = field(default_factory=Verdict)
    stderr: str = ""
    ok: bool = False

    @property
    def op_s(self) -> float:
        return sum(self.campaign_s) + sum(self.stats_s)


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MMO_TUNE_SEED", None)  # it would override each campaign's seed
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_pass(inputs: Inputs, key: int, work: str, rebuilds: int, deadline: float,
             spans: str | None = None) -> Pass:
    """Run one pass over ``inputs`` (those of pass ``key``) in a fresh worker
    and check what it wrote. Each campaign is followed by ``rebuilds`` stats runs."""
    os.makedirs(work, exist_ok=True)
    pass_dir = tempfile.mkdtemp(prefix="pass", dir=work)
    try:
        return _run_pass(inputs, key, pass_dir, rebuilds, deadline, spans)
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)


def _run_pass(inputs: Inputs, key: int, pass_dir: str, rebuilds: int, deadline: float,
              spans: str | None) -> Pass:
    ops = []
    for i, campaign in enumerate(inputs.campaigns):
        out = os.path.join(pass_dir, f"campaign{i}")
        ops.append({"kind": "campaign", "args": campaign.args, "dir": out})
        ops += [{"kind": "stats", "dir": out}] * rebuilds
    if inputs.rebuild_dir:
        ops.append({"kind": "stats", "dir": inputs.rebuild_dir})
    job_path = os.path.join(pass_dir, "job.json")
    result_path = os.path.join(pass_dir, "result.json")
    command = [sys.executable, *(["-X", "importtime"] if spans else []),
               os.path.join(HERE, "worker.py"), job_path]
    job = {"src": os.path.join(ROOT, "src"), "plan": inputs.plan_path, "ops": ops,
           "spans": spans, "result": result_path, "spawned": time.perf_counter()}
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    done = Pass(key)
    try:
        proc = subprocess.run(command, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.perf_counter()))
        done.stderr = proc.stderr
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except (subprocess.TimeoutExpired, OSError, ValueError) as exc:
        expected = sum(c.runs + rebuilds for c in inputs.campaigns) + bool(inputs.rebuild_dir)
        done.verdict = Verdict(attempted=expected)
        done.verdict.fail(expected, f"worker failed ({exc}) {done.stderr[-2000:]}")
        return done
    done.ok = True
    done.setup_s = result["setup_s"]
    done.peak_rss_mb = result["peak_rss_mb"]
    results = iter(result["ops"])
    for i, campaign in enumerate(inputs.campaigns):
        ran = next(results)
        stats = [next(results) for _ in range(rebuilds)]
        done.campaign_s.append(ran["seconds"])
        done.stats_s += [s["seconds"] for s in stats]
        done.runs += campaign.runs
        if ran["rc"] != 0:
            verdict = Verdict(attempted=campaign.runs + rebuilds)
            verdict.fail(campaign.runs + rebuilds, f"campaign failed: {ran['error'].strip()}")
        else:
            verdict = workloads.check_campaign(
                os.path.join(pass_dir, f"campaign{i}"), inputs.names, campaign,
                ran["report_sha256"], [s["report_sha256"] for s in stats])
        done.shas.append(verdict.report_sha256)
        done.verdict.add(verdict)
    if inputs.rebuild_dir:
        rebuilt = next(results)
        done.stats_s.append(rebuilt["seconds"])
        done.runs += len(inputs.expected_best)
        if rebuilt["rc"] != 0:
            verdict = Verdict(attempted=1)
            verdict.fail(1, f"stats failed: {rebuilt['error'].strip()}")
        else:
            verdict = workloads.check_rebuild(
                os.path.join(inputs.rebuild_dir, "report.json"), inputs)
        done.shas.append(verdict.report_sha256)
        done.verdict.add(verdict)
    return done


def check_repeats(passes: list[Pass]) -> None:
    """Passes over the same inputs must write reports with the same bytes."""
    first: dict[int, list[str]] = {}
    for p in passes:
        if not p.ok:
            continue
        shas = first.setdefault(p.key, p.shas)
        for i, (a, b) in enumerate(zip(shas, p.shas)):
            if a and b and a != b:
                p.verdict.fail(1, f"report {i} differs from an earlier pass over the same inputs")


def timed_run(workload: str, seed: int, size_name: str, work: str, seconds: float,
              deadline: float):
    size = workloads.SIZES[size_name]
    # Every pass of report-rebuild reads the same stored campaign; the tuning
    # workloads give each pass fresh inputs.
    shared = None
    if workload == "report-rebuild":
        shared = workloads.make_inputs(workload, seed, size_name, os.path.join(work, "in"))
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        key = 0 if shared else len(passes)
        began = time.perf_counter()
        inputs = shared or workloads.make_inputs(
            workload, seed, size_name, os.path.join(work, f"in{key}"), key)
        passes.append(run_pass(inputs, key, work, size["rebuilds"], deadline))
        if not shared:
            shutil.rmtree(os.path.join(work, f"in{key}"), ignore_errors=True)
        now = time.perf_counter()
        if now + (now - began) > deadline or (
            len(passes) >= size["min_passes"] and now - start + (now - began) > seconds
        ):
            break
    check_repeats(passes)
    good = [p for p in passes if p.ok]
    if not good:
        return passes, {}, {}
    main_s = sum(sum(p.campaign_s) or sum(p.stats_s) for p in good)
    runs = sum(p.runs for p in good)
    metrics = {
        "setup_s": statistics.median(p.setup_s for p in good),
        "runs_per_s": runs / main_s,
        "report_s": statistics.median(s for p in good for s in p.stats_s),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in good),
    }
    notes = {
        "setup_s": f"median of {len(good)} fresh processes",
        "runs_per_s": f"{runs} runs in {main_s:.1f} s over {len(good)} passes",
        "report_s": f"median of {sum(len(p.stats_s) for p in good)} stats rebuilds",
        "peak_rss_mb": f"median of {len(good)} processes",
    }
    return passes, metrics, notes


def import_seconds(stderr: str, module: str) -> float:
    """Cumulative import time of ``module`` from ``python -X importtime`` output."""
    pattern = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*" + re.escape(module) + r"\s*$")
    for line in stderr.splitlines():
        match = pattern.match(line)
        if match:
            return int(match.group(1)) / 1e6
    return 0.0


def traced_run(workload: str, seed: int, size_name: str, work: str, deadline: float):
    inputs = workloads.make_inputs(workload, seed, size_name, os.path.join(work, "in"))
    rebuilds = workloads.SIZES[size_name]["rebuilds"]
    spans = os.path.join(work, "spans")
    traced = run_pass(inputs, 0, work, rebuilds, deadline, spans)
    plain = run_pass(inputs, 0, work, rebuilds, deadline)
    passes = [traced, plain]
    check_repeats(passes)
    if not traced.ok:
        return passes, {}, {}
    calls, self_s, total_s, counters, extra = tracer.summarize(spans)
    metrics: dict[str, float] = {}
    for name, _, _ in tracer.SPANS:
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name, count in counters.items():
        metrics[f"{name}.calls"] = count
    proposals = metrics["measurement.cache.calls"]
    distinct = metrics["measurement.oracle.calls"]
    sorts = metrics["optimizers.nondominated_sort.calls"]
    metrics.update({
        "measurement.proposals": proposals,
        "measurement.distinct": distinct,
        "measurement.cache_hit_ratio": 1.0 - distinct / proposals if proposals else 0.0,
        "measurement.proposals_per_measurement": proposals / distinct if distinct else 0.0,
        "optimizers.nondominated_sort.points_mean": extra["points"] / sorts if sorts else 0.0,
        "optimizers.generations": extra["generations"],
        "optimizers.generations_per_measurement":
            extra["generations"] / distinct if distinct else 0.0,
        "optimizers.restarts": extra["restarts"],
        "optimizers.regret_mean": statistics.fmean(traced.verdict.regrets or [0.0]),
        "harness.load_trace.rows": extra["rows"],
        "harness.execute_run.calls": metrics["optimizers.driver.calls"],
        "mmo_tune.stats.import_s": import_seconds(traced.stderr, "mmo_tune.stats"),
        "mmo_tune.harness.import_s": import_seconds(traced.stderr, "mmo_tune.harness"),
        "trace.overhead_s": traced.op_s - plain.op_s,
    })
    traced_s = sum(self_s.values())
    notes = {
        name: f"self {value / traced_s:6.1%}, with children {total_s[name] / traced_s:6.1%}"
        for name, value in sorted(self_s.items(), key=lambda kv: -kv[1])[:8] if value > 0
    }
    notes["trace.overhead_s"] = (f"{metrics['trace.overhead_s']:.3f} s: traced "
                                 f"{traced.op_s:.3f} s, untraced {plain.op_s:.3f} s")
    return passes, metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mmo_tune", "cli.py")):
        print(f"error: no mmo_tune sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    deadline = time.perf_counter() + RUN_LIMIT_S
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    try:
        if args.trace:
            passes, metrics, notes = traced_run(args.workload, args.seed, args.size, work,
                                                deadline)
        else:
            passes, metrics, notes = timed_run(args.workload, args.seed, args.size, work,
                                               args.seconds, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            os.rmdir(os.path.dirname(work))

    verdict = Verdict()
    for p in passes:
        verdict.add(p.verdict)
    for problem in verdict.problems[:20]:
        print(f"FAILED: {problem}")
    if not metrics:
        print("error: no pass completed", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if not args.trace:
        first = passes[0].verdict.regrets
        metrics_shown = {**metrics, "regret_mean": statistics.fmean(first or [0.0]),
                         "failed_ratio": verdict.failed / verdict.attempted}
        notes["regret_mean"] = f"mean of the first pass's {len(first)} runs"
        notes["failed_ratio"] = f"{verdict.failed} of {verdict.attempted} runs and rebuilds"
        units.update(regret_mean="fraction", failed_ratio="fraction")
        for name, value in metrics_shown.items():
            print(f"{name:<14} {value:>12.6g} {units[name]:<9} {notes[name]}")
    else:
        for name, note in notes.items():
            print(f"{name:<32} {note}")
    digest = hashlib.sha256("".join(passes[0].shas).encode()).hexdigest()
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"first pass report sha256 {digest}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
