"""algwaves benchmark: time to a checked verdict on one workload.

    python3 perfbench/run.py --workload neg-search --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  With --trace 0 the workload runs
batch after batch, untraced, while one more batch still fits in
--seconds, and the end-to-end metrics of BENCHMARK.json are reported.
With --trace 1 batch 0 runs once untraced and once traced, the verdicts
of the two are compared, and the per-layer metrics of the traced pass
are reported; the traced pass is a fixed amount of work, so its counts
repeat exactly for one seed.  Either way the last line of standard
output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import layers
import speed
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9  # this process plus eight fresh interpreters


@dataclass
class Batch:
    """Raw perf_counter() stamps of one batch; speed.py rescales them."""

    start: float
    end: float = 0.0
    runs: list = field(default_factory=list)  # (start, end) of each job's library calls
    verdicts: list = field(default_factory=list)


def run_batch(ctx, jobs, tracer=None) -> Batch:
    """Run and check jobs back to back."""
    clock = time.perf_counter
    out = Batch(clock())
    for job in jobs:
        run, check = workloads.JOBS[job.kind]
        try:
            start = clock()
            result = run(ctx, *job.args)
            out.runs.append((start, clock()))
            if tracer is None:
                verdict = check(ctx, job.args, result)
            else:
                with tracer.paused():
                    verdict = check(ctx, job.args, result)
        except Exception:
            traceback.print_exc()
            print("job %s %r raised" % (job.label, job.args), file=sys.stderr)
            verdict = (False, "raised")
        out.verdicts.append(verdict)
    out.end = clock()
    return out


def count_failures(jobs, verdicts) -> int:
    failed = 0
    for job, (ok, verdict) in zip(jobs, verdicts):
        if not ok:
            failed += 1
            print("FAILED %s %r: %r" % (job.label, job.args, verdict), file=sys.stderr)
    return failed


def setup_probes(n: int) -> list[tuple[float, float]]:
    """(seconds at reference speed, raw seconds) of set-up in n fresh
    interpreters."""
    out = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, str(HERE / "probe.py")], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        scaled, raw = proc.stdout.split()[-2:]
        out.append((float(scaled), float(raw)))
    return out


def measure(workload: str, seed: int, seconds: float, ctx, own_setup):
    batches: list[Batch] = []
    failed, attempted = 0, 0
    t_start = time.perf_counter()

    def another_fits() -> bool:
        last = batches[-1]
        return last.end - t_start + (last.end - last.start) <= seconds

    with speed.Speedometer() as meter:
        while not batches or another_fits():
            jobs = workloads.make_batch(workload, seed, len(batches))
            batches.append(run_batch(ctx, jobs))
            attempted += len(jobs)
            failed += count_failures(jobs, batches[-1].verdicts)
    walls = [meter.seconds(b.start, b.end) for b in batches]
    job_s = [meter.seconds(a, z) for b in batches for a, z in b.runs]
    setups = [own_setup] + setup_probes(SETUP_SAMPLES - 1)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("%s seed %d: %d batches, %d jobs, closed loop with one client"
          % (workload, seed, len(batches), attempted))
    print("batch walls at reference speed: " + " ".join("%.3f" % w for w in walls))
    print("batch walls, raw: " + " ".join("%.3f" % (b.end - b.start) for b in batches))
    print("raw medians: wall %.4f s, setup %.4f s"
          % (statistics.median(b.end - b.start for b in batches),
             statistics.median(raw for _, raw in setups)))
    print("fail_ratio %.4f (%d of %d jobs)" % (failed / attempted, failed, attempted))
    if len(job_s) >= 100:
        print("job_p90_s %.6f s (%d job samples)"
              % (statistics.quantiles(job_s, n=10)[-1], len(job_s)))
    metrics = {
        "wall_s": statistics.median(walls),
        "job_p50_s": statistics.median(job_s),
        "setup_s": statistics.median(scaled for scaled, _ in setups),
        "peak_rss_mb": rss_mb,
    }
    return metrics, attempted, failed


def trace(workload: str, seed: int, ctx):
    jobs = workloads.make_batch(workload, seed, 0)
    tr = Tracer()
    with speed.Speedometer() as meter:
        plain = run_batch(ctx, jobs)
        try:
            layers.install(tr, ctx.aw)
            traced = run_batch(workloads.setup(ctx.aw), jobs, tr)
        finally:
            tr.uninstall()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tr.write(out_dir / ("spans-%s-%d.tsv" % (workload, seed)))
    failed = count_failures(jobs, traced.verdicts)
    if traced.verdicts != plain.verdicts:
        print("traced verdicts differ from untraced ones", file=sys.stderr)
        failed = max(failed, 1)
    plain_wall = meter.seconds(plain.start, plain.end)
    traced_wall = meter.seconds(traced.start, traced.end)
    metrics = layers.metrics(tr)
    metrics["trace.overhead"] = traced_wall / plain_wall
    print("%s seed %d: batch 0, %d jobs, at reference speed untraced %.3f s, "
          "traced %.3f s" % (workload, seed, len(jobs), plain_wall, traced_wall))
    return metrics, len(jobs), failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        ctx, scaled, raw = speed.timed(
            lambda: workloads.setup(workloads.import_algwaves(ROOT)))
    except (ImportError, FileNotFoundError) as exc:
        print("cannot load algwaves: %s" % exc, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.trace:
        values, attempted, failed = trace(args.workload, args.seed, ctx)
        wanted = spec["per_layer"]
    else:
        values, attempted, failed = measure(args.workload, args.seed, args.seconds,
                                            ctx, (scaled, raw))
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("%s %s %s" % (m["name"], values[m["name"]], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
