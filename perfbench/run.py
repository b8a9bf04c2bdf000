"""Run one workload of the repstable benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--tiny]

Run from the root of a source checkout; the package is imported from
``src/``.  The job of the workload is repeated, one whole pass at a time,
for about ``--seconds`` (at least one pass).  Every operation's result is
checked.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics.  With
``--trace 1`` half the time runs untraced and half with the layer tracer
installed, and the metrics are the per-layer ones (per pass of the job)
plus ``trace.wall_s`` and ``trace.overhead``; an operation whose traced
verdict differs from its untraced one counts as failed.  ``--tiny``
shrinks every job, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import speed
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# End-to-end metrics: name -> (unit, better).
E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "op_p50_s": ("s", "lower"),
    "op_tail_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# Cold set-ups timed per run; setup_s is their median.
SETUP_PROBES = 9
# op_tail_s is the highest percentile with this many samples of a pass
# beyond it.
TAIL_SAMPLES = 10


@dataclass
class Probes:
    """What a pass is measured with: the layer tracer, the speed sampler,
    or neither."""
    tracer: tracing.Tracer = None
    sampler: speed.SpeedSampler = None


@dataclass
class PassResult:
    # (start, end) perf_counter times of the prepare step and of every
    # operation that passed its check; failed operations are left out.
    prepare: tuple = None
    ops: list = field(default_factory=list)
    attempted: int = 1
    failed: int = 1
    verdicts: dict = field(default_factory=dict)


def run_pass(wl, rng, shuffle, probes, pass_no):
    """One pass of the workload's fixed job."""
    state = wl.setup()
    tracer = probes.tracer
    patch = tracer is not None and wl.in_process
    if tracer is not None:
        tracer.pass_no = pass_no
        tracer.field = wl.field
    results, spans = {}, {}
    if patch:
        tracer.install()
    try:
        t0 = time.perf_counter()
        try:
            ops = wl.prepare(state, probes)
        except Exception:
            traceback.print_exc()
            return PassResult()
        prepare = (t0, time.perf_counter())
        if shuffle:
            rng.shuffle(ops)
        for op in ops:
            if tracer is not None:
                tracer.field = op.field
            t0 = time.perf_counter()
            try:
                results[op.key] = op.run()
            except Exception:
                traceback.print_exc()
                continue
            spans[op.key] = (t0, time.perf_counter())
    finally:
        if patch:
            tracer.uninstall()
    try:
        checked = wl.check(state, results, probes)
    except Exception:
        traceback.print_exc()
        checked = {}
    good = [key for key, (_, ok) in checked.items() if ok]
    return PassResult(
        prepare=prepare,
        ops=[spans[key] for key in good],
        attempted=len(ops),
        failed=len(ops) - len(good),
        verdicts={key: verdict for key, (verdict, _) in checked.items()})


def raw_seconds(start, end):
    return end - start


def timings(passes, seconds=raw_seconds):
    """(job time per pass, sorted operation times), for the passes in
    which some operation passed its check."""
    walls, ops = [], []
    for p in passes:
        if p.ops:
            op_times = [seconds(*span) for span in p.ops]
            walls.append(seconds(*p.prepare) + sum(op_times))
            ops.extend(op_times)
    return walls, sorted(ops)


def tail(times, per_pass):
    """The highest percentile with TAIL_SAMPLES operations of one pass
    beyond it, taken over the sorted samples of all passes; the slowest
    sample when a pass has no more operations than that.  Defined per
    pass, so that it does not move with the number of passes run."""
    if not times:
        return 0.0
    if per_pass <= TAIL_SAMPLES:
        return times[-1]
    rank = 1.0 - TAIL_SAMPLES / per_pass
    return times[round(rank * (len(times) - 1))]


def run_phase(wl, seconds, rng, shuffle, probes):
    """Whole passes while the next one is expected to end within
    ``seconds``; always at least one."""
    passes = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(wl, rng, shuffle, probes, len(passes)))
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if now - start + longest > seconds:
            return passes


def sampling(wl, sampler):
    """The sampler runs in this process for in-process workloads; each CLI
    process of ``ex4-cli`` samples its own speed and reports it back."""
    return sampler if wl.in_process else contextlib.nullcontext()


def setup_samples(wl_name, tiny):
    import workloads    # needs src/ on the path, see main()

    cmd = [sys.executable, os.path.join(HERE, "child.py"), "setup", wl_name]
    if tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, env=workloads.child_env(), check=True,
                              capture_output=True, text=True)
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def end_to_end(wl, seconds, rng, shuffle, tiny):
    """End-to-end metrics, in reference seconds, and the passes run."""
    setup = setup_samples(wl.name, tiny)
    sampler = speed.SpeedSampler()
    with sampling(wl, sampler):
        passes = run_phase(wl, seconds, rng, shuffle, Probes(sampler=sampler))
    walls, times = timings(passes, sampler.seconds)
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls) if walls else 0.0,
        "op_p50_s": statistics.median(times) if times else 0.0,
        "op_tail_s": tail(times, passes[0].attempted),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    raw_walls, _ = timings(passes)
    print("wall time per pass %s s; %d speed samples, median kernel %.6f s"
          % (", ".join("%.3f" % w for w in raw_walls),
             len(sampler.durations), statistics.median(sampler.durations)
             if sampler.durations else 0.0))
    return metrics, passes


def traced_metrics(wl, seconds, rng, shuffle, spans_path):
    """Per-layer metrics, and the passes of both halves of the run.

    The speed sampler runs in both halves, so that ``trace.overhead``
    compares reference seconds; its kernel runs inside the traced spans
    too, in proportion to their length.
    """
    plain_sampler, traced_sampler = speed.SpeedSampler(), speed.SpeedSampler()
    tracer = tracing.Tracer(spans_path)
    halves = []
    for probes in (Probes(sampler=plain_sampler),
                   Probes(tracer=tracer, sampler=traced_sampler)):
        with sampling(wl, probes.sampler):
            halves.append(run_phase(wl, seconds / 2.0, rng, shuffle, probes))
    plain, traced = halves
    if wl.in_process:
        tracer.write_spans(spans_path + ".tsv.gz")
    # The tracer must not change a verdict.
    reference = plain[0].verdicts
    for p in traced:
        p.failed += sum(1 for key, verdict in p.verdicts.items()
                        if key in reference and reference[key] != verdict)
    raw = tracing.merge_raw([tracer.raw()] + tracer.child_raws)
    metrics = tracing.layer_metrics(raw, len(traced))
    plain_walls, _ = timings(plain, plain_sampler.seconds)
    traced_walls, _ = timings(traced, traced_sampler.seconds)
    raw_walls, _ = timings(traced)
    metrics[tracing.WALL_METRIC] = (statistics.median(raw_walls)
                                    if raw_walls else 0.0)
    metrics[tracing.OVERHEAD_METRIC] = (
        statistics.median(traced_walls) / statistics.median(plain_walls)
        if plain_walls and traced_walls else 0.0)
    return metrics, plain + traced


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repstable", "__init__.py")):
        print("error: no repstable sources under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](tiny=args.tiny)
    rng = random.Random(args.seed)
    shuffle = args.seed != 0

    if args.trace:
        spans_path = os.path.join(workloads.scratch_dir(), "spans-%s-seed%d"
                                  % (wl.name, args.seed))
        metrics, passes = traced_metrics(wl, args.seconds, rng, shuffle,
                                         spans_path)
        units = tracing.LAYER_METRICS
    else:
        metrics, passes = end_to_end(wl, args.seconds, rng, shuffle,
                                     args.tiny)
        units = E2E_METRICS

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    samples = sum(len(p.ops) for p in passes)
    print("%s seed %d trace %d: %d passes, %d operations attempted, "
          "%d failed, fail_ratio %.4f, %d timed operation samples"
          % (wl.name, args.seed, args.trace, len(passes), attempted, failed,
             failed / attempted, samples))
    for name, value in metrics.items():
        print("  %-58s %14.6f %s" % (name, value, units[name][0]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
