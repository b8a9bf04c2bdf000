"""Child processes of the benchmark.

``child.py setup WORKLOAD [--tiny]``
    Times one cold set-up of the workload (import of the whole package,
    parse, window build) and prints it as JSON, in reference seconds (see
    ``speed.py``) and in wall seconds.

``child.py cli --report FILE [--spans SPANS] -- ARGS...``
    Runs the repstable command line with the speed sampler running, and
    writes the samples to FILE (JSON).  With ``--spans`` the layer tracer
    is installed too: its counters go to FILE and its spans to SPANS.
"""

import argparse
import contextlib
import json
import sys
import time


def _setup(args):
    # Imported before the clock starts: the speed kernel needs ``fractions``,
    # so set-up times exclude that standard-library import.
    import speed

    with speed.SpeedSampler() as sampler:
        t0 = time.perf_counter()
        import repstable.cli    # the whole package, as the command loads it
        t1 = time.perf_counter()
        import workloads        # the benchmark's own code: not timed
        t2 = time.perf_counter()
        workloads.WORKLOADS[args.workload](tiny=args.tiny).setup()
        t3 = time.perf_counter()
    print(json.dumps({
        "setup_s": sampler.seconds(t0, t1) + sampler.seconds(t2, t3),
        "wall_s": (t1 - t0) + (t3 - t2)}))
    return 0


def _cli(args):
    from repstable import cli
    import speed

    tracer = contextlib.nullcontext()
    if args.spans:
        import tracing

        tracer = tracing.Tracer()
        tracer.field = "qq"     # example4 computes over QQ
    with speed.SpeedSampler() as sampler, tracer:
        rc = cli.main(args.cli_args)
    report = {"speed": [sampler.starts, sampler.durations]}
    if args.spans:
        tracer.write_spans(args.spans)
        report["trace"] = tracer.raw()
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return rc


def main(argv=None):
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="mode", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("workload")
    setup.add_argument("--tiny", action="store_true")
    cli = sub.add_parser("cli")
    cli.add_argument("--report", required=True)
    cli.add_argument("--spans")
    cli.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    if args.mode == "setup":
        return _setup(args)
    if args.cli_args[:1] == ["--"]:
        args.cli_args = args.cli_args[1:]
    return _cli(args)


if __name__ == "__main__":
    sys.exit(main())
