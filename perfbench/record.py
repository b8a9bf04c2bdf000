"""Run every workload of the benchmark and summarise the metrics.

    python3 perfbench/record.py [--runs N] [--seconds S] [--out FILE]

Each workload runs N times untraced (seeds 1..N, interleaved across the
workloads) and once traced (seed 1), through ``run.py`` as separate
processes.  The table gives each metric's median, quartiles and spread
(the distance between the quartiles over the median).  ``--out`` writes
the baseline record: those figures, the traced layer metrics, the
layer-to-end-to-end predictions, and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Which end-to-end metric each layer metric should move, and where.
# "expect" is "moves" or "no change"; "watch" marks a possible side effect.
PREDICTIONS = [
    {"layer": "linalg.rref.{calls,self_s,cells,nnz_ratio,max_cells}",
     "end_to_end": ["wall_s", "op_p50_s"], "workload": "twoloop-triangles",
     "expect": "moves"},
    {"layer": "linalg.solve.calls, linalg.nullspace.calls",
     "end_to_end": ["wall_s", "op_p50_s"], "workload": "twoloop-triangles",
     "expect": "moves"},
    {"layer": "linalg.rref.*", "end_to_end": ["wall_s"],
     "workload": "certify-edges", "expect": "no change"},
    {"layer": "linalg.rref.*.gf101", "end_to_end": ["wall_s"],
     "workload": "ar-oracle",
     "expect": "watch: small dense systems and the prime field"},
    {"layer": "modules.MorphismSystem.require_commutes.{calls,self_s}",
     "end_to_end": ["wall_s"], "workload": "certify-edges",
     "expect": "moves: building systems dominates hom_basis"},
    {"layer": "modules.MorphismSystem.solve.{calls,self_s}",
     "end_to_end": ["wall_s"], "workload": "twoloop-triangles",
     "expect": "moves: solving systems dominates"},
    {"layer": "modules.{hom_basis,radical_hom,GradedModule.validate,"
              "kernel_cokernel,socle_radical,injective_hull,decompose,"
              "find_isomorphism}",
     "end_to_end": ["wall_s"], "workload": "certify-edges, ar-oracle",
     "expect": "moves"},
    {"layer": "modules.splitness", "end_to_end": ["wall_s"],
     "workload": "twoloop-triangles", "expect": "moves"},
    {"layer": "strings.string_module.reuse_ratio", "end_to_end": ["wall_s"],
     "workload": "certify-edges", "expect": "moves"},
    {"layer": "strings.projective_words", "end_to_end": ["wall_s"],
     "workload": "ex4-cli", "expect": "moves"},
    {"layer": "strings.{ar_sequence,enumerate_strings,knit_component}",
     "end_to_end": ["wall_s"], "workload": "all", "expect": "moves"},
    {"layer": "presentation.AlgebraPresentation.path_normal_form."
              "{calls,self_s}, repetitive.build_repetitive_window.total_s",
     "end_to_end": ["wall_s", "setup_s"], "workload": "ex4-cli",
     "expect": "moves"},
    {"layer": "repetitive.RepetitiveWindow.projective.{calls,total_s}",
     "end_to_end": ["wall_s"], "workload": "ar-oracle", "expect": "moves"},
    {"layer": "stable.{triangle_from_ses,ar_triangle_from_sequence,"
              "classify_irreducible,verify_shape_table,check_ar_axioms,"
              "rad_square_membership}",
     "end_to_end": ["wall_s"], "workload": "all",
     "expect": "moves: attributes the stable-category steps"},
    {"layer": "cli.{cmd_knit.total_s,cmd_triangles.total_s,"
              "cmd_example4.self_s}",
     "end_to_end": ["wall_s"], "workload": "ex4-cli", "expect": "moves"},
]


def run_once(workload, seed, seconds, trace):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - t0
    return result


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def _git_rev():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {name: [] for name in names}
    for seed in range(1, args.runs + 1):
        for name in names:
            runs[name].append(run_once(name, seed, args.seconds, 0))
    traced = {name: run_once(name, 1, args.seconds, 1) for name in names}

    record = {}
    for name in names:
        results = runs[name] + [traced[name]]
        e2e = {metric: dict(summarise([r["metrics"][metric]["value"]
                                       for r in runs[name]]),
                            unit=runs[name][0]["metrics"][metric]["unit"])
               for metric in bounds}
        layers = {metric: m["value"]
                  for metric, m in traced[name]["metrics"].items()}
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        record[name] = {
            "end_to_end": e2e,
            "fail_ratio": failed / attempted,
            "attempted": attempted,
            "run_elapsed_s": summarise([r["elapsed_s"] for r in results]),
            "per_layer": layers,
            "rref_self_share_of_wall": (layers["linalg.rref.self_s"]
                                        / layers["trace.wall_s"]),
        }
        print("%s: %d operations attempted, fail_ratio %.4f, run %.1f s"
              % (name, attempted, failed / attempted,
                 record[name]["run_elapsed_s"]["median"]))
        for metric, s in e2e.items():
            flag = ("" if s["spread"] < bounds[metric] / 3
                    else "  (spread >= bound/3)")
            print("  %-12s %12.4f %-3s  q1 %.4f  q3 %.4f  spread %.3f%s"
                  % (metric, s["median"], s["unit"], s["q1"], s["q3"],
                     s["spread"], flag))
        print("  %-12s %12.3f      traced/untraced wall_s"
              % ("trace.overhead", layers["trace.overhead"]))
        print("  %-12s %12.3f      linalg.rref.self_s / trace.wall_s"
              % ("rref share", record[name]["rref_self_share_of_wall"]))

    if args.out:
        with open(args.out, "w") as fh:
            json.dump({
                "git_rev": _git_rev(),
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "machine": platform.machine(),
                "run_seconds": args.seconds,
                "runs_per_workload": args.runs,
                "predictions": PREDICTIONS,
                "workloads": record,
            }, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
