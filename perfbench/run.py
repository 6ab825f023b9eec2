"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root:

    python3 perfbench/run.py --workload short --seed 1 --seconds 30 --trace 0

The parser is imported from ``src/`` of the same checkout.  With
``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` the workload runs one round untraced and one
traced, and the last line holds the per-layer metrics plus the tracing
overhead.  The line before it is a report with the output hashes,
accuracies, sample counts and any failures.  Exit code 2 means the
checkout lacks the parser sources or data.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REQUIRED = (os.path.join("src", "umstparse", "__init__.py"),
            os.path.join("data", "fixture_train.conll"),
            os.path.join("data", "fixture_dev.conll"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("short", "long"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (result, report)."""
    from clock import factor_summary
    from tracer import SpanStats, Tracer
    from workloads import WORKLOADS, Tally, Paths

    work = os.path.join(ROOT, ".perfbench_work", f"{workload}-{seed}")
    os.makedirs(work, exist_ok=True)
    tally = Tally()
    wl = WORKLOADS[workload](Paths(ROOT, work), seed)
    setup_times = wl.setup()
    wl.warm_up(tally)
    if trace:
        # both passes get the tracer, so that both are timed alike; only
        # the second has its wrappers installed
        tracer = Tracer()
        plain = wl.measure(tally, rounds=1, tracer=tracer)
        with tracer:
            traced = wl.measure(tally, rounds=1, tracer=tracer)
        # training predictions are checked inside the traced run only
        tally.attempted += sum(v for k, v in tracer.counts.items()
                               if k[0] == "training.predictions")
        tally.failed += tracer.invalid_predictions
        wl.check_forests(tally, tracer.forests)
        tracer.write(os.path.join(work, "spans.tsv"))
    else:
        plain = wl.measure(tally, seconds=seconds)
    report = wl.report(tally)
    if trace:
        metrics = wl.per_layer(SpanStats(tracer.spans), tracer.counts)
        for kind in ("d_uas", "u_uas"):
            for system, value in report.get(kind, {}).items():
                metrics[f"evaluate.{kind}.{system}"] = (value, "%")
        metrics["trace.overhead_pct"] = (100.0 * (traced.work_s / plain.work_s - 1.0), "%")
    else:
        metrics = wl.end_to_end(plain)
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    report.update(workload=workload, seed=seed, rounds=plain.rounds,
                  setup_repeats=len(setup_times), probe_factor=factor_summary(),
                  samples={k: len(v) for k, v in plain.samples.items()},
                  errors=tally.errors)
    result = {"correct": tally.failed == 0,
              "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, report


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
