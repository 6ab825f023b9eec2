"""perfbench A/B: a parent revision against this checkout's working tree.

    python3 tools/perf_ab.py --parent HEAD~1 --seeds 1-10 \
        --workloads short,long --out BENCH_x.json [--trace-seeds 1]

Both sides run from fresh copies in temporary directories (no worktree
is registered in the repository, so nothing is left behind if the run
is stopped): the parent is ``git archive REV``; the change is the
working tree that holds this script, as its tracked files plus the
untracked ones git does not ignore (``git ls-files -co
--exclude-standard``), so new files come along and ignored ones, such
as a persisted ``.perfbench_work/``, do not.  For each seed and
workload, ``perfbench/run.py --seconds S --trace 0`` runs once in each
tree, one run at a time: odd seeds run the parent first, even seeds the
change first.  S is the ``run_seconds`` of ``BENCHMARK.json``, so both
sides run as long as the benchmark does.  Each run uses the
``perfbench/`` of its own tree.

The output holds, per workload and end-to-end metric of
``BENCHMARK.json``: each side's runs, median and quartiles
(``statistics.quantiles``, inclusive), the change's wins (pairs where it
reads better; ties count for neither), whether its median is worse than
the parent's by more than the metric's bound, whether the comparison is
unresolved (the parent's interquartile range, relative to its median, is
wider than the bound, and not every change run reads better than every
parent run), and whether a gain could be
claimed (wins in at least nine tenths of the pairs and medians apart by
more than the parent's interquartile range).  It also records failed
operations and whether every pair wrote identical model and prediction
bytes (the report's sha256 values).  ``--trace-seeds`` adds traced pairs
(``--seconds 0 --trace 1``) with their per-layer metrics.

Exit status: 0 when every pair is correct and wrote identical outputs,
1 otherwise, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '1,3,5' (or a mix) into a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        try:
            seeds.extend(range(int(lo), int(hi or lo) + 1))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad seed list {text!r}") from None
    if not seeds or min(seeds) < 0:
        raise argparse.ArgumentTypeError(f"bad seed list {text!r}")
    return seeds


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 1-10")
    p.add_argument("--workloads", default="short,long")
    p.add_argument("--trace-seeds", type=parse_seeds, default=[],
                   help="seeds of extra traced pairs (per-layer metrics)")
    p.add_argument("--out", required=True)
    return p.parse_args(argv)


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: str) -> None:
    """Write the files of ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def export_worktree(dest: str) -> None:
    """Copy the working tree's tracked and unignored untracked files (as
    they are on disk; deleted ones are skipped) into ``dest``."""
    for name in git("ls-files", "-z", "-co", "--exclude-standard").split("\0"):
        src = os.path.join(ROOT, name)
        if name and os.path.lexists(src):
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name), follow_symlinks=False)


def run_once(tree: str, workload: str, seed: int, seconds: float,
             trace: bool) -> dict:
    """One perfbench run in ``tree``: its result and report."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("report: "):
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["report"] = json.loads(lines[-2][len("report: "):])
    return result


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(med, 4), "q3": round(q3, 4),
            "runs": [round(v, 4) for v in values]}


def compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    """One end-to-end metric over the pairs (parent[i], change[i])."""
    higher = spec["better"] == "higher"
    p, c = quartiles(parent), quartiles(change)
    wins = sum((b > a) if higher else (b < a) for a, b in zip(parent, change))
    bound = spec["bound"]
    worse = (c["median"] < p["median"] * (1 - bound) if higher
             else c["median"] > p["median"] * (1 + bound))
    gap = (c["median"] - p["median"]) * (1 if higher else -1)
    spread = (p["q3"] - p["q1"]) / p["median"] if p["median"] else float("inf")
    dominates = (min(change) > max(parent) if higher
                 else max(change) < min(parent))
    return {"unit": spec["unit"], "better": spec["better"], "bound": bound,
            "parent": p, "change": c,
            "median_ratio_change_over_parent": (round(c["median"] / p["median"], 4)
                                                if p["median"] else None),
            "wins": wins, "pairs": len(parent),
            "worse_than_bound": worse,
            "unresolved": spread > bound and not dominates,
            "gain_claimable": wins >= 0.9 * len(parent) and gap > p["q3"] - p["q1"]}


def run_pairs(trees: dict, workload: str, seeds: list[int], seconds: float,
              trace: bool) -> dict:
    """Alternating pairs; returns per-side lists of results."""
    runs = {"parent": [], "change": []}
    for seed in seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            t0 = time.monotonic()
            runs[side].append(run_once(trees[side], workload, seed, seconds, trace))
            print(f"perf_ab: {workload} seed {seed} {side}"
                  f"{' traced' if trace else ''}: {time.monotonic() - t0:.0f} s",
                  file=sys.stderr, flush=True)
    return runs


def summary(runs: dict, seeds: list[int]) -> dict:
    identical = all(p["report"]["sha256"] == c["report"]["sha256"]
                    for p, c in zip(runs["parent"], runs["change"]))
    return {"pairs": len(seeds), "seeds": seeds,
            "order": "odd seeds parent first, even seeds change first",
            "outputs_identical": identical,
            "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
            "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
            "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    known = {w["name"] for w in bench["workloads"]}
    workloads = args.workloads.split(",")
    if not set(workloads) <= known:
        print(f"perf_ab: unknown workload in {args.workloads!r}; "
              f"known: {', '.join(sorted(known))}", file=sys.stderr)
        return 2
    try:
        parent_sha = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    except subprocess.CalledProcessError:
        print(f"perf_ab: {args.parent!r} is not a commit", file=sys.stderr)
        return 2
    out = {"command": "python3 tools/perf_ab.py " + " ".join(
               sys.argv[1:] if argv is None else argv),
           "parent": parent_sha,
           "change": f"working tree at {git('rev-parse', 'HEAD')}"
                     + (" (with uncommitted changes)" if git("status", "--porcelain")
                        else ""),
           "machine": f"{os.cpu_count()} CPUs, {platform.processor() or platform.machine()}, "
                      f"Python {platform.python_version()}",
           "seconds": bench["run_seconds"],
           "end_to_end": {}, "traced": {}}
    ok = True
    with tempfile.TemporaryDirectory(prefix="perf_ab_") as tmp:
        trees = {side: os.path.join(tmp, side) for side in ("parent", "change")}
        for tree in trees.values():
            os.mkdir(tree)
        export(parent_sha, trees["parent"])
        export_worktree(trees["change"])
        for workload in workloads:
            runs = run_pairs(trees, workload, args.seeds, bench["run_seconds"],
                             False)
            res = summary(runs, args.seeds)
            res["metrics"] = {
                spec["name"]: compare(
                    spec, *([r["metrics"][spec["name"]]["value"] for r in runs[side]]
                            for side in ("parent", "change")))
                for spec in bench["end_to_end"]}
            out["end_to_end"][workload] = res
            ok &= res["outputs_identical"] and res["correct"]["parent"] \
                and res["correct"]["change"]
            if args.trace_seeds:
                runs = run_pairs(trees, workload, args.trace_seeds, 0, True)
                res = summary(runs, args.trace_seeds)
                names = sorted(runs["parent"][0]["metrics"])
                res["metrics_parent_change"] = {
                    name: [statistics.median(r["metrics"][name]["value"]
                                             for r in runs[side])
                           for side in ("parent", "change")]
                    for name in names}
                out["traced"][workload] = res
                ok &= res["outputs_identical"]
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=False)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
