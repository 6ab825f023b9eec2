"""Kruskal against the randomized MSF recursion, by edge count.

Times ``kruskal_msf`` and ``randomized_msf`` with its Kruskal base case
switched off (``mst._BASE_EDGES = 0``) on the same graphs:

* bench graphs: ``bench.random_connected_graph`` at 16 edges to 1M (the
  sizes ``umstparse bench`` runs), doubling, at edge/vertex densities 2
  and 4, ``GRAPHS`` seeded graphs per size and density;
* short parse graphs: the 150 bundled dev sentences, pruned with the
  length dictionary, under a u-mst-uf model trained on the first 300
  training sentences (the ``short`` benchmark workload's setting);
* long parse graphs: the ``long`` workload's 60 joined dev sentences at
  seed 1 (perfbench's ``long_sentences``; 20-70 tokens), unpruned.

Each graph is timed per call as the median of ``--repeats`` batches, the
two engines' batches alternating.  A cell (a size and density, or a
power-of-two bin of parse-graph edge counts) reports each engine's
median and quartiles over its graphs, and is ``unresolved`` when the two
engines' interquartile ranges overlap or it holds fewer than 3 graphs;
``kruskal_faster`` is null there.
The result's ``largest_size_kruskal_faster`` is the largest sweep size at
and below which Kruskal wins every resolved cell, and ``crossover_found``
says whether the recursion wins a resolved cell in the sweep; unresolved
cells decide neither.  Without a crossover, ``mst._BASE_EDGES`` is a cap
chosen on other grounds (see its comment).  Prints one JSON object.

    PYTHONPATH=src python tools/msf_crossover.py > /tmp/crossover.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from umstparse import mst
from umstparse.bench import random_connected_graph
from umstparse.conll import load_conll
from umstparse.inference import build_parse_graph, build_pruner
from umstparse.training import TrainConfig, train_full

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import LONG_DEV, SHORT_TRAIN, long_sentences  # noqa: E402

SIZES = tuple(16 << k for k in range(16)) + (1_000_000,)   # 16 .. 1M
DENSITIES = (2, 4)
GRAPHS = 3                      # seeded bench graphs per size and density


def median_us(fns, graph, calls: int, repeats: int) -> list[float]:
    """Per engine, the median per-call time in microseconds over
    ``repeats`` batches; the engines' batches alternate."""
    times = [[] for _ in fns]
    for _ in range(repeats):
        for fn, out in zip(fns, times):
            start = time.perf_counter_ns()
            for _ in range(calls):
                fn(graph)
            out.append((time.perf_counter_ns() - start) / calls / 1e3)
    return [statistics.median(out) for out in times]


def recursion(graph):
    return mst.randomized_msf(graph, mst.RandomSource(1))


def time_pair(graph, repeats: int) -> list[float]:
    """[Kruskal us, recursion us] on one graph; both must agree."""
    base = mst._BASE_EDGES
    mst._BASE_EDGES = 0
    try:
        if recursion(graph).edge_ids != mst.kruskal_msf(graph).edge_ids:
            raise AssertionError("engines disagree")
        calls = max(1, 20000 // max(graph.n_edges, 1))
        return median_us((mst.kruskal_msf, recursion), graph, calls, repeats)
    finally:
        mst._BASE_EDGES = base


def cell(times: list[list[float]], **key) -> dict:
    """One cell's row from its graphs' [Kruskal, recursion] times."""
    row = dict(key, graphs=len(times))
    spread = {}
    for i, engine in enumerate(("kruskal", "recursion")):
        values = sorted(t[i] for t in times)
        q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                       if len(values) > 1 else values * 3)
        row[f"{engine}_us"] = {"median": round(med, 1), "q1": round(q1, 1),
                               "q3": round(q3, 1)}
        spread[engine] = (q1, q3)
    (k1, k3), (r1, r3) = spread["kruskal"], spread["recursion"]
    row["unresolved"] = len(times) < 3 or (k1 <= r3 and r1 <= k3)
    row["kruskal_faster"] = None if row["unresolved"] else k3 < r1
    return row


def parse_bins(graphs, repeats: int) -> list[dict]:
    by_bin: dict[int, list[list[float]]] = {}
    for graph in graphs:
        low = 1 << (max(graph.n_edges, 1).bit_length() - 1)
        by_bin.setdefault(low, []).append(time_pair(graph, repeats))
    return [cell(by_bin[low], edges=f"{low}-{2 * low - 1}") for low in sorted(by_bin)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeats", type=int, default=3,
                   help="timed batches per graph and engine")
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats must be >= 1")

    bench = []
    for m in SIZES:
        for density in DENSITIES:
            n = max(2, m // density)
            times = []
            for seed in range(1, GRAPHS + 1):
                graph = random_connected_graph(
                    n, m, np.random.default_rng([m, density, seed]))
                if graph.n_edges != m:      # too few vertices for m edges
                    break
                times.append(time_pair(graph, args.repeats))
            if times:
                bench.append(cell(times, edges=m, density=density))

    train = load_conll(ROOT / "data" / "fixture_train.conll")[:SHORT_TRAIN]
    dev = load_conll(ROOT / "data" / "fixture_dev.conll")
    pruner = build_pruner(train)
    model, _ = train_full(train, TrainConfig(system="u-mst-uf", epochs=2,
                                             pruning="length-dictionary"))
    short = [build_parse_graph(s, model, pruner.mask(s))[0].graph for s in dev]
    long = [build_parse_graph(s, model)[0].graph
            for s in long_sentences(dev, 1, LONG_DEV)]
    parse_bins_short = parse_bins(short, args.repeats)
    parse_bins_long = parse_bins(long, args.repeats)

    def low(row):
        edges = row["edges"]
        return edges if isinstance(edges, int) else int(edges.split("-")[0])

    rows = [*bench, *parse_bins_short, *parse_bins_long]
    decided = [r for r in rows if not r["unresolved"]]
    largest = None
    for size in SIZES:                    # stop at the first size Kruskal loses
        if not all(r["kruskal_faster"] for r in decided if low(r) <= size):
            break
        largest = size

    result = {
        "bench_graphs": bench,
        "short_parse_graphs": parse_bins_short,
        "long_parse_graphs": parse_bins_long,
        "short_edges": {"mean": round(statistics.mean(g.n_edges for g in short), 1),
                        "max": max(g.n_edges for g in short)},
        "long_edges": {"mean": round(statistics.mean(g.n_edges for g in long), 1),
                       "max": max(g.n_edges for g in long)},
        "unresolved_cells": len(rows) - len(decided),
        "largest_size_kruskal_faster": largest,
        "crossover_found": largest != SIZES[-1],
    }
    json.dump(result, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
