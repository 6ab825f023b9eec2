"""Kruskal against the randomized MSF recursion, by edge count.

Times ``kruskal_msf`` and ``randomized_msf`` with its Kruskal base case
switched off (``mst._BASE_EDGES = 0``) on the same graphs:

* bench graphs: ``bench.random_connected_graph`` at 16 edges to 1M (the
  sizes ``umstparse bench`` runs), doubling, at edge/vertex densities 2
  and 4;
* short parse graphs: the 150 bundled dev sentences, pruned with the
  length dictionary, under a u-mst-uf model trained on the first 300
  training sentences (the ``short`` benchmark workload's setting);
* long parse graphs: the ``long`` workload's 60 joined dev sentences at
  seed 1 (perfbench's ``long_sentences``; 20-70 tokens), unpruned.

Each graph is timed as the best of ``--repeats`` batches of calls.  Parse
graphs are grouped by edge count into power-of-two bins.  The result's
``largest_size_kruskal_faster`` is the largest sweep size at and below
which Kruskal wins on every bench graph and parse-graph bin, and
``crossover_found`` says whether the recursion wins anywhere in the sweep;
without a crossover, ``mst._BASE_EDGES`` is a cap chosen on other grounds
(see its comment).  Prints one JSON object.

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


def best_us(fn, graph, calls: int, repeats: int) -> float:
    """Best per-call time in microseconds over ``repeats`` batches."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for _ in range(calls):
            fn(graph)
        best = min(best, (time.perf_counter_ns() - start) / calls / 1e3)
    return best


def recursion(graph):
    return mst.randomized_msf(graph, mst.RandomSource(1))


def time_pair(graph, repeats: int) -> tuple[float, float]:
    """(Kruskal us, recursion us) on one graph; both must agree."""
    base = mst._BASE_EDGES
    mst._BASE_EDGES = 0
    try:
        if recursion(graph).edge_ids != mst.kruskal_msf(graph).edge_ids:
            raise AssertionError("engines disagree")
        calls = max(1, 20000 // max(graph.n_edges, 1))
        return (best_us(mst.kruskal_msf, graph, calls, repeats),
                best_us(recursion, graph, calls, repeats))
    finally:
        mst._BASE_EDGES = base


def parse_bins(graphs, repeats: int) -> list[dict]:
    by_bin: dict[int, list[tuple[float, float]]] = {}
    for graph in graphs:
        low = 1 << (max(graph.n_edges, 1).bit_length() - 1)
        by_bin.setdefault(low, []).append(time_pair(graph, repeats))
    rows = []
    for low in sorted(by_bin):
        pairs = by_bin[low]
        k = statistics.median(p[0] for p in pairs)
        r = statistics.median(p[1] for p in pairs)
        rows.append({"edges": f"{low}-{2 * low - 1}", "graphs": len(pairs),
                     "kruskal_us": round(k, 1), "recursion_us": round(r, 1),
                     "kruskal_faster": k < r})
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeats", type=int, default=5)
    args = p.parse_args(argv)

    bench = []
    for m in SIZES:
        for density in DENSITIES:
            n = max(2, m // density)
            graph = random_connected_graph(
                n, m, np.random.default_rng([m, density]))
            if graph.n_edges != m:          # too few vertices for m edges
                continue
            k, r = time_pair(graph, args.repeats)
            bench.append({"edges": m, "density": density,
                          "kruskal_us": round(k, 1), "recursion_us": round(r, 1),
                          "kruskal_faster": k < r})

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
    largest = None
    for size in SIZES:                    # stop at the first size Kruskal loses
        if not all(r["kruskal_faster"] for r in rows if low(r) <= size):
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
        "largest_size_kruskal_faster": largest,
        "crossover_found": largest != SIZES[-1],
    }
    json.dump(result, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
