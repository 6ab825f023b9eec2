"""Benchmark harness: random connected graphs and MSF backend timings.

Emits CSV rows `algorithm,n,m,seed,wall_time_ns,total_weight`; equal
total weights across algorithms on the same graph double as a cheap
cross-check of the implementations.
"""

from __future__ import annotations

import time
from typing import Iterable, TextIO

import numpy as np

from .errors import InputError
from .graph import UndirectedGraph
from .mst import RandomSource, boruvka_msf, kruskal_msf, randomized_msf

CSV_HEADER = "algorithm,n,m,seed,wall_time_ns,total_weight"

# engine(graph, seed) per algorithm name; only the randomized engine reads
# the seed, which fixes its coin flips
ALGORITHMS = {
    "kruskal": lambda graph, seed: kruskal_msf(graph),
    "boruvka": lambda graph, seed: boruvka_msf(graph),
    "randomized": lambda graph, seed: randomized_msf(graph, RandomSource(seed)),
}


def random_connected_graph(n: int, m: int,
                           rng: np.random.Generator) -> UndirectedGraph:
    """Uniform random spanning backbone plus m-(n-1) distinct extra edges."""
    if n < 2:
        raise InputError("need at least 2 vertices")
    max_edges = n * (n - 1) // 2
    m = int(min(max(m, n - 1), max_edges))
    hi = np.arange(1, n, dtype=np.int64)
    lo = (rng.random(n - 1) * hi).astype(np.int64)
    keys = set((lo * n + hi).tolist())
    extra = m - (n - 1)
    lo_parts = [lo]
    hi_parts = [hi]
    while extra > 0:
        cand = rng.integers(0, n, size=(int(extra * 1.4) + 8, 2))
        a = cand.min(axis=1)
        b = cand.max(axis=1)
        good = a != b
        a, b = a[good], b[good]
        ck = a * n + b
        ck, idx = np.unique(ck, return_index=True)
        fresh = [i for k, i in zip(ck.tolist(), idx.tolist()) if k not in keys]
        fresh = fresh[:extra]
        keys.update((a[i] * n + b[i] for i in fresh))
        lo_parts.append(a[fresh])
        hi_parts.append(b[fresh])
        extra -= len(fresh)
    u = np.concatenate(lo_parts)
    v = np.concatenate(hi_parts)
    return UndirectedGraph(n, u, v, rng.random(len(u)),
                           np.arange(len(u), dtype=np.int64))


def _bench(instances: Iterable[tuple[UndirectedGraph, int]], algorithms,
           stream: TextIO | None) -> list[str]:
    """Time each algorithm on each (graph, seed) instance; the names are
    checked before anything is written."""
    algorithms = list(algorithms)
    for name in algorithms:
        if name not in ALGORITHMS:
            raise InputError(f"unknown algorithm {name!r}")
    rows = [CSV_HEADER]
    if stream is not None:
        stream.write(CSV_HEADER + "\n")
    for graph, seed in instances:
        for name in algorithms:
            start = time.perf_counter_ns()
            forest = ALGORITHMS[name](graph, seed)
            elapsed = time.perf_counter_ns() - start
            rows.append(f"{name},{graph.n_vertices},{graph.n_edges},"
                        f"{seed},{elapsed},{forest.total_weight!r}")
            if stream is not None:
                stream.write(rows[-1] + "\n")
                stream.flush()
    return rows


def run_bench(sizes: Iterable[int], densities: Iterable[int],
              seeds: Iterable[int], algorithms: Iterable[str] = ALGORITHMS,
              stream: TextIO | None = None) -> list[str]:
    """Time each algorithm on each (m, density, seed) instance.

    density is the target edge/vertex ratio: a graph with m edges gets
    n = max(2, m // density) vertices.  Rows also land on `stream` as
    they are produced, so long runs show progress.
    """
    def instances():
        for m in sizes:
            for density in densities:
                n = max(2, int(m) // int(density))
                for seed in seeds:
                    rng = np.random.default_rng([int(seed), int(m), int(density)])
                    yield random_connected_graph(n, int(m), rng), int(seed)

    return _bench(instances(), algorithms, stream)


def run_bench_graph(graph: UndirectedGraph, seeds: Iterable[int],
                    algorithms: Iterable[str] = ALGORITHMS,
                    stream: TextIO | None = None) -> list[str]:
    """Bench a fixed graph, e.g. one read by :func:`graph.load_graph`."""
    return _bench(((graph, int(seed)) for seed in seeds), algorithms, stream)
