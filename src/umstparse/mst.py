"""Minimum spanning forest algorithms.

Three routes to the same forest:

* :func:`kruskal_msf` — sort-based reference implementation, used as the
  independent oracle in tests;
* :func:`boruvka_msf` — repeated minimum-edge-selection steps;
* :func:`randomized_msf` — recursive random-sampling algorithm whose
  expected running time is linear in the number of edges: two
  minimum-edge steps, a half-sampled subgraph, and filtering of edges
  that are too heavy against the sample's forest.

All three share the global (weight, original_id) tie-breaking order, so
the forest is unique and results can be compared as edge-id sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .graph import (
    UndirectedGraph,
    _contract,
    _edges_where,
    boruvka_step,
    connected_components,
    min_incident_edges,
)
# perfbench/tracer.py wraps this name on this module, so it is imported
# here although no engine simplifies: contraction drops its self edges
from .graph import simplify  # noqa: F401
from .unionfind import UnionFind

# Graphs with at most this many edges skip the recursion for Kruskal's
# algorithm (see randomized_msf).  This is a cap, not the speed crossover:
# tools/msf_crossover.py (BENCH_crossover.json, three seeded graphs per
# cell) finds Kruskal faster up to 1,024 edges on bench graphs and the
# recursion faster from 4,096 (at 2,048, at density 2 only); on parse
# graphs Kruskal wins every bin below 1,024 edges, and the bins above are
# unresolved.
# 44 edges covers nine in ten pruned parse graphs of the bundled dev
# sentences, while the unpruned parse graph of any sentence of 9 or more
# tokens (45+ edges) still runs the sampling recursion, as the benchmark's
# tracer self-test expects.
_BASE_EDGES = 44


@dataclass(frozen=True)
class SpanningForest:
    """Original-graph edge ids of a minimum spanning forest.

    ``positions`` holds, read-only and sorted, where the forest's edges
    sit in the graph an engine computed it on, so that
    ``inference.direct_tree`` can walk them without looking the ids up.
    A forest built from ids alone has none.  It is neither compared nor
    hashed: a forest is its ids, however it was built.
    """
    edge_ids: frozenset
    total_weight: float
    positions: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def n_edges(self) -> int:
        return len(self.edge_ids)


class RandomSource:
    """Seedable coin-flip stream; one seed fixes the whole algorithm trace.

    ``RandomSource(seed)`` flips from ``PCG64(seed)``; with keys, from the
    first word of ``SeedSequence([seed, *keys])``.  The generator is built
    on the first flip, so a run that flips no coin (a graph small enough for
    the Kruskal base case) costs nothing.
    """

    def __init__(self, seed: int, *keys: int):
        self._key = [int(seed), *(int(k) for k in keys)]
        if min(self._key) < 0:      # numpy would raise only at the first flip
            raise ValueError("seed and keys must be non-negative")
        self._seed = None if keys else self._key[0]
        self._gen = None

    @property
    def seed(self) -> int:
        if self._seed is None:
            ss = np.random.SeedSequence(self._key)
            self._seed = int(ss.generate_state(1, np.uint64)[0])
        return self._seed

    def coin_flips(self, k: int) -> np.ndarray:
        """k fair coin flips; True means the edge is sampled."""
        if self._gen is None:
            self._gen = np.random.Generator(np.random.PCG64(self.seed))
        return self._gen.random(k) < 0.5


def _forest_of(graph: UndirectedGraph, ids: np.ndarray) -> SpanningForest:
    return _forest_at(graph, np.nonzero(np.isin(graph.original_id, ids))[0])


def _forest_at(graph: UndirectedGraph, positions: np.ndarray) -> SpanningForest:
    """The forest of the edges at these positions, which it keeps; the
    weight is summed in position order."""
    positions = np.sort(positions)
    positions.flags.writeable = False
    return SpanningForest(frozenset(graph.original_id[positions].tolist()),
                          float(graph.weight[positions].sum()), positions)


def _kruskal_positions(graph: UndirectedGraph) -> np.ndarray:
    """Positions of the forest's edges, by sorted edge insertion."""
    order = np.lexsort((graph.original_id, graph.weight))
    us = graph.u[order].tolist()
    vs = graph.v[order].tolist()
    uf = UnionFind(graph.n_vertices)
    chosen = []
    for at, a, b in zip(order.tolist(), us, vs):
        if uf.union(a, b):
            chosen.append(at)
            if uf.n_sets == 1:
                break
    return np.asarray(chosen, dtype=np.int64)


def kruskal_msf(graph: UndirectedGraph) -> SpanningForest:
    """Minimum spanning forest by sorted edge insertion (the test oracle,
    and the base case of :func:`randomized_msf`)."""
    return _forest_at(graph, _kruskal_positions(graph))


def boruvka_msf(graph: UndirectedGraph) -> SpanningForest:
    """Minimum spanning forest by repeated minimum-edge contraction."""
    g, ids = _edges_where(graph, graph.u != graph.v), [np.empty(0, np.int64)]
    while g.n_edges:
        g, selected = boruvka_step(g)
        ids.append(selected)
    return _forest_of(graph, np.concatenate(ids))


def _f_heavy_mask(graph: UndirectedGraph, forest_mask: np.ndarray) -> np.ndarray:
    """Boolean mask over graph edges: heavier than the forest path maximum.

    Forest edges themselves are never marked; edges across distinct forest
    components are treated as having an infinite path maximum.

    The path maxima are read from a table of the forest's Borůvka tree
    (King, Algorithmica 1997).  The forest is contracted by minimum-edge
    rounds, each super-vertex weighing its lightest remaining forest edge
    (+inf once it is a whole tree).  Row r of ``tops`` holds, per vertex,
    the largest weight of the super-vertices that held it in rounds 1..r,
    after a row of -inf and before a row of +inf (ends in different trees).
    Labels nest, so an edge's ends meet after the R rounds in which they
    are held apart; its path maximum is the larger of their row-R entries.

    Weights are compared alone, not in (weight, original_id) order, so an
    edge that ties its path maximum is kept.  That is safe: an edge
    heavier by weight is heavier in that order too, and the recursion
    settles the kept ties by (weight, id).  But KKT's bound on the kept
    edges assumes distinct weights, and parse graphs tie often (their
    weights are sums over one hashed weight table), so on them the
    filter may keep more than the bound counts.
    """
    forest = _edges_where(graph, forest_mask)
    helds = [np.arange(graph.n_vertices)]   # per round, each vertex's holder
    tops = [np.full(graph.n_vertices, -np.inf)]
    while forest.n_edges:
        sel, weight = min_incident_edges(forest)
        tops.append(np.maximum(tops[-1], weight[helds[-1]]))
        labels = connected_components(forest, sel)
        forest = _contract(forest, labels)
        helds.append(labels[helds[-1]])
    tops = np.stack([*tops, np.full(graph.n_vertices, np.inf)])
    u, v = graph.u, graph.v
    meet = sum(held[u] != held[v] for held in helds)
    pmax = np.maximum(tops[meet, u], tops[meet, v])
    return ~forest_mask & (graph.weight > pmax)


def f_heavy_edges(graph: UndirectedGraph, forest: SpanningForest) -> set:
    """Original ids of edges strictly heavier than their forest path maximum.

    Edges whose endpoints lie in different forest components are never
    reported, nor are the forest edges themselves.
    """
    ids = np.asarray(sorted(forest.edge_ids), dtype=np.int64)
    forest_mask = np.isin(graph.original_id, ids)
    if int(forest_mask.sum()) != len(ids):
        raise InputError("forest contains edges not present in the graph")
    heavy = _f_heavy_mask(graph, forest_mask)
    return {int(i) for i in graph.original_id[heavy]}


def _randomized_rec(g: UndirectedGraph, rng: RandomSource) -> np.ndarray:
    """Original ids of the forest edges of g, which has no self edges."""
    if g.n_edges <= _BASE_EDGES:
        return g.original_id[_kruskal_positions(g)]
    gc, ids = boruvka_step(g)
    if gc.n_edges:
        gc, more = boruvka_step(gc)
        ids = np.concatenate([ids, more])
    if gc.n_edges == 0:
        return ids
    # the sample, like the filtered rest, keeps gc's vertices (only
    # contraction renumbers); a vertex with no sampled edge is a singleton
    sample = _edges_where(gc, rng.coin_flips(gc.n_edges))
    forest_mask = np.isin(gc.original_id, _randomized_rec(sample, rng))
    keep = ~_f_heavy_mask(gc, forest_mask)
    return np.concatenate([ids, _randomized_rec(_edges_where(gc, keep), rng)])


def randomized_msf(graph: UndirectedGraph, rng: RandomSource) -> SpanningForest:
    """Exact minimum spanning forest via random sampling and filtering.

    Per recursion level: two minimum-edge contraction steps (their selected
    edges are forest edges by the cut property), a fair per-edge sample
    whose recursive forest is used to discard edges that cannot be in the
    forest (cycle property), and a recursive call on the filtered rest.
    The same seed always yields the same trace and the same forest.

    A graph of at most ``_BASE_EDGES`` edges, the input or any recursive
    subproblem, is solved by Kruskal's algorithm instead: on such a small
    graph its Python loop is faster than a level's fixed numpy cost, and a
    constant-size base case keeps the expected linear bound.
    """
    if graph.n_edges <= _BASE_EDGES:
        return kruskal_msf(graph)
    return _forest_of(graph, _randomized_rec(
        _edges_where(graph, graph.u != graph.v), rng))
