"""Weighted undirected multigraph, connected components, contraction.

Edges carry an ``original_id`` that survives contraction, so any edge of a
derived graph can be traced back to the outermost input graph.  All weight
comparisons across the package break ties by smallest original_id, which
makes the minimum spanning forest unique and every algorithm deterministic.

The edge store is a set of parallel numpy arrays; this keeps the per-step
cost of the spanning-forest algorithms dominated by vectorised array passes
rather than per-edge Python work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence, TextIO

import numpy as np

from .errors import InputError
from .unionfind import UnionFind


class UndirectedEdge(NamedTuple):
    u: int
    v: int
    weight: float
    original_id: int


class UndirectedGraph:
    """Undirected multigraph over vertices 0..n_vertices-1.

    Self edges and repetitive (parallel) edges are permitted; they appear
    transiently during contraction and are removed by :func:`simplify`.
    """

    __slots__ = ("n_vertices", "u", "v", "weight", "original_id")

    def __init__(self, n_vertices, u, v, weight, original_id, _validate=True):
        self.n_vertices = int(n_vertices)
        self.u = np.asarray(u, dtype=np.int64)
        self.v = np.asarray(v, dtype=np.int64)
        self.weight = np.asarray(weight, dtype=np.float64)
        self.original_id = np.asarray(original_id, dtype=np.int64)
        if _validate:
            self._validate()

    def _validate(self):
        m = len(self.u)
        if not (len(self.v) == len(self.weight) == len(self.original_id) == m):
            raise InputError("edge arrays have inconsistent lengths")
        if self.n_vertices < 0:
            raise InputError("negative vertex count")
        if m:
            ends = np.concatenate([self.u, self.v])
            if ends.min() < 0 or ends.max() >= self.n_vertices:
                raise InputError("edge endpoint out of range")
            if not np.isfinite(self.weight).all():
                raise InputError("edge weights must be finite")

    @classmethod
    def from_edges(cls, n_vertices: int,
                   edges: Iterable[Sequence]) -> "UndirectedGraph":
        """Build a graph from (u, v, weight) or (u, v, weight, original_id)
        tuples.  When ids are omitted, edges are numbered in input order."""
        rows = list(edges)
        u = [r[0] for r in rows]
        v = [r[1] for r in rows]
        w = [r[2] for r in rows]
        oid = [r[3] if len(r) > 3 else i for i, r in enumerate(rows)]
        return cls(n_vertices, u, v, w, oid)

    @property
    def n_edges(self) -> int:
        return len(self.u)

    def edge(self, i: int) -> UndirectedEdge:
        return UndirectedEdge(int(self.u[i]), int(self.v[i]),
                              float(self.weight[i]), int(self.original_id[i]))

    def __repr__(self):
        return (f"UndirectedGraph(n_vertices={self.n_vertices}, "
                f"n_edges={self.n_edges})")


@dataclass
class ComponentLabeling:
    """Dense component index per vertex, ordered by first vertex occurrence."""
    component_of: np.ndarray
    n_components: int


@dataclass
class ContractionResult:
    """A contracted graph plus the vertex-to-super-vertex map."""
    graph: UndirectedGraph
    vertex_map: ComponentLabeling


def _subset_indices(graph: UndirectedGraph, edge_subset) -> np.ndarray:
    idx = np.asarray(sorted(edge_subset) if isinstance(edge_subset, (set, frozenset))
                     else edge_subset, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= graph.n_edges):
        raise InputError("edge index out of range")
    return idx


def connected_components(graph: UndirectedGraph, edge_subset) -> ComponentLabeling:
    """Label the connected components induced by the given edge indices.

    Vertices not touched by any subset edge are singleton components.
    Labels are dense from 0 in order of each component's smallest vertex.
    """
    idx = _subset_indices(graph, edge_subset)
    n = graph.n_vertices
    uf = UnionFind(n)
    us = graph.u[idx].tolist()
    vs = graph.v[idx].tolist()
    union = uf.union
    for a, b in zip(us, vs):
        union(a, b)
    parent = np.asarray(uf.parent, dtype=np.int64)
    # flatten the (already shallow) union-find trees
    while True:
        nxt = parent[parent]
        if np.array_equal(nxt, parent):
            break
        parent = nxt
    roots, first = np.unique(parent, return_index=True)
    rank = np.empty(len(roots), dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(len(roots))
    labels = rank[np.searchsorted(roots, parent)]
    return ComponentLabeling(component_of=labels, n_components=len(roots))


def contract_graph(graph: UndirectedGraph, edge_subset) -> ContractionResult:
    """Collapse each component of the edge subset into one super-vertex.

    Every edge outside the subset survives with endpoints mapped through
    the labeling; self edges and repetitive edges are retained (use
    :func:`simplify` to drop them).
    """
    idx = _subset_indices(graph, edge_subset)
    labeling = connected_components(graph, idx)
    keep = np.ones(graph.n_edges, dtype=bool)
    keep[idx] = False
    labels = labeling.component_of
    contracted = UndirectedGraph(
        labeling.n_components,
        labels[graph.u[keep]],
        labels[graph.v[keep]],
        graph.weight[keep],
        graph.original_id[keep],
        _validate=False,
    )
    return ContractionResult(graph=contracted, vertex_map=labeling)


def simplify(graph: UndirectedGraph) -> UndirectedGraph:
    """Drop self edges and keep only the minimum edge per vertex pair.

    Ties between parallel edges of equal weight go to the smallest
    original_id.  Idempotent.
    """
    if graph.n_edges == 0:
        return graph
    loopless = np.nonzero(graph.u != graph.v)[0]
    if loopless.size == 0:
        return UndirectedGraph(graph.n_vertices, [], [], [], [], _validate=False)
    lo = np.minimum(graph.u[loopless], graph.v[loopless])
    hi = np.maximum(graph.u[loopless], graph.v[loopless])
    w = graph.weight[loopless]
    oid = graph.original_id[loopless]
    # group parallel edges by pair key, then scatter-minimize (weight,
    # original_id) per group; cheaper than one big multi-key sort
    gid = np.unique(lo * graph.n_vertices + hi, return_inverse=True)[1]
    k = int(gid.max()) + 1
    wmin = np.full(k, np.inf)
    np.minimum.at(wmin, gid, w)
    cand = w == wmin[gid]
    idmin = np.full(k, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(idmin, gid[cand], oid[cand])
    survivors = loopless[cand & (oid == idmin[gid])]
    return UndirectedGraph(
        graph.n_vertices,
        graph.u[survivors],
        graph.v[survivors],
        graph.weight[survivors],
        graph.original_id[survivors],
        _validate=False,
    )


def min_incident_edges(graph: UndirectedGraph) -> np.ndarray:
    """Indices of each vertex's minimum incident edge, deduplicated.

    The comparison order is (weight, original_id); vertices without any
    incident edge select nothing, which matches an unset minimum sentinel
    of +infinity.
    """
    m = graph.n_edges
    if m == 0:
        return np.empty(0, dtype=np.int64)
    n = graph.n_vertices
    u, v, w, oid = graph.u, graph.v, graph.weight, graph.original_id
    wmin = np.full(n, np.inf)
    np.minimum.at(wmin, u, w)
    np.minimum.at(wmin, v, w)
    cu = w == wmin[u]
    cv = w == wmin[v]
    idmin = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(idmin, u[cu], oid[cu])
    np.minimum.at(idmin, v[cv], oid[cv])
    sel = (cu & (oid == idmin[u])) | (cv & (oid == idmin[v]))
    return np.nonzero(sel)[0]


def boruvka_step(graph: UndirectedGraph) -> tuple[ContractionResult, np.ndarray]:
    """One round of minimum-edge selection followed by contraction.

    Selects each vertex's minimum incident edge, contracts the selected
    set, and simplifies the result.  Returns the contraction (with the
    simplified graph) and the sorted original ids of the selected edges,
    all of which belong to the unique minimum spanning forest.

    The input graph must contain no self edges.
    """
    if graph.n_edges and (graph.u == graph.v).any():
        raise InputError("boruvka_step requires a simplified graph (no self edges)")
    sel = min_incident_edges(graph)
    contraction = contract_graph(graph, sel)
    simplified = simplify(contraction.graph)
    result = ContractionResult(graph=simplified, vertex_map=contraction.vertex_map)
    return result, np.sort(graph.original_id[sel])


def dump_graph(graph: UndirectedGraph, stream: TextIO) -> None:
    """Write the debug text format: one `u v weight original_id` per line."""
    for i in range(graph.n_edges):
        stream.write(f"{graph.u[i]} {graph.v[i]} {float(graph.weight[i])!r} "
                     f"{graph.original_id[i]}\n")


def load_graph(lines: Iterable[str], n_vertices: int | None = None) -> UndirectedGraph:
    """Read the debug text format written by :func:`dump_graph`."""
    us, vs, ws, ids = [], [], [], []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise InputError(f"line {lineno}: expected 'u v weight original_id'")
        us.append(int(parts[0]))
        vs.append(int(parts[1]))
        ws.append(float(parts[2]))
        ids.append(int(parts[3]))
    if n_vertices is None:
        n_vertices = max(max(us, default=-1), max(vs, default=-1)) + 1
    return UndirectedGraph(n_vertices, us, vs, ws, ids)
