"""Weighted undirected multigraph, connected components, contraction.

Edges carry an ``original_id`` that survives contraction, so any edge of a
derived graph can be traced back to the outermost input graph.  All weight
comparisons across the package break ties by smallest original_id, which
makes the minimum spanning forest unique and every algorithm deterministic.
That order picks each minimum exactly among parallel edges too, so the
spanning-forest engines need no clean-up but contraction's own: it drops
the self edges it creates and keeps parallel edges.

The edge store is a set of parallel numpy arrays; this keeps the per-step
cost of the spanning-forest algorithms dominated by vectorised array passes
rather than per-edge Python work.
"""

from __future__ import annotations

from typing import Iterable, Sequence, TextIO

import numpy as np

from .errors import InputError


class UndirectedGraph:
    """Undirected multigraph over vertices 0..n_vertices-1.

    Self edges and repetitive (parallel) edges are permitted.  Contraction
    leaves parallel edges but no self edges; :func:`simplify` drops both.
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

    def __repr__(self):
        return (f"UndirectedGraph(n_vertices={self.n_vertices}, "
                f"n_edges={self.n_edges})")


def connected_components(graph: UndirectedGraph, edge_subset) -> np.ndarray:
    """Component label per vertex, for the components induced by the given
    edge indices.

    Vertices not touched by any subset edge are singleton components.
    Labels are dense from 0 in order of each component's smallest vertex.
    """
    idx = np.asarray(edge_subset, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= graph.n_edges):
        raise InputError("edge index out of range")
    n = graph.n_vertices
    parent = np.arange(n)
    a, b = graph.u[idx], graph.v[idx]
    # hook and shortcut (Shiloach-Vishkin): each round hooks every root to
    # its smallest neighbouring root, then jumps pointers until every tree
    # is a star; a root is thus always its component's smallest vertex
    while True:
        a, b = parent[a], parent[b]
        cross = a != b
        a, b = a[cross], b[cross]
        if not a.size:
            break
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = parent[parent]
            if not np.count_nonzero(jumped != parent):
                break
            parent = jumped
    return (np.cumsum(parent == np.arange(n)) - 1)[parent]


def contract_graph(graph: UndirectedGraph, edge_subset) -> UndirectedGraph:
    """Collapse each component of the edge subset into one super-vertex.

    Every edge whose ends land in different super-vertices survives, with
    its ends mapped through the labeling.  The subset's own edges, and any
    other edge inside one component, become self edges and are dropped;
    repetitive edges are retained (use :func:`simplify` to drop them).
    """
    return _contract(graph, connected_components(graph, edge_subset))


def _contract(graph: UndirectedGraph, labels: np.ndarray) -> UndirectedGraph:
    """:func:`contract_graph` given the subset's component labels."""
    u, v = labels[graph.u], labels[graph.v]
    keep = u != v
    return UndirectedGraph(
        int(labels.max()) + 1 if len(labels) else 0,
        u[keep],
        v[keep],
        graph.weight[keep],
        graph.original_id[keep],
        _validate=False,
    )


def _edges_where(g: UndirectedGraph, keep: np.ndarray) -> UndirectedGraph:
    """The edges that ``keep`` selects (a mask or positions), over the
    same vertices.  The one edge-subset constructor: ``_contract``, which
    renumbers the vertices, builds its own."""
    return UndirectedGraph(g.n_vertices, g.u[keep], g.v[keep], g.weight[keep],
                           g.original_id[keep], _validate=False)


_NO_ID = np.iinfo(np.int64).max     # above every original_id


def _lightest(k: int, groups, weight: np.ndarray,
              oid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each of k groups' minimum weight (+inf if empty) and a mask of the
    edges that are some group's minimum in the (weight, original_id) order;
    edge i is in group ``g[i]`` for each array ``g`` of ``groups``."""
    wmin = np.full(k, np.inf)
    for g in groups:
        np.minimum.at(wmin, g, weight)
    ties = [weight == wmin[g] for g in groups]
    idmin = np.full(k, _NO_ID, dtype=np.int64)
    for g, tie in zip(groups, ties):
        np.minimum.at(idmin, g[tie], oid[tie])
    chosen = np.zeros(len(weight), dtype=bool)
    for g, tie in zip(groups, ties):
        chosen |= tie & (oid == idmin[g])
    return wmin, chosen


def simplify(graph: UndirectedGraph) -> UndirectedGraph:
    """Drop self edges and keep only the minimum edge per vertex pair.

    Ties between parallel edges of equal weight go to the smallest
    original_id.  Idempotent.  An edgeless graph comes back as it is; any
    other result is an ``_edges_where`` subset on the same vertices (with
    no edge when every edge is a self edge).
    """
    if graph.n_edges == 0:
        return graph
    loopless = np.nonzero(graph.u != graph.v)[0]
    if loopless.size == 0:
        return _edges_where(graph, loopless)
    lo = np.minimum(graph.u[loopless], graph.v[loopless])
    hi = np.maximum(graph.u[loopless], graph.v[loopless])
    # group parallel edges by pair key, then scatter-minimize (weight,
    # original_id) per group; cheaper than one big multi-key sort
    gid = np.unique(lo * graph.n_vertices + hi, return_inverse=True)[1]
    survivors = loopless[_lightest(int(gid.max()) + 1, [gid],
                                   graph.weight[loopless],
                                   graph.original_id[loopless])[1]]
    return _edges_where(graph, survivors)


def min_incident_edges(graph: UndirectedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Indices of each vertex's minimum incident edge, deduplicated, and
    each vertex's minimum incident weight.

    The comparison order is (weight, original_id); a vertex without any
    incident edge selects nothing and weighs +inf.
    """
    wmin, chosen = _lightest(graph.n_vertices, [graph.u, graph.v],
                             graph.weight, graph.original_id)
    return np.nonzero(chosen)[0], wmin


def boruvka_step(graph: UndirectedGraph) -> tuple[UndirectedGraph, np.ndarray]:
    """One round of minimum-edge selection followed by contraction.

    Selects each vertex's minimum incident edge and contracts the selected
    set.  Returns the contracted graph, which has no self edges but may
    hold repetitive edges, and the sorted original ids of the selected
    edges, all of which belong to the unique minimum spanning forest.

    The input graph must contain no self edges.
    """
    if graph.n_edges and (graph.u == graph.v).any():
        raise InputError("boruvka_step requires a graph without self edges")
    sel = min_incident_edges(graph)[0]
    return contract_graph(graph, sel), np.sort(graph.original_id[sel])


def dump_graph(graph: UndirectedGraph, stream: TextIO) -> None:
    """Write the debug text format: one `u v weight original_id` per line."""
    for i in range(graph.n_edges):
        stream.write(f"{graph.u[i]} {graph.v[i]} {float(graph.weight[i])!r} "
                     f"{graph.original_id[i]}\n")


def load_graph(lines: Iterable[str], n_vertices: int | None = None) -> UndirectedGraph:
    """Read the debug text format written by :func:`dump_graph`."""
    us, vs, ws, ids = [], [], [], []
    line_of_id = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise InputError(f"line {lineno}: expected 'u v weight original_id'")
        try:
            us.append(int(parts[0]))
            vs.append(int(parts[1]))
            ws.append(float(parts[2]))
            ids.append(int(parts[3]))
        except ValueError as exc:
            raise InputError(f"line {lineno}: non-numeric field in {line!r}") from exc
        first = line_of_id.setdefault(ids[-1], lineno)
        if first != lineno:
            raise InputError(f"line {lineno}: original_id {ids[-1]} "
                             f"already used on line {first}")
    if n_vertices is None:
        n_vertices = max(max(us, default=-1), max(vs, default=-1)) + 1
    return UndirectedGraph(n_vertices, us, vs, ws, ids)
