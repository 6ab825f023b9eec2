import io
import time

import numpy as np
import pytest

from umstparse.errors import InputError
from umstparse.graph import (
    UndirectedGraph,
    boruvka_step,
    connected_components,
    contract_graph,
    dump_graph,
    load_graph,
    min_incident_edges,
    simplify,
)

from oracles import bfs_components, random_graph


def make(n, rows):
    return UndirectedGraph.from_edges(n, rows)


def labels_to_sets(labels, n):
    comps = {}
    for v in range(n):
        comps.setdefault(int(labels[v]), set()).add(v)
    return sorted(comps.values(), key=min)


def dense_labels(components, n):
    """Labels dense from 0 in order of each component's smallest vertex."""
    lab = [0] * n
    for k, comp in enumerate(sorted(components, key=min)):
        for x in comp:
            lab[x] = k
    return lab


class TestConnectedComponents:
    def test_empty_subset_gives_singletons(self):
        g = make(3, [(0, 1, 1.0), (1, 2, 2.0)])
        lab = connected_components(g, [])
        assert lab.max() + 1 == 3
        assert labels_to_sets(lab, 3) == [{0}, {1}, {2}]

    def test_single_edge(self):
        g = make(3, [(0, 1, 1.0), (1, 2, 2.0)])
        lab = connected_components(g, [0])
        assert lab.max() + 1 == 2
        assert labels_to_sets(lab, 3) == [{0, 1}, {2}]

    def test_invalid_index_rejected(self):
        g = make(2, [(0, 1, 1.0)])
        with pytest.raises(InputError):
            connected_components(g, [5])

    def test_matches_bfs_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            m = int(rng.integers(0, max(1, n * (n - 1) // 2)))
            u, v, w = random_graph(rng, n, m, connected=False)
            g = UndirectedGraph(n, u, v, w, np.arange(len(u)))
            # the full edge set, a minimum-incident selection (the Boruvka
            # and F-heavy callers' input) and a random half
            for subset in (np.arange(g.n_edges), min_incident_edges(g)[0],
                           np.nonzero(rng.random(g.n_edges) < 0.5)[0]):
                expected = bfs_components(
                    n, zip(u[subset].tolist(), v[subset].tolist()))
                assert (connected_components(g, subset).tolist()
                        == dense_labels(expected, n))

    @pytest.mark.parametrize("shape", ["star", "descending_path",
                                       "random_path"])
    def test_adversarial_numbering_settles_fast(self, shape):
        # hooking to the last root written instead of the smallest would
        # need n - 1 rounds on the star whose centre is the largest vertex
        n = 20_000
        if shape == "star":
            u, v = np.arange(n - 1), np.full(n - 1, n - 1)
        elif shape == "descending_path":
            u, v = np.arange(n - 1, 0, -1), np.arange(n - 2, -1, -1)
        else:
            order = np.random.default_rng(3).permutation(n)
            u, v = order[:-1], order[1:]
        g = UndirectedGraph(n, u, v, np.ones(n - 1), np.arange(n - 1))
        start = time.perf_counter()
        lab = connected_components(g, np.arange(n - 1))
        assert time.perf_counter() - start < 0.5
        expected = bfs_components(n, zip(u.tolist(), v.tolist()))
        assert lab.tolist() == dense_labels(expected, n) == [0] * n

    def test_labels_dense_and_first_occurrence_ordered(self):
        g = make(5, [(3, 4, 1.0), (1, 2, 1.0)])
        lab = connected_components(g, [0, 1])
        # vertex 0 sees label 0, component {1,2} label 1, {3,4} label 2
        assert lab.tolist() == [0, 1, 1, 2, 2]


class TestContractGraph:
    def test_full_contraction_drops_self_edges(self):
        # edge 2 is outside the subset but ends inside its one component
        g = make(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
        res = contract_graph(g, [0, 1])
        assert res.n_vertices == 1
        assert res.n_edges == 0

    def test_keeps_repetitive_edges(self):
        # two triangles sharing no vertices, joined by two parallel-after-merge edges
        g = make(4, [(0, 1, 1.0), (2, 3, 1.0), (0, 2, 5.0), (1, 3, 6.0)])
        res = contract_graph(g, [0, 1])
        assert res.n_vertices == 2
        assert res.n_edges == 2  # both survive un-deduplicated
        assert sorted(res.original_id.tolist()) == [2, 3]

    def test_vertex_count_matches_component_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 30))
            m = int(rng.integers(1, n * (n - 1) // 2 + 1))
            u, v, w = random_graph(rng, n, m, connected=False)
            g = UndirectedGraph(n, u, v, w, np.arange(len(u)))
            subset = [i for i in range(g.n_edges) if rng.random() < 0.4]
            res = contract_graph(g, subset)
            expected = len(bfs_components(
                n, [(int(u[i]), int(v[i])) for i in subset]))
            assert res.n_vertices == expected

    def test_survivors_are_the_edges_across_components(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(2, 30))
            u, v, w = random_graph(rng, n, int(rng.integers(1, 3 * n)),
                                   connected=False)
            g = UndirectedGraph(n, u, v, w, np.arange(len(u)))
            subset = np.nonzero(rng.random(g.n_edges) < 0.4)[0]
            comp = {x: k for k, c in enumerate(bfs_components(
                n, zip(u[subset].tolist(), v[subset].tolist()))) for x in c}
            outside = sorted(set(range(g.n_edges)) - set(subset.tolist()))
            across = [i for i in outside if comp[int(u[i])] != comp[int(v[i])]]
            res = contract_graph(g, subset)
            assert sorted(res.original_id.tolist()) == across
            assert not (res.u == res.v).any()


class TestSimplify:
    def test_removes_self_edge(self):
        g = make(2, [(0, 0, 5.0), (0, 1, 1.0)])
        s = simplify(g)
        assert s.n_edges == 1
        assert s.original_id[0] == 1

    def test_parallel_edges_keep_minimum(self):
        g = make(2, [(0, 1, 7.0), (1, 0, 3.0)])
        s = simplify(g)
        assert s.n_edges == 1
        assert s.weight[0] == 3.0

    def test_parallel_tie_breaks_by_smallest_id(self):
        g = make(2, [(0, 1, 3.0, 9), (1, 0, 3.0, 4)])
        s = simplify(g)
        assert s.original_id[0] == 4

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        u, v, w = random_graph(rng, 10, 25, connected=False)
        # add noise: self loops and duplicates
        u = np.concatenate([u, [2, 5], u[:4]])
        v = np.concatenate([v, [2, 5], v[:4]])
        w = np.concatenate([w, [0.1, 0.2], w[:4] + 1.0])
        g = UndirectedGraph(10, u, v, w, np.arange(len(u)))
        s1 = simplify(g)
        s2 = simplify(s1)
        assert s1.n_edges == s2.n_edges
        assert np.array_equal(np.sort(s1.original_id), np.sort(s2.original_id))


class TestBoruvkaStep:
    def test_single_edge(self):
        g = make(2, [(0, 1, 2.0)])
        res, selected = boruvka_step(g)
        assert selected.tolist() == [0]
        assert res.n_vertices == 1
        assert res.n_edges == 0

    def test_path_forced_minima(self):
        g = make(3, [(0, 1, 1.0), (1, 2, 2.0)])
        res, selected = boruvka_step(g)
        assert selected.tolist() == [0, 1]
        assert res.n_vertices == 1

    def test_keeps_repetitive_edges_drops_self_edges(self):
        # the graph of TestContractGraph.test_keeps_repetitive_edges: the
        # two light edges are selected, the two heavy ones become parallel
        g = make(4, [(0, 1, 1.0), (2, 3, 1.0), (0, 2, 5.0), (1, 3, 6.0)])
        res, selected = boruvka_step(g)
        assert selected.tolist() == [0, 1]
        assert res.n_vertices == 2
        assert sorted(res.original_id.tolist()) == [2, 3]
        assert not (res.u == res.v).any()

    def test_rejects_self_edges(self):
        g = make(2, [(0, 0, 1.0), (0, 1, 1.0)])
        with pytest.raises(InputError):
            boruvka_step(g)

    def test_vertex_count_at_least_halves_when_connected(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(2, 60))
            m = int(rng.integers(n - 1, n * (n - 1) // 2 + 1))
            u, v, w = random_graph(rng, n, m)
            g = UndirectedGraph(n, u, v, w, np.arange(len(u)))
            res, selected = boruvka_step(g)
            assert len(selected) > 0
            assert res.n_vertices <= (n + 1) // 2

    def test_selected_edges_in_kruskal_forest(self):
        from umstparse.mst import kruskal_msf
        rng = np.random.default_rng(19)
        for _ in range(40):
            n = int(rng.integers(2, 50))
            m = int(rng.integers(n - 1, n * (n - 1) // 2 + 1))
            u, v, w = random_graph(rng, n, m)
            g = UndirectedGraph(n, u, v, w, np.arange(len(u)))
            _, selected = boruvka_step(g)
            forest = kruskal_msf(g)
            assert set(selected.tolist()) <= forest.edge_ids


class TestDumpFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(23)
        u, v, w = random_graph(rng, 8, 15)
        g = UndirectedGraph(8, u, v, w, np.arange(len(u)))
        buf = io.StringIO()
        dump_graph(g, buf)
        g2 = load_graph(buf.getvalue().splitlines(), n_vertices=8)
        assert g2.n_vertices == g.n_vertices
        assert np.array_equal(g2.u, g.u)
        assert np.array_equal(g2.v, g.v)
        assert np.array_equal(g2.weight, g.weight)
        assert np.array_equal(g2.original_id, g.original_id)

    def test_bad_line_rejected(self):
        with pytest.raises(InputError):
            load_graph(["0 1 0.5"])
