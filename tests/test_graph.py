import io
import time

import numpy as np
import pytest

from umstparse.errors import InputError
from umstparse.graph import (
    UndirectedGraph,
    _min_edge_step,
    boruvka_step,
    connected_components,
    contract_graph,
    dump_graph,
    load_graph,
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


class TestValidation:
    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(InputError, match="inconsistent lengths"):
            UndirectedGraph(3, [0, 1], [1], [1.0], [0])

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(InputError, match="negative vertex count"):
            UndirectedGraph(-1, [], [], [], [])


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
            # the full edge set, a minimum-edge selection and a random half
            for subset in (np.arange(g.n_edges), _min_edge_step(g)[1],
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

    def test_edgeless_graph_is_returned_itself(self):
        g = make(4, [])
        assert simplify(g) is g

    def test_self_loops_only_leave_no_edge_on_the_same_vertices(self):
        g = make(3, [(1, 1, 2.0), (2, 2, -1.0)])
        s = simplify(g)
        assert s.n_vertices == 3 and s.n_edges == 0
        for array in (s.u, s.v, s.original_id):
            assert array.dtype == np.int64 and len(array) == 0
        assert s.weight.dtype == np.float64 and len(s.weight) == 0

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
        res, selected, kept = boruvka_step(g)
        assert selected.tolist() == [0]
        assert kept.tolist() == []
        assert res.n_vertices == 1
        assert res.n_edges == 0

    def test_path_forced_minima(self):
        g = make(3, [(0, 1, 1.0), (1, 2, 2.0)])
        res, selected, _ = boruvka_step(g)
        assert selected.tolist() == [0, 1]
        assert res.n_vertices == 1

    def test_keeps_repetitive_edges_drops_self_edges(self):
        # the graph of TestContractGraph.test_keeps_repetitive_edges: the
        # two light edges are selected, the two heavy ones become parallel
        g = make(4, [(0, 1, 1.0), (2, 3, 1.0), (0, 2, 5.0), (1, 3, 6.0)])
        res, selected, kept = boruvka_step(g)
        assert selected.tolist() == [0, 1]
        assert kept.tolist() == [2, 3]
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
            res, selected, _ = boruvka_step(g)
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
            _, selected, _ = boruvka_step(g)
            forest = kruskal_msf(g)
            assert set(selected.tolist()) <= forest.edge_ids

    def test_positions_not_ids(self):
        # permuted, gapped ids and weights that tie: the step returns
        # positions in its input, and the contracted graph's edges are
        # the input's edges at the kept positions, in order
        from umstparse.mst import kruskal_msf
        rng = np.random.default_rng(29)
        for _ in range(40):
            n = int(rng.integers(2, 40))
            m = int(rng.integers(n - 1, min(4 * n, n * (n - 1) // 2) + 1))
            u, v, _ = random_graph(rng, n, m)
            w = rng.integers(0, 3, size=len(u)).astype(float)
            g = UndirectedGraph(n, u, v, w, rng.permutation(len(u)) * 5 + 3)
            res, selected, kept = boruvka_step(g)
            assert np.array_equal(selected, np.sort(selected))
            assert np.array_equal(kept, np.sort(kept))
            assert not set(selected.tolist()) & set(kept.tolist())
            assert (set(g.original_id[selected].tolist())
                    <= kruskal_msf(g).edge_ids)
            assert np.array_equal(res.original_id, g.original_id[kept])
            assert np.array_equal(res.weight, g.weight[kept])
            # every edge not kept lies inside one component of the selection
            comps = bfs_components(n, zip(u[selected].tolist(),
                                          v[selected].tolist()))
            label = {x: k for k, comp in enumerate(comps) for x in comp}
            inside = [label[a] == label[b] for a, b in zip(u.tolist(), v.tolist())]
            assert np.flatnonzero(~np.array(inside)).tolist() == kept.tolist()
            assert res.n_vertices == len(comps)


class TestMinEdgeStep:
    """The pointer-jumping labels of one minimum-edge selection."""

    @pytest.mark.parametrize("weights", ["distinct", "tied", "tied_repeated_ids"])
    def test_matches_bfs_of_each_vertexs_lightest_edge(self, weights):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(1, 40))
            m = int(rng.integers(0, 4 * n + 1))
            u = rng.integers(0, n, size=m)
            v = (u + rng.integers(1, max(n, 2), size=m)) % max(n, 1)
            keep = u != v
            u, v = u[keep], v[keep]
            w = (rng.random(len(u)) if weights == "distinct"
                 else rng.integers(0, 2, size=len(u)).astype(float))
            ids = (rng.permutation(len(u)) if weights != "tied_repeated_ids"
                   else rng.integers(0, 3, size=len(u)))
            g = UndirectedGraph(n, u, v, w, ids)
            labels, selected, wmin = _min_edge_step(g)
            # each vertex's lightest edge in (weight, id, position) order
            lightest = {}
            for i in range(len(u)):
                for x in (int(u[i]), int(v[i])):
                    key = (w[i], ids[i], i)
                    lightest[x] = min(lightest.get(x, key), key)
            picked = sorted({key[2] for key in lightest.values()})
            assert selected.tolist() == picked
            assert wmin.tolist() == [lightest[x][0] if x in lightest else np.inf
                                     for x in range(n)]
            comps = bfs_components(n, zip(u[selected].tolist(),
                                          v[selected].tolist()))
            assert len(selected) == n - len(comps)         # a forest
            assert labels_to_sets(labels, n) == sorted(comps, key=min)
            assert sorted(set(labels.tolist())) == list(range(len(comps)))

    @pytest.mark.parametrize("shape", ["star", "descending_path", "random_path"])
    def test_deep_pointer_chains_settle_fast(self, shape):
        # weights rise along the edge list: on the descending path every
        # vertex points to its larger neighbour, one chain 20,000 deep,
        # which each jump halves
        n = 20_000
        if shape == "star":
            u, v = np.arange(n - 1), np.full(n - 1, n - 1)
        elif shape == "descending_path":
            u, v = np.arange(n - 1, 0, -1), np.arange(n - 2, -1, -1)
        else:
            order = np.random.default_rng(3).permutation(n)
            u, v = order[:-1], order[1:]
        g = UndirectedGraph(n, u, v, np.arange(n - 1.0), np.arange(n - 1))
        start = time.perf_counter()
        labels, selected, _ = _min_edge_step(g)
        assert time.perf_counter() - start < 0.5
        assert labels.tolist() == [0] * n
        assert selected.tolist() == list(range(n - 1))


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

    def test_blank_and_comment_lines_skipped(self):
        """Blank and ``#`` lines hold no edge, and error line numbers still
        count them."""
        g = load_graph(["# u v weight original_id", "", "0 1 0.5 7",
                        "   ", "  # note", "1 2 0.25 3\n"])
        assert g.n_vertices == 3
        assert g.u.tolist() == [0, 1] and g.v.tolist() == [1, 2]
        assert g.weight.tolist() == [0.5, 0.25]
        assert g.original_id.tolist() == [7, 3]
        with pytest.raises(InputError, match="line 3:"):
            load_graph(["# header", "", "0 1 0.5"])
