import math

import numpy as np
import pytest

from umstparse import mst
from umstparse.bench import ALGORITHMS, random_connected_graph
from umstparse.errors import InputError
from umstparse.graph import UndirectedGraph
from umstparse.mst import (
    RandomSource,
    SpanningForest,
    boruvka_msf,
    f_heavy_edges,
    kruskal_msf,
    randomized_msf,
)
from umstparse.unionfind import UnionFind

from oracles import (
    bfs_components,
    exhaustive_min_spanning_weight,
    forest_path_max,
    random_graph,
)


def graph_of(n, u, v, w):
    return UndirectedGraph(n, u, v, w, np.arange(len(u)))


def triangle():
    return UndirectedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])


class TestKruskal:
    def test_triangle(self):
        forest = kruskal_msf(triangle())
        assert forest.edge_ids == {0, 1}
        assert forest.total_weight == 3.0

    def test_empty(self):
        g = UndirectedGraph.from_edges(4, [])
        forest = kruskal_msf(g)
        assert forest.edge_ids == frozenset()
        assert forest.total_weight == 0.0

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(n - 1, n * (n - 1) // 2 + 1))
            u, v, w = random_graph(rng, n, m)
            g = graph_of(n, u, v, w)
            forest = kruskal_msf(g)
            best = exhaustive_min_spanning_weight(
                n, zip(u.tolist(), v.tolist(), w.tolist()))
            assert abs(forest.total_weight - best) < 1e-9

    def test_forest_size_on_disconnected_graph(self):
        rng = np.random.default_rng(103)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            m = int(rng.integers(0, n))
            u, v, w = random_graph(rng, n, m, connected=False)
            g = graph_of(n, u, v, w)
            from oracles import bfs_components
            c = len(bfs_components(n, zip(u.tolist(), v.tolist())))
            assert kruskal_msf(g).n_edges == n - c


class TestBoruvka:
    def test_single_vertex(self):
        g = UndirectedGraph.from_edges(1, [])
        assert boruvka_msf(g).edge_ids == frozenset()

    def test_triangle_matches_kruskal(self):
        assert boruvka_msf(triangle()).edge_ids == kruskal_msf(triangle()).edge_ids

    def test_random_graphs_match_kruskal(self):
        rng = np.random.default_rng(107)
        for _ in range(80):
            n = int(rng.integers(2, 120))
            m = int(rng.integers(n - 1, min(4 * n, n * (n - 1) // 2) + 1))
            u, v, w = random_graph(rng, n, m)
            g = graph_of(n, u, v, w)
            assert boruvka_msf(g).edge_ids == kruskal_msf(g).edge_ids

    def test_disconnected(self):
        g = UndirectedGraph.from_edges(
            5, [(0, 1, 1.0), (1, 2, 4.0), (0, 2, 2.0), (3, 4, 1.0)])
        forest = boruvka_msf(g)
        assert forest.edge_ids == {0, 2, 3}

    def test_equal_weights_resolved_by_id(self):
        g = UndirectedGraph.from_edges(
            3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        assert boruvka_msf(g).edge_ids == {0, 1}
        assert kruskal_msf(g).edge_ids == {0, 1}


class TestFHeavy:
    def test_definition_on_path(self):
        g = UndirectedGraph.from_edges(
            3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 5.0)])
        forest = SpanningForest(edge_ids=frozenset({0, 1}), total_weight=3.0)
        assert f_heavy_edges(g, forest) == {2}

    def test_boundary_not_strict(self):
        g = UndirectedGraph.from_edges(
            3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 2.0)])
        forest = SpanningForest(edge_ids=frozenset({0, 1}), total_weight=3.0)
        assert f_heavy_edges(g, forest) == set()

    def test_cross_component_edges_are_light(self):
        g = UndirectedGraph.from_edges(
            4, [(0, 1, 1.0), (2, 3, 1.0), (1, 2, 100.0)])
        forest = SpanningForest(edge_ids=frozenset({0, 1}), total_weight=2.0)
        assert f_heavy_edges(g, forest) == set()

    def test_foreign_forest_edge_rejected(self):
        g = triangle()
        forest = SpanningForest(edge_ids=frozenset({0, 99}), total_weight=0.0)
        with pytest.raises(InputError):
            f_heavy_edges(g, forest)

    def test_matches_bfs_path_max_oracle(self):
        def check(g, forest_ids):
            u, v, w = g.u.tolist(), g.v.tolist(), g.weight.tolist()
            fedges = [(u[i], v[i], w[i]) for i in forest_ids]
            expected = set()
            for i in range(g.n_edges):
                if i in forest_ids:
                    continue
                pmax = forest_path_max(g.n_vertices, fedges, u[i], v[i])
                if pmax is not None and w[i] > pmax:
                    expected.add(i)
            forest = SpanningForest(edge_ids=frozenset(forest_ids),
                                    total_weight=0.0)
            assert f_heavy_edges(g, forest) == expected

        rng = np.random.default_rng(109)
        for _ in range(40):
            n = int(rng.integers(2, 40))
            m = int(rng.integers(n - 1, min(5 * n, n * (n - 1) // 2) + 1))
            u, v, w = random_graph(rng, n, m)
            g = graph_of(n, u, v, w)
            check(g, kruskal_msf(g).edge_ids)
        # multigraphs with weights in {0, 1, 2} (heavy ties), parallel and
        # self edges, and forests that are neither minimum nor spanning: a
        # random union-find subset, stopped early, so several trees remain
        for _ in range(300):
            n = int(rng.integers(1, 30))
            m = int(rng.integers(0, 4 * n + 1))
            u = rng.integers(0, n, size=m)
            v = rng.integers(0, n, size=m)
            w = rng.integers(0, 3, size=m).astype(float)
            g = graph_of(n, u, v, w)
            uf = UnionFind(n)
            size = int(rng.integers(0, n))
            forest_ids = set()
            for i in rng.permutation(m).tolist():
                if len(forest_ids) == size:
                    break
                if rng.random() < 0.7 and uf.union(int(u[i]), int(v[i])):
                    forest_ids.add(i)
            check(g, forest_ids)

class TestRandomized:
    def test_empty_graph(self):
        g = UndirectedGraph.from_edges(3, [])
        forest = randomized_msf(g, RandomSource(0))
        assert forest.edge_ids == frozenset()

    def test_triangle_any_seed(self):
        for seed in range(10):
            forest = randomized_msf(triangle(), RandomSource(seed))
            assert forest.edge_ids == {0, 1}

    def test_matches_kruskal_over_seeds(self):
        rng = np.random.default_rng(113)
        for _ in range(40):
            n = int(rng.integers(2, 150))
            m = int(rng.integers(n - 1, min(5 * n, n * (n - 1) // 2) + 1))
            u, v, w = random_graph(rng, n, m)
            g = graph_of(n, u, v, w)
            want = kruskal_msf(g).edge_ids
            for seed in (1, 2, 3):
                assert randomized_msf(g, RandomSource(seed)).edge_ids == want

    def test_reproducible_per_seed(self):
        rng = np.random.default_rng(127)
        u, v, w = random_graph(rng, 60, 200)
        g = graph_of(60, u, v, w)
        a = randomized_msf(g, RandomSource(42))
        b = randomized_msf(g, RandomSource(42))
        assert a.edge_ids == b.edge_ids
        assert a.total_weight == b.total_weight

    def test_disconnected_forest_sizes(self):
        rng = np.random.default_rng(131)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            m = int(rng.integers(0, 2 * n))
            u, v, w = random_graph(rng, n, m, connected=False)
            g = graph_of(n, u, v, w)
            from oracles import bfs_components
            c = len(bfs_components(n, zip(u.tolist(), v.tolist())))
            forest = randomized_msf(g, RandomSource(5))
            assert forest.n_edges == n - c
            assert forest.edge_ids == kruskal_msf(g).edge_ids


def assert_positions_are_kruskals(g, forest):
    """The forest's positions are sorted, read-only, and exactly those of
    Kruskal's forest of g; its ids and total weight are Kruskal's."""
    want = kruskal_msf(g)
    at = forest.positions
    assert not at.flags.writeable
    assert np.array_equal(at, np.sort(at))
    assert at.tolist() == want.positions.tolist()
    assert forest.edge_ids == want.edge_ids == set(g.original_id[at].tolist())
    assert forest.total_weight == want.total_weight


class TestForestPositions:
    """Each engine keeps the positions of its forest's edges; they are
    not part of the forest's value."""

    @pytest.mark.parametrize("engine", ["kruskal", "boruvka", "randomized"])
    def test_positions_hold_the_forests_edges(self, engine):
        rng = np.random.default_rng(137)
        for m in (20, 40, 300, 1000):
            n = max(m // 4, 2)
            u, v, w = random_graph(rng, n, m, connected=m != 300)
            ids = rng.permutation(len(u)) * 3 + 7      # ids are not positions
            g = UndirectedGraph(n, u, v, w, ids)
            forest = ALGORITHMS[engine](g, 5)
            assert_positions_are_kruskals(g, forest)

    @pytest.mark.parametrize("engine", ["boruvka", "randomized"])
    def test_positions_through_every_level(self, no_base_case, engine):
        # integer weights tie, so ids settle the order; permuted, gapped
        # ids, so a position read as an id (or one mapped back through
        # the wrong level's selection) at any depth names another edge
        rng = np.random.default_rng(149)
        for m in (20, 60, 300, 1500):
            n = max(m // 5, 2)
            u, v, _ = random_graph(rng, n, m, connected=m != 300)
            w = rng.integers(0, 4, size=len(u)).astype(float)
            g = UndirectedGraph(n, u, v, w, rng.permutation(len(u)) * 7 + 11)
            for seed in (1, 2, 3):
                assert_positions_are_kruskals(g, ALGORITHMS[engine](g, seed))
        assert no_base_case

    def test_positions_are_not_compared_or_hashed(self):
        rng = np.random.default_rng(139)
        u, v, w = random_graph(rng, 30, 100)
        engine = randomized_msf(graph_of(30, u, v, w), RandomSource(2))
        plain = SpanningForest(edge_ids=engine.edge_ids,
                               total_weight=engine.total_weight)
        assert engine.positions is not None and plain.positions is None
        assert engine == plain and hash(engine) == hash(plain)
        assert "positions" not in repr(engine)
        assert isinstance(engine.edge_ids, frozenset)


class TestRepeatedIds:
    """A graph may repeat an original id.  Each engine then returns the
    forest of the (weight, original_id, position) order, the order of
    Kruskal's stable sort; ``edge_ids`` collapses the repeated ids, its
    positions do not."""

    @pytest.mark.parametrize("recursion", ["base_case", "no_base_case"])
    @pytest.mark.parametrize("engine", ["kruskal", "boruvka", "randomized"])
    def test_each_id_twice(self, request, engine, recursion):
        if recursion == "no_base_case":
            request.getfixturevalue("no_base_case")
        g = random_connected_graph(30, 200, np.random.default_rng(5))
        want = kruskal_msf(g)
        twice = UndirectedGraph(g.n_vertices, g.u, g.v, g.weight,
                                g.original_id // 2)
        for seed in (1, 2, 3):
            forest = ALGORITHMS[engine](twice, seed)
            assert len(forest.positions) == g.n_vertices - 1 == 29
            assert forest.positions.tolist() == want.positions.tolist()
            assert forest.total_weight == want.total_weight
            assert forest.edge_ids == set((g.original_id[want.positions]
                                           // 2).tolist())

    @pytest.mark.parametrize("recursion", ["base_case", "no_base_case"])
    def test_repeated_ids_with_tied_weights(self, request, recursion):
        # weights in {0, 1, 2} and ids in {0, ..., 4}: many edges share
        # both, so only their positions order them
        if recursion == "no_base_case":
            request.getfixturevalue("no_base_case")
        rng = np.random.default_rng(157)
        for _ in range(60):
            n = int(rng.integers(2, 60))
            m = int(rng.integers(n - 1, min(5 * n, n * (n - 1) // 2) + 1))
            u, v, _ = random_graph(rng, n, m)
            g = UndirectedGraph(n, u, v,
                                rng.integers(0, 3, size=len(u)).astype(float),
                                rng.integers(0, 5, size=len(u)))
            want = kruskal_msf(g)
            assert len(want.positions) == n - 1
            assert boruvka_msf(g).positions.tolist() == want.positions.tolist()
            for seed in (1, 2):
                forest = randomized_msf(g, RandomSource(seed))
                assert forest.positions.tolist() == want.positions.tolist()


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(9).coin_flips(100)
        b = RandomSource(9).coin_flips(100)
        assert np.array_equal(a, b)

    def test_derive_is_stable_and_keyed(self):
        a = RandomSource(7, 3).coin_flips(50)
        b = RandomSource(7, 3).coin_flips(50)
        c = RandomSource(7, 4).coin_flips(50)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


@pytest.fixture
def boruvka_steps(monkeypatch):
    """Counts the recursion's minimum-edge steps."""
    calls = []
    real = mst.boruvka_step

    def counting(graph):
        calls.append(graph.n_edges)
        return real(graph)

    monkeypatch.setattr(mst, "boruvka_step", counting)
    return calls


@pytest.fixture
def no_base_case(monkeypatch, boruvka_steps):
    """Every graph with an edge runs the sampling recursion."""
    monkeypatch.setattr(mst, "_BASE_EDGES", 0)
    return boruvka_steps


def assert_all_engines_agree(g, seeds=(1, 2, 3)):
    want = kruskal_msf(g)
    assert boruvka_msf(g) == want
    for seed in seeds:
        assert randomized_msf(g, RandomSource(seed)) == want
    return want


class TestRecursionWithoutBaseCase:
    """The recursion below the Kruskal base case, against the oracles."""

    def test_random_graphs(self, no_base_case):
        rng = np.random.default_rng(211)
        for _ in range(60):
            n = int(rng.integers(2, 90))
            m = int(rng.integers(n - 1, min(6 * n, n * (n - 1) // 2) + 1))
            u, v, w = random_graph(rng, n, m)
            assert_all_engines_agree(graph_of(n, u, v, w))
        assert no_base_case              # the recursion did run

    def test_exhaustive_enumeration(self, no_base_case):
        rng = np.random.default_rng(223)
        for _ in range(80):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(n - 1, n * (n - 1) // 2 + 1))
            u, v, w = random_graph(rng, n, m)
            best = exhaustive_min_spanning_weight(
                n, zip(u.tolist(), v.tolist(), w.tolist()))
            for seed in (1, 2, 3):
                forest = randomized_msf(graph_of(n, u, v, w), RandomSource(seed))
                assert forest.n_edges == n - 1
                assert abs(forest.total_weight - best) < 1e-9

    def test_heavy_weight_ties(self, no_base_case):
        rng = np.random.default_rng(227)
        for _ in range(40):
            n = int(rng.integers(2, 60))
            m = int(rng.integers(n - 1, min(5 * n, n * (n - 1) // 2) + 1))
            u, v, _ = random_graph(rng, n, m)
            w = rng.integers(0, 3, size=len(u)).astype(float)
            ids = rng.permutation(len(u))           # ties go to the smallest id
            assert_all_engines_agree(UndirectedGraph(n, u, v, w, ids))

    def test_duplicate_edges_and_self_loops(self, no_base_case):
        rng = np.random.default_rng(229)
        for _ in range(40):
            n = int(rng.integers(2, 40))
            m = int(rng.integers(1, 6 * n))
            u = rng.integers(0, n, size=m)
            v = np.where(rng.random(m) < 0.15, u, rng.integers(0, n, size=m))
            w = rng.integers(0, 4, size=m).astype(float)
            g = graph_of(n, u, v, w)
            want = assert_all_engines_agree(g)
            comps = len(bfs_components(n, zip(u.tolist(), v.tolist())))
            assert want.n_edges == n - comps
            assert all(u[i] != v[i] for i in want.edge_ids)

    @pytest.mark.parametrize("m", [60, 400, 3000])
    def test_bench_graph_with_copies_and_self_loops(self, no_base_case, m):
        # each edge twice more: once heavier, once tied with a larger id;
        # plus self loops lighter than any edge, all in shuffled positions
        rng = np.random.default_rng(m)
        g = random_connected_graph(m // 6, m, rng)
        loops = rng.integers(0, g.n_vertices, size=m // 10)
        order = rng.permutation(3 * g.n_edges + len(loops))
        dup = UndirectedGraph(
            g.n_vertices,
            np.concatenate([g.u, g.u, g.v, loops])[order],
            np.concatenate([g.v, g.v, g.u, loops])[order],
            np.concatenate([g.weight, g.weight + 0.5, g.weight,
                            np.full(len(loops), -1.0)])[order],
            np.arange(len(order))[order])
        # the weight is summed in position order, so only the ids compare
        want = assert_all_engines_agree(dup)
        assert want.edge_ids == kruskal_msf(g).edge_ids

    def test_samples_with_isolated_vertices(self, no_base_case, monkeypatch):
        # sparse components spread over a vertex range of which 1,000 ids
        # carry no edge; every sample keeps its parent's vertices, so its
        # vertices without a sampled edge stay as singletons
        rng = np.random.default_rng(239)
        parts = [random_connected_graph(k, int(1.5 * k), rng)
                 for k in (40, 60, 90, 120, 150)]
        used = sum(p.n_vertices for p in parts)
        ids = rng.permutation(used + 1000)[:used]
        offsets = np.cumsum([0] + [p.n_vertices for p in parts])
        g = UndirectedGraph(
            used + 1000,
            np.concatenate([ids[p.u + at] for p, at in zip(parts, offsets)]),
            np.concatenate([ids[p.v + at] for p, at in zip(parts, offsets)]),
            np.concatenate([p.weight for p in parts]),
            np.arange(sum(p.n_edges for p in parts)))
        isolated = []
        real = mst._randomized_rec

        def recording(graph, rng):
            ends = np.concatenate([graph.u, graph.v])
            isolated.append(graph.n_vertices - len(np.unique(ends)))
            return real(graph, rng)

        monkeypatch.setattr(mst, "_randomized_rec", recording)
        want = assert_all_engines_agree(g, seeds=(1, 2, 3, 4, 5))
        assert want.n_edges == used - len(parts)
        # the unused ids reach every subproblem, the samples included
        assert len(isolated) > 5 and min(isolated) >= 1000

    def test_disconnected_graphs(self, no_base_case):
        rng = np.random.default_rng(233)
        for _ in range(40):
            n = int(rng.integers(2, 80))
            m = int(rng.integers(0, 3 * n))
            u, v, w = random_graph(rng, n, m, connected=False)
            want = assert_all_engines_agree(graph_of(n, u, v, w))
            comps = len(bfs_components(n, zip(u.tolist(), v.tolist())))
            assert want.n_edges == n - comps


class TestBaseCase:
    """Graphs at the real ``_BASE_EDGES``: at most that many edges go to
    Kruskal, one more edge runs the recursion; both give Kruskal's forest."""

    @pytest.mark.parametrize("extra, recursed", [(0, False), (1, True)])
    def test_boundary(self, boruvka_steps, extra, recursed):
        m = mst._BASE_EDGES + extra
        n = m // 4
        u, v, w = random_graph(np.random.default_rng(239), n, m)
        g = graph_of(n, u, v, w)
        assert g.n_edges == m
        want = kruskal_msf(g)
        for seed in (1, 2):
            assert randomized_msf(g, RandomSource(seed)) == want
        assert bool(boruvka_steps) == recursed

    def test_total_weight_sums_in_position_order(self):
        rng = np.random.default_rng(241)
        u, v, _ = random_graph(rng, 30, 90)
        w = rng.normal(size=len(u)) * 1e6
        g = graph_of(30, u, v, w)
        forest = kruskal_msf(g)
        in_forest = np.isin(g.original_id, sorted(forest.edge_ids))
        assert forest.total_weight == float(g.weight[in_forest].sum())
        assert randomized_msf(g, RandomSource(3)).total_weight == forest.total_weight


# Each tail event below has probability at most _DELTA / k² for its count
# k; summed over every k they stay under 1.65 * _DELTA.
_DELTA = 1e-9


def _heads_excess(k):
    """a(k): the heads of k fair flips exceed k/2 + a(k) with probability
    at most _DELTA / k² (Hoeffding: exp(-2 a² / k))."""
    return math.sqrt(k * math.log(k * k / _DELTA) / 2)


def _flips_excess(k):
    """b(k): the k-th head of fair flips comes after flip 2k + b(k) with
    probability at most _DELTA / k², since that means fewer than k heads
    in 2k + b flips (Hoeffding: exp(-b² / (2 (2k + b)))); b solves
    b² = 2 L (2k + b) for L = ln(k² / _DELTA)."""
    lg = math.log(k * k / _DELTA)
    return lg + math.sqrt(lg * lg + 4 * lg * k)


def _edge_bound(m, n):
    """T*/m, T* the fixed point of T = 2 (m + n + a(T) + b(n/2)): every T
    with T <= m + T/2 + a(T) + n + b(n/2) is at most T* (TestLinearWork)."""
    t = 2.0 * (m + n)
    for _ in range(50):
        t = 2.0 * (m + n + _heads_excess(t) + _flips_excess(n / 2))
    return t / m


class TestLinearWork:
    """The recursion's work is linear in m, counted in edges, not timed.

    Karger, Klein and Tarjan (JACM 1995) bound the edges over all the
    subproblems of the sampling recursion by O(m), with probability
    exponentially close to 1.  Their argument, for ``_randomized_rec`` on
    a graph of m edges with distinct weights and n vertices:

    * Every call but the first is the sample or the filtered rest of a
      call that flipped coins, so the edges over all calls are
      T = m + S + X: S the sampled edges, X the edges the filter keeps.
    * S counts the heads of C <= T fair, independent flips, one per edge
      of each contracted graph: S <= C/2 + a(C) (``_heads_excess``).
    * KKT's F-light lemma.  Read a contracted graph's edges by weight:
      an edge is kept exactly when its ends are apart in the forest of
      the lighter sampled edges, and then, if its coin shows heads, it
      joins that forest.  So the heads among the kept edges' coins number
      less than N_c, the vertices that carry an edge, and the kept edges
      X_c end before the N_c-th head of their coins: a negative binomial
      of mean 2 N_c.  Whether an edge is kept depends only on the coins
      of lighter edges, so the kept edges' coins, call after call and
      seed after seed, form one fair sequence, and over N = sum N_c,
      X <= 2N + b(N) (``_flips_excess``).
    * A minimum-edge step joins every vertex that carries an edge to
      another one, so the two steps of a call leave at most a quarter of
      them, and both children hold only edges of the contracted graph.
      So the contracted graphs of the 2^d calls at depth d hold at most
      n / 4^(d+1) such vertices each: N <= n/2.
    * Hence T <= m + T/2 + a(T) + n + b(n/2), so T/m <= ``_edge_bound``:
      2 + 2n/m plus tail terms, 3.29, 2.46, 3.09 and 2.32 for the four
      graphs below.

    The bounds fail with probability under 4 * _DELTA per seed; they
    come from the argument, not from measured counts.  The argument
    needs distinct weights, as these graphs have: ``_f_heavy_mask``
    compares weights alone and keeps an edge that ties its path maximum,
    which the lemma does not count.  Parse graphs, whose weights often
    tie, are not covered by this derivation.
    """

    @pytest.mark.parametrize("m, density", [(10_000, 2), (10_000, 8),
                                            (100_000, 2), (100_000, 8)])
    def test_edges_over_all_calls(self, monkeypatch, m, density):
        g = random_connected_graph(m // density, m,
                                   np.random.default_rng(m + density))
        n = g.n_vertices
        assert g.n_edges == m and len(np.unique(g.weight)) == m
        real_rec, real_heavy = mst._randomized_rec, mst._f_heavy_mask
        edges, filtered = [], []        # per call of the current seed

        def counting_rec(graph, rng):
            edges.append(graph.n_edges)
            return real_rec(graph, rng)

        def counting_heavy(graph, forest_mask):
            heavy = real_heavy(graph, forest_mask)
            carry = len(np.unique(np.concatenate([graph.u, graph.v])))
            filtered.append((graph.n_edges - int(heavy.sum()), carry))
            return heavy

        # the recursion calls the module globals, so every call is counted
        monkeypatch.setattr(mst, "_randomized_rec", counting_rec)
        monkeypatch.setattr(mst, "_f_heavy_mask", counting_heavy)
        bound = _edge_bound(m, n)
        kept = vertices = 0
        for seed in range(40):
            edges.clear()
            filtered.clear()
            randomized_msf(g, RandomSource(seed))
            seed_kept, seed_vertices = map(sum, zip(*filtered))
            assert seed_vertices <= n / 2
            assert sum(edges) / m <= bound, seed
            kept += seed_kept
            vertices += seed_vertices
        # the lemma is nearly tight here (kept reads 0.96-1.0 of 2N), so
        # the check is the tail bound over the 40 seeds, not 2N itself
        assert kept <= 2 * vertices + _flips_excess(vertices)


class TestLazyCoinStream:
    @pytest.mark.parametrize("seed, key", [(0, 0), (1, 5), (7, 3), (2**40, 149)])
    def test_derive_equals_eager_stream(self, seed, key):
        eager_seed = int(np.random.SeedSequence([seed, key]).generate_state(
            1, np.uint64)[0])
        eager = np.random.Generator(np.random.PCG64(eager_seed)).random(80) < 0.5
        assert RandomSource(seed, key).seed == eager_seed
        assert np.array_equal(RandomSource(seed, key).coin_flips(80), eager)
        source = RandomSource(seed, key)
        first = source.coin_flips(30)
        assert source.seed == eager_seed
        assert np.array_equal(np.concatenate([first, source.coin_flips(50)]), eager)

    def test_negative_seed_rejected_at_derive(self):
        # at construction, not the first flip; keyed or not
        for args in ((-1, 0), (-1,), (1, -1)):
            with pytest.raises(ValueError):
                RandomSource(*args)

    def test_base_case_builds_no_generator(self, monkeypatch):
        n = mst._BASE_EDGES // 2
        u, v, w = random_graph(np.random.default_rng(251), n, mst._BASE_EDGES)
        g = graph_of(n, u, v, w)
        assert g.n_edges == mst._BASE_EDGES
        want = kruskal_msf(g)

        def unexpected(*args, **kwargs):
            raise AssertionError("a coin-flip generator was built")

        monkeypatch.setattr(np.random, "SeedSequence", unexpected)
        monkeypatch.setattr(np.random, "PCG64", unexpected)
        assert randomized_msf(g, RandomSource(5, 17)) == want
        assert randomized_msf(g, RandomSource(5)) == want
