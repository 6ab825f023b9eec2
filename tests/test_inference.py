import pathlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from umstparse import features
from umstparse.conll import DependencyTree, Sentence, Token, is_valid_tree, load_conll
from umstparse.errors import InputError, StructureError
from umstparse.features import (Model, SentenceFeatures, arc_matrix, arc_slots,
                                pair_mask, position_table)
from umstparse.graph import UndirectedGraph
from umstparse.inference import (
    LazyArcScores,
    ParserConfig,
    Pruner,
    build_parse_graph,
    build_pruner,
    cle_directed_mst,
    combine,
    direct_tree,
    directed_score_table,
    local_enhancement,
    parse,
    swap_gain,
)
from umstparse.mst import RandomSource, SpanningForest, kruskal_msf, randomized_msf

from oracles import (
    cle_heads_reference,
    exhaustive_best_arborescence,
    extract_directed,
    extract_undirected,
    join_sentences,
    local_enhancement_oracle,
    one_call_slots,
    score,
)

BUNDLED = pathlib.Path(__file__).parent.parent / "data"


@pytest.fixture(scope="module")
def bundled():
    """Pruner from the bundled training set; the dev set plus 15 sentences
    of 30-50 tokens joined from it."""
    pruner = build_pruner(load_conll(BUNDLED / "fixture_train.conll"))
    dev = load_conll(BUNDLED / "fixture_dev.conll")
    joined = [join_sentences(dev[i:i + 4]) for i in range(0, 60, 4)]
    return pruner, dev + joined


def sent(words_tags, heads):
    tokens = tuple(Token(index=i + 1, form=w, postag=p)
                   for i, (w, p) in enumerate(words_tags))
    return Sentence(tokens=tokens, gold_heads=tuple(heads),
                    gold_labels=tuple(["dep"] * len(tokens)))


FIXTURE = sent([("the", "DT"), ("dog", "NN"), ("barks", "VB")], [2, 3, 0])


class TestCombine:
    def test_mean(self):
        assert combine(4.0, 2.0, "mean") == 3.0

    def test_mean_identity(self):
        assert combine(1.25, 1.25, "mean") == 1.25

    def test_product(self):
        assert combine(2.0, 3.0, "product") == 6.0

    def test_unknown_combiner(self):
        with pytest.raises(InputError):
            combine(1.0, 2.0, "max")


class TestPruner:
    def test_single_edge_length(self):
        s = sent([("a", "A"), ("b", "B"), ("c", "C"), ("d", "D")],
                 [0, 1, 1, 1])
        p = build_pruner([s])
        assert p.max_len[("A", "D", 1)] == 3

    def test_retains_all_training_gold_edges(self):
        rng = np.random.default_rng(53)
        corpus = []
        tags = ["N", "V", "D", "J"]
        for _ in range(30):
            n = int(rng.integers(2, 9))
            words = [(f"w{rng.integers(0, 9)}", tags[rng.integers(0, 4)])
                     for _ in range(n)]
            heads = _random_heads(rng, n)
            corpus.append(sent(words, heads))
        p = build_pruner(corpus)
        for s in corpus:
            for m0, h in enumerate(s.gold_heads):
                assert p.allows(s, h, m0 + 1)

    def test_mask_agrees_with_allows(self, bundled):
        """Over the whole [0, n] square: arcs into the root and self arcs
        (the root's included) are allowed by neither."""
        pruner, sentences = bundled
        for s in sentences:
            n = len(s)
            expected = np.zeros((n + 1, n + 1), dtype=bool)
            for h in range(n + 1):
                for m in range(n + 1):
                    expected[h, m] = pruner.allows(s, h, m)
            assert np.array_equal(pruner.mask(s), expected)

    def test_unseen_pair_pruned(self):
        s = sent([("a", "A"), ("b", "B")], [0, 1])
        p = build_pruner([s])
        other = sent([("x", "X"), ("y", "Y")], [0, 1])
        assert not p.allows(other, 1, 2)
        assert p.allows(other, 0, 1)  # root arcs always allowed


def _random_heads(rng, n):
    """Random dependency tree heads via random attachment to earlier nodes."""
    heads = []
    for i in range(1, n + 1):
        heads.append(int(rng.integers(0, i)))
    # tokens attach to earlier positions only -> always a valid tree
    return heads


class TestBuildParseGraph:
    def test_single_token(self):
        s = sent([("hi", "UH")], [0])
        model = Model.new("undirected", hash_bits=12)
        pg, table = build_parse_graph(s, model)
        assert pg.graph.n_vertices == 2
        assert pg.graph.n_edges == 1
        assert pg.pairs == [(0, 1)]
        assert table is None

    def test_unpruned_edge_count(self):
        model = Model.new("undirected", hash_bits=12)
        pg, _ = build_parse_graph(FIXTURE, model)
        n = len(FIXTURE)
        assert pg.graph.n_edges == n + n * (n - 1) // 2

    def test_at_most_half_of_directed_edge_count(self):
        model = Model.new("undirected", hash_bits=12)
        for k in range(1, 7):
            s = sent([(f"w{i}", "N") for i in range(k)], _random_heads(
                np.random.default_rng(k), k))
            pg, _ = build_parse_graph(s, model)
            assert 2 * pg.graph.n_edges <= 2 * k * k  # directed graph has n^2 arcs

    def test_weights_are_negated_undirected_scores(self):
        rng = np.random.default_rng(59)
        model = Model.new("undirected", hash_bits=12)
        model.weights = rng.normal(size=model.size())
        pg, _ = build_parse_graph(FIXTURE, model)
        for eid, (i, j) in enumerate(pg.pairs):
            fv = extract_undirected(FIXTURE, i, j, hash_bits=12)
            assert pg.graph.weight[eid] == pytest.approx(-score(model, fv))

    def test_directed_mode_combines_both_arcs(self):
        rng = np.random.default_rng(61)
        model = Model.new("directed", combiner="mean", hash_bits=12)
        model.weights = rng.normal(size=model.size())
        pg, table = build_parse_graph(FIXTURE, model)
        for eid, (u, v) in enumerate(pg.pairs):
            s_uv = score(model, extract_directed(FIXTURE, u, v, hash_bits=12))
            if u == 0:
                expected = s_uv
            else:
                s_vu = score(model, extract_directed(FIXTURE, v, u, hash_bits=12))
                expected = (s_uv + s_vu) / 2.0
            assert pg.graph.weight[eid] == pytest.approx(-expected)
        assert table is not None

    @pytest.mark.parametrize("fractional", [False, True])
    @pytest.mark.parametrize("combiner", ["mean", "product"])
    def test_directed_mode_matches_scalar_rule(self, bundled, combiner, fractional):
        """Directed-mode graphs equal a per-pair loop over the score table,
        unpruned and pruned by the mask, with integer weights (whose sums
        tie) and fractional ones.  Built without a cache, from a cache
        (whose pair layout the call builds) and from it again (reading
        the layout kept), they have the same pairs, bit-identical weights
        and the same matrix."""
        pruner, sentences = bundled
        model = Model.new("directed", combiner=combiner, hash_bits=12)
        rng = np.random.default_rng(71)
        model.weights = rng.normal(size=model.size()) if fractional \
            else rng.integers(-2, 3, size=model.size()).astype(float)
        for s in sentences[::10]:
            n = len(s)
            for allowed in (None, pruner.mask(s)):
                cache = SentenceFeatures(s, "directed", 12, allowed)
                built = [build_parse_graph(s, model, allowed, c) for c in (None, cache, cache)]
                matrix = built[0][1]
                pairs, weights = [], []
                for u in range(n + 1):
                    for v in range(u + 1, n + 1):
                        fwd = np.isfinite(matrix[u, v]) and (
                            allowed is None or pruner.allows(s, u, v))
                        rev = (u != 0 and np.isfinite(matrix[v, u])
                               and (allowed is None or pruner.allows(s, v, u)))
                        if fwd and rev:
                            w = combine(matrix[u, v], matrix[v, u], combiner)
                        elif fwd or rev:
                            w = matrix[u, v] if fwd else matrix[v, u]
                        else:
                            continue
                        pairs.append((u, v))
                        weights.append(-w)
                for pg, table in built:
                    assert pg.pairs == pairs
                    assert pg.graph.weight.tobytes() == np.array(weights).tobytes()
                    assert table.tobytes() == matrix.tobytes()

    def test_pruning_rule_matches_brute_force(self):
        rng = np.random.default_rng(67)
        tags = ["N", "V", "D"]
        corpus = []
        for _ in range(20):
            n = int(rng.integers(2, 8))
            corpus.append(sent([(f"w{i}", tags[rng.integers(0, 3)])
                                for i in range(n)], _random_heads(rng, n)))
        pruner = build_pruner(corpus[:15])
        model = Model.new("undirected", hash_bits=12)
        for s in corpus[15:]:
            pg, _ = build_parse_graph(s, model, pruner.mask(s))
            got = set(pg.pairs)
            expected = set()
            n = len(s)
            for i in range(0, n + 1):
                for j in range(i + 1, n + 1):
                    if i == 0 or pruner.allows(s, i, j) or pruner.allows(s, j, i):
                        expected.add((i, j))
            assert got == expected


class TestDirectTree:
    def test_two_vertex_tree(self):
        g = UndirectedGraph.from_edges(2, [(0, 1, 1.0)])
        forest = SpanningForest(edge_ids=frozenset({0}), total_weight=1.0)
        tree = direct_tree(g, forest)
        assert tree.heads == (0,)

    def test_star_plus_chain_levels(self):
        # root-1, root-2, 2-3, 3-4: directing proceeds level by level
        g = UndirectedGraph.from_edges(
            5, [(0, 1, 1.0), (0, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
        forest = SpanningForest(edge_ids=frozenset({0, 1, 2, 3}), total_weight=4.0)
        tree = direct_tree(g, forest)
        assert tree.heads == (0, 0, 2, 3)

    def test_not_spanning_raises(self):
        g = UndirectedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        forest = SpanningForest(edge_ids=frozenset({0}), total_weight=1.0)
        with pytest.raises(StructureError):
            direct_tree(g, forest)

    def test_edge_ids_need_not_be_positions(self):
        # root-1, 1-2 and a spare 0-2, with ids that are not positions
        g = UndirectedGraph(3, [1, 0, 0], [2, 1, 2], [1.0, 1.0, 5.0], [70, 40, 9])
        forest = SpanningForest(edge_ids=frozenset({40, 70}), total_weight=2.0)
        assert direct_tree(g, forest).heads == (0, 1)

    @pytest.mark.parametrize("ids", [{0, 5}, {0, -1}, {0, 1, 2}])
    def test_foreign_edge_id_raises(self, ids):
        g = UndirectedGraph(3, [0, 1], [1, 2], [1.0, 1.0], [0, 1])
        forest = SpanningForest(edge_ids=frozenset(ids), total_weight=0.0)
        with pytest.raises(StructureError):
            direct_tree(g, forest)

    @pytest.mark.parametrize("ids", [{0, 1}, {0, 5}])
    def test_repeated_edge_id_raises(self, ids):
        # id 0 names two edges: found twice, whether or not an id is missing
        g = UndirectedGraph(3, [0, 1], [1, 2], [1.0, 1.0], [0, 0])
        forest = SpanningForest(edge_ids=frozenset(ids), total_weight=0.0)
        with pytest.raises(StructureError):
            direct_tree(g, forest)

    def test_random_trees_round_trip(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            heads = _random_heads(rng, n)
            edges = [(h, m + 1, 1.0) for m, h in enumerate(heads)]
            perm = rng.permutation(len(edges)).tolist()
            g = UndirectedGraph.from_edges(n + 1, [edges[i] for i in perm])
            forest = SpanningForest(edge_ids=frozenset(range(n)),
                                    total_weight=float(n))
            tree = direct_tree(g, forest)
            assert is_valid_tree(tree.heads)
            got_pairs = {(min(h, m + 1), max(h, m + 1))
                         for m, h in enumerate(tree.heads)}
            want_pairs = {(min(h, m + 1), max(h, m + 1))
                          for m, h in enumerate(heads)}
            assert got_pairs == want_pairs


class TestDirectTreeFromPositions:
    """direct_tree walks an engine's forest from the positions it kept."""

    def test_engine_forests_direct_as_their_ids(self):
        # the round trip above, with extra edges that no forest takes and
        # ids that are not positions: an engine's forest (with positions)
        # and the keyword-built forest of its ids give the same heads
        rng = np.random.default_rng(71)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            heads = _random_heads(rng, n)
            edges = [(h, m + 1, 1.0) for m, h in enumerate(heads)]
            edges += [(int(a), int(b), 9.0)
                      for a, b in rng.integers(0, n + 1, size=(n, 2))]
            perm = rng.permutation(len(edges)).tolist()
            u, v, w = (np.asarray(col)[perm] for col in zip(*edges))
            g = UndirectedGraph(n + 1, u, v, w, rng.permutation(len(edges)) * 5 + 3)
            for forest in (kruskal_msf(g), randomized_msf(g, RandomSource(1))):
                assert forest.positions is not None
                plain = SpanningForest(edge_ids=forest.edge_ids,
                                       total_weight=forest.total_weight)
                tree = direct_tree(g, forest)
                assert tree == direct_tree(g, plain)
                assert tree.heads == tuple(heads)

    @pytest.mark.parametrize("positions", [[0, 2], [-1, 0], [0], [0, 1, 1]])
    def test_bad_positions_raise(self, positions):
        g = UndirectedGraph(3, [0, 1], [1, 2], [1.0, 1.0], [0, 1])
        forest = SpanningForest(edge_ids=frozenset({0, 1}), total_weight=0.0,
                                positions=np.asarray(positions, dtype=np.int64))
        with pytest.raises(StructureError, match="edges the graph lacks"):
            direct_tree(g, forest)

    def test_not_spanning_raises(self):
        g = UndirectedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        forest = kruskal_msf(g)
        assert forest.positions is not None
        with pytest.raises(StructureError, match="does not cover"):
            direct_tree(g, forest)


def table_from(matrix):
    return np.asarray(matrix, dtype=float)


class TestLocalEnhancement:
    def test_worked_gain_identity(self):
        assert swap_gain(4.0, 3.0, 5.0, 1.0) == 1.0

    def test_positive_gain_swap_applied(self):
        # tree: root->1 (t), 1->2 (u), 2->3 (v=child of u)
        # on raw (maximizing) scores, moving 3 under 1 and hanging 2 under 3
        # must win when the new arcs score higher
        mat = np.full((4, 4), 0.0)
        mat[1, 2] = 1.0   # s(t=1, u=2)
        mat[2, 3] = 1.0   # s(u=2, v=3)
        mat[1, 3] = 5.0   # s(t=1, v=3)
        mat[3, 2] = 4.0   # s(v=3, u=2)
        tree = DependencyTree(heads=(0, 1, 2))
        out = local_enhancement(tree, table_from(mat), rounds=5)
        assert out.heads == (0, 3, 1)

    def test_no_positive_gain_is_identity(self):
        mat = np.zeros((4, 4))
        mat[0, 1] = mat[1, 2] = mat[2, 3] = 10.0
        tree = DependencyTree(heads=(0, 1, 2))
        out = local_enhancement(tree, table_from(mat), rounds=5)
        assert out.heads == tree.heads

    def test_zero_rounds_is_identity(self):
        rng = np.random.default_rng(73)
        mat = rng.normal(size=(5, 5))
        tree = DependencyTree(heads=(0, 1, 1, 2))
        out = local_enhancement(tree, table_from(mat), rounds=0)
        assert out.heads == tree.heads

    def test_missing_new_arcs_block_swap(self):
        mat = np.full((4, 4), -np.inf)
        mat[0, 1] = mat[1, 2] = mat[2, 3] = 1.0
        mat[1, 3] = 50.0  # (t, v) present but (v, u) missing -> no swap
        tree = DependencyTree(heads=(0, 1, 2))
        out = local_enhancement(tree, table_from(mat), rounds=5)
        assert out.heads == tree.heads

    def test_missing_current_arc_forces_legal_swap(self):
        mat = np.full((4, 4), -np.inf)
        mat[0, 1] = 1.0
        mat[1, 3] = 0.1
        mat[3, 2] = 0.1
        mat[1, 2] = 1.0   # current (t,u)
        # current (u, v) = (2, 3) missing; legal replacement exists
        tree = DependencyTree(heads=(0, 1, 2))
        out = local_enhancement(tree, table_from(mat), rounds=5)
        assert out.heads == (0, 3, 1)

    def test_invalid_tree_rejected(self):
        with pytest.raises(StructureError):
            local_enhancement(DependencyTree(heads=(2, 1)),
                              table_from(np.zeros((3, 3))), rounds=1)

    def test_flat_tree_returns_without_hashing(self, bundled, monkeypatch):
        """A tree whose every head is the root has no edge (u, v) with u
        below the root: it comes back as it is, and its scorer hashes
        nothing."""
        calls = []
        monkeypatch.setattr(features, "hash_arcs", lambda *args: calls.append(args))
        s = bundled[1][-1]
        model = Model.new("directed", hash_bits=12)
        tree = DependencyTree(heads=(0,) * len(s))
        assert local_enhancement(tree, LazyArcScores(s, model), rounds=5) == tree
        assert calls == []

    def test_random_monotone_score_and_validity(self):
        rng = np.random.default_rng(79)
        for _ in range(150):
            n = int(rng.integers(2, 10))
            heads = _random_heads(rng, n)
            mat = rng.normal(size=(n + 1, n + 1))
            table = table_from(mat)
            tree = DependencyTree(heads=tuple(heads))
            prev = sum(mat[h, m + 1] for m, h in enumerate(tree.heads))
            for _round in range(5):
                nxt = local_enhancement(tree, table, rounds=1)
                assert is_valid_tree(nxt.heads)
                cur = sum(mat[h, m + 1] for m, h in enumerate(nxt.heads))
                assert cur >= prev - 1e-9
                prev = cur
                tree = nxt

    def test_swap_matches_reconstruction(self):
        rng = np.random.default_rng(83)
        for _ in range(100):
            n = int(rng.integers(3, 9))
            heads = _random_heads(rng, n)
            mat = rng.normal(size=(n + 1, n + 1))
            tree = DependencyTree(heads=tuple(heads))
            out = local_enhancement(tree, table_from(mat), rounds=1)
            if out.heads == tree.heads:
                continue
            # exactly the u, v rewiring pattern: u now under v, v under t
            changed = [i for i in range(n)
                       if out.heads[i] != tree.heads[i]]
            assert len(changed) == 2
            a, b = changed
            oa, ob = out.heads[a], out.heads[b]
            # one of them (u) is now headed by the other (v)
            if oa == b + 1:
                u, v = a + 1, b + 1
            else:
                assert ob == a + 1
                u, v = b + 1, a + 1
            assert tree.heads[v - 1] == u          # v was child of u
            assert out.heads[v - 1] == tree.heads[u - 1]  # v adopted by t
            assert out.heads[u - 1] == v           # u hangs under v


@st.composite
def lep_instances(draw):
    """A tree (random, star- or path-shaped, randomly labelled), a score
    matrix of small integers with -inf holes, and a round count."""
    n = draw(st.integers(1, 9))
    shape = draw(st.sampled_from(["random", "star", "path"]))
    order = draw(st.permutations(range(1, n + 1)))
    heads = [0] * n
    for i, x in enumerate(order):
        if shape == "path":
            heads[x - 1] = order[i - 1] if i else 0
        elif shape == "star":
            heads[x - 1] = order[0] if i else 0
        else:
            j = draw(st.integers(0, i))
            heads[x - 1] = order[j - 1] if j else 0
    cells = draw(st.lists(st.sampled_from([-np.inf, -2.0, -1.0, 0.0, 1.0, 2.0]),
                          min_size=(n + 1) ** 2, max_size=(n + 1) ** 2))
    matrix = np.asarray(cells).reshape(n + 1, n + 1)
    return heads, matrix, draw(st.integers(0, 5))


class TestVectorizedLocalEnhancement:
    @settings(max_examples=400, deadline=None)
    @given(lep_instances())
    def test_matches_scalar_oracle(self, instance):
        heads, matrix, rounds = instance
        out = local_enhancement(DependencyTree(heads=tuple(heads)),
                                table_from(matrix), rounds)
        assert out.heads == local_enhancement_oracle(heads, matrix, rounds)

    def test_lazy_scores_equal_full_table(self, bundled):
        """A LazyArcScores indexes like the full score matrix: every arc it
        is asked about, in any order and with repeats, scores the very float
        of the matrix, and LEP given either gives the same tree."""
        pruner, sentences = bundled
        dev = sentences[:150]
        sentences = sentences + [join_sentences(dev[i:i + 7])
                                 for i in range(100, 142, 7)]
        assert max(len(s) for s in sentences) >= 65
        rng = np.random.default_rng(131)
        model = Model.new("directed", hash_bits=16)
        model.weights = rng.normal(size=model.size())
        for s in sentences:
            n = len(s)
            heads = _random_heads(rng, n)
            for p in (None, pruner.mask(s)):
                full = directed_score_table(s, model, p)
                lazy = LazyArcScores(s, model, p)
                for _ in range(3):
                    h = rng.integers(0, n + 1, size=2 * n)
                    m = rng.integers(0, n + 1, size=2 * n)
                    assert lazy[h, m].tobytes() == full[h, m].tobytes()
                tree = DependencyTree(heads=tuple(heads))
                assert local_enhancement(tree, full) == \
                    local_enhancement(tree, LazyArcScores(s, model, p))
                h, m = np.divmod(np.arange((n + 1) ** 2), n + 1)
                assert lazy[h, m].tobytes() == full.tobytes()

    def test_one_hashing_call_per_round(self, bundled, monkeypatch):
        calls = []
        real = features.hash_arcs

        def counting(*args):
            calls.append(len(args[1]))
            return real(*args)

        monkeypatch.setattr(features, "hash_arcs", counting)
        s = bundled[1][-1]
        model = Model.new("directed", hash_bits=12)
        model.weights = np.random.default_rng(137).normal(size=model.size())
        tree = DependencyTree(heads=tuple(_random_heads(np.random.default_rng(139), len(s))))
        local_enhancement(tree, LazyArcScores(s, model), rounds=5)
        assert 1 <= len(calls) <= 5
        assert sum(calls) <= 4 * len(s) * 5 < len(s) ** 2

    def test_tables_built_at_most_once_on_first_use(self, bundled, monkeypatch):
        """A LazyArcScores builds its sentence's position table at most
        once, on its first hash; every round of local_enhancement hashes
        its arcs from that table."""
        built, hashed_from = [], []
        real_table, real_hash = features.position_table, features.hash_arcs

        def building(*args):
            built.append(real_table(*args))
            return built[-1]

        def hashing(table, *args):
            hashed_from.append(table)
            return real_hash(table, *args)

        monkeypatch.setattr(features, "position_table", building)
        monkeypatch.setattr(features, "hash_arcs", hashing)
        s = bundled[1][-1]
        model = Model.new("directed", hash_bits=12)
        model.weights = np.random.default_rng(137).normal(size=model.size())
        tree = DependencyTree(heads=tuple(_random_heads(np.random.default_rng(139), len(s))))
        local_enhancement(tree, LazyArcScores(s, model), rounds=5)
        assert len(built) == 1 and len(hashed_from) >= 2
        assert all(table is built[0] for table in hashed_from)

    @staticmethod
    def _candidates(heads, allowed):
        """The (t, u, v) of the tree edges (u, v) below a non-root u whose
        two new arcs (t, v) and (v, u) the mask allows."""
        heads = np.array([0, *heads])
        v = np.flatnonzero(heads)
        u = heads[v]
        t = heads[u]
        keep = allowed[t, v] & allowed[v, u]
        return t[keep], u[keep], v[keep]

    @staticmethod
    def _counting(monkeypatch):
        """Record the arcs of every hash_arcs call and the sentences of
        every position_table call made by LazyArcScores."""
        hashed, built = [], []
        real_table, real_hash = features.position_table, features.hash_arcs

        def building(*args):
            built.append(args[0])
            return real_table(*args)

        def hashing(table, a, b, *args):
            hashed.append((a.copy(), b.copy()))
            return real_hash(table, a, b, *args)

        monkeypatch.setattr(features, "position_table", building)
        monkeypatch.setattr(features, "hash_arcs", hashing)
        return hashed, built

    def test_no_candidate_edge_never_featurizes(self, bundled, monkeypatch):
        """A pruned tree none of whose edges has both new arcs allowed comes
        back unchanged, without building a position table or hashing."""
        pruner, sentences = bundled
        rng = np.random.default_rng(151)
        model = Model.new("directed", hash_bits=12)
        model.weights = rng.normal(size=model.size())
        hashed, built = self._counting(monkeypatch)
        seen = 0
        for s in sentences:
            allowed = pruner.mask(s)
            if len(self._candidates(s.gold_heads, allowed)[0]):
                continue
            seen += 1
            tree = DependencyTree(heads=s.gold_heads)
            assert local_enhancement(tree, LazyArcScores(s, model, allowed)) == tree
        assert seen >= 10
        assert hashed == [] and built == []

    def test_hashes_the_allowed_arcs_of_candidate_edges(self, bundled, monkeypatch):
        """One round hashes exactly the allowed arcs among the four arcs of
        the candidate edges, once each, in row-major order; asking again
        for arcs already scored hashes nothing."""
        pruner, sentences = bundled
        rng = np.random.default_rng(157)
        model = Model.new("directed", hash_bits=12)
        model.weights = rng.normal(size=model.size())
        hashed, _ = self._counting(monkeypatch)
        seen = 0
        for s in sentences:
            allowed = pruner.mask(s)
            for heads in (s.gold_heads, tuple(_random_heads(rng, len(s)))):
                t, u, v = self._candidates(heads, allowed)
                if not len(t):
                    continue
                seen += 1
                ha, ma = np.concatenate([t, v, t, u]), np.concatenate([v, u, u, v])
                keys = np.unique((ha * (len(s) + 1) + ma)[allowed[ha, ma]])
                want = np.divmod(keys, len(s) + 1)
                lazy = LazyArcScores(s, model, allowed)
                hashed.clear()
                local_enhancement(DependencyTree(heads=heads), lazy, rounds=1)
                assert len(hashed) == 1
                assert np.array_equal(hashed[0][0], want[0])
                assert np.array_equal(hashed[0][1], want[1])
                lazy[ha, ma]
                assert len(hashed) == 1
        assert seen >= 10

    def test_pruned_msf_trees_match_the_full_table(self, bundled):
        """LEP over the MSF trees of the bundled dev set, scored lazily with
        the pruner's mask, gives the trees of LEP over the matrix of
        directed_score_table with the same mask."""
        pruner, sentences = bundled
        rng = np.random.default_rng(163)
        dmodel = Model.new("directed", hash_bits=12)
        dmodel.weights = rng.normal(size=dmodel.size())
        umodel = Model.new("undirected", hash_bits=12)
        umodel.weights = rng.normal(size=umodel.size())
        changed = 0
        for s in sentences[:150]:
            allowed = pruner.mask(s)
            pg, _ = build_parse_graph(s, umodel, allowed)
            tree = direct_tree(pg.graph, kruskal_msf(pg.graph))
            full = local_enhancement(tree, directed_score_table(s, dmodel, allowed))
            assert local_enhancement(tree, LazyArcScores(s, dmodel, allowed)) == full
            changed += full != tree
        assert changed >= 10

    @pytest.mark.parametrize("system", ["u-mst-uf", "u-mst-uf-lep", "u-mst-df"])
    def test_pruner_mask_once_per_parse(self, bundled, monkeypatch, system):
        """A pruned parse computes the pruner's mask once and hands it to
        every stage that needs it, and not at all when a pruned cache
        already holds the graph's pairs or arcs and no rewiring reads it;
        the tree is the one each stage's own mask gives."""
        pruner, sentences = bundled
        rng = np.random.default_rng(149)
        dmodel = Model.new("directed", hash_bits=12)
        dmodel.weights = rng.normal(size=dmodel.size())
        umodel = Model.new("undirected", hash_bits=12)
        umodel.weights = rng.normal(size=umodel.size())
        model = dmodel if system == "u-mst-df" else umodel
        config = ParserConfig(system=system, pruning="length-dictionary")
        calls = []
        real = Pruner.mask

        def counting(self, sentence):
            calls.append(1)
            return real(self, sentence)

        for s in sentences[::10]:
            pg, _ = build_parse_graph(s, model, pruner.mask(s))
            want = direct_tree(pg.graph, kruskal_msf(pg.graph))
            if system == "u-mst-uf-lep":
                want = local_enhancement(want, LazyArcScores(s, dmodel, pruner.mask(s)))
            cache = SentenceFeatures(s, model.mode, 12, pruner.mask(s))
            monkeypatch.setattr(Pruner, "mask", counting)
            calls.clear()
            assert parse(s, model, config, directed_model=dmodel,
                         pruner=pruner) == want
            assert len(calls) == 1
            calls.clear()
            assert parse(s, model, config, directed_model=dmodel,
                         pruner=pruner, features=cache) == want
            assert len(calls) == (1 if system == "u-mst-uf-lep" else 0)
            monkeypatch.setattr(Pruner, "mask", real)

    def test_lazy_scorer_needs_directed_model(self):
        with pytest.raises(InputError):
            LazyArcScores(FIXTURE, Model.new("undirected", hash_bits=10))

    def test_score_table_needs_directed_model(self):
        """An undirected model is refused with or without a cache, before
        the cache is read."""
        umodel = Model.new("undirected", hash_bits=10)
        for cache in (None, SentenceFeatures(FIXTURE, "undirected", 10)):
            with pytest.raises(InputError, match="directed-mode model"):
                directed_score_table(FIXTURE, umodel, None, cache)



def _wide_tags(sentence, width=40):
    """The sentence with every POS padded to ``width`` bytes, so that its
    shifts reach past the 64 a position table holds."""
    tokens = tuple(replace(t, postag=t.postag.ljust(width, "-")) for t in sentence.tokens)
    return replace(sentence, tokens=tokens)


class TestOneDirectedScorer:
    """Every parse-time directed score comes from one blocked scorer,
    ``features.LazyArcScores``: ``directed_score_table`` without a cache is
    its ``table()``, and LEP reads it lazily.  It hashes its arcs in blocks
    of at most ``features._BLOCK_SLOTS`` slots, and reads the very floats
    of one unblocked ``hash_arcs`` call; so do blocked training caches."""

    @staticmethod
    def _hashing(monkeypatch):
        """Record the arcs, slots and slot array of every hash_arcs call."""
        calls, real = [], features.hash_arcs

        def hashing(*args):
            flat, _, offsets = args[4:]
            calls.append((len(offsets) - 1, len(flat), flat))
            return real(*args)

        monkeypatch.setattr(features, "hash_arcs", hashing)
        return calls

    @staticmethod
    def _sentences(bundled):
        """The dev set, a joined 106-token sentence and two sentences with
        40-byte tags: the joined one, whose blocked lists build their
        planes past 64 shifts, and a short one, whose blocks compose them."""
        dev = bundled[1][:150]
        joined = join_sentences(dev[:11])
        assert 100 <= len(joined) <= 110
        return dev + [joined, _wide_tags(joined), _wide_tags(dev[0])]

    def test_blocked_scores_equal_one_unblocked_call(self, bundled, monkeypatch):
        pruner = bundled[0]
        monkeypatch.setattr(features, "_BLOCK_SLOTS", 256)
        calls = self._hashing(monkeypatch)
        rng = np.random.default_rng(167)
        model = Model.new("directed", hash_bits=16)
        model.weights = rng.normal(size=model.size())
        for s in self._sentences(bundled):
            n = len(s)
            for p in (None, pruner.mask(s)):
                a, b = np.nonzero(arc_matrix(n) if p is None else p)
                flat, mult, starts = one_call_slots(position_table([s], "directed"), a, b, 16)
                reference = np.full((n + 1, n + 1), -np.inf)
                reference[a, b] = np.add.reduceat(model.weights[flat] * mult, starts)
                calls.clear()
                blocked = directed_score_table(s, model, p)
                assert len(calls) >= (2 if p is None else 1)
                assert all(slots <= 256 or arcs == 1 for arcs, slots, _ in calls)
                assert blocked.tobytes() == reference.tobytes()
                cache = SentenceFeatures(s, "directed", 16, p)
                assert directed_score_table(s, model, p, cache).tobytes() == reference.tobytes()
                lazy = LazyArcScores(s, model, p)
                for _ in range(3):
                    h = rng.integers(0, n + 1, size=4 * n)
                    m = rng.integers(0, n + 1, size=4 * n)
                    assert lazy[h, m].tobytes() == reference[h, m].tobytes()
                h, m = np.divmod(rng.permutation((n + 1) ** 2), n + 1)
                assert lazy[h, m].tobytes() == reference[h, m].tobytes()

    def test_table_hashes_each_pending_arc_once(self, bundled, monkeypatch):
        """After some ``lazy[h, m]`` reads, ``table()`` hashes exactly the
        allowed arcs still pending, once each and row-major, and returns
        the bytes of one unblocked hash_arcs reference; a second
        ``table()`` hashes nothing.  ``directed_score_table`` without a
        cache is one ``table()`` call, with the same bytes, pruned and
        unpruned.  The scorer inference uses is the one features defines."""
        assert LazyArcScores is features.LazyArcScores
        pruner = bundled[0]
        real, real_table = features.hash_arcs, LazyArcScores.table
        hashed, tables = [], []

        def hashing(table, a, b, *args):
            hashed.append(a * len(table.pos_len) + b)
            return real(table, a, b, *args)

        def counting(lazy):
            tables.append(lazy)
            return real_table(lazy)

        monkeypatch.setattr(features, "hash_arcs", hashing)
        monkeypatch.setattr(LazyArcScores, "table", counting)
        rng = np.random.default_rng(179)
        model = Model.new("directed", hash_bits=16)
        model.weights = rng.normal(size=model.size())
        for s in self._sentences(bundled):
            n = len(s)
            for p in (None, pruner.mask(s)):
                allowed = arc_matrix(n) if p is None else p
                a, b = np.nonzero(allowed)
                flat, mult, starts = one_call_slots(position_table([s], "directed"), a, b, 16)
                reference = np.full((n + 1, n + 1), -np.inf)
                reference[a, b] = np.add.reduceat(model.weights[flat] * mult, starts)
                tables.clear()
                assert directed_score_table(s, model, p).tobytes() == reference.tobytes()
                assert len(tables) == 1
                lazy = LazyArcScores(s, model, p)
                read = np.zeros_like(allowed)
                for _ in range(2):
                    h = rng.integers(0, n + 1, size=2 * n)
                    m = rng.integers(0, n + 1, size=2 * n)
                    lazy[h, m]
                    read[h, m] = True
                hashed.clear()
                assert lazy.table().tobytes() == reference.tobytes()
                got = np.concatenate(hashed) if hashed else np.empty(0, dtype=np.int64)
                assert np.array_equal(got, np.flatnonzero(allowed & ~read))
                hashed.clear()
                assert lazy.table().tobytes() == reference.tobytes()
                assert hashed == []

    @pytest.mark.parametrize("mode", ["directed", "undirected"])
    def test_blocked_caches_store_one_call_slots(self, bundled, monkeypatch, mode):
        """A cache hashed in blocks of 256 slots stores the bytes of one
        unblocked hash_arcs call over its pairs, pruned and unpruned: the
        pairs that survive the mask, or in directed mode both candidate
        directions of each."""
        pruner = bundled[0]
        monkeypatch.setattr(features, "_BLOCK_SLOTS", 256)
        calls = self._hashing(monkeypatch)
        blocked = 0
        for s in self._sentences(bundled):
            for p in (None, pruner.mask(s)):
                calls.clear()
                cache = SentenceFeatures(s, mode, 16, p)
                arcs = arc_matrix(len(s)) if p is None else p
                held = pair_mask(arcs)
                if mode == "directed":
                    held = (held | held.T) & arc_matrix(len(s))
                a, b = np.nonzero(held)
                flat, mult, starts = one_call_slots(position_table([s], mode), a, b, 16)
                assert cache._flat.tobytes() == flat.tobytes()
                assert cache._mult.tobytes() == mult.tobytes()
                assert cache._starts.tobytes() == starts.tobytes()
                assert all(slots <= 256 or arcs == 1 for arcs, slots, _ in calls)
                blocked += len(calls) > 1
        assert blocked >= 150

    def test_one_call_when_the_arcs_fit_a_block(self, bundled, monkeypatch):
        """A matrix or a cache whose arcs fit one block is one hashing call
        (which writes the cache's whole slot array), and an empty arc list
        none."""
        calls = self._hashing(monkeypatch)
        model = Model.new("directed", hash_bits=12)
        model.weights = np.random.default_rng(173).normal(size=model.size())
        s = bundled[1][0]
        directed_score_table(s, model)
        assert len(calls) == 1
        for mode in ("directed", "undirected"):
            calls.clear()
            cache = SentenceFeatures(s, mode, 12)
            assert len(calls) == 1 and len(cache._flat) == calls[0][1]
            assert np.shares_memory(cache._flat, calls[0][2])
        calls.clear()
        none = np.zeros((len(s) + 1,) * 2, dtype=bool)
        assert np.all(directed_score_table(s, model, none) == -np.inf)
        assert np.all(LazyArcScores(s, model, none)[np.arange(3), np.arange(1, 4)] == -np.inf)
        empty = Sentence(tokens=(), gold_heads=(), gold_labels=())
        assert directed_score_table(empty, model).shape == (1, 1)
        for mode in ("directed", "undirected"):
            assert len(SentenceFeatures(s, mode, 12, none)._flat) == 0
            assert len(SentenceFeatures(empty, mode, 12)._starts) == 0
        assert calls == []

    def test_parses_build_no_directed_cache(self, tmp_path, monkeypatch):
        """d-mst, u-mst-df and u-mst-uf-lep parses, pruned and unpruned,
        construct no directed SentenceFeatures and still write the trees
        pinned in test_pinned_outputs."""
        import hashlib

        import umstparse.inference as inference
        from umstparse.cli import main
        from umstparse.conll import save_conll
        from test_pinned_outputs import PINNED, TRAIN_FLAGS

        train, dev = tmp_path / "train.conll", tmp_path / "dev.conll"
        save_conll(train, load_conll(BUNDLED / "fixture_train.conll")[:60])
        save_conll(dev, load_conll(BUNDLED / "fixture_dev.conll")[:30])
        real = inference.SentenceFeatures

        def undirected_only(sentence, mode, *args):
            assert mode != "directed", "a parse built a directed cache"
            return real(sentence, mode, *args)

        for setting, prune in (("unpruned", []),
                               ("pruned", ["--pruning", "length-dictionary"])):
            models = tmp_path / setting
            assert main(["train", "--train", str(train), "--model-out", str(models),
                         "--system", "all", *TRAIN_FLAGS, *prune]) == 0
            monkeypatch.setattr(inference, "SentenceFeatures", undirected_only)
            for system in ("d-mst", "u-mst-df", "u-mst-uf-lep"):
                out = models / f"{system}.pred.conll"
                argv = ["parse", "--model", str(models / f"{system}.model"),
                        "--input", str(dev), "--output", str(out),
                        "--system", system, "--seed", "3"]
                if system != "d-mst" and prune:
                    argv += [*prune, "--prune-train", str(train)]
                if system == "u-mst-uf-lep":
                    argv += ["--directed-model", str(models / "d-mst.model")]
                assert main(argv) == 0, argv
                digest = hashlib.sha256(out.read_bytes()).hexdigest()
                assert digest == PINNED[f"{setting}/{system}.pred.conll"], (setting, system)
            monkeypatch.setattr(inference, "SentenceFeatures", real)


class TestOneDirectedScoreRoute:
    """d-mst and u-mst-df read a sentence's directed scores through one
    ``directed_score_table`` call per prediction, with a training cache or
    without one, and u-mst-df's graph returns the matrix that call built."""

    @staticmethod
    def _counting(monkeypatch):
        """Wrap directed_score_table and build_parse_graph; the lists get
        every matrix each returns."""
        import umstparse.inference as inference

        tables, graphs = [], []
        real_table, real_graph = inference.directed_score_table, inference.build_parse_graph

        def table(*args, **kwargs):
            tables.append(real_table(*args, **kwargs))
            return tables[-1]

        def graph(*args, **kwargs):
            built = real_graph(*args, **kwargs)
            graphs.append(built[1])
            return built

        monkeypatch.setattr(inference, "directed_score_table", table)
        monkeypatch.setattr(inference, "build_parse_graph", graph)
        return tables, graphs

    @staticmethod
    def _check_prediction(system, tables, graphs):
        assert len(tables) == 1
        if system == "u-mst-df":
            assert len(graphs) == 1 and graphs[0] is tables[0]
        else:
            assert graphs == []
        tables.clear()
        graphs.clear()

    @pytest.mark.parametrize("pruning", ["none", "length-dictionary"])
    @pytest.mark.parametrize("system", ["d-mst", "u-mst-df"])
    def test_one_call_per_training_prediction(self, monkeypatch, system, pruning):
        from umstparse import training
        from umstparse.training import TrainConfig, train_full

        corpus = load_conll(BUNDLED / "fixture_train.conll")[:6]
        tables, graphs = self._counting(monkeypatch)
        predictions = []
        real_parse = training.parse

        def parse_once(*args, **kwargs):
            assert kwargs["features"] is not None
            tree = real_parse(*args, **kwargs)
            self._check_prediction(system, tables, graphs)
            predictions.append(tree)
            return tree

        monkeypatch.setattr(training, "parse", parse_once)
        train_full(corpus, TrainConfig(epochs=1, system=system, pruning=pruning,
                                       hash_bits=12))
        assert len(predictions) == len(corpus)

    def test_a_cache_reads_the_bytes_of_its_mask(self, bundled):
        """A directed cache built with a mask, pruned or not, holds the
        arcs the mask dropped in each pair it keeps, and reads them as
        -inf: its ``directed_score_table`` has the bytes of the table
        scored without it, and u-mst-df's graph from it has the pairs and
        weights of the graph built without it."""
        pruner, sentences = bundled
        model = Model.new("directed", hash_bits=12)
        model.weights = np.random.default_rng(157).normal(size=model.size())
        dropped = 0
        for s in sentences[::5] + [_wide_tags(sentences[0])]:
            for allowed in (None, pruner.mask(s)):
                cache = SentenceFeatures(s, "directed", 12, allowed)
                dropped += len(cache.dropped[0])
                assert directed_score_table(s, model, None, cache).tobytes() == \
                    directed_score_table(s, model, allowed).tobytes()
                got, want = (build_parse_graph(s, model, mask, c)[0].graph
                             for mask, c in ((None, cache), (allowed, None)))
                for name in ("u", "v", "weight"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert dropped > 100

    @pytest.mark.parametrize("pruned", [False, True])
    @pytest.mark.parametrize("system", ["d-mst", "u-mst-df"])
    def test_one_call_per_parse_without_features(self, bundled, monkeypatch,
                                                 system, pruned):
        pruner, sentences = bundled
        model = Model.new("directed", hash_bits=12)
        model.weights = np.random.default_rng(151).normal(size=model.size())
        config = ParserConfig(system=system,
                              pruning="length-dictionary" if pruned else "none")
        tables, graphs = self._counting(monkeypatch)
        for s in sentences[::10]:
            parse(s, model, config, pruner=pruner if config.pruned else None)
            self._check_prediction(system, tables, graphs)


class TestBoundedParseMemory:
    """A d-mst or unpruned u-mst-df parse holds O(n²) memory plus one hashing
    block, not every slot of every directed arc."""

    def test_400_token_parses_stay_under_24_mb(self):
        import tracemalloc

        from umstparse.training import TrainConfig, train
        dev = load_conll(BUNDLED / "fixture_dev.conll")
        s = join_sentences(dev[:40])
        n = len(s)
        assert 390 <= n <= 400
        # a directed cache of this sentence would store its slots (int64)
        # and multiplicities, over twice the bound (78.4 MB); both parses
        # peak at 11.4 MB (hash_bits 18)
        table = position_table([s], "directed")
        slots = int(arc_slots(table, *np.nonzero(arc_matrix(n))).sum())
        assert (8 + np.dtype(table.mult_dtype()).itemsize) * slots > 2 * 24e6
        model = train(load_conll(BUNDLED / "fixture_train.conll")[:100],
                      TrainConfig(system="d-mst", epochs=1, hash_bits=18))
        tracemalloc.start()
        try:
            for system in ("d-mst", "u-mst-df"):
                tracemalloc.reset_peak()
                tree = parse(s, model, ParserConfig(system=system))
                peak = tracemalloc.get_traced_memory()[1]
                assert is_valid_tree(tree.heads) and len(tree.heads) == n
                assert peak < 24e6, (system, peak)
        finally:
            tracemalloc.stop()


def ladder_scores(n):
    """Scores whose every contraction makes a new 2-cycle: token m prefers
    head m+1 (token n prefers n-1), s[m-1, m] is the runner-up, and root
    arcs are -1e6, so CLE nests n-1 contractions."""
    mat = np.full((n + 1, n + 1), -np.inf)
    mat[0, 1:] = -1e6
    m = np.arange(1, n)
    mat[m + 1, m] = 10.0
    mat[n - 1, n] = 10.0
    m = np.arange(2, n + 1)
    mat[m - 1, m] = 5.0
    return mat


class TestCLE:
    def test_no_tokens(self):
        assert cle_directed_mst(table_from(np.zeros((1, 1)))).heads == ()

    def test_single_token(self):
        table = table_from(np.zeros((2, 2)))
        assert cle_directed_mst(table).heads == (0,)

    def test_dominant_chain(self):
        mat = np.full((3, 3), -5.0)
        mat[0, 1] = 10.0
        mat[1, 2] = 10.0
        assert cle_directed_mst(table_from(mat)).heads == (0, 1)

    def test_cycle_resolution(self):
        # 1 and 2 prefer each other; must break the cycle via the root
        mat = np.full((3, 3), 0.0)
        mat[1, 2] = 10.0
        mat[2, 1] = 10.0
        mat[0, 1] = 2.0
        mat[0, 2] = 1.0
        tree = cle_directed_mst(table_from(mat))
        assert is_valid_tree(tree.heads)
        assert tree.heads in ((0, 1), (2, 0))

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(89)
        tables = []
        for _ in range(120):
            n = int(rng.integers(1, 8))
            tables.append(rng.normal(size=(n + 1, n + 1)))
        # and as many with integer scores in {0..3}: many ties
        rng = np.random.default_rng(90)
        for _ in range(120):
            n = int(rng.integers(1, 8))
            tables.append(rng.integers(0, 4, size=(n + 1, n + 1)).astype(float))
        for mat in tables:
            table = table_from(mat)
            tree = cle_directed_mst(table)
            assert is_valid_tree(tree.heads)
            got = sum(mat[h, m + 1] for m, h in enumerate(tree.heads))
            best, _ = exhaustive_best_arborescence(mat)
            assert got == pytest.approx(best, abs=1e-9)

    def test_matches_reference_heads_on_tied_tables(self):
        # the recursive reference fixes every tie; integer scores in
        # {0..3} with ~30% absent arcs make ties and -inf columns common
        rng = np.random.default_rng(2015)
        for i in range(5200):
            n = int(rng.integers(30, 71)) if i >= 5000 else int(rng.integers(1, 16))
            mat = rng.integers(0, 4, size=(n + 1, n + 1)).astype(float)
            mat[rng.random((n + 1, n + 1)) < 0.3] = -np.inf
            want = tuple(cle_heads_reference(mat)[1:].tolist())
            assert cle_directed_mst(table_from(mat)).heads == want, (i, mat)

    def test_deep_cycle_nest_matches_reference(self):
        # 299 nested contractions: deep, but within the reference's reach
        mat = ladder_scores(300)
        want = tuple(cle_heads_reference(mat)[1:].tolist())
        assert cle_directed_mst(table_from(mat)).heads == want

    def test_deeper_cycle_nest_than_the_recursion_limit(self):
        # one contraction per token: a recursive form needs 1100 frames
        tree = cle_directed_mst(table_from(ladder_scores(1100)))
        assert is_valid_tree(tree.heads)


def _model_preferring(sentence, arcs, mode, hash_bits=14):
    """A model whose weights make exactly the given arcs attractive."""
    model = Model.new(mode, hash_bits=hash_bits)
    for a, b in arcs:
        fv = (extract_directed(sentence, a, b, hash_bits=hash_bits)
              if mode == "directed"
              else extract_undirected(sentence, a, b, hash_bits=hash_bits))
        model.weights[fv.indices] += 1.0
    return model


class TestParseDispatch:
    def gold_arcs(self, directed):
        heads = FIXTURE.gold_heads
        if directed:
            return [(h, m + 1) for m, h in enumerate(heads)]
        return [(min(h, m + 1), max(h, m + 1)) for m, h in enumerate(heads)]

    def test_dominant_scores_recover_gold_everywhere(self):
        dmodel = _model_preferring(FIXTURE, self.gold_arcs(True), "directed")
        umodel = _model_preferring(FIXTURE, self.gold_arcs(False), "undirected")
        for system, model in (("d-mst", dmodel), ("u-mst-uf", umodel),
                              ("u-mst-df", dmodel), ("u-mst-uf-lep", umodel)):
            config = ParserConfig(system=system, seed=3)
            tree = parse(FIXTURE, model, config, directed_model=dmodel)
            assert tree.heads == FIXTURE.gold_heads, system

    def test_output_is_always_a_valid_tree(self):
        rng = np.random.default_rng(97)
        model = Model.new("undirected", hash_bits=12)
        model.weights = rng.normal(size=model.size())
        config = ParserConfig(system="u-mst-uf", seed=1)
        for k in range(1, 9):
            s = sent([(f"w{i}", "N") for i in range(k)],
                     _random_heads(rng, k))
            tree = parse(s, model, config, sentence_index=k)
            assert is_valid_tree(tree.heads)

    def test_pruning_setting_must_match_the_pruner(self):
        pruner = build_pruner([FIXTURE])
        umodel = Model.new("undirected", hash_bits=10)
        dmodel = Model.new("directed", hash_bits=10)
        for system, model in (("u-mst-uf", umodel), ("u-mst-uf-lep", umodel),
                              ("u-mst-df", dmodel)):
            with pytest.raises(InputError, match="needs a pruner"):
                parse(FIXTURE, model,
                      ParserConfig(system=system, pruning="length-dictionary"),
                      directed_model=dmodel)
            with pytest.raises(InputError, match="needs pruning"):
                parse(FIXTURE, model, ParserConfig(system=system),
                      directed_model=dmodel, pruner=pruner)
        # d-mst never prunes, so either combination parses
        for pruning, given in (("length-dictionary", None), ("none", pruner)):
            tree = parse(FIXTURE, dmodel,
                         ParserConfig(system="d-mst", pruning=pruning), pruner=given)
            assert is_valid_tree(tree.heads)

    def test_lep_requires_directed_model(self, monkeypatch):
        """u-mst-uf-lep without a directed model, or with an undirected
        one, fails before any parse graph is built."""
        import umstparse.inference as inference
        built = []
        monkeypatch.setattr(inference, "build_parse_graph",
                            lambda *args, **kwargs: built.append(args))
        umodel = _model_preferring(FIXTURE, self.gold_arcs(False), "undirected")
        for directed_model in (None, umodel):
            with pytest.raises(InputError, match="needs the directed"):
                parse(FIXTURE, umodel, ParserConfig(system="u-mst-uf-lep"),
                      directed_model=directed_model)
        assert built == []

    def test_mode_mismatch_rejected(self):
        """Each system names the model mode it needs, with its article."""
        umodel = Model.new("undirected", hash_bits=10)
        dmodel = Model.new("directed", hash_bits=10)
        for system, model, message in (
                ("d-mst", umodel, "d-mst needs a directed-mode model"),
                ("u-mst-df", umodel, "u-mst-df needs a directed-mode model"),
                ("u-mst-uf", dmodel, "u-mst-uf needs an undirected-mode model"),
                ("u-mst-uf-lep", dmodel,
                 "u-mst-uf-lep needs an undirected-mode model")):
            with pytest.raises(InputError) as info:
                parse(FIXTURE, model, ParserConfig(system=system),
                      directed_model=dmodel)
            assert str(info.value) == message

    def test_golden_trees_per_system(self):
        """Frozen parses of one dev sentence under a pinned tiny model."""
        from umstparse.conll import load_conll
        from umstparse.training import TrainConfig, train
        import pathlib
        root = pathlib.Path(__file__).parent.parent
        corpus = load_conll(root / "data" / "fixture_train.conll")[:30]
        target = load_conll(root / "data" / "fixture_dev.conll")[0]
        config = TrainConfig(epochs=2, seed=31, hash_bits=16)
        models = {s: train(corpus, replace(config, system=s))
                  for s in ("d-mst", "u-mst-uf", "u-mst-df")}
        models["u-mst-uf-lep"] = models["u-mst-uf"]
        golden = {
            "d-mst": (3, 3, 8, 3, 7, 7, 4, 0, 10, 8, 10, 14, 14, 11, 8),
            "u-mst-uf": (3, 3, 8, 3, 7, 7, 4, 0, 10, 8, 10, 14, 14, 11, 8),
            "u-mst-uf-lep": (3, 3, 8, 3, 7, 7, 4, 0, 10, 8, 10, 14, 14, 11, 8),
            "u-mst-df": (3, 3, 8, 3, 7, 7, 4, 0, 10, 8, 8, 14, 14, 11, 8),
        }
        for system, want in golden.items():
            tree = parse(target, models[system],
                         ParserConfig(system=system, seed=31),
                         directed_model=models["d-mst"], sentence_index=0)
            assert tree.heads == want, system

    def test_msf_on_parse_graph_is_spanning(self):
        rng = np.random.default_rng(103)
        model = Model.new("undirected", hash_bits=12)
        model.weights = rng.normal(size=model.size())
        s = sent([(f"w{i}", "N") for i in range(7)], _random_heads(rng, 7))
        pg, _ = build_parse_graph(s, model)
        forest = kruskal_msf(pg.graph)
        assert forest.n_edges == len(s)  # n+1 vertices -> n edges
