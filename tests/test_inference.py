import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from umstparse.conll import DependencyTree, Sentence, Token, is_valid_tree, load_conll
from umstparse.errors import InputError, StructureError
from umstparse.features import Model, SentenceFeatures, extract_directed, extract_undirected
from umstparse.graph import UndirectedGraph
from umstparse.inference import (
    DirectedScoreTable,
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
from umstparse.mst import SpanningForest, kruskal_msf

from oracles import exhaustive_best_arborescence, join_sentences, local_enhancement_oracle

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
        pruner, sentences = bundled
        for s in sentences:
            n = len(s)
            expected = np.zeros((n + 1, n + 1), dtype=bool)
            for h in range(n + 1):
                for m in range(1, n + 1):
                    expected[h, m] = h != m and pruner.allows(s, h, m)
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
        from umstparse.features import score
        for eid, (i, j) in enumerate(pg.pairs):
            fv = extract_undirected(FIXTURE, i, j, hash_bits=12)
            assert pg.graph.weight[eid] == pytest.approx(-score(model, fv))

    def test_directed_mode_combines_both_arcs(self):
        rng = np.random.default_rng(61)
        model = Model.new("directed", combiner="mean", hash_bits=12)
        model.weights = rng.normal(size=model.size())
        pg, table = build_parse_graph(FIXTURE, model)
        from umstparse.features import score
        for eid, (u, v) in enumerate(pg.pairs):
            s_uv = score(model, extract_directed(FIXTURE, u, v, hash_bits=12))
            if u == 0:
                expected = s_uv
            else:
                s_vu = score(model, extract_directed(FIXTURE, v, u, hash_bits=12))
                expected = (s_uv + s_vu) / 2.0
            assert pg.graph.weight[eid] == pytest.approx(-expected)
        assert table is not None

    @pytest.mark.parametrize("combiner", ["mean", "product"])
    def test_directed_mode_matches_scalar_rule(self, bundled, combiner):
        """Directed-mode graphs equal a per-pair loop over the score table,
        with pruned caches and with the unpruned caches training uses."""
        pruner, sentences = bundled
        model = Model.new("directed", combiner=combiner, hash_bits=12)
        model.weights = np.random.default_rng(71).normal(size=model.size())
        for s in sentences[::10]:
            n = len(s)
            for cache in (None, SentenceFeatures(s, "directed", 12)):
                pg, table = build_parse_graph(s, model, pruner, cache)
                pairs, weights = [], []
                for u in range(n + 1):
                    for v in range(u + 1, n + 1):
                        fwd = table.present(u, v) and pruner.allows(s, u, v)
                        rev = u != 0 and table.present(v, u) and pruner.allows(s, v, u)
                        if fwd and rev:
                            w = combine(table.get(u, v), table.get(v, u), combiner)
                        elif fwd or rev:
                            w = table.get(u, v) if fwd else table.get(v, u)
                        else:
                            continue
                        pairs.append((u, v))
                        weights.append(-w)
                assert pg.pairs == pairs
                assert pg.graph.weight.tolist() == weights

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
            pg, _ = build_parse_graph(s, model, pruner)
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


def table_from(matrix):
    m = np.asarray(matrix, dtype=float)
    return DirectedScoreTable(m.shape[0] - 1, m)


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
        """Every arc the lazy scorer is asked about, in any order and with
        repeats, scores the very float of the full table; LEP on either
        gives the same tree."""
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
            for p in (None, pruner):
                full = directed_score_table(s, model, p).matrix
                lazy = LazyArcScores(s, model, p)
                for _ in range(3):
                    h = rng.integers(0, n + 1, size=2 * n)
                    m = rng.integers(0, n + 1, size=2 * n)
                    assert lazy.scores(h, m).tobytes() == full[h, m].tobytes()
                tree = DependencyTree(heads=tuple(heads))
                assert local_enhancement(tree, LazyArcScores(s, model, p)) == \
                    local_enhancement(tree, table_from(full))
                h, m = np.divmod(np.arange((n + 1) ** 2), n + 1)
                assert lazy.scores(h, m).tobytes() == full.tobytes()

    def test_one_hashing_call_per_round(self, bundled, monkeypatch):
        import umstparse.inference as inference
        calls = []
        real = inference.hash_arcs

        def counting(*args):
            calls.append(len(args[2]))
            return real(*args)

        monkeypatch.setattr(inference, "hash_arcs", counting)
        s = bundled[1][-1]
        model = Model.new("directed", hash_bits=12)
        model.weights = np.random.default_rng(137).normal(size=model.size())
        tree = DependencyTree(heads=tuple(_random_heads(np.random.default_rng(139), len(s))))
        local_enhancement(tree, LazyArcScores(s, model), rounds=5)
        assert 1 <= len(calls) <= 5
        assert sum(calls) <= 4 * len(s) * 5 < len(s) ** 2

    def test_lazy_scorer_needs_directed_model(self):
        with pytest.raises(InputError):
            LazyArcScores(FIXTURE, Model.new("undirected", hash_bits=10))


class TestCLE:
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
        for _ in range(120):
            n = int(rng.integers(1, 8))
            mat = rng.normal(size=(n + 1, n + 1))
            table = table_from(mat)
            tree = cle_directed_mst(table)
            assert is_valid_tree(tree.heads)
            got = sum(mat[h, m + 1] for m, h in enumerate(tree.heads))
            best, _ = exhaustive_best_arborescence(mat)
            assert got == pytest.approx(best, abs=1e-9)


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

    def test_backends_agree(self):
        rng = np.random.default_rng(101)
        model = Model.new("undirected", hash_bits=12)
        model.weights = rng.normal(size=model.size())
        s = sent([(f"w{i}", "N") for i in range(6)], _random_heads(rng, 6))
        a = parse(s, model, ParserConfig(system="u-mst-uf", mst_backend="randomized"))
        b = parse(s, model, ParserConfig(system="u-mst-uf", mst_backend="boruvka"))
        assert a.heads == b.heads

    def test_lep_requires_directed_model(self):
        umodel = _model_preferring(FIXTURE, self.gold_arcs(False), "undirected")
        with pytest.raises(InputError):
            parse(FIXTURE, umodel, ParserConfig(system="u-mst-uf-lep"))

    def test_mode_mismatch_rejected(self):
        umodel = Model.new("undirected", hash_bits=10)
        with pytest.raises(InputError):
            parse(FIXTURE, umodel, ParserConfig(system="d-mst"))

    def test_golden_trees_per_system(self):
        """Frozen parses of one dev sentence under a pinned tiny model."""
        from umstparse.conll import load_conll
        from umstparse.training import TrainConfig, train_suite
        import pathlib
        root = pathlib.Path(__file__).parent.parent
        train = load_conll(root / "data" / "fixture_train.conll")[:30]
        target = load_conll(root / "data" / "fixture_dev.conll")[0]
        config = TrainConfig(epochs=2, seed=31, hash_bits=16)
        models = train_suite(train, ["d-mst", "u-mst-uf", "u-mst-df"], config)
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
