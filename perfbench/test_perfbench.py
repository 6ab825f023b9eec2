"""Self-tests of the benchmark's own pieces.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import os
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from umstparse import conll, features, graph, inference, mst, training, unionfind  # noqa: E402
from umstparse.conll import DependencyTree, is_valid_tree  # noqa: E402

DEV = os.path.join(os.path.dirname(HERE), "data", "fixture_dev.conll")


@pytest.fixture(scope="module")
def dev():
    return conll.load_conll(DEV)


def test_joined_sentences_are_valid_and_seeded(dev):
    count = workloads.LONG_DEV
    first = workloads.long_sentences(dev, 7, count)
    again = workloads.long_sentences(dev, 7, count)
    other = workloads.long_sentences(dev, 8, count)
    assert first == again
    assert first != other
    lengths = [tokens for _, tokens in workloads.long_lengths(count)]
    assert [len(s) for s in first] == lengths == [len(s) for s in other]
    assert max(lengths) == 70 and 34 <= sum(lengths) / len(lengths) <= 37
    for sent in first:
        assert is_valid_tree(sent.gold_heads)
        assert [t.index for t in sent.tokens] == list(range(1, len(sent) + 1))


def test_join_keeps_each_part_rooted(dev):
    a, b = dev[0], dev[1]
    joined = workloads.join_sentences([a, b])
    assert joined.gold_heads[:len(a)] == a.gold_heads
    assert joined.gold_heads[len(a):] == tuple(
        0 if h == 0 else h + len(a) for h in b.gold_heads)
    assert joined.gold_heads.count(0) == a.gold_heads.count(0) + b.gold_heads.count(0)


def test_wrong_tree_is_a_failure():
    tally = workloads.Tally()
    tally.record(workloads.tree_ok(DependencyTree((0, 1, 2)), 3), "chain")
    tally.record(workloads.tree_ok(DependencyTree((2, 1, 0)), 3), "cycle")
    tally.record(workloads.tree_ok(DependencyTree((0, 1)), 3), "too short")
    tally.record(workloads.tree_ok(None, 3), "exception")
    assert (tally.attempted, tally.failed) == (4, 3)
    assert tally.errors == ["cycle", "too short", "exception"]


def test_wrong_forest_is_a_failure():
    g = graph.UndirectedGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5),
                                             (0, 3, 3.0), (0, 2, 2.5)])
    oracle = mst.kruskal_msf(g).edge_ids
    tally = workloads.Tally()
    tally.record(workloads.forest_ok(mst.randomized_msf(g, mst.RandomSource(1)), oracle), "ok")
    tally.record(workloads.forest_ok(mst.boruvka_msf(g), oracle), "ok")
    swapped = mst.SpanningForest(edge_ids=(oracle - {min(oracle)}) | {3},
                                 total_weight=0.0)
    tally.record(workloads.forest_ok(swapped, oracle), "swapped edge")
    tally.record(workloads.forest_ok(None, oracle), "exception")
    assert (tally.attempted, tally.failed) == (4, 2)


def _targets():
    return [(owner, attr) for owner, attr, _, _ in tracer_mod.TARGETS] + \
        [(unionfind.UnionFind, "union")]


def test_tracer_wraps_and_restores_every_name():
    before = {(id(o), a): getattr(o, a) for o, a in _targets()}
    with pytest.raises(RuntimeError):
        with tracer_mod.Tracer():
            for owner, attr in _targets():
                current = getattr(owner, attr)
                assert current is not before[(id(owner), attr)]
                assert current.__wrapped__ is before[(id(owner), attr)]
            raise RuntimeError("restore even on error")
    for owner, attr in _targets():
        assert getattr(owner, attr) is before[(id(owner), attr)]
    # methods stay defined on their own class, not shadowed copies
    assert "score_all" in vars(features.SentenceFeatures)
    assert "union" in vars(unionfind.UnionFind)


def test_tracer_spans_counts_and_self_time(dev):
    corpus = dev[:20]
    model = training.train(corpus, training.TrainConfig(system="u-mst-uf", epochs=1))
    cfg = inference.ParserConfig(system="u-mst-uf")
    with tracer_mod.Tracer() as tr:
        tr.context = "u-mst-uf"
        trees = [inference.parse(s, model, cfg, sentence_index=i)
                 for i, s in enumerate(corpus)]
    assert all(workloads.tree_ok(t, len(s)) for t, s in zip(trees, corpus))
    stats = tracer_mod.SpanStats(tr.spans)
    assert stats.calls_of("inference.parse") == len(corpus)
    assert stats.calls_of("features.featurize.undirected", "u-mst-uf") == len(corpus)
    assert stats.calls_of("mst.randomized_msf", ("d-mst", "u-mst-uf")) == len(corpus)
    assert stats.calls_of("graph.boruvka_step", "u-mst-uf") >= len(corpus)
    assert stats.calls_of("graph.boruvka_step", "d-mst") == 0
    # self time excludes the featurize and score_all children
    assert 0 < stats.self_ms("inference.build_parse_graph") \
        < stats.total_ms("inference.build_parse_graph")
    n = sum(len(s) * (len(s) + 1) // 2 for s in corpus)
    assert tr.counts[("inference.graph_pairs", "u-mst-uf")] == n
    assert tr.counts[("unionfind.union", "u-mst-uf")] > 0
    # every parse's forest is kept for the check against Kruskal's
    assert len(tr.forests) == len(corpus)
    assert all(workloads.forest_ok(f, mst.kruskal_msf(g).edge_ids) for g, f in tr.forests)
    # every span of one parse carries that parse's operation id
    ops = {rec[5] for rec in tr.spans}
    assert len(ops) == len(corpus)
    metrics = workloads.layer_metrics(stats, tr.counts)
    assert metrics["inference.kept_ratio.u-mst-uf"][0] == 1.0   # unpruned parse
    assert metrics["features.pairs.undirected"][0] == pytest.approx(
        n / len(corpus))


def test_training_predictions_are_checked_and_updates_counted(dev):
    corpus = dev[:10]
    with tracer_mod.Tracer() as tr:
        tr.context = "train.d-mst"
        training.train_full(corpus, training.TrainConfig(system="d-mst", epochs=2))
    assert tr.counts[("training.predictions", "train.d-mst")] == 2 * len(corpus)
    assert 0 < tr.counts[("training.updates", "train.d-mst")] <= 2 * len(corpus)
    assert tr.invalid_predictions == 0
    metrics = workloads.layer_metrics(tracer_mod.SpanStats(tr.spans), tr.counts)
    assert metrics["training.update_ratio.d-mst"][0] == pytest.approx(
        tr.counts[("training.updates", "train.d-mst")] / (2 * len(corpus)))
    # training spans stay out of the parse-time layer figures
    assert metrics["features.featurize_ms.directed"][0] == 0.0


def test_every_workload_reports_the_same_metric_names(tmp_path):
    names = None
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(workloads.Paths(os.path.dirname(HERE), str(tmp_path)), 1)
        m = workloads.Measured()
        for system in workloads.TRAINED:
            m.samples[f"train_tok_s.{system}"].append(1.0)
        for system in workloads.SYSTEMS:
            m.samples[f"tok_s.{system}"].append(1.0)
            m.samples[f"latency.{system}"].extend([0.001, 0.002])
        keys = (set(wl.end_to_end(m)),
                set(wl.per_layer(tracer_mod.SpanStats([]), Counter())))
        assert names is None or keys == names, name
        names = keys


def test_failed_forest_check_is_counted(tmp_path):
    g = graph.UndirectedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
    wrong = mst.SpanningForest(edge_ids=frozenset({1, 2}), total_weight=5.0)
    wl = workloads.Short(workloads.Paths(os.path.dirname(HERE), str(tmp_path)), 1)
    tally = workloads.Tally()
    wl.check_forests(tally, [(g, mst.randomized_msf(g, mst.RandomSource(1))), (g, wrong)])
    assert (tally.attempted, tally.failed) == (2, 1)


def test_percentile_matches_statistics():
    values = list(np.linspace(0.0, 1.0, 101))
    assert workloads.percentile(values, 90) == pytest.approx(0.9)
