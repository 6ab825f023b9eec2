"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  Criterion 8 trains on the bundled fixture treebank and takes
the bulk of the runtime; criterion 7 benchmarks graphs of up to a million
edges.  Everything is seeded and deterministic.
"""

from __future__ import annotations

import itertools
import math
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from umstparse.bench import run_bench
from umstparse.cli import main as cli_main
from umstparse.conll import DependencyTree, is_valid_tree, load_conll
from umstparse.evaluate import head_to_head, oracle_combine, score
from umstparse.features import Model
from umstparse.graph import UndirectedGraph
from umstparse.inference import (
    ParserConfig,
    build_parse_graph,
    build_pruner,
    cle_directed_mst,
    direct_tree,
    local_enhancement,
    parse,
    swap_gain,
)
from umstparse.mst import (
    RandomSource,
    SpanningForest,
    boruvka_msf,
    f_heavy_edges,
    kruskal_msf,
    randomized_msf,
)
from umstparse.training import TrainConfig, train

from oracles import (
    exhaustive_best_arborescence,
    exhaustive_min_spanning_weight,
    forest_path_max,
    random_graph,
)

ROOT = Path(__file__).parent.parent
TRAIN_CONLL = ROOT / "data" / "fixture_train.conll"
DEV_CONLL = ROOT / "data" / "fixture_dev.conll"


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} FAIL: {text}", flush=True)
        raise
    print(f"\nACCEPTANCE {num:02d} PASS: {text}", flush=True)


def graph_of(n, u, v, w):
    return UndirectedGraph(n, u, v, w, np.arange(len(u)))


def test_01_msf_oracle_equivalence():
    """1000 random graphs x 3 seeds: randomized and Boruvka == Kruskal."""
    with criterion(1, "randomized/Boruvka forests match the Kruskal oracle "
                      "on 1000 graphs x 3 seeds in under a minute"):
        rng = np.random.default_rng(20260801)
        start = time.perf_counter()
        for _ in range(1000):
            n = int(rng.integers(2, 201))
            max_m = n * (n - 1) // 2
            m = n - 1 + int(rng.random() * (max_m - (n - 1) + 1))
            u, v, w = random_graph(rng, n, m)
            g = graph_of(n, u, v, w)
            want = kruskal_msf(g).edge_ids
            assert boruvka_msf(g).edge_ids == want
            for seed in (1, 2, 3):
                assert randomized_msf(g, RandomSource(seed)).edge_ids == want
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_02_small_instance_exhaustive():
    """Kruskal total weight equals full spanning-tree enumeration, n <= 8."""
    with criterion(2, "Kruskal equals exhaustive spanning-tree enumeration "
                      "on 200 graphs with n <= 8"):
        rng = np.random.default_rng(20260802)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            max_m = n * (n - 1) // 2
            m = n - 1 + int(rng.random() * (max_m - (n - 1) + 1))
            u, v, w = random_graph(rng, n, m)
            g = graph_of(n, u, v, w)
            best = exhaustive_min_spanning_weight(
                n, zip(u.tolist(), v.tolist(), w.tolist()))
            assert abs(kruskal_msf(g).total_weight - best) <= 1e-9


def test_03_f_heavy_brute_force():
    """f_heavy_edges equals per-edge BFS path maxima on 500 pairs."""
    with criterion(3, "F-heavy filter matches BFS path-max brute force on "
                      "500 (graph, forest) pairs"):
        rng = np.random.default_rng(20260803)
        for _ in range(500):
            n = int(rng.integers(2, 41))
            m = int(rng.integers(n - 1, min(5 * n, n * (n - 1) // 2) + 1))
            u, v, w = random_graph(rng, n, m)
            g = graph_of(n, u, v, w)
            forest = kruskal_msf(g)
            fedges = [(int(u[i]), int(v[i]), float(w[i]))
                      for i in range(len(u)) if i in forest.edge_ids]
            expected = set()
            for i in range(len(u)):
                if i in forest.edge_ids:
                    continue
                pmax = forest_path_max(n, fedges, int(u[i]), int(v[i]))
                if pmax is not None and w[i] > pmax:
                    expected.add(i)
            assert f_heavy_edges(g, forest) == expected


def test_04_cle_exhaustive():
    """CLE score equals exhaustive arborescence enumeration, n <= 7."""
    with criterion(4, "CLE total score equals exhaustive arborescence "
                      "enumeration on 500 tables with n <= 7 (tol 1e-9)"):
        rng = np.random.default_rng(20260804)
        for _ in range(500):
            n = int(rng.integers(1, 8))
            mat = rng.normal(size=(n + 1, n + 1)) * 5.0
            tree = cle_directed_mst(mat)
            assert is_valid_tree(tree.heads)
            got = sum(mat[h, m + 1] for m, h in enumerate(tree.heads))
            best, _ = exhaustive_best_arborescence(mat)
            assert abs(got - best) <= 1e-9


def _random_tree_heads(rng, n):
    return [int(rng.integers(0, i)) for i in range(1, n + 1)]


def test_05_directing():
    """direct_tree validity, round-trip, and forced-orientation uniqueness."""
    with criterion(5, "tree directing is valid, lossless, and the unique "
                      "root-compatible orientation (1000 trees)"):
        rng = np.random.default_rng(20260805)
        for i in range(1000):
            n = int(rng.integers(1, 41)) if i >= 250 else int(rng.integers(1, 8))
            heads = _random_tree_heads(rng, n)
            edges = [(h, m + 1, 1.0) for m, h in enumerate(heads)]
            perm = rng.permutation(n).tolist()
            g = UndirectedGraph.from_edges(n + 1, [edges[j] for j in perm])
            forest = SpanningForest(edge_ids=frozenset(range(n)),
                                    total_weight=float(n))
            tree = direct_tree(g, forest)
            assert is_valid_tree(tree.heads)
            got_pairs = {(min(h, m + 1), max(h, m + 1))
                         for m, h in enumerate(tree.heads)}
            want_pairs = {(min(h, m + 1), max(h, m + 1))
                          for m, h in enumerate(heads)}
            assert got_pairs == want_pairs
            if n <= 7:
                # brute force over all orientations: exactly one satisfies
                # root in-degree 0 + single head per vertex, and it is ours
                pair_list = sorted(want_pairs)
                valid = []
                for bits in itertools.product((0, 1), repeat=len(pair_list)):
                    cand = {}
                    indeg_ok = True
                    for (a, b), bit in zip(pair_list, bits):
                        head, dep = (a, b) if bit == 0 else (b, a)
                        if dep == 0 or dep in cand:
                            indeg_ok = False
                            break
                        cand[dep] = head
                    if indeg_ok and len(cand) == n and is_valid_tree(
                            tuple(cand[m] for m in range(1, n + 1))):
                        valid.append(tuple(cand[m] for m in range(1, n + 1)))
                assert valid == [tree.heads]


def test_06_local_enhancement():
    """Worked gain identity, per-round monotonicity, identity at 0 rounds."""
    with criterion(6, "rewiring gain reproduces the worked example (gain 1), "
                      "keeps trees valid with non-decreasing directed score, "
                      "and 0 rounds is the identity"):
        assert swap_gain(4.0, 3.0, 5.0, 1.0) == 1.0
        rng = np.random.default_rng(20260806)
        for _ in range(1000):
            n = int(rng.integers(2, 11))
            heads = _random_tree_heads(rng, n)
            mat = rng.normal(size=(n + 1, n + 1)) * 3.0
            tree = DependencyTree(heads=tuple(heads))
            assert local_enhancement(tree, mat, rounds=0).heads == tree.heads
            prev = sum(mat[h, m + 1] for m, h in enumerate(tree.heads))
            for _round in range(5):
                tree = local_enhancement(tree, mat, rounds=1)
                assert is_valid_tree(tree.heads)
                cur = sum(mat[h, m + 1] for m, h in enumerate(tree.heads))
                assert cur >= prev - 1e-9
                prev = cur


def test_07_bench_scaling(tmp_path):
    """Randomized MSF wall time grows near-linearly in the edge count."""
    with criterion(7, "log-log slope of median randomized-MSF time over "
                      "m in {1e4, 1e5, 1e6} lies in [0.8, 1.4]"):
        out = tmp_path / "bench.csv"
        rc = cli_main(["bench", "--sizes", "10000,100000,1000000",
                       "--densities", "8", "--seeds", "1,2,3",
                       "--algorithms", "randomized", "--out", str(out)])
        assert rc == 0
        times: dict[int, list[int]] = {}
        for row in out.read_text().splitlines()[1:]:
            algo, n, m, seed, ns, tw = row.split(",")
            times.setdefault(int(m), []).append(int(ns))
        assert sorted(times) == [10_000, 100_000, 1_000_000]
        med = {m: sorted(v)[len(v) // 2] for m, v in times.items()}
        slope = ((math.log(med[1_000_000]) - math.log(med[10_000]))
                 / (math.log(1_000_000) - math.log(10_000)))
        assert 0.8 <= slope <= 1.4, f"slope {slope:.3f}"
        print(f"\n  bench medians (ms): "
              f"{ {m: round(v / 1e6, 1) for m, v in med.items()} }, "
              f"slope {slope:.3f}", flush=True)


@pytest.fixture(scope="module")
def fixture_run():
    """Train the model suite on the bundled treebank and parse the dev set."""
    train_corpus = load_conll(TRAIN_CONLL)
    dev = load_conll(DEV_CONLL)
    assert len(train_corpus) >= 500
    config = TrainConfig(epochs=10, seed=13, pruning="length-dictionary")
    models = {s: train(train_corpus, replace(config, system=s))
              for s in ("d-mst", "u-mst-uf", "u-mst-df")}
    models["u-mst-uf-lep"] = models["u-mst-uf"]
    pruner = build_pruner(train_corpus)

    def parse_all(system, model, dmodel=None, prune=True):
        cfg = ParserConfig(system=system, seed=13,
                           pruning="length-dictionary" if prune else "none")
        return [parse(s, model, cfg, directed_model=dmodel,
                      pruner=pruner if prune else None, sentence_index=i)
                for i, s in enumerate(dev)]

    preds = {
        "d-mst": parse_all("d-mst", models["d-mst"], prune=False),
        "u-mst-uf": parse_all("u-mst-uf", models["u-mst-uf"]),
        "u-mst-uf-lep": parse_all("u-mst-uf-lep", models["u-mst-uf-lep"],
                                  dmodel=models["d-mst"]),
        "u-mst-df": parse_all("u-mst-df", models["u-mst-df"]),
    }
    return train_corpus, dev, models, pruner, preds


def test_08_fixture_relative_ordering(fixture_run):
    """Comparative behavior of the four systems on the bundled treebank."""
    with criterion(8, "fixture treebank orderings: lep >= uf, uf > df, "
                      "|d-mst - lep| <= 3, oracle strictly dominant"):
        _, dev, _, _, preds = fixture_run
        d_uas = {name: score(dev, p).d_uas for name, p in preds.items()}
        print(f"\n  dev D-UAS: "
              f"{ {k: round(v, 2) for k, v in d_uas.items()} }", flush=True)
        assert d_uas["u-mst-uf-lep"] >= d_uas["u-mst-uf"]          # (a)
        assert d_uas["u-mst-uf"] > d_uas["u-mst-df"]               # (b)
        assert abs(d_uas["d-mst"] - d_uas["u-mst-uf-lep"]) <= 3.0  # (c)
        oracle = oracle_combine(dev, preds["d-mst"], preds["u-mst-uf-lep"])
        assert oracle.d_uas >= d_uas["d-mst"] - 1e-12              # (d)
        differ = any(a.heads != b.heads for a, b in
                     zip(preds["d-mst"], preds["u-mst-uf-lep"]))
        assert differ
        assert oracle.d_uas > d_uas["d-mst"]
        pa, pb, tie = head_to_head(dev, preds["d-mst"], preds["u-mst-uf-lep"])
        assert pa + pb + tie == pytest.approx(100.0)


def test_09_pruning_properties(fixture_run):
    """Gold retention on the training set; undirected rule recount on dev."""
    with criterion(9, "pruner keeps 100% of its own gold edges and the "
                      "pair-survives-iff-either-direction-does rule matches "
                      "a brute-force recount"):
        train_corpus, dev, models, pruner, _ = fixture_run
        for s in train_corpus:
            for m0, h in enumerate(s.gold_heads):
                assert pruner.allows(s, h, m0 + 1)
        # independent recount of the length dictionary from raw gold data
        seen: dict[tuple, int] = {}
        for s in train_corpus:
            for m0, h in enumerate(s.gold_heads):
                if h == 0:
                    continue
                key = (s.tokens[h - 1].postag, s.tokens[m0].postag,
                       1 if (m0 + 1) > h else -1)
                seen[key] = max(seen.get(key, 0), abs(m0 + 1 - h))

        def directed_pruned(s, head, mod):
            if head == 0:
                return False
            key = (s.tokens[head - 1].postag, s.tokens[mod - 1].postag,
                   1 if mod > head else -1)
            return key not in seen or abs(mod - head) > seen[key]

        model = Model.new("undirected", hash_bits=12)
        for s in dev:
            pg, _ = build_parse_graph(s, model, pruner.mask(s))
            got = set(pg.pairs)
            n = len(s)
            expected = set()
            for i in range(0, n + 1):
                for j in range(i + 1, n + 1):
                    both_pruned = directed_pruned(s, i, j) and \
                        directed_pruned(s, j, i)
                    if not both_pruned:
                        expected.add((i, j))
            assert got == expected


def test_10_pipeline_determinism(tmp_path):
    """Two identical train->parse->eval runs are byte-identical."""
    with criterion(10, "two full pipeline runs produce byte-identical "
                       "models, predictions, and reports"):
        from umstparse.conll import save_conll
        train = load_conll(TRAIN_CONLL)[:100]
        dev = load_conll(DEV_CONLL)[:40]
        train_path = tmp_path / "train.conll"
        dev_path = tmp_path / "dev.conll"
        save_conll(train_path, train)
        save_conll(dev_path, dev)

        def pipeline(tag):
            base = tmp_path / tag
            base.mkdir()
            dmodel = base / "d-mst.model"
            umodel = base / "uf.model"
            flags = ["--epochs", "3", "--seed", "21", "--hash-bits", "18",
                     "--threads", "1"]
            assert cli_main(["train", "--train", str(train_path),
                             "--model-out", str(dmodel), "--system", "d-mst",
                             *flags]) == 0
            assert cli_main(["train", "--train", str(train_path),
                             "--model-out", str(umodel), "--system", "u-mst-uf",
                             *flags]) == 0
            pred_d = base / "pred_d.conll"
            pred_u = base / "pred_lep.conll"
            assert cli_main(["parse", "--model", str(dmodel), "--input",
                             str(dev_path), "--output", str(pred_d),
                             "--seed", "21", "--threads", "1"]) == 0
            assert cli_main(["parse", "--model", str(umodel),
                             "--directed-model", str(dmodel),
                             "--system", "u-mst-uf-lep", "--input",
                             str(dev_path), "--output", str(pred_u),
                             "--seed", "21", "--threads", "1"]) == 0
            report = base / "report.csv"
            assert cli_main(["eval", "--gold", str(dev_path), "--pred",
                             str(pred_d), "--pred-b", str(pred_u),
                             "--csv", str(report)]) == 0
            return [dmodel, umodel, Path(str(dmodel) + ".trainlog.csv"),
                    Path(str(umodel) + ".trainlog.csv"), pred_d, pred_u, report]

        first = pipeline("run1")
        second = pipeline("run2")
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes(), (a, b)
