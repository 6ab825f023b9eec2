"""The benchmark's workloads, their inputs and the checks on their outputs.

Every workload is the same user session on a different treebank: train
the three trained systems, then parse the dev part with all four systems
using the models just saved.  It is a closed loop with one caller in one
process and no threads: the next operation starts when the previous one
returns.  Inputs depend on nothing but the workload seed.  A workload
offers

* ``setup()``: the set-up a user repeats per run, returning the seconds of
  each repetition (run.py reports their median as ``setup_s``);
* ``warm_up(tally)``: a few untimed, checked operations;
* ``measure(tally, seconds=..., rounds=..., tracer=...)``: the timed
  rounds, returning a :class:`Measured`;
* ``end_to_end(measured)`` and ``per_layer(stats, counts)``: the metrics;
* ``report(tally)``: untimed output checks plus hashes and accuracies.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from clock import LappingCorpus, Stopwatch
from umstparse import conll, evaluate, features, inference, mst, training
from umstparse.conll import DependencyTree, Sentence, is_valid_tree
from umstparse.inference import ParserConfig
from umstparse.training import TrainConfig

SYSTEMS = ("d-mst", "u-mst-uf", "u-mst-uf-lep", "u-mst-df")
TRAINED = ("d-mst", "u-mst-uf", "u-mst-df")
# README training settings; the acceptance suite trains the same way
EPOCHS = 10
SETUP_REPEATS = 3
# two rounds give every percentile at least 12 samples beyond it
MIN_ROUNDS = 2
PERCENTILE = 90

# long: sentence i joins 2 + i % 4 sentences into exactly
# round(parts * 10 * scale) tokens, scale cycling through LONG_SCALE.  The
# lengths are fixed (mean 35.7, max 70 over every 20 sentences); the seed
# picks the contents, so throughput does not drift with the length mix
# from seed to seed.
LONG_SCALE = (0.7, 0.85, 1.0, 1.15, 1.4)
# short trains on the first half of the bundled training set, so that a
# round (training plus ten parse passes) stays near 20 s
SHORT_TRAIN = 300
LONG_DEV = 60
LONG_TRAIN = 40
# the long training set is the same for every workload seed: how many
# perceptron updates training makes depends on the sentences, and with
# them the training time
LONG_TRAIN_SEED = 13


class Tally:
    """Operations attempted and failed; a failure keeps its description."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok


def tree_ok(tree, n: int) -> bool:
    """A prediction is correct when it is a tree over exactly n tokens."""
    return tree is not None and len(tree.heads) == n and is_valid_tree(tree.heads)


def forest_ok(forest, oracle_ids) -> bool:
    """A forest is correct when its edge ids are exactly the oracle's."""
    return forest is not None and forest.edge_ids == oracle_ids


def sha256_of(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive method) of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def long_lengths(count: int) -> list[tuple[int, int]]:
    """(parts, tokens) of each joined long sentence."""
    out = []
    for i in range(count):
        parts = 2 + i % 4
        out.append((parts, round(parts * 10 * LONG_SCALE[(i // 4) % len(LONG_SCALE)])))
    return out


def join_sentences(parts: list[Sentence]) -> Sentence:
    """Concatenate sentences; heads shift with their part and every part
    keeps its own arc from the root, so joined gold trees stay valid."""
    tokens, heads, labels = [], [], []
    for part in parts:
        offset = len(tokens)
        tokens.extend(dataclasses.replace(t, index=offset + t.index)
                      for t in part.tokens)
        heads.extend(0 if h == 0 else h + offset for h in part.gold_heads)
        labels.extend(part.gold_labels)
    return Sentence(tokens=tuple(tokens), gold_heads=tuple(heads),
                    gold_labels=tuple(labels))


def long_sentences(pool: list[Sentence], seed: int, count: int) -> list[Sentence]:
    """Seeded joined sentences with the lengths of :func:`long_lengths`.

    All parts but the last are drawn at random from ``pool``; the last is
    drawn among the sentences whose length completes the target exactly.
    """
    rng = np.random.default_rng([seed, 1])
    by_length = defaultdict(list)
    for i, sent in enumerate(pool):
        by_length[len(sent)].append(i)
    out = []
    for parts, target in long_lengths(count):
        while True:
            first = rng.integers(0, len(pool), size=parts - 1).tolist()
            rest = target - sum(len(pool[j]) for j in first)
            if rest in by_length:
                break
        last = by_length[rest][int(rng.integers(0, len(by_length[rest])))]
        out.append(join_sentences([pool[j] for j in first] + [pool[last]]))
    return out


@dataclass
class Measured:
    rounds: int = 0
    work_s: float = 0.0                       # sum of the timed regions
    samples: dict = field(default_factory=lambda: defaultdict(list))


class Paths:
    def __init__(self, root: str, work: str):
        self.root = root
        self.work = work
        self.train = os.path.join(root, "data", "fixture_train.conll")
        self.dev = os.path.join(root, "data", "fixture_dev.conll")

    def out(self, name: str) -> str:
        return os.path.join(self.work, name)


def _keep_going(done: int, start: float, seconds, rounds) -> bool:
    if rounds is not None:
        return done < rounds
    return done < MIN_ROUNDS or time.perf_counter() - start < seconds


class Session:
    """Train, save, reload and parse, in rounds.

    A round trains d-mst, u-mst-uf and u-mst-df (README settings: 10
    epochs; length-dictionary pruning where the workload prunes), saving
    each model file; then it reloads the three models with ``load_model``
    (untimed) and, ``parse_repeats`` times, parses the dev part with each
    of the four systems (u-mst-uf-lep uses the u-mst-uf and d-mst models).
    The training corpus keeps one order for every seed, and the seed is
    the training seed, which drives only the randomized MSF's coin flips:
    the forest is unique, so model files come out identical for every
    seed.  d-mst is never pruned.
    """

    pruned = True
    parse_repeats = 1

    def __init__(self, paths: Paths, seed: int):
        self.paths = paths
        self.seed = seed
        self.input = paths.out("input.conll")
        self.first_sha: dict = {}
        self.first_trees: dict = {}

    def treebank(self, train: list[Sentence], dev: list[Sentence]):
        """(training corpus, dev sentences) from the bundled data."""
        raise NotImplementedError

    def setup(self) -> list[float]:
        """Read the treebank, derive the workload's sentences, build the
        pruner and write the parse input, SETUP_REPEATS times."""
        times = []
        for _ in range(SETUP_REPEATS):
            watch = Stopwatch(repeats=3)
            corpus, dev = self.treebank(conll.load_conll(self.paths.train),
                                        conll.load_conll(self.paths.dev))
            self.pruner = inference.build_pruner(corpus) if self.pruned else None
            conll.save_conll(self.input, dev)
            watch.lap()
            times.append(watch.scaled_s)
        self.corpus = corpus
        self.sentences = conll.load_conll(self.input)
        self.n_train_tokens = sum(len(s) for s in corpus)
        self.n_tokens = sum(len(s) for s in self.sentences)
        return times

    def train_config(self, system: str, epochs: int = EPOCHS) -> TrainConfig:
        return TrainConfig(system=system, epochs=epochs, seed=self.seed,
                           pruning="length-dictionary" if self.pruned else "none")

    def parse_config(self, system: str) -> tuple[ParserConfig, object]:
        pruned = self.pruned and system != "d-mst"
        cfg = ParserConfig(system=system, seed=self.seed,
                           pruning="length-dictionary" if pruned else "none")
        return cfg, self.pruner if pruned else None

    @staticmethod
    def model_of(models: dict, system: str):
        return models["u-mst-uf" if system == "u-mst-uf-lep" else system]

    def warm_up(self, tally: Tally) -> None:
        sample = self.corpus[:5]
        models = {}
        for system in TRAINED:
            models[system], log = training.train_full(
                sample, self.train_config(system, epochs=1))
            tally.record(len(log) == 1, f"warm-up training {system}")
        for system in SYSTEMS:
            cfg, pruner = self.parse_config(system)
            for i, sent in enumerate(self.sentences[:3]):
                tree = inference.parse(sent, self.model_of(models, system), cfg,
                                       directed_model=models["d-mst"],
                                       pruner=pruner, sentence_index=i)
                tally.record(tree_ok(tree, len(sent)), f"warm-up {system} #{i}")

    def measure(self, tally: Tally, seconds=None, rounds=None,
                tracer=None) -> Measured:
        m = Measured()
        start = time.perf_counter()
        while _keep_going(m.rounds, start, seconds, rounds):
            for system in TRAINED:
                if tracer is not None:
                    tracer.context = "train." + system
                self._train(system, tally, m, lapping=tracer is None)
            models = {s: features.load_model(self.paths.out(f"{s}.model"))
                      for s in TRAINED}
            for _ in range(self.parse_repeats):
                for system in SYSTEMS:
                    if tracer is not None:
                        tracer.context = system
                    self._parse(system, models, tally, m)
            del models
            m.rounds += 1
        return m

    def _train(self, system: str, tally: Tally, m: Measured, lapping: bool) -> None:
        """One operation: train_full + save_model of one system, featurizing
        included.  Without a tracer the corpus cuts training into probe
        segments; with one, laps would put probe time inside its spans."""
        path = self.paths.out(f"{system}.model")
        gc.collect()
        watch = Stopwatch()
        corpus = LappingCorpus(self.corpus, watch) if lapping else self.corpus
        try:
            model, log = training.train_full(corpus, self.train_config(system))
            features.save_model(model, path)
            error = None
        except Exception as exc:              # a failed operation, not a crash
            error = f"{type(exc).__name__}: {exc}"
        model = None
        watch.lap()
        m.work_s += watch.scaled_s
        m.samples[f"train_tok_s.{system}"].append(
            self.n_train_tokens * EPOCHS / watch.scaled_s)
        if not tally.record(error is None, f"training {system}: {error}"):
            return
        sha = sha256_of(path)
        self.first_sha.setdefault(f"{system}.model", sha)
        tally.record(sha == self.first_sha[f"{system}.model"] and len(log) == EPOCHS,
                     f"{system}: model file differs between rounds")

    def _parse(self, system: str, models: dict, tally: Tally, m: Measured) -> None:
        """Read input → parse every sentence → write predictions; one
        operation per sentence, plus one for the prediction file."""
        model = self.model_of(models, system)
        cfg, pruner = self.parse_config(system)
        latencies = m.samples[f"latency.{system}"]
        out_path = self.paths.out(f"pred.{system}.conll")
        trees, errors, chunk = [], {}, []
        gc.collect()
        watch = Stopwatch()
        sentences = conll.load_conll(self.input)
        for i, sent in enumerate(sentences):
            t = time.perf_counter()
            try:
                tree = inference.parse(sent, model, cfg, directed_model=models["d-mst"],
                                       pruner=pruner, sentence_index=i)
            except Exception as exc:          # a failed operation, not a crash
                tree, errors[i] = None, f"{type(exc).__name__}: {exc}"
            chunk.append(time.perf_counter() - t)
            trees.append(tree)
            if watch.due() or i == len(sentences) - 1:
                factor = watch.lap()
                latencies.extend(x / factor for x in chunk)
                chunk.clear()
        conll.save_conll(out_path, sentences,
                         [t if t is not None else DependencyTree((0,) * len(s))
                          for t, s in zip(trees, sentences)])
        watch.lap()
        m.work_s += watch.scaled_s
        m.samples[f"tok_s.{system}"].append(self.n_tokens / watch.scaled_s)
        for i, (tree, sent) in enumerate(zip(trees, sentences)):
            tally.record(tree_ok(tree, len(sent)),
                         f"{system} sentence {i}: {errors.get(i, 'not a tree')}")
        sha = sha256_of(out_path)
        if system not in self.first_trees:
            self.first_sha[f"pred.{system}"] = sha
            self.first_trees[system] = trees
        tally.record(sha == self.first_sha[f"pred.{system}"],
                     f"{system}: predictions differ between rounds")

    def end_to_end(self, m: Measured) -> dict:
        out = {}
        for system in TRAINED:
            out[f"train_tok_s.{system}"] = (
                statistics.median(m.samples[f"train_tok_s.{system}"]), "tok/s")
        for system in SYSTEMS:
            out[f"tok_s.{system}"] = (statistics.median(m.samples[f"tok_s.{system}"]), "tok/s")
            ms = [1e3 * x for x in m.samples[f"latency.{system}"]]
            out[f"sent_ms_p{PERCENTILE}.{system}"] = (percentile(ms, PERCENTILE), "ms")
        return out

    def report(self, tally: Tally) -> dict:
        rep = {"sha256": dict(self.first_sha), "d_uas": {}, "u_uas": {},
               "train_tokens": self.n_train_tokens, "parse_tokens": self.n_tokens}
        for system, trees in self.first_trees.items():
            if all(t is not None for t in trees):
                result = evaluate.score(self.sentences, trees)
                rep["d_uas"][system] = result.d_uas
                rep["u_uas"][system] = result.u_uas
        return rep

    def check_forests(self, tally: Tally, forests) -> None:
        """Every spanning forest the traced pass built must have exactly
        Kruskal's edge ids on the same graph."""
        for i, (graph, forest) in enumerate(forests):
            tally.record(forest_ok(forest, mst.kruskal_msf(graph).edge_ids),
                         f"forest {i} differs from Kruskal's")

    def per_layer(self, stats, counts) -> dict:
        return layer_metrics(stats, counts)


class Short(Session):
    """The bundled treebank: the first 300 training sentences in file
    order, the 150 dev sentences in a seeded order; undirected systems
    pruned."""

    parse_repeats = 10

    def treebank(self, train, dev):
        order = np.random.default_rng([self.seed, 0]).permutation(len(dev))
        return train[:SHORT_TRAIN], [dev[i] for i in order.tolist()]


class Long(Session):
    """Joined sentences (mean 35.7 tokens, max 70), nothing pruned: 40
    training sentences joined from the training set (the same for every
    seed) and 60 seeded dev sentences joined from the dev set."""

    pruned = False

    def treebank(self, train, dev):
        return (long_sentences(train, LONG_TRAIN_SEED, LONG_TRAIN),
                long_sentences(dev, self.seed, LONG_DEV))


WORKLOADS = {"short": Short, "long": Long}


def layer_metrics(stats, counts) -> dict:
    """Per-layer metrics from the traced spans and counters.

    Layer times are mean milliseconds per call at parse time (the four
    systems' contexts; build_parse_graph: self time); ``training.*`` come
    from the training contexts.  ``*.calls`` are calls per MSF run.
    """
    out = {}
    parsing = SYSTEMS

    def mean_ms(metric, name, context=parsing, self_time=False):
        calls = stats.calls_of(name, context)
        total = (stats.self_ms if self_time else stats.total_ms)(name, context)
        out[metric] = (total / calls if calls else 0.0, "ms")
        return calls

    mean_ms("conll.read_ms", "conll.read")
    mean_ms("conll.write_ms", "conll.write")
    for mode in ("directed", "undirected"):
        built = mean_ms(f"features.featurize_ms.{mode}", f"features.featurize.{mode}")
        pairs = sum(counts[("features.pairs", mode, c)] for c in parsing)
        hashed = sum(counts[("features.hashed", mode, c)] for c in parsing)
        out[f"features.pairs.{mode}"] = (pairs / max(built, 1), "count")
        out[f"features.hashed_per_pair.{mode}"] = (hashed / max(pairs, 1), "count")
    mean_ms("features.score_all_ms", "features.score_all")
    for s in ("u-mst-uf", "u-mst-df"):
        graphs = mean_ms(f"inference.build_parse_graph_ms.{s}",
                         "inference.build_parse_graph", s, self_time=True)
        edges = counts[("inference.graph_edges", s)]
        out[f"inference.graph_edges.{s}"] = (edges / max(graphs, 1), "count")
        out[f"inference.kept_ratio.{s}"] = (
            edges / max(counts[("inference.graph_pairs", s)], 1), "ratio")
    mean_ms("inference.direct_tree_ms", "inference.direct_tree")
    leps = mean_ms("inference.lep_ms", "inference.lep")
    out["inference.lep_heads_changed"] = (
        counts[("inference.lep_heads_changed", None)] / max(leps, 1), "count")
    mean_ms("inference.cle_ms", "inference.cle")
    runs = mean_ms("mst.randomized_msf_ms", "mst.randomized_msf")
    out["mst.randomized_msf.ns_per_edge"] = (
        1e6 * stats.total_ms("mst.randomized_msf", parsing)
        / max(sum(counts[("mst.edges", c)] for c in parsing), 1), "ns")
    out["graph.boruvka_step.calls"] = (
        stats.calls_of("graph.boruvka_step", parsing) / max(runs, 1), "count")
    out["unionfind.union.calls"] = (
        sum(counts[("unionfind.union", c)] for c in parsing) / max(runs, 1), "count")
    mean_ms("graph.boruvka_step_ms", "graph.boruvka_step")
    mean_ms("graph.connected_components_ms", "graph.connected_components")
    mean_ms("graph.simplify_ms", "graph.simplify")
    for s in TRAINED:
        ctx = "train." + s
        runs = max(stats.calls_of("training.train_full", ctx), 1)
        featurize_ms = sum(stats.total_ms(f"features.featurize.{mode}", ctx)
                           for mode in ("directed", "undirected"))
        epoch_ms = (stats.total_ms("training.train_full", ctx) - featurize_ms) / (runs * EPOCHS)
        predictions = counts[("training.predictions", ctx)]
        updates = counts[("training.updates", ctx)]
        out[f"training.featurize_s.{s}"] = (featurize_ms / 1e3 / runs, "s")
        out[f"training.epoch_s.{s}"] = (epoch_ms / 1e3, "s")
        out[f"training.predict_ms.{s}"] = (
            stats.total_ms("training.predict", ctx)
            / max(stats.calls_of("training.predict", ctx), 1), "ms")
        out[f"training.updates_per_epoch.{s}"] = (updates / (runs * EPOCHS), "count")
        out[f"training.update_ratio.{s}"] = (updates / max(predictions, 1), "ratio")
    for s in ("u-mst-uf", "u-mst-df"):
        ctx = "train." + s
        out[f"training.kept_ratio.{s}"] = (
            counts[("inference.graph_edges", ctx)]
            / max(counts[("inference.graph_pairs", ctx)], 1), "ratio")
    return out
