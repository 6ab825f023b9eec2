"""Online structured training with inference in the loop.

Averaged perceptron: each sentence is parsed with the configured system
using the current weights, and on a mistake the weights move toward the
gold structure's features and away from the prediction's.  Undirected
systems compare undirected edge sets; directed systems compare head
vectors.  Test-time inference (graph construction, spanning tree,
directing) is reused unchanged inside the loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .conll import DependencyTree, Sentence
from .errors import InputError
from .features import DEFAULT_HASH_BITS, Model, SentenceFeatures, check_hash_bits
from .inference import (
    SYSTEMS,
    Pruner,
    build_parse_graph,
    build_pruner,
    cle_directed_mst,
    direct_tree,
    directed_score_table,
    undirected_spanning_tree,
)
from .mst import RandomSource


@dataclass
class TrainConfig:
    epochs: int = 10
    system: str = "u-mst-uf"
    seed: int = 1
    shuffle: bool = False
    combiner: str = "mean"
    mst_backend: str = "randomized"
    pruning: str = "none"
    hash_bits: int = DEFAULT_HASH_BITS

    def validate(self):
        if self.epochs < 1:
            raise InputError("epochs must be >= 1")
        if self.system not in SYSTEMS:
            raise InputError(f"unknown system {self.system!r}")
        check_hash_bits(self.hash_bits)
        return self


def feature_mode(system: str) -> str:
    return "directed" if system in ("d-mst", "u-mst-df") else "undirected"


def _gold_arcs(sentence: Sentence, mode: str):
    if mode == "directed":
        return [(h, m + 1) for m, h in enumerate(sentence.gold_heads)]
    return [(min(h, m + 1), max(h, m + 1)) for m, h in enumerate(sentence.gold_heads)]


def _tree_arcs(tree: DependencyTree, mode: str):
    if mode == "directed":
        return [(h, m + 1) for m, h in enumerate(tree.heads)]
    return [(min(h, m + 1), max(h, m + 1)) for m, h in enumerate(tree.heads)]


def _predict(sentence: Sentence, model: Model, config: TrainConfig,
             pruner: Pruner | None, cache: SentenceFeatures,
             sentence_index: int) -> DependencyTree:
    if config.system == "d-mst":
        table = directed_score_table(sentence, model, None, cache)
        return cle_directed_mst(table)
    pg, _ = build_parse_graph(sentence, model, pruner, cache)
    rng = RandomSource.derive(config.seed, sentence_index)
    forest = undirected_spanning_tree(pg, config.mst_backend, rng)
    return direct_tree(pg.graph, forest)


def train_full(corpus: list[Sentence], config: TrainConfig,
               init_model: Model | None = None) -> tuple[Model, list[float]]:
    """Train one system; returns the averaged model and per-epoch UAS.

    The per-epoch figure is the online training accuracy: the directed
    attachment accuracy of the predictions made (before each update)
    during that epoch.
    """
    config.validate()
    if not corpus:
        raise InputError("empty training corpus")
    mode = feature_mode(config.system)
    # d-mst always runs on the complete directed graph; no pruning
    pruner = None
    if config.pruning == "length-dictionary" and config.system != "d-mst":
        pruner = build_pruner(corpus)
    if init_model is None:
        model = Model.new(mode, config.combiner, config.hash_bits)
    else:
        if init_model.mode != mode:
            raise InputError(f"{config.system} needs a {mode}-mode model")
        model = init_model
    weights = model.weights
    usum = np.zeros_like(weights)
    # training caches stay unpruned so any predicted arc can be featurized;
    # pruning is applied when the parse graph is built
    caches = [SentenceFeatures(s, mode, config.hash_bits) for s in corpus]
    t = 1
    epoch_uas = []
    for epoch in range(config.epochs):
        if config.shuffle:
            order = np.random.default_rng([config.seed, epoch]).permutation(len(corpus))
        else:
            order = np.arange(len(corpus))
        correct = 0
        total = 0
        for idx in order.tolist():
            sentence = corpus[idx]
            pred = _predict(sentence, model, config, pruner, caches[idx], idx)
            total += len(sentence)
            correct += sum(1 for p, g in zip(pred.heads, sentence.gold_heads)
                           if p == g)
            gold_arcs = _gold_arcs(sentence, mode)
            pred_arcs = _tree_arcs(pred, mode)
            if set(gold_arcs) != set(pred_arcs):
                gold_idx = caches[idx].sum_indices(gold_arcs)
                pred_idx = caches[idx].sum_indices(pred_arcs)
                np.add.at(weights, gold_idx, 1.0)
                np.add.at(weights, pred_idx, -1.0)
                np.add.at(usum, gold_idx, float(t - 1))
                np.add.at(usum, pred_idx, -float(t - 1))
            t += 1
        epoch_uas.append(100.0 * correct / total if total else 0.0)
    averaged = weights - usum / (t - 1)
    model.weights = averaged
    model.averaged_weights = averaged.copy()
    return model, epoch_uas


def train(corpus: list[Sentence], config: TrainConfig,
          init_model: Model | None = None) -> Model:
    return train_full(corpus, config, init_model)[0]


def train_suite(corpus: list[Sentence], systems: list[str],
                config: TrainConfig) -> dict[str, Model]:
    """Train each system independently; u-mst-uf-lep shares the undirected
    training of u-mst-uf and uses the d-mst model at parse time."""
    models = {}
    for system in systems:
        models[system] = train(corpus, replace(config, system=system))
    return models
