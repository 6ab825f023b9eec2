"""Online structured training with inference in the loop.

Averaged perceptron: each sentence is parsed with the configured system
using the current weights, and on a mistake the weights move toward the
gold structure's features and away from the prediction's.  Undirected
systems compare undirected edge sets; directed systems compare head
vectors.  Each prediction is one call of the test-time ``parse``, given
the sentence's features, which are computed once before the first epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .conll import DependencyTree, Sentence
from .errors import InputError
from .features import DEFAULT_HASH_BITS, Model, check_hash_bits
from .inference import ParserConfig, Pruner, build_pruner, parse
# perfbench/tracer.py looks these names up on this module (it wraps the
# featurizer and the inference stages, and reads feature_mode), so they
# are imported here although training runs the stages through parse
from .inference import (  # noqa: F401
    SentenceFeatures,
    build_parse_graph,
    cle_directed_mst,
    direct_tree,
    directed_score_table,
    feature_mode,
)


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
        self.parser_config()
        check_hash_bits(self.hash_bits)
        return self

    def parser_config(self) -> ParserConfig:
        """The (validated) inference settings training predicts with;
        u-mst-uf-lep trains as u-mst-uf."""
        system = "u-mst-uf" if self.system == "u-mst-uf-lep" else self.system
        return ParserConfig(system=system, combiner=self.combiner,
                            mst_backend=self.mst_backend, seed=self.seed,
                            pruning=self.pruning).validate()


def _arcs(heads, mode: str) -> list[tuple[int, int]]:
    """A head vector's arcs: (head, mod) pairs, or unordered (low, high)
    pairs in undirected mode."""
    if mode == "directed":
        return [(h, m) for m, h in enumerate(heads, 1)]
    return [(min(h, m), max(h, m)) for m, h in enumerate(heads, 1)]


def _predict(sentence: Sentence, model: Model, config: ParserConfig,
             pruner: Pruner | None, cache: SentenceFeatures,
             sentence_index: int) -> DependencyTree:
    return parse(sentence, model, config, pruner=pruner,
                 sentence_index=sentence_index, features=cache)


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
    parser_config = config.parser_config()
    mode = feature_mode(parser_config.system)
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
            pred = _predict(sentence, model, parser_config, pruner, caches[idx], idx)
            total += len(sentence)
            correct += sum(1 for p, g in zip(pred.heads, sentence.gold_heads)
                           if p == g)
            gold_arcs = _arcs(sentence.gold_heads, mode)
            pred_arcs = _arcs(pred.heads, mode)
            if set(gold_arcs) != set(pred_arcs):
                gold_idx = caches[idx].sum_indices(gold_arcs)
                pred_idx = caches[idx].sum_indices(pred_arcs)
                np.add.at(weights, gold_idx, 1.0)
                np.add.at(weights, pred_idx, -1.0)
                np.add.at(usum, gold_idx, float(t - 1))
                np.add.at(usum, pred_idx, -float(t - 1))
            t += 1
        epoch_uas.append(100.0 * correct / total if total else 0.0)
    usum /= t - 1
    weights -= usum
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
