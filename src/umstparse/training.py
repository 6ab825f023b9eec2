"""Online structured training with inference in the loop.

Averaged perceptron: each sentence is parsed with the configured system
using the current weights, and on a mistake the weights move toward the
gold structure's features and away from the prediction's.  Undirected
systems compare undirected edge sets; directed systems compare head
vectors.  Each prediction is one call of the test-time ``parse``, given
the sentence's features, which are computed once before the first epoch,
pruned as parse would prune them, by one corpus pass
(``features.featurize_corpus``): chunks of consecutive sentences, each
hashed from one stacked position table, with each sentence's cache a
slice of its chunk's slots.  u-mst-df caches also keep the layout of
their undirected pairs, built at the first prediction, so each later
one gathers only scores.  An update touches only the arcs where
gold and prediction differ (a new model's weights and their running sum
receive whole numbers, so the shared arcs' additions would cancel
exactly), and gathers their slots from the sentence's cache; only an arc
the cache lacks, in a pruned u-mst-df update, makes it hash them all from
a position table built for the update.  Averaging subtracts the running
sum at the slots that updates touched, the only ones where it is not zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conll import DependencyTree, Sentence, is_valid_tree
from .errors import DataError, InputError
from .features import (DEFAULT_HASH_BITS, Model, check_combiner, check_hash_bits,
                       featurize_corpus)
from .inference import ParserConfig, Pruner, build_pruner, parse
# perfbench/tracer.py looks these names up on this module (it wraps the
# featurizer and the inference stages, and reads feature_mode), so they
# are imported here although training runs the stages through parse and
# builds its caches with featurize_corpus, not SentenceFeatures
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
    pruning: str = "none"
    hash_bits: int = DEFAULT_HASH_BITS

    def validate(self):
        if self.epochs < 1:
            raise InputError("epochs must be >= 1")
        self.parser_config()
        check_combiner(self.combiner)
        check_hash_bits(self.hash_bits)
        return self

    def parser_config(self) -> ParserConfig:
        """The (validated) inference settings training predicts with;
        u-mst-uf-lep trains as u-mst-uf."""
        system = "u-mst-uf" if self.system == "u-mst-uf-lep" else self.system
        return ParserConfig(system=system, seed=self.seed,
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
    during that epoch.  A given ``init_model`` is trained in place; with
    fractional weights (an averaged model) it can end in the last bits
    apart from updating on all gold and predicted arcs.
    """
    config.validate()
    if not corpus:
        raise InputError("empty training corpus")
    for number, sentence in enumerate(corpus, 1):
        if not is_valid_tree(sentence.gold_heads):
            raise DataError(f"training sentence {number}: gold heads do not form a tree")
    parser_config = config.parser_config()
    mode = feature_mode(parser_config.system)
    if init_model is None:
        model = Model.new(mode, config.combiner, config.hash_bits)
    else:
        for name, have, want in (("mode", init_model.mode, mode),
                                 ("combiner", init_model.combiner, config.combiner),
                                 ("hash_bits", init_model.hash_bits, config.hash_bits)):
            if have != want:
                raise InputError(f"{config.system} trains with {name} {want!r}, "
                                 f"but the initial model has {name} {have!r}")
        model = init_model
    pruner = build_pruner(corpus) if parser_config.pruned else None
    weights = model.weights
    # numpy allocates the zeros lazily; averaging reads only updated slots
    usum = np.zeros(weights.shape, weights.dtype)
    updated = []
    # each cache holds what parse would featurize, in either mode
    caches = featurize_corpus(corpus, mode, config.hash_bits,
                              None if pruner is None else pruner.mask)
    golds = [(arcs, set(arcs)) for arcs in (_arcs(s.gold_heads, mode) for s in corpus)]
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
            gold_arcs, gold_set = golds[idx]
            pred_arcs = _arcs(pred.heads, mode)
            pred_set = set(pred_arcs)
            if gold_set != pred_set:
                slots, sign = caches[idx].sum_indices(
                    [arc for arc in gold_arcs if arc not in pred_set],
                    [arc for arc in pred_arcs if arc not in gold_set])
                np.add.at(weights, slots, sign)
                np.add.at(usum, slots, sign * (t - 1))
                updated.append(slots)
            t += 1
        epoch_uas.append(100.0 * correct / total if total else 0.0)
    # an untouched slot's average is w - 0.0 / (t - 1), which is w
    if updated:
        at = np.unique(np.concatenate(updated))
        weights[at] -= usum[at] / (t - 1)
    return model, epoch_uas


def train(corpus: list[Sentence], config: TrainConfig,
          init_model: Model | None = None) -> Model:
    return train_full(corpus, config, init_model)[0]
