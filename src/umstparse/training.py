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
slice of its chunk's slots.  d-mst and u-mst-df predictions read the
directed scores from one ``directed_score_table`` call on the cache;
u-mst-df caches also keep their surviving undirected pairs, built at
the first prediction.  Training then runs in the corpus's slot space
(``_SlotSpace``): the sorted distinct slots the caches hold, numbered,
with each cache's stored slots rewritten in place as their numbers, so
a prediction gathers its scores from a weight vector of that length
(270k entries for perfbench ``long``'s 40 caches, against 2**22 in the
table) and an update adds to it and to a running sum of the same length.
An update touches only the arcs where gold and prediction differ (a new
model's weights and their running sum receive whole numbers, so the
shared arcs' additions would cancel exactly), and gathers their numbers
and multiplicities from the sentence's cache, adding each multiplicity
once where the string templates would add 1 per mid; whole numbers sum
exactly in any order, so this changes no weight.  Only an arc the cache
lacks, in a pruned u-mst-df update, makes ``sum_indices`` hash them all
from a position table built for the update (it says so), and their
slots are then numbered through the space, which a slot no cache holds
joins.
Averaging is one pass over the space, since the running sum is 0
wherever no update landed, and writes the averaged weights into the
model's table at the space's slots; every other slot keeps its weight.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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


class _SlotSpace:
    """The slots a training run reads and writes, numbered: first the
    sorted distinct slots its caches hold (``held``), then each slot a
    hashed update adds, in the order they come.  Building it rewrites every
    cache's stored slots in place as these numbers, so that predictions
    gather from ``model``, the model with the compact ``weights`` in place
    of the full table; ``sums`` holds their running sums.  Both have room
    past the slots numbered so far, which added slots fill.

    A bool mark and then an int64 table from slot to number, each of
    2**hash_bits entries, exist only while the space is built."""

    def __init__(self, caches: list[SentenceFeatures], model: Model):
        held = np.zeros(model.size(), dtype=bool)
        for cache in caches:
            held[cache._flat] = True
        self.held = np.flatnonzero(held)
        del held
        table = np.empty(model.size(), dtype=np.int64)
        table[self.held] = np.arange(len(self.held))
        for cache in caches:
            # a cache's slots are read-only views of its chunk's array;
            # take in mode "clip" writes them in place, without a buffer
            flat = cache._flat
            flat.setflags(write=True)
            np.take(table, flat, out=flat, mode="clip")
            flat.setflags(write=False)
        self._full = model.weights
        self._added: dict[int, int] = {}
        self.weights = self._full[self.held]
        self.sums = np.zeros(len(self.held))
        self.model = replace(model, weights=self.weights)

    def ids(self, slots: np.ndarray) -> np.ndarray:
        """The numbers of ``slots``; a slot that no cache holds joins the
        space, with the model's weight there and a zero sum."""
        ids = np.searchsorted(self.held, slots)
        miss = np.flatnonzero(self.held[np.minimum(ids, len(self.held) - 1)] != slots)
        missed = slots[miss].tolist()
        new = [slot for slot in dict.fromkeys(missed) if slot not in self._added]
        if new:
            first = len(self.held) + len(self._added)
            end = first + len(new)
            self._added.update(zip(new, range(first, end)))
            if end > len(self.weights):
                # room for as many added slots again
                more = 2 * end - len(self.held) - len(self.weights)
                self.weights = np.concatenate([self.weights, np.empty(more)])
                self.sums = np.concatenate([self.sums, np.zeros(more)])
                self.model.weights = self.weights
            self.weights[first:end] = self._full[new]
        ids[miss] = [self._added[slot] for slot in missed]
        return ids

    @property
    def slots(self) -> np.ndarray:
        """Every slot of the space, in the order of their numbers."""
        return np.concatenate([self.held, np.fromiter(self._added, np.int64)])

    def average(self, steps: int) -> None:
        """Write the averaged weights into the model's table; where no
        update landed the sum is 0, and w - 0.0 / steps is w."""
        slots = self.slots
        self._full[slots] = self.weights[:len(slots)] - self.sums[:len(slots)] / steps


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
    apart from updating on all gold and predicted arcs.  The caches'
    weights and running sums live in the corpus's slot space while the
    epochs run; the averaged weights are written back at its slots, and
    every slot outside it keeps its weight bit for bit.
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
    # each cache holds what parse would featurize, in either mode
    caches = featurize_corpus(corpus, mode, config.hash_bits,
                              None if pruner is None else pruner.mask)
    space = _SlotSpace(caches, model)
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
            sentence, cache = corpus[idx], caches[idx]
            pred = _predict(sentence, space.model, parser_config, pruner, cache, idx)
            total += len(sentence)
            correct += sum(1 for p, g in zip(pred.heads, sentence.gold_heads)
                           if p == g)
            gold_arcs, gold_set = golds[idx]
            pred_arcs = _arcs(pred.heads, mode)
            pred_set = set(pred_arcs)
            if gold_set != pred_set:
                gained = [arc for arc in gold_arcs if arc not in pred_set]
                lost = [arc for arc in pred_arcs if arc not in gold_set]
                ids, step, hashed = cache.sum_indices(gained, lost)
                if hashed:
                    # slots, not the numbers a cache holds
                    ids = space.ids(ids)
                np.add.at(space.weights, ids, step)
                np.add.at(space.sums, ids, step * (t - 1))
            t += 1
        epoch_uas.append(100.0 * correct / total if total else 0.0)
    space.average(t - 1)
    return model, epoch_uas


def train(corpus: list[Sentence], config: TrainConfig,
          init_model: Model | None = None) -> Model:
    return train_full(corpus, config, init_model)[0]
