import pathlib
from dataclasses import replace

import numpy as np
import pytest

from umstparse import features, inference, training
from umstparse.conll import Sentence, Token, load_conll
from umstparse.errors import InputError
from umstparse.features import Model, SentenceFeatures, save_model
from umstparse.inference import ParserConfig, build_pruner, parse
from umstparse.training import TrainConfig, feature_mode, train, train_full

from oracles import (directed_feature_strings, hash_feature, join_sentences,
                     undirected_feature_strings)

FIXTURE_TRAIN = pathlib.Path(__file__).parent.parent / "data" / "fixture_train.conll"


def sent(words_tags, heads):
    tokens = tuple(Token(index=i + 1, form=w, postag=p)
                   for i, (w, p) in enumerate(words_tags))
    return Sentence(tokens=tokens, gold_heads=tuple(heads),
                    gold_labels=tuple(["dep"] * len(tokens)))


def toy_corpus():
    """Separable pattern: determiner -> noun -> verb -> root."""
    words = [
        (("the", "D"), ("dog", "N"), ("runs", "V")),
        (("a", "D"), ("cat", "N"), ("sleeps", "V")),
        (("the", "D"), ("bird", "N"), ("sings", "V")),
        (("a", "D"), ("fox", "N"), ("jumps", "V")),
        (("the", "D"), ("cow", "N"), ("eats", "V")),
    ]
    return [sent(w, [2, 3, 0]) for w in words]


def test_empty_corpus_rejected():
    with pytest.raises(InputError):
        train([], TrainConfig(epochs=1))


def test_single_token_corpus_never_updates():
    corpus = [sent([("hi", "UH")], [0])]
    model, log = train_full(corpus, TrainConfig(epochs=3, system="d-mst"))
    assert not model.weights.any()
    assert log == [100.0, 100.0, 100.0]


def test_gold_predicting_model_unchanged():
    corpus = toy_corpus()
    config = TrainConfig(epochs=3, system="u-mst-uf", hash_bits=16, seed=2)
    first = train(corpus, config)
    snapshot = first.weights.copy()
    again = train(corpus, config, init_model=first)
    # the separable toy is solved, so continued training changes nothing
    assert np.array_equal(again.weights, snapshot)


def test_hand_computed_two_token_update():
    s = sent([("a", "A"), ("b", "B")], [0, 1])
    bits = 16
    config = TrainConfig(epochs=1, system="d-mst", hash_bits=bits)
    model = train([s], config)
    # with zero weights CLE picks head 0 for both tokens; gold is (0, 1),
    # so the update is phi(1->2) - phi(0->2); arcs (0,1) cancel
    expected = np.zeros(1 << bits)
    for f in directed_feature_strings(s, 1, 2):
        expected[hash_feature(f, bits)] += 1.0
    for f in directed_feature_strings(s, 0, 2):
        expected[hash_feature(f, bits)] -= 1.0
    # single update at t=1 over T=1 examples: averaged == raw
    assert np.array_equal(model.weights, expected)


@pytest.mark.parametrize("system", ["d-mst", "u-mst-uf", "u-mst-df"])
def test_separable_toy_reaches_perfect_training_uas(system):
    corpus = toy_corpus()
    config = TrainConfig(epochs=10, system=system, hash_bits=16, seed=4)
    _, log = train_full(corpus, config)
    assert log[-1] == 100.0


def test_training_is_deterministic():
    corpus = toy_corpus()
    config = TrainConfig(epochs=4, system="u-mst-uf", hash_bits=16, seed=9)
    a = train(corpus, config)
    b = train(corpus, config)
    assert np.array_equal(a.weights, b.weights)


def test_shuffle_is_seeded_and_deterministic():
    corpus = toy_corpus()
    config = TrainConfig(epochs=4, system="d-mst", hash_bits=16, seed=9,
                         shuffle=True)
    a = train(corpus, config)
    b = train(corpus, config)
    assert np.array_equal(a.weights, b.weights)


def test_feature_modes():
    assert feature_mode("d-mst") == "directed"
    assert feature_mode("u-mst-df") == "directed"
    assert feature_mode("u-mst-uf") == "undirected"
    assert feature_mode("u-mst-uf-lep") == "undirected"


def test_lep_uses_directed_model_scores():
    """Planting a sentinel weight in the d-mst model must change only the
    enhancement outcome, proving the gain reads the directed model."""
    corpus = toy_corpus()
    config = TrainConfig(epochs=5, hash_bits=16, seed=7)
    models = {s: train(corpus, replace(config, system=s))
              for s in ("d-mst", "u-mst-uf-lep")}
    target = corpus[0]
    pconf = ParserConfig(system="u-mst-uf-lep", seed=7)
    base = parse(target, models["u-mst-uf-lep"], pconf,
                 directed_model=models["d-mst"])
    assert base.heads == target.gold_heads

    # sentinel: make arcs 0->1 and 1->[2,3] irresistible for the rewirer
    doctored = Model.new("directed", hash_bits=16)
    doctored.weights = models["d-mst"].weights.copy()
    cache = SentenceFeatures(target, "directed", 16)
    for h, m in ((0, 1), (1, 2), (1, 3)):
        doctored.weights[cache.sum_indices([(h, m)])[0]] += 100.0
    swayed = parse(target, models["u-mst-uf-lep"], pconf,
                   directed_model=doctored)
    assert swayed.heads != base.heads


@pytest.mark.parametrize("field, value", [
    ("pruning", "lenght-dictionary"),
    ("combiner", "max"),
    ("system", "u-mst"),
])
def test_config_rejects_unknown_options(field, value):
    config = TrainConfig(epochs=1, **{field: value})
    with pytest.raises(InputError):
        config.validate()
    with pytest.raises(InputError):
        train(toy_corpus(), config)


def test_lep_trains_as_u_mst_uf():
    config = TrainConfig(epochs=3, system="u-mst-uf-lep", hash_bits=14, seed=3)
    assert config.parser_config().system == "u-mst-uf"
    uf = train(toy_corpus(), TrainConfig(epochs=3, system="u-mst-uf",
                                         hash_bits=14, seed=3))
    assert np.array_equal(train(toy_corpus(), config).weights, uf.weights)


def test_pruned_undirected_training_parses_only_kept_pairs(monkeypatch):
    """u-mst-uf trains on the pruned graph that parsing uses: every edge of
    every training parse graph is a pair the length dictionary keeps."""
    corpus = load_conll(FIXTURE_TRAIN)[:40]
    pruner = build_pruner(corpus)
    build = inference.build_parse_graph
    graphs = []

    def checked(sentence, *args, **kwargs):
        result = build(sentence, *args, **kwargs)
        kept = pruner.mask(sentence)
        kept |= kept.T
        graph = result[0].graph
        n = len(sentence)
        graphs.append((bool(kept[graph.u, graph.v].all()),
                       graph.n_edges < n * (n + 1) // 2))
        return result

    monkeypatch.setattr(inference, "build_parse_graph", checked)
    train(corpus, TrainConfig(epochs=1, system="u-mst-uf", hash_bits=14,
                              pruning="length-dictionary"))
    assert len(graphs) == len(corpus)
    assert all(only_kept for only_kept, _ in graphs)
    assert any(pruned for _, pruned in graphs)


@pytest.mark.parametrize("system", ["d-mst", "u-mst-uf", "u-mst-uf-lep", "u-mst-df"])
def test_pruner_mask_once_per_training_sentence(monkeypatch, system):
    """Training builds each sentence's cache with the mask parse would use,
    once, and its predictions read the cache instead of masking again;
    d-mst reads no pruning."""
    corpus = load_conll(FIXTURE_TRAIN)[:30]
    calls = []
    real = inference.Pruner.mask

    def counting(self, sentence):
        calls.append(sentence)
        return real(self, sentence)

    monkeypatch.setattr(inference.Pruner, "mask", counting)
    train_full(corpus, TrainConfig(epochs=3, system=system, hash_bits=14,
                                   pruning="length-dictionary"))
    assert calls == ([] if system == "d-mst" else corpus)


def _reference_train(corpus, config, init=None, difference=False):
    """The averaged perceptron updating on every gold and every predicted
    arc, or with ``difference`` on those in one and not the other, with
    slots from the feature strings; predictions from parse with no cache.
    It starts from a copy of ``init``'s weights when given."""
    parser_config = config.parser_config()
    mode = feature_mode(parser_config.system)
    strings = directed_feature_strings if mode == "directed" \
        else undirected_feature_strings
    pruner = build_pruner(corpus) if parser_config.pruned else None
    model = Model.new(mode, config.combiner, config.hash_bits)
    if init is not None:
        model.weights[:] = init.weights
    usum = np.zeros_like(model.weights)

    def arcs(heads):
        pairs = list(enumerate(heads, 1))
        if mode == "directed":
            return [(h, m) for m, h in pairs]
        return [(min(h, m), max(h, m)) for m, h in pairs]

    t = 1
    for epoch in range(config.epochs):
        order = np.arange(len(corpus))
        if config.shuffle:
            order = np.random.default_rng([config.seed, epoch]).permutation(len(corpus))
        for idx in order.tolist():
            s = corpus[idx]
            pred = parse(s, model, parser_config, pruner=pruner, sentence_index=idx)
            gold_arcs, pred_arcs = arcs(s.gold_heads), arcs(pred.heads)
            if set(gold_arcs) != set(pred_arcs):
                if difference:
                    gold_arcs, pred_arcs = ([arc for arc in x if arc not in y]
                                            for x, y in ((gold_arcs, set(pred_arcs)),
                                                         (pred_arcs, set(gold_arcs))))
                for arc_list, sign in ((gold_arcs, 1.0), (pred_arcs, -1.0)):
                    for a, b in arc_list:
                        for f in strings(s, a, b):
                            slot = hash_feature(f, config.hash_bits)
                            model.weights[slot] += sign
                            usum[slot] += sign * (t - 1)
            t += 1
    usum /= t - 1
    model.weights -= usum
    return model


@pytest.mark.parametrize("pruning", ["none", "length-dictionary"])
@pytest.mark.parametrize("system", ["d-mst", "u-mst-uf", "u-mst-df"])
def test_update_on_the_difference_trains_the_full_update_bytes(system, pruning):
    """Updating only on the arcs where gold and prediction differ trains
    bit-identical weights to updating on all of both: every addition is a
    whole number, so the shared arcs' additions cancel exactly."""
    corpus = load_conll(FIXTURE_TRAIN)[:40]
    config = TrainConfig(epochs=3, system=system, hash_bits=16, seed=3,
                         shuffle=True, pruning=pruning)
    model, _ = train_full(corpus, config)
    assert model.weights.any()
    assert model.weights.tobytes() == _reference_train(corpus, config).weights.tobytes()


@pytest.mark.parametrize("system, pruning", [("u-mst-uf", "none"),
                                             ("u-mst-df", "length-dictionary")])
def test_continued_training_from_fractional_weights_updates_on_the_difference(
        monkeypatch, system, pruning):
    """``init_model`` is trained in place and updated on the difference
    only.  An averaged model's weights are fractional, and there a +1 and
    a -1 on a shared arc's slot need not cancel exactly, so continued
    training can differ in the last bits from updating on all of both.
    Slots outside the run's slot space keep the initial weights bit for
    bit (pruned u-mst-df: the first model's pruner kept arcs the second
    one drops, and its hashed updates grow the space)."""
    corpus = load_conll(FIXTURE_TRAIN)[:40]
    config = TrainConfig(epochs=2, system=system, hash_bits=16, seed=3,
                         shuffle=True, pruning=pruning)
    first = train(corpus[:10], config)
    assert (first.weights % 1).any()
    start = replace(first, weights=first.weights.copy())
    spaces = []
    real_space = training._SlotSpace

    def recording_space(*args):
        spaces.append(real_space(*args))
        return spaces[-1]

    monkeypatch.setattr(training, "_SlotSpace", recording_space)
    model, log = train_full(corpus, config, init_model=first)
    assert model is first and min(log) < 100
    assert model.weights.tobytes() == _reference_train(
        corpus, config, init=start, difference=True).weights.tobytes()
    full = _reference_train(corpus, config, init=start).weights
    assert np.allclose(model.weights, full, rtol=0, atol=1e-12)
    outside = np.ones(model.size(), dtype=bool)
    outside[spaces[0].slots] = False
    assert model.weights[outside].tobytes() == start.weights[outside].tobytes()
    if system == "u-mst-df":
        assert (start.weights[outside] % 1).any()


@pytest.mark.parametrize("system", ["d-mst", "u-mst-uf", "u-mst-df"])
def test_updates_hash_only_the_arcs_a_pruned_cache_dropped(monkeypatch, system):
    """An update gathers its slots from the sentence's cache when it holds
    every arc.  d-mst and u-mst-uf always do: the pruner keeps every gold
    arc of its own corpus, and predictions come from the cache's pairs.
    A pruned u-mst-df cache lacks the directions its mask dropped, so an
    update that loses one hashes all its arcs, says so, and updates slots
    that no cache holds; the weights still equal the reference's bytes."""
    corpus = load_conll(FIXTURE_TRAIN)[:40]
    config = TrainConfig(epochs=3, system=system, hash_bits=16, seed=3,
                         shuffle=True, pruning="length-dictionary")
    hashed, updates, hashed_slots = [], [], []
    real_hash, real_sum = features.hash_arcs, SentenceFeatures.sum_indices

    def counting_hash(*args):
        hashed.append(args)
        return real_hash(*args)

    def counting_sum(self, gained, lost=()):
        before = len(hashed)
        result = real_sum(self, gained, lost)
        updates.append(len(hashed) - before)
        assert result[2] is bool(updates[-1])
        if updates[-1]:
            hashed_slots.append(result[0])
        return result

    monkeypatch.setattr(features, "hash_arcs", counting_hash)
    monkeypatch.setattr(SentenceFeatures, "sum_indices", counting_sum)
    model, _ = train_full(corpus, config)
    monkeypatch.undo()
    assert updates and set(updates) <= {0, 1}
    if system == "u-mst-df":
        assert 0 < sum(updates) < len(updates)
        cached = np.concatenate([cache._flat for cache in features.featurize_corpus(
            corpus, "directed", config.hash_bits, build_pruner(corpus).mask)])
        assert not np.isin(np.concatenate(hashed_slots), cached).all()
    else:
        assert sum(updates) == 0
    assert model.weights.tobytes() == _reference_train(corpus, config).weights.tobytes()


@pytest.mark.parametrize("pruning", ["none", "length-dictionary"])
@pytest.mark.parametrize("system", ["d-mst", "u-mst-uf", "u-mst-df"])
def test_caches_hashed_in_blocks_train_the_same_model(tmp_path, monkeypatch, system,
                                                      pruning):
    """Training caches of 64-76-token sentences, hashed in blocks of 256
    slots, write the model file of caches hashed in one call each."""
    dev = load_conll(FIXTURE_TRAIN.with_name("fixture_dev.conll"))
    corpus = [join_sentences(dev[i:i + 8]) for i in (0, 15, 30)]
    assert [len(s) for s in corpus] == [64, 76, 73]
    config = TrainConfig(epochs=2, system=system, hash_bits=16, pruning=pruning)
    written = []
    for block in (256, 1 << 62):
        monkeypatch.setattr(features, "_BLOCK_SLOTS", block)
        save_model(train(corpus, config), tmp_path / "model")
        written.append((tmp_path / "model").read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("init, wanted, message", [
    ({"hash_bits": 12}, {"hash_bits": 16}, "hash_bits 16, .* hash_bits 12"),
    ({"hash_bits": 16}, {"hash_bits": 12}, "hash_bits 12, .* hash_bits 16"),
    ({"combiner": "product"}, {}, "combiner 'mean', .* combiner 'product'"),
    ({}, {"system": "u-mst-uf"}, "mode 'undirected', .* mode 'directed'"),
])
def test_init_model_must_match_the_config(monkeypatch, init, wanted, message):
    """A model to continue training from must have the config's mode,
    combiner and hash_bits; a mismatch is an InputError naming both
    values, raised before any sentence is featurized."""
    start = Model.new("directed", **init)
    config = TrainConfig(epochs=1, **{"system": "u-mst-df", **wanted})

    def featurize(*args, **kwargs):
        raise AssertionError("featurized before checking the initial model")

    monkeypatch.setattr(training, "featurize_corpus", featurize)
    with pytest.raises(InputError, match=message):
        train_full(toy_corpus(), config, init_model=start)
    assert not start.weights.any()
