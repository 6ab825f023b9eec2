import pathlib
from dataclasses import replace

import numpy as np
import pytest

from umstparse import inference
from umstparse.conll import Sentence, Token, load_conll
from umstparse.errors import InputError
from umstparse.features import Model, SentenceFeatures
from umstparse.inference import ParserConfig, build_pruner, parse
from umstparse.training import TrainConfig, feature_mode, train, train_full

from oracles import directed_feature_strings, hash_feature

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
        doctored.weights[cache.sum_indices([(h, m)])] += 100.0
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
