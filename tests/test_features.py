import dataclasses
import json
import pathlib
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from umstparse import features
from umstparse.conll import Sentence, Token, load_conll
from umstparse.errors import DataError, InputError, StructureError
from umstparse.features import (COMBINERS, LazyArcScores, Model, SentenceFeatures,
                                arc_matrix, arc_slots, distance_bin, featurize_corpus,
                                hash_arcs, load_model, pair_mask, position_table,
                                save_model)
from umstparse.inference import build_pruner, directed_score_table
from umstparse.training import TrainConfig

from oracles import (
    FeatureVector,
    directed_feature_strings,
    extract_directed,
    extract_undirected,
    hash_feature,
    held_arcs,
    join_sentences,
    one_call_slots,
    score,
    slot_multiset,
    undirected_feature_strings,
    undirected_pairs,
)

DATA = pathlib.Path(__file__).parent / "data"
BUNDLED = pathlib.Path(__file__).parent.parent / "data"


def sent(words_tags, heads=None):
    tokens = tuple(Token(index=i + 1, form=w, postag=p, cpostag=p[0])
                   for i, (w, p) in enumerate(words_tags))
    n = len(tokens)
    heads = tuple(heads) if heads else tuple([0] * n)
    return Sentence(tokens=tokens, gold_heads=heads,
                    gold_labels=tuple(["dep"] * n))


FIXTURE = sent([("The", "DT"), ("quick", "JJ"), ("fox", "NN"),
                ("jumped", "VB"), (".", "PU")], heads=[3, 3, 4, 0, 4])


def test_distance_bins():
    assert [distance_bin(d) for d in (1, 2, 3, 4, 5, 6, 10, 11, 40)] == \
        ["1", "2", "3", "4", "5", "6-10", "6-10", "11+", "11+"]


def test_extraction_is_deterministic():
    a = extract_directed(FIXTURE, 4, 2)
    b = extract_directed(FIXTURE, 4, 2)
    assert np.array_equal(a.indices, b.indices)


def test_direction_sensitivity():
    a = extract_directed(FIXTURE, 2, 4)
    b = extract_directed(FIXTURE, 4, 2)
    assert not np.array_equal(a.indices, b.indices)


def test_undirected_symmetry():
    a = extract_undirected(FIXTURE, 2, 4)
    b = extract_undirected(FIXTURE, 4, 2)
    assert np.array_equal(a.indices, b.indices)


def test_undirected_ignores_gold_heads():
    other = sent([("The", "DT"), ("quick", "JJ"), ("fox", "NN"),
                  ("jumped", "VB"), (".", "PU")], heads=[2, 3, 0, 3, 3])
    a = extract_undirected(FIXTURE, 1, 3)
    b = extract_undirected(other, 1, 3)
    assert np.array_equal(a.indices, b.indices)


def test_undirected_has_no_direction_marks():
    for f in undirected_feature_strings(FIXTURE, 2, 4):
        assert "&R|" not in f and "&L|" not in f


def test_invalid_indices_rejected():
    with pytest.raises(InputError):
        extract_directed(FIXTURE, 2, 2)
    with pytest.raises(InputError):
        extract_directed(FIXTURE, 9, 1)
    with pytest.raises(InputError):
        extract_directed(FIXTURE, 1, 0)  # modifier cannot be the root
    with pytest.raises(InputError):
        extract_undirected(FIXTURE, 3, 3)


def test_root_endpoint_uses_sentinels():
    feats = directed_feature_strings(FIXTURE, 0, 3)
    assert any("*root*" in f for f in feats)
    assert any("*ROOT*" in f for f in feats)


def test_golden_feature_strings():
    golden = json.loads((DATA / "golden_features.json").read_text())
    got = {
        "directed_2_4": directed_feature_strings(FIXTURE, 2, 4),
        "directed_4_2": directed_feature_strings(FIXTURE, 4, 2),
        "directed_0_4": directed_feature_strings(FIXTURE, 0, 4),
        "undirected_2_4": undirected_feature_strings(FIXTURE, 2, 4),
        "undirected_0_4": undirected_feature_strings(FIXTURE, 0, 4),
    }
    assert got == golden


class TestScore:
    def test_zero_weights(self):
        model = Model.new("directed", hash_bits=12)
        assert score(model, extract_directed(FIXTURE, 2, 4, hash_bits=12)) == 0.0

    def test_one_hot(self):
        model = Model.new("directed", hash_bits=12)
        fv = FeatureVector(indices=np.asarray([7], dtype=np.int64))
        model.weights[7] = 2.5
        assert score(model, fv) == 2.5

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(31)
        model = Model.new("undirected", hash_bits=10)
        model.weights = rng.normal(size=model.size())
        for _ in range(20):
            idx = rng.integers(0, model.size(), size=rng.integers(1, 30))
            fv = FeatureVector(indices=np.sort(idx.astype(np.int64)))
            naive = 0.0
            for i in fv.indices:
                naive += model.weights[i]
            assert abs(score(model, fv) - naive) < 1e-9

    def test_linear_in_concatenation(self):
        rng = np.random.default_rng(37)
        model = Model.new("undirected", hash_bits=10)
        model.weights = rng.normal(size=model.size())
        a = FeatureVector(indices=np.asarray([1, 5, 9], dtype=np.int64))
        b = FeatureVector(indices=np.asarray([5, 700], dtype=np.int64))
        both = FeatureVector(
            indices=np.sort(np.concatenate([a.indices, b.indices])))
        assert abs(score(model, both) - (score(model, a) + score(model, b))) < 1e-12

    def test_out_of_range_slot_rejected(self):
        model = Model.new("directed", hash_bits=4)
        with pytest.raises(InputError):
            score(model, FeatureVector(indices=np.asarray([99], dtype=np.int64)))


def test_hashing_is_stable():
    assert hash_feature("hp:VB", 22) == hash_feature("hp:VB", 22)
    # frozen value guards against accidental hash-function changes
    import zlib
    assert hash_feature("hp:VB", 22) == zlib.crc32(b"hp:VB") & ((1 << 22) - 1)


class TestModelFile:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(41)
        model = Model.new("undirected", combiner="product", hash_bits=12)
        slots = rng.choice(model.size(), size=50, replace=False)
        model.weights[slots] = rng.normal(size=50) * 1e-3
        path = tmp_path / "m.model"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.mode == "undirected"
        assert loaded.combiner == "product"
        assert loaded.hash_bits == 12
        assert np.array_equal(loaded.weights, model.weights)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mode=st.sampled_from(("directed", "undirected")),
           combiner=st.sampled_from(COMBINERS),
           hash_bits=st.integers(1, 10),
           data=st.data())
    def test_save_load_round_trip_property(self, tmp_path, mode, combiner,
                                           hash_bits, data):
        """Any finite weights (subnormal, huge, negative) come back exactly,
        with the mode, combiner and hash_bits."""
        model = Model.new(mode, combiner=combiner, hash_bits=hash_bits)
        weights = data.draw(st.dictionaries(
            st.integers(0, model.size() - 1),
            st.floats(allow_nan=False, allow_infinity=False), max_size=20))
        for slot, value in weights.items():
            model.weights[slot] = value
        path = tmp_path / "p.model"
        save_model(model, path)
        loaded = load_model(path)
        assert (loaded.mode, loaded.combiner, loaded.hash_bits) == \
            (mode, combiner, hash_bits)
        assert loaded.weights.dtype == model.weights.dtype
        assert np.array_equal(loaded.weights, model.weights)

    def test_save_is_byte_deterministic(self, tmp_path):
        model = Model.new("directed", hash_bits=10)
        model.weights[3] = -0.25
        save_model(model, tmp_path / "a")
        save_model(model, tmp_path / "b")
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_save_writes_the_lines_of_the_per_slot_format(self, tmp_path):
        """The nonzero weights go out in one write, as the lines a write
        per slot would make: slot, then the float in hex; -0.0 is zero
        and gets no line."""
        model = Model.new("undirected", combiner="product", hash_bits=6)
        for slot, value in ((1, 5e-324), (7, 1e308), (8, -1e308), (20, -0.5),
                            (33, -0.0), (63, 2.0 ** -30)):
            model.weights[slot] = value
        save_model(model, tmp_path / "m")
        nz = np.nonzero(model.weights)[0]
        expected = ("umstparse-model 1\nhash_bits 6\nmode undirected\n"
                    f"combiner product\nnnz {len(nz)}\n")
        for slot in nz:
            expected += f"{slot} {float(model.weights[slot]).hex()}\n"
        assert len(nz) == 5
        assert (tmp_path / "m").read_bytes() == expected.encode("utf-8")

    def test_reject_garbage(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text("not a model\n")
        with pytest.raises(DataError):
            load_model(path)

    @pytest.mark.parametrize("body", [
        "hash_bits 60\nmode directed\ncombiner mean\nnnz 0\n",
        "hash_bits 0\nmode directed\ncombiner mean\nnnz 0\n",
        "hash_bits 4\nmode directed\ncombiner mean\nnnz 1\n16 0x1.0p+0\n",
        "hash_bits 4\nmode directed\ncombiner mean\nnnz 1\n-1 0x1.0p+0\n",
        "hash_bits 4\nmode directed\ncombiner mean\nnnz 1\n3 one\n",
        "hash_bits 4\nmode bogus\ncombiner mean\nnnz 0\n",
        "hash_bits 4\nmode directed\ncombiner bogus\nnnz 0\n",
        "hash_bits 4\nmode directed\ncombiner mean\nbogus 2\n3 0x1p+0\n3 0x1p+1\n",
        "hash_bits 4\nmode directed\ncombiner mean\nnnz 2\n3 0x1p+0\n3 0x1p+1\n",
    ])
    def test_reject_out_of_range_hash_bits_and_slots(self, tmp_path, body):
        path = tmp_path / "bad.model"
        path.write_text("umstparse-model 1\n" + body)
        with pytest.raises(DataError, match="bad.model"):
            load_model(path)


@pytest.mark.parametrize("bits", [-3, 0, 31, 60, "12", 12.0])
def test_hash_bits_outside_range_rejected(bits):
    with pytest.raises(InputError):
        Model.new("directed", hash_bits=bits)
    with pytest.raises(InputError):
        TrainConfig(hash_bits=bits).validate()
    with pytest.raises(InputError):
        SentenceFeatures(FIXTURE, "directed", hash_bits=bits)


class TestSentenceFeatures:
    def test_directed_pair_count(self):
        cache = SentenceFeatures(FIXTURE, "directed", hash_bits=12)
        n = len(FIXTURE)
        assert len(cache.pairs) == n * n

    def test_undirected_pair_count(self):
        cache = SentenceFeatures(FIXTURE, "undirected", hash_bits=12)
        n = len(FIXTURE)
        assert len(cache.pairs) == n * (n + 1) // 2

    def test_score_all_matches_individual_scores(self):
        rng = np.random.default_rng(43)
        model = Model.new("directed", hash_bits=12)
        model.weights = rng.normal(size=model.size())
        cache = SentenceFeatures(FIXTURE, "directed", hash_bits=12)
        scores = cache.score_all(model.weights)
        for (h, m), got in zip(cache.pairs, scores):
            fv = extract_directed(FIXTURE, h, m, hash_bits=12)
            assert abs(got - score(model, fv)) < 1e-9

    def test_cached_indices_match_extraction(self):
        cache = SentenceFeatures(FIXTURE, "undirected", hash_bits=12)
        fv = extract_undirected(FIXTURE, 1, 4, hash_bits=12)
        slots, step = cache.sum_indices([(1, 4)])
        assert sorted(slot_multiset(slots, step.astype(np.int64)).elements()) == \
            fv.indices.tolist()

    def test_unknown_mode_rejected(self):
        with pytest.raises(InputError, match="unknown feature mode"):
            SentenceFeatures(FIXTURE, "sideways")

    @pytest.mark.parametrize("mode", ["directed", "undirected"])
    def test_update_of_no_arcs_is_empty(self, monkeypatch, mode):
        """No arcs give two empty arrays and hash nothing, also from a
        cache that holds no pairs (a mask that drops every arc), whose
        scores are an empty array too."""
        none = np.zeros((len(FIXTURE) + 1,) * 2, dtype=bool)
        empty = SentenceFeatures(FIXTURE, mode, 12, none)
        full = SentenceFeatures(FIXTURE, mode, 12)
        assert empty.pairs == [] and len(empty.score_all(np.zeros(1 << 12))) == 0
        calls = []
        monkeypatch.setattr(features, "hash_arcs", lambda *args: calls.append(args))
        for cache in (empty, full):
            slots, step = cache.sum_indices([], [])
            assert slots.dtype == np.int64 and len(slots) == 0
            assert step.dtype == np.float64 and len(step) == 0
        assert calls == []


# non-ASCII forms and tags; one form and one tag are longer than 256 UTF-8
# bytes, so composing them needs more than one zero-byte table
WIDE = sent([("Straße", "NN"), ("é" * 160, "ÄDJ"), ("日本語", "名詞"),
             ("x", "P" * 300), ("!", "PU")], heads=[0, 1, 1, 3, 1])


@pytest.fixture(scope="module")
def bundled():
    train = load_conll(BUNDLED / "fixture_train.conll")
    dev = load_conll(BUNDLED / "fixture_dev.conll")
    return build_pruner(train), dev


def padded(sentence, width):
    """The sentence with every POSTAG padded with "-" to ``width`` bytes."""
    tokens = tuple(dataclasses.replace(t, postag=t.postag.ljust(width, "-"))
                   for t in sentence.tokens)
    return dataclasses.replace(sentence, tokens=tokens)


def _runs(flat, mult, starts):
    """Each arc's run of (slot, multiplicity) pairs."""
    return [list(zip(f.tolist(), m.tolist()))
            for f, m in zip(np.split(flat, starts[1:]), np.split(mult, starts[1:]))]


def _multisets(flat, mult, starts):
    """Each arc's slot multiset."""
    return [slot_multiset(f, m) for f, m in zip(np.split(flat, starts[1:]),
                                                np.split(mult, starts[1:]))]


def _string_multiset(strings, mask):
    return slot_multiset([zlib.crc32(f.encode("utf-8")) & mask for f in strings],
                         np.ones(len(strings), dtype=np.int64))


@pytest.mark.parametrize("mode", ["directed", "undirected"])
def test_cache_matches_string_oracle_slot_multisets(bundled, mode):
    """Every pair's slots, with their multiplicities, fire as the CRC32s
    of its feature strings do: the same slots, each as often, both as
    stored and as ``sum_indices`` gathers them; pairs come in row-major
    order, and a pruned directed cache holds both directions of each
    pair the scalar rule keeps, naming those it drops in ``dropped``.  (A
    btw slot stands for every mid with its tag, so the runs are not the
    strings' order.)  Dev sentences with 15-byte tags read only planes
    copied from memo rows; with 40-byte tags, every read past the memo's
    64 shifts composes."""
    pruner, dev = bundled
    long = join_sentences(dev[2:10])
    assert len(long) == 70
    # the pruner learns the lengths of padded tags from the padded dev set
    tagged = {width: ([padded(s, width) for s in dev[2:10]],
                      build_pruner([padded(s, width) for s in dev]))
              for width in (15, 40)}
    strings = directed_feature_strings if mode == "directed" \
        else undirected_feature_strings
    enumerate_pairs = held_arcs if mode == "directed" else undirected_pairs
    cases = [(sentence, pruner) for sentence in (FIXTURE, long, WIDE)]
    cases += [(sentence, rules) for sentences, rules in tagged.values()
              for sentence in sentences]
    for sentence, rules in cases:
        texts = {}
        for rule in (None, rules):
            pairs = enumerate_pairs(sentence, rule)
            allowed = None if rule is None else rule.mask(sentence)
            dropped = [arc for arc in pairs if mode == "directed" and rule is not None
                       and not rule.allows(sentence, *arc)]
            for a, b in pairs:
                if (a, b) not in texts:
                    texts[a, b] = strings(sentence, a, b)
            for hash_bits in (1, 12, 22, 30):
                mask = (1 << hash_bits) - 1
                cache = SentenceFeatures(sentence, mode, hash_bits, allowed)
                assert cache.pairs == pairs
                assert list(zip(*(d.tolist() for d in cache.dropped))) == dropped
                expected = [_string_multiset(texts[p], mask) for p in pairs]
                for (a, b), want in zip(pairs, expected):
                    slots, step = cache.sum_indices([(a, b)])
                    assert slot_multiset(slots, step) == want
                slots, step = cache.sum_indices(pairs)
                assert _multisets(slots, step.astype(np.int64), cache._starts) == expected
                # the stored slots, which parse and training predictions read
                assert _multisets(cache._flat, cache._mult, cache._starts) == expected


@pytest.mark.parametrize("mode", ["directed", "undirected"])
def test_integer_weights_score_as_the_string_oracle(bundled, mode):
    """With whole-number weights every sum is exact in any order, so each
    arc's score from a cache (``score_all``) and, in directed mode, from
    ``LazyArcScores`` equals the string oracle's ``score`` exactly: a btw
    slot's weight times its multiplicity is the sum over its mids."""
    _, dev = bundled
    model = Model.new(mode, hash_bits=16)
    model.weights = np.random.default_rng(211).integers(-1000, 1000, model.size()) * 1.0
    extract = extract_directed if mode == "directed" else extract_undirected
    for sentence in dev[:4] + [join_sentences(dev[2:8]), WIDE]:
        cache = SentenceFeatures(sentence, mode, 16)
        want = [score(model, extract(sentence, a, b, hash_bits=16)) for a, b in cache.pairs]
        assert cache.score_all(model.weights).tolist() == want
        if mode == "directed":
            lazy = LazyArcScores(sentence, model)
            assert lazy[cache.pair_a, cache.pair_b].tolist() == want


def test_directed_slots_grow_with_the_tags_not_the_distance():
    """d-mst is O(n² T): on the dev sentences joined into one of about
    600 tokens, with T tags (the root's included), no directed arc has
    more than 2 (T + 16) slots, so a directed cache of every arc holds at
    most 2 (T + 16) n² (counted here without hashing them).  The arc
    (0, n) has 2 (17 + c) slots for the c distinct tags of its mids,
    where the string templates have 2 (16 + n), and its multiplicities
    add up to those; a cache of the root's arcs stores runs of those
    lengths."""
    dev = load_conll(BUNDLED / "fixture_dev.conll")
    parts = next(k for k in range(len(dev)) if sum(map(len, dev[:k])) >= 600)
    sentence = join_sentences(dev[:parts])
    n = len(sentence)
    assert 600 <= n <= 620
    tags = len({t.postag for t in sentence.tokens}) + 1
    table = position_table([sentence], "directed")
    a, b = np.nonzero(arc_matrix(n))
    slots = arc_slots(table, a, b)
    assert slots.max() <= 2 * (tags + 16) and slots.sum() <= 2 * (tags + 16) * n * n
    mids = len({t.postag for t in sentence.tokens[:-1]})
    root = np.zeros((n + 1, n + 1), dtype=bool)
    root[0, 1:] = True
    cache = SentenceFeatures(sentence, "directed", 16, root)
    runs = np.diff(cache._starts, append=len(cache._flat))
    heads = np.zeros(n, dtype=np.int64)
    assert runs.tolist() == arc_slots(table, heads, np.arange(1, n + 1)).tolist()
    assert runs[-1] == 2 * (17 + mids)
    assert cache._mult[cache._starts[-1]:].sum() == 2 * (16 + n)


def test_a_masked_directed_cache_holds_both_directions_of_each_pair(bundled):
    """A directed cache built with a mask holds both directions of every
    pair the mask keeps (either direction allowed), only (0, v) of a root
    pair, and no other arc.  ``dropped`` lists, row-major, the held arcs
    the mask drops, and ``pair_layout`` the pairs an undirected cache
    with that mask holds."""
    pruner, dev = bundled
    for sentence in dev[:40] + [join_sentences(dev[2:10])]:
        allowed = pruner.mask(sentence)
        cache = SentenceFeatures(sentence, "directed", 12, allowed)
        pairs = undirected_pairs(sentence, pruner)
        both = {(a, b) for a, b in pairs} | {(b, a) for a, b in pairs if a > 0}
        assert cache.pairs == sorted(both)
        assert list(zip(*(d.tolist() for d in cache.dropped))) == \
            [arc for arc in cache.pairs if not allowed[arc]]
        u, v = cache.pair_layout()
        assert list(zip(u.tolist(), v.tolist())) == pairs == \
            SentenceFeatures(sentence, "undirected", 12, allowed).pairs


@pytest.mark.parametrize("mode", ["directed", "undirected"])
def test_arcs_a_pruned_cache_dropped_match_the_string_oracle(bundled, monkeypatch, mode):
    """A pruned cache keeps no position table.  A directed one holds both
    directions of each pair its mask keeps, so the arcs its mask dropped
    in such a pair are gathered from its stored slots and fire as their
    strings do, alone and beside arcs the mask kept; the signs mark the
    gained arcs' slots +1 and the lost arcs' -1.  An arc (or pair) of no
    surviving pair, or no candidate at all, is not held: asking for it,
    gained or lost, alone or beside held arcs, is a StructureError, and
    hashes nothing."""
    pruner, dev = bundled
    sentence = join_sentences(dev[2:10])
    allowed = pruner.mask(sentence)
    pruned = SentenceFeatures(sentence, mode, 12, allowed)
    assert not hasattr(pruned, "table")
    kept, candidates = allowed, arc_matrix(len(sentence))
    strings = directed_feature_strings
    if mode == "undirected":
        kept, candidates = pair_mask(allowed), np.triu(candidates, 1)
        strings = undirected_feature_strings
    dropped = [tuple(arc) for arc in np.argwhere(candidates & ~kept).tolist()]
    held = [arc for arc in dropped if arc in set(pruned.pairs)]
    missing = [arc for arc in dropped if arc not in set(pruned.pairs)]
    assert held == (list(zip(*(d.tolist() for d in pruned.dropped))) if mode == "directed"
                    else [])
    assert len(held) >= (100 if mode == "directed" else 0) and len(missing) >= 100

    def oracle(gained, lost=()):
        signed = [(hash_feature(f, 12), sign) for arcs, sign in ((gained, 1), (lost, -1))
                  for a, b in arcs for f in strings(sentence, a, b)]
        return slot_multiset(*zip(*signed))

    calls = []
    monkeypatch.setattr(features, "hash_arcs", lambda *args: calls.append(args))
    for a, b in held[::7]:
        slots, step = pruned.sum_indices([(a, b)])
        assert slot_multiset(slots, step) == oracle([(a, b)])
    if held:
        gained, lost = held[:3], [pruned.pairs[0], held[-1]]
        slots, step = pruned.sum_indices(gained, lost)
        assert slot_multiset(slots, step) == oracle(gained, lost)
        split = len(pruned.sum_indices(gained)[0])
        assert (step[:split] > 0).all() and (step[split:] < 0).all()
    n = len(sentence)
    for arcs in ([missing[0]], pruned.pairs[:2] + missing[-1:], [(n, n)], [(n, 0)]):
        for update in ((arcs, []), ([], arcs)):
            with pytest.raises(StructureError, match="not held"):
                pruned.sum_indices(*update)
    assert calls == []


def test_update_of_dropped_arcs_gathers_one_call_slots(bundled, monkeypatch):
    """An update with arcs that a pruned u-mst-df (directed) cache,
    hashed in blocks of 256 slots, holds but its mask dropped hashes
    nothing, and gives the slots of one unblocked hash_arcs call over the
    gained then the lost arcs, signed +1 then -1."""
    pruner, dev = bundled
    sentence = join_sentences(dev[:11])
    assert 100 <= len(sentence) <= 110
    monkeypatch.setattr(features, "_BLOCK_SLOTS", 256)
    cache = SentenceFeatures(sentence, "directed", 16, pruner.mask(sentence))
    dropped = np.transpose(cache.dropped)[::5].tolist()
    gained, lost = dropped[:20], cache.pairs[::20][:10] + dropped[20:25]
    assert len(gained) == 20 and len(lost) == 15
    arcs = np.array(gained + lost)
    want, mult, starts = one_call_slots(position_table([sentence], "directed"),
                                        arcs[:, 0], arcs[:, 1], 16)
    calls = []
    monkeypatch.setattr(features, "hash_arcs", lambda *args: calls.append(args))
    slots, step = cache.sum_indices(gained, lost)
    assert calls == []
    assert slots.tobytes() == want.tobytes()
    sign = np.where(np.arange(len(want)) < starts[len(gained)], 1.0, -1.0)
    assert step.tolist() == (sign * mult).tolist()


@pytest.mark.parametrize("mode", ["directed", "undirected"])
def test_a_cache_costs_its_stored_slots_plus_one_block(mode):
    """A cache hashes its arcs in blocks and writes each into its stored
    slots, so building one peaks at what it stores plus one block's
    temporaries; one call over every arc peaked at over twice the bound."""
    import tracemalloc
    s = join_sentences(load_conll(BUNDLED / "fixture_dev.conll")[:15])
    assert len(s) == 149
    tracemalloc.start()
    try:
        cache = SentenceFeatures(s, mode, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= cache._flat.nbytes + cache._mult.nbytes + cache._starts.nbytes + 16e6, peak


@pytest.mark.parametrize("pruned", [False, True])
@pytest.mark.parametrize("mode", ["directed", "undirected"])
def test_held_arcs_are_gathered_from_the_stored_slots(bundled, monkeypatch, mode, pruned):
    """``sum_indices`` hashes nothing: it gathers each arc's stored run,
    in the order the arcs are given, whose slots fire as the string
    oracle's do, with the stored multiplicities signed +1 for gained and
    -1 for lost arcs."""
    pruner, dev = bundled
    strings = directed_feature_strings if mode == "directed" \
        else undirected_feature_strings
    sentences = [s for s in dev[:12] if len(s) > 2]
    caches = [SentenceFeatures(s, mode, 12, pruner.mask(s) if pruned else None)
              for s in sentences]
    calls = []
    monkeypatch.setattr(features, "hash_arcs", lambda *args: calls.append(args))
    for sentence, cache in zip(sentences, caches):

        runs = dict(zip(cache.pairs, _runs(cache._flat, cache._mult, cache._starts)))
        held = cache.pairs[::-3]
        for gained, lost in ((held[:3], []), ([], held[-2:]), (held[1:4], held[:1] + held[-1:])):
            slots, step = cache.sum_indices(gained, lost)
            want = [(slot, sign * times) for arcs, sign in ((gained, 1), (lost, -1))
                    for arc in arcs for slot, times in runs[arc]]
            assert list(zip(slots.tolist(), step.tolist())) == want
            for arc in gained + lost:
                assert slot_multiset(*zip(*runs[arc])) == \
                    _string_multiset(strings(sentence, *arc), (1 << 12) - 1)
    assert calls == []


def _all_arcs(sentence, mode):
    arcs = arc_matrix(len(sentence))
    return np.nonzero(arcs if mode == "directed" else pair_mask(arcs))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_arc_slots_do_not_depend_on_the_call(bundled, data):
    """An arc's slots are its slice of the sentence's full hash_arcs call,
    whatever other arcs share its call (any subset, in any order, with
    repeats) and alone, from the same table or a fresh one.  A direct
    hash_arcs call never changes its table (only hash_blocks builds
    planes), so with 40-byte tags every call here composes the planes
    past 64 shifts that it reads."""
    _, dev = bundled
    sentence = data.draw(st.sampled_from(
        [FIXTURE, WIDE, join_sentences(dev[2:10])] + dev[:30]
        + [padded(s, 40) for s in dev[:10]]), label="sentence")
    mode = data.draw(st.sampled_from(["directed", "undirected"]), label="mode")
    table = position_table([sentence], mode)
    a, b = _all_arcs(sentence, mode)
    pick = data.draw(st.lists(st.integers(0, len(a) - 1), min_size=1, max_size=60),
                     label="arcs")
    before = _runs(*one_call_slots(table, a[pick], b[pick], 30))
    full = _runs(*one_call_slots(table, a, b, 30))
    after = _runs(*one_call_slots(table, a[pick], b[pick], 30))
    for k, first, again in zip(pick, before, after):
        assert first == full[k] == again
    k = pick[0]
    alone, = _runs(*one_call_slots(position_table([sentence], mode),
                                   a[k:k + 1], b[k:k + 1], 30))
    assert alone == full[k]


def _oracle_slots(sentence, mode, a, b):
    strings = directed_feature_strings if mode == "directed" \
        else undirected_feature_strings
    return _string_multiset(strings(sentence, a, b), (1 << 30) - 1)


@pytest.mark.parametrize("block", [256, 1 << 16])
@pytest.mark.parametrize("mode, longest_conj", [("directed", 7), ("undirected", 5)])
@pytest.mark.parametrize("longest", [63, 64, 65])
def test_each_kind_of_table_matches_the_oracle(monkeypatch, mode, longest_conj, longest,
                                               block):
    """The table holds the planes of the shifts below min(width, 64), the
    width being the sentence's longest shift plus one, and never more: a
    list of every arc, hashed in blocks of 256 slots or in one, leaves the
    planes as they were and gives every arc the CRC32s of its feature
    strings, composing the planes past 64 shifts that it reads; so does a
    single arc from a fresh table."""
    monkeypatch.setattr(features, "_BLOCK_SLOTS", block)
    # "|{w}|NN" is len(w) + 4 bytes long
    form = "w" * (longest - longest_conj - 4)
    sentence = sent([("a", "DT"), (form, "NN")] + [("b", "VB")] * 9)
    a, b = _all_arcs(sentence, mode)
    stride = 13 * 12
    table = position_table([sentence], mode)
    planes = table.planes
    assert table.width == longest + 1 and len(planes) == stride * min(longest + 1, 64)
    offsets = features._offsets(table, a, b)
    assert offsets[-1] > 256
    flat, mult = features._hash_list(table, a, b, 30, offsets)
    assert table.planes is planes and len(planes) == stride * min(longest + 1, 64)
    for k, got in enumerate(_multisets(flat, mult, offsets[:-1])):
        assert got == _oracle_slots(sentence, mode, a[k], b[k])
    for k in (0, len(a) // 2, len(a) - 1):
        alone, = _multisets(*one_call_slots(position_table([sentence], mode),
                                            a[k:k + 1], b[k:k + 1], 30))
        assert alone == _oracle_slots(sentence, mode, a[k], b[k])


@pytest.mark.parametrize("mode", ["directed", "undirected"])
def test_long_token_costs_no_planes(mode):
    """A 100 kB form shifts pieces by 100 kB; the table holds the planes
    of 64 shifts only, featurizing allocates well under what planes up to
    that shift would take (5 positions x 13 pieces x 100k shifts x 8
    bytes, 52 MB), and every arc matches the oracle."""
    import tracemalloc
    sentence = sent([("a", "DT"), ("w" * 100_000, "NN"), ("b", "VB"), ("c", "JJ")])
    a, b = _all_arcs(sentence, mode)
    tracemalloc.start()
    try:
        table = position_table([sentence], mode)
        slots = one_call_slots(table, a, b, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.planes) == 64 * 5 * 13
    assert peak < 4_000_000
    for k, got in enumerate(_multisets(*slots)):
        assert got == _oracle_slots(sentence, mode, a[k], b[k])


def test_a_read_never_changes_the_table():
    """A table is frozen.  Reading every index of one that lacks planes
    past 64 shifts gives each index's unshifted plane run through as many
    zero bytes as its shift, the held planes where it holds them, and
    leaves the planes as they were; so does a list of every arc hashed in
    blocks of 256 slots."""
    sentence = sent([(f"w{i}", "NN".ljust(40, "-")) for i in range(12)])
    table = position_table([sentence], "directed")
    planes, stride = table.planes, 13 * 13
    assert len(planes) == 64 * stride < table.width * stride
    at = np.arange(table.width * stride)
    read = table.read(at)
    assert table.planes is planes and len(table.planes) == 64 * stride
    assert read[:len(planes)].tolist() == planes.tolist()
    # crc(A + L zero bytes) = Z_L(crc A) ^ crc(L zero bytes)
    for k in at[::37].tolist():
        zeros = bytes(k // stride)
        assert read[k] == zlib.crc32(zeros, int(planes[k % stride])) ^ zlib.crc32(zeros)
    a, b = _all_arcs(sentence, "directed")
    offsets = features._offsets(table, a, b)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(features, "_BLOCK_SLOTS", 256)
        features._hash_list(table, a, b, 30, offsets)
    assert table.planes is planes and len(table.planes) == 64 * stride
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.planes = read


@pytest.mark.parametrize("mode, width, block", [
    ("directed", 30, 256), ("directed", 40, 256), ("undirected", 30, 256),
    ("undirected", 40, 256), ("directed", 40, 4394), ("directed", 40, 1 << 16)])
def test_hash_blocks_cuts_a_list_in_order(monkeypatch, mode, width, block):
    """``hash_blocks`` cuts an arc list into consecutive blocks, in order
    and none longer than a block (one block when the list fits), and
    builds nothing: 12 tokens with 30- or 40-byte tags shift past the
    table's 64, whose planes stay as they were while every block
    composes those it reads past them.  The blocks hold the slots of one
    unblocked call."""
    monkeypatch.setattr(features, "_BLOCK_SLOTS", block)
    sentence = sent([(f"w{i}", "NN".ljust(width, "-")) for i in range(12)])
    a, b = _all_arcs(sentence, mode)
    table = position_table([sentence], mode)
    planes, stride = table.planes, 13 * 13
    assert len(planes) == 64 * stride < table.width * stride
    offsets = features._offsets(table, a, b)
    assert offsets[-1] == {"directed": 5138, "undirected": 2784}[mode]
    bounds = list(features.hash_blocks(offsets))
    assert bounds[0][0] == 0 and bounds[-1][1] == len(a)
    assert (len(bounds) == 1) == (offsets[-1] <= block)
    assert [lo for lo, _ in bounds[1:]] == [hi for _, hi in bounds[:-1]]
    assert all(offsets[hi] - offsets[lo] <= block for lo, hi in bounds)
    flat = np.empty(offsets[-1], dtype=np.int64)
    mult = np.empty(offsets[-1], dtype=table.mult_dtype())
    for lo, hi in bounds:
        hash_arcs(table, a[lo:hi], b[lo:hi], 30, flat[offsets[lo]:offsets[hi]],
                  mult[offsets[lo]:offsets[hi]], offsets[lo:hi + 1] - offsets[lo])
    assert table.planes is planes
    want, want_mult, _ = one_call_slots(position_table([sentence], mode), a, b, 30)
    assert flat.tolist() == want.tolist() and mult.tolist() == want_mult.tolist()


def _recording(monkeypatch):
    """The slot array every hash_arcs call receives, in call order."""
    received, real = [], features.hash_arcs

    def hashing(table, a, b, hash_bits, flat, mult, offsets):
        received.append(flat)
        return real(table, a, b, hash_bits, flat, mult, offsets)

    monkeypatch.setattr(features, "hash_arcs", hashing)
    return received


def _address(array):
    return array.__array_interface__["data"][0]


@pytest.mark.parametrize("corpus_pass", [False, True])
def test_blocks_are_hashed_in_place_into_the_cache(bundled, monkeypatch, corpus_pass):
    """A directed cache of several blocks, built alone or by the corpus
    pass, is written where it is stored: every slot array hash_arcs
    receives is a view of the cache's ``_flat``, and the blocks tile it
    in order, so no block is copied.  The slots are those of one
    unblocked call."""
    _, dev = bundled
    sentence = join_sentences(dev[2:10])
    monkeypatch.setattr(features, "_BLOCK_SLOTS", 256)
    received = _recording(monkeypatch)
    if corpus_pass:
        cache, = featurize_corpus([sentence], "directed", 16)
    else:
        cache = SentenceFeatures(sentence, "directed", 16)
    assert len(received) > 2
    at = _address(cache._flat)
    for flat in received:
        assert np.shares_memory(flat, cache._flat) and _address(flat) == at
        at += flat.nbytes
    assert at == _address(cache._flat) + cache._flat.nbytes
    want, mult, starts = one_call_slots(position_table([sentence], "directed"),
                                        cache.pair_a, cache.pair_b, 16)
    assert cache._flat.tobytes() == want.tobytes()
    assert cache._mult.tobytes() == mult.tobytes()
    assert cache._starts.tobytes() == starts.tobytes()


def test_a_scorer_hashes_every_block_into_one_buffer(bundled, monkeypatch):
    """One multi-block ``LazyArcScores.table()`` call hands every block
    the same slot buffer (each block a view of it from its start), and
    its scores are the bytes of a cache's gather, which reads the arcs a
    pruned cache holds but its mask dropped as -inf."""
    pruner, dev = bundled
    sentence = join_sentences(dev[2:10])
    model = Model.new("directed", hash_bits=16)
    model.weights = np.random.default_rng(191).normal(size=model.size())
    monkeypatch.setattr(features, "_BLOCK_SLOTS", 256)
    received = _recording(monkeypatch)
    for allowed in (None, pruner.mask(sentence)):
        want = directed_score_table(sentence, model, None,
                                    SentenceFeatures(sentence, "directed", 16, allowed))
        received.clear()
        got = features.LazyArcScores(sentence, model, allowed).table()
        assert len(received) > 2
        base = received[0].base
        assert base is not None and len(base) <= 256
        assert all(flat.base is base and _address(flat) == _address(base)
                   for flat in received)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("corpus_pass", [False, True])
@pytest.mark.parametrize("mode", ["directed", "undirected"])
def test_training_caches_keep_only_their_arrays(mode, corpus_pass):
    """Pruned training caches of the first 300 bundled training sentences
    (perfbench's ``short`` corpus) retain their stored slots, multiplicities,
    starts, pairs and dropped arcs and little else, built one by one or by
    the corpus pass (whose
    caches' slots are slices of their chunk's): no position table, with
    which they retained 4.0 MB more in either mode."""
    import tracemalloc
    train = load_conll(BUNDLED / "fixture_train.conll")[:300]
    pruner = build_pruner(train)
    masks = {id(s): pruner.mask(s) for s in train}
    for s in train:                   # fill the memo rows before tracing
        position_table([s], mode)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        if corpus_pass:
            caches = featurize_corpus(train, mode, 22, lambda s: masks[id(s)])
        else:
            caches = [SentenceFeatures(s, mode, 22, masks[id(s)]) for s in train]
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    stored = sum(c._flat.nbytes + c._mult.nbytes + c._starts.nbytes + c.pair_a.nbytes
                 + c.pair_b.nbytes + sum(d.nbytes for d in c.dropped) for c in caches)
    assert kept <= stored + 1e6, (kept, stored)


@pytest.mark.parametrize("pruned", [False, True])
@pytest.mark.parametrize("mode", ["directed", "undirected"])
def test_corpus_pass_equals_one_cache_a_sentence(bundled, monkeypatch, mode, pruned):
    """``featurize_corpus`` gives every sentence the arrays of
    ``SentenceFeatures(sentence, mode, hash_bits, mask)``, byte for byte
    and read-only alike, over chunks of at most _CHUNK_POSITIONS
    positions: 1-token sentences, forms and tags past 256 bytes, a
    94-token sentence whose arcs take several hashing blocks, sentences
    with 40-byte tags, whose shifts go past 64, stacked with 15-byte
    ones, and a 256-token sentence, whose multiplicities take 2 bytes
    where the others' take 1, in a chunk of its own."""
    pruner, dev = bundled
    one = sent([("x", "NN")])
    long = join_sentences(dev[2:12])
    huge = join_sentences(dev[:27])
    wide = [padded(s, 40) for s in dev[10:14]]
    corpus = [one, FIXTURE, WIDE] + dev[:40] + [long] + wide + [one, huge] + dev[40:60]
    rules = build_pruner(dev + wide + [WIDE])
    mask = rules.mask if pruned else None
    chunks, real = [], features.position_table

    def table(sentences, table_mode):
        chunks.append(sentences)
        return real(sentences, table_mode)

    monkeypatch.setattr(features, "position_table", table)
    caches = featurize_corpus(corpus, mode, 22, mask)
    monkeypatch.undo()
    assert len(chunks) >= 2 and sum(map(len, chunks)) == len(corpus)
    assert len(caches) == len(corpus)
    full = SentenceFeatures(long, mode, 22)
    assert len(long) == 94 and len(full._flat) > 2 * features._BLOCK_SLOTS
    assert len(huge) == 256 and any(len(c) == 1 and c[0] is huge for c in chunks)
    for sentence, cache in zip(corpus, caches):
        alone = SentenceFeatures(sentence, mode, 22, None if mask is None else mask(sentence))
        assert cache.sentence is sentence
        assert (cache.mode, cache.hash_bits) == (mode, 22)
        assert cache._mult.dtype == (np.uint16 if sentence is huge else np.uint8)
        arrays = [(name, getattr(cache, name), getattr(alone, name))
                  for name in ("pair_a", "pair_b", "_flat", "_mult", "_starts")]
        arrays += [("dropped", got, want) for got, want in zip(cache.dropped, alone.dropped)]
        for name, got, want in arrays:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
            assert not got.flags.writeable and not want.flags.writeable, name


def test_corpus_pass_holds_one_chunk_at_a_time():
    """The corpus pass over the 600 bundled training sentences, about
    6,600 positions, peaks at its caches plus one chunk's table and
    hashing temporaries; one table stacking every sentence holds about
    15 kB a position, over 90 MB."""
    import tracemalloc
    train = load_conll(BUNDLED / "fixture_train.conll")
    tracemalloc.start()
    try:
        caches = featurize_corpus(train, "directed", 22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stored = sum(c._flat.nbytes + c._mult.nbytes + c._starts.nbytes + c.pair_a.nbytes
                 + c.pair_b.nbytes for c in caches)
    assert peak <= stored + 16e6, (peak, stored)
