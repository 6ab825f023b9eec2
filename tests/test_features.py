import dataclasses
import json
import pathlib
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from umstparse.conll import Sentence, Token, load_conll
from umstparse.errors import DataError, InputError
from umstparse.features import (COMBINERS, Model, SentenceFeatures, arc_matrix,
                                distance_bin, hash_arcs, load_model, pair_mask,
                                position_table, save_model)
from umstparse.inference import build_pruner
from umstparse.training import TrainConfig

from oracles import (
    FeatureVector,
    directed_arcs,
    directed_feature_strings,
    extract_directed,
    extract_undirected,
    hash_feature,
    join_sentences,
    score,
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
        assert sorted(cache.sum_indices([(1, 4)]).tolist()) == fv.indices.tolist()


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


@pytest.mark.parametrize("mode", ["directed", "undirected"])
def test_cache_matches_string_oracle_in_emission_order(bundled, mode):
    """Every pair's slots are the CRC32s of its feature strings, in the
    order *_feature_strings emits them; pairs come in row-major order.
    Dev sentences with 15-byte tags read only planes copied from memo
    rows; with 40-byte tags, the calls of the longest sentences build the
    planes past the memo's 64 shifts, and the others compose those they
    read."""
    pruner, dev = bundled
    long = join_sentences(dev[2:10])
    assert len(long) == 70
    # the pruner learns the lengths of padded tags from the padded dev set
    tagged = {width: ([padded(s, width) for s in dev[2:10]],
                      build_pruner([padded(s, width) for s in dev]))
              for width in (15, 40)}
    strings = directed_feature_strings if mode == "directed" \
        else undirected_feature_strings
    enumerate_pairs = directed_arcs if mode == "directed" else undirected_pairs
    cases = [(sentence, pruner) for sentence in (FIXTURE, long, WIDE)]
    cases += [(sentence, rules) for sentences, rules in tagged.values()
              for sentence in sentences]
    for sentence, rules in cases:
        crcs = {}
        for rule in (None, rules):
            pairs = enumerate_pairs(sentence, rule)
            allowed = None if rule is None else rule.mask(sentence)
            for a, b in pairs:
                if (a, b) not in crcs:
                    crcs[a, b] = np.asarray(
                        [zlib.crc32(s.encode("utf-8")) for s in strings(sentence, a, b)])
            for hash_bits in (1, 12, 22, 30):
                mask = (1 << hash_bits) - 1
                cache = SentenceFeatures(sentence, mode, hash_bits, allowed)
                assert cache.pairs == pairs
                for a, b in pairs:
                    assert cache.sum_indices([(a, b)]).tolist() == \
                        (crcs[a, b] & mask).tolist()
                assert cache.sum_indices(pairs).tolist() == \
                    np.concatenate([crcs[p] & mask for p in pairs]).tolist()


def test_pairs_outside_the_cache_raise(bundled):
    """A pair the pruner drops, or an arc into the root, has no slots: asking
    for it raises KeyError, also beside pairs that the cache holds."""
    pruner, dev = bundled
    sentence = join_sentences(dev[2:10])
    allowed = pruner.mask(sentence)
    pruned = SentenceFeatures(sentence, "undirected", 12, allowed)
    dropped = np.argwhere(~pair_mask(allowed)
                          & np.triu(arc_matrix(len(sentence)), 1))
    assert len(dropped)
    a, b = dropped[0].tolist()
    kept = pruned.pairs[0]
    for arcs in ([(a, b)], [kept, (a, b)]):
        with pytest.raises(KeyError, match="pair not in the feature cache"):
            pruned.sum_indices(arcs)
    directed = SentenceFeatures(FIXTURE, "directed", 12)
    assert len(directed.sum_indices([(0, 1)]))
    with pytest.raises(KeyError, match="pair not in the feature cache"):
        directed.sum_indices([(1, 0)])


def _all_arcs(sentence, mode):
    arcs = arc_matrix(len(sentence))
    return np.nonzero(arcs if mode == "directed" else pair_mask(arcs))


def _slices(flat, starts):
    return np.split(flat, starts[1:])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_arc_slots_do_not_depend_on_the_call(bundled, data):
    """An arc's slots are its slice of the sentence's full hash_arcs call,
    whatever other arcs share its call (any subset, in any order, with
    repeats) and alone, from the same table or a fresh one.  As in
    LazyArcScores across LEP rounds, the subset's call comes first on the
    table: with 40-byte tags it may compose planes that the full call then
    builds."""
    _, dev = bundled
    sentence = data.draw(st.sampled_from(
        [FIXTURE, WIDE, join_sentences(dev[2:10])] + dev[:30]
        + [padded(s, 40) for s in dev[:10]]), label="sentence")
    mode = data.draw(st.sampled_from(["directed", "undirected"]), label="mode")
    table = position_table(sentence, mode)
    a, b = _all_arcs(sentence, mode)
    pick = data.draw(st.lists(st.integers(0, len(a) - 1), min_size=1, max_size=60),
                     label="arcs")
    before = _slices(*hash_arcs(table, mode, a[pick], b[pick], 30))
    full = _slices(*hash_arcs(table, mode, a, b, 30))
    after = _slices(*hash_arcs(table, mode, a[pick], b[pick], 30))
    for k, first, again in zip(pick, before, after):
        assert first.tolist() == full[k].tolist() == again.tolist()
    k = pick[0]
    alone, = _slices(*hash_arcs(position_table(sentence, mode), mode,
                                a[k:k + 1], b[k:k + 1], 30))
    assert alone.tolist() == full[k].tolist()


def _oracle_slots(sentence, mode, a, b):
    strings = directed_feature_strings if mode == "directed" \
        else undirected_feature_strings
    return [zlib.crc32(s.encode("utf-8")) & (1 << 30) - 1 for s in strings(sentence, a, b)]


def _arcs_of_slots(a, b, slots):
    """Indices of arcs whose hash_arcs call has exactly ``slots`` slots;
    an arc has 2 (16 + |b - a|) of them."""
    ways = {0: []}
    for k, size in enumerate((32 + 2 * np.abs(b - a)).tolist()):
        for total, arcs in list(ways.items()):
            if total + size <= slots:
                ways.setdefault(total + size, arcs + [k])
    return np.array(ways[slots])


@pytest.mark.parametrize("mode, longest_conj", [("directed", 7), ("undirected", 5)])
@pytest.mark.parametrize("longest, short", [(63, 0), (64, 2), (64, 0), (65, 2), (65, 0)])
def test_each_kind_of_table_matches_the_oracle(mode, longest_conj, longest, short):
    """The table holds the planes of the shifts below min(width, 64), the
    width being the sentence's longest shift plus one.  When it lacks
    some, a first call ``short`` slots short of the missing planes
    composes those it reads, and one with as many builds them all; with
    12 positions there are 156 missing planes a shift, and as every
    call's slot count is even, 2 short is the closest.  Each call, and a
    full call after it, gives every arc the CRC32s of its feature
    strings, and so does a single arc from a fresh table."""
    # "|{w}|NN" is len(w) + 4 bytes long
    form = "w" * (longest - longest_conj - 4)
    sentence = sent([("a", "DT"), (form, "NN")] + [("b", "VB")] * 9)
    a, b = _all_arcs(sentence, mode)
    oracle = [_oracle_slots(sentence, mode, a[k], b[k]) for k in range(len(a))]
    stride = 13 * 12
    missing = (longest + 1 - 64) * stride
    table = position_table(sentence, mode)
    assert len(table.planes) == stride * min(longest + 1, 64)
    pick = _arcs_of_slots(a, b, missing - short) if missing else np.arange(len(a))
    first = _slices(*hash_arcs(table, mode, a[pick], b[pick], 30))
    assert len(table.planes) == stride * (64 if short else max(longest + 1, 64))
    for k, got in zip(pick, first):
        assert got.tolist() == oracle[k]
    for k, got in enumerate(_slices(*hash_arcs(table, mode, a, b, 30))):
        assert got.tolist() == oracle[k]
    for k in (0, len(a) // 2, len(a) - 1):
        alone, = _slices(*hash_arcs(position_table(sentence, mode), mode,
                                    a[k:k + 1], b[k:k + 1], 30))
        assert alone.tolist() == oracle[k]


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
        table = position_table(sentence, mode)
        flat, starts = hash_arcs(table, mode, a, b, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.planes) == 64 * 5 * 13
    assert peak < 4_000_000
    for k, got in enumerate(_slices(flat, starts)):
        assert got.tolist() == _oracle_slots(sentence, mode, a[k], b[k])
