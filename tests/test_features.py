import dataclasses
import json
import pathlib
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from umstparse import features
from umstparse.conll import Sentence, Token, load_conll
from umstparse.errors import DataError, InputError
from umstparse.features import (COMBINERS, Model, SentenceFeatures, arc_matrix,
                                distance_bin, featurize_corpus, hash_arcs, load_model,
                                pair_mask, position_table, save_model)
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
        assert sorted(cache.sum_indices([(1, 4)])[0].tolist()) == fv.indices.tolist()

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
            slots, sign = cache.sum_indices([], [])
            assert slots.dtype == np.int64 and len(slots) == 0
            assert sign.dtype == np.float64 and len(sign) == 0
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


@pytest.mark.parametrize("mode", ["directed", "undirected"])
def test_cache_matches_string_oracle_in_emission_order(bundled, mode):
    """Every pair's slots are the CRC32s of its feature strings, in the
    order *_feature_strings emits them, both as stored and as
    ``sum_indices`` hashes them; pairs come in row-major order.  Dev
    sentences with 15-byte tags read only planes copied from memo
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
                    assert cache.sum_indices([(a, b)])[0].tolist() == \
                        (crcs[a, b] & mask).tolist()
                expected = [crcs[p] & mask for p in pairs]
                assert cache.sum_indices(pairs)[0].tolist() == \
                    np.concatenate(expected).tolist()
                # the stored slots, which parse and training predictions read
                assert cache._flat.tolist() == np.concatenate(expected).tolist()
                assert cache._starts.tolist() == \
                    np.cumsum([0] + [len(e) for e in expected[:-1]]).tolist()


@pytest.mark.parametrize("mode", ["directed", "undirected"])
def test_arcs_a_pruned_cache_dropped_match_the_string_oracle(bundled, mode):
    """A pruned cache keeps no position table, yet the arcs (or pairs) its
    mask dropped still get their oracle slots, hashed from a table built
    for the call, alone and beside arcs the cache holds; the signs mark
    the gained arcs' slots +1 and the lost arcs' -1."""
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
    assert len(dropped) and not set(dropped) & set(pruned.pairs)

    def oracle(arcs):
        return [hash_feature(f, 12) for a, b in arcs for f in strings(sentence, a, b)]

    for a, b in dropped[::7]:
        assert pruned.sum_indices([(a, b)])[0].tolist() == oracle([(a, b)])
    gained, lost = dropped[:3], [pruned.pairs[0], dropped[-1]]
    slots, sign = pruned.sum_indices(gained, lost)
    assert slots.tolist() == oracle(gained + lost)
    assert sign.tolist() == [1.0] * len(oracle(gained)) + [-1.0] * len(oracle(lost))


def test_blocked_update_of_dropped_arcs_equals_one_call(bundled, monkeypatch):
    """An update with arcs a pruned u-mst-df (directed) cache dropped is
    hashed by ``hash_blocks``, in blocks of at most ``_BLOCK_SLOTS`` slots
    (256 here), and gives the slots of one unblocked hash_arcs call over
    the gained then the lost arcs, signed +1 then -1."""
    pruner, dev = bundled
    sentence = join_sentences(dev[:11])
    assert 100 <= len(sentence) <= 110
    allowed = pruner.mask(sentence)
    cache = SentenceFeatures(sentence, "directed", 16, allowed)
    dropped = np.argwhere(arc_matrix(len(sentence)) & ~allowed)[::40].tolist()
    gained, lost = dropped[:20], cache.pairs[::20][:10] + dropped[20:25]
    assert len(gained) == 20 and len(lost) >= 15
    arcs = np.array(gained + lost)
    want, starts = hash_arcs(position_table([sentence], "directed"),
                             arcs[:, 0], arcs[:, 1], 16)
    monkeypatch.setattr(features, "_BLOCK_SLOTS", 256)
    calls, real = [], features.hash_arcs

    def hashing(*args):
        calls.append(real(*args))
        return calls[-1]

    monkeypatch.setattr(features, "hash_arcs", hashing)
    slots, sign = cache.sum_indices(gained, lost)
    assert len(calls) > 1
    assert all(len(flat) <= 256 or len(at) == 1 for flat, at in calls)
    assert slots.tobytes() == want.tobytes()
    assert sign.tolist() == [1.0] * starts[len(gained)] + \
        [-1.0] * (len(want) - starts[len(gained)])


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
    assert peak <= cache._flat.nbytes + cache._starts.nbytes + 16e6, peak


@pytest.mark.parametrize("pruned", [False, True])
@pytest.mark.parametrize("mode", ["directed", "undirected"])
def test_held_arcs_are_gathered_from_the_stored_slots(bundled, monkeypatch, mode, pruned):
    """``sum_indices`` on arcs the cache holds (as every gold arc and
    every prediction of d-mst and u-mst-uf is) hashes nothing: it gathers
    each arc's stored run, in the order the arcs are given, with the
    string oracle's slots and +1/-1 signs for gained and lost arcs."""
    pruner, dev = bundled
    strings = directed_feature_strings if mode == "directed" \
        else undirected_feature_strings
    sentences = [s for s in dev[:12] if len(s) > 2]
    caches = [SentenceFeatures(s, mode, 12, pruner.mask(s) if pruned else None)
              for s in sentences]
    calls = []
    monkeypatch.setattr(features, "hash_arcs", lambda *args: calls.append(args))
    for sentence, cache in zip(sentences, caches):

        def oracle(arcs):
            return [hash_feature(f, 12) for a, b in arcs for f in strings(sentence, a, b)]

        held = cache.pairs[::-3]
        for gained, lost in ((held[:3], []), ([], held[-2:]), (held[1:4], held[:1] + held[-1:])):
            slots, sign = cache.sum_indices(gained, lost)
            assert slots.tolist() == oracle(gained + lost)
            assert sign.tolist() == [1.0] * len(oracle(gained)) + [-1.0] * len(oracle(lost))
    assert calls == []


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
    before = _slices(*hash_arcs(table, a[pick], b[pick], 30))
    full = _slices(*hash_arcs(table, a, b, 30))
    after = _slices(*hash_arcs(table, a[pick], b[pick], 30))
    for k, first, again in zip(pick, before, after):
        assert first.tolist() == full[k].tolist() == again.tolist()
    k = pick[0]
    alone, = _slices(*hash_arcs(position_table([sentence], mode), a[k:k + 1], b[k:k + 1], 30))
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
    some, a first ``hash_blocks`` list ``short`` slots short of the
    missing planes composes those it reads, and one with as many builds
    them all; with 12 positions there are 156 missing planes a shift, and
    as every list's slot count is even, 2 short is the closest.  That
    list, and a full call after it, gives every arc the CRC32s of its
    feature strings, and so does a single arc from a fresh table."""
    # "|{w}|NN" is len(w) + 4 bytes long
    form = "w" * (longest - longest_conj - 4)
    sentence = sent([("a", "DT"), (form, "NN")] + [("b", "VB")] * 9)
    a, b = _all_arcs(sentence, mode)
    oracle = [_oracle_slots(sentence, mode, a[k], b[k]) for k in range(len(a))]
    stride = 13 * 12
    missing = (longest + 1 - 64) * stride
    table = position_table([sentence], mode)
    assert len(table.planes) == stride * min(longest + 1, 64)
    pick = _arcs_of_slots(a, b, missing - short) if missing else np.arange(len(a))
    first = [got for *_, flat, starts in features.hash_blocks(table, a[pick], b[pick], 30)
             for got in _slices(flat, starts)]
    assert len(first) == len(pick)
    assert len(table.planes) == stride * (64 if short else max(longest + 1, 64))
    for k, got in zip(pick, first):
        assert got.tolist() == oracle[k]
    for k, got in enumerate(_slices(*hash_arcs(table, a, b, 30))):
        assert got.tolist() == oracle[k]
    for k in (0, len(a) // 2, len(a) - 1):
        alone, = _slices(*hash_arcs(position_table([sentence], mode), a[k:k + 1], b[k:k + 1], 30))
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
        table = position_table([sentence], mode)
        flat, starts = hash_arcs(table, a, b, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.planes) == 64 * 5 * 13
    assert peak < 4_000_000
    for k, got in enumerate(_slices(flat, starts)):
        assert got.tolist() == _oracle_slots(sentence, mode, a[k], b[k])


def test_a_read_never_changes_the_table():
    """Reading every index of a table that lacks planes past 64 shifts
    composes them and leaves the table as it was, and so does a direct
    hash_arcs call over every arc: only hash_blocks builds planes."""
    sentence = sent([(f"w{i}", "NN".ljust(40, "-")) for i in range(12)])
    table = position_table([sentence], "directed")
    planes, stride = table.planes, 13 * 13
    assert len(planes) == 64 * stride < table.width * stride
    read = table.read(np.arange(table.width * stride))
    assert table.planes is planes and len(table.planes) == 64 * stride
    assert read[:len(planes)].tolist() == planes.tolist()
    hash_arcs(table, *_all_arcs(sentence, "directed"), 30)
    assert table.planes is planes and len(table.planes) == 64 * stride


@pytest.mark.parametrize("mode, width, block, built", [
    ("directed", 30, 256, True), ("directed", 40, 256, False),
    ("undirected", 30, 256, True), ("undirected", 40, 256, False),
    ("directed", 40, 4394, True), ("directed", 40, 4392, False)])
def test_hash_blocks_builds_before_its_first_block(monkeypatch, mode, width, block, built):
    """A list longer than one block builds every plane its table lacks,
    before its first block, when they number at most min(its slots,
    max(one block, 13 (n+1)²)); else each block composes them.  12 tokens
    with 30-byte tags lack 1,014 (directed) or 676 planes, with 40-byte
    ones 4,394 or 4,056, against 13 (n+1)² = 2,197 and, for every arc,
    5,908 or 3,224 slots.  Either way the blocks hold the slots of one
    unblocked call."""
    monkeypatch.setattr(features, "_BLOCK_SLOTS", block)
    sentence = sent([(f"w{i}", "NN".ljust(width, "-")) for i in range(12)])
    a, b = _all_arcs(sentence, mode)
    table = position_table([sentence], mode)
    stride = 13 * 13
    assert len(table.planes) == 64 * stride
    blocks = features.hash_blocks(table, a, b, 30)
    _, hi, first, _ = next(blocks)
    assert hi < len(a)
    assert len(table.planes) == (table.width if built else 64) * stride
    got = [first] + [flat for *_, flat, _ in blocks]
    assert len(table.planes) == (table.width if built else 64) * stride
    assert np.concatenate(got).tolist() == \
        hash_arcs(position_table([sentence], mode), a, b, 30)[0].tolist()


@pytest.mark.parametrize("corpus_pass", [False, True])
@pytest.mark.parametrize("mode", ["directed", "undirected"])
def test_training_caches_keep_only_their_arrays(mode, corpus_pass):
    """Pruned training caches of the first 300 bundled training sentences
    (perfbench's ``short`` corpus) retain their stored slots, starts and
    pairs and little else, built one by one or by the corpus pass (whose
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
    stored = sum(c._flat.nbytes + c._starts.nbytes + c.pair_a.nbytes + c.pair_b.nbytes
                 for c in caches)
    assert kept <= stored + 1e6, (kept, stored)


@pytest.mark.parametrize("pruned", [False, True])
@pytest.mark.parametrize("mode", ["directed", "undirected"])
def test_corpus_pass_equals_one_cache_a_sentence(bundled, monkeypatch, mode, pruned):
    """``featurize_corpus`` gives every sentence the arrays of
    ``SentenceFeatures(sentence, mode, hash_bits, mask)``, byte for byte
    and read-only alike, over chunks of at most _CHUNK_POSITIONS
    positions: 1-token sentences, forms and tags past 256 bytes, a
    70-token sentence whose arcs take several hashing blocks, and
    sentences with 40-byte tags, whose shifts go past 64, stacked with
    15-byte ones."""
    pruner, dev = bundled
    one = sent([("x", "NN")])
    long = join_sentences(dev[2:10])
    wide = [padded(s, 40) for s in dev[10:14]]
    corpus = [one, FIXTURE, WIDE] + dev[:40] + [long] + wide + [one] + dev[40:60]
    rules = build_pruner(dev + wide + [WIDE])
    mask = rules.mask if pruned else None
    chunks, real = [], features.position_table

    def table(sentences, table_mode):
        chunks.append(len(sentences))
        return real(sentences, table_mode)

    monkeypatch.setattr(features, "position_table", table)
    caches = featurize_corpus(corpus, mode, 22, mask)
    monkeypatch.undo()
    assert len(chunks) >= 2 and sum(chunks) == len(corpus)
    assert len(caches) == len(corpus)
    full = SentenceFeatures(long, mode, 22)
    assert len(full._flat) > 2 * features._BLOCK_SLOTS
    for sentence, cache in zip(corpus, caches):
        alone = SentenceFeatures(sentence, mode, 22, None if mask is None else mask(sentence))
        assert cache.sentence is sentence
        assert (cache.mode, cache.hash_bits) == (mode, 22)
        for name in ("pair_a", "pair_b", "_flat", "_starts"):
            got, want = getattr(cache, name), getattr(alone, name)
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
    stored = sum(c._flat.nbytes + c._starts.nbytes + c.pair_a.nbytes + c.pair_b.nbytes
                 for c in caches)
    assert peak <= stored + 16e6, (peak, stored)
