import numpy as np
import pytest

from umstparse.conll import DependencyTree, Sentence, Token
from umstparse.errors import InputError
from umstparse.evaluate import (
    EvalReport,
    format_report,
    head_to_head,
    oracle_combine,
    report_csv_rows,
    score,
)


def sent(words_tags, heads):
    tokens = tuple(Token(index=i + 1, form=w, postag=p)
                   for i, (w, p) in enumerate(words_tags))
    return Sentence(tokens=tokens, gold_heads=tuple(heads),
                    gold_labels=tuple(["dep"] * len(tokens)))


GOLD = [
    sent([("the", "D"), ("dog", "N"), ("runs", "V"), (".", "PU")], [2, 3, 0, 3]),
    sent([("birds", "N"), ("sing", "V")], [2, 0]),
]


def trees(*heads):
    return [DependencyTree(heads=tuple(h)) for h in heads]


def test_perfect_prediction():
    pred = [DependencyTree(heads=s.gold_heads) for s in GOLD]
    report = score(GOLD, pred)
    assert report.d_uas == 100.0
    assert report.u_uas == 100.0


def test_direction_only_error():
    gold = [sent([("a", "A"), ("b", "B")], [0, 1])]
    pred = trees([2, 0])  # heads reversed along the same chain
    report = score(gold, pred)
    assert report.d_uas == 0.0
    assert report.u_uas == 50.0  # pair {1,2} is a gold edge; {0,2} is not


def test_punctuation_excluded_by_default():
    pred = trees([2, 3, 0, 1], [2, 0])
    with_punct = score(GOLD, pred, exclude_punct=False)
    without = score(GOLD, pred, exclude_punct=True)
    assert without.n_scored_tokens == with_punct.n_scored_tokens - 1
    # the only error in sentence 0 is the punctuation head; filtered out
    assert without.per_sentence[0][0] == 3


def test_u_uas_dominates_d_uas():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        heads = [int(rng.integers(0, i)) for i in range(1, n + 1)]
        gold = [sent([(f"w{i}", "N") for i in range(n)], heads)]
        pred_heads = [int(rng.integers(0, n + 1)) for i in range(n)]
        pred_heads = [h if h != i + 1 else 0 for i, h in enumerate(pred_heads)]
        report = score(gold, trees(pred_heads))
        assert report.u_uas >= report.d_uas


def test_matches_manual_recount():
    # sentence 0 pred == gold except punctuation (excluded): 3/3 correct.
    # sentence 1 gold (2, 0); pred (0, 1):
    #   token1: head 0 vs gold 2 -> d wrong; pair {0,1} not a gold edge -> u wrong
    #   token2: head 1 vs gold 0 -> d wrong; pair {1,2} is a gold edge -> u right
    pred = trees([2, 3, 0, 3], [0, 1])
    report = score(GOLD, pred, exclude_punct=True)
    assert report.n_scored_tokens == 5
    assert report.d_uas == pytest.approx(100.0 * 3 / 5)
    assert report.u_uas == pytest.approx(100.0 * 4 / 5)
    assert report.per_sentence == [(3, 3, 3), (0, 1, 2)]


def test_permutation_invariance():
    pred = trees([2, 3, 0, 3], [1, 0])
    a = score(GOLD, pred)
    b = score(list(reversed(GOLD)), list(reversed(pred)))
    assert a.d_uas == b.d_uas
    assert a.u_uas == b.u_uas


def test_misalignment_rejected():
    with pytest.raises(InputError):
        score(GOLD, trees([0]))
    with pytest.raises(InputError):
        score(GOLD, trees([2, 3, 0, 3]))
    aligned = trees([2, 3, 0, 3], [2, 0])
    for compare in (head_to_head, oracle_combine):
        for misaligned in (trees([0]), trees([2, 3, 0, 3]),
                           trees([2, 3, 0, 3], [2, 0, 1])):
            with pytest.raises(InputError):
                compare(GOLD, aligned, misaligned)


class TestHeadToHead:
    def test_identical_predictions_all_tie(self):
        pred = [DependencyTree(heads=s.gold_heads) for s in GOLD]
        assert head_to_head(GOLD, pred, pred) == (0.0, 0.0, 100.0)

    def test_strict_winner(self):
        gold_pred = [DependencyTree(heads=s.gold_heads) for s in GOLD]
        bad = trees([3, 1, 2, 1], [1, 1])
        assert head_to_head(GOLD, gold_pred, bad) == (100.0, 0.0, 0.0)

    def test_no_sentences_is_all_zero(self):
        assert head_to_head([], [], []) == (0.0, 0.0, 0.0)

    def test_percentages_sum_to_100(self):
        a = trees([2, 3, 0, 3], [1, 0])
        b = trees([3, 3, 0, 1], [2, 0])
        pa, pb, tie = head_to_head(GOLD, a, b)
        assert pa + pb + tie == pytest.approx(100.0)


class TestOracle:
    def test_identical_inputs(self):
        pred = trees([2, 3, 0, 3], [1, 0])
        combined = oracle_combine(GOLD, pred, pred)
        direct = score(GOLD, pred)
        assert combined.d_uas == direct.d_uas

    def test_dominance(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            heads = [int(rng.integers(0, i)) for i in range(1, n + 1)]
            gold = [sent([(f"w{i}", "N") for i in range(n)], heads)]

            def rand_pred():
                h = [int(rng.integers(0, n + 1)) for i in range(n)]
                return trees([x if x != i + 1 else 0 for i, x in enumerate(h)])

            a, b = rand_pred(), rand_pred()
            combined = oracle_combine(gold, a, b)
            assert combined.d_uas >= score(gold, a).d_uas - 1e-12
            assert combined.d_uas >= score(gold, b).d_uas - 1e-12

    def test_picks_the_better_tree_per_sentence(self):
        a = trees([2, 3, 0, 3], [1, 0])   # perfect on sent 0, wrong on sent 1
        b = trees([3, 1, 0, 2], [2, 0])   # wrong on sent 0, perfect on sent 1
        combined = oracle_combine(GOLD, a, b)
        assert combined.d_uas == 100.0


def test_report_rendering():
    report = EvalReport(d_uas=91.25, u_uas=93.5, n_scored_tokens=80,
                        per_sentence=[(3, 3, 4)])
    text = format_report(report)
    assert "D-UAS 91.25" in text
    rows = report_csv_rows(report)
    assert rows[0] == "metric,value"
    assert any(r.startswith("d_uas,91.25") for r in rows)
    assert rows[-1] == "0,3,3,4"
