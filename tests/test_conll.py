import io

import pytest
from hypothesis import given, settings, strategies as st

from umstparse.conll import (
    DependencyTree,
    Sentence,
    Token,
    is_punctuation,
    is_valid_tree,
    load_conll,
    read_conll,
    save_conll,
    write_conll,
)
from umstparse.errors import DataError, InputError

SAMPLE = """\
1\tThe\t_\tD\tDT\t_\t2\tdet
2\tcat\t_\tN\tNN\t_\t3\tnsubj
3\tsleeps\t_\tV\tVB\t_\t0\troot
4\t.\t_\tP\tPU\t_\t3\tpunct

1\tBirds\t_\tN\tNN\t_\t2\tnsubj
2\tsing\t_\tV\tVB\t_\t0\troot

"""


def test_empty_stream():
    assert read_conll([]) == []


def test_two_token_block():
    text = "1\ta\t_\t_\t_\t_\t2\tdep\n2\tb\t_\t_\t_\t_\t0\troot\n"
    sents = read_conll(io.StringIO(text))
    assert len(sents) == 1
    assert sents[0].gold_heads == (2, 0)
    assert [t.form for t in sents[0].tokens] == ["a", "b"]


def test_sample_parses():
    sents = read_conll(io.StringIO(SAMPLE))
    assert [len(s) for s in sents] == [4, 2]
    assert sents[0].gold_heads == (2, 3, 0, 3)
    assert [t.postag for t in sents[0].tokens] == ["DT", "NN", "VB", "PU"]


def test_round_trip():
    sents = read_conll(io.StringIO(SAMPLE))
    buf = io.StringIO()
    write_conll(sents, None, buf)
    assert read_conll(io.StringIO(buf.getvalue())) == sents


def test_write_identity_when_prediction_matches_gold():
    sents = read_conll(io.StringIO(SAMPLE))
    preds = [DependencyTree(heads=s.gold_heads) for s in sents]
    buf = io.StringIO()
    write_conll(sents, preds, buf)
    assert buf.getvalue() == SAMPLE


def test_write_single_token_sentence():
    s = Sentence(tokens=(Token(index=1, form="hi"),), gold_heads=(0,),
                 gold_labels=("root",))
    buf = io.StringIO()
    write_conll([s], [DependencyTree(heads=(0,))], buf)
    line = buf.getvalue().splitlines()[0].split("\t")
    assert line[6] == "0"


def test_write_replaces_heads_and_preserves_extras():
    text = "1\ta\tla\tC\tP\tf=1\t2\tdep\tx\ty\n2\tb\t_\t_\t_\t_\t0\troot\t_\t_\n"
    sents = read_conll(io.StringIO(text))
    buf = io.StringIO()
    write_conll(sents, [DependencyTree(heads=(0, 1))], buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "1\ta\tla\tC\tP\tf=1\t0\tdep\tx\ty"
    assert lines[1] == "2\tb\t_\t_\t_\t_\t1\troot\t_\t_"


def test_length_mismatch_rejected():
    sents = read_conll(io.StringIO(SAMPLE))
    with pytest.raises(InputError):
        write_conll(sents, [DependencyTree(heads=(0,))], io.StringIO())


def test_head_count_mismatch_rejected():
    """One prediction per sentence, but one head for 15 tokens."""
    rows = "".join(f"{i}\tw{i}\t_\tN\tNN\t_\t{i - 1}\tdep\n" for i in range(1, 16))
    sents = read_conll(io.StringIO(rows))
    assert len(sents[0]) == 15
    with pytest.raises(InputError, match="15 tokens but 1 predicted heads"):
        write_conll(sents, [DependencyTree(heads=(0,))], io.StringIO())


COMMENTED = """\
# sent_id = 1
# text = The cat sleeps .
1\tThe\t_\tD\tDT\t_\t2\tdet
2\tcat\t_\tN\tNN\t_\t3\tnsubj
3\tsleeps\t_\tV\tVB\t_\t0\troot
4\t.\t_\tP\tPU\t_\t3\tpunct

1\tBirds\t_\tN\tNN\t_\t2\tnsubj
2\tsing\t_\tV\tVB\t_\t0\troot

#\tmay\thold\ttabs\tand\tdigits\t1\t2\t3
1\tJa\t_\tV\tVB\t_\t0\troot

"""


def test_leading_comments_are_carried_verbatim():
    sents = read_conll(io.StringIO(COMMENTED))
    assert [s.comments for s in sents] == [
        ("# sent_id = 1", "# text = The cat sleeps ."), (),
        ("#\tmay\thold\ttabs\tand\tdigits\t1\t2\t3",)]
    assert [s.gold_heads for s in sents] == [(2, 3, 0, 3), (2, 0), (0,)]
    buf = io.StringIO()
    write_conll(sents, [DependencyTree(heads=s.gold_heads) for s in sents], buf)
    assert buf.getvalue() == COMMENTED


@pytest.mark.parametrize("text, line", [
    # a comment line between the token lines of one sentence
    ("1\ta\t_\t_\t_\t_\t0\troot\n# late\n2\tb\t_\t_\t_\t_\t1\tdep\n", "line 2"),
    # comment lines that no token line follows
    ("1\ta\t_\t_\t_\t_\t0\troot\n\n# orphan\n\n", "line 4"),
    ("1\ta\t_\t_\t_\t_\t0\troot\n\n# at the end\n", "line 3"),
    # CoNLL-U multiword tokens and empty nodes have no integer ID
    ("1-2\tdu\t_\t_\t_\t_\t_\t_\n1\tde\t_\t_\t_\t_\t0\troot\n", "line 1"),
    ("1\ta\t_\t_\t_\t_\t0\troot\n1.1\tb\t_\t_\t_\t_\t_\t_\n", "line 2"),
    # ID and HEAD are plain integers: no leading zero, sign or space, which
    # write_conll would not write back as they came
    ("01\ta\t_\t_\t_\t_\t0\troot\n", "line 1"),
    ("1\ta\t_\t_\t_\t_\t0\troot\n+2\tb\t_\t_\t_\t_\t1\tdep\n", "line 2"),
    ("1\ta\t_\t_\t_\t_\t+0\troot\n", "line 1"),
    ("1\ta\t_\t_\t_\t_\t2\tdep\n2\tb\t_\t_\t_\t_\t00\troot\n", "line 2"),
    ("1\ta\t_\t_\t_\t_\t 0\troot\n", "line 1"),
    ("1\ta\t_\t_\t_\t_\t-0\troot\n", "line 1"),
])
def test_misplaced_comments_and_non_integer_ids_name_the_line(text, line):
    with pytest.raises(DataError, match=line):
        read_conll(io.StringIO(text))


def test_byte_order_mark_is_skipped_and_not_written(tmp_path):
    path = tmp_path / "bom.conll"
    path.write_bytes(b"\xef\xbb\xbf" + SAMPLE.encode("utf-8"))
    sents = load_conll(path)
    assert sents == read_conll(io.StringIO(SAMPLE))
    out = tmp_path / "out.conll"
    save_conll(out, sents)
    assert out.read_bytes() == SAMPLE.encode("utf-8")


# field text: no tab, no line break, no control character
FIELD = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
                min_size=1, max_size=6)


@st.composite
def conll_sentences(draw):
    n = draw(st.integers(1, 6))
    tokens = tuple(Token(index=i, form=draw(FIELD), lemma=draw(FIELD),
                         cpostag=draw(FIELD), postag=draw(FIELD),
                         feats=draw(FIELD),
                         extras=tuple(draw(st.lists(FIELD, max_size=3))))
                   for i in range(1, n + 1))
    # each token's head precedes it: always a tree, so no warning is logged
    heads = tuple(draw(st.integers(0, i - 1)) for i in range(1, n + 1))
    labels = tuple(draw(FIELD) for _ in range(n))
    comments = tuple("#" + c for c in draw(st.lists(
        st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
                max_size=8), max_size=3)))
    return Sentence(tokens=tokens, gold_heads=heads, gold_labels=labels,
                    comments=comments)


@settings(max_examples=200, deadline=None)
@given(st.lists(conll_sentences(), max_size=4))
def test_write_read_round_trip(sents):
    """Any sentences, extras columns, non-ASCII text and comments included,
    read back as written (and the text survives UTF-8)."""
    buf = io.StringIO()
    write_conll(sents, None, buf)
    text = buf.getvalue().encode("utf-8").decode("utf-8")
    assert read_conll(io.StringIO(text)) == sents


def test_malformed_line_reports_lineno():
    text = "1\ta\t_\t_\t_\t_\t2\tdep\nbogus line\n"
    with pytest.raises(DataError, match="line 2"):
        read_conll(io.StringIO(text))


def test_non_integer_head_rejected():
    text = "1\ta\t_\t_\t_\t_\tX\tdep\n"
    with pytest.raises(DataError):
        read_conll(io.StringIO(text))


def test_non_tree_gold_is_kept_with_warning(caplog):
    """A cycle, or a HEAD past the sentence end, only warns."""
    for heads in ((2, 1), (0, 3)):
        text = (f"1\ta\t_\t_\t_\t_\t{heads[0]}\tdep\n"
                f"2\tb\t_\t_\t_\t_\t{heads[1]}\tdep\n")
        caplog.clear()
        with caplog.at_level("WARNING"):
            sents = read_conll(io.StringIO(text))
        assert [s.gold_heads for s in sents] == [heads]
        assert "do not form a tree" in caplog.text


class TestTreeValidation:
    def test_valid_chain(self):
        assert is_valid_tree((2, 3, 0))

    def test_cycle_detected(self):
        assert not is_valid_tree((2, 1))

    def test_out_of_range(self):
        assert not is_valid_tree((5,))

    def test_matches_cycle_oracle(self):
        import numpy as np
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            heads = tuple(int(rng.integers(0, n + 1)) for _ in range(n))
            # oracle: repeatedly remove tokens whose head chain is resolved
            resolved = {0}
            changed = True
            while changed:
                changed = False
                for i, h in enumerate(heads):
                    if (i + 1) not in resolved and h in resolved:
                        resolved.add(i + 1)
                        changed = True
            assert is_valid_tree(heads) == (len(resolved) == n + 1)

    def test_no_tokens(self):
        assert is_valid_tree(())

    def test_long_chain(self):
        """A 6,000-token chain, each token headed by the next, is one
        walk from its foot; a 2-cycle at the foot, or at the top, makes it
        invalid."""
        n = 6000
        chain = tuple(range(2, n + 1)) + (0,)
        assert is_valid_tree(chain)
        assert DependencyTree(heads=chain).is_valid()
        assert not is_valid_tree((2, 1) + chain[2:])
        assert not is_valid_tree(chain[:-1] + (n - 1,))


@pytest.mark.parametrize("form,expected", [
    (",", True),
    (".", True),
    ("--", True),
    ("¿", True),
    ("word", False),
    ("a.", False),
    ("", False),
])
def test_is_punctuation(form, expected):
    assert is_punctuation(form) is expected


def test_is_punctuation_accepts_token():
    assert is_punctuation(Token(index=1, form="!"))
