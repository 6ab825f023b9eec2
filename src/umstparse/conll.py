"""CoNLL-X treebank reading/writing and the sentence data model.

Token lines are tab separated with at least the 8 core columns
(ID FORM LEMMA CPOSTAG POSTAG FEATS HEAD DEPREL); anything beyond DEPREL
is carried through untouched.  Sentences are separated by blank lines.
Comment lines (starting with ``#``, as in CoNLL-U) that precede a
sentence's first token line are carried through verbatim too.
"""

from __future__ import annotations

import logging
import unicodedata
from dataclasses import dataclass
from typing import Iterable, TextIO

from .errors import DataError, InputError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Token:
    index: int           # 1-based position within the sentence
    form: str
    lemma: str = "_"
    cpostag: str = "_"
    postag: str = "_"
    feats: str = "_"
    extras: tuple = ()   # columns beyond DEPREL, preserved verbatim


@dataclass(frozen=True)
class Sentence:
    tokens: tuple
    gold_heads: tuple    # head per token, 0 = dummy root
    gold_labels: tuple
    comments: tuple = ()  # leading "#" lines, verbatim, without newlines

    def __len__(self):
        return len(self.tokens)


@dataclass(frozen=True)
class DependencyTree:
    """A directed parse: heads[i] is the head of token i+1 (0 = root)."""
    heads: tuple

    def __len__(self):
        return len(self.heads)

    def is_valid(self) -> bool:
        return is_valid_tree(self.heads)


def _find_cycle(heads: list, nodes: Iterable[int], rooted: list) -> list | None:
    """The cycle met first by walking up ``heads`` (``heads[v]`` is the
    head of node v, node 0 the root) from each of ``nodes`` in turn, as a
    sorted list; None when every walk reaches the root.

    ``rooted[v]`` is set for each node found to reach the root, and walks
    stop at such nodes, so the walks of one call visit each node once.
    Such a node never lies in a cycle: Chu-Liu-Edmonds (``inference``)
    keeps ``rooted`` across its contraction levels, since the head of a
    rooted node never changes on contraction and it still reaches the root
    at every later level.
    """
    for start in nodes:
        if rooted[start]:
            continue
        path, on_path = [], set()
        node = start
        while node and not rooted[node]:
            if node in on_path:
                return sorted(path[path.index(node):])
            on_path.add(node)
            path.append(node)
            node = heads[node]
        for v in path:
            rooted[v] = True
    return None


def is_valid_tree(heads) -> bool:
    """True iff every token has one head in range and reaches the root.

    The walks of :func:`_find_cycle` visit each token once: O(n), on a
    chain too."""
    n = len(heads)
    if not all(0 <= h <= n for h in heads):
        return False
    return _find_cycle([0, *heads], range(1, n + 1), [False] * (n + 1)) is None


def _parse_token_line(line: str, lineno: int) -> tuple[Token, int, str]:
    cols = line.split("\t")
    if len(cols) < 8:
        raise DataError(f"line {lineno}: expected >=8 tab-separated columns, "
                        f"got {len(cols)}")
    try:
        index, head = int(cols[0]), int(cols[6])
        plain = str(index) == cols[0] and str(head) == cols[6]
    except ValueError:
        plain = False
    # int() also reads "01", "+1" and " 2", which write_conll would change
    if not plain:
        raise DataError(f"line {lineno}: ID and HEAD must be plain integers")
    token = Token(index=index, form=cols[1], lemma=cols[2], cpostag=cols[3],
                  postag=cols[4], feats=cols[5], extras=tuple(cols[8:]))
    return token, head, cols[7]


def read_conll(lines: Iterable[str]) -> list[Sentence]:
    """Parse CoNLL-X text into sentences.

    Raises DataError (with a line number) on malformed token lines, on a
    comment line after a sentence's first token line, and on comment lines
    that no token line follows.  A gold head structure that is not a tree
    only logs a warning; the sentence is kept, since per-edge gold heads
    are still usable.
    """
    sentences = []
    comments: list[str] = []
    tokens: list[Token] = []
    heads: list[int] = []
    labels: list[str] = []

    def flush(lineno):
        if not tokens:
            if comments:
                raise DataError(f"line {lineno}: comment lines not followed "
                                f"by a token line")
            return
        for i, t in enumerate(tokens, start=1):
            if t.index != i:
                raise DataError(f"near line {lineno}: token ID {t.index} at "
                                f"position {i}")
        if not is_valid_tree(heads):
            log.warning("sentence ending near line %d: gold heads do not "
                        "form a tree", lineno)
        sentences.append(Sentence(tokens=tuple(tokens),
                                  gold_heads=tuple(heads),
                                  gold_labels=tuple(labels),
                                  comments=tuple(comments)))
        comments.clear()
        tokens.clear()
        heads.clear()
        labels.clear()

    lineno = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            flush(lineno)
            continue
        if line.startswith("#"):
            if tokens:
                raise DataError(f"line {lineno}: comment line inside a "
                                f"sentence")
            comments.append(line)
            continue
        token, head, label = _parse_token_line(line, lineno)
        tokens.append(token)
        heads.append(head)
        labels.append(label)
    flush(lineno)
    return sentences


def load_conll(path) -> list[Sentence]:
    """Read a CoNLL file; a leading UTF-8 byte-order mark is skipped."""
    with open(path, encoding="utf-8-sig") as fh:
        return read_conll(fh)


def write_conll(sentences: list[Sentence], predicted, stream: TextIO) -> None:
    """Write sentences with the HEAD column replaced by predictions, each
    after its comment lines.

    predicted may be None (keep gold heads) or a list of DependencyTree
    aligned with sentences.
    """
    if predicted is not None and len(predicted) != len(sentences):
        raise InputError(f"{len(sentences)} sentences but "
                         f"{len(predicted)} predictions")
    for si, sent in enumerate(sentences):
        heads = sent.gold_heads if predicted is None else predicted[si].heads
        if len(heads) != len(sent):
            raise InputError(f"sentence {si}: {len(sent)} tokens but "
                             f"{len(heads)} predicted heads")
        for line in sent.comments:
            stream.write(line + "\n")
        for t, head, label in zip(sent.tokens, heads, sent.gold_labels):
            cols = [str(t.index), t.form, t.lemma, t.cpostag, t.postag,
                    t.feats, str(head), label, *t.extras]
            stream.write("\t".join(cols) + "\n")
        stream.write("\n")


def save_conll(path, sentences, predicted=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_conll(sentences, predicted, fh)


def is_punctuation(token) -> bool:
    """True iff every character of the form is Unicode punctuation."""
    form = token.form if isinstance(token, Token) else token
    return bool(form) and all(
        unicodedata.category(ch).startswith("P") for ch in form)
