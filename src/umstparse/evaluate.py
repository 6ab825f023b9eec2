"""Attachment scoring, per-sentence comparison, and oracle combination."""

from __future__ import annotations

from dataclasses import dataclass

from .conll import DependencyTree, Sentence, is_punctuation
from .errors import InputError


@dataclass
class EvalReport:
    d_uas: float
    u_uas: float
    n_scored_tokens: int
    per_sentence: list   # (d_correct, u_correct, n_scored) per sentence


def _sentence_counts(sent: Sentence, pred: DependencyTree,
                     exclude_punct: bool) -> tuple[int, int, int]:
    gold_pairs = {(min(h, m + 1), max(h, m + 1))
                  for m, h in enumerate(sent.gold_heads)}
    d_correct = u_correct = scored = 0
    for m, (gh, ph) in enumerate(zip(sent.gold_heads, pred.heads)):
        if exclude_punct and is_punctuation(sent.tokens[m]):
            continue
        scored += 1
        if ph == gh:
            d_correct += 1
        if (min(ph, m + 1), max(ph, m + 1)) in gold_pairs:
            u_correct += 1
    return d_correct, u_correct, scored


def score(gold: list[Sentence], pred: list[DependencyTree],
          exclude_punct: bool = True) -> EvalReport:
    """Directed and undirected unlabeled attachment accuracy.

    A token counts as undirected-correct when the unordered pair
    {token, predicted head} occurs as a gold edge; punctuation tokens are
    skipped as scored dependents when exclude_punct is set.
    """
    if len(gold) != len(pred):
        raise InputError(f"{len(gold)} gold sentences vs {len(pred)} predictions")
    for i, (g, p) in enumerate(zip(gold, pred)):
        if len(g) != len(p.heads):
            raise InputError(f"sentence {i}: {len(g)} tokens vs "
                             f"{len(p.heads)} predicted heads")
    per_sentence = [_sentence_counts(g, p, exclude_punct)
                    for g, p in zip(gold, pred)]
    d = sum(row[0] for row in per_sentence)
    u = sum(row[1] for row in per_sentence)
    n = sum(row[2] for row in per_sentence)
    return EvalReport(
        d_uas=100.0 * d / n if n else 0.0,
        u_uas=100.0 * u / n if n else 0.0,
        n_scored_tokens=n,
        per_sentence=per_sentence,
    )


def _directed_counts(gold, pred_a, pred_b, exclude_punct) -> list:
    """Per sentence, the directed-correct counts (of a, of b)."""
    return [(ra[0], rb[0]) for ra, rb in zip(
        score(gold, pred_a, exclude_punct).per_sentence,
        score(gold, pred_b, exclude_punct).per_sentence)]


def head_to_head(gold: list[Sentence], pred_a: list[DependencyTree],
                 pred_b: list[DependencyTree],
                 exclude_punct: bool = True) -> tuple[float, float, float]:
    """Percent of sentences each prediction set wins on directed accuracy.

    Returns (pct_a_better, pct_b_better, pct_tie); the three sum to 100.
    """
    counts = _directed_counts(gold, pred_a, pred_b, exclude_punct)
    total = len(counts)
    if total == 0:
        return 0.0, 0.0, 0.0
    a_wins = sum(da > db for da, db in counts)
    b_wins = sum(db > da for da, db in counts)
    ties = total - a_wins - b_wins
    return (100.0 * a_wins / total, 100.0 * b_wins / total,
            100.0 * ties / total)


def oracle_combine(gold: list[Sentence], pred_a: list[DependencyTree],
                   pred_b: list[DependencyTree],
                   exclude_punct: bool = True) -> EvalReport:
    """Score of a per-sentence oracle keeping the better tree (ties -> a)."""
    counts = _directed_counts(gold, pred_a, pred_b, exclude_punct)
    chosen = [pb if db > da else pa
              for pa, pb, (da, db) in zip(pred_a, pred_b, counts)]
    return score(gold, chosen, exclude_punct)


def format_report(report: EvalReport) -> str:
    return (f"D-UAS {report.d_uas:.2f}\n"
            f"U-UAS {report.u_uas:.2f}\n"
            f"scored_tokens {report.n_scored_tokens}\n")


def report_csv_rows(report: EvalReport) -> list[str]:
    rows = ["metric,value",
            f"d_uas,{report.d_uas:.6f}",
            f"u_uas,{report.u_uas:.6f}",
            f"scored_tokens,{report.n_scored_tokens}",
            "sentence,d_correct,u_correct,n_scored"]
    for i, (d, u, n) in enumerate(report.per_sentence):
        rows.append(f"{i},{d},{u},{n}")
    return rows
