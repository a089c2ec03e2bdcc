"""Corpus-level evaluation: ranking aggregates, BLEU, hallucination rate.

Everything here is pure arithmetic over already-computed artifacts
(rank lists, response strings, critic flags), so results are
bit-reproducible: tokenization is bare lowercase whitespace splitting,
and no smoothing is applied at corpus level.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from operator import truediv
from typing import Any, Sequence

from .choices import BLEU_LEVELS
from .errors import EmptyInput, LengthMismatch

BLEU_ORDER = 4
HITS_AT = (1, 3, 10)


@dataclass
class RankingSummary:
    """Hits@k fractions plus mean rank and mean reciprocal rank."""

    hits: dict[int, float]
    mr: float
    mrr: float

    def to_json(self) -> dict[str, Any]:
        return {
            "hits": {str(k): v for k, v in sorted(self.hits.items())},
            "mr": self.mr,
            "mrr": self.mrr,
        }


def ranking_metrics(ranks: Sequence[int]) -> RankingSummary:
    """Aggregate positive integer ranks into Hits@1/3/10, MR, and MRR.

    The loops run in C: one sort gives the smallest rank and each
    Hits@k count (by bisection), and the sums read the ranks in their
    given order, so MR and MRR are the floats a Python loop would sum.
    """
    ranks = list(ranks)
    if not ranks:
        raise EmptyInput("no ranks to aggregate")
    ordered = sorted(ranks)
    if ordered[0] < 1:
        raise EmptyInput(f"ranks must be >= 1, got {next(r for r in ranks if r < 1)}")
    n = len(ranks)
    hits = {k: bisect_right(ordered, k) / n for k in HITS_AT}
    mr = sum(ranks) / n
    mrr = sum(map(truediv, repeat(1.0), ranks)) / n
    return RankingSummary(hits=hits, mr=mr, mrr=mrr)


def _tokens(text: str) -> list[str]:
    return text.lower().split()


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _pair_counts(
    hyp: list[str], ref: list[str], n: int
) -> tuple[int, int]:
    """Clipped matches and total hypothesis n-grams of order n."""
    hyp_counts = _ngram_counts(hyp, n)
    ref_counts = _ngram_counts(ref, n)
    total = sum(hyp_counts.values())
    clipped = sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
    return clipped, total


def bleu(
    hypotheses: Sequence[str],
    references: Sequence[str],
    level: str = "corpus",
) -> float:
    """BLEU-4: geometric mean of clipped 1- to 4-gram precisions with brevity penalty.

    Corpus level pools n-gram counts over all pairs and applies no
    smoothing, so any empty precision bucket yields 0.0. Sentence level
    scores each pair separately, smoothing zero precisions add-one
    style, and returns the mean. Tokens are lowercase whitespace splits.
    """
    if isinstance(hypotheses, str) or isinstance(references, str):
        raise LengthMismatch("hypotheses and references must be lists of strings")
    if len(hypotheses) != len(references):
        raise LengthMismatch(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise EmptyInput("no hypothesis/reference pairs")
    if level not in BLEU_LEVELS:
        raise ValueError(f"level must be one of {BLEU_LEVELS}, got {level!r}")

    pairs = [(_tokens(h), _tokens(r)) for h, r in zip(hypotheses, references)]

    if level == "corpus":
        clipped = [0] * BLEU_ORDER
        total = [0] * BLEU_ORDER
        hyp_len = ref_len = 0
        for hyp, ref in pairs:
            hyp_len += len(hyp)
            ref_len += len(ref)
            for n in range(1, BLEU_ORDER + 1):
                c, t = _pair_counts(hyp, ref, n)
                clipped[n - 1] += c
                total[n - 1] += t
        if hyp_len == 0:
            return 0.0
        # Orders beyond the longest hypothesis have no n-grams at all;
        # they are dropped from the geometric mean (not smoothed), so a
        # text identical to its reference scores 1.0 at any length.
        orders = [n for n in range(BLEU_ORDER) if total[n] > 0]
        if not orders or any(clipped[n] == 0 for n in orders):
            return 0.0
        log_prec = sum(
            math.log(clipped[n] / total[n]) for n in orders
        ) / len(orders)
        penalty = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
        return penalty * math.exp(log_prec)

    scores = []
    for hyp, ref in pairs:
        if not hyp:
            scores.append(0.0)
            continue
        log_prec = 0.0
        for n in range(1, BLEU_ORDER + 1):
            c, t = _pair_counts(hyp, ref, n)
            prec = c / t if c > 0 else (c + 1) / (t + 1)
            log_prec += math.log(prec)
        penalty = 1.0 if len(hyp) >= len(ref) else math.exp(1.0 - len(ref) / len(hyp))
        scores.append(penalty * math.exp(log_prec / BLEU_ORDER))
    return sum(scores) / len(scores)


def hallucination_rate(flags: Sequence[bool]) -> float:
    """Fraction of responses whose sentence-level flag is raised."""
    if not flags:
        raise EmptyInput("no flags")
    return sum(flags) / len(flags)
