"""Ranking aggregates, BLEU, and hallucination-rate arithmetic."""

from __future__ import annotations

import math
import random
import struct

import numpy as np
import pytest

from kgfaith.errors import EmptyInput, LengthMismatch
from kgfaith.metrics import (
    HITS_AT,
    RankingSummary,
    bleu,
    hallucination_rate,
    ranking_metrics,
)


def generator_metrics(ranks):
    """ranking_metrics as it aggregated with one generator pass per figure:
    the oracle for the sorted, C-level aggregate, which must give the
    same floats and the same errors."""
    ranks = list(ranks)
    if not ranks:
        raise EmptyInput("no ranks to aggregate")
    for r in ranks:
        if r < 1:
            raise EmptyInput(f"ranks must be >= 1, got {r}")
    n = len(ranks)
    hits = {k: sum(1 for r in ranks if r <= k) / n for k in HITS_AT}
    mr = sum(ranks) / n
    mrr = sum(1.0 / r for r in ranks) / n
    return RankingSummary(hits=hits, mr=mr, mrr=mrr)


def math_bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestRankingMetrics:
    def test_hand_worked_case(self):
        out = ranking_metrics([1, 2, 4])
        assert out.hits[1] == pytest.approx(1 / 3)
        assert out.hits[3] == pytest.approx(2 / 3)
        assert out.hits[10] == 1.0
        assert out.mr == pytest.approx(7 / 3)
        assert out.mrr == pytest.approx((1 + 1 / 2 + 1 / 4) / 3)

    def test_all_rank_one(self):
        out = ranking_metrics([1, 1, 1, 1])
        assert out.hits == {1: 1.0, 3: 1.0, 10: 1.0}
        assert out.mr == 1.0
        assert out.mrr == 1.0

    def test_rank_zero_rejected(self):
        with pytest.raises(EmptyInput):
            ranking_metrics([1, 0, 2])
        with pytest.raises(EmptyInput):
            ranking_metrics([-3])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            ranking_metrics([])

    def test_matches_brute_force(self):
        rng = random.Random(17)
        for _ in range(1000):
            n = rng.randint(1, 30)
            ranks = [rng.randint(1, 50) for _ in range(n)]
            out = ranking_metrics(ranks)
            for k in (1, 3, 10):
                assert out.hits[k] == len([r for r in ranks if r <= k]) / n
            assert out.mr == sum(ranks) / n
            assert out.mrr == sum(1 / r for r in ranks) / n

    def test_same_floats_as_generator_passes(self):
        """Long lists of ranks up to 6,000, whose MRR sums depend on the
        order they are added in, and the int32 ranks of a numpy array."""
        rng = random.Random(29)
        for _ in range(300):
            ranks = [rng.randint(1, rng.choice([12, 6000])) for _ in range(rng.randint(1, 400))]
            for given in (ranks, iter(ranks), np.array(ranks, dtype=np.int32)):
                got = ranking_metrics(given)
                want = generator_metrics(ranks)
                assert got.hits == want.hits
                assert math_bits(got.mr) == math_bits(want.mr)
                assert math_bits(got.mrr) == math_bits(want.mrr)

    @pytest.mark.parametrize("ranks", [[], [0], [3, 0, 1], [2, 0, -4], [-4, 0]])
    def test_same_error_text_as_generator_passes(self, ranks):
        with pytest.raises(EmptyInput) as want:
            generator_metrics(ranks)
        with pytest.raises(EmptyInput, match=f"^{want.value}$"):
            ranking_metrics(ranks)

    def test_json_shape(self):
        blob = ranking_metrics([2, 2]).to_json()
        assert blob == {"hits": {"1": 0.0, "3": 1.0, "10": 1.0}, "mr": 2.0, "mrr": 0.5}


class TestBleu:
    def test_identity_is_one(self):
        assert bleu(["the cat sat on the mat"], ["the cat sat on the mat"]) == 1.0
        assert bleu(["a b c", "d e"], ["a b c", "d e"]) == 1.0

    def test_identity_holds_for_short_texts(self):
        assert bleu(["a"], ["a"]) == 1.0
        assert bleu(["a"], ["a"], level="sentence") == 1.0

    def test_hand_worked_case(self):
        got = bleu(["the cat sat on the mat"], ["the cat sat on a mat"])
        want = ((5 / 6) * (3 / 5) * (2 / 4) * (1 / 3)) ** 0.25
        assert got == pytest.approx(want, abs=1e-12)
        assert abs(got - 0.5373) <= 1e-3

    def test_disjoint_is_zero(self):
        assert bleu(["alpha beta"], ["gamma delta"]) == 0.0

    def test_case_folding(self):
        assert bleu(["The Cat"], ["the cat"]) == 1.0

    def test_corpus_permutation_invariant(self):
        hyps = ["the cat sat", "a dog ran far", "birds fly"]
        refs = ["the cat sat down", "a dog ran", "birds fly south"]
        base = bleu(hyps, refs)
        perm = [2, 0, 1]
        assert bleu([hyps[i] for i in perm], [refs[i] for i in perm]) == base

    def test_brevity_penalty_applied(self):
        # 5 hypothesis tokens against 7; "the" is clipped to one match.
        got = bleu(["the cat sat on the"], ["the cat sat on a mat today"])
        want = math.exp(1 - 7 / 5) * ((4 / 5) * (3 / 4) * (2 / 3) * (1 / 2)) ** 0.25
        assert got == pytest.approx(want, abs=1e-12)

    def test_exact_length_has_no_penalty(self):
        got = bleu(["the cat sat on mats"], ["the cat sat on rugs"])
        want = ((4 / 5) * (3 / 4) * (2 / 3) * (1 / 2)) ** 0.25
        assert got == pytest.approx(want, abs=1e-12)

    def test_no_penalty_when_longer(self):
        got = bleu(["the cat sat on the mat"], ["the cat sat on"])
        want = ((4 / 6) * (3 / 5) * (2 / 4) * (1 / 3)) ** 0.25
        assert got == pytest.approx(want, abs=1e-12)

    def test_sentence_smoothing_on_zero_precision(self):
        # Add-one smoothing: 1-grams 1/3, 2-grams 1/2, and 1 for the
        # 3- and 4-gram orders a 2-token text does not have.
        got = bleu(["a b"], ["c d"], level="sentence")
        assert got == pytest.approx(((1 / 3) * (1 / 2)) ** 0.25, abs=1e-12)
        assert bleu(["a b"], ["c d"]) == 0.0

    def test_sentence_level_is_mean_over_pairs(self):
        lone = bleu(["a b"], ["c d"], level="sentence")
        got = bleu(["x y", "a b"], ["x y", "c d"], level="sentence")
        assert got == pytest.approx((1.0 + lone) / 2, abs=1e-12)

    def test_empty_hypothesis_scores_zero(self):
        assert bleu([""], ["a b"]) == 0.0
        assert bleu([""], ["a b"], level="sentence") == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            bleu(["a", "b"], ["a"])
        with pytest.raises(LengthMismatch):
            bleu("a", "a")

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            bleu([], [])

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            bleu(["a"], ["a"], level="document")

    def test_bounded_on_random_inputs(self):
        rng = random.Random(23)
        vocab = ["red", "blue", "green", "dog", "cat", "runs"]
        for _ in range(200):
            n = rng.randint(1, 5)
            hyps = [
                " ".join(rng.choices(vocab, k=rng.randint(0, 8))) for _ in range(n)
            ]
            refs = [
                " ".join(rng.choices(vocab, k=rng.randint(0, 8))) for _ in range(n)
            ]
            for level in ("corpus", "sentence"):
                score = bleu(hyps, refs, level=level)
                assert 0.0 <= score <= 1.0


class TestHallucinationRate:
    def test_boolean_inputs(self):
        assert hallucination_rate([True, False, True, False]) == 0.5
        assert hallucination_rate([False] * 6) == 0.0
        assert hallucination_rate([True] * 7 + [False] * 13) == 0.35

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            hallucination_rate([])

