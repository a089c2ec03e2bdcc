"""Scoring, NCE loss/gradients, samplers, training, ranking."""

from __future__ import annotations

import math

import numpy as np
import pytest

from kgfaith import KnowledgeGraph, Triple, Vocabulary
from kgfaith.embeddings import (
    EmbeddingTable,
    TrainingConfig,
    align_table,
    distmult_score,
    evaluate_link_prediction,
    init_embeddings,
    load_embeddings,
    nce_loss_and_grad,
    rank_of_gold,
    sample_negatives,
    save_embeddings,
    save_loss_trace,
    train,
)
from kgfaith.errors import (
    DimensionMismatch,
    DivergenceDetected,
    EmptyHoldout,
    EmptyPool,
    MalformedLine,
    ZeroDimension,
)


def graph_of(n_entities: int, triples: list[tuple[int, int, int]]) -> KnowledgeGraph:
    ents, rels = Vocabulary(), Vocabulary()
    for i in range(n_entities):
        ents.add(f"e{i}")
    n_rel = max((p for _, p, _ in triples), default=0) + 1
    for j in range(n_rel):
        rels.add(f"r{j}")
    return KnowledgeGraph([Triple(*t) for t in triples], ents, rels)


def table_of(ent_rows: list[list[float]], rel_rows: list[list[float]]) -> EmbeddingTable:
    return EmbeddingTable(entities=np.array(ent_rows), relations=np.array(rel_rows))


class TestInit:
    def test_shapes(self):
        t = init_embeddings(8, 3, 4, seed=7)
        assert t.entities.shape == (8, 4)
        assert t.relations.shape == (3, 4)
        assert t.dim == 4

    def test_same_seed_bitwise_equal(self):
        a = init_embeddings(8, 3, 4, seed=7)
        b = init_embeddings(8, 3, 4, seed=7)
        assert np.array_equal(a.entities, b.entities)
        assert np.array_equal(a.relations, b.relations)

    def test_different_seed_differs(self):
        a = init_embeddings(8, 3, 4, seed=7)
        b = init_embeddings(8, 3, 4, seed=8)
        assert not np.array_equal(a.entities, b.entities)

    def test_bound(self):
        t = init_embeddings(50, 10, 16, seed=0)
        bound = math.sqrt(6 / 16)
        assert np.abs(t.entities).max() <= bound
        assert np.abs(t.relations).max() <= bound

    def test_zero_dim_rejected(self):
        with pytest.raises(ZeroDimension):
            init_embeddings(4, 2, 0, seed=0)

    def test_empty_vocab_rejected(self):
        with pytest.raises(ValueError):
            init_embeddings(0, 2, 4, seed=0)


class TestDistmult:
    def test_hand_value(self):
        assert distmult_score(
            np.array([1.0, 2.0]), np.array([1.0, 0.0]), np.array([3.0, 1.0])
        ) == 3.0

    def test_zero_argument(self):
        z = np.zeros(3)
        v = np.ones(3)
        assert distmult_score(z, v, v) == 0.0

    def test_symmetry_hand_case(self):
        u = np.array([1.0, 2.0])
        r = np.array([2.0, 2.0])
        v = np.array([3.0, 1.0])
        assert distmult_score(u, r, v) == 10.0
        assert distmult_score(v, r, u) == 10.0

    def test_symmetry_random(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            d = int(rng.integers(1, 9))
            u, r, v = rng.normal(size=(3, d))
            assert distmult_score(u, r, v) == distmult_score(v, r, u)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            distmult_score(np.ones(2), np.ones(3), np.ones(2))


class TestNceLoss:
    def test_all_zero_scores_three_negatives(self):
        table = table_of([[0.0], [0.0]], [[0.0]])
        pos = Triple(0, 0, 1)
        negs = [Triple(0, 0, 0)] * 3
        loss, _ = nce_loss_and_grad(pos, negs, table)
        assert loss == pytest.approx(math.log(4.0), abs=1e-12)

    def test_equal_scores_one_negative(self):
        table = table_of([[1.0], [1.0]], [[1.0]])
        pos = Triple(0, 0, 0)
        negs = [Triple(0, 0, 1)]
        loss, _ = nce_loss_and_grad(pos, negs, table)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_dominant_positive_drives_loss_to_zero(self):
        table = table_of([[100.0], [1e-4]], [[1.0]])
        loss, _ = nce_loss_and_grad(Triple(0, 0, 0), [Triple(0, 0, 1)], table)
        assert 0 <= loss < 1e-6

    def test_stable_at_huge_scores(self):
        for sign in (1.0, -1.0):
            table = table_of([[100.0 * sign], [100.0]], [[1.0]])
            loss, grads = nce_loss_and_grad(Triple(0, 0, 0), [Triple(0, 0, 1)], table)
            assert math.isfinite(loss)
            assert all(np.isfinite(g).all() for g in grads.values())

    def test_no_negatives_rejected(self):
        table = table_of([[1.0]], [[1.0]])
        with pytest.raises(ValueError):
            nce_loss_and_grad(Triple(0, 0, 0), [], table)


def numeric_grads(pos, negs, table, keys, h=1e-5):
    """Central finite differences of the loss w.r.t. the given rows."""
    out = {}
    for kind, idx in keys:
        mat = table.entities if kind == "e" else table.relations
        g = np.zeros(table.dim)
        for j in range(table.dim):
            orig = mat[idx, j]
            mat[idx, j] = orig + h
            lp, _ = nce_loss_and_grad(pos, negs, table)
            mat[idx, j] = orig - h
            lm, _ = nce_loss_and_grad(pos, negs, table)
            mat[idx, j] = orig
            g[j] = (lp - lm) / (2 * h)
        out[(kind, idx)] = g
    return out


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(a) + np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(a - b)) / denom


class TestGradients:
    def test_analytic_matches_finite_differences(self):
        rng = np.random.default_rng(1234)
        for _ in range(25):
            n_ent = int(rng.integers(2, 7))
            n_rel = int(rng.integers(1, 4))
            d = int(rng.integers(1, 6))
            table = EmbeddingTable(
                entities=rng.normal(scale=0.5, size=(n_ent, d)),
                relations=rng.normal(scale=0.5, size=(n_rel, d)),
            )
            pos = Triple(
                int(rng.integers(n_ent)), int(rng.integers(n_rel)), int(rng.integers(n_ent))
            )
            negs = [
                Triple(pos.s, pos.p, int(rng.integers(n_ent)))
                for _ in range(int(rng.integers(1, 6)))
            ]
            _, grads = nce_loss_and_grad(pos, negs, table)
            numeric = numeric_grads(pos, negs, table, grads.keys())
            for key, g in grads.items():
                assert relative_error(g, numeric[key]) < 1e-4

    def test_repeated_rows_accumulate(self):
        # Self-loop positive: the same entity row appears as subject and
        # object, so its analytic gradient must be the sum of both roles.
        rng = np.random.default_rng(5)
        table = EmbeddingTable(
            entities=rng.normal(size=(3, 4)), relations=rng.normal(size=(2, 4))
        )
        pos = Triple(0, 0, 0)
        negs = [Triple(0, 0, 1), Triple(0, 1, 0)]
        _, grads = nce_loss_and_grad(pos, negs, table)
        numeric = numeric_grads(pos, negs, table, grads.keys())
        for key, g in grads.items():
            assert relative_error(g, numeric[key]) < 1e-4


class TestSampleNegatives:
    def test_sans_stays_in_subgraph(self, toy_graph):
        sub = toy_graph.khop_subgraph(["roald_dahl"], 1)
        pos = Triple(0, 0, 2)  # roald_dahl wrote the_bfg
        rng = np.random.default_rng(0)
        for _ in range(20):
            negs = sample_negatives(pos, "sans", n=5, rng=rng, sub=sub)
            for t in negs:
                assert (t.s, t.p) == (0, 0)
                assert t.o in {0, 1, 3}  # subgraph minus the gold

    def test_sans_without_replacement_when_pool_suffices(self, toy_graph):
        sub = toy_graph.khop_subgraph(["roald_dahl"], 1)
        negs = sample_negatives(
            Triple(0, 0, 2), "sans", n=3, rng=np.random.default_rng(1), sub=sub
        )
        assert len({t.o for t in negs}) == 3

    def test_sans_empty_pool(self, toy_graph):
        from kgfaith.kg import Subgraph

        sub = Subgraph(nodes=frozenset({2}), triples=(), centers=(2,), radius=0)
        with pytest.raises(EmptyPool):
            sample_negatives(
                Triple(0, 0, 2), "sans", n=3, rng=np.random.default_rng(0), sub=sub
            )

    def test_uniform_two_entity_vocab(self):
        g = graph_of(2, [(0, 0, 1)])
        negs = sample_negatives(
            Triple(0, 0, 1), "uniform", n=10, rng=np.random.default_rng(0), graph=g
        )
        assert all(t == Triple(0, 0, 0) for t in negs)

    @pytest.mark.parametrize("n_entities", [2, 50, 600, 6000])
    def test_uniform_draws_equal_pool_choice(self, n_entities):
        """The shifted draw gives the draws, and leaves the generator state,
        of rng.choice over the vocabulary with the gold deleted."""
        g = graph_of(n_entities, [(0, 0, 1)])
        for gold in (0, n_entities // 2, n_entities - 1):
            fast, ref = np.random.default_rng(17), np.random.default_rng(17)
            for _ in range(3):
                negs = sample_negatives(
                    Triple(0, 0, gold), "uniform", n=40, rng=fast, graph=g
                )
                pool = np.delete(np.arange(n_entities), gold)
                expected = ref.choice(pool, size=40, replace=True)
                assert [t.o for t in negs] == expected.tolist()
            assert fast.bit_generator.state == ref.bit_generator.state

    def test_uniform_never_gold(self, toy_graph):
        rng = np.random.default_rng(3)
        for _ in range(20):
            negs = sample_negatives(
                Triple(0, 0, 2), "uniform", n=8, rng=rng, graph=toy_graph
            )
            assert all(t.o != 2 for t in negs)
            assert len(negs) == 8

    def test_in_batch_yield(self):
        batch = [Triple(0, 0, 1), Triple(2, 0, 3), Triple(4, 0, 5), Triple(6, 0, 7)]
        negs = sample_negatives(batch[0], "in_batch", batch=batch)
        assert len(negs) == 3
        assert [t.o for t in negs] == [3, 5, 7]
        assert all(t.s == 0 and t.p == 0 for t in negs)

    def test_in_batch_filters_own_gold(self):
        batch = [Triple(0, 0, 1), Triple(2, 0, 1), Triple(4, 0, 5)]
        negs = sample_negatives(batch[0], "in_batch", batch=batch)
        assert [t.o for t in negs] == [5]

    def test_in_batch_all_same_gold(self):
        batch = [Triple(0, 0, 1), Triple(2, 0, 1)]
        with pytest.raises(EmptyPool):
            sample_negatives(batch[0], "in_batch", batch=batch)

    def test_in_batch_needs_two(self):
        with pytest.raises(EmptyPool):
            sample_negatives(Triple(0, 0, 1), "in_batch", batch=[Triple(0, 0, 1)])

    def test_unknown_strategy(self, toy_graph):
        with pytest.raises(ValueError):
            sample_negatives(
                Triple(0, 0, 1), "random", rng=np.random.default_rng(0), graph=toy_graph
            )


class TestTrainingConfig:
    def test_defaults(self):
        cfg = TrainingConfig()
        assert cfg.d == 64
        assert cfg.lr == 1e-2
        assert cfg.negatives == 50
        assert cfg.sampler == "uniform"
        assert cfg.optimizer == "sgd"
        assert cfg.l2 == 1e-4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"d": 0},
            {"lr": 0.0},
            {"negatives": 0},
            {"epochs": 0},
            {"batch_size": 0},
            {"sampler": "magic"},
            {"optimizer": "newton"},
            {"l2": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises((ValueError, ZeroDimension)):
            TrainingConfig(**kwargs)


class TestTrain:
    def test_loss_decreases_on_toy_graph(self, toy_graph):
        cfg = TrainingConfig(d=16, epochs=50, seed=3, sampler="uniform", negatives=10)
        _, trace = train(toy_graph, cfg)
        assert len(trace) == 50
        assert trace[-1] < trace[0]

    def test_deterministic(self, toy_graph):
        cfg = TrainingConfig(d=8, epochs=5, seed=11, negatives=5)
        t1, trace1 = train(toy_graph, cfg)
        t2, trace2 = train(toy_graph, cfg)
        assert trace1 == trace2
        assert np.array_equal(t1.entities, t2.entities)
        assert np.array_equal(t1.relations, t2.relations)

    def test_divergence_guard(self, toy_graph):
        cfg = TrainingConfig(d=8, epochs=50, seed=0, lr=1e6, negatives=5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceDetected):
                train(toy_graph, cfg)

    def test_sans_training_runs(self, toy_graph):
        cfg = TrainingConfig(
            d=8, epochs=3, seed=2, sampler="sans", sans_k=1, negatives=4
        )
        table, trace = train(toy_graph, cfg)
        assert len(trace) == 3
        assert table.entity_names == toy_graph.entities.names

    def test_in_batch_training_runs(self, toy_graph):
        cfg = TrainingConfig(d=8, epochs=3, seed=2, sampler="in_batch", batch_size=4)
        _, trace = train(toy_graph, cfg)
        assert len(trace) == 3

    def test_adam_training_runs(self, toy_graph):
        cfg = TrainingConfig(d=8, epochs=10, seed=2, optimizer="adam", negatives=5)
        _, trace = train(toy_graph, cfg)
        assert trace[-1] < trace[0]


def brute_force_rank(table, graph, triple, known, mode, cand_ids):
    """Reference: sort candidates by (-score, id), find the gold position."""
    if mode == "filtered":
        cand_ids = [
            e
            for e in cand_ids
            if e == triple.o or Triple(triple.s, triple.p, e) not in known
        ]
    scored = sorted(
        cand_ids,
        key=lambda e: (
            -float(
                np.sum(
                    table.entities[triple.s]
                    * table.relations[triple.p]
                    * table.entities[e]
                )
            ),
            e,
        ),
    )
    return scored.index(triple.o) + 1


class TestLinkPrediction:
    def make_setup(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 20))
        triples = set()
        while len(triples) < n:
            triples.add(
                (int(rng.integers(n)), int(rng.integers(2)), int(rng.integers(n)))
            )
        triples = sorted(triples)
        heldout_raw = triples[: max(2, n // 4)]
        training = triples[max(2, n // 4):]
        g = graph_of(n, training or [(0, 0, 1)])
        table = EmbeddingTable(
            entities=rng.normal(size=(n, 4)), relations=rng.normal(size=(2, 4))
        )
        return g, table, [Triple(*t) for t in heldout_raw]

    def test_matches_brute_force(self):
        for seed in range(15):
            g, table, heldout = self.make_setup(seed)
            known = set(g.triples) | set(heldout)
            for mode in ("raw", "filtered"):
                report = evaluate_link_prediction(table, heldout, g, mode=mode)
                expected = [
                    brute_force_rank(
                        table, g, t, known, mode, list(range(len(g.entities)))
                    )
                    for t in heldout
                ]
                assert report.ranks == expected

    def test_tie_broken_by_ascending_id(self):
        g = graph_of(5, [(0, 0, 1)])
        table = EmbeddingTable(entities=np.zeros((5, 2)), relations=np.ones((1, 2)))
        report = evaluate_link_prediction(table, [Triple(0, 0, 3)], g, mode="raw")
        # All scores tie at 0; ids 0,1,2 precede the gold id 3.
        assert report.ranks == [4]

    def test_metric_aggregation(self):
        # Hand-set table giving gold ranks [1, 2, 4] over 5 candidates.
        assert rank_of_gold(np.array([0.0, 5.0, 1.0]), np.array([0, 1, 2]), 1) == 1
        g, table, heldout = self.make_setup(7)
        report = evaluate_link_prediction(table, heldout, g, mode="raw")
        arr = np.array(report.ranks, dtype=float)
        assert report.mr == pytest.approx(arr.mean())
        assert report.mrr == pytest.approx((1 / arr).mean())
        for k in (1, 3, 10):
            assert report.hits[k] == pytest.approx(float(np.mean(arr <= k)))
        assert report.hits[1] <= report.hits[3] <= report.hits[10]
        assert report.hits[1] <= report.mrr <= 1.0
        assert report.mr >= 1.0

    def test_empty_holdout(self, toy_graph):
        table = init_embeddings(8, 3, 4, seed=0)
        with pytest.raises(EmptyHoldout):
            evaluate_link_prediction(table, [], toy_graph)

    def test_filtered_overlap_rejected(self, toy_graph):
        table = init_embeddings(8, 3, 4, seed=0)
        with pytest.raises(ValueError):
            evaluate_link_prediction(table, [toy_graph.triples[0]], toy_graph)


class TestSnapshot:
    def test_round_trip(self, toy_graph, tmp_path):
        cfg = TrainingConfig(d=4, epochs=2, seed=1, negatives=3)
        table, _ = train(toy_graph, cfg)
        path = tmp_path / "emb.tsv"
        save_embeddings(path, table)
        first = path.read_text().splitlines()[0]
        assert first == "pathhunter-emb v1 8 3 4"
        loaded = load_embeddings(path)
        assert loaded.entity_names == toy_graph.entities.names
        np.testing.assert_array_equal(loaded.entities, table.entities)
        np.testing.assert_array_equal(loaded.relations, table.relations)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "emb.tsv"
        p.write_text("something else\n")
        with pytest.raises(MalformedLine):
            load_embeddings(p)

    def test_count_mismatch(self, tmp_path):
        p = tmp_path / "emb.tsv"
        p.write_text("pathhunter-emb v1 2 1 2\nE\ta\t1 2\nR\tr\t1 2\n")
        with pytest.raises(ValueError):
            load_embeddings(p)

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "emb.tsv"
        p.write_text("pathhunter-emb v1 1 1 2\nE\ta\t1 nan\nR\tr\t1 2\n")
        with pytest.raises(ValueError):
            load_embeddings(p)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("pathhunter-emb v1 1 1 2\nE\ta\t1 bogus\nR\tr\t1 2\n", 2),
            ("pathhunter-emb v1 1 1 2\nE\ta\t1 2\nR\tr\tinf 2\n", 3),
            ("pathhunter-emb v1 one 1 2\nE\ta\t1 2\nR\tr\t1 2\n", 1),
            ("pathhunter-emb v1 1 1 2.0\nE\ta\t1 2\nR\tr\t1 2\n", 1),
        ],
        ids=["non-numeric", "non-finite", "word-count", "float-dimension"],
    )
    def test_unparsable_numbers_name_their_line(self, tmp_path, text, line):
        p = tmp_path / "emb.tsv"
        p.write_text(text)
        with pytest.raises(MalformedLine) as err:
            load_embeddings(p)
        assert err.value.line_number == line

    def test_wrong_width_rejected(self, tmp_path):
        p = tmp_path / "emb.tsv"
        p.write_text("pathhunter-emb v1 1 1 2\nE\ta\t1 2 3\nR\tr\t1 2\n")
        with pytest.raises(MalformedLine):
            load_embeddings(p)

    def test_align_reorders_by_name(self, toy_graph, tmp_path):
        cfg = TrainingConfig(d=4, epochs=1, seed=1, negatives=2)
        table, _ = train(toy_graph, cfg)
        # Write entity rows in reversed order, then align back.
        reversed_table = EmbeddingTable(
            entities=table.entities[::-1].copy(),
            relations=table.relations,
            entity_names=list(reversed(table.entity_names)),
            relation_names=table.relation_names,
        )
        aligned = align_table(reversed_table, toy_graph)
        np.testing.assert_array_equal(aligned.entities, table.entities)

    def test_align_missing_name(self, toy_graph):
        table = EmbeddingTable(
            entities=np.zeros((2, 2)),
            relations=np.zeros((3, 2)),
            entity_names=["a", "b"],
            relation_names=["wrote", "has_genre", "illustrated"],
        )
        with pytest.raises(ValueError):
            align_table(table, toy_graph)


class TestLossTrace:
    def test_csv_shape(self, tmp_path):
        path = tmp_path / "trace.csv"
        save_loss_trace(path, [1.5, 0.75])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,mean_loss"
        assert lines[1].startswith("1,1.5")
        assert lines[2].startswith("2,0.75")
