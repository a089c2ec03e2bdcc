"""Scoring, NCE loss/gradients, samplers, training, ranking."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from synthetic import block_split, sparse_corpus
from test_corruptor import CountingIds

from kgfaith import KnowledgeGraph, Triple, Vocabulary, embeddings
from kgfaith.embeddings import (
    SAMPLERS,
    EmbeddingTable,
    TouchedRows,
    TrainingConfig,
    _AdamStep,
    _SgdStep,
    _ball_rows,
    _nce_batch,
    align_table,
    batch_nce_loss_and_grad,
    evaluate_link_prediction,
    group_negatives,
    init_embeddings,
    load_embeddings,
    nce_loss_and_grad,
    rank_of_gold,
    sample_negatives,
    save_embeddings,
    save_loss_trace,
    train,
    trilinear,
)
from kgfaith.errors import (
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
        assert float(trilinear(
            np.array([1.0, 2.0]), np.array([1.0, 0.0]), np.array([3.0, 1.0])
        )) == 3.0

    def test_zero_argument(self):
        z = np.zeros(3)
        v = np.ones(3)
        assert float(trilinear(z, v, v)) == 0.0

    def test_symmetry_hand_case(self):
        u = np.array([1.0, 2.0])
        r = np.array([2.0, 2.0])
        v = np.array([3.0, 1.0])
        assert float(trilinear(u, r, v)) == 10.0
        assert float(trilinear(v, r, u)) == 10.0

    def test_symmetry_random(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            d = int(rng.integers(1, 9))
            u, r, v = rng.normal(size=(3, d))
            assert float(trilinear(u, r, v)) == float(trilinear(v, r, u))


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


class TestBatchKernelMemory:
    def test_peak_below_one_candidate_gather(self):
        """One train-block-shaped batch (B=32, n=50, d=32, uniform draws on
        block_split's 60 entities) allocates less than one (B, n+1, d)
        float64 array: the scores come from a matrix product over the
        touched entities, and no candidate vector is gathered."""
        graph, _ = block_split(0)
        rng = np.random.default_rng(0)
        s, p, o = np.array(graph.triples[:32], dtype=np.int64).T
        negs, mask = one_batch_negatives("uniform", o, 50, rng, len(graph.entities), None)
        objects = np.concatenate([o[:, None], negs], axis=1)
        table = init_embeddings(len(graph.entities), len(graph.relations), 32, seed=0)
        tracemalloc.start()
        try:
            batch_nce_loss_and_grad(s, p, objects, mask, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 51 * 32 * 8  # 417,792 B


def unique_kernel(subjects, predicates, objects, mask, table):
    """The batch kernel as it found its touched rows with np.unique and read
    its scores with take_along_axis: the oracle for TouchedRows and the
    flat score gather, which must give the same bytes."""
    rows = len(subjects)
    ent_ids, inv = np.unique(np.concatenate([subjects, objects.ravel()]), return_inverse=True)
    subj, obj = inv[:rows], inv[rows:].reshape(objects.shape)
    rel_ids, rel = np.unique(predicates, return_inverse=True)
    E = table.entities[ent_ids]
    U, R = E[subj], table.relations[predicates]
    UR = U * R
    scores = np.take_along_axis(UR @ E.T, obj, axis=1)
    if mask is not None:
        scores = np.where(mask, scores, -np.inf)
    m = scores.max(axis=1, keepdims=True)
    shifted = np.exp(scores - m)
    total = shifted.sum(axis=1, keepdims=True)
    losses = (m - scores[:, :1] + np.log(total))[:, 0]
    coeff = shifted / total
    coeff[:, 0] -= 1.0

    cells = (np.arange(rows)[:, None] * len(ent_ids) + obj).ravel()
    C = np.bincount(cells, coeff.ravel(), rows * len(ent_ids)).reshape(rows, -1)
    CV = C @ E
    S = np.zeros_like(C)
    S[np.arange(rows), subj] = 1.0
    ent_grad = C.T @ UR
    ent_grad += S.T @ (R * CV)
    P = np.zeros((rows, len(rel_ids)))
    P[np.arange(rows), rel] = 1.0
    rel_grad = P.T @ (U * CV)
    return losses, (ent_ids, ent_grad), (rel_ids, rel_grad)


def take_along_sans(golds, n, rng, pool):
    """The sans draws as take_along_axis gathered them: the flat gathers' oracle."""
    valid = (pool >= 0) & (pool != golds[:, None])
    sizes = valid.sum(axis=1)
    keys = np.where(valid, rng.random(pool.shape), np.inf)
    shuffled = np.take_along_axis(pool, np.argsort(keys, axis=1), axis=1)
    cols = np.tile(np.arange(n), (len(golds), 1))
    short = sizes < n
    cols[short] = rng.integers(0, sizes[short, None], size=(int(short.sum()), n))
    return np.take_along_axis(shuffled, cols, axis=1)


def assert_same_batch(got, want):
    (losses, *grads), (ref_losses, *ref_grads) = got, want
    assert np.array_equal(losses, ref_losses)
    for (ids, grad), (ref_ids, ref_grad) in zip(grads, ref_grads):
        assert ids.dtype == ref_ids.dtype and np.array_equal(ids, ref_ids)
        assert np.array_equal(grad, ref_grad)


def stacked(batch, n_ent):
    """A two-matrix kernel result as train() steps it: losses, row ids with
    the relations offset by n_ent, and the gradients in that order."""
    losses, (ent_ids, ent_grad), (rel_ids, rel_grad) = batch
    return losses, np.concatenate([ent_ids, rel_ids + n_ent]), np.concatenate([ent_grad, rel_grad])


def assert_same_stacked(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def one_matrix_kernel(subjects, predicates, objects, mask, table, touched):
    return _nce_batch(
        subjects, predicates, objects, mask, table.entities, table.relations, touched
    )


class TestTouchedRowKernel:
    """The kernel train() steps with gives the np.unique kernel's bytes.

    One TouchedRows serves several batches, as in train(), so a slot an
    earlier batch wrote must never reach a later batch's inverse.
    """

    @pytest.mark.parametrize("strategy", SAMPLERS)
    @pytest.mark.parametrize("corpus", ["block", "sparse"])
    def test_training_batches_match_unique_kernel(self, corpus, strategy):
        graph = block_split(0)[0] if corpus == "block" else sparse_corpus(600, 4, 900)[0]
        n_ent = len(graph.entities)
        triples = np.array(graph.triples, dtype=np.int64)
        table = init_embeddings(n_ent, len(graph.relations), 32, seed=3)
        balls = _ball_rows(graph, 2) if strategy == "sans" else None
        touched = TouchedRows(n_ent + len(graph.relations))
        rng = np.random.default_rng(7)
        for _ in range(4):
            s, p, o = triples[rng.permutation(len(triples))[:32]].T
            pool = o if balls is None else balls[s]
            negs, mask = one_batch_negatives(strategy, o, 50, rng, n_ent, pool)
            objects = np.concatenate([o[:, None], negs], axis=1)
            want = unique_kernel(s, p, objects, mask, table)
            assert_same_stacked(
                one_matrix_kernel(s, p, objects, mask, table, touched), stacked(want, n_ent)
            )
            assert_same_batch(batch_nce_loss_and_grad(s, p, objects, mask, table), want)

    @pytest.mark.parametrize(
        "subjects, predicates, objects, mask",
        [
            ([4], [1], [[2, 0, 5, 2]], [[True, True, True, False]]),
            # Subject 3 twice; its rows share object 1, and subject 0 is an object too.
            ([3, 3, 0], [0, 1, 0], [[1, 3, 0], [5, 1, 5], [3, 3, 4]],
             [[True, True, True], [True, True, False], [True, True, True]]),
        ],
        ids=["one-row", "repeated-subject"],
    )
    def test_small_batches_match_unique_kernel(self, subjects, predicates, objects, mask):
        rng = np.random.default_rng(1)
        table = EmbeddingTable(entities=rng.normal(size=(6, 4)), relations=rng.normal(size=(2, 4)))
        args = (np.array(subjects), np.array(predicates), np.array(objects), np.array(mask))
        touched = TouchedRows(8)
        touched(np.arange(8)[::-1])  # every slot holds an earlier batch's place
        want = unique_kernel(*args, table)
        assert_same_stacked(one_matrix_kernel(*args, table, touched), stacked(want, 6))
        assert_same_batch(batch_nce_loss_and_grad(*args, table), want)

    @pytest.mark.parametrize("n", [1, 3, 6], ids=["full", "mixed", "short"])
    def test_sans_flat_gather_matches_take_along_axis(self, n):
        """Pools left with 4, 1 and 5 ids: n=1 draws every row without
        replacement, n=6 every row with it, n=3 some rows each way."""
        pool = np.array([[0, 1, 2, 3, 4, -1], [2, 4, -1, -1, -1, -1], [0, 1, 2, 3, 4, 5]])
        golds = np.array([2, 2, 0])
        for seed in range(20):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            negs, _ = one_batch_negatives("sans", golds, n, rng, 0, pool)
            assert np.array_equal(negs, take_along_sans(golds, n, ref, pool))
            assert rng.bit_generator.state == ref.bit_generator.state


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

        sub = Subgraph(nodes=frozenset({2}), triples=())
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

    def test_uniform_one_entity_vocab(self):
        g = graph_of(1, [(0, 0, 0)])
        with pytest.raises(EmptyPool):
            sample_negatives(
                Triple(0, 0, 0), "uniform", n=3, rng=np.random.default_rng(0), graph=g
            )

    def test_sans_draws_are_uniform(self):
        """Random-key top-n draws every ordered pair of distinct pool ids
        equally often; short pools draw every id equally often."""
        rows = 20000
        pool = np.tile(np.array([3, 0, 4, 1, 2, -1]), (rows, 1))
        golds = np.full(rows, 2)
        rng = np.random.default_rng(4)
        negs, _ = one_batch_negatives("sans", golds, 2, rng, 0, pool)
        _, counts = np.unique(negs[:, 0] * 5 + negs[:, 1], return_counts=True)
        assert len(counts) == 4 * 3  # ordered pairs of {0, 1, 3, 4}, no repeats
        assert np.all(np.abs(counts - rows / 12) < 150)
        negs, _ = one_batch_negatives("sans", golds, 6, rng, 0, pool)
        ids, counts = np.unique(negs, return_counts=True)
        assert ids.tolist() == [0, 1, 3, 4]
        assert np.all(np.abs(counts - rows * 6 / 4) < 400)

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
            {"sampler": "in_batch", "batch_size": 1},
            {"sampler": "sans", "sans_k": -1},
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

    def test_in_batch_one_gold_per_batch_is_empty_pool(self):
        g = graph_of(4, [(0, 0, 3), (1, 0, 3), (2, 0, 3)])
        with pytest.raises(EmptyPool):
            train(g, TrainingConfig(d=4, epochs=1, sampler="in_batch", batch_size=3))

    def test_in_batch_epoch_training_nothing_is_empty_pool(self):
        # One triple makes one batch of one, which the in-batch sampler skips.
        g = graph_of(2, [(0, 0, 1)])
        with pytest.raises(EmptyPool, match="epoch 1 trained no triple"):
            train(g, TrainingConfig(d=4, epochs=1, sampler="in_batch", batch_size=2))

    def test_sans_ball_without_alternative_is_empty_pool(self):
        g = graph_of(3, [(0, 0, 0), (1, 0, 2)])  # the ball of 0 is {0}
        with pytest.raises(EmptyPool):
            train(g, TrainingConfig(d=4, epochs=1, sampler="sans", negatives=2))


def one_batch_negatives(strategy, golds, n, rng, n_entities, pool):
    """group_negatives over one batch that holds every row; in_batch's
    ``pool`` is that batch's one row of candidates."""
    if strategy == "in_batch":
        pool = pool[None]
    return group_negatives(strategy, golds, n, rng, n_entities, pool, max(len(golds), 1))


def per_batch_negatives(strategy, golds, n, rng, n_entities, pool):
    """One batch's draw as it was written before the group drawer: the
    oracle for group_negatives, which must give the same draws and leave
    the generator in the same state."""
    rows = len(golds)
    if strategy == "uniform":
        if n_entities < 2:
            raise EmptyPool("vocabulary has no alternative entity")
        draws = rng.integers(0, n_entities - 1, size=(rows, n))
        draws += draws >= golds[:, None]
        return draws, None
    if strategy == "sans":
        valid = (pool >= 0) & (pool != golds[:, None])
        sizes = valid.sum(axis=1)
        if not sizes.all():
            raise EmptyPool("subgraph offers no alternative entity")
        keys = np.where(valid, rng.random(pool.shape), np.inf)
        starts = np.arange(rows)[:, None] * pool.shape[1]
        shuffled = pool.ravel()[np.argsort(keys, axis=1) + starts]
        cols = np.arange(n)[None].repeat(rows, axis=0)
        short = sizes < n
        cols[short] = rng.integers(0, sizes[short, None], size=(int(short.sum()), n))
        return shuffled.ravel()[cols + starts], None
    if len(pool) < 2:
        raise EmptyPool("in-batch sampling needs a batch of at least 2")
    mask = np.ones((rows, len(pool) + 1), dtype=bool)
    mask[:, 1:] = pool != golds[:, None]
    if not mask[:, 1:].any(axis=1).all():
        raise EmptyPool("no distinct gold entities in the batch")
    return np.broadcast_to(pool, (rows, len(pool))), mask


class PowAdam(_AdamStep):
    """The Adam step as it evaluated 1 - beta**t on every call and wrote
    fresh moment arrays: the oracle for the tabled, in-place step."""

    def apply(self, params: np.ndarray, rows: np.ndarray, grad: np.ndarray) -> None:
        t = self.t[rows] + 1
        self.t[rows] = t
        t = t[:, None]
        self.m[rows] = m = self.m[rows] * self.beta1 + (1 - self.beta1) * grad
        self.v[rows] = v = self.v[rows] * self.beta2 + (1 - self.beta2) * grad * grad
        m_hat = m / (1 - self.beta1**t)
        v_hat = v / (1 - self.beta2**t)
        params[rows] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def two_matrix_train(graph, cfg):
    """train() as it stepped the entity and the relation matrix apart,
    drawing each batch's negatives alone (per_batch_negatives) and
    stepping Adam with PowAdam: a kernel call that finds each matrix's
    touched rows, then an L2 pull and an optimizer step per matrix. The
    oracle for the one-matrix step and the group draws, which must give
    the same bytes."""
    table = init_embeddings(len(graph.entities), len(graph.relations), cfg.d, cfg.seed)
    triples = np.array(graph.triples, dtype=np.int64).reshape(-1, 3)
    rng = np.random.default_rng([cfg.seed, 1])
    balls = _ball_rows(graph, cfg.sans_k) if cfg.sampler == "sans" else None
    step = _SgdStep if cfg.optimizer == "sgd" else PowAdam
    steppers = [(m, step(cfg.lr, m.shape)) for m in (table.entities, table.relations)]
    trace = []
    n = len(triples)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss, seen = 0.0, 0
        for start in range(0, n, cfg.batch_size):
            s, p, o = triples[order[start : start + cfg.batch_size]].T
            if cfg.sampler == "in_batch" and len(o) < 2:
                continue
            pool = o if balls is None else balls[s]
            negs, mask = per_batch_negatives(cfg.sampler, o, cfg.negatives, rng, len(graph.entities), pool)
            losses, *grads = unique_kernel(
                s, p, np.concatenate([o[:, None], negs], axis=1), mask, table
            )
            epoch_loss += float(losses.sum())
            seen += len(losses)
            for (params, stepper), (rows, grad) in zip(steppers, grads):
                if cfg.l2 > 0:
                    grad += 2.0 * cfg.l2 * params[rows]
                stepper.apply(params, rows, grad)
        trace.append(epoch_loss / seen)
    return table, trace


class TestOneMatrixStep:
    """train() steps one stacked parameter matrix and draws negatives for
    groups of batches; the bytes are those of stepping the two matrices
    apart with per-batch draws, for every sampler and optimizer, with and
    without the L2 pull."""

    @pytest.mark.parametrize("l2", [1e-4, 0.0])
    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    @pytest.mark.parametrize(
        "sampler", [("uniform", 1), ("sans", 2), ("in_batch", 1)], ids=["uniform", "sans2", "in_batch"]
    )
    @pytest.mark.parametrize("corpus", ["block", "sparse"])
    def test_tables_and_trace_match_two_matrix_oracle(self, corpus, sampler, optimizer, l2):
        graph = block_split(1)[0] if corpus == "block" else sparse_corpus(600, 4, 900)[0]
        cfg = TrainingConfig(
            d=32, epochs=2, negatives=50, batch_size=32, lr=8e-2, seed=5,
            sampler=sampler[0], sans_k=sampler[1], optimizer=optimizer, l2=l2,
        )
        table, trace = train(graph, cfg)
        want, want_trace = two_matrix_train(graph, cfg)
        assert trace == want_trace
        assert table.entities.tobytes() == want.entities.tobytes()
        assert table.relations.tobytes() == want.relations.tobytes()


class DictAdam:
    """The Adam step that kept its moments and step counts in dicts keyed
    by row: the oracle for the dense state."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, lr: float):
        self.lr = lr
        self.m: dict[int, np.ndarray] = {}
        self.v: dict[int, np.ndarray] = {}
        self.t: dict[int, int] = {}

    def apply(self, params: np.ndarray, grads: dict[int, np.ndarray]) -> None:
        for idx, g in grads.items():
            t = self.t.get(idx, 0) + 1
            self.t[idx] = t
            m = self.m.get(idx)
            if m is None:
                m = np.zeros_like(g)
                self.m[idx] = m
                self.v[idx] = np.zeros_like(g)
            v = self.v[idx]
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            m_hat = m / (1 - self.beta1**t)
            v_hat = v / (1 - self.beta2**t)
            params[idx] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class TestAdamState:
    def test_dense_state_matches_dict_oracle(self):
        rng = np.random.default_rng(5)
        start = rng.normal(size=(5, 3))
        dense_params, oracle_params = start.copy(), start.copy()
        dense, oracle = _AdamStep(0.05, start.shape), DictAdam(0.05)
        for rows in ([0, 2], [2], [1, 4], [0, 2, 4], [2]):
            grad = rng.normal(size=(len(rows), 3))
            oracle.apply(oracle_params, {r: g.copy() for r, g in zip(rows, grad)})
            dense.apply(dense_params, np.array(rows), grad)
            assert np.array_equal(dense_params, oracle_params)
        assert dense.t.tolist() == [2, 1, 4, 0, 2]
        assert np.array_equal(dense_params[3], start[3])
        assert not dense.m[3].any() and not dense.v[3].any()

    def test_table_equals_power_past_growth(self):
        """The tabled corrections are 1 - beta**t bit for bit, read past the
        table's first growth, and the steps give PowAdam's bytes."""
        rng = np.random.default_rng(8)
        start = rng.normal(size=(6, 4))
        tabled_params, pow_params = start.copy(), start.copy()
        tabled, pow_step = _AdamStep(0.05, start.shape), PowAdam(0.05, start.shape)
        first = len(tabled.corr1)
        for _ in range(3 * first):
            rows = np.flatnonzero(rng.random(6) < 0.8)
            grad = rng.normal(size=(len(rows), 4))
            tabled.apply(tabled_params, rows, grad)
            pow_step.apply(pow_params, rows, grad.copy())
            assert tabled_params.tobytes() == pow_params.tobytes()
        assert len(tabled.corr1) > 2 * first and tabled.t.max() > first
        t = np.arange(len(tabled.corr1))[:, None]
        for table, beta in ((tabled.corr1, _AdamStep.beta1), (tabled.corr2, _AdamStep.beta2)):
            assert table.tobytes() == (1 - beta**t).ravel().tobytes()
        for name in ("m", "v", "t"):
            assert getattr(tabled, name).tobytes() == getattr(pow_step, name).tobytes()


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


def bincount_ranks(table, heldout, graph, mode):
    """evaluate_link_prediction's ranks as they were counted before the
    NaN mask: each row's raw rank, less the filtered-out entities ahead
    of the gold, found per (row, entity) cell and subtracted with one
    bincount. The oracle for the masked filter, which must give the
    same ranks; it cuts blocks by the module's _BLOCK_CELLS, as the
    evaluator does."""
    heldout = list(heldout)
    known = None
    if mode == "filtered":
        known = {(s, p): set() for s, p, _ in heldout}
        for s, p, o in (*graph.triples, *heldout):
            if (s, p) in known:
                known[s, p].add(o)
    E = table.entities
    ids = np.arange(len(E), dtype=np.int32)
    rows = max(1, embeddings._BLOCK_CELLS // len(E))
    ranks = []
    for start in range(0, len(heldout), rows):
        block = heldout[start : start + rows]
        s, p, o = np.array(block, dtype=np.int32).T
        scores = (E[s] * table.relations[p]) @ E.T
        r = np.arange(len(block))
        gold = scores[r, o][:, None]
        ahead = scores > gold
        ties = scores == gold
        ties[r, o] = False
        ahead |= ties & (ids < o[:, None])
        block_ranks = 1 + ahead.sum(axis=1, dtype=np.int32)
        if known is not None:
            ri, ci = [], []
            for i, t in enumerate(block):
                for e in known[(t.s, t.p)]:
                    if e != t.o:
                        ri.append(i)
                        ci.append(e)
            if ri:
                ri = np.array(ri)
                block_ranks -= np.bincount(ri[ahead[ri, ci]], minlength=len(block))
        ranks.extend(block_ranks.tolist())
    return ranks


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

    def test_generator_ranks_as_list(self):
        g, table, heldout = self.make_setup(3)
        for mode in ("raw", "filtered"):
            want = evaluate_link_prediction(table, heldout, g, mode=mode)
            got = evaluate_link_prediction(table, (t for t in heldout), g, mode=mode)
            assert got.ranks == want.ranks

    def test_tie_broken_by_ascending_id(self):
        g = graph_of(5, [(0, 0, 1)])
        table = EmbeddingTable(entities=np.zeros((5, 2)), relations=np.ones((1, 2)))
        report = evaluate_link_prediction(table, [Triple(0, 0, 3)], g, mode="raw")
        # All scores tie at 0; ids 0,1,2 precede the gold id 3.
        assert report.ranks == [4]
        # Filtered, the known object 1 is dropped though it ties ahead of the gold.
        report = evaluate_link_prediction(table, [Triple(0, 0, 3)], g, mode="filtered")
        assert report.ranks == [3]

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
        # A graph triple held out twice is one overlapping triple.
        for copies in (1, 2):
            with pytest.raises(ValueError, match=r"^1 held-out triples also appear in the graph$"):
                evaluate_link_prediction(table, [toy_graph.triples[0]] * copies, toy_graph)

    def test_raw_mode_ranks_an_overlapping_list(self, toy_graph):
        """Raw ranks ignore the graph, so a held-out list with a graph triple
        is ranked; the filtered mode rejects it whichever mode saw the list
        first on a graph, and a raw call after the rejection still ranks it."""
        table = init_embeddings(8, 3, 4, seed=0)
        heldout = [toy_graph.triples[0], Triple(0, 0, 0)]
        assert heldout[1] not in toy_graph.triples
        want = bincount_ranks(table, heldout, toy_graph, "raw")
        for first in ("raw", "filtered"):
            graph = KnowledgeGraph(toy_graph.triples, toy_graph.entities, toy_graph.relations)
            if first == "raw":
                assert evaluate_link_prediction(table, heldout, graph, mode="raw").ranks == want
            with pytest.raises(ValueError, match=r"^1 held-out triples also appear in the graph$"):
                evaluate_link_prediction(table, heldout, graph, mode="filtered")
            assert evaluate_link_prediction(table, heldout, graph, mode="raw").ranks == want


class TestLinkPredictionCost:
    """The filter reads the held-out subjects' edges, not the whole graph,
    and only on the first call for a graph and held-out list.

    Counts, not timings, so the check holds on any host. Triples read
    from the triple list and from the out-edge index count alike. A
    filter built from every graph triple, or from every entity's
    out-edges, reads ten times as many per held-out row at 6,000
    entities as at 600; the held-out subjects' out-degree does not grow
    with the vocabulary, and the bound is 2x for the sampling noise in it.
    """

    @staticmethod
    def counted_split(n: int):
        """(graph whose triple list and out-edge index count their reads,
        the read counter, 100 held-out triples, table)."""
        full, _, _, _ = sparse_corpus(n, n_triples=3 * n // 2)
        rng = np.random.default_rng(0)
        picked = set(rng.choice(len(full.triples), size=100, replace=False).tolist())
        heldout = [t for i, t in enumerate(full.triples) if i in picked]
        rest = [t for i, t in enumerate(full.triples) if i not in picked]
        graph = KnowledgeGraph(rest, full.entities, full.relations)
        reads = [0]
        graph.triples = CountingIds(graph.triples, reads)
        graph._out = {e: CountingIds(edges, reads) for e, edges in graph._out.items()}
        table = init_embeddings(n, len(graph.relations), 4, seed=0)
        return graph, reads, heldout, table

    def triples_read_per_row(self, n: int) -> float:
        graph, reads, heldout, table = self.counted_split(n)
        evaluate_link_prediction(table, heldout, graph, mode="filtered")
        return reads[0] / len(heldout)

    def test_filtered_reads_follow_the_heldout_degree(self):
        small, big = self.triples_read_per_row(600), self.triples_read_per_row(6000)
        assert 0 < big <= 2 * small

    def test_second_call_reads_no_triples(self):
        """The filter is built once per graph and held-out list: another
        table of the same size, and an equal copy of the list, reuse it."""
        graph, reads, heldout, table = self.counted_split(600)
        first = evaluate_link_prediction(table, heldout, graph, mode="filtered")
        assert reads[0] > 0
        reads[0] = 0
        other = init_embeddings(600, len(graph.relations), 4, seed=1)
        second = evaluate_link_prediction(other, list(heldout), graph, mode="filtered")
        assert reads[0] == 0
        assert first.ranks == evaluate_link_prediction(table, heldout, graph, mode="filtered").ranks
        assert second.ranks == bincount_ranks(other, heldout, graph, "filtered")


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

    def test_bytes_match_per_float_format(self, tmp_path):
        values = [-0.0, 5e-324, 1e308, 0.1, -1 / 3]
        table = EmbeddingTable(
            entities=np.array([values, values[::-1]]), relations=np.array([values[1:] + [0.0]]),
            entity_names=["a", "b"], relation_names=["r"],
        )
        path = tmp_path / "emb.tsv"
        save_embeddings(path, table)
        rows = [("E", table.entity_names, table.entities), ("R", table.relation_names, table.relations)]
        want = "pathhunter-emb v1 2 1 5\n" + "".join(
            f"{kind}\t{name}\t{' '.join(format(x, '.17g') for x in row)}\n"
            for kind, names, matrix in rows
            for name, row in zip(names, matrix)
        )
        assert path.read_bytes() == want.encode("utf-8")
        assert "-0 4.9406564584124654e-324 1e+308 0.10000000000000001" in want

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
