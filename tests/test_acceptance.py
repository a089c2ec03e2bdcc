"""End-to-end acceptance gates.

One test per gate, in a fixed order, each ending with a single printed
PASS line carrying the measured numbers (pytest -v adds its own
verdict per test). The gates exercise the library through its public
API only, and every expectation is checked against either a hand
oracle or an independent reimplementation living in this file or in
tests/synthetic.py.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np
import pytest

from synthetic import (
    block_split,
    chain_graph,
    planted_record,
    sparse_corpus,
)

from kgfaith import (
    KnowledgeGraph,
    Triple,
    Vocabulary,
    load_aliases,
    load_triples,
)
from kgfaith.corruptor import (
    CorruptionConfig,
    build_synthetic_dataset,
    corrupt_intrinsic,
    round_half_up,
)
from kgfaith.critic import Critic, derive_anchors
from kgfaith.dialogue import DialogueRecord
from kgfaith.embeddings import (
    EmbeddingTable,
    TrainingConfig,
    batch_nce_loss_and_grad,
    evaluate_link_prediction,
    sample_negatives,
    train,
)
from kgfaith.errors import NotApplicable
from kgfaith.kg import canonical
from kgfaith.metrics import bleu, ranking_metrics
from kgfaith.retriever import RefineConfig, refine_response

SEEDS = range(5)


def gate(name: str, detail: str) -> None:
    print(f"[{name}] PASS: {detail}")


# --- shared trained models -------------------------------------------------


@pytest.fixture(scope="module")
def block_model():
    """Training graph, holdout, and one trained table per seed."""
    train_graph, held = block_split(seed=0, holdout_size=30)
    tables, seconds = [], []
    for seed in SEEDS:
        cfg = TrainingConfig(
            d=32,
            epochs=60,
            negatives=50,
            batch_size=32,
            sampler="uniform",
            seed=seed,
            lr=8e-2,
        )
        t0 = time.perf_counter()
        table, _ = train(train_graph, cfg)
        seconds.append(time.perf_counter() - t0)
        tables.append(table)
    return train_graph, held, tables, seconds


@pytest.fixture(scope="module")
def sparse_dataset():
    graph, types, aliases, records = sparse_corpus()
    cfg = CorruptionConfig(fraction=0.6, seed=7, policy="fallback", k=2)
    out, summary = build_synthetic_dataset(records, graph, types, cfg, aliases)
    return graph, types, aliases, records, out, summary


@pytest.fixture(scope="module")
def toy_setup(data_dir):
    graph = load_triples(data_dir / "toy_kg.tsv")
    aliases = load_aliases(data_dir / "toy_aliases.tsv")
    return graph, aliases


# --- gates ------------------------------------------------------------------


def test_gate1_link_prediction_quality(block_model):
    """Filtered ranking on the held-out block triples must be strong."""
    train_graph, held, tables, seconds = block_model
    assert len(train_graph.triples) == 270
    assert len(held) == 30
    trained = {e for t in train_graph.triples for e in (t.s, t.o)}
    assert len(trained) == len(train_graph.entities)

    report = evaluate_link_prediction(tables[0], held, train_graph, mode="filtered")
    assert seconds[0] < 60.0
    assert report.mrr >= 0.5
    assert report.hits[10] >= 0.9
    gate(
        "gate1",
        f"filtered MRR {report.mrr:.3f} >= 0.5, hits@10 {report.hits[10]:.3f} "
        f">= 0.9 on 30/300 held out, trained in {seconds[0]:.1f}s",
    )


def test_gate2_neighborhood_negatives_score_higher(block_model):
    """Subgraph-drawn negatives must outscore uniform ones per batch.

    Negatives drawn from the positive's 2-hop neighborhood are harder
    (closer in embedding space) than uniform draws, so after training
    their mean model score should be higher batch for batch.
    """
    train_graph, _, tables, _ = block_model
    triples = list(train_graph.triples)
    subs: dict[int, object] = {}
    wins, total = 0, 0
    for seed in SEEDS:
        table = tables[seed]
        rng = np.random.default_rng(1000 + seed)
        for start in range(0, len(triples), 32):
            batch = triples[start : start + 32]
            hard, easy = [], []
            for t in batch:
                if t.s not in subs:
                    subs[t.s] = train_graph.khop_subgraph([t.s], 2)
                drawn = (
                    (hard, sample_negatives(t, "sans", n=50, rng=rng, sub=subs[t.s])),
                    (easy, sample_negatives(t, "uniform", n=50, rng=rng, graph=train_graph)),
                )
                for dest, negs in drawn:
                    s_ids = np.array([n.s for n in negs])
                    o_ids = np.array([n.o for n in negs])
                    dest.append(
                        np.sum(
                            (table.entities[s_ids] * table.entities[o_ids])
                            * table.relations[t.p],
                            axis=1,
                        )
                    )
            total += 1
            if float(np.mean(np.concatenate(hard))) > float(np.mean(np.concatenate(easy))):
                wins += 1
    rate = wins / total
    assert rate >= 0.95
    gate(
        "gate2",
        f"neighborhood negatives outscored uniform in {wins}/{total} "
        f"batches ({rate:.3f} >= 0.95) across {len(SEEDS)} seeds",
    )


def test_gate3_gradients_match_finite_differences():
    """batch_nce_loss_and_grad, the kernel train() steps with, vs central differences.

    100 random instances, each a batch of 1-4 rows whose masks keep 1-6
    negatives. The few ids make rows share subjects and objects, so the
    kernel must sum their gradients. Every row of both matrices is
    differentiated, so a touched row left out of the returned ids shows
    up as well.
    """
    h = 1e-5
    rng = np.random.default_rng(2024)
    worst = 0.0
    shared = 0
    for _ in range(100):
        n_ent = int(rng.integers(2, 8))
        n_rel = int(rng.integers(1, 4))
        d = int(rng.integers(1, 7))
        table = EmbeddingTable(
            entities=rng.normal(scale=0.5, size=(n_ent, d)),
            relations=rng.normal(scale=0.5, size=(n_rel, d)),
        )
        rows = int(rng.integers(1, 5))
        width = 1 + int(rng.integers(1, 7))
        subjects = rng.integers(n_ent, size=rows)
        predicates = rng.integers(n_rel, size=rows)
        mask = np.arange(width) < 1 + rng.integers(1, width, size=rows)[:, None]
        objects = rng.integers(n_ent, size=(rows, width))
        objects = np.where(mask, objects, objects[:, :1])  # masked cells hold the positive
        per_row = sum(len({int(subjects[i]), *objects[i].tolist()}) for i in range(rows))
        shared += per_row > len(np.unique(np.concatenate([subjects, objects.ravel()])))

        def kernel():
            return batch_nce_loss_and_grad(subjects, predicates, objects, mask, table)

        def loss() -> float:
            return float(kernel()[0].sum())

        _, (ent_ids, ent_grad), (rel_ids, rel_grad) = kernel()
        analytic = (np.zeros_like(table.entities), np.zeros_like(table.relations))
        analytic[0][ent_ids] = ent_grad
        analytic[1][rel_ids] = rel_grad
        for mat, grads in zip((table.entities, table.relations), analytic):
            for idx, g in enumerate(grads):
                ref = np.zeros(d)
                for j in range(d):
                    orig = mat[idx, j]
                    mat[idx, j] = orig + h
                    lp = loss()
                    mat[idx, j] = orig - h
                    lm = loss()
                    mat[idx, j] = orig
                    ref[j] = (lp - lm) / (2 * h)
                if not ref.any():
                    # The loss does not depend on this row: untouched, or every
                    # kept negative of its batch rows is the positive. The
                    # gradient is then the rounding of softmax weights summing
                    # to zero, which a relative error over the 1e-12 floor
                    # would inflate; it must itself be zero to 1e-12.
                    assert np.linalg.norm(g) <= 1e-12
                    continue
                err = float(np.linalg.norm(g - ref) / (np.linalg.norm(g) + np.linalg.norm(ref)))
                worst = max(worst, err)
                assert err < 1e-4
    assert shared >= 50
    gate("gate3", f"100 random batches ({shared} share ids across rows), "
                  f"worst relative error {worst:.2e} < 1e-4")


def test_gate4_extrinsic_corruptions_sound_and_detected(sparse_dataset):
    """Mass-generated extrinsic corruptions: quota, soundness, recall."""
    graph, _, aliases, records, out, summary = sparse_dataset
    n = len(records)
    assert summary.assigned_extrinsic == round_half_up(0.6 * n)
    assert summary.assigned_intrinsic == n - summary.assigned_extrinsic

    extrinsic = [c for c in out if c.kind == "extrinsic"]
    assert len(extrinsic) >= 500

    critic = Critic(graph, aliases, k=2)
    unsound = 0
    span_total, span_flagged = 0, 0
    for c in extrinsic:
        anchors = derive_anchors(c.original, graph, aliases, "kn")
        sub = graph.khop_subgraph(list(anchors), 2)
        history = [canonical(turn) for turn in c.original.history]
        for _, new in c.replacements:
            nid = graph.entities.get(new)
            in_sub = nid is None or nid in sub.nodes
            in_hist = any(canonical(new) in turn for turn in history)
            if in_sub or in_hist:
                unsound += 1
        report = critic.critique(c.as_record())
        flagged = {
            (s.begin, s.end) for s in report.flagged_spans if s.label == "extrinsic"
        }
        for begin, end in c.labels:
            span_total += 1
            if (begin, end) in flagged:
                span_flagged += 1

    assert unsound == 0
    assert span_flagged == span_total
    gate(
        "gate4",
        f"{len(extrinsic)} extrinsic corruptions (quota "
        f"{summary.assigned_extrinsic}/{n}), 0 unsound replacements, "
        f"recall {span_flagged}/{span_total} = 1.0",
    )


def test_gate5_intrinsic_corruption_involution(sparse_dataset):
    """Applying the swap twice restores every applicable response."""
    graph, _, aliases, records, _, _ = sparse_dataset
    applicable, restored = 0, 0
    for rec in records:
        try:
            once = corrupt_intrinsic(rec, graph, aliases)
        except NotApplicable:
            continue
        applicable += 1
        twice = corrupt_intrinsic(once.as_record(), graph, aliases)
        if twice.response == rec.response:
            restored += 1
        assert once.response != rec.response
    assert applicable >= 100
    assert restored == applicable
    gate("gate5", f"double swap restored {restored}/{applicable} applicable records byte for byte")


def test_gate6_toy_dialogue_refinement(toy_setup):
    """The worked toy dialogue: detection offsets and repaired entities."""
    graph, aliases = toy_setup
    record = DialogueRecord(
        history=[
            "Do you know the author Roald Dahl?",
            "Yes! He wrote The Witches.",
        ],
        triples=[("roald_dahl", "wrote", "the_witches")],
        response="Yes he did. He also wrote The Time Machine and The Invisible Man.",
    )
    critic = Critic(graph, aliases, k=2)
    report = critic.critique(record)
    flagged = [(s.begin, s.end) for s in report.flagged_spans]
    assert flagged == [(26, 42), (47, 64)]

    cfg = TrainingConfig(
        d=16, epochs=200, negatives=20, batch_size=4, sampler="uniform",
        seed=0, lr=8e-2,
    )
    table, _ = train(graph, cfg)
    out = refine_response(
        record, report, graph, table, cfg=RefineConfig(k=2, mode="oracle"),
        aliases=aliases,
    )
    got = {e.new_entity for e in out.edits}
    assert not out.failures
    assert len(out.edits) == 2
    assert got == {"the_bfg", "charlie_and_the_chocolate_factory"}
    gate(
        "gate6",
        f"flagged spans {flagged}, trained retrieval replaced them with "
        f"{sorted(got)}",
    )


def test_gate7_bleu_reference_values():
    got = bleu(["the cat sat on the mat"], ["the cat sat on a mat"])
    want = ((5 / 6) * (3 / 5) * (2 / 4) * (1 / 3)) ** 0.25
    assert got == pytest.approx(want, abs=1e-12)
    assert abs(got - 0.5373) <= 1e-3
    identical = "colorless green ideas sleep furiously"
    assert bleu([identical], [identical]) == 1.0
    gate(
        "gate7",
        f"hand-worked pair scored {got:.4f} (0.5373 +- 1e-3), identity pair scored exactly 1.0",
    )


def test_gate8_ranking_matches_brute_force():
    """Metrics and the ranking evaluator vs independent reimplementations."""
    rng = random.Random(712)
    for _ in range(1000):
        n = rng.randint(1, 30)
        ranks = [rng.randint(1, 50) for _ in range(n)]
        out = ranking_metrics(ranks)
        for k in (1, 3, 10):
            assert out.hits[k] == len([r for r in ranks if r <= k]) / n
        assert out.mr == sum(ranks) / n
        assert out.mrr == sum(1 / r for r in ranks) / n

    def oracle_rank(table, triple, known, mode, n_entities):
        cand = list(range(n_entities))
        if mode == "filtered":
            cand = [
                e
                for e in cand
                if e == triple.o or Triple(triple.s, triple.p, e) not in known
            ]
        scored = sorted(
            cand,
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

    nrng = np.random.default_rng(712)
    for case in range(1000):
        n_ent = int(nrng.integers(4, 16))
        seen: set[tuple[int, int, int]] = set()
        while len(seen) < n_ent:
            seen.add(
                (
                    int(nrng.integers(n_ent)),
                    int(nrng.integers(2)),
                    int(nrng.integers(n_ent)),
                )
            )
        rows = sorted(seen)
        heldout = [Triple(*t) for t in rows[: max(1, n_ent // 4)]]
        training = [Triple(*t) for t in rows[max(1, n_ent // 4) :]] or [Triple(0, 0, 1)]
        ents, rels = Vocabulary(), Vocabulary()
        for i in range(n_ent):
            ents.add(f"e{i}")
        for j in range(2):
            rels.add(f"r{j}")
        g = KnowledgeGraph(training, ents, rels)
        table = EmbeddingTable(
            entities=nrng.normal(size=(n_ent, 3)),
            relations=nrng.normal(size=(2, 3)),
        )
        known = set(g.triples) | set(heldout)
        mode = "filtered" if case % 2 else "raw"
        report = evaluate_link_prediction(table, heldout, g, mode=mode)
        expected = [oracle_rank(table, t, known, mode, n_ent) for t in heldout]
        assert report.ranks == expected
        agg = ranking_metrics(expected)
        assert report.mrr == agg.mrr and report.mr == agg.mr
    gate("gate8", "1000 metric instances and 1000 ranking instances match brute force exactly")


def test_gate9_planted_hallucinations_repaired():
    """Plant out-of-graph mentions, repair them with trained retrieval.

    48 records have a uniquely supported answer in the anchor's
    neighborhood; 2 records anchor on isolated entities whose
    neighborhoods offer no candidates, so they must fail (and nothing
    else may).
    """
    hits, attempted = 0, 0
    failures: list[str] = []
    for g in range(5):
        graph, aliases = chain_graph(n_pairs=10, n_labels=3, isolated=2 if g == 0 else 0)
        cfg = TrainingConfig(
            d=16, epochs=200, negatives=20, batch_size=4, sampler="uniform",
            seed=100 + g, lr=8e-2,
        )
        table, _ = train(graph, cfg)
        critic = Critic(graph, aliases, k=2)
        rcfg = RefineConfig(k=2, mode="oracle", anchor_source="history")
        planted = [(f"src_{i}", f"dst_{i}") for i in (range(8) if g == 0 else range(10))]
        impossible = [("iso_0", "dst_0"), ("iso_1", "dst_0")] if g == 0 else []
        for src, dst in planted:
            rec = planted_record(src, "links", dst)
            out = refine_response(
                rec, critic.critique(rec), graph, table, cfg=rcfg, aliases=aliases
            )
            assert not out.failures
            attempted += 1
            if out.edits and out.edits[0].new_entity == dst:
                hits += 1
        for src, dst in impossible:
            rec = planted_record(src, "links", dst)
            out = refine_response(
                rec, critic.critique(rec), graph, table, cfg=rcfg, aliases=aliases
            )
            assert not out.edits
            assert len(out.failures) == 1
            assert "candidate" in out.failures[0].reason
            failures.append(f"{src}: {out.failures[0].reason}")
    rate = hits / attempted
    assert rate >= 0.9
    assert len(failures) == 2
    gate(
        "gate9",
        f"repaired {hits}/{attempted} planted mentions (hits@1 {rate:.3f} >= 0.9); "
        f"the only 2 failures were empty isolated-anchor neighborhoods",
    )


def test_gate10_neighborhoods_match_bfs():
    """k-hop neighborhoods vs a from-scratch BFS, random graphs."""

    def bfs_ball(triples, centers, k):
        adj: dict[int, set[int]] = {}
        for s, _, o in triples:
            adj.setdefault(s, set()).add(o)
            adj.setdefault(o, set()).add(s)
        frontier, nodes = set(centers), set(centers)
        for _ in range(k):
            frontier = {
                m for x in frontier for m in adj.get(x, ()) if m not in nodes
            }
            nodes |= frontier
        return nodes

    rng = np.random.default_rng(31)
    for _ in range(200):
        n_ent = int(rng.integers(3, 40))
        n_tri = int(rng.integers(1, 80))
        rows = {
            (
                int(rng.integers(n_ent)),
                int(rng.integers(3)),
                int(rng.integers(n_ent)),
            )
            for _ in range(n_tri)
        }
        ents, rels = Vocabulary(), Vocabulary()
        for i in range(n_ent):
            ents.add(f"e{i}")
        for j in range(3):
            rels.add(f"r{j}")
        graph = KnowledgeGraph([Triple(*t) for t in sorted(rows)], ents, rels)
        k = int(rng.integers(0, 4))
        n_centers = int(rng.integers(1, 4))
        centers = [int(c) for c in rng.integers(0, n_ent, size=n_centers)]
        sub = graph.khop_subgraph(centers, k)
        assert sub.nodes == bfs_ball(rows, centers, k)
        induced = {t for t in graph.triples if t.s in sub.nodes and t.o in sub.nodes}
        assert set(sub.triples) == induced
    gate("gate10", "200 random graphs, k in 0..3: node sets and induced edges match BFS")
