"""Query vectors, subgraph candidate ranking, and span refinement."""

from __future__ import annotations

from unittest.mock import patch

import numpy as np
import pytest
from synthetic import sparse_corpus
from test_corruptor import CountingIds

from kgfaith import KnowledgeGraph, Subgraph, Triple, Vocabulary
from kgfaith.critic import Critic
from kgfaith.dialogue import DialogueRecord
from kgfaith.embeddings import EmbeddingTable, trilinear
from kgfaith.errors import (
    DimensionMismatch,
    LengthMismatch,
    MalformedLine,
    RetrievalImpossible,
)
from kgfaith.kg import AliasTable
from kgfaith.retriever import (
    Edit,
    Failure,
    RefineConfig,
    RefinementOutcome,
    build_query,
    infer_relation,
    load_query_vectors,
    oracle_grounding_triple,
    rank_candidates,
    refine_response,
    scoring_anchor,
)

TABLE_HISTORY = [
    "Do you know the author Roald Dahl?",
    "Yes! He wrote The Witches.",
]
TABLE_RESPONSE = "Yes he did. He also wrote The Time Machine and The Invisible Man."
TABLE_GOLD = "Yes he did. He also wrote The BFG and Charlie and the Chocolate Factory."


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


def candidate_ids(values) -> np.ndarray:
    """Candidate ids as refine_response passes them: int64, ascending."""
    return np.array(sorted(values), dtype=np.int64)


def table_record() -> DialogueRecord:
    return DialogueRecord(
        history=list(TABLE_HISTORY),
        triples=[("roald_dahl", "wrote", "the_witches")],
        response=TABLE_RESPONSE,
    )


def toy_table() -> EmbeddingTable:
    """Hand-set vectors over the toy graph, ids 0..7 and relations 0..2.

    Scored from roald_dahl (id 0) with the wrote vector, the books rank
    the_bfg (4.0) above charlie_and_the_chocolate_factory (3.0), with
    everything else negative.
    """
    ents = [
        [1.0, 1.0],   # roald_dahl
        [0.0, 0.0],   # the_witches
        [4.0, 0.0],   # the_bfg
        [3.0, 0.0],   # charlie_and_the_chocolate_factory
        [-1.0, 0.0],  # fantasy
        [-2.0, 0.0],  # quentin_blake
        [0.0, 0.0],   # jrr_tolkien
        [-3.0, 0.0],  # the_hobbit
    ]
    rels = [
        [1.0, 1.0],   # wrote
        [0.0, 0.0],   # has_genre
        [0.0, 0.0],   # illustrated
    ]
    return table_of(ents, rels)


class TestExternalQueries:
    """A record's query vectors: one per flagged span, in text order."""

    def refine(self, queries):
        # e0 (the history anchor) links to e1 and e2; both ghost spans are
        # flagged extrinsic. From e0, [1, 0] ranks e1 first, [0, 1] e2.
        g = graph_of(3, [(0, 0, 1), (0, 0, 2)])
        aliases = AliasTable.from_names(["e0", "e1", "e2"])
        rec = DialogueRecord(
            history=["e0"], triples=[], response="xA and xB",
            spans=[("ghost_a", 0, 2), ("ghost_b", 7, 9)],
        )
        report = Critic(g, aliases, anchor_source="history").critique(rec)
        return refine_response(
            rec, report, g, table_of([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0]]),
            RefineConfig(mode="external", chain=False, anchor_source="history"),
            aliases=aliases, queries=queries,
        )

    def test_take_in_order(self):
        out = self.refine([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert [e.new_entity for e in out.edits] == ["e1", "e2"]
        out = self.refine([np.array([0.0, 1.0]), np.array([1.0, 0.0])])
        assert [e.new_entity for e in out.edits] == ["e2", "e1"]

    def test_exhausted(self):
        # Too few vectors for the spans, or too many, is refused.
        for n in (0, 1, 3):
            with pytest.raises(LengthMismatch, match=rf"^{n} query vector\(s\), 2 flagged"):
                self.refine([np.zeros(2)] * n)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match=r"query vector 1 has shape \(3,\)"):
            self.refine([np.zeros(2), np.zeros(3)])

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text("# two 2-d vectors\n1.0 2.0\n\n-0.5 0.25\n")
        vectors = load_query_vectors(path, 2)
        assert [vec.tolist() for vec in vectors] == [[1.0, 2.0], [-0.5, 0.25]]

    @pytest.mark.parametrize("bad", ["0.5 half", "0.5 nan", "inf 0.5", "0.5 0.5 0.5", "0.5"])
    def test_bad_value_reports_line(self, tmp_path, bad):
        path = tmp_path / "queries.txt"
        path.write_text(f"# header\n1.0 2.0\n{bad}\n")
        with pytest.raises(MalformedLine) as exc:
            load_query_vectors(path, 2)
        assert str(exc.value) == "line 3: expected a vector of 2 finite numbers"


class TestOracleGroundingTriple:
    def test_lowest_relation_wins(self, toy_graph):
        rec = DialogueRecord(
            history=[],
            triples=[
                ("the_witches", "has_genre", "fantasy"),
                ("roald_dahl", "wrote", "the_witches"),
            ],
            response="x",
        )
        sel = oracle_grounding_triple(rec, toy_graph, (0, 1))
        assert sel == Triple(0, 0, 1)

    def test_tie_breaks_on_subject_then_object(self, toy_graph):
        rec = DialogueRecord(
            history=[],
            triples=[
                ("roald_dahl", "wrote", "the_bfg"),
                ("roald_dahl", "wrote", "the_witches"),
            ],
            response="x",
        )
        sel = oracle_grounding_triple(rec, toy_graph, (0,))
        assert sel == Triple(0, 0, 1)

    def test_none_touching_raises(self, toy_graph):
        rec = DialogueRecord(
            history=[],
            triples=[("jrr_tolkien", "wrote", "the_hobbit")],
            response="x",
        )
        with pytest.raises(RetrievalImpossible, match="no grounding triple"):
            oracle_grounding_triple(rec, toy_graph, (0,))

    def test_unresolvable_triples_skipped(self, toy_graph):
        rec = DialogueRecord(
            history=[],
            triples=[
                ("martian", "wrote", "the_witches"),
                ("roald_dahl", "wrote", "the_bfg"),
            ],
            response="x",
        )
        assert oracle_grounding_triple(rec, toy_graph, (0,)) == Triple(0, 0, 2)
        only_bad = DialogueRecord(
            history=[], triples=[("martian", "wrote", "venus")], response="x"
        )
        with pytest.raises(RetrievalImpossible, match="no grounding triple"):
            oracle_grounding_triple(only_bad, toy_graph, (0,))


class CountingTriples(CountingIds):
    """CountingIds whose iteration counts the items it yields and nothing
    more, so a full pass over n triples reads exactly n."""

    def __iter__(self):
        for t in self.ids:
            self.reads[0] += 1
            yield t


class TestInferRelation:
    def test_reads_only_the_balls_out_edges(self):
        """Counts, not timings: the relation read takes each ball node's
        out-edges once and no other triple, on a graph where nine in ten
        edges leave no ball node, and finds the relations a full scan of
        the triple list finds, not those of edges leaving the ball."""
        graph, _, _, _ = sparse_corpus(600, n_relations=8, n_triples=900)
        ball = graph.ball([0, 1], 1)
        out_degrees = sum(len(graph.out_edges(v)) for v in ball)
        assert 0 < 10 * out_degrees < len(graph.triples)
        want = sorted({t.p for t in graph.triples if t.s in ball and t.o in ball})
        assert {t.p for v in ball for t in graph.out_edges(v)} > set(want)
        reads = [0]
        graph.triples = CountingTriples(graph.triples, reads)
        graph._out = {e: CountingTriples(edges, reads) for e, edges in graph._out.items()}
        graph._in = {e: CountingTriples(edges, reads) for e, edges in graph._in.items()}
        # Relation r's row holds r, so the scorer's relation block names them.
        table = EmbeddingTable(
            entities=np.ones((600, 2)),
            relations=np.repeat(np.arange(len(graph.relations), dtype=float)[:, None], 2, axis=1),
        )
        scored = []

        def scorer(h, r, t):
            scored.append(r[:, 0, 0].astype(int).tolist())
            return trilinear(h, r, t)

        with patch("kgfaith.retriever.trilinear", scorer):
            infer_relation(graph, ball, table, anchor=0, candidates=candidate_ids(ball - {0}))
        assert reads[0] == out_degrees
        assert scored == [want]

    def test_matches_brute_force(self, toy_graph):
        ball = toy_graph.ball([0, 1], 2)
        table = EmbeddingTable(
            entities=np.random.default_rng(3).normal(size=(8, 4)),
            relations=np.random.default_rng(4).normal(size=(3, 4)),
        )
        cands = sorted(ball - {0, 1})
        got = infer_relation(toy_graph, ball, table, anchor=0, candidates=candidate_ids(cands))
        best = max(
            sorted({t.p for t in toy_graph.triples if t.s in ball and t.o in ball}),
            key=lambda r: (
                max(
                    float(trilinear(table.entities[0], table.relations[r], table.entities[c]))
                    for c in cands
                ),
                -r,
            ),
        )
        assert got == best

    def test_tie_takes_lowest_relation(self):
        g = graph_of(3, [(0, 0, 1), (0, 1, 2)])
        ball = g.ball([0], 1)
        table = table_of([[1.0], [1.0], [1.0]], [[2.0], [2.0]])
        assert infer_relation(g, ball, table, anchor=0, candidates=candidate_ids([1, 2])) == 0

    def test_edge_between_frontier_nodes_counts(self):
        # r1 joins the two frontier nodes 1 and 2 and no edge of the anchor
        # carries it; its vector scores 2 against r0's 1.
        g = graph_of(3, [(0, 0, 1), (0, 0, 2), (1, 1, 2)])
        ball = g.ball([0], 1)
        table = table_of([[1.0], [1.0], [1.0]], [[1.0], [2.0]])
        assert infer_relation(g, ball, table, anchor=0, candidates=candidate_ids([1, 2])) == 1

    def test_no_edges_raises(self):
        # Entity 2 has no edge, so its ball is {2} alone; with no candidates
        # either, the missing edges are reported first.
        g = graph_of(3, [(0, 0, 1)])
        ball = g.ball([2], 1)
        table = table_of([[1.0], [1.0], [1.0]], [[1.0]])
        with pytest.raises(RetrievalImpossible, match="no edges"):
            infer_relation(g, ball, table, anchor=2, candidates=candidate_ids([]))

    def test_no_candidates_raises(self):
        g = graph_of(2, [(0, 0, 1)])
        ball = g.ball([0, 1], 1)
        table = table_of([[1.0], [1.0]], [[1.0]])
        with pytest.raises(RetrievalImpossible, match="no candidate entities to infer"):
            infer_relation(g, ball, table, anchor=0, candidates=candidate_ids([]))


class TestScoringAnchor:
    def test_oracle_prefers_subject_side(self, toy_graph):
        rec = table_record()
        assert scoring_anchor("oracle", rec, toy_graph, (0, 1)) == (0, Triple(0, 0, 1))

    def test_oracle_falls_back_to_object_side(self, toy_graph):
        rec = table_record()
        assert scoring_anchor("oracle", rec, toy_graph, (1,)) == (1, Triple(0, 0, 1))

    def test_other_modes_take_lowest_anchor(self, toy_graph):
        rec = table_record()
        assert scoring_anchor("external", rec, toy_graph, (5, 2)) == (2, None)
        assert scoring_anchor("inferred", rec, toy_graph, (5, 2)) == (2, None)

    def test_empty_anchor_set(self, toy_graph):
        rec = table_record()
        with pytest.raises(RetrievalImpossible, match="anchor set is empty"):
            scoring_anchor("oracle", rec, toy_graph, ())


class TestBuildQuery:
    def test_oracle_returns_relation_row(self, toy_graph):
        ball = toy_graph.ball([0, 1], 2)
        table = toy_table()
        cands = candidate_ids(ball - {0, 1})
        q = build_query(table, toy_graph, ball, 0, cands, grounding=Triple(0, 0, 1), supplied=None)
        assert np.array_equal(q, table.relations[0])
        assert not np.shares_memory(q, table.relations)

    def test_inferred_provenance(self, toy_graph):
        ball = toy_graph.ball([0, 1], 2)
        table = toy_table()
        cands = candidate_ids(ball - {0, 1})
        q = build_query(table, toy_graph, ball, 0, cands, grounding=None, supplied=None)
        assert np.array_equal(q, table.relations[0])

    def test_external_consumes_source(self, toy_graph):
        ball = toy_graph.ball([0, 1], 2)
        supplied = np.array([0.5, -0.5])
        q = build_query(toy_table(), toy_graph, ball, 0, candidate_ids(ball - {0, 1}), None, supplied)
        assert q is supplied

    def test_external_without_source(self, toy_graph, toy_aliases):
        # Checked once per refine_response call, before any span; vectors
        # outside the external mode are refused alike.
        rec = table_record()
        report = Critic(toy_graph, toy_aliases).critique(rec)
        for mode, queries in (("external", None), ("oracle", [np.zeros(2)] * 2)):
            with pytest.raises(ValueError, match="query vectors go with the external mode"):
                refine_response(
                    rec, report, toy_graph, toy_table(),
                    RefineConfig(mode=mode), aliases=toy_aliases, queries=queries,
                )


class TestRankCandidates:
    def test_worked_example(self):
        g = graph_of(3, [(0, 0, 1), (0, 0, 2)])
        sub = g.khop_subgraph([0], 1)
        table = table_of([[1.0, 1.0], [2.0, 0.0], [1.0, 5.0]], [[1.0, 0.0]])
        q = np.array([1.0, 0.0])
        ranked = rank_candidates(q, 0, candidate_ids(sub.nodes - {0}), table)
        assert ranked.candidates == [(1, 2.0), (2, 1.0)]

    def test_scores_match_single_calls_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n, d = int(rng.integers(3, 9)), int(rng.integers(1, 17))
            g = graph_of(n, [(0, 0, j) for j in range(1, n)])
            sub = g.khop_subgraph([0], 1)
            table = EmbeddingTable(
                entities=rng.normal(size=(n, d)), relations=rng.normal(size=(1, d))
            )
            q = rng.normal(size=d)
            ranked = rank_candidates(q, 0, candidate_ids(sub.nodes - {0}), table)
            for ent, score in ranked.candidates:
                direct = float(trilinear(table.entities[0], q, table.entities[ent]))
                assert score == direct

    def test_order_nonincreasing_and_anchor_excluded(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(3, 10))
            g = graph_of(n, [(0, 0, j) for j in range(1, n)])
            sub = g.khop_subgraph([0], 1)
            table = EmbeddingTable(
                entities=rng.normal(size=(n, 3)), relations=rng.normal(size=(1, 3))
            )
            q = rng.normal(size=3)
            ranked = rank_candidates(q, 0, candidate_ids(sub.nodes - {0}), table)
            scores = [s for _, s in ranked.candidates]
            assert scores == sorted(scores, reverse=True)
            ids = [e for e, _ in ranked.candidates]
            assert 0 not in ids
            assert sorted(ids) == list(range(1, n))

    def test_tie_breaks_by_ascending_id(self):
        g = graph_of(3, [(0, 0, 1), (0, 0, 2)])
        sub = g.khop_subgraph([0], 1)
        table = table_of([[1.0], [2.0], [2.0]], [[1.0]])
        q = np.array([1.0])
        ranked = rank_candidates(q, 0, candidate_ids(sub.nodes - {0}), table)
        assert ranked.candidates == [(1, 2.0), (2, 2.0)]

    def test_anchor_only_subgraph(self):
        sub = Subgraph(nodes=frozenset({0}), triples=())
        q = np.array([1.0])
        with pytest.raises(RetrievalImpossible, match="no candidate entities besides"):
            rank_candidates(q, 0, candidate_ids(sub.nodes - {0}), table_of([[1.0]], [[1.0]]))

    def test_exclusion_removes_candidates(self):
        g = graph_of(3, [(0, 0, 1), (0, 0, 2)])
        sub = g.khop_subgraph([0], 1)
        table = table_of([[1.0], [5.0], [2.0]], [[1.0]])
        q = np.array([1.0])
        ranked = rank_candidates(q, 0, candidate_ids(sub.nodes - {0, 1}), table)
        assert ranked.candidates == [(2, 2.0)]
        with pytest.raises(RetrievalImpossible):
            rank_candidates(q, 0, candidate_ids(sub.nodes - {0, 1, 2}), table)

    def test_query_dimension_checked(self):
        g = graph_of(2, [(0, 0, 1)])
        sub = g.khop_subgraph([0], 1)
        q = np.array([1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            rank_candidates(q, 0, candidate_ids(sub.nodes - {0}), table_of([[1.0], [1.0]], [[1.0]]))

    def test_order_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(9)
        g = graph_of(6, [(0, 0, j) for j in range(1, 6)])
        sub = g.khop_subgraph([0], 1)
        ents = rng.normal(size=(6, 4))
        rels = rng.normal(size=(1, 4))
        q_vec = rng.normal(size=4)
        cands = candidate_ids(sub.nodes - {0})
        base = rank_candidates(
            q_vec, 0, cands,
            EmbeddingTable(entities=ents, relations=rels),
        )
        scaled = rank_candidates(
            q_vec * 2.0, 0, cands,
            EmbeddingTable(entities=ents * 2.0, relations=rels),
        )
        assert [e for e, _ in base.candidates] == [e for e, _ in scaled.candidates]


class TestRefineConfig:
    def test_defaults(self):
        cfg = RefineConfig()
        assert cfg.k == 2 and cfg.mode == "oracle" and cfg.chain

    def test_validation(self):
        with pytest.raises(ValueError):
            RefineConfig(k=-1)
        with pytest.raises(ValueError):
            RefineConfig(mode="psychic")
        with pytest.raises(ValueError):
            RefineConfig(anchor_source="moon")


class TestRefineResponse:
    def report_for(self, record, graph, aliases, source="kn"):
        return Critic(graph, aliases, anchor_source=source).critique(record)

    def test_table_scenario_both_spans_replaced(self, toy_graph, toy_aliases):
        rec = table_record()
        report = self.report_for(rec, toy_graph, toy_aliases)
        out = refine_response(
            rec, report, toy_graph, toy_table(), RefineConfig(), aliases=toy_aliases
        )
        assert out.response == TABLE_GOLD
        assert not out.failures
        assert [e.new_entity for e in out.edits] == [
            "the_bfg",
            "charlie_and_the_chocolate_factory",
        ]
        assert [e.old for e in out.edits] == ["The Time Machine", "The Invisible Man"]
        assert [e.rank1_score for e in out.edits] == [4.0, 3.0]

    def test_edit_offsets_in_refined_coordinates(self, toy_graph, toy_aliases):
        rec = table_record()
        report = self.report_for(rec, toy_graph, toy_aliases)
        out = refine_response(
            rec, report, toy_graph, toy_table(), RefineConfig(), aliases=toy_aliases
        )
        first, second = out.edits
        assert (first.begin, first.end) == (26, 33)
        assert (second.begin, second.end) == (38, 71)
        assert out.response[first.begin:first.end] == "The BFG"
        assert out.response[second.begin:second.end] == (
            "Charlie and the Chocolate Factory"
        )

    def test_chaining_grows_anchor_set(self, toy_graph, toy_aliases):
        rec = table_record()
        report = self.report_for(rec, toy_graph, toy_aliases)
        out = refine_response(
            rec, report, toy_graph, toy_table(), RefineConfig(), aliases=toy_aliases
        )
        # Without chaining both spans go to the_bfg (next test); with it the
        # first winner joins the anchors and drops out of the second ranking.
        assert [e.new_entity for e in out.edits] == [
            "the_bfg",
            "charlie_and_the_chocolate_factory",
        ]

    def test_chaining_off_repeats_top_candidate(self, toy_graph, toy_aliases):
        rec = table_record()
        report = self.report_for(rec, toy_graph, toy_aliases)
        out = refine_response(
            rec, report, toy_graph, toy_table(),
            RefineConfig(chain=False), aliases=toy_aliases,
        )
        assert [e.new_entity for e in out.edits] == ["the_bfg", "the_bfg"]
        assert out.response == "Yes he did. He also wrote The BFG and The BFG."

    def test_inferred_mode_reaches_same_result(self, toy_graph, toy_aliases):
        rec = table_record()
        report = self.report_for(rec, toy_graph, toy_aliases)
        out = refine_response(
            rec, report, toy_graph, toy_table(),
            RefineConfig(mode="inferred"), aliases=toy_aliases,
        )
        assert out.response == TABLE_GOLD

    def test_without_aliases_splices_canonical_names(self, toy_graph, toy_aliases):
        rec = table_record()
        report = self.report_for(rec, toy_graph, toy_aliases)
        out = refine_response(
            rec, report, toy_graph, toy_table(), RefineConfig(), AliasTable([])
        )
        assert "the_bfg" in out.response
        assert "charlie_and_the_chocolate_factory" in out.response

    def test_nothing_flagged_returns_input(self, toy_graph, toy_aliases):
        rec = DialogueRecord(
            history=["Tell me about Roald Dahl."],
            triples=[("roald_dahl", "wrote", "the_bfg")],
            response="Roald Dahl also wrote The BFG.",
        )
        report = self.report_for(rec, toy_graph, toy_aliases)
        assert not report.flagged
        out = refine_response(
            rec, report, toy_graph, toy_table(), RefineConfig(), aliases=toy_aliases
        )
        assert out.response == rec.response
        assert out.edits == [] and out.failures == []

    def test_no_grounding_relation_is_annotated(self, toy_graph, toy_aliases):
        rec = DialogueRecord(
            history=["I enjoy Roald Dahl."],
            triples=[],
            response="Try The Hobbit.",
        )
        report = self.report_for(rec, toy_graph, toy_aliases, source="history")
        assert [lab.label for lab in report.labels] == ["extrinsic"]
        out = refine_response(
            rec, report, toy_graph, toy_table(),
            RefineConfig(anchor_source="history"), aliases=toy_aliases,
        )
        assert out.response == rec.response
        assert out.edits == []
        assert len(out.failures) == 1
        assert (out.failures[0].begin, out.failures[0].end) == (4, 14)
        assert out.failures[0].reason == "no grounding triple touches the current anchor set"

    def test_empty_anchor_set_is_annotated(self, toy_graph, toy_aliases):
        rec = DialogueRecord(
            history=["Hello there."],
            triples=[],
            response="Try The Hobbit.",
        )
        report = self.report_for(rec, toy_graph, toy_aliases, source="history")
        out = refine_response(
            rec, report, toy_graph, toy_table(),
            RefineConfig(anchor_source="history"), aliases=toy_aliases,
        )
        assert out.response == rec.response
        assert len(out.failures) == 1
        assert out.failures[0].reason == "anchor set is empty"

    def test_anchorless_span_consumes_its_vector(self, toy_graph, toy_aliases):
        rec = DialogueRecord(
            history=["Hello there."],
            triples=[],
            response="Try The Hobbit.",
        )
        report = self.report_for(rec, toy_graph, toy_aliases, source="history")
        cfg = RefineConfig(mode="external", anchor_source="history")
        out = refine_response(
            rec, report, toy_graph, toy_table(), cfg,
            aliases=toy_aliases, queries=[np.array([1.0, 0.0])],
        )
        assert [f.reason for f in out.failures] == ["anchor set is empty"]
        with pytest.raises(LengthMismatch):
            refine_response(rec, report, toy_graph, toy_table(), cfg, aliases=toy_aliases, queries=[])

    def test_isolated_anchor_is_annotated(self):
        ents, rels = Vocabulary(), Vocabulary()
        for name in ("lonely", "e1", "e2"):
            ents.add(name)
        rels.add("r0")
        g = KnowledgeGraph([Triple(1, 0, 2)], ents, rels)
        aliases = AliasTable.from_names(["lonely", "e1", "e2"])
        rec = DialogueRecord(
            history=["lonely"], triples=[], response="e1 here"
        )
        report = Critic(g, aliases, anchor_source="history").critique(rec)
        assert report.flagged
        out = refine_response(
            rec, report, g, table_of([[1.0], [1.0], [1.0]], [[1.0]]),
            RefineConfig(mode="external", anchor_source="history"),
            aliases=aliases, queries=[np.array([1.0])],
        )
        assert out.response == "e1 here"
        assert len(out.failures) == 1
        assert out.failures[0].reason == "subgraph has no candidate entities besides the anchor"

    def test_failure_offsets_shift_after_earlier_edit(self):
        g = graph_of(2, [(0, 0, 1)])
        aliases = AliasTable.from_names(["e0", "e1"])
        rec = DialogueRecord(
            history=["e0"],
            triples=[],
            response="xAAAA then xBB",
            spans=[("ghost_a", 0, 5), ("ghost_b", 11, 14)],
        )
        report = Critic(g, aliases, anchor_source="history").critique(rec)
        assert len(report.flagged_spans) == 2
        out = refine_response(
            rec, report, g, table_of([[1.0], [2.0]], [[1.0]]),
            RefineConfig(mode="external", anchor_source="history"),
            aliases=aliases, queries=[np.array([3.0]), np.array([3.0])],
        )
        assert out.response == "e1 then xBB"
        assert len(out.edits) == 1 and len(out.failures) == 1
        assert (out.edits[0].begin, out.edits[0].end) == (0, 2)
        assert out.edits[0].rank1_score == 6.0
        assert (out.failures[0].begin, out.failures[0].end) == (8, 11)

    def test_external_source_exhaustion_propagates(self, toy_graph, toy_aliases):
        rec = table_record()
        report = self.report_for(rec, toy_graph, toy_aliases)
        with pytest.raises(LengthMismatch, match="1 query vector"):
            refine_response(
                rec, report, toy_graph, toy_table(), RefineConfig(mode="external"),
                aliases=toy_aliases, queries=[np.array([1.0, 1.0])],
            )

    def test_external_dimension_mismatch_propagates(self, toy_graph, toy_aliases):
        rec = table_record()
        report = self.report_for(rec, toy_graph, toy_aliases)
        with pytest.raises(DimensionMismatch, match="query vector 0"):
            refine_response(
                rec, report, toy_graph, toy_table(), RefineConfig(mode="external"),
                aliases=toy_aliases, queries=[np.array([1.0, 1.0, 1.0])] * 2,
            )

    def test_merged_json_shape(self, toy_graph, toy_aliases):
        rec = table_record()
        report = self.report_for(rec, toy_graph, toy_aliases)
        out = refine_response(
            rec, report, toy_graph, toy_table(), RefineConfig(), aliases=toy_aliases
        )
        blob = out.merged_json(rec)
        assert blob["response"] == TABLE_RESPONSE
        assert blob["refined_response"] == TABLE_GOLD
        assert blob["failures"] == []
        assert [sorted(e) for e in blob["edits"]] == [
            ["begin", "end", "new_entity", "old", "rank1_score"]
        ] * 2

    def test_edit_and_failure_json(self):
        out = RefinementOutcome(
            response="xy",
            edits=[Edit(begin=1, end=3, old="ab", new_entity="e9", rank1_score=0.5)],
            failures=[Failure(begin=0, end=2, reason="no anchors")],
        )
        blob = out.merged_json(DialogueRecord(history=[], triples=[], response="ab"))
        assert blob["edits"] == [
            {"begin": 1, "end": 3, "old": "ab", "new_entity": "e9", "rank1_score": 0.5}
        ]
        assert blob["failures"] == [{"begin": 0, "end": 2, "reason": "no anchors"}]
