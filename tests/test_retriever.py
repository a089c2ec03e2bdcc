"""Query vectors, subgraph candidate ranking, and span refinement."""

from __future__ import annotations

import numpy as np
import pytest

from kgfaith import KnowledgeGraph, Subgraph, Triple, Vocabulary
from kgfaith.critic import Critic
from kgfaith.dialogue import DialogueRecord
from kgfaith.embeddings import EmbeddingTable, distmult_score
from kgfaith.errors import (
    DimensionMismatch,
    EmptySubgraph,
    MalformedLine,
    NoGroundingRelation,
    SourceExhausted,
    UnknownAnchor,
)
from kgfaith.kg import AliasTable
from kgfaith.retriever import (
    Edit,
    ExternalQueries,
    Failure,
    RefineConfig,
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
    def test_take_in_order(self):
        src = ExternalQueries([np.array([1.0, 2.0]), np.array([3.0, 4.0])])
        assert np.array_equal(src.take(2), [1.0, 2.0])
        assert np.array_equal(src.take(2), [3.0, 4.0])

    def test_remaining_counts_down(self):
        src = ExternalQueries([np.zeros(3), np.zeros(3)])
        assert len(src) == 2 and src.remaining == 2
        src.take(3)
        assert src.remaining == 1

    def test_exhausted(self):
        src = ExternalQueries([np.zeros(2)])
        src.take(2)
        with pytest.raises(SourceExhausted):
            src.take(2)

    def test_dimension_mismatch(self):
        src = ExternalQueries([np.zeros(3)])
        with pytest.raises(DimensionMismatch):
            src.take(2)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text("# two 2-d vectors\n1.0 2.0\n\n-0.5 0.25\n")
        src = load_query_vectors(path)
        assert len(src) == 2
        assert np.array_equal(src.take(2), [1.0, 2.0])
        assert np.array_equal(src.take(2), [-0.5, 0.25])

    @pytest.mark.parametrize("bad", ["0.5 half", "0.5 nan", "inf 0.5"])
    def test_bad_value_reports_line(self, tmp_path, bad):
        path = tmp_path / "queries.txt"
        path.write_text(f"# header\n1.0 2.0\n{bad}\n")
        with pytest.raises(MalformedLine) as exc:
            load_query_vectors(path)
        assert exc.value.line_number == 3


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
        with pytest.raises(NoGroundingRelation):
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
        with pytest.raises(NoGroundingRelation):
            oracle_grounding_triple(only_bad, toy_graph, (0,))


class TestInferRelation:
    def test_matches_brute_force(self, toy_graph):
        sub = toy_graph.khop_subgraph([0, 1], 2)
        table = EmbeddingTable(
            entities=np.random.default_rng(3).normal(size=(8, 4)),
            relations=np.random.default_rng(4).normal(size=(3, 4)),
        )
        got = infer_relation(sub, table, anchor=0, exclude=frozenset({0, 1}))
        cands = sorted(sub.nodes - {0, 1})
        best = max(
            sorted({t.p for t in sub.triples}),
            key=lambda r: (
                max(
                    distmult_score(table.entities[0], table.relations[r], table.entities[c])
                    for c in cands
                ),
                -r,
            ),
        )
        assert got == best

    def test_tie_takes_lowest_relation(self):
        g = graph_of(3, [(0, 0, 1), (0, 1, 2)])
        sub = g.khop_subgraph([0], 1)
        table = table_of([[1.0], [1.0], [1.0]], [[2.0], [2.0]])
        assert infer_relation(sub, table, anchor=0) == 0

    def test_no_edges_raises(self):
        sub = Subgraph(nodes=frozenset({0}), triples=(), centers=(0,), radius=1)
        table = table_of([[1.0]], [[1.0]])
        with pytest.raises(EmptySubgraph):
            infer_relation(sub, table, anchor=0)


class TestScoringAnchor:
    def test_oracle_prefers_subject_side(self, toy_graph):
        rec = table_record()
        sub = toy_graph.khop_subgraph([0, 1], 2)
        assert scoring_anchor("oracle", rec, toy_graph, (0, 1), sub) == 0

    def test_oracle_falls_back_to_object_side(self, toy_graph):
        rec = table_record()
        sub = toy_graph.khop_subgraph([1], 2)
        assert scoring_anchor("oracle", rec, toy_graph, (1,), sub) == 1

    def test_other_modes_take_lowest_anchor(self, toy_graph):
        rec = table_record()
        sub = toy_graph.khop_subgraph([5, 2], 1)
        assert scoring_anchor("external", rec, toy_graph, (5, 2), sub) == 2
        assert scoring_anchor("inferred", rec, toy_graph, (5, 2), sub) == 2

    def test_empty_anchor_set(self, toy_graph):
        from kgfaith.errors import RetrievalImpossible

        rec = table_record()
        sub = Subgraph.empty()
        with pytest.raises(RetrievalImpossible):
            scoring_anchor("oracle", rec, toy_graph, (), sub)


class TestBuildQuery:
    def test_oracle_returns_relation_row(self, toy_graph):
        rec = table_record()
        sub = toy_graph.khop_subgraph([0, 1], 2)
        table = toy_table()
        q = build_query("oracle", rec, sub, table, toy_graph, (0, 1))
        assert np.array_equal(q, table.relations[0])
        assert not np.shares_memory(q, table.relations)

    def test_inferred_provenance(self, toy_graph):
        rec = table_record()
        sub = toy_graph.khop_subgraph([0, 1], 2)
        table = toy_table()
        q = build_query(
            "inferred", rec, sub, table, toy_graph, (0, 1),
            exclude=frozenset({0, 1}),
        )
        assert np.array_equal(q, table.relations[0])

    def test_external_consumes_source(self, toy_graph):
        rec = table_record()
        sub = toy_graph.khop_subgraph([0, 1], 2)
        src = ExternalQueries([np.array([0.5, -0.5])])
        q = build_query(
            "external", rec, sub, toy_table(), toy_graph, (0, 1), external=src
        )
        assert np.array_equal(q, [0.5, -0.5])
        assert src.remaining == 0

    def test_external_without_source(self, toy_graph):
        rec = table_record()
        sub = toy_graph.khop_subgraph([0], 1)
        with pytest.raises(ValueError):
            build_query("external", rec, sub, toy_table(), toy_graph, (0,))

    def test_bad_mode(self, toy_graph):
        rec = table_record()
        sub = toy_graph.khop_subgraph([0], 1)
        with pytest.raises(ValueError):
            build_query("nearest", rec, sub, toy_table(), toy_graph, (0,))


class TestRankCandidates:
    def test_worked_example(self):
        g = graph_of(3, [(0, 0, 1), (0, 0, 2)])
        sub = g.khop_subgraph([0], 1)
        table = table_of([[1.0, 1.0], [2.0, 0.0], [1.0, 5.0]], [[1.0, 0.0]])
        q = np.array([1.0, 0.0])
        ranked = rank_candidates(q, anchor=0, sub=sub, table=table)
        assert ranked.candidates == [(1, 2.0), (2, 1.0)]
        assert ranked.top == (1, 2.0)
        assert ranked.anchor == 0

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
            ranked = rank_candidates(q, anchor=0, sub=sub, table=table)
            for ent, score in ranked.candidates:
                direct = distmult_score(
                    table.entities[0], q, table.entities[ent]
                )
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
            ranked = rank_candidates(q, anchor=0, sub=sub, table=table)
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
        ranked = rank_candidates(q, anchor=0, sub=sub, table=table)
        assert ranked.candidates == [(1, 2.0), (2, 2.0)]

    def test_unknown_anchor(self):
        g = graph_of(3, [(0, 0, 1)])
        sub = g.khop_subgraph([0], 1)
        q = np.array([1.0])
        with pytest.raises(UnknownAnchor):
            rank_candidates(q, anchor=2, sub=sub, table=table_of([[1.0]] * 3, [[1.0]]))

    def test_anchor_only_subgraph(self):
        sub = Subgraph(nodes=frozenset({0}), triples=(), centers=(0,), radius=2)
        q = np.array([1.0])
        with pytest.raises(EmptySubgraph):
            rank_candidates(q, anchor=0, sub=sub, table=table_of([[1.0]], [[1.0]]))

    def test_exclusion_removes_candidates(self):
        g = graph_of(3, [(0, 0, 1), (0, 0, 2)])
        sub = g.khop_subgraph([0], 1)
        table = table_of([[1.0], [5.0], [2.0]], [[1.0]])
        q = np.array([1.0])
        ranked = rank_candidates(q, anchor=0, sub=sub, table=table, exclude=frozenset({1}))
        assert ranked.candidates == [(2, 2.0)]
        with pytest.raises(EmptySubgraph):
            rank_candidates(q, anchor=0, sub=sub, table=table, exclude=frozenset({1, 2}))

    def test_query_dimension_checked(self):
        g = graph_of(2, [(0, 0, 1)])
        sub = g.khop_subgraph([0], 1)
        q = np.array([1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            rank_candidates(q, anchor=0, sub=sub, table=table_of([[1.0], [1.0]], [[1.0]]))

    def test_order_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(9)
        g = graph_of(6, [(0, 0, j) for j in range(1, 6)])
        sub = g.khop_subgraph([0], 1)
        ents = rng.normal(size=(6, 4))
        rels = rng.normal(size=(1, 4))
        q_vec = rng.normal(size=4)
        base = rank_candidates(
            q_vec, 0, sub,
            EmbeddingTable(entities=ents, relations=rels),
        )
        scaled = rank_candidates(
            q_vec * 2.0, 0, sub,
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
        assert out.anchor_trace == [(0, 1), (0, 1, 2), (0, 1, 2, 3)]
        for before, after in zip(out.anchor_trace, out.anchor_trace[1:]):
            assert after[: len(before)] == before

    def test_chaining_off_repeats_top_candidate(self, toy_graph, toy_aliases):
        rec = table_record()
        report = self.report_for(rec, toy_graph, toy_aliases)
        out = refine_response(
            rec, report, toy_graph, toy_table(),
            RefineConfig(chain=False), aliases=toy_aliases,
        )
        assert [e.new_entity for e in out.edits] == ["the_bfg", "the_bfg"]
        assert out.anchor_trace == [(0, 1), (0, 1), (0, 1)]
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
        out = refine_response(rec, report, toy_graph, toy_table(), RefineConfig())
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
        assert "grounding" in out.failures[0].reason

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
        assert "anchor" in out.failures[0].reason

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
        src = ExternalQueries([np.array([1.0])])
        out = refine_response(
            rec, report, g, table_of([[1.0], [1.0], [1.0]], [[1.0]]),
            RefineConfig(mode="external", anchor_source="history"),
            aliases=aliases, external=src,
        )
        assert out.response == "e1 here"
        assert len(out.failures) == 1
        assert "candidate" in out.failures[0].reason

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
        src = ExternalQueries([np.array([3.0]), np.array([3.0])])
        out = refine_response(
            rec, report, g, table_of([[1.0], [2.0]], [[1.0]]),
            RefineConfig(mode="external", anchor_source="history"),
            aliases=aliases, external=src,
        )
        assert out.response == "e1 then xBB"
        assert len(out.edits) == 1 and len(out.failures) == 1
        assert (out.edits[0].begin, out.edits[0].end) == (0, 2)
        assert out.edits[0].rank1_score == 6.0
        assert (out.failures[0].begin, out.failures[0].end) == (8, 11)
        assert src.remaining == 0

    def test_external_source_exhaustion_propagates(self, toy_graph, toy_aliases):
        rec = table_record()
        report = self.report_for(rec, toy_graph, toy_aliases)
        src = ExternalQueries([np.array([1.0, 1.0])])
        with pytest.raises(SourceExhausted):
            refine_response(
                rec, report, toy_graph, toy_table(),
                RefineConfig(mode="external"), aliases=toy_aliases, external=src,
            )

    def test_external_dimension_mismatch_propagates(self, toy_graph, toy_aliases):
        rec = table_record()
        report = self.report_for(rec, toy_graph, toy_aliases)
        src = ExternalQueries([np.array([1.0, 1.0, 1.0])])
        with pytest.raises(DimensionMismatch):
            refine_response(
                rec, report, toy_graph, toy_table(),
                RefineConfig(mode="external"), aliases=toy_aliases, external=src,
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
        edit = Edit(begin=1, end=3, old="ab", new_entity="e9", rank1_score=0.5)
        assert edit.to_json() == {
            "begin": 1, "end": 3, "old": "ab", "new_entity": "e9", "rank1_score": 0.5,
        }
        fail = Failure(begin=0, end=2, reason="no anchors")
        assert fail.to_json() == {"begin": 0, "end": 2, "reason": "no anchors"}
