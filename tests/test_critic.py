"""Mention linking and hallucination labelling."""

from __future__ import annotations

import pytest

from kgfaith.critic import (
    EXTRINSIC,
    FAITHFUL,
    INTRINSIC,
    Critic,
    critique_response,
    derive_anchors,
    link_mentions,
    load_relation_phrases,
)
from kgfaith.dialogue import DialogueRecord
from kgfaith.errors import UnknownEntity, UnlinkedResponse

TABLE_RESPONSE = "Yes he did. He also wrote The Time Machine and The Invisible Man."
TABLE_HISTORY = [
    "Do you know the book The Witches?",
    "The Witches is written by Roald Dahl. He also wrote The Champion of the World.",
]


def record(history, triples, response, **kw) -> DialogueRecord:
    return DialogueRecord(history=history, triples=triples, response=response, **kw)


class TestLinkMentions:
    def test_single_mention_offsets(self, toy_graph, toy_aliases):
        spans = link_mentions("I love The BFG", toy_aliases, toy_graph)
        assert len(spans) == 1
        m = spans[0]
        assert (m.begin, m.end) == (7, 14)
        assert m.surface == "The BFG"
        assert m.entity == "the_bfg"
        assert m.entity_id == 2

    def test_leftmost_longest_wins(self, toy_graph, toy_aliases):
        text = "Charlie and the Chocolate Factory is a classic"
        spans = link_mentions(text, toy_aliases, toy_graph)
        assert [m.surface for m in spans] == ["Charlie and the Chocolate Factory"]
        assert spans[0].entity == "charlie_and_the_chocolate_factory"

    def test_short_alias_still_links(self, toy_graph, toy_aliases):
        spans = link_mentions("Charlie is my favourite", toy_aliases, toy_graph)
        assert [m.entity for m in spans] == ["charlie_and_the_chocolate_factory"]
        assert (spans[0].begin, spans[0].end) == (0, 7)

    def test_case_insensitive(self, toy_graph, toy_aliases):
        spans = link_mentions("the bfg is great", toy_aliases, toy_graph)
        assert len(spans) == 1
        assert spans[0].surface == "the bfg"
        assert spans[0].entity == "the_bfg"

    def test_word_boundaries(self, toy_graph, toy_aliases):
        assert link_mentions("I love fantasyland", toy_aliases, toy_graph) == []
        assert link_mentions("many The BFGs around", toy_aliases, toy_graph) == []

    def test_empty_text(self, toy_graph, toy_aliases):
        assert link_mentions("", toy_aliases, toy_graph) == []

    def test_sorted_and_non_overlapping(self, toy_graph, toy_aliases):
        spans = link_mentions("The Witches and The BFG", toy_aliases, toy_graph)
        assert [m.surface for m in spans] == ["The Witches", "The BFG"]
        assert spans[0].end <= spans[1].begin

    def test_entity_outside_graph_has_no_id(self, toy_graph, toy_aliases):
        spans = link_mentions("The Time Machine", toy_aliases, toy_graph)
        assert spans[0].entity == "the_time_machine"
        assert spans[0].entity_id is None


class TestDeriveAnchors:
    def test_from_grounding_triples(self, toy_graph, toy_aliases):
        rec = record(TABLE_HISTORY, [("roald_dahl", "wrote", "the_witches")], "x")
        assert derive_anchors(rec, toy_graph, toy_aliases, "kn") == (0, 1)

    def test_deduplicates_preserving_order(self, toy_graph, toy_aliases):
        rec = record(
            [],
            [("roald_dahl", "wrote", "the_witches"), ("roald_dahl", "wrote", "the_bfg")],
            "x",
        )
        assert derive_anchors(rec, toy_graph, toy_aliases, "kn") == (0, 1, 2)

    def test_unknown_grounding_entity(self, toy_graph, toy_aliases):
        rec = record([], [("narnia", "wrote", "the_bfg")], "x")
        with pytest.raises(UnknownEntity):
            derive_anchors(rec, toy_graph, toy_aliases, "kn")

    def test_from_history_keeps_in_graph_mentions(self, toy_graph, toy_aliases):
        rec = record(TABLE_HISTORY, [], "x")
        # the_witches appears first, then roald_dahl; the champion book is
        # not a graph node so it contributes nothing.
        assert derive_anchors(rec, toy_graph, toy_aliases, "history") == (1, 0)

    def test_history_source_needs_aliases(self, toy_graph):
        rec = record(["hi"], [], "x")
        with pytest.raises(ValueError):
            derive_anchors(rec, toy_graph, None, "history")

    def test_bad_source_rejected(self, toy_graph, toy_aliases):
        with pytest.raises(ValueError):
            derive_anchors(record([], [], "x"), toy_graph, toy_aliases, "both")


class TestExtrinsicLabels:
    """The two out-of-graph book mentions must both come back extrinsic."""

    def test_out_of_graph_mentions_flagged(self, toy_graph, toy_aliases):
        rec = record(TABLE_HISTORY, [("roald_dahl", "wrote", "the_witches")], TABLE_RESPONSE)
        critic = Critic(toy_graph, toy_aliases, k=2)
        report = critic.critique(rec)
        assert [(lab.begin, lab.end, lab.label) for lab in report.labels] == [
            (26, 42, EXTRINSIC),
            (47, 64, EXTRINSIC),
        ]
        assert report.flagged

    def test_one_hop_subgraph_same_verdict(self, toy_graph, toy_aliases):
        rec = record(TABLE_HISTORY, [("roald_dahl", "wrote", "the_witches")], TABLE_RESPONSE)
        sub = toy_graph.khop_subgraph(["roald_dahl"], 1)
        report = critique_response(rec, sub, graph=toy_graph, aliases=toy_aliases)
        assert [lab.label for lab in report.labels] == [EXTRINSIC, EXTRINSIC]

    def test_history_surface_exempts(self, toy_graph, toy_aliases):
        rec = record(
            ["Have you read The BFG?"],
            [("jrr_tolkien", "wrote", "the_hobbit")],
            "The Hobbit is better than The BFG.",
        )
        report = Critic(toy_graph, toy_aliases, k=1).critique(rec)
        assert [lab.label for lab in report.labels] == [FAITHFUL, FAITHFUL]
        assert not report.flagged

    def test_history_exemption_is_case_insensitive(self, toy_graph, toy_aliases):
        rec = record(
            ["have you read the bfg?"],
            [("jrr_tolkien", "wrote", "the_hobbit")],
            "The Hobbit is better than The BFG.",
        )
        report = Critic(toy_graph, toy_aliases, k=1).critique(rec)
        assert not report.flagged

    def test_extrinsic_soundness(self, toy_graph, toy_aliases):
        # An extrinsic label is never attached to a subgraph node.
        rec = record(TABLE_HISTORY, [("roald_dahl", "wrote", "the_witches")], TABLE_RESPONSE)
        critic = Critic(toy_graph, toy_aliases, k=2)
        report = critic.critique(rec)
        for m, lab in zip(report.mentions, report.labels):
            if lab.label == EXTRINSIC:
                assert m.entity_id is None or not report.subgraph.has_node(m.entity_id)


class TestIntrinsicLabels:
    def test_unconnected_pair_flagged_symmetrically(self, toy_graph, toy_aliases):
        rec = record(
            [],
            [("roald_dahl", "wrote", "the_witches"), ("jrr_tolkien", "wrote", "the_hobbit")],
            "The Witches and The Hobbit are both fantasy.",
        )
        report = Critic(toy_graph, toy_aliases, k=1).critique(rec)
        by_surface = {m.surface: lab.label for m, lab in zip(report.mentions, report.labels)}
        assert by_surface["The Witches"] == INTRINSIC
        assert by_surface["The Hobbit"] == INTRINSIC
        assert by_surface["fantasy"] == FAITHFUL

    def test_connected_pair_faithful(self, toy_graph, toy_aliases):
        rec = record([], [("roald_dahl", "wrote", "the_bfg")], "Roald Dahl also wrote The BFG.")
        report = Critic(toy_graph, toy_aliases, k=1).critique(rec)
        assert all(lab.label == FAITHFUL for lab in report.labels)
        assert not report.flagged

    def test_same_entity_twice_not_paired(self, toy_graph, toy_aliases):
        rec = record(
            [],
            [("roald_dahl", "wrote", "the_bfg")],
            "The BFG, yes, The BFG.",
        )
        report = Critic(toy_graph, toy_aliases, k=1).critique(rec)
        assert all(lab.label == FAITHFUL for lab in report.labels)


class TestDirectedMode:
    """Reversed assertions are only caught when a lexicon names the relation."""

    @pytest.fixture()
    def phrases(self, data_dir):
        return load_relation_phrases(data_dir / "toy_relation_phrases.tsv")

    def test_reversed_orientation_flagged(self, toy_graph, toy_aliases, phrases):
        rec = record(
            ["Who illustrated The BFG?"],
            [("quentin_blake", "illustrated", "the_bfg")],
            "The BFG was illustrated by Quentin Blake.",
        )
        directed = Critic(
            toy_graph, toy_aliases, k=1, mode="directed", relation_phrases=phrases
        ).critique(rec)
        assert [lab.label for lab in directed.labels] == [INTRINSIC, INTRINSIC]

    def test_undirected_mode_accepts_reverse(self, toy_graph, toy_aliases):
        rec = record(
            ["Who illustrated The BFG?"],
            [("quentin_blake", "illustrated", "the_bfg")],
            "The BFG was illustrated by Quentin Blake.",
        )
        report = Critic(toy_graph, toy_aliases, k=1, mode="undirected").critique(rec)
        assert not report.flagged

    def test_correct_orientation_faithful(self, toy_graph, toy_aliases, phrases):
        rec = record(
            [],
            [("quentin_blake", "illustrated", "the_bfg")],
            "Quentin Blake illustrated The BFG.",
        )
        directed = Critic(
            toy_graph, toy_aliases, k=1, mode="directed", relation_phrases=phrases
        ).critique(rec)
        assert all(lab.label == FAITHFUL for lab in directed.labels)

    def test_no_phrase_between_falls_back_to_undirected(self, toy_graph, toy_aliases, phrases):
        rec = record(
            [],
            [("quentin_blake", "illustrated", "the_bfg")],
            "The BFG, by Quentin Blake.",
        )
        directed = Critic(
            toy_graph, toy_aliases, k=1, mode="directed", relation_phrases=phrases
        ).critique(rec)
        assert all(lab.label == FAITHFUL for lab in directed.labels)


class TestReportShape:
    def test_flag_iff_nonempty_flagged_set(self, toy_graph, toy_aliases):
        cases = [
            record(TABLE_HISTORY, [("roald_dahl", "wrote", "the_witches")], TABLE_RESPONSE),
            record([], [("roald_dahl", "wrote", "the_bfg")], "Roald Dahl also wrote The BFG."),
        ]
        critic = Critic(toy_graph, toy_aliases, k=2)
        for rec in cases:
            report = critic.critique(rec)
            assert report.flagged == bool(report.flagged_spans)

    def test_unlinked_response_raises(self, toy_graph, toy_aliases):
        rec = record([], [("roald_dahl", "wrote", "the_bfg")], "nothing to see here")
        with pytest.raises(UnlinkedResponse):
            Critic(toy_graph, toy_aliases).critique(rec)

    def test_no_grounding_and_no_mentions_is_fine(self, toy_graph, toy_aliases):
        rec = record([], [], "nothing to see here")
        report = Critic(toy_graph, toy_aliases).critique(rec)
        assert report.mentions == [] and not report.flagged

    def test_prelinked_spans_used_verbatim(self, toy_graph, toy_aliases):
        rec = record(
            [],
            [("roald_dahl", "wrote", "the_bfg")],
            "I love The BFG",
            spans=[("the_bfg", 7, 14)],
        )
        report = Critic(toy_graph, toy_aliases, k=1).critique(rec)
        assert len(report.mentions) == 1
        assert report.mentions[0].surface == "The BFG"
        assert report.labels[0].label == FAITHFUL

    def test_empty_prelinked_spans_do_not_raise(self, toy_graph, toy_aliases):
        rec = record([], [("roald_dahl", "wrote", "the_bfg")], "x", spans=[])
        report = Critic(toy_graph, toy_aliases).critique(rec)
        assert report.mentions == []

    def test_label_json_shape(self, toy_graph, toy_aliases):
        rec = record(TABLE_HISTORY, [("roald_dahl", "wrote", "the_witches")], TABLE_RESPONSE)
        report = Critic(toy_graph, toy_aliases, k=2).critique(rec)
        assert report.labels[0].to_json() == {"begin": 26, "end": 42, "label": "extrinsic"}


class TestCriticConfig:
    def test_negative_radius_rejected(self, toy_graph, toy_aliases):
        with pytest.raises(ValueError, match="k must be >= 0"):
            Critic(toy_graph, toy_aliases, k=-1)

    @pytest.mark.parametrize("phrases", [None, {}])
    def test_directed_mode_needs_phrases(self, toy_graph, toy_aliases, phrases):
        with pytest.raises(ValueError, match="directed mode needs relation phrases"):
            Critic(toy_graph, toy_aliases, mode="directed", relation_phrases=phrases)


class TestRelationPhrases:
    def test_load(self, data_dir):
        phrases = load_relation_phrases(data_dir / "toy_relation_phrases.tsv")
        assert phrases["wrote"] == ["wrote", "written by", "is the author of"]
        assert set(phrases) == {"wrote", "has_genre", "illustrated"}
