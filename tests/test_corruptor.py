"""Extrinsic and intrinsic response corruption."""

from __future__ import annotations

import re
from collections.abc import Sequence
from unittest.mock import patch

import numpy as np
import pytest
from synthetic import sparse_corpus

from kgfaith import KnowledgeGraph, Triple, Vocabulary, corruptor, load_triples
from kgfaith.corruptor import (
    Candidates,
    CorruptionConfig,
    build_synthetic_dataset,
    corrupt_extrinsic,
    corrupt_intrinsic,
    excluded_ids,
    replacement_pool,
    round_half_up,
    same_type_ids,
)
from kgfaith.critic import EXTRINSIC, Critic, derive_anchors, link_mentions, response_mentions
from kgfaith.dialogue import DialogueRecord
from kgfaith.errors import AllRecordsDropped, NoEligibleReplacement, NotApplicable
from kgfaith.kg import AliasTable, canonical


def record(history, triples, response) -> DialogueRecord:
    return DialogueRecord(history=history, triples=triples, response=response)


def small_graph(*lines: str) -> KnowledgeGraph:
    ents, rels = Vocabulary(), Vocabulary()
    triples = [
        Triple(ents.add(s), rels.add(p), ents.add(o))
        for s, p, o in (line.split() for line in lines)
    ]
    return KnowledgeGraph(triples, ents, rels)


@pytest.fixture(scope="module")
def toy_same_type(toy_graph, toy_types, toy_aliases):
    return same_type_ids(toy_types, toy_graph, toy_aliases)


class TestReplacementPool:
    def test_only_out_of_neighborhood_same_type_entities(
        self, toy_graph, toy_same_type, toy_aliases
    ):
        sub = toy_graph.khop_subgraph(["roald_dahl"], 1)
        pool = replacement_pool("the_bfg", toy_graph, sub.nodes, toy_same_type, toy_aliases)
        assert list(pool) == ["the_hobbit"]

    def test_history_surface_excluded(self, toy_graph, toy_same_type, toy_aliases):
        sub = toy_graph.khop_subgraph(["roald_dahl"], 1)
        excluded = excluded_ids(["Have you read The Hobbit?"], sub.nodes, toy_graph, toy_aliases)
        pool = replacement_pool("the_bfg", toy_graph, excluded, toy_same_type, toy_aliases)
        assert list(pool) == []

    def test_positional_fallback_when_type_missing(self, toy_graph, toy_aliases):
        # With no type entry, peers are entities used with the same
        # predicate in the same slot: books that are written, here.
        sub = toy_graph.khop_subgraph(["roald_dahl"], 1)
        pool = replacement_pool("the_bfg", toy_graph, sub.nodes, {}, toy_aliases)
        assert list(pool) == ["the_hobbit"]

    def test_unknown_untyped_entity_has_empty_pool(self, toy_graph, toy_aliases):
        sub = toy_graph.khop_subgraph(["roald_dahl"], 1)
        assert list(replacement_pool("narnia", toy_graph, sub.nodes, {}, toy_aliases)) == []


class TestReplacementsLinkBack:
    """A replacement is spliced in as its preferred surface, so it must link back.

    book_c has no alias: spliced in as its raw name "book_c", no mention
    links to it, and critique would not flag the span corrupt labelled.
    """

    @pytest.fixture()
    def books(self):
        graph = small_graph("alice wrote book_a", "bob wrote book_b", "carol wrote book_c")
        aliases = AliasTable(
            [(entity, entity.capitalize()) for entity in ("alice", "bob", "carol")]
            + [("book_a", "Book A"), ("book_b", "Book B")]
        )
        types = {"alice": "person", "bob": "person", "carol": "person",
                 "book_a": "book", "book_b": "book", "book_c": "book"}
        return graph, aliases, types

    @pytest.mark.parametrize("typed", [True, False], ids=["typed", "positional"])
    def test_unlinkable_entity_is_no_candidate(self, books, typed):
        graph, aliases, types = books
        sub = graph.khop_subgraph(["alice"], 1)
        same_type = same_type_ids(types, graph, aliases) if typed else {}
        pool = replacement_pool("book_a", graph, sub.nodes, same_type, aliases)
        assert list(pool) == ["book_b"]

    def test_critique_flags_every_labelled_span(self, books):
        graph, aliases, types = books
        rec = record(["Tell me about Alice."], [("alice", "wrote", "book_a")],
                     "Alice wrote Book A.")
        critic = Critic(graph, aliases, k=1)
        for seed in range(10):
            cfg = CorruptionConfig(fraction=1.0, seed=seed, k=1)
            (out,), _ = build_synthetic_dataset([rec], graph, types, cfg, aliases)
            assert out.kind == "extrinsic" and len(out.labels) == 2
            report = critic.critique(out.as_record())
            assert [(lab.begin, lab.end) for lab in report.flagged_spans] == out.labels


def scan_pool(mention, graph, ball, types, history, aliases):
    """replacement_pool by full scans: the vocabulary for a type, every triple for peers."""
    kind = types.get(mention)
    eid = graph.entities.get(mention)
    if kind is not None:
        candidates = [i for i, name in enumerate(graph.entities) if types.get(name) == kind]
    elif eid is None:
        return []
    else:
        subj_rels = {t.p for t in graph.triples if t.s == eid}
        obj_rels = {t.p for t in graph.triples if t.o == eid}
        peers = {t.s for t in graph.triples if t.p in subj_rels}
        peers |= {t.o for t in graph.triples if t.p in obj_rels}
        candidates = sorted(peers - {eid})
    turns = [canonical(t) for t in history]
    forms_of: dict[str, list[str]] = {}
    for e, s in aliases.items():
        forms_of.setdefault(e, []).append(s)
    pool = []
    for i in candidates:
        name = graph.entities.name_of(i)
        if i == eid or i in ball or name == mention:
            continue
        if [m.entity for m in link_mentions(aliases.preferred(name), aliases, graph)] != [name]:
            continue  # critique could not link the spliced-in surface back
        if any(canonical(f) in turn for f in forms_of.get(name, ()) for turn in turns):
            continue
        pool.append(name)
    return pool


class TestReplacementPoolOnSparseCorpus:
    """The indexed pools equal full scans on a 600-entity graph.

    Histories read "let us discuss e12 .", so the substring rule also
    excludes e1: that is part of what is pinned.
    """

    @pytest.fixture(scope="class")
    def corpus(self):
        return sparse_corpus()

    def cases(self, corpus):
        graph, _, aliases, records = corpus
        for rec in records[:40]:
            sub = graph.khop_subgraph(derive_anchors(rec, graph, aliases, "kn"), 2)
            for s, _, o in rec.triples:
                for mention in (s, o):
                    yield mention, sub, rec.history

    def test_positional_fallback_with_empty_type_map(self, corpus):
        graph, _, aliases, _ = corpus
        sizes = []
        for mention, sub, history in self.cases(corpus):
            excluded = excluded_ids(history, sub.nodes, graph, aliases)
            pool = replacement_pool(mention, graph, excluded, {}, aliases)
            assert list(pool) == scan_pool(mention, graph, sub.nodes, {}, history, aliases)
            sizes.append(len(pool))
        assert min(sizes) > 0

    def test_typed_pool(self, corpus):
        graph, types, aliases, _ = corpus
        same_type = same_type_ids(types, graph, aliases)
        for mention, sub, history in self.cases(corpus):
            excluded = excluded_ids(history, sub.nodes, graph, aliases)
            pool = replacement_pool(mention, graph, excluded, same_type, aliases)
            assert list(pool) == scan_pool(mention, graph, sub.nodes, types, history, aliases)


class CountingIds(Sequence):
    """A candidate id list, or a graph's triples or edge tuple, that counts the items read from it.

    Iteration goes through __getitem__, so every item iterated over counts too.
    """

    def __init__(self, ids: list[int], reads: list[int]) -> None:
        self.ids, self.reads = ids, reads

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i):
        self.reads[0] += 1
        return self.ids[i]


class TestCostFollowsTheRecord:
    """Pools and linking do work set by the record, not by the vocabulary.

    Counts, not timings, so the check holds on any host. A pool that
    scans its candidates reads ten times as many ids, and names ten times
    as many entities, at 6,000 entities as at 600. Each excluded id is
    looked up in the candidates' kept position map, and a history naming
    e123 holds more entity names than one naming e12, so the bound is 2x.
    """

    @staticmethod
    def pool_costs(n: int, typed: bool = True) -> tuple[float, float]:
        """Mean Vocabulary.name_of calls and candidate ids read per pool plus one draw.

        The candidate lists are built before counting, as one corpus build
        does once: same_type_ids's, or, with an empty type map, the
        positional lists replacement_pool keeps in the map, from a first
        pass over the same pools.
        """
        graph, types, aliases, records = sparse_corpus(n, n_triples=3 * n // 2)
        cases = [
            (mention, graph.khop_subgraph(derive_anchors(rec, graph, aliases, "kn"), 2), rec)
            for rec in records[:40]
            for mention in (rec.triples[0][0], rec.triples[0][2])
        ]
        lists = same_type_ids(types, graph, aliases) if typed else {}
        if not typed:
            for mention, sub, rec in cases:
                replacement_pool(mention, graph, sub.nodes, lists, aliases)
        reads, named = [0], [0]
        wrapped: dict[int, Candidates] = {}

        def counting(kept):
            if not isinstance(kept, Candidates):
                return kept
            return wrapped.setdefault(id(kept), kept._replace(ids=CountingIds(kept.ids, reads)))

        same_type = {key: counting(kept) for key, kept in lists.items()}
        name_of = Vocabulary.name_of

        def counted_name_of(self, idx):
            named[0] += 1
            return name_of(self, idx)

        rng = np.random.default_rng(0)
        with patch.object(Vocabulary, "name_of", counted_name_of):
            for mention, sub, rec in cases:
                excluded = excluded_ids(rec.history, sub.nodes, graph, aliases)
                pool = replacement_pool(mention, graph, excluded, same_type, aliases)
                pool[int(rng.integers(len(pool)))]
        return named[0] / len(cases), reads[0] / len(cases)

    def test_pool_and_draw(self):
        small, big = self.pool_costs(600), self.pool_costs(6000)
        assert big[0] <= 2 * small[0]
        assert big[1] <= 2 * small[1]

    def test_positional_pool_and_draw(self):
        """With an empty type map every mention takes the positional list,
        checked against the alias table once per relation-slot set."""
        small, big = self.pool_costs(600, typed=False), self.pool_costs(6000, typed=False)
        assert big[0] <= 2 * small[0]
        assert big[1] <= 2 * small[1]

    @pytest.mark.parametrize("n", [600, 6000])
    def test_positional_checks_follow_the_triples(self, n):
        """Filling an empty type map checks an entity against the alias
        table once per (relation, slot) pair it fills: at most twice per
        triple, however many slot sets the pools need. Checking each new
        set's peers would check every peer again for each set it is in."""
        graph, _, aliases, records = sparse_corpus(n, n_triples=3 * n // 2)
        links_back = aliases.links_back
        checks = [0]

        class CountingSet(frozenset):
            def __contains__(self, name):
                checks[0] += 1
                return frozenset.__contains__(self, name)

        same_type: dict = {}
        with patch.object(aliases, "links_back", CountingSet(links_back)):
            for rec in records[:100]:
                for mention in (rec.triples[0][0], rec.triples[0][2]):
                    excluded = excluded_ids(rec.history, frozenset(), graph, aliases)
                    replacement_pool(mention, graph, excluded, same_type, aliases)
        signatures = sum(isinstance(key, frozenset) for key in same_type)
        assert signatures > 8  # several slot sets share each of the 4 x 2 pairs
        assert 0 < checks[0] <= 2 * len(graph.triples)

    def test_linking_compiles_no_pattern(self):
        graph, _, _, records = sparse_corpus(600)
        aliases = AliasTable.from_names(graph.entities.names)

        def refuse(*args, **kwargs):
            raise AssertionError("linking compiled a regular expression")

        # Patched only around the calls: pytest's own reporting uses re
        # between the test body and fixture teardown.
        with patch.object(re, "compile", refuse), patch.object(re, "_compile", refuse):
            linked = [
                [m.entity for m in link_mentions(rec.response, aliases, graph)]
                for rec in records[:20]
            ]
        for rec, entities in zip(records[:20], linked):
            (s, _, o), = rec.triples
            assert entities == [o, s]


class TestCorruptExtrinsic:
    def test_forced_unique_replacement(self, toy_graph, toy_same_type, toy_aliases):
        rec = record([], [("roald_dahl", "wrote", "the_bfg")], "I love The BFG")
        sub = toy_graph.khop_subgraph(["roald_dahl"], 1)
        rng = np.random.default_rng(0)
        out = corrupt_extrinsic(rec, toy_graph, sub.nodes, toy_same_type, rng, toy_aliases)
        assert out.response == "I love The Hobbit"
        assert out.kind == "extrinsic"
        assert out.labels == [(7, 17)]
        assert out.replacements == [("the_bfg", "the_hobbit")]

    def test_labels_cover_exactly_the_replacements(
        self, toy_graph, toy_same_type, toy_aliases
    ):
        rec = record([], [("roald_dahl", "wrote", "the_bfg")],
                     "Roald Dahl wrote The BFG.")
        sub = toy_graph.khop_subgraph(["roald_dahl", "the_bfg"], 2)
        rng = np.random.default_rng(1)
        out = corrupt_extrinsic(rec, toy_graph, sub.nodes, toy_same_type, rng, toy_aliases)
        for (b, e), (_, new) in zip(out.labels, out.replacements):
            assert out.response[b:e] == toy_aliases.preferred(new)

    def test_soundness_over_seeds(self, toy_graph, toy_same_type, toy_aliases):
        # Replacement never lands in the subgraph or the history.
        rec = record(
            ["I enjoy Roald Dahl books."],
            [("roald_dahl", "wrote", "the_witches")],
            "Roald Dahl wrote The Witches.",
        )
        sub = toy_graph.khop_subgraph(["roald_dahl", "the_witches"], 2)
        history_folded = [canonical(t) for t in rec.history]
        for seed in range(30):
            out = corrupt_extrinsic(
                rec, toy_graph, sub.nodes, toy_same_type, np.random.default_rng(seed), toy_aliases
            )
            for _, new in out.replacements:
                nid = toy_graph.entities.get(new)
                assert nid not in sub.nodes
                for surf in [s for e, s in toy_aliases.items() if e == new] or [new]:
                    assert all(canonical(surf) not in t for t in history_folded)

    def test_type_preserved(self, toy_graph, toy_types, toy_same_type, toy_aliases):
        rec = record([], [("roald_dahl", "wrote", "the_bfg")],
                     "Roald Dahl wrote The BFG.")
        sub = toy_graph.khop_subgraph(["roald_dahl"], 2)
        out = corrupt_extrinsic(
            rec, toy_graph, sub.nodes, toy_same_type, np.random.default_rng(7), toy_aliases
        )
        for old, new in out.replacements:
            assert toy_types[old] == toy_types[new]

    def test_no_mentions_rejected(self, toy_graph, toy_same_type, toy_aliases):
        rec = record([], [("roald_dahl", "wrote", "the_bfg")], "nothing here")
        sub = toy_graph.khop_subgraph(["roald_dahl"], 1)
        with pytest.raises(NoEligibleReplacement):
            corrupt_extrinsic(
                rec, toy_graph, sub.nodes, toy_same_type, np.random.default_rng(0), toy_aliases
            )

    def test_all_pools_empty_rejected(self, toy_graph, toy_same_type, toy_aliases):
        # Radius 3 around both anchor sides swallows the_hobbit, the only
        # candidate book, so the mention cannot be replaced.
        rec = record([], [("roald_dahl", "wrote", "the_bfg")], "I love The BFG")
        sub = toy_graph.khop_subgraph(["roald_dahl"], 3)
        with pytest.raises(NoEligibleReplacement):
            corrupt_extrinsic(
                rec, toy_graph, sub.nodes, toy_same_type, np.random.default_rng(0), toy_aliases
            )

    def test_critic_flags_every_corruption(self, toy_graph, toy_same_type, toy_aliases):
        rec = record(
            ["Tell me about Roald Dahl."],
            [("roald_dahl", "wrote", "the_bfg")],
            "Roald Dahl wrote The BFG.",
        )
        sub = toy_graph.khop_subgraph(["roald_dahl", "the_bfg"], 2)
        critic = Critic(toy_graph, toy_aliases, k=2)
        for seed in range(20):
            out = corrupt_extrinsic(
                rec, toy_graph, sub.nodes, toy_same_type, np.random.default_rng(seed), toy_aliases
            )
            report = critic.critique(out.as_record())
            flagged = {(lab.begin, lab.end) for lab in report.labels
                       if lab.label == EXTRINSIC}
            assert set(map(tuple, out.labels)) <= flagged

    def test_history_scanned_once_per_record(self, toy_graph, toy_same_type, toy_aliases):
        """Both mentions draw from one set of excluded ids: the history turn
        is searched for surfaces once, not once per mention."""
        rec = record(
            ["Tell me about Roald Dahl."],
            [("roald_dahl", "wrote", "the_bfg")],
            "Roald Dahl wrote The BFG.",
        )
        ball = toy_graph.ball(["roald_dahl", "the_bfg"], 1)
        real = AliasTable.entities_in
        calls = []

        def counted(self, folded):
            calls.append(folded)
            return real(self, folded)

        with patch.object(AliasTable, "entities_in", counted):
            out = corrupt_extrinsic(
                rec, toy_graph, ball, toy_same_type, np.random.default_rng(0), toy_aliases
            )
        assert len(response_mentions(rec, toy_aliases, toy_graph)) == 2
        assert out.replacements
        assert calls == ["tell me about roald dahl."]

    def test_a_mention_stays_a_candidate_for_the_others(self):
        """The mentions share the record's excluded ids, and each pool leaves
        out only its own mention besides them: two out-of-ball books, each
        the other's only candidate, swap."""
        graph = small_graph("alice wrote book_a", "bob wrote book_b", "carol wrote book_c")
        aliases = AliasTable.from_names(graph.entities.names)
        same_type = same_type_ids({f"book_{x}": "book" for x in "abc"}, graph, aliases)
        rec = record([], [("alice", "wrote", "book_a")], "book_b and book_c")
        out = corrupt_extrinsic(
            rec, graph, graph.ball(["alice"], 1), same_type, np.random.default_rng(0), aliases
        )
        assert out.replacements == [("book_b", "book_c"), ("book_c", "book_b")]


class TestCorruptIntrinsic:
    def test_swap(self, toy_graph, toy_aliases):
        rec = record(
            [],
            [("quentin_blake", "illustrated", "the_bfg")],
            "Quentin Blake illustrated The BFG.",
        )
        out = corrupt_intrinsic(rec, toy_graph, toy_aliases)
        assert out.response == "The BFG illustrated Quentin Blake."
        assert out.kind == "intrinsic"
        assert [out.response[b:e] for b, e in out.labels] == ["The BFG", "Quentin Blake"]
        assert out.replacements == [
            ("quentin_blake", "the_bfg"),
            ("the_bfg", "quentin_blake"),
        ]

    def test_involution(self, toy_graph, toy_aliases):
        cases = [
            record([], [("quentin_blake", "illustrated", "the_bfg")],
                   "Quentin Blake illustrated The BFG."),
            record([], [("roald_dahl", "wrote", "the_witches")],
                   "The Witches was written by Roald Dahl, yes."),
            record([], [("roald_dahl", "wrote", "the_witches"),
                        ("quentin_blake", "illustrated", "the_bfg")],
                   "Roald Dahl wrote The Witches; Quentin Blake illustrated The BFG."),
        ]
        for rec in cases:
            once = corrupt_intrinsic(rec, toy_graph, toy_aliases)
            assert once.response != rec.response
            twice = corrupt_intrinsic(once.as_record(), toy_graph, toy_aliases)
            assert twice.response == rec.response

    def test_token_multiset_preserved(self, toy_graph, toy_aliases):
        rec = record([], [("roald_dahl", "wrote", "the_witches")],
                     "Roald Dahl wrote The Witches")
        out = corrupt_intrinsic(rec, toy_graph, toy_aliases)
        assert out.response == "The Witches wrote Roald Dahl"
        assert sorted(out.response.split()) == sorted(rec.response.split())

    def test_no_pair_rejected(self, toy_graph, toy_aliases):
        rec = record([], [("roald_dahl", "wrote", "the_bfg")], "I love The BFG")
        with pytest.raises(NotApplicable):
            corrupt_intrinsic(rec, toy_graph, toy_aliases)

    def test_bidirectional_pair_skipped(self):
        g = small_graph("alice married bob", "bob married alice")
        rec = record([], [("alice", "married", "bob")], "alice wed bob")
        with pytest.raises(NotApplicable):
            corrupt_intrinsic(rec, g, AliasTable.from_names(g.entities.names))

    def test_repeated_mention_is_ambiguous(self, toy_graph, toy_aliases):
        rec = record(
            [],
            [("roald_dahl", "wrote", "the_bfg")],
            "Roald Dahl wrote The BFG, yes, The BFG.",
        )
        with pytest.raises(NotApplicable):
            corrupt_intrinsic(rec, toy_graph, toy_aliases)

    def test_shared_entity_swapped_once(self, toy_graph, toy_aliases):
        # Two grounding triples share roald_dahl; only the first pair
        # swaps, and doing it twice still restores the original.
        rec = record(
            [],
            [("roald_dahl", "wrote", "the_witches"),
             ("roald_dahl", "wrote", "the_bfg")],
            "Roald Dahl wrote The Witches and The BFG.",
        )
        once = corrupt_intrinsic(rec, toy_graph, toy_aliases)
        assert once.response == "The Witches wrote Roald Dahl and The BFG."
        twice = corrupt_intrinsic(once.as_record(), toy_graph, toy_aliases)
        assert twice.response == rec.response


def corpus(n: int) -> list[DialogueRecord]:
    """Records corruptible both ways over the toy graph."""
    books = ["the_witches", "the_bfg", "charlie_and_the_chocolate_factory"]
    surfaces = {
        "the_witches": "The Witches",
        "the_bfg": "The BFG",
        "charlie_and_the_chocolate_factory": "Charlie and the Chocolate Factory",
    }
    out = []
    for i in range(n):
        book = books[i % 3]
        out.append(
            record(
                [],
                [("roald_dahl", "wrote", book)],
                f"Roald Dahl wrote {surfaces[book]}.",
            )
        )
    return out


class TestBuildSyntheticDataset:
    def test_quota_is_exact(self, toy_graph, toy_types, toy_aliases):
        recs = corpus(10)
        cfg = CorruptionConfig(fraction=0.6, seed=11)
        out, summary = build_synthetic_dataset(recs, toy_graph, toy_types, cfg, toy_aliases)
        assert summary.assigned_extrinsic == 6
        assert summary.assigned_intrinsic == 4
        assert summary.realized_extrinsic == 6
        assert summary.realized_intrinsic == 4
        assert summary.dropped == 0
        assert len(out) == 10

    def test_rounding_half_up(self):
        assert round_half_up(2.5) == 3
        assert round_half_up(2.4) == 2
        assert round_half_up(0.5) == 1

    def test_deterministic_under_seed(self, toy_graph, toy_types, toy_aliases):
        recs = corpus(12)
        cfg = CorruptionConfig(fraction=0.6, seed=5)
        out1, s1 = build_synthetic_dataset(recs, toy_graph, toy_types, cfg, toy_aliases)
        out2, s2 = build_synthetic_dataset(recs, toy_graph, toy_types, cfg, toy_aliases)
        assert [r.to_json() for r in out1] == [r.to_json() for r in out2]
        assert s1 == s2

    def test_fallback_policy_reroutes(self, toy_graph, toy_types, toy_aliases):
        # Single-mention responses can never swap, so every record that
        # drew the intrinsic strategy falls back to extrinsic.
        recs = [
            record([], [("roald_dahl", "wrote", "the_bfg")], "I love The BFG")
            for _ in range(10)
        ]
        cfg = CorruptionConfig(fraction=0.6, seed=3, policy="fallback", k=1)
        out, summary = build_synthetic_dataset(recs, toy_graph, toy_types, cfg, toy_aliases)
        assert summary.realized_extrinsic == 10
        assert summary.realized_intrinsic == 0
        assert summary.fallback_to_extrinsic == 4
        assert len(out) == 10

    def test_drop_policy_drops(self, toy_graph, toy_types, toy_aliases):
        recs = [
            record([], [("roald_dahl", "wrote", "the_bfg")], "I love The BFG")
            for _ in range(10)
        ]
        cfg = CorruptionConfig(fraction=0.6, seed=3, policy="drop", k=1)
        out, summary = build_synthetic_dataset(recs, toy_graph, toy_types, cfg, toy_aliases)
        assert summary.dropped == 4
        assert summary.realized_extrinsic == 6
        assert len(out) == 6

    # Grounded on the_time_machine, which the graph lacks: the extrinsic
    # strategy cannot build its exclusion subgraph, but the two mentions
    # can still swap.
    UNKNOWN_GROUNDING = [("roald_dahl", "wrote", "the_time_machine")]

    def test_unknown_grounding_entity_falls_back(self, toy_graph, toy_types, toy_aliases):
        recs = corpus(1) + [
            record([], self.UNKNOWN_GROUNDING, "Roald Dahl wrote The Time Machine.")
        ]
        cfg = CorruptionConfig(fraction=1.0, seed=3, policy="fallback")
        out, summary = build_synthetic_dataset(recs, toy_graph, toy_types, cfg, toy_aliases)
        assert summary.fallback_to_intrinsic == 1
        assert summary.realized_extrinsic == 1 and summary.dropped == 0
        assert out[1].kind == "intrinsic"
        assert out[1].response == "The Time Machine wrote Roald Dahl."

    def test_unknown_grounding_entity_dropped(self, toy_graph, toy_types, toy_aliases):
        recs = corpus(1) + [
            record([], self.UNKNOWN_GROUNDING, "Roald Dahl wrote The Time Machine.")
        ]
        cfg = CorruptionConfig(fraction=1.0, seed=3, policy="drop")
        out, summary = build_synthetic_dataset(recs, toy_graph, toy_types, cfg, toy_aliases)
        assert summary.dropped == 1
        assert summary.drop_reasons == ["record 1: no strategy applicable"]
        assert [c.original for c in out] == recs[:1]

    def test_summary_arithmetic_consistent(self, toy_graph, toy_types, toy_aliases):
        recs = corpus(9) + [
            record([], [("roald_dahl", "wrote", "the_bfg")], "I love The BFG")
            for _ in range(4)
        ]
        cfg = CorruptionConfig(fraction=0.6, seed=2)
        _, s = build_synthetic_dataset(recs, toy_graph, toy_types, cfg, toy_aliases)
        assert s.realized_extrinsic + s.realized_intrinsic + s.dropped == s.records
        assert s.assigned_extrinsic + s.assigned_intrinsic == s.records

    def test_all_dropped_raises(self, toy_graph, toy_types, toy_aliases):
        recs = [record([], [], "no mentions at all") for _ in range(3)]
        cfg = CorruptionConfig(seed=1, policy="drop")
        with pytest.raises(AllRecordsDropped):
            build_synthetic_dataset(recs, toy_graph, toy_types, cfg, toy_aliases)

    def test_empty_input_rejected(self, toy_graph, toy_types, toy_aliases):
        with pytest.raises(AllRecordsDropped):
            build_synthetic_dataset([], toy_graph, toy_types, CorruptionConfig(), toy_aliases)

    def test_type_pools_built_once(self, data_dir, toy_types, toy_aliases):
        """Two calls on unchanged tables join the type map to the graph once.

        A graph of its own: the session's toy graph may already hold the pools."""
        graph = load_triples(data_dir / "toy_kg.tsv")
        real = corruptor.same_type_ids
        calls = []

        def spy(*args):
            calls.append(args)
            return real(*args)

        cfg = CorruptionConfig(fraction=0.6, seed=5)
        with patch.object(corruptor, "same_type_ids", spy):
            out1, s1 = build_synthetic_dataset(corpus(12), graph, toy_types, cfg, toy_aliases)
            out2, s2 = build_synthetic_dataset(corpus(12), graph, toy_types, cfg, toy_aliases)
        assert len(calls) == 1
        assert [r.to_json() for r in out1] == [r.to_json() for r in out2]
        assert s1 == s2

    def test_loaded_type_map_is_its_own_key(self, data_dir, toy_types, toy_aliases):
        """load_entity_types's map is read-only, so the memo keeps that map as
        its key, not a copy, and a later call matches it by identity."""
        graph = load_triples(data_dir / "toy_kg.tsv")
        with pytest.raises(TypeError):
            toy_types["the_bfg"] = "person"  # type: ignore[index]
        cfg = CorruptionConfig(fraction=0.6, seed=5)
        build_synthetic_dataset(corpus(3), graph, toy_types, cfg, toy_aliases)
        assert graph._memo["same_type_ids"][0][1] is toy_types

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            CorruptionConfig(fraction=1.5)
        with pytest.raises(ValueError):
            CorruptionConfig(policy="retry")
