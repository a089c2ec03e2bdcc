"""Triple store: loading, vocabulary ids, k-hop subgraphs, kept balls, direct edges."""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from kgfaith import KnowledgeGraph, Subgraph, Triple, Vocabulary, load_triples
from kgfaith.corruptor import CorruptionConfig
from kgfaith.critic import Critic, load_relation_phrases
from kgfaith.errors import EmptyGraph, MalformedLine, UnknownEntity
from kgfaith.kg import AliasTable, check_radius, load_aliases, load_entity_types
from kgfaith.retriever import RefineConfig


class TestVocabulary:
    def test_first_seen_order(self):
        v = Vocabulary()
        assert v.add("alpha") == 0
        assert v.add("beta") == 1
        assert v.add("alpha") == 0
        assert len(v) == 2
        assert v.names == ["alpha", "beta"]

    def test_lookup_folds_case_and_whitespace(self):
        v = Vocabulary()
        v.add("The  BFG")
        assert v.get("the bfg") == 0
        assert v.get("THE BFG") == 0
        assert v.name_of(0) == "The  BFG"

    def test_get_missing_returns_none(self):
        v = Vocabulary()
        assert v.get("nope") is None


class TestLoadTriples:
    """The toy graph pins the id assignment contract."""

    def test_entity_ids_first_seen(self, toy_graph):
        ids = {name: toy_graph.entities.get(name) for name in toy_graph.entities}
        assert ids == {
            "roald_dahl": 0,
            "the_witches": 1,
            "the_bfg": 2,
            "charlie_and_the_chocolate_factory": 3,
            "fantasy": 4,
            "quentin_blake": 5,
            "jrr_tolkien": 6,
            "the_hobbit": 7,
        }

    def test_relation_ids_first_seen(self, toy_graph):
        assert toy_graph.relations.get("wrote") == 0
        assert toy_graph.relations.get("has_genre") == 1
        assert toy_graph.relations.get("illustrated") == 2

    def test_counts(self, toy_graph):
        st = toy_graph.stats()
        assert (st.entities, st.relations, st.triples) == (8, 3, 7)
        assert st.mean_degree == pytest.approx(14 / 8)
        assert st.max_degree == 3

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("# header\n\na\tr\tb\n  \n# tail\n")
        g = load_triples(p)
        assert g.triples == (Triple(0, 0, 1),)

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("a\tr\tb\na\tr\n")
        with pytest.raises(MalformedLine) as exc:
            load_triples(p)
        assert exc.value.line_number == 2

    @pytest.mark.parametrize(
        "loader, arity",
        [(load_triples, 3), (load_aliases, 2), (load_entity_types, 2),
         (load_relation_phrases, 2)],
    )
    def test_malformed_line_names_expected_field_count(self, tmp_path, loader, arity):
        p = tmp_path / "f.tsv"
        good, bad = ["x"] * arity, ["x"] * (arity + 1)
        p.write_text("# header\n" + "\t".join(good) + "\n" + "\t".join(bad) + "\n")
        with pytest.raises(
            MalformedLine, match=f"line 3: expected {arity} tab-separated fields"
        ):
            loader(p)

    def test_empty_field_is_malformed(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("a\t\tb\n")
        with pytest.raises(MalformedLine):
            load_triples(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("# nothing here\n")
        with pytest.raises(EmptyGraph):
            load_triples(p)

    def test_duplicate_triples_dropped(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("a\tr\tb\na\tr\tb\n")
        assert len(load_triples(p).triples) == 1


class TestKhopSubgraph:
    """Hand-derived neighborhoods on the toy graph.

    Distances from roald_dahl (ignoring direction): the three books are
    1 hop away, fantasy and quentin_blake 2, the_hobbit 3, jrr_tolkien 4.
    """

    def test_k0_is_centers_only(self, toy_graph):
        sub = toy_graph.khop_subgraph(["roald_dahl"], 0)
        assert sub.nodes == {0}
        assert sub.triples == ()

    @pytest.mark.parametrize("k", [0, 2])
    def test_no_centers_is_empty_ball(self, toy_graph, k):
        sub = toy_graph.khop_subgraph((), k)
        assert sub == Subgraph(nodes=frozenset(), triples=())
        assert 0 not in sub.nodes

    def test_k0_keeps_edges_between_centers(self, toy_graph):
        sub = toy_graph.khop_subgraph(["roald_dahl", "the_witches"], 0)
        assert sub.nodes == {0, 1}
        assert sub.triples == (Triple(0, 0, 1),)

    def test_k1_around_author(self, toy_graph):
        sub = toy_graph.khop_subgraph(["roald_dahl"], 1)
        assert sub.nodes == {0, 1, 2, 3}
        assert set(sub.triples) == {Triple(0, 0, 1), Triple(0, 0, 2), Triple(0, 0, 3)}

    def test_k2_adds_genre_and_illustrator(self, toy_graph):
        sub = toy_graph.khop_subgraph(["roald_dahl"], 2)
        assert sub.nodes == {0, 1, 2, 3, 4, 5}
        assert len(sub.triples) == 5
        assert 7 not in sub.nodes  # the_hobbit

    def test_k3_reaches_the_hobbit_not_tolkien(self, toy_graph):
        sub = toy_graph.khop_subgraph(["roald_dahl"], 3)
        assert sub.nodes == {0, 1, 2, 3, 4, 5, 7}
        assert len(sub.triples) == 6

    def test_radius_monotone(self, toy_graph):
        prev: frozenset[int] = frozenset()
        for k in range(5):
            nodes = toy_graph.khop_subgraph([0], k).nodes
            assert prev <= nodes
            prev = nodes

    def test_negative_radius_rejected(self, toy_graph):
        with pytest.raises(ValueError):
            toy_graph.khop_subgraph([0], -1)

    def test_one_radius_check(self, toy_graph, toy_aliases):
        for reject in (
            lambda: check_radius(-1),
            lambda: toy_graph.khop_subgraph([0], -1),
            lambda: Critic(toy_graph, toy_aliases, k=-1),
            lambda: RefineConfig(k=-1),
            lambda: CorruptionConfig(k=-1),
        ):
            with pytest.raises(ValueError, match=r"^k must be >= 0, got -1$"):
                reject()
        check_radius(0)

    def test_unknown_center_rejected(self, toy_graph):
        with pytest.raises(UnknownEntity):
            toy_graph.khop_subgraph(["narnia"], 1)
        with pytest.raises(UnknownEntity):
            toy_graph.khop_subgraph([99], 1)

    def test_multi_center_union(self, toy_graph):
        sub = toy_graph.khop_subgraph(["jrr_tolkien", "quentin_blake"], 1)
        assert sub.nodes == {6, 7, 5, 2}


def _bfs_ball(triples: list[Triple], centers: set[int], k: int) -> set[int]:
    """Reference BFS: nodes within undirected distance k of any center."""
    adj: dict[int, set[int]] = {}
    for t in triples:
        adj.setdefault(t.s, set()).add(t.o)
        adj.setdefault(t.o, set()).add(t.s)
    dist = {c: 0 for c in centers}
    queue = deque(centers)
    while queue:
        v = queue.popleft()
        if dist[v] == k:
            continue
        for u in adj.get(v, ()):
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return set(dist)


def _random_graph(rng: np.random.Generator) -> KnowledgeGraph:
    n = int(rng.integers(2, 200))
    m = int(rng.integers(1, 4 * n))
    ents = Vocabulary()
    rels = Vocabulary()
    for i in range(n):
        ents.add(f"e{i}")
    for j in range(int(rng.integers(1, 6))):
        rels.add(f"r{j}")
    triples: list[Triple] = []
    seen: set[Triple] = set()
    for _ in range(m):
        t = Triple(
            int(rng.integers(n)),
            int(rng.integers(len(rels))),
            int(rng.integers(n)),
        )
        if t not in seen:
            seen.add(t)
            triples.append(t)
    return KnowledgeGraph(triples, ents, rels)


class TestSubgraphMatchesBfsReference:
    def test_random_graphs(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            g = _random_graph(rng)
            n = len(g.entities)
            for k in range(4):
                n_centers = int(rng.integers(1, min(4, n) + 1))
                centers = {int(c) for c in rng.choice(n, size=n_centers, replace=False)}
                sub = g.khop_subgraph(sorted(centers), k)
                expect_nodes = _bfs_ball(list(g.triples), centers, k)
                assert sub.nodes == expect_nodes
                expect_triples = [
                    t for t in g.triples if t.s in expect_nodes and t.o in expect_nodes
                ]
                assert list(sub.triples) == expect_triples


def _kept_elements(graph: KnowledgeGraph) -> int:
    return sum(map(len, graph._balls.values()))


class TestKeptBalls:
    """ball() keeps one ball per (center set, radius) within 2 * len(triples) elements."""

    def test_star_stays_within_budget(self):
        ents, rels = Vocabulary(), Vocabulary()
        rels.add("r")
        hub = ents.add("hub")
        leaves = [ents.add(f"leaf{i}") for i in range(200)]
        graph = KnowledgeGraph([Triple(hub, 0, leaf) for leaf in leaves], ents, rels)
        for _ in range(2):
            for leaf in leaves:
                # Every leaf's 2-ball is the whole star: keeping each would cost 200 * 201.
                assert graph.ball([leaf], 2) == _bfs_ball(list(graph.triples), {leaf}, 2)
                assert _kept_elements(graph) <= 2 * len(graph.triples)
        assert len(graph._balls) == 1
        # The 2-balls that did not fit left their room to smaller balls.
        assert graph.ball(leaves[:3], 1) == {hub, *leaves[:3]}
        assert graph._balls[frozenset(leaves[:3]), 1] == {hub, *leaves[:3]}
        assert _kept_elements(graph) == 201 + 4

    def test_unknown_center_keeps_nothing(self, data_dir):
        graph = load_triples(data_dir / "toy_kg.tsv")
        with pytest.raises(UnknownEntity):
            graph.ball(["roald_dahl", "the_bfg", "narnia"], 2)
        assert graph._balls == {}
        assert graph._ball_room == 2 * len(graph.triples)

    def test_each_center_set_and_radius_keeps_its_own_ball(self, data_dir):
        graph = load_triples(data_dir / "toy_kg.tsv")
        for _ in range(2):  # cold, then from the kept balls
            assert graph.ball(["jrr_tolkien", "quentin_blake"], 1) == {2, 5, 6, 7}
            assert graph.ball(["jrr_tolkien"], 1) == {6, 7}
            assert graph.ball(["quentin_blake"], 1) == {2, 5}
            assert graph.ball(["roald_dahl"], 1) == {0, 1, 2, 3}
            # Six elements with two of the 14 left: returned, not kept.
            assert graph.ball(["roald_dahl"], 2) == {0, 1, 2, 3, 4, 5}
            assert graph.ball(["roald_dahl"], 0) == {0}
        assert set(graph._balls) == {
            (frozenset({5, 6}), 1), (frozenset({6}), 1), (frozenset({5}), 1),
            (frozenset({0}), 1), (frozenset({0}), 0),
        }
        assert graph._ball_room == 1


def edges_between(graph, a: int, b: int) -> list[Triple]:
    """The edges a -> b, read from a's out-edges as the critic and corruptor read them."""
    return [t for t in graph.out_edges(a) if t.o == b]


class TestDirectEdges:
    def test_oriented(self, toy_graph):
        dahl, witches = map(toy_graph.resolve_entity, ("roald_dahl", "the_witches"))
        assert edges_between(toy_graph, dahl, witches) == [Triple(0, 0, 1)]
        assert edges_between(toy_graph, witches, dahl) == []

    def test_no_edge(self, toy_graph):
        dahl, fantasy = map(toy_graph.resolve_entity, ("roald_dahl", "fantasy"))
        assert edges_between(toy_graph, dahl, fantasy) == []

    def test_subgraph_direct_edge_queries(self, toy_graph):
        # Between two ball nodes, the graph's edges are the ball's edges.
        sub = toy_graph.khop_subgraph(["roald_dahl"], 2)
        induced = {(t.s, t.o) for t in sub.triples}
        for a in sub.nodes:
            for b in sub.nodes:
                assert bool(edges_between(toy_graph, a, b)) == ((a, b) in induced)
        assert edges_between(toy_graph, 1, 0) == [] and edges_between(toy_graph, 0, 1)
        assert not edges_between(toy_graph, 0, 4) and not edges_between(toy_graph, 4, 0)


class TestObjects:
    def test_relation_filter(self, toy_graph):
        dahl, wrote = toy_graph.resolve_entity("roald_dahl"), toy_graph.resolve_relation("wrote")
        books = {toy_graph.resolve_entity(b) for b in
                 ("the_witches", "the_bfg", "charlie_and_the_chocolate_factory")}
        assert toy_graph.objects(dahl, wrote) == books
        assert toy_graph.objects(dahl, toy_graph.resolve_relation("has_genre")) == set()

    def test_entity_without_out_edges(self, toy_graph):
        fantasy = toy_graph.resolve_entity("fantasy")
        assert toy_graph.in_edges(fantasy) and not toy_graph.out_edges(fantasy)
        assert toy_graph.objects(fantasy, toy_graph.resolve_relation("has_genre")) == set()

    def test_fresh_set_each_call(self, toy_graph):
        # The filtered ranking unions the held-out objects into it.
        first = toy_graph.objects(0, 0)
        first.add(7)
        assert 7 not in toy_graph.objects(0, 0)
        assert toy_graph.objects(0, 0) is not toy_graph.objects(0, 0)


class TestIndexes:
    def test_index_sizes_sum_to_twice_triples(self, toy_graph):
        total = sum(
            len(toy_graph.out_edges(e)) + len(toy_graph.in_edges(e))
            for e in range(len(toy_graph.entities))
        )
        assert total == 2 * len(toy_graph.triples)

    def test_neighbors_symmetric(self, toy_graph):
        n = len(toy_graph.entities)
        for a in range(n):
            for b in toy_graph.ball([a], 1) - {a}:
                assert a in toy_graph.ball([b], 1)

    def test_name_triple_round_trip(self, toy_graph):
        assert toy_graph.name_triple(Triple(0, 0, 1)) == (
            "roald_dahl",
            "wrote",
            "the_witches",
        )


class TestMemo:
    """One slot per name, rebuilt when the key differs; a failed build stores nothing."""

    def test_slot_rebuilt_only_when_its_key_differs(self, data_dir):
        graph = load_triples(data_dir / "toy_kg.tsv")
        built = []

        def build(value):
            def run():
                built.append(value)
                return value
            return run

        assert graph.memo("a", (1, "x"), build("a1")) == "a1"
        assert graph.memo("a", (1, "x"), build("a2")) == "a1"
        assert graph.memo("b", (1, "x"), build("b1")) == "b1"
        assert graph.memo("a", (2, "x"), build("a3")) == "a3"
        assert graph.memo("a", (1, "x"), build("a4")) == "a4"  # one slot: the first key is gone
        assert graph.memo("b", (1, "x"), build("b2")) == "b1"
        assert built == ["a1", "b1", "a3", "a4"]

    def test_failed_build_keeps_the_slot(self, data_dir):
        graph = load_triples(data_dir / "toy_kg.tsv")
        graph.memo("a", 1, lambda: "kept")

        def fail():
            raise ValueError("no")

        with pytest.raises(ValueError):
            graph.memo("a", 2, fail)
        assert graph.memo("a", 1, lambda: "rebuilt") == "kept"


class TestAliasTable:
    def test_preferred_is_first_listed(self, toy_aliases):
        assert (
            toy_aliases.preferred("charlie_and_the_chocolate_factory")
            == "Charlie and the Chocolate Factory"
        )
        forms = [s for e, s in toy_aliases.items() if e == "charlie_and_the_chocolate_factory"]
        assert forms == ["Charlie and the Chocolate Factory", "Charlie"]

    def test_surface_lookup_case_insensitive(self, toy_aliases):
        assert toy_aliases.entity_of("the bfg") == "the_bfg"
        assert toy_aliases.entity_of("THE WITCHES") == "the_witches"
        assert toy_aliases.entity_of("unknown surface") is None

    def test_alias_only_entities_listed(self, toy_aliases):
        assert "the_time_machine" in {e for e, _ in toy_aliases.items()}
        assert toy_aliases.preferred("the_time_machine") == "The Time Machine"

    def test_fallback_to_entity_name(self, toy_aliases):
        assert toy_aliases.preferred("not_in_table") == "not_in_table"

    def test_entities_in_takes_raw_substrings_and_every_owner(self):
        pairs = [("e1", "e1"), ("bee_a", "Bee"), ("bee_b", "bee")]
        table = AliasTable(pairs)
        assert table.entities_in("we saw e12 .") == {"e1"}
        assert table.entities_in("beekeeping") == {"bee_a", "bee_b"}
        assert table.entities_in("nothing here") == set()
        assert AliasTable(pairs + [("e12", "e12")]).entities_in("we saw e12 .") == {"e1", "e12"}

    def test_pairs_are_cleaned_in_one_pass(self):
        table = AliasTable([
            ("  bfg ", " The   BFG\t"), ("bfg", "The BFG"), ("bfg", "BFG"),
            ("", "Nobody"), ("blank", "  "), ("bfg", "the bfg"),
        ])
        assert list(table.items()) == [("bfg", "The BFG"), ("bfg", "BFG"), ("bfg", "the bfg")]
        assert table.entity_of("nobody") is None and table.preferred("blank") == "blank"
        assert table.links_back == {"bfg"}

    def test_match_spans_leftmost_longest_on_word_boundaries(self, toy_aliases):
        text = "Charlie and the Chocolate Factory, not Charlies or xCharlie."
        assert toy_aliases.match_spans(text) == [(0, 33)]
        assert toy_aliases.match_spans("") == []
        assert AliasTable([]).match_spans("Charlie") == []


class TestEntityTypes:
    def test_types(self, toy_types):
        assert toy_types["roald_dahl"] == "person"
        assert toy_types["the_time_machine"] == "book"
        assert toy_types["fantasy"] == "genre"
        assert len(toy_types) == 11
