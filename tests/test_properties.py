"""Property tests: each build-once index against the full scan it replaced.

The references below redo the work the indexes save: k-hop balls and
induced edges from passes over every triple, a mention pattern compiled
afresh for every call, and the filtered ranking's set lookup per
candidate. The batched trilinear scorer is checked against one
distmult_score call per triple, and relation inference and candidate
ranking against loops over those single scores. Examples are drawn
deterministically, so the suite gives the same verdict on every run.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgfaith import KnowledgeGraph, Triple, Vocabulary
from kgfaith.critic import link_mentions
from kgfaith.embeddings import (
    EmbeddingTable,
    distmult_score,
    evaluate_link_prediction,
    rank_of_gold,
    trilinear,
)
from kgfaith.errors import EmptySubgraph
from kgfaith.kg import AliasTable
from kgfaith.retriever import infer_relation, rank_candidates

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def graphs(draw, max_entities: int = 10, max_relations: int = 3, max_triples: int = 25):
    """A small graph whose triples may repeat and may loop on one entity."""
    n = draw(st.integers(1, max_entities))
    r = draw(st.integers(1, max_relations))
    triples = draw(
        st.lists(
            st.builds(Triple, st.integers(0, n - 1), st.integers(0, r - 1), st.integers(0, n - 1)),
            max_size=max_triples,
        )
    )
    ents, rels = Vocabulary(), Vocabulary()
    for i in range(n):
        ents.add(f"e{i}")
    for j in range(r):
        rels.add(f"r{j}")
    return KnowledgeGraph(triples, ents, rels)


# --- k-hop subgraphs ----------------------------------------------------------


def scan_khop(graph: KnowledgeGraph, centers: list[int], k: int):
    """BFS over neighbors found by scanning all triples; induced edges by a full scan."""

    def neighbors(v: int) -> set[int]:
        return {t.o for t in graph.triples if t.s == v} | {
            t.s for t in graph.triples if t.o == v
        }

    seen = set(centers)
    frontier = list(dict.fromkeys(centers))
    for _ in range(k):
        nxt = []
        for v in frontier:
            for u in sorted(neighbors(v)):
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    induced = tuple(t for t in graph.triples if t.s in seen and t.o in seen)
    return frozenset(seen), induced


@PROPERTY
@given(data=st.data())
def test_khop_matches_full_scan(data):
    graph = data.draw(graphs())
    n = len(graph.entities)
    centers = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    k = data.draw(st.integers(0, 3))
    sub = graph.khop_subgraph(centers, k)
    nodes, induced = scan_khop(graph, centers, k)
    assert sub.nodes == nodes
    assert sub.triples == induced
    assert sub.centers == tuple(centers)


@PROPERTY
@given(graph=graphs())
def test_adjacency_matches_full_scan(graph):
    for e in range(len(graph.entities)):
        assert graph.out_edges(e) == tuple((t.p, t.o) for t in graph.triples if t.s == e)
        assert graph.in_edges(e) == tuple((t.s, t.p) for t in graph.triples if t.o == e)
        assert graph.degree(e) == len(graph.out_edges(e)) + len(graph.in_edges(e))
    for p, (subjects, objects) in graph.relation_slots.items():
        assert subjects == {t.s for t in graph.triples if t.p == p}
        assert objects == {t.o for t in graph.triples if t.p == p}
    assert set(graph.relation_slots) == {t.p for t in graph.triples}


# --- mention linking ----------------------------------------------------------


def fresh_pattern(aliases: AliasTable) -> re.Pattern[str] | None:
    """The mention pattern, compiled from the table's current surfaces."""
    surfaces = sorted(
        {surface for _, surface in aliases.items()},
        key=lambda s: (-len(s), s.lower()),
    )
    if not surfaces:
        return None
    body = "|".join(re.escape(s) for s in surfaces)
    return re.compile(rf"(?<!\w)(?:{body})(?!\w)", re.IGNORECASE)


def scan_links(text: str, aliases: AliasTable, graph: KnowledgeGraph):
    pattern = fresh_pattern(aliases)
    if pattern is None or not text:
        return []
    out = []
    for m in pattern.finditer(text):
        entity = aliases.entity_of(m.group(0))
        out.append((m.start(), m.end(), m.group(0), entity, graph.entities.get(entity)))
    return out


def linked(text: str, aliases: AliasTable, graph: KnowledgeGraph):
    return [
        (m.begin, m.end, m.surface, m.entity, m.entity_id)
        for m in link_mentions(text, aliases, graph)
    ]


# Mixed case, punctuation inside surfaces, and short words that prefix
# longer ones ("ab" / "abc" / "ab.c"), so leftmost-longest has work to do.
SURFACE = st.text(alphabet="abcAB.-' ", min_size=1, max_size=6).filter(lambda s: s.strip())
FILLER = st.text(alphabet="abcAB.-' x", max_size=4)


@st.composite
def alias_tables(draw):
    pairs = draw(
        st.lists(st.tuples(st.sampled_from(["p", "q", "r", "s"]), SURFACE), max_size=8)
    )
    table = AliasTable()
    for entity, surface in pairs:
        table.add(entity, surface)
    return table, [surface for _, surface in pairs]


@st.composite
def texts(draw, surfaces: list[str]):
    pieces = st.one_of(FILLER, st.sampled_from(surfaces)) if surfaces else FILLER
    return "".join(draw(st.lists(pieces, max_size=8)))


def link_graph() -> KnowledgeGraph:
    """A graph that knows entities p and q only, so r, s and t link with no id."""
    ents = Vocabulary()
    ents.add("p")
    ents.add("q")
    return KnowledgeGraph([], ents, Vocabulary())


LINK_GRAPH = link_graph()


@PROPERTY
@given(data=st.data())
def test_link_mentions_matches_fresh_pattern(data):
    table, surfaces = data.draw(alias_tables())
    for _ in range(2):  # the second call reads the cached pattern
        text = data.draw(texts(surfaces))
        assert linked(text, table, LINK_GRAPH) == scan_links(text, table, LINK_GRAPH)

    # A surface added after a link is seen by the next link.
    entity, surface = data.draw(st.tuples(st.sampled_from(["q", "t"]), SURFACE))
    table.add(entity, surface)
    text = data.draw(texts(surfaces + [surface]))
    assert linked(text, table, LINK_GRAPH) == scan_links(text, table, LINK_GRAPH)


def test_add_after_link_is_seen():
    table = AliasTable.from_names(["Roald Dahl"])
    text = "Roald Dahl wrote The BFG."
    assert [m.surface for m in link_mentions(text, table)] == ["Roald Dahl"]
    table.add("the_bfg", "The BFG")
    assert [m.surface for m in link_mentions(text, table)] == ["Roald Dahl", "The BFG"]


# --- filtered ranking ---------------------------------------------------------


def scan_ranks(table, heldout, graph):
    """Filtered object ranks with a set lookup per candidate over all known triples."""
    known = set(graph.triples) | set(heldout)
    ranks = []
    for t in heldout:
        cand = np.array(
            [e for e in range(len(graph.entities))
             if e == t.o or Triple(t.s, t.p, e) not in known],
            dtype=np.int64,
        )
        query = table.entities[t.s] * table.relations[t.p]
        ranks.append(rank_of_gold(table.entities[cand] @ query, cand, t.o))
    return ranks


@PROPERTY
@given(data=st.data())
def test_filtered_ranks_match_per_candidate_scan(data):
    drawn = data.draw(graphs(max_entities=8, max_relations=2, max_triples=20))
    n, r = len(drawn.entities), len(drawn.relations)
    heldout = data.draw(
        st.lists(
            st.builds(Triple, st.integers(0, n - 1), st.integers(0, r - 1), st.integers(0, n - 1)),
            min_size=1,
            max_size=6,
        )
    )
    graph = KnowledgeGraph(
        [t for t in drawn.triples if t not in heldout], drawn.entities, drawn.relations
    )
    # Entries in {-1, 0, 1} make tied scores common, so the tie rule is exercised.
    d = 3
    values = st.lists(st.integers(-1, 1), min_size=d, max_size=d)
    table = EmbeddingTable(
        entities=np.array(data.draw(st.lists(values, min_size=n, max_size=n)), dtype=float),
        relations=np.array(data.draw(st.lists(values, min_size=r, max_size=r)), dtype=float),
    )
    report = evaluate_link_prediction(table, heldout, graph, mode="filtered")
    assert report.ranks == scan_ranks(table, heldout, graph)


# --- trilinear scoring --------------------------------------------------------


def matrices(draw, values, rows: int, d: int) -> np.ndarray:
    row = st.lists(values, min_size=d, max_size=d)
    return np.array(draw(st.lists(row, min_size=rows, max_size=rows)), dtype=float)


# Thirds repeat often, so equal rows and equal scores are common; they
# and the free floats are inexact in binary, so the rounding of a score
# depends on how its products and sums are grouped.
SCORE_VALUES = st.one_of(
    st.integers(-3, 3).map(lambda k: k / 3),
    st.floats(-2, 2, allow_nan=False, allow_infinity=False),
)


@PROPERTY
@given(data=st.data())
def test_trilinear_rows_match_single_scores(data):
    n, k = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
    d = data.draw(st.integers(1, 24))
    U, R, V = (matrices(data.draw, SCORE_VALUES, n, d) for _ in range(3))
    scores = trilinear(U, R, V)
    assert scores.shape == (n,)
    for i in range(n):
        assert scores[i] == distmult_score(U[i], R[i], V[i])
    assert np.array_equal(trilinear(V, R, U), scores)
    # The (relations, candidates) broadcast that relation inference uses.
    rels = matrices(data.draw, SCORE_VALUES, k, d)
    grid = trilinear(U[0], rels[:, None, :], V)
    assert grid.shape == (k, n)
    for a in range(k):
        for c in range(n):
            assert grid[a, c] == distmult_score(U[0], rels[a], V[c])


def integer_table(data, graph: KnowledgeGraph, d: int = 3) -> EmbeddingTable:
    """Entries in {-1, 0, 1}, so tied scores are common."""
    values = st.integers(-1, 1)
    return EmbeddingTable(
        entities=matrices(data.draw, values, len(graph.entities), d),
        relations=matrices(data.draw, values, len(graph.relations), d),
    )


def draw_ball(data, graph: KnowledgeGraph):
    n = len(graph.entities)
    anchor = data.draw(st.integers(0, n - 1))
    sub = graph.khop_subgraph([anchor], data.draw(st.integers(0, 2)))
    exclude = frozenset(data.draw(st.lists(st.integers(0, n - 1), max_size=3)))
    return anchor, sub, exclude


@PROPERTY
@given(data=st.data())
def test_infer_relation_matches_per_relation_loop(data):
    graph = data.draw(graphs(max_entities=8, max_relations=4))
    table = integer_table(data, graph)
    anchor, sub, exclude = draw_ball(data, graph)
    cand = sorted(sub.nodes - {anchor} - exclude)
    if not sub.triples or not cand:
        with pytest.raises(EmptySubgraph):
            infer_relation(sub, table, anchor, exclude)
        return
    best_rel, best = -1, -np.inf
    for rel in sorted({t.p for t in sub.triples}):
        top = max(
            distmult_score(table.entities[anchor], table.relations[rel], table.entities[c])
            for c in cand
        )
        if top > best:  # strict: a tie keeps the lower relation id
            best_rel, best = rel, top
    assert infer_relation(sub, table, anchor, exclude) == best_rel


@PROPERTY
@given(data=st.data())
def test_rank_candidates_matches_sorted_scores(data):
    graph = data.draw(graphs(max_entities=8))
    table = integer_table(data, graph)
    anchor, sub, exclude = draw_ball(data, graph)
    cand = sorted(sub.nodes - {anchor} - exclude)
    query = matrices(data.draw, st.integers(-1, 1), 1, table.dim)[0]
    if not cand:
        with pytest.raises(EmptySubgraph):
            rank_candidates(query, anchor, sub, table, exclude)
        return
    scored = [
        (c, distmult_score(table.entities[anchor], query, table.entities[c])) for c in cand
    ]
    expected = sorted(scored, key=lambda pair: (-pair[1], pair[0]))
    assert rank_candidates(query, anchor, sub, table, exclude).candidates == expected
