"""Property tests: each build-once index against the full scan it replaced.

The references below redo the work the indexes save: k-hop balls and
induced edges from passes over every triple (the graph's kept balls
cold, warm and with their budget spent, and the neighbors it keeps per
entity), a mention pattern compiled afresh for every call, the links-back
set from one preferred-surface lookup per name, the alias table's
lookups from scans of its pairs in file order, replacement pools built
by scanning every candidate, and the filtered ranking's set lookup per
candidate (also with the ranking's blocks cut to one and two rows); the
NaN-masked ranking is
checked against the bincount correction it replaced on tables whose
scores overflow to infinities and NaN. The batched
trilinear scorer is checked against one single-triple call per triple,
and relation inference and candidate ranking against loops over those
single scores. The batched training loss and gradients are checked
against nce_loss_and_grad summed over the rows, the batched samplers
against their per-row contracts, a group of batches drawn in one pass
against one draw per batch, train() in batch groups against the
per-batch training oracle, and TouchedRows against np.unique.
Multi-span splice, which refinement and corruption use to place every
edit and failure, is checked against its offset contract. On small
random sparse corpora, extrinsic corruptions are checked to be sound and
fully flagged by the critic, the intrinsic swap to undo itself,
corruption, critique and refinement on a graph with kept balls against
a new graph, and refinement from labels read back from JSON against
refinement from the critic's live report.
Examples are drawn deterministically, so the suite gives the same
verdict on every run.
"""

from __future__ import annotations

import json
import logging
import re
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from synthetic import block_split, sparse_corpus
from test_corruptor import scan_pool
from test_embeddings import (
    bincount_ranks,
    one_batch_negatives,
    per_batch_negatives,
    two_matrix_train,
)

from kgfaith import KnowledgeGraph, Triple, Vocabulary
from kgfaith import corruptor, embeddings
from kgfaith.corruptor import (
    Candidates,
    CorruptionConfig,
    build_synthetic_dataset,
    corrupt_extrinsic,
    corrupt_intrinsic,
    excluded_ids,
    replacement_pool,
    same_type_ids,
    _Pool,
)
from kgfaith.critic import Critic, CriticReport, derive_anchors, link_mentions
from kgfaith.dialogue import DialogueRecord, splice
from kgfaith.embeddings import (
    SAMPLERS,
    EmbeddingTable,
    TouchedRows,
    TrainingConfig,
    batch_nce_loss_and_grad,
    evaluate_link_prediction,
    group_negatives,
    init_embeddings,
    nce_loss_and_grad,
    rank_of_gold,
    train,
    trilinear,
)
from kgfaith.errors import (
    AllRecordsDropped,
    EmptyPool,
    NoEligibleReplacement,
    NotApplicable,
    RetrievalImpossible,
    UnknownEntity,
)
from kgfaith.kg import AliasTable, canonical, fold
from kgfaith.retriever import RefineConfig, infer_relation, rank_candidates, refine_response

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


def scan_neighbors(graph: KnowledgeGraph, v: int) -> set[int]:
    """The entity's neighbors ignoring direction, by scanning all triples."""
    return {t.o for t in graph.triples if t.s == v} | {t.s for t in graph.triples if t.o == v}


def scan_khop(graph: KnowledgeGraph, centers: list[int], k: int):
    """BFS over neighbors found by scanning all triples; induced edges by a full scan."""
    seen = set(centers)
    frontier = list(dict.fromkeys(centers))
    for _ in range(k):
        nxt = []
        for v in frontier:
            for u in sorted(scan_neighbors(graph, v)):
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


def kept_balls(graph: KnowledgeGraph):
    """The balls the graph keeps, by (center ids, radius), and its remaining budget."""
    return dict(graph._balls), graph._ball_room


@PROPERTY
@given(data=st.data())
def test_ball_matches_full_scan(data):
    """The ball alone, from centers that repeat, by id and by name, on a
    graph whose kept balls are cold, warm (radii 0-3 asked of one graph)
    or whose budget is spent; the kept elements stay within budget. The
    spent graph searches on every call, over the neighbors its earlier
    calls kept, which are each entity's own and only of entities reached."""
    graph = data.draw(graphs())
    spent = fresh(graph)
    spent._ball_room = 0
    n = len(graph.entities)
    reached: set[int] = set()
    for _ in range(data.draw(st.integers(1, 4))):
        centers = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
        repeats = data.draw(st.lists(st.sampled_from(centers)))
        centers = data.draw(st.permutations(centers + repeats))
        k = data.draw(st.integers(0, 3))
        nodes, _ = scan_khop(graph, centers, k)
        assert fresh(graph).ball(centers, k) == nodes
        # Each center alone first, so the joint call finds their balls kept.
        for c in centers:
            assert graph.ball([c], k) == scan_khop(graph, [c], k)[0]
        assert graph.ball(centers, k) == nodes
        assert graph.ball([graph.entities.name_of(c) for c in centers], k) == nodes
        assert spent.ball(centers, k) == nodes
        reached |= nodes
        assert spent._near.keys() <= reached
        for v, near in spent._near.items():
            assert sorted(near) == sorted(scan_neighbors(graph, v))
        assert sum(map(len, kept_balls(graph)[0].values())) <= 2 * len(graph.triples)
        assert kept_balls(spent) == ({}, 0)

        # One unknown center, by name or by id, anywhere among them raises
        # before anything is kept, on a cold graph and on a warm one.
        unknown = data.draw(st.sampled_from(["x9", "e", n, -1]))
        at = data.draw(st.integers(0, len(centers)))
        for target in (fresh(graph), graph):
            before = kept_balls(target)
            with pytest.raises(UnknownEntity):
                target.ball(centers[:at] + [unknown] + centers[at:], k)
            assert kept_balls(target) == before


@PROPERTY
@given(graph=graphs())
def test_adjacency_matches_full_scan(graph):
    for e in range(len(graph.entities)):
        assert graph.out_edges(e) == tuple(t for t in graph.triples if t.s == e)
        assert graph.in_edges(e) == tuple(t for t in graph.triples if t.o == e)
        assert graph.degree(e) == len(graph.out_edges(e)) + len(graph.in_edges(e))
        for p in range(len(graph.relations)):
            assert graph.objects(e, p) == {t.o for t in graph.triples if t.s == e and t.p == p}
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
        if entity is None:  # equal to a surface under re.IGNORECASE, not under str.lower()
            continue
        out.append((m.start(), m.end(), m.group(0), entity, graph.entities.get(entity)))
    return out


def linked(text: str, aliases: AliasTable, graph: KnowledgeGraph):
    return [
        (m.begin, m.end, m.surface, m.entity, m.entity_id)
        for m in link_mentions(text, aliases, graph)
    ]


# Mixed case, punctuation inside surfaces, and short words that prefix
# longer ones ("ab" / "abc" / "ab.c"), so leftmost-longest has work to do.
# The non-ASCII letters are where re.IGNORECASE and str.lower() part ways:
# "İ" lowers to two characters, "ı" and "ſ" match "i" and "s" only under
# re, Kelvin "K" lowers to "k", and "ß" uppercases to "SS". "²" is a word
# character and the combining acute accent is not.
CASE_EDGES = "iIsSkİıſ\u212aßé²\u0301"
SURFACE = st.text(alphabet="abcAB.-' " + CASE_EDGES, min_size=1, max_size=6).filter(
    lambda s: s.strip()
)
FILLER = st.text(alphabet="abcAB.-' x" + CASE_EDGES, max_size=4)


@st.composite
def alias_tables(draw):
    pairs = draw(
        st.lists(st.tuples(st.sampled_from(["p", "q", "r", "s"]), SURFACE), max_size=8)
    )
    return AliasTable(pairs), pairs


def recased(surfaces: list[str]):
    """A surface as written or with its case changed, which may change its length."""
    return st.sampled_from(surfaces).flatmap(
        lambda s: st.sampled_from([s, s.upper(), s.lower(), s.swapcase(), s.casefold()])
    )


@st.composite
def texts(draw, surfaces: list[str]):
    pieces = st.one_of(FILLER, recased(surfaces)) if surfaces else FILLER
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
    table, pairs = data.draw(alias_tables())
    surfaces = [surface for _, surface in pairs]
    for _ in range(2):  # the second call reads the kept surface keys
        text = data.draw(texts(surfaces))
        assert linked(text, table, LINK_GRAPH) == scan_links(text, table, LINK_GRAPH)

    # A table built with one more pair links that pair's surface too.
    extra = data.draw(st.tuples(st.sampled_from(["q", "t"]), SURFACE))
    larger = AliasTable(pairs + [extra])
    text = data.draw(texts(surfaces + [extra[1]]))
    assert linked(text, larger, LINK_GRAPH) == scan_links(text, larger, LINK_GRAPH)


def scan_links_back(table: AliasTable, names: list[str]) -> set[str]:
    return {name for name in names if table.entity_of(table.preferred(name)) == name}


@PROPERTY
@given(data=st.data())
def test_links_back_matches_preferred_surface_scan(data):
    names = ["p", "q", "r", "s", "t", "x9"]
    table, pairs = data.draw(alias_tables())
    assert table.links_back == scan_links_back(table, names)
    # A table built with one more pair, which may claim a listed surface.
    extra = data.draw(st.tuples(st.sampled_from(["q", "t"]), SURFACE))
    larger = AliasTable(pairs + [extra])
    assert larger.links_back == scan_links_back(larger, names)


def test_later_claim_on_a_surface_is_ignored(caplog):
    pairs = [("Roald Dahl", "Roald Dahl"), ("ghost", "ROALD DAHL"), ("the_bfg", "The BFG")]
    with caplog.at_level(logging.WARNING, logger="kgfaith.kg"):
        table = AliasTable(pairs)
    assert table.entity_of("roald dahl") == "Roald Dahl"  # the surface stays Roald Dahl's
    assert table.links_back == {"Roald Dahl", "the_bfg"}
    assert "already maps to Roald Dahl; ignoring mapping to ghost" in caplog.text


@st.composite
def shared_surface_pairs(draw):
    """(entity, surface) pairs in file order, whose surfaces often repeat an
    earlier one re-cased or re-spaced under any entity, some sides blank,
    and a canonical() text (as entities_in takes it) of surfaces and filler."""
    pairs: list[tuple[str, str]] = []
    for _ in range(draw(st.integers(0, 8))):
        new = st.text(alphabet="abAB. İıſß", max_size=4)
        earlier = [surface for _, surface in pairs if surface.strip()]
        if earlier:
            new = st.one_of(new, recased(earlier).map(lambda s: f" {s.replace(' ', '  ')}"))
        pairs.append((draw(st.sampled_from(["p", "q", " q ", "r", ""])), draw(new)))
    text = draw(texts([surface for _, surface in pairs if surface.strip()]))
    return pairs, canonical(text)


@PROPERTY
@given(case=shared_surface_pairs())
# Listed by entity, the owners of "q" are A then B, yet B claimed it first.
@example(case=([("A", "p"), ("B", "q"), ("A", "q")], "p q"))
def test_alias_lookups_match_pair_scans(case):
    """entity_of, entities_in and links_back against scans of the kept pairs."""
    pairs, text = case
    table = AliasTable(pairs)
    kept = [(e.strip(), " ".join(s.split())) for e, s in pairs if e.strip() and s.strip()]

    def first_owner(surface: str) -> str | None:
        return next((e for e, s in kept if canonical(s) == canonical(surface)), None)

    for _, surface in pairs:
        for query in (surface, surface.upper(), f" {surface}\t"):
            assert table.entity_of(query) == first_owner(query)
    assert table.entities_in(text) == {e for e, s in kept if canonical(s) in text}
    preferred: dict[str, str] = {}
    for e, s in kept:
        preferred.setdefault(e, s)
    assert table.links_back == {e for e, s in preferred.items() if first_owner(s) == e}


# (entity, surface) pairs, a text, and its mentions as (begin, end, entity).
CASE_EDGE_LINKS = [
    # "ı b" matches "i b" under re.IGNORECASE, but no surface lowercases to
    # "i b": no mention, and "b" inside the match is not linked either.
    ([("p", "ı b"), ("q", "b")], "i b", []),
    ([("p", "i")], "İ x", []),  # "İ" matches "i"; lowercased it is "i̇"
    ([("p", "k")], "\u212a K", [(0, 1, "p"), (2, 3, "p")]),  # Kelvin sign
    ([("p", "ſa")], "SA ſA", [(3, 5, "p")]),
    ([("p", "ß")], "ẞ SS", [(0, 1, "p")]),
    ([("p", "é")], "e\u0301 é", [(3, 4, "p")]),  # decomposed é is another text
    ([("p", "a")], "a\u0301", [(0, 1, "p")]),  # a combining mark is no word character
    ([("p", "x²")], "x²y x²", [(4, 6, "p")]),  # "²" is one
]


@pytest.mark.parametrize("pairs, text, mentions", CASE_EDGE_LINKS)
def test_link_mentions_case_edges(pairs, text, mentions):
    table = AliasTable(pairs)
    found = linked(text, table, LINK_GRAPH)
    assert found == scan_links(text, table, LINK_GRAPH)
    assert [(b, e, entity) for b, e, _, entity, _ in found] == mentions


# Blocks holding every character that re.IGNORECASE equates with another
# beyond plain lowercasing: Latin, Greek, Cyrillic and their extensions,
# the Kelvin and Ångström signs, and the long-s ligatures.
FOLD_BLOCKS = (
    (0x0000, 0x0250), (0x0370, 0x0530), (0x1C80, 0x1C90), (0x1E00, 0x2000),
    (0x2100, 0x2150), (0xA640, 0xA6A0), (0xFB00, 0xFB50),
)


def test_fold_equates_what_ignorecase_matches():
    chars = "".join(chr(i) for lo, hi in FOLD_BLOCKS for i in range(lo, hi))
    folded = fold(chars)
    assert len(folded) == len(chars)
    alike: dict[str, set[int]] = {}
    for j, f in enumerate(folded):
        alike.setdefault(f, set()).add(j)
    for c, f in zip(chars, folded):
        matched = {m.start() for m in re.finditer(re.escape(c), chars, re.IGNORECASE)}
        assert matched == alike[f], f"U+{ord(c):04X}"


# --- multi-span splice --------------------------------------------------------


@st.composite
def splice_cases(draw):
    """A text and non-empty, non-overlapping (some touching) edits in drawn order."""
    text = draw(st.text(alphabet="ab c", min_size=1, max_size=30))
    cuts = sorted(draw(st.sets(st.integers(0, len(text)), max_size=10)))
    spans = [(b, e) for b, e in zip(cuts, cuts[1:]) if draw(st.booleans())]
    edits = [(b, e, draw(st.text(alphabet="xyZ", max_size=4))) for b, e in spans]
    return text, draw(st.permutations(edits))


@PROPERTY
@given(case=splice_cases())
def test_splice_places_every_edit(case):
    text, edits = case
    out, spans = splice(text, edits)
    assert len(spans) == len(edits)
    for (_, _, repl), (nb, ne) in zip(edits, spans):
        assert out[nb:ne] == repl
    # Spans come back in edit order: ranked by old begin, new begins ascend.
    by_old = sorted(range(len(edits)), key=lambda i: edits[i][0])
    assert [spans[i][0] for i in by_old] == sorted(nb for nb, _ in spans)
    # Text outside the edits is carried over unchanged.
    old_cursor = new_cursor = 0
    for i in by_old:
        assert out[new_cursor:spans[i][0]] == text[old_cursor:edits[i][0]]
        old_cursor, new_cursor = edits[i][1], spans[i][1]
    assert out[new_cursor:] == text[old_cursor:]


@PROPERTY
@given(case=splice_cases(), data=st.data())
def test_splice_rejects_overlapping_edits(case, data):
    text, edits = case
    assume(edits)
    b, e, _ = data.draw(st.sampled_from(edits))
    nb = data.draw(st.integers(0, e - 1))
    ne = data.draw(st.integers(max(nb, b) + 1, len(text)))  # nb < e and b < ne: overlap
    edits.insert(data.draw(st.integers(0, len(edits))), (nb, ne, "q"))
    with pytest.raises(ValueError, match=r"^spans \[\d+, \d+\) and \[\d+, \d+\) overlap$"):
        splice(text, edits)


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


@PROPERTY
@given(data=st.data(), rows=st.sampled_from([1, 2]))
def test_ranks_across_block_boundaries(data, rows):
    drawn = data.draw(graphs(max_entities=8, max_relations=2, max_triples=20))
    n, r = len(drawn.entities), len(drawn.relations)
    triple = st.builds(Triple, st.integers(0, n - 1), st.integers(0, r - 1), st.integers(0, n - 1))
    heldout = data.draw(st.lists(triple, min_size=1, max_size=5))
    # One row sharing (s, p) with a drawn row, one repeating its object.
    first = heldout[0]
    heldout.append(Triple(first.s, first.p, data.draw(st.integers(0, n - 1))))
    heldout.append(Triple(data.draw(st.integers(0, n - 1)), first.p, first.o))
    graph = KnowledgeGraph(
        [t for t in drawn.triples if t not in heldout], drawn.entities, drawn.relations
    )
    values = st.lists(st.integers(-1, 1), min_size=3, max_size=3)
    table = EmbeddingTable(
        entities=np.array(data.draw(st.lists(values, min_size=n, max_size=n)), dtype=float),
        relations=np.array(data.draw(st.lists(values, min_size=r, max_size=r)), dtype=float),
    )
    ids = np.arange(n)
    with patch.object(embeddings, "_BLOCK_CELLS", rows * n):
        filtered = evaluate_link_prediction(table, heldout, graph, mode="filtered")
        raw = evaluate_link_prediction(table, heldout, graph, mode="raw")
    assert filtered.ranks == scan_ranks(table, heldout, graph)
    assert raw.ranks == [
        rank_of_gold(table.entities @ (table.entities[t.s] * table.relations[t.p]), ids, t.o)
        for t in heldout
    ]


@PROPERTY
@given(data=st.data(), rows=st.sampled_from([None, 1, 2]))
def test_masked_ranks_match_bincount_oracle(data, rows):
    """Entries of +-1e200 overflow products to +-inf and sums of opposite
    infinities to NaN, so gold and filtered-out scores take each of
    those values; the NaN mask must rank as the bincount correction did,
    in one block (rows None) and in blocks of one and two rows."""
    drawn = data.draw(graphs(max_entities=8, max_relations=2, max_triples=20))
    n, r = len(drawn.entities), len(drawn.relations)
    triple = st.builds(Triple, st.integers(0, n - 1), st.integers(0, r - 1), st.integers(0, n - 1))
    heldout = data.draw(st.lists(triple, min_size=1, max_size=6))
    graph = KnowledgeGraph(
        [t for t in drawn.triples if t not in heldout], drawn.entities, drawn.relations
    )
    values = st.sampled_from([-1.0, 0.0, 1.0, 1e200, -1e200])
    table = EmbeddingTable(
        entities=matrices(data.draw, values, n, 3), relations=matrices(data.draw, values, r, 3)
    )
    cells = embeddings._BLOCK_CELLS if rows is None else rows * n
    with patch.object(embeddings, "_BLOCK_CELLS", cells), np.errstate(over="ignore", invalid="ignore"):
        for mode in ("raw", "filtered"):
            report = evaluate_link_prediction(table, heldout, graph, mode=mode)
            assert report.ranks == bincount_ranks(table, heldout, graph, mode)


def memo_case(data):
    """A small graph, held-out triples it lacks (two sharing a subject and
    relation), and a draw of {-1, 0, 1} tables for its relations."""
    drawn = data.draw(graphs(max_entities=8, max_relations=2, max_triples=20))
    n, r = len(drawn.entities), len(drawn.relations)
    triple = st.builds(Triple, st.integers(0, n - 1), st.integers(0, r - 1), st.integers(0, n - 1))
    heldout = data.draw(st.lists(triple, min_size=1, max_size=5))
    first = heldout[0]
    heldout.append(Triple(first.s, first.p, data.draw(st.integers(0, n - 1))))
    graph = KnowledgeGraph(
        [t for t in drawn.triples if t not in heldout], drawn.entities, drawn.relations
    )
    values = st.lists(st.integers(-1, 1), min_size=3, max_size=3)

    def table(rows: int) -> EmbeddingTable:
        return EmbeddingTable(
            entities=np.array(data.draw(st.lists(values, min_size=rows, max_size=rows)), dtype=float),
            relations=np.array(data.draw(st.lists(values, min_size=r, max_size=r)), dtype=float),
        )

    return graph, heldout, table


def fresh(graph: KnowledgeGraph) -> KnowledgeGraph:
    """The same tables in a new graph, whose memo is empty."""
    return KnowledgeGraph(graph.triples, graph.entities, graph.relations)


def assert_filtered_ranks_fresh(table, heldout, graph):
    """Filtered ranks equal the bincount oracle's and a fresh graph's."""
    ranks = evaluate_link_prediction(table, heldout, graph, mode="filtered").ranks
    assert ranks == bincount_ranks(table, heldout, graph, "filtered")
    assert ranks == evaluate_link_prediction(table, heldout, fresh(graph), mode="filtered").ranks


@PROPERTY
@given(data=st.data())
def test_second_filtered_call_ranks_as_a_fresh_graph(data):
    """The second call reuses the first call's filter, with another table of the same size."""
    graph, heldout, table = memo_case(data)
    n = len(graph.entities)
    for _ in range(2):
        assert_filtered_ranks_fresh(table(n), heldout, graph)


@PROPERTY
@given(data=st.data(), change=st.sampled_from(["heldout", "block", "size"]))
def test_filter_rebuilt_when_its_key_changes(data, change):
    """After a call in blocks of two rows: another held-out list (rows of the
    first, so none is in the graph), blocks of one row, or a table with more
    entities (which gives blocks of one row) must not reuse the filter."""
    graph, heldout, table = memo_case(data)
    n = len(graph.entities)
    cells = 2 * n
    with patch.object(embeddings, "_BLOCK_CELLS", cells):
        evaluate_link_prediction(table(n), heldout, graph, mode="filtered")
    rows = n
    if change == "heldout":
        other = data.draw(st.lists(st.sampled_from(heldout), min_size=1, max_size=6))
        assume(other != heldout)
        heldout = other
    elif change == "block":
        cells = n
    else:
        rows = n + data.draw(st.integers(1, 3))
    with patch.object(embeddings, "_BLOCK_CELLS", cells):
        assert_filtered_ranks_fresh(table(rows), heldout, graph)


# --- trilinear scoring --------------------------------------------------------


def matrices(draw, values, rows: int, d: int) -> np.ndarray:
    row = st.lists(values, min_size=d, max_size=d)
    return np.array(draw(st.lists(row, min_size=rows, max_size=rows)), dtype=float)


def score_values(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Thirds in [-1, 1] and free floats in [-2, 2], mixed entry by entry.

    Thirds repeat often, so equal rows and equal scores are common; they
    and the free floats are inexact in binary, so the rounding of a score
    depends on how its products and sums are grouped.
    """
    thirds = rng.integers(-3, 4, size=shape) / 3
    free = rng.uniform(-2, 2, size=shape)
    return np.where(rng.random(shape) < 0.5, thirds, free)


# Hypothesis draws only the shapes and a seed, and numpy fills the
# matrices: drawing each of hundreds of entries through hypothesis is slow.
@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    k=st.integers(1, 4),
    d=st.integers(1, 24),
)
def test_trilinear_rows_match_single_scores(seed, n, k, d):
    rng = np.random.default_rng(seed)
    U, R, V = score_values(rng, 3, n, d)
    scores = trilinear(U, R, V)
    assert scores.shape == (n,)
    for i in range(n):
        assert scores[i] == float(trilinear(U[i], R[i], V[i]))
    assert np.array_equal(trilinear(V, R, U), scores)
    # The (relations, candidates) broadcast that relation inference uses.
    rels = score_values(rng, k, d)
    grid = trilinear(U[0], rels[:, None, :], V)
    assert grid.shape == (k, n)
    for a in range(k):
        for c in range(n):
            assert grid[a, c] == float(trilinear(U[0], rels[a], V[c]))


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
    ball = graph.ball([anchor], data.draw(st.integers(0, 2)))
    exclude = frozenset(data.draw(st.lists(st.integers(0, n - 1), max_size=3)))
    return anchor, ball, exclude


@PROPERTY
@given(data=st.data())
def test_infer_relation_matches_per_relation_loop(data):
    graph = data.draw(graphs(max_entities=8, max_relations=4))
    table = integer_table(data, graph)
    anchor, ball, exclude = draw_ball(data, graph)
    cand = sorted(ball - {anchor} - exclude)
    candidates = np.array(cand, dtype=np.int64)
    # Every edge with both endpoints in the ball, by a full scan.
    rels = sorted({t.p for t in graph.triples if t.s in ball and t.o in ball})
    if not rels or not cand:
        with pytest.raises(RetrievalImpossible, match="no edges" if not rels else "no candidate"):
            infer_relation(graph, ball, table, anchor, candidates)
        return
    best_rel, best = -1, -np.inf
    for rel in rels:
        top = max(
            float(trilinear(table.entities[anchor], table.relations[rel], table.entities[c]))
            for c in cand
        )
        if top > best:  # strict: a tie keeps the lower relation id
            best_rel, best = rel, top
    assert infer_relation(graph, ball, table, anchor, candidates) == best_rel


@PROPERTY
@given(data=st.data())
def test_rank_candidates_matches_sorted_scores(data):
    graph = data.draw(graphs(max_entities=8))
    table = integer_table(data, graph)
    anchor, ball, exclude = draw_ball(data, graph)
    cand = sorted(ball - {anchor} - exclude)
    # Given in any order, ties still come out by ascending id.
    candidates = np.array(data.draw(st.permutations(cand)), dtype=np.int64)
    query = matrices(data.draw, st.integers(-1, 1), 1, table.dim)[0]
    if not cand:
        with pytest.raises(RetrievalImpossible):
            rank_candidates(query, anchor, candidates, table)
        return
    scored = [
        (c, float(trilinear(table.entities[anchor], query, table.entities[c]))) for c in cand
    ]
    expected = sorted(scored, key=lambda pair: (-pair[1], pair[0]))
    assert rank_candidates(query, anchor, candidates, table).candidates == expected


# --- batched contrastive training ---------------------------------------------


def padded(balls: list[list[int]]) -> np.ndarray:
    """Ball rows padded with -1, the layout the sans sampler reads."""
    out = np.full((len(balls), max(map(len, balls), default=0)), -1, dtype=np.int64)
    for row, ball in zip(out, balls):
        row[: len(ball)] = ball
    return out


def ids(values: list[int]) -> np.ndarray:
    return np.array(values, dtype=np.int64)


@st.composite
def nce_batches(draw):
    """(sampler, subjects, predicates, golds, n, pool, seed, entities).

    Ids come from a few entities, so repeated subjects and negatives
    that are another row's subject or gold are common.
    """
    n_ent = draw(st.integers(2, 6))
    strategy = draw(st.sampled_from(SAMPLERS))
    rows = draw(st.integers(2 if strategy == "in_batch" else 1, 5))
    entity_ids = st.lists(st.integers(0, n_ent - 1), min_size=rows, max_size=rows)
    subjects, golds = draw(entity_ids), draw(entity_ids)
    predicates = draw(st.lists(st.integers(0, 1), min_size=rows, max_size=rows))
    pool = None
    if strategy == "sans":
        balls = [
            sorted(draw(st.sets(st.integers(0, n_ent - 1))) | {(g + 1) % n_ent})
            for g in golds
        ]
        pool = padded(balls)
    elif strategy == "in_batch":
        if len(set(golds)) == 1:
            golds[-1] = (golds[0] + 1) % n_ent
        pool = ids(golds)
    n = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    return strategy, ids(subjects), ids(predicates), ids(golds), n, pool, seed, n_ent


def summed_reference(subjects, predicates, objects, mask, table):
    """nce_loss_and_grad row by row on the kept columns, gradients summed per row key."""
    losses, total = [], {}
    if mask is None:  # every cell kept
        mask = np.ones(objects.shape, dtype=bool)
    for s, p, row, keep in zip(subjects, predicates, objects, mask):
        negs = [Triple(int(s), int(p), int(o)) for o in row[1:][keep[1:]]]
        loss, grads = nce_loss_and_grad(Triple(int(s), int(p), int(row[0])), negs, table)
        losses.append(loss)
        for key, g in grads.items():
            total[key] = total[key] + g if key in total else g
    return np.array(losses), total


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


# In-batch: subject 0 repeats, gold 1 repeats (so row 0 and row 2 mask
# each other's column), and golds 3 and 1 are also rows' subjects.
IN_BATCH_CASE = ("in_batch", ids([0, 0, 3, 1]), ids([0, 1, 0, 0]), ids([1, 3, 1, 2]),
                 50, ids([1, 3, 1, 2]), 3, 4)
# Sans: each row's ball minus its gold holds 2 ids, fewer than n = 5, so
# the draws come with replacement; subject 2 is in both pools.
SHORT_SANS_CASE = ("sans", ids([2, 2]), ids([0, 1]), ids([1, 0]),
                   5, padded([[0, 1, 2], [0, 2]]), 8, 4)


@PROPERTY
@given(case=nce_batches())
@example(case=IN_BATCH_CASE)
@example(case=SHORT_SANS_CASE)
def test_batch_gradients_match_summed_reference(case):
    strategy, subjects, predicates, golds, n, pool, seed, n_ent = case
    rng = np.random.default_rng(seed)
    table = EmbeddingTable(
        entities=rng.normal(scale=0.7, size=(n_ent, 4)),
        relations=rng.normal(scale=0.7, size=(2, 4)),
    )
    negs, mask = one_batch_negatives(strategy, golds, n, rng, n_ent, pool)
    assert_matches_summed_reference(subjects, predicates, golds, negs, mask, table)


def assert_matches_summed_reference(subjects, predicates, golds, negs, mask, table):
    objects = np.concatenate([golds[:, None], negs], axis=1)
    losses, *grads = batch_nce_loss_and_grad(subjects, predicates, objects, mask, table)
    ref_losses, ref = summed_reference(subjects, predicates, objects, mask, table)
    got = {
        (kind, int(i)): g
        for kind, (row_ids, rows) in zip("er", grads)
        for i, g in zip(row_ids, rows)
    }
    keys = sorted(ref)
    assert sorted(got) == keys
    assert relative_error(losses, ref_losses) <= 1e-12
    assert relative_error(
        np.concatenate([got[k] for k in keys]), np.concatenate([ref[k] for k in keys])
    ) <= 1e-12


@pytest.mark.parametrize(
    "corpus, strategy",
    [("block", strategy) for strategy in SAMPLERS] + [("sparse", "uniform")],
)
def test_batch_gradients_match_summed_reference_at_training_shapes(corpus, strategy):
    """One batch the size train-block trains with: B=32, n=50, d=32.

    Products this large take BLAS's blocked paths, which the few ids and
    d=4 above never reach. The uniform batch touches all of block_split's
    60 entities, and 570 of the sparse corpus's 600.
    """
    graph = block_split(0)[0] if corpus == "block" else sparse_corpus(600, 4, 900)[0]
    rng = np.random.default_rng(7)
    picked = np.array(graph.triples, dtype=np.int64)[rng.permutation(len(graph.triples))[:32]]
    subjects, predicates, golds = picked.T
    pool = golds
    if strategy == "sans":  # train's sans k=2 balls
        pool = padded([sorted(graph.khop_subgraph([s], 2).nodes) for s in subjects.tolist()])
    n_ent = len(graph.entities)
    table = init_embeddings(n_ent, len(graph.relations), 32, seed=3)
    negs, mask = one_batch_negatives(strategy, golds, 50, rng, n_ent, pool)
    assert_matches_summed_reference(subjects, predicates, golds, negs, mask, table)


@st.composite
def sans_batches(draw):
    """Padded balls (some empty, some only the gold), golds and n."""
    n_ent = draw(st.integers(1, 8))
    rows = draw(st.integers(1, 5))
    balls = [sorted(draw(st.sets(st.integers(0, n_ent - 1)))) for _ in range(rows)]
    golds = draw(st.lists(st.integers(0, n_ent - 1), min_size=rows, max_size=rows))
    return balls, ids(golds), draw(st.integers(1, 6))


@PROPERTY
@given(case=sans_batches(), seed=st.integers(0, 2**32 - 1))
def test_sans_draws_stay_in_ball(case, seed):
    balls, golds, n = case
    rng = np.random.default_rng(seed)
    allowed = [set(ball) - {int(g)} for ball, g in zip(balls, golds)]
    if not all(allowed):
        with pytest.raises(EmptyPool):
            one_batch_negatives("sans", golds, n, rng, 0, padded(balls))
        return
    negs, mask = one_batch_negatives("sans", golds, n, rng, 0, padded(balls))
    assert negs.shape == (len(balls), n)
    assert mask is None  # sans keeps every draw
    for row, pool in zip(negs.tolist(), allowed):
        assert set(row) <= pool
        if len(pool) >= n:
            assert len(set(row)) == n  # without replacement
        # otherwise n draws from fewer ids: with replacement


@PROPERTY
@given(
    pool=st.lists(st.integers(0, 4), max_size=6),
    golds=st.lists(st.integers(0, 4), min_size=1, max_size=4),
)
def test_in_batch_mask_drops_equal_golds(pool, golds):
    if len(pool) < 2 or any(all(o == g for o in pool) for g in golds):
        with pytest.raises(EmptyPool):
            one_batch_negatives("in_batch", ids(golds), 50, None, 0, ids(pool))
        return
    negs, mask = one_batch_negatives("in_batch", ids(golds), 50, None, 0, ids(pool))
    assert mask.shape == (len(golds), len(pool) + 1) and mask[:, 0].all()
    for g, row, keep in zip(golds, negs.tolist(), mask[:, 1:].tolist()):
        assert row == pool
        assert keep == [o != g for o in pool]


@st.composite
def negative_groups(draw):
    """(sampler, golds, n, pool, batch, entities, seed) for one group of batches.

    Batches hold 1-5 rows; for uniform and sans the last may be shorter.
    Sans balls hold from one id to the whole vocabulary, so rows whose
    pool is shorter than n and rows whose pool is longer both occur.
    in_batch batches are of one size, as train() groups them, each
    batch's pool its golds; a batch of one row must raise.
    """
    strategy = draw(st.sampled_from(SAMPLERS))
    n_ent = draw(st.integers(1, 8))
    batch = draw(st.integers(1, 5))
    batches = draw(st.integers(1, 4))
    rows = batch * (batches - 1) + (batch if strategy == "in_batch" else draw(st.integers(1, batch)))
    golds = ids(draw(st.lists(st.integers(0, n_ent - 1), min_size=rows, max_size=rows)))
    pool = None
    if strategy == "sans":
        ball = st.sets(st.integers(0, n_ent - 1), min_size=1).map(sorted)
        pool = padded(draw(st.lists(ball, min_size=rows, max_size=rows)))
    elif strategy == "in_batch":
        pool = golds.reshape(batches, batch)
    return strategy, golds, draw(st.integers(1, 6)), pool, batch, n_ent, draw(st.integers(0, 2**32 - 1))


@PROPERTY
@given(case=negative_groups())
@example(case=("uniform", ids([3, 0, 7, 7, 1]), 5, None, 2, 8, 1))
# Row 0 draws with replacement from {1, 2} between the keys of batch 0 and batch 1.
@example(case=("sans", ids([0, 1, 2]), 3, padded([[0, 1, 2], [0, 1, 2, 3, 4], [0, 1, 2, 3, 4]]), 2, 5, 2))
@example(case=("in_batch", ids([1, 2]), 4, ids([[1], [2]]), 1, 3, 0))
def test_group_draws_equal_per_batch_draws(case):
    """One group_negatives call gives the draws of one call per batch,
    concatenated, and leaves the generator where they leave it; a group
    with a batch the per-batch draws refuse raises their EmptyPool."""
    strategy, golds, n, pool, batch, n_ent, seed = case
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    per_batch = []
    try:
        for b, start in enumerate(range(0, len(golds), batch)):
            rows = slice(start, start + batch)
            batch_pool = None if pool is None else pool[b] if strategy == "in_batch" else pool[rows]
            per_batch.append(per_batch_negatives(strategy, golds[rows], n, ref, n_ent, batch_pool))
    except EmptyPool as error:
        with pytest.raises(EmptyPool, match=f"^{error}$"):
            group_negatives(strategy, golds, n, rng, n_ent, pool, batch)
        return
    negs, mask = group_negatives(strategy, golds, n, rng, n_ent, pool, batch)
    assert negs.dtype == np.int64
    assert np.array_equal(negs, np.concatenate([want for want, _ in per_batch]))
    if strategy == "in_batch":
        assert np.array_equal(mask, np.concatenate([want for _, want in per_batch]))
    else:
        assert mask is None
    assert rng.bit_generator.state == ref.bit_generator.state


def chain_graph(n_triples: int) -> KnowledgeGraph:
    """Triples i -r0-> i + 1: every gold differs, so in_batch never runs dry."""
    ents, rels = Vocabulary(), Vocabulary()
    for i in range(n_triples + 1):
        ents.add(f"e{i}")
    rels.add("r0")
    return KnowledgeGraph([Triple(i, 0, i + 1) for i in range(n_triples)], ents, rels)


@st.composite
def training_graphs(draw):
    """A graph of 4-30 triples over 3-10 entities, few of whose batches run dry."""
    n = draw(st.integers(3, 10))
    triple = st.builds(Triple, st.integers(0, n - 1), st.integers(0, 1), st.integers(0, n - 1))
    triples = draw(st.lists(triple, min_size=4, max_size=30, unique=True))
    ents, rels = Vocabulary(), Vocabulary()
    for i in range(n):
        ents.add(f"e{i}")
    rels.add("r0")
    rels.add("r1")
    return KnowledgeGraph(triples, ents, rels)


@pytest.mark.parametrize(
    "sampler", [("uniform", 1), ("sans", 1), ("sans", 2), ("in_batch", 1)],
    ids=["uniform", "sans1", "sans2", "in_batch"],
)
@PROPERTY
@given(
    graph=training_graphs(),
    optimizer=st.sampled_from(["sgd", "adam"]),
    batch=st.integers(2, 7),
    n=st.integers(1, 8),
    cells=st.sampled_from([1, 40, 100, 250, 1 << 17]),
)
@example(graph=chain_graph(7), optimizer="sgd", batch=3, n=1, cells=40)
@example(graph=chain_graph(7), optimizer="adam", batch=2, n=3, cells=1)
def test_train_in_groups_gives_per_batch_bytes(sampler, graph, optimizer, batch, n, cells):
    """train() with _BLOCK_CELLS cut so that an epoch spans one batch per
    group (1), a few (40 to 250) or all of them, batch sizes that leave
    remainders (an in_batch remainder of one is skipped), and n on both
    sides of the sans pool sizes: the tables and trace of per-batch
    draws (two_matrix_train), or an EmptyPool where those run dry. The
    chain graph's 7 triples in batches of 3 leave a remainder of one."""
    cfg = TrainingConfig(
        d=4, epochs=2, negatives=n, batch_size=batch, lr=5e-2, seed=3,
        sampler=sampler[0], sans_k=sampler[1], optimizer=optimizer,
    )
    with patch.object(embeddings, "_BLOCK_CELLS", cells):
        try:
            table, trace = train(graph, cfg)
        except EmptyPool:
            # The oracle runs an epoch that trains nothing into a division by zero.
            with pytest.raises((EmptyPool, ZeroDivisionError)):
                two_matrix_train(graph, cfg)
            return
    want, want_trace = two_matrix_train(graph, cfg)
    assert trace == want_trace
    assert table.entities.tobytes() == want.entities.tobytes()
    assert table.relations.tobytes() == want.relations.tobytes()


@st.composite
def id_batches(draw):
    """A vocabulary size n and a few id arrays below it, some empty."""
    n = draw(st.integers(1, 40))
    batch = st.lists(st.integers(0, n - 1), max_size=30).map(ids)
    return n, draw(st.lists(batch, min_size=1, max_size=4))


@PROPERTY
@given(case=id_batches())
@example(case=(1, [ids([0])]))
@example(case=(9, [ids([4])]))
@example(case=(5, [ids([3, 3, 3, 3])]))
@example(case=(7, [ids([6, 0, 6]), ids([0])]))
def test_touched_rows_equal_unique(case):
    """One TouchedRows over successive batches, as train() keeps it, gives
    np.unique's ids and inverse for each batch."""
    n, batches = case
    touched = TouchedRows(n)
    for batch in batches:
        got, want = touched(batch), np.unique(batch, return_inverse=True)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


# --- replacement pools --------------------------------------------------------


@st.composite
def pool_cases(draw):
    """(graph, aliases, types, ball, history, mention, response, seed).

    Graph entities are e0..e13 at most, so "e12" holds "e1". Alias
    entities are graph names, graph names spelled otherwise ("E3") or
    names the graph lacks; surfaces are graph names or a few words that
    fold alike ("bee", "Bee"), so one folded surface often belongs to two
    entities (only the first links back, so only it can replace), and
    graph entities the table leaves out are no replacements.
    """
    graph = draw(graphs(max_entities=14, max_relations=2, max_triples=20))
    names = graph.entities.names
    entities = st.sampled_from(names + [name.upper() for name in names] + ["x9"])
    surfaces = st.sampled_from(names + ["bee", "Bee", "e1 bee"])
    aliases = AliasTable(draw(st.lists(st.tuples(entities, surfaces), max_size=8)))
    typed = draw(st.lists(st.sampled_from(names + ["x9"]), unique=True))
    types = {name: draw(st.sampled_from(["t0", "t1"])) for name in typed}
    centers = draw(st.lists(st.integers(0, len(names) - 1), max_size=2))
    sub = graph.khop_subgraph(centers, draw(st.integers(0, 2)))
    words = st.sampled_from(names + ["bees", "BEE", "e", "let us discuss", "."])
    history = [" ".join(draw(st.lists(words, max_size=4))) for _ in range(draw(st.integers(0, 2)))]
    response = " ".join(draw(st.lists(st.sampled_from(names + ["bee", "and"]), min_size=1, max_size=4)))
    mention = draw(st.sampled_from(names + ["x9"]))
    return graph, aliases, types, sub, history, mention, response, draw(st.integers(0, 2**32 - 1))


def every_pool_rule():
    """One case with each rule the strategy draws at random.

    "bee" and "Bee" fold alike; "Bee", e3's preferred surface, links to
    e2, so e3 is no replacement. e12 has no alias, so it is none either,
    and its name in the history holds e1's surface. E4 is e4 spelled
    otherwise, so e4 has no surface of its own. e5 is in the ball.
    """
    ents, rels = Vocabulary(), Vocabulary()
    for i in range(13):
        ents.add(f"e{i}")
    rels.add("r0")
    graph = KnowledgeGraph([Triple(0, 0, 5), Triple(5, 0, 6)], ents, rels)
    aliases = AliasTable([("e1", "e1"), ("e2", "bee"), ("e3", "Bee"), ("e3", "three"),
                          ("E4", "four"), ("e5", "e5"), ("e7", "e7"), ("e8", "eight")])
    types = {f"e{i}": "t0" for i in range(13)}
    history = ["we saw e12 and BEES , four of them"]
    sub = graph.khop_subgraph([0], 1)
    return graph, aliases, types, sub, history, "e0", "e0 and e7 and e4", 7


def test_every_pool_rule():
    graph, aliases, types, sub, history, mention, _, _ = every_pool_rule()
    same_type = same_type_ids(types, graph, aliases)
    excluded = excluded_ids(history, sub.nodes, graph, aliases)
    pool = replacement_pool(mention, graph, excluded, same_type, aliases)
    assert list(pool) == ["e7", "e8"]


@PROPERTY
@given(data=st.data())
def test_pool_lookup_matches_brute_force(data):
    """A pool finds its excluded candidates in the kept position map: it
    equals the brute-force filter of the candidate list, for excluded ids in
    the list and outside it, and leaves the record's shared set as it was."""
    ids = sorted(data.draw(st.sets(st.integers(0, 49))))
    listed = st.sampled_from(ids) if ids else st.nothing()
    excluded = data.draw(st.sets(listed))
    excluded |= data.draw(st.sets(st.integers(0, 59)))
    own = data.draw(st.none() | listed | st.integers(0, 59))
    names = Vocabulary()
    for i in range(60):
        names.add(f"e{i}")
    shared = set(excluded)
    pool = _Pool(Candidates.of(ids), shared, own, names)
    want = [names.name_of(i) for i in ids if i not in excluded and i != own]
    assert shared == excluded
    assert len(pool) == len(want)
    assert [pool[j] for j in range(len(want))] == want
    assert [pool[j] for j in range(-len(want), 0)] == want
    assert list(pool) == want
    for j in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            pool[j]


def extrinsic_outcome(record, graph, ball, same_type, seed, aliases):
    rng = np.random.default_rng(seed)
    try:
        out = corrupt_extrinsic(record, graph, ball, same_type, rng, aliases)
    except NoEligibleReplacement:
        return None
    return out.response, out.labels, out.replacements


@PROPERTY
@given(case=pool_cases())
@example(case=every_pool_rule())
def test_replacement_pool_matches_scan(case):
    graph, aliases, types, sub, history, mention, response, seed = case
    same_type = same_type_ids(types, graph, aliases)
    excluded = excluded_ids(history, sub.nodes, graph, aliases)
    pool = replacement_pool(mention, graph, excluded, same_type, aliases)
    want = scan_pool(mention, graph, sub.nodes, types, history, aliases)
    assert list(pool) == want
    assert len(pool) == len(want)
    assert [pool[j] for j in range(-len(want), len(want))] == want + want
    with pytest.raises(IndexError):
        pool[len(want)]

    # corrupt_extrinsic draws the same entities from a list pool.
    def list_pool(mention, graph, excluded, same_type, aliases):
        return scan_pool(mention, graph, sub.nodes, types, history, aliases)

    record = DialogueRecord(history=history, triples=[], response=response)
    drawn = extrinsic_outcome(record, graph, sub.nodes, same_type, seed, aliases)
    with patch.object(corruptor, "replacement_pool", list_pool):
        assert extrinsic_outcome(record, graph, sub.nodes, same_type, seed, aliases) == drawn


# --- corruption ---------------------------------------------------------------

# Each example corrupts and critiques a whole corpus, so fewer of them.
@settings(PROPERTY, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(40, 100), k=st.integers(0, 2))
def test_extrinsic_corruptions_sound_and_flagged(seed, n, k):
    """Gate 4 on random corpora: each replacement lies outside the record's
    k-hop ball and history, its preferred surface fills its label (labels in
    text order), and the critic at the same k flags each span."""
    graph, types, aliases, records = sparse_corpus(n, n_triples=n, seed=seed)
    cfg = CorruptionConfig(fraction=1.0, seed=seed, policy="drop", k=k)
    corrupted, _ = build_synthetic_dataset(records, graph, types, cfg, aliases)
    critic = Critic(graph, aliases, k=k)
    for c in corrupted:
        assert c.kind == "extrinsic"
        assert c.labels == sorted(c.labels)
        ball = graph.khop_subgraph(derive_anchors(c.original, graph, aliases, "kn"), k)
        history = [canonical(turn) for turn in c.original.history]
        for (b, e), (_, new) in zip(c.labels, c.replacements, strict=True):
            assert c.response[b:e] == aliases.preferred(new)
            assert graph.entities.get(new) not in ball.nodes
            assert not any(canonical(new) in turn for turn in history)
        report = critic.critique(c.as_record())
        flagged = {(s.begin, s.end) for s in report.flagged_spans if s.label == "extrinsic"}
        assert set(c.labels) <= flagged


def dataset_outcome(records, graph, types, cfg, aliases):
    """The corrupted records and summary as JSON, or the error type when every record drops."""
    try:
        out, summary = build_synthetic_dataset(records, graph, types, cfg, aliases)
    except AllRecordsDropped:
        return "AllRecordsDropped"
    return [c.to_json() for c in out], summary


@settings(PROPERTY, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 60), data=st.data())
def test_corruption_after_table_edits_matches_fresh_tables(seed, n, data):
    """The graph keeps the type pools across calls; after the caller edits
    the type map in place (retyping and untyping entities, which sends them
    to the positional fallback), and with a larger alias table that puts
    entities the first lacked into its links-back set, a call yields the
    records that new tables, type map and graph yield."""
    graph, types, _, records = sparse_corpus(n, n_triples=n, seed=seed)
    records = records[:20]
    names = graph.entities.names
    missing = data.draw(st.lists(st.sampled_from(names), unique=True, max_size=5))
    aliases = AliasTable.from_names([name for name in names if name not in missing])
    cfg = CorruptionConfig(fraction=0.7, seed=seed, k=1)

    def check(aliases):
        assert dataset_outcome(records, graph, types, cfg, aliases) == dataset_outcome(
            records, fresh(graph), dict(types), cfg, AliasTable(aliases.items())
        )

    check(aliases)
    for name in data.draw(st.lists(st.sampled_from(names), unique=True, min_size=1, max_size=8)):
        kind = data.draw(st.sampled_from([None, "type0", "type1", "other"]))
        if kind is None:
            types.pop(name, None)
        else:
            types[name] = kind
    check(aliases)
    check(AliasTable([*aliases.items(), *((name, name) for name in missing)]))


FILLER_WORDS = ("the", "and", "wrote", "after", "of", "a", ".")


@st.composite
def swap_records(draw):
    """A small corpus graph and a record grounded on 1-3 of its triples.

    The response names each of the triples' entities once, plus filler
    words and a few more entities (which may repeat one), in random order.
    The graph is dense, so the triples often share an entity.
    """
    graph, _, aliases, _ = sparse_corpus(12, n_triples=30, seed=draw(st.integers(0, 2**32 - 1)))
    names = graph.entities.names
    chosen = draw(st.lists(st.sampled_from(graph.triples), min_size=1, max_size=3))
    triples = [graph.name_triple(t) for t in chosen]
    words = list(dict.fromkeys(name for s, _, o in triples for name in (s, o)))
    words += draw(st.lists(st.sampled_from(names), max_size=2))
    words += draw(st.lists(st.sampled_from(FILLER_WORDS), max_size=8))
    response = " ".join(draw(st.permutations(words)))
    return graph, aliases, DialogueRecord(history=[], triples=triples, response=response)


@PROPERTY
@given(case=swap_records())
def test_intrinsic_swap_is_an_involution(case):
    graph, aliases, record = case
    try:
        once = corrupt_intrinsic(record, graph, aliases)
    except NotApplicable:
        return
    assert once.labels == sorted(once.labels)
    for (b, e), (_, new) in zip(once.labels, once.replacements, strict=True):
        assert aliases.entity_of(once.response[b:e]) == new
    twice = corrupt_intrinsic(once.as_record(), graph, aliases)
    assert once.response != record.response
    assert twice.response == record.response
    assert twice.replacements == [(new, old) for old, new in once.replacements]


@settings(PROPERTY, max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(40, 100), k=st.integers(0, 2))
def test_stages_on_a_warm_graph_match_a_fresh_graph(seed, n, k):
    """corrupt, critique and oracle refine give on a second pass, which reads
    the balls the first pass kept, what they give on a new graph."""
    graph, types, aliases, records = sparse_corpus(n, n_triples=n, seed=seed)
    table = init_embeddings(len(graph.entities), len(graph.relations), 8, seed=seed)
    cfg = CorruptionConfig(fraction=0.5, seed=seed, k=k)
    refine_cfg = RefineConfig(k=k, mode="oracle")

    def outputs(g: KnowledgeGraph):
        corrupted, summary = build_synthetic_dataset(records, g, dict(types), cfg, aliases)
        critic = Critic(g, aliases, k=k)
        reports, refined = [], []
        for record in records + [c.as_record() for c in corrupted]:
            report = critic.critique(record)
            reports.append(report)
            refined.append(
                refine_response(record, report, g, table, refine_cfg, aliases).merged_json(record)
            )
        return [c.to_json() for c in corrupted], summary, reports, refined

    first = outputs(graph)
    assert graph._balls
    assert outputs(graph) == first
    assert outputs(fresh(graph)) == first


# --- refinement ---------------------------------------------------------------

@settings(PROPERTY, max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(40, 100),
    k=st.integers(0, 2),
    mode=st.sampled_from(["oracle", "inferred"]),
)
def test_refine_from_written_labels_matches_live_report(seed, n, k, mode):
    """refine reads the labels critique wrote; on originals and corruptions
    that gives the same report, and the same refined record, as the critic."""
    graph, types, aliases, records = sparse_corpus(n, n_triples=n, seed=seed)
    corrupted, _ = build_synthetic_dataset(
        records, graph, types, CorruptionConfig(fraction=0.5, seed=seed, k=k), aliases
    )
    table = init_embeddings(len(graph.entities), len(graph.relations), 8, seed=seed)
    critic = Critic(graph, aliases, k=k)
    cfg = RefineConfig(k=k, mode=mode)
    for record in records + [c.as_record() for c in corrupted]:
        live = critic.critique(record)
        written = json.loads(json.dumps([lab.to_json() for lab in live.labels]))
        read = CriticReport.from_json(written, record.response)
        assert read == live
        assert (
            refine_response(record, read, graph, table, cfg, aliases).merged_json(record)
            == refine_response(record, live, graph, table, cfg, aliases).merged_json(record)
        )
