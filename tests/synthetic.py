"""Deterministic synthetic corpora backing the acceptance tests.

Three generators:

* block_graph / block_split: 60 entities in 7 groups, 4 relations, 300
  triples forming complete bipartite blocks, plus a seeded holdout that
  keeps every entity in the training remainder. Link prediction on this
  graph is learnable because each relation's objects are confined to
  one group.
* sparse_corpus: a larger random sparse graph with typed entities and
  one grounded dialogue record per triple, used to mass-produce
  corruptions whose replacement pools are nonempty.
* chain_graphs: small graphs of unique (source, links, target) pairs
  for end-to-end refinement planting, optionally with isolated
  entities whose neighborhoods contain no candidates at all.
"""

from __future__ import annotations

import numpy as np

from kgfaith import KnowledgeGraph, Triple, Vocabulary
from kgfaith.dialogue import DialogueRecord
from kgfaith.kg import AliasTable

BLOCKS = [
    range(0, 10),
    range(10, 17),
    range(17, 27),
    range(27, 34),
    range(34, 44),
    range(44, 51),
    range(51, 60),
]

# (relation id, subject block, object block); blocks are fully connected.
BLOCK_RELATIONS = [(0, 0, 1), (1, 2, 3), (2, 4, 5), (3, 6, 0)]


def block_vocabularies() -> tuple[Vocabulary, Vocabulary]:
    ents, rels = Vocabulary(), Vocabulary()
    for i in range(60):
        ents.add(f"e{i}")
    for j in range(len(BLOCK_RELATIONS)):
        rels.add(f"r{j}")
    return ents, rels


def block_triples() -> list[Triple]:
    out = []
    for rel, sb, ob in BLOCK_RELATIONS:
        for s in BLOCKS[sb]:
            for o in BLOCKS[ob]:
                out.append(Triple(s, rel, o))
    return out


def block_graph() -> KnowledgeGraph:
    ents, rels = block_vocabularies()
    return KnowledgeGraph(block_triples(), ents, rels)


def block_split(
    seed: int = 0, holdout_size: int = 30
) -> tuple[KnowledgeGraph, list[Triple]]:
    """Split the block graph into a training graph and held-out triples.

    Both sides share one vocabulary (ids 0..59 / 0..3). A triple is
    held out only while each of its endpoints keeps at least two other
    training triples, so every entity stays trainable.
    """
    triples = block_triples()
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(triples))
    degree: dict[int, int] = {}
    for t in triples:
        degree[t.s] = degree.get(t.s, 0) + 1
        degree[t.o] = degree.get(t.o, 0) + 1
    held: list[Triple] = []
    held_idx: set[int] = set()
    for idx in order:
        if len(held) == holdout_size:
            break
        t = triples[idx]
        if degree[t.s] > 2 and degree[t.o] > 2:
            degree[t.s] -= 1
            degree[t.o] -= 1
            held.append(t)
            held_idx.add(int(idx))
    train = [t for i, t in enumerate(triples) if i not in held_idx]
    ents, rels = block_vocabularies()
    return KnowledgeGraph(train, ents, rels), held


def sparse_corpus(
    n_entities: int = 600,
    n_relations: int = 4,
    n_triples: int = 900,
    n_types: int = 6,
    seed: int = 11,
) -> tuple[KnowledgeGraph, dict[str, str], AliasTable, list[DialogueRecord]]:
    """Random sparse graph plus one grounded record per triple.

    Each record's response mentions both endpoints of its grounding
    triple exactly once, so either corruption strategy can apply; the
    low mean degree keeps 2-hop neighborhoods small, leaving plenty of
    same-type replacement candidates outside them.
    """
    rng = np.random.default_rng(seed)
    ents, rels = Vocabulary(), Vocabulary()
    for i in range(n_entities):
        ents.add(f"e{i}")
    for j in range(n_relations):
        rels.add(f"r{j}")
    seen: set[tuple[int, int, int]] = set()
    triples: list[Triple] = []
    while len(triples) < n_triples:
        s = int(rng.integers(n_entities))
        o = int(rng.integers(n_entities))
        p = int(rng.integers(n_relations))
        if s == o or (s, p, o) in seen:
            continue
        seen.add((s, p, o))
        triples.append(Triple(s, p, o))
    graph = KnowledgeGraph(triples, ents, rels)
    types = {f"e{i}": f"type{i % n_types}" for i in range(n_entities)}
    aliases = AliasTable.from_names([f"e{i}" for i in range(n_entities)])
    records = []
    for t in triples:
        s, o = f"e{t.s}", f"e{t.o}"
        records.append(
            DialogueRecord(
                history=[f"let us discuss {s} ."],
                triples=[(s, f"r{t.p}", o)],
                response=f"i think {o} comes after {s} .",
            )
        )
    return graph, types, aliases, records


def chain_graph(
    n_pairs: int = 10, n_labels: int = 3, isolated: int = 0
) -> tuple[KnowledgeGraph, AliasTable]:
    """Unique source->target pairs with shared label hubs.

    src_i --links--> dst_i is each source's only links-edge, so the
    target is the uniquely supported answer for a links query anchored
    at the source. Isolated entities (if any) sit in the vocabulary
    with no edges: their neighborhoods contain only themselves.
    """
    ents, rels = Vocabulary(), Vocabulary()
    names = []
    for i in range(n_pairs):
        names.append(f"src_{i}")
    for i in range(n_pairs):
        names.append(f"dst_{i}")
    for j in range(n_labels):
        names.append(f"lab_{j}")
    for x in range(isolated):
        names.append(f"iso_{x}")
    ids = {name: ents.add(name) for name in names}
    rels.add("links")
    rels.add("tags")
    triples = []
    for i in range(n_pairs):
        src = ids[f"src_{i}"]
        dst = ids[f"dst_{i}"]
        lab = ids[f"lab_{i % n_labels}"]
        other = ids[f"lab_{(i + 1) % n_labels}"]
        triples.append(Triple(src, 0, dst))
        triples.append(Triple(dst, 1, lab))
        triples.append(Triple(src, 1, other))
    graph = KnowledgeGraph(triples, ents, rels)
    return graph, AliasTable.from_names(names)


def planted_record(source: str, relation: str, target: str) -> DialogueRecord:
    """A record whose response hallucinates an out-of-graph entity.

    Anchors are meant to come from the history (the source mention);
    the grounding triple names the supported answer without exposing
    it as an anchor.
    """
    response = "the answer is phantom_item ."
    begin = response.index("phantom_item")
    return DialogueRecord(
        history=[f"question about {source} ."],
        triples=[(source, relation, target)],
        response=response,
        spans=[("phantom_item", begin, begin + len("phantom_item"))],
    )
