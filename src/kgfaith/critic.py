"""Deterministic hallucination critic.

Links entity mentions in a response against an alias table, then labels
each mention by checking it against the local graph neighborhood and the
dialogue history:

* extrinsic: the entity is not a node of the subgraph and its surface
  never appears in the history;
* intrinsic: two subgraph entities co-occur in the response without a
  direct edge between them (the directed mode additionally demands the
  right orientation whenever a relation phrase links the pair in text);
* faithful: everything else.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

from .dialogue import DialogueRecord, MentionSpan
from .errors import UnknownEntity, UnlinkedResponse
from .kg import AliasTable, KnowledgeGraph, Subgraph, _read_tsv, canonical

logger = logging.getLogger(__name__)

FAITHFUL = "faithful"
EXTRINSIC = "extrinsic"
INTRINSIC = "intrinsic"

INTRINSIC_MODES = ("undirected", "directed")
ANCHOR_SOURCES = ("kn", "history")


@dataclass(frozen=True)
class SpanLabel:
    begin: int
    end: int
    label: str

    def to_json(self) -> dict:
        return {"begin": self.begin, "end": self.end, "label": self.label}


@dataclass
class CriticReport:
    """Per-mention labels plus the sentence-level flag."""

    mentions: list[MentionSpan]
    labels: list[SpanLabel]
    anchors: tuple[int, ...]
    subgraph: Subgraph

    @property
    def flagged(self) -> bool:
        return any(lab.label != FAITHFUL for lab in self.labels)

    @property
    def flagged_spans(self) -> list[SpanLabel]:
        """The set of hallucinated mentions (extrinsic or intrinsic)."""
        return [lab for lab in self.labels if lab.label != FAITHFUL]


def link_mentions(
    text: str,
    aliases: AliasTable,
    graph: KnowledgeGraph | None = None,
) -> list[MentionSpan]:
    """Find entity mentions: leftmost-longest, case-insensitive, non-overlapping.

    Each match is resolved back to its entity via the alias table;
    entities absent from the graph vocabulary get entity_id None.
    """
    pattern = aliases.mention_pattern()
    if pattern is None or not text:
        return []
    spans: list[MentionSpan] = []
    for m in pattern.finditer(text):
        surface = m.group(0)
        entity = aliases.entity_of(surface)
        if entity is None:  # pragma: no cover - table built the pattern
            continue
        entity_id = graph.entities.get(entity) if graph is not None else None
        spans.append(
            MentionSpan(
                begin=m.start(),
                end=m.end(),
                surface=surface,
                entity=entity,
                entity_id=entity_id,
            )
        )
    return spans


def load_relation_phrases(path: str | Path) -> dict[str, list[str]]:
    """Read ``relation<TAB>phrase`` lines into {relation: [phrases]}."""
    phrases: dict[str, list[str]] = {}
    for _, (relation, phrase) in _read_tsv(path, 2):
        phrases.setdefault(relation, []).append(" ".join(phrase.split()))
    return phrases


def response_mentions(
    record: DialogueRecord,
    aliases: AliasTable | None,
    graph: KnowledgeGraph | None = None,
) -> list[MentionSpan]:
    """The response's entity mentions, in text order.

    Pre-linked (entity, begin, end) spans on the record win; otherwise
    link_mentions finds them, which needs an alias table. Entities
    absent from the graph (or with no graph given) get entity_id None.
    """
    if record.spans is None:
        if aliases is None:
            raise ValueError("linking needs an alias table when spans are not pre-linked")
        return link_mentions(record.response, aliases, graph)
    mentions = [
        MentionSpan(
            begin=begin,
            end=end,
            surface=record.response[begin:end],
            entity=entity,
            entity_id=graph.entities.get(entity) if graph is not None else None,
        )
        for entity, begin, end in record.spans
    ]
    mentions.sort(key=lambda m: m.begin)
    return mentions


def derive_anchors(
    record: DialogueRecord,
    graph: KnowledgeGraph,
    aliases: AliasTable | None = None,
    source: str = "kn",
) -> tuple[int, ...]:
    """Anchor entities c for the record's neighborhood, in first-seen order.

    "kn" takes subjects and objects of the grounding triples (an unknown
    name raises UnknownEntity). "history" links mentions over the history
    turns and keeps those found in the graph; it needs an alias table.
    """
    if source not in ANCHOR_SOURCES:
        raise ValueError(f"anchor source must be one of {ANCHOR_SOURCES}, got {source!r}")
    anchors: list[int] = []
    seen: set[int] = set()
    if source == "kn":
        for s, _, o in record.triples:
            for name in (s, o):
                idx = graph.entities.get(name)
                if idx is None:
                    raise UnknownEntity(name)
                if idx not in seen:
                    seen.add(idx)
                    anchors.append(idx)
    else:
        if aliases is None:
            raise ValueError("history anchor source needs an alias table")
        for turn in record.history:
            for m in link_mentions(turn, aliases, graph):
                if m.entity_id is not None and m.entity_id not in seen:
                    seen.add(m.entity_id)
                    anchors.append(m.entity_id)
    return tuple(anchors)


def _surface_in_history(surface: str, folded_history: list[str]) -> bool:
    """True when the surface occurs in a turn; turns come already canonical()."""
    folded = canonical(surface)
    return any(folded in turn for turn in folded_history)


def critique_response(
    record: DialogueRecord,
    sub: Subgraph,
    graph: KnowledgeGraph | None = None,
    aliases: AliasTable | None = None,
    mode: str = "undirected",
    relation_phrases: dict[str, list[str]] | None = None,
) -> CriticReport:
    """Label every mention of the response as faithful/extrinsic/intrinsic.

    Pre-linked spans on the record win over fresh linking. The directed
    intrinsic mode consults ``relation_phrases``: when a phrase of
    relation r occurs in the text between two subgraph mentions, some
    matched relation must hold as the oriented triple
    (first mention, r, second mention), otherwise the pair is intrinsic.
    """
    if mode not in INTRINSIC_MODES:
        raise ValueError(f"mode must be one of {INTRINSIC_MODES}, got {mode!r}")
    mentions = response_mentions(record, aliases, graph)
    if not mentions and record.spans is None and record.triples:
        raise UnlinkedResponse(
            "no mention spans found in a response with grounding triples"
        )

    labels = [FAITHFUL] * len(mentions)
    in_sub = [m.entity_id is not None and sub.has_node(m.entity_id) for m in mentions]

    folded_history = [canonical(turn) for turn in record.history]
    for i, m in enumerate(mentions):
        if not in_sub[i] and not _surface_in_history(m.surface, folded_history):
            labels[i] = EXTRINSIC

    phrase_to_relation: list[tuple[str, str]] = []
    if mode == "directed" and relation_phrases:
        for rel, forms in relation_phrases.items():
            for form in forms:
                phrase_to_relation.append((canonical(form), rel))

    for i in range(len(mentions)):
        if not in_sub[i]:
            continue
        for j in range(i + 1, len(mentions)):
            if not in_sub[j]:
                continue
            first, second = mentions[i], mentions[j]
            if first.entity_id == second.entity_id:
                continue
            assert first.entity_id is not None and second.entity_id is not None
            bad = not sub.has_direct_edge(first.entity_id, second.entity_id)
            if not bad and phrase_to_relation and graph is not None:
                between = canonical(record.response[first.end : second.begin])
                matched = [rel for form, rel in phrase_to_relation if form in between]
                if matched:
                    forward = {
                        t.p for t in graph.direct_edges(first.entity_id, second.entity_id)
                    }
                    bad = not any(graph.relations.get(rel) in forward for rel in matched)
            if bad:
                labels[i] = INTRINSIC
                labels[j] = INTRINSIC

    span_labels = [
        SpanLabel(m.begin, m.end, lab) for m, lab in zip(mentions, labels)
    ]
    return CriticReport(
        mentions=mentions,
        labels=span_labels,
        anchors=sub.centers,
        subgraph=sub,
    )


class Critic:
    """Convenience wrapper tying graph, aliases, and policy together."""

    def __init__(
        self,
        graph: KnowledgeGraph,
        aliases: AliasTable,
        *,
        k: int = 2,
        mode: str = "undirected",
        relation_phrases: dict[str, list[str]] | None = None,
        anchor_source: str = "kn",
    ) -> None:
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if mode not in INTRINSIC_MODES:
            raise ValueError(f"mode must be one of {INTRINSIC_MODES}, got {mode!r}")
        if mode == "directed" and not relation_phrases:
            raise ValueError("the directed mode needs relation phrases")
        if anchor_source not in ANCHOR_SOURCES:
            raise ValueError(
                f"anchor source must be one of {ANCHOR_SOURCES}, got {anchor_source!r}"
            )
        self.graph = graph
        self.aliases = aliases
        self.k = k
        self.mode = mode
        self.relation_phrases = relation_phrases
        self.anchor_source = anchor_source

    def anchors_for(self, record: DialogueRecord) -> tuple[int, ...]:
        return derive_anchors(record, self.graph, self.aliases, self.anchor_source)

    def subgraph_for(self, record: DialogueRecord) -> Subgraph:
        anchors = self.anchors_for(record)
        if not anchors:
            return Subgraph.empty(radius=self.k)
        return self.graph.khop_subgraph(anchors, self.k)

    def critique(self, record: DialogueRecord, sub: Subgraph | None = None) -> CriticReport:
        if sub is None:
            sub = self.subgraph_for(record)
        return critique_response(
            record,
            sub,
            graph=self.graph,
            aliases=self.aliases,
            mode=self.mode,
            relation_phrases=self.relation_phrases,
        )
