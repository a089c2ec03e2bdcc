"""Deterministic hallucination critic.

Links entity mentions in a response against an alias table, then labels
each mention by checking it against the local graph neighborhood and the
dialogue history:

* extrinsic: the entity is not in the k-hop ball and its surface
  never appears in the history;
* intrinsic: two entities of the ball co-occur in the response without a
  direct edge between them (given relation phrases, the edge must also
  have the right orientation whenever a phrase links the pair in text);
* faithful: everything else.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Any, NamedTuple

from .choices import ANCHOR_SOURCES
from .dialogue import DialogueRecord, MentionSpan, check_spans
from .errors import UnknownEntity, UnlinkedResponse
from .kg import AliasTable, KnowledgeGraph, _read_tsv, canonical, check_radius

logger = logging.getLogger(__name__)

FAITHFUL = "faithful"
EXTRINSIC = "extrinsic"
INTRINSIC = "intrinsic"
LABELS = (FAITHFUL, EXTRINSIC, INTRINSIC)


class SpanLabel(NamedTuple):
    """The label of the mention at [begin, end) of a response."""

    begin: int
    end: int
    label: str

    def to_json(self) -> dict:
        return {"begin": self.begin, "end": self.end, "label": self.label}


@dataclass
class CriticReport:
    """Per-mention labels plus the sentence-level flag."""

    labels: list[SpanLabel]

    @classmethod
    def from_json(cls, labels: Any, response: str) -> CriticReport:
        """Parse the ``labels`` that ``critique`` writes for ``response``.

        The inverse of ``[lab.to_json() for lab in report.labels]``. The
        labels come from a file, so each must be a ``{begin, end, label}``
        object with a known label, and the spans must pass check_spans;
        anything else raises ValueError.
        """
        if not isinstance(labels, list):
            raise ValueError(
                f"labels must be a list of {{begin, end, label}} objects, got {labels!r}"
            )
        parsed = []
        for item in labels:
            if not isinstance(item, dict) or set(item) != {"begin", "end", "label"}:
                raise ValueError(f"label must be a {{begin, end, label}} object, got {item!r}")
            if item["label"] not in LABELS:
                raise ValueError(f"label must be one of {LABELS}, got {item['label']!r}")
            parsed.append(SpanLabel(item["begin"], item["end"], item["label"]))
        check_spans([(lab.begin, lab.end) for lab in parsed], response)
        return cls(parsed)

    @property
    def flagged(self) -> bool:
        return any(lab.label != FAITHFUL for lab in self.labels)

    @property
    def flagged_spans(self) -> list[SpanLabel]:
        """The set of hallucinated mentions (extrinsic or intrinsic)."""
        return [lab for lab in self.labels if lab.label != FAITHFUL]


def _mention(text: str, begin: int, end: int, entity: str, graph: KnowledgeGraph) -> MentionSpan:
    """The mention of ``entity`` at text[begin:end], with its graph id or None."""
    return MentionSpan(begin, end, text[begin:end], entity, graph.entities.get(entity))


def link_mentions(
    text: str, aliases: AliasTable, graph: KnowledgeGraph
) -> list[MentionSpan]:
    """Find entity mentions: leftmost-longest, case-insensitive, non-overlapping.

    Each match is resolved back to its entity via the alias table;
    entities absent from the graph vocabulary get entity_id None.
    """
    spans: list[MentionSpan] = []
    for begin, end in aliases.match_spans(text):
        entity = aliases.entity_of(text[begin:end])
        if entity is None:
            # Equal to a surface case-insensitively but not once lowercased
            # ("İ" matches "i"): no mention, and the scan resumed after it.
            continue
        spans.append(_mention(text, begin, end, entity, graph))
    return spans


def load_relation_phrases(path: str | Path) -> dict[str, list[str]]:
    """Read ``relation<TAB>phrase`` lines into {relation: [phrases]}."""
    phrases: dict[str, list[str]] = {}
    for _, (relation, phrase) in _read_tsv(path, 2):
        phrases.setdefault(relation, []).append(" ".join(phrase.split()))
    return phrases


def response_mentions(
    record: DialogueRecord, aliases: AliasTable, graph: KnowledgeGraph
) -> list[MentionSpan]:
    """The response's entity mentions, in text order.

    Pre-linked (entity, begin, end) spans on the record win; otherwise
    link_mentions finds them. Entities absent from the graph get
    entity_id None.
    """
    if record.spans is None:
        return link_mentions(record.response, aliases, graph)
    mentions = [_mention(record.response, b, e, entity, graph) for entity, b, e in record.spans]
    return sorted(mentions, key=lambda m: m.begin)


def check_anchor_source(source: str) -> None:
    if source not in ANCHOR_SOURCES:
        raise ValueError(f"anchor source must be one of {ANCHOR_SOURCES}, got {source!r}")


def derive_anchors(
    record: DialogueRecord, graph: KnowledgeGraph, aliases: AliasTable, source: str
) -> tuple[int, ...]:
    """Anchor entities c for the record's neighborhood, in first-seen order.

    "kn" takes subjects and objects of the grounding triples (the first
    unknown name raises UnknownEntity). "history" links mentions over the
    history turns and keeps those found in the graph.
    """
    check_anchor_source(source)
    if source == "kn":
        names = [name for s, _, o in record.triples for name in (s, o)]
        found = list(map(graph.entities.get, names))
        if None in found:
            raise UnknownEntity(names[found.index(None)])
    else:
        found = [
            m.entity_id
            for turn in record.history
            for m in link_mentions(turn, aliases, graph)
            if m.entity_id is not None
        ]
    return tuple(dict.fromkeys(found))


def _surface_in_history(surface: str, folded_history: list[str]) -> bool:
    """True when the surface occurs in a turn; turns come already canonical()."""
    folded = canonical(surface)
    return any(folded in turn for turn in folded_history)


def _check_phrases(relation_phrases: dict[str, list[str]] | None) -> None:
    if relation_phrases is not None and not relation_phrases:
        raise ValueError("the relation-phrase table is empty")


def critique_response(
    record: DialogueRecord,
    ball: frozenset[int],
    graph: KnowledgeGraph,
    aliases: AliasTable,
    relation_phrases: dict[str, list[str]] | None = None,
) -> CriticReport:
    """Label every mention of the response as faithful/extrinsic/intrinsic.

    ``ball`` is the record's k-hop ball (KnowledgeGraph.ball). Pre-linked
    spans on the record win over fresh linking. Two mentions inside the
    ball pass the pair check when the graph has an edge between them in
    either direction; the edge joins two ball nodes, so it is an edge
    induced on the ball, and the out-edges of the two ids answer without
    building those edges. The history is folded only when a mention lies
    outside the ball. Relation phrases (an empty table raises
    ValueError) make the check directed: when a phrase of relation r
    occurs in the text between two mentions inside the ball, some matched
    relation must hold as the oriented triple (first mention, r, second
    mention), otherwise the pair is intrinsic.
    """
    _check_phrases(relation_phrases)
    mentions = response_mentions(record, aliases, graph)
    if not mentions and record.spans is None and record.triples:
        raise UnlinkedResponse(
            "no mention spans found in a response with grounding triples"
        )

    labels = [FAITHFUL] * len(mentions)
    in_ball = [m.entity_id in ball for m in mentions]

    if not all(in_ball):
        folded_history = [canonical(turn) for turn in record.history]
        for i, m in enumerate(mentions):
            if not in_ball[i] and not _surface_in_history(m.surface, folded_history):
                labels[i] = EXTRINSIC

    phrase_to_relation = [
        (canonical(form), rel)
        for rel, forms in (relation_phrases or {}).items()
        for form in forms
    ]

    for i, j in combinations([i for i, inside in enumerate(in_ball) if inside], 2):
        first, second = mentions[i], mentions[j]
        a, b = first.entity_id, second.entity_id
        if a == b:
            continue
        forward = [t for t in graph.out_edges(a) if t.o == b]
        bad = not (forward or any(t.o == a for t in graph.out_edges(b)))
        if not bad and phrase_to_relation:
            between = canonical(record.response[first.end : second.begin])
            matched = [rel for form, rel in phrase_to_relation if form in between]
            if matched:
                relations = {t.p for t in forward}
                bad = not any(graph.relations.get(rel) in relations for rel in matched)
        if bad:
            labels[i] = INTRINSIC
            labels[j] = INTRINSIC

    return CriticReport([SpanLabel(m.begin, m.end, lab) for m, lab in zip(mentions, labels)])


class Critic:
    """Convenience wrapper tying graph, aliases, and policy together."""

    def __init__(
        self,
        graph: KnowledgeGraph,
        aliases: AliasTable,
        *,
        k: int = 2,
        relation_phrases: dict[str, list[str]] | None = None,
        anchor_source: str = "kn",
    ) -> None:
        check_radius(k)
        _check_phrases(relation_phrases)
        check_anchor_source(anchor_source)
        self.graph = graph
        self.aliases = aliases
        self.k = k
        self.relation_phrases = relation_phrases
        self.anchor_source = anchor_source

    def critique(self, record: DialogueRecord) -> CriticReport:
        anchors = derive_anchors(record, self.graph, self.aliases, self.anchor_source)
        return critique_response(
            record,
            self.graph.ball(anchors, self.k),
            self.graph,
            self.aliases,
            relation_phrases=self.relation_phrases,
        )
