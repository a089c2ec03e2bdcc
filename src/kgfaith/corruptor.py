"""Synthetic hallucination generator.

Turns faithful grounded responses into labelled negatives two ways:

* extrinsic: swap each entity mention for a same-type entity whose
  preferred surface links back to it, drawn uniformly from outside the
  local k-hop ball and the dialogue history, so the replacement is
  guaranteed to be a detectable hallucination;
* intrinsic: exchange the subject and object surfaces of a grounding
  triple in place, producing a reversed (unsupported) assertion while
  keeping the token multiset intact.

A dataset builder assigns one strategy per record by seeded shuffle at
a configurable fraction, with fallback-or-drop handling for records a
strategy cannot corrupt.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Mapping, Sequence, Set
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, NamedTuple

import numpy as np

from .choices import POLICIES
from .critic import EXTRINSIC, INTRINSIC, derive_anchors, response_mentions
from .dialogue import DialogueRecord, MentionSpan, splice
from .errors import (
    AllRecordsDropped,
    NoEligibleReplacement,
    NotApplicable,
    UnknownEntity,
)
from .kg import AliasTable, KnowledgeGraph, Vocabulary, canonical, check_radius

logger = logging.getLogger(__name__)


def round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


@dataclass(frozen=True)
class CorruptionConfig:
    """Knobs for dataset generation.

    fraction is the share of records corrupted extrinsically; the rest
    go intrinsic. policy says what to do when the assigned strategy is
    not applicable to a record: try the other one ("fallback") or drop
    the record ("drop"). k is the neighborhood radius used to build the
    exclusion ball for extrinsic replacements; keep it at least as
    large as the critic's radius so generated negatives stay detectable.
    """

    fraction: float = 0.6
    seed: int = 0
    policy: str = "fallback"
    k: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {self.fraction}")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        check_radius(self.k)


@dataclass
class CorruptedRecord:
    """A corrupted response plus the labels that mark what changed."""

    original: DialogueRecord
    response: str
    kind: str
    labels: list[tuple[int, int]]
    replacements: list[tuple[str, str]]

    def to_json(self) -> dict[str, Any]:
        return {
            **self.as_record().to_json(),
            "labels": [list(s) for s in self.labels],
            "kind": self.kind,
            "replacements": [list(r) for r in self.replacements],
        }

    def as_record(self) -> DialogueRecord:
        """Re-wrap as a dialogue record (for critiquing or re-corrupting)."""
        return DialogueRecord(
            history=list(self.original.history),
            triples=list(self.original.triples),
            response=self.response,
        )


def excluded_ids(
    history: list[str], ball: frozenset[int], graph: KnowledgeGraph, aliases: AliasTable
) -> set[int]:
    """Ids no extrinsic replacement of the record may take.

    Those are the record's k-hop ``ball`` and every graph entity with a
    surface form occurring in a (canonical) history turn. Raw substrings
    count: "e1" occurs in "let us discuss e12". A surface several
    entities list counts for each of them.
    """
    names = graph.entities
    excluded = set(ball)
    for turn in history:
        for entity in aliases.entities_in(canonical(turn)):
            i = names.get(entity)
            if i is not None and names.name_of(i) == entity:
                excluded.add(i)
    return excluded


class Candidates(NamedTuple):
    """Replacement ids in ascending order, and each one's index among them."""

    ids: Sequence[int]
    position: dict[int, int]

    @classmethod
    def of(cls, ids: Sequence[int]) -> Candidates:
        return cls(ids, {i: p for p, i in enumerate(ids)})


class _Pool(Sequence[str]):
    """Names of the candidates minus the excluded ids and ``own``, looked up lazily.

    Only the positions of the excluded candidates are kept, read from the
    candidates' position map, so building the pool costs the number of
    exclusions, and len() and each item cost at most that, not the number
    of candidates.
    """

    def __init__(
        self, candidates: Candidates, excluded: Set[int], own: int | None, names: Vocabulary
    ) -> None:
        self._ids, position = candidates
        self._names = names
        hits = position.keys() & excluded
        if own in position:
            hits.add(own)
        self._skipped = sorted(map(position.__getitem__, hits))

    def __len__(self) -> int:
        return len(self._ids) - len(self._skipped)

    def __getitem__(self, j: int) -> str:  # type: ignore[override]
        size = len(self)
        if not -size <= j < size:
            raise IndexError("pool index out of range")
        p = j % size
        for skipped in self._skipped:
            if skipped > p:
                break
            p += 1
        return self._names.name_of(self._ids[p])


def _positional_ids(
    entity_id: int, graph: KnowledgeGraph, same_type: dict[Any, Any], aliases: AliasTable
) -> Candidates:
    """Ids sharing a predicate-and-slot with the entity and linking back, ascending.

    Coarse stand-in for a type when the type map has no entry. Entities
    with the same relation slots share one Candidates, which includes
    them. It is built on first use and kept in ``same_type`` under that
    slot set.
    Each (relation, slot) pair's linking-back entities are kept there
    too, under the pair, so an entity is checked against the alias table
    once per slot it fills and per map, whatever sets the slot is part of.
    """
    signature = frozenset(
        [(t.p, 0) for t in graph.out_edges(entity_id)]
        + [(t.p, 1) for t in graph.in_edges(entity_id)]
    )
    kept = same_type.get(signature)
    if kept is None:
        names, links_back = graph.entities, aliases.links_back
        peers: set[int] = set()
        for p, slot in signature:
            linked = same_type.get((p, slot))
            if linked is None:
                linked = [i for i in graph.relation_slots[p][slot] if names.name_of(i) in links_back]
                same_type[(p, slot)] = linked
            peers.update(linked)
        kept = Candidates.of(sorted(peers))
        same_type[signature] = kept
    return kept


def same_type_ids(
    types: Mapping[str, str], graph: KnowledgeGraph, aliases: AliasTable
) -> dict[str, Candidates]:
    """Entity name -> the replacements of its declared type, in id order.

    A replacement is a graph entity of that type whose preferred surface
    links back to it. Every name in the type map gets an entry, also one
    the graph lacks; names of one type share one Candidates.
    """
    links_back = aliases.links_back
    members: dict[str, list[int]] = {}
    for i, name in enumerate(graph.entities):
        kind = types.get(name)
        if kind is not None and name in links_back:
            members.setdefault(kind, []).append(i)
    kept = {kind: Candidates.of(ids) for kind, ids in members.items()}
    none = Candidates([], {})
    return {name: kept.get(kind, none) for name, kind in types.items()}


def replacement_pool(
    mention_entity: str,
    graph: KnowledgeGraph,
    excluded: Set[int],
    same_type: dict[Any, Any],
    aliases: AliasTable,
) -> Sequence[str]:
    """Eligible same-type replacements, sorted by entity id.

    Eligible means: a graph entity of the same declared type (from
    ``same_type``, built by same_type_ids; when it misses the mention,
    one sharing a predicate-and-slot with it, Candidates ``same_type``
    then keeps), whose preferred surface links back to it, not the
    mention itself, and not in ``excluded`` (excluded_ids of the record).
    The pool is a lazy sequence over the candidate list: building it and
    drawing from it cost the excluded entities, not the candidates.
    """
    candidates = same_type.get(mention_entity)
    own = graph.entities.get(mention_entity)
    if candidates is None:
        if own is None:
            return ()
        candidates = _positional_ids(own, graph, same_type, aliases)
    return _Pool(candidates, excluded, own, graph.entities)


def _spliced(
    record: DialogueRecord, kind: str, edits: list[tuple[int, int, str]],
    replacements: list[tuple[str, str]],
) -> CorruptedRecord:
    """Splice edits[i], which puts in replacements[i], into the response; all in text order."""
    corrupted, spans = splice(record.response, edits)
    order = sorted(range(len(spans)), key=lambda i: spans[i][0])
    labels = [spans[i] for i in order]
    return CorruptedRecord(record, corrupted, kind, labels, [replacements[i] for i in order])


def corrupt_extrinsic(
    record: DialogueRecord,
    graph: KnowledgeGraph,
    ball: frozenset[int],
    same_type: dict[Any, Any],
    rng: np.random.Generator,
    aliases: AliasTable,
) -> CorruptedRecord:
    """Replace every mention that has an eligible out-of-neighborhood peer.

    Each replaced mention gets an independent uniform draw from its
    pool; the record's excluded ids are found once for all its mentions.
    Raises NoEligibleReplacement when no mention can be replaced.
    """
    mentions = response_mentions(record, aliases, graph)
    if not mentions:
        raise NoEligibleReplacement("record has no mention spans")
    excluded = excluded_ids(record.history, ball, graph, aliases)
    edits: list[tuple[int, int, str]] = []
    replacements: list[tuple[str, str]] = []
    for m in mentions:
        pool = replacement_pool(m.entity, graph, excluded, same_type, aliases)
        if not pool:
            continue
        choice = pool[int(rng.integers(len(pool)))]
        edits.append((m.begin, m.end, aliases.preferred(choice)))
        replacements.append((m.entity, choice))
    if not edits:
        raise NoEligibleReplacement(
            "every mention has an empty replacement pool"
        )
    return _spliced(record, EXTRINSIC, edits, replacements)


def corrupt_intrinsic(
    record: DialogueRecord, graph: KnowledgeGraph, aliases: AliasTable
) -> CorruptedRecord:
    """Swap subject and object surfaces of grounding triples in the text.

    A triple is swappable when both its entities are mentioned exactly
    once (an ambiguous multi-mention swap has no well-defined inverse),
    the two spans are distinct, neither span was already swapped for an
    earlier triple, and the predicate does not hold in both orientations
    (a symmetric fact would stay faithful when reversed). Applying the
    operation twice restores the original response byte for byte.
    """
    mentions = response_mentions(record, aliases, graph)
    by_entity: dict[str, list[MentionSpan]] = {}
    for m in mentions:
        by_entity.setdefault(m.entity, []).append(m)

    used: set[int] = set()
    pairs: list[tuple[MentionSpan, MentionSpan]] = []
    saw_pair = False
    for s, p, o in record.triples:
        if s == o:
            continue
        ms, mo = by_entity.get(s), by_entity.get(o)
        if not ms or not mo:
            continue
        saw_pair = True
        if len(ms) != 1 or len(mo) != 1:
            logger.debug("skipping ambiguous pair (%s, %s): repeated mention", s, o)
            continue
        a, b = ms[0], mo[0]
        if a.begin in used or b.begin in used:
            continue
        pid = graph.relations.get(p)
        if (
            a.entity_id is not None
            and b.entity_id is not None
            and any(t.o == a.entity_id and t.p == pid for t in graph.out_edges(b.entity_id))
        ):
            logger.debug("skipping bidirectional pair (%s, %s, %s)", s, p, o)
            continue
        used.add(a.begin)
        used.add(b.begin)
        pairs.append((a, b))

    if not pairs:
        if saw_pair:
            raise NotApplicable("all mentioned pairs are bidirectional or ambiguous")
        raise NotApplicable("no grounding triple has both entities mentioned")

    edits: list[tuple[int, int, str]] = []
    replacements: list[tuple[str, str]] = []
    for a, b in pairs:
        first, second = (a, b) if a.begin < b.begin else (b, a)
        edits.append((first.begin, first.end, second.surface))
        replacements.append((first.entity, second.entity))
        edits.append((second.begin, second.end, first.surface))
        replacements.append((second.entity, first.entity))
    return _spliced(record, INTRINSIC, edits, replacements)


@dataclass
class DatasetSummary:
    records: int
    assigned_extrinsic: int
    assigned_intrinsic: int
    realized_extrinsic: int = 0
    realized_intrinsic: int = 0
    fallback_to_extrinsic: int = 0
    fallback_to_intrinsic: int = 0
    dropped: int = 0
    drop_reasons: list[str] = field(default_factory=list)


def build_synthetic_dataset(
    records: list[DialogueRecord],
    graph: KnowledgeGraph,
    types: Mapping[str, str],
    cfg: CorruptionConfig,
    aliases: AliasTable,
) -> tuple[list[CorruptedRecord], DatasetSummary]:
    """Corrupt a batch of records at the configured extrinsic fraction.

    Strategy assignment is a seeded shuffle-then-split so the realized
    pre-fallback quota is exactly round(fraction * N). Each record's
    randomness comes from a substream keyed by (seed, record index),
    making output byte-identical across runs and worker schedules. A
    record grounded on an entity the graph lacks has no exclusion
    ball, so its extrinsic attempt fails with UnknownEntity and
    takes the fallback-or-drop path. The caller passes the alias table
    it links with; AliasTable.from_names makes every entity name its own
    surface form.

    The candidate lists (same_type_ids, and the positional lists
    replacement_pool adds) depend only on the graph, the type map and the
    links-back set, so the graph keeps them (KnowledgeGraph.memo): a later
    call with an equal type map and links-back set reuses them. An alias
    table never changes once built and keeps its links-back set, so the
    same table matches by identity. A read-only type map (a MappingProxyType,
    which load_entity_types returns) is kept as it is and found equal by
    identity; its backing dict must not change. Any other map is copied.
    """
    if not records:
        raise AllRecordsDropped("no input records")
    # A dict is copied: the caller may edit it in place.
    kept_types = types if isinstance(types, MappingProxyType) else dict(types)
    same_type = graph.memo(
        "same_type_ids",
        (aliases.links_back, kept_types),
        lambda: same_type_ids(types, graph, aliases),
    )

    n = len(records)
    quota = round_half_up(cfg.fraction * n)
    perm = np.random.default_rng(cfg.seed).permutation(n)
    extrinsic_assigned = {int(i) for i in perm[:quota]}
    summary = DatasetSummary(
        records=n, assigned_extrinsic=quota, assigned_intrinsic=n - quota
    )

    def try_extrinsic(rec: DialogueRecord, idx: int) -> CorruptedRecord:
        rng = np.random.default_rng([cfg.seed, idx])
        ball = graph.ball(derive_anchors(rec, graph, aliases, "kn"), cfg.k)
        return corrupt_extrinsic(rec, graph, ball, same_type, rng, aliases)

    out: list[CorruptedRecord] = []
    for idx, rec in enumerate(records):
        assigned, other = (
            (EXTRINSIC, INTRINSIC) if idx in extrinsic_assigned else (INTRINSIC, EXTRINSIC)
        )
        plan = (assigned, other) if cfg.policy == "fallback" else (assigned,)
        produced: CorruptedRecord | None = None
        for kind in plan:
            try:
                if kind == EXTRINSIC:
                    produced = try_extrinsic(rec, idx)
                else:
                    produced = corrupt_intrinsic(rec, graph, aliases)
                break
            except (NoEligibleReplacement, NotApplicable, UnknownEntity) as err:
                logger.debug("record %d: %s corruption failed: %s", idx, kind, err)
        if produced is None:
            summary.dropped += 1
            summary.drop_reasons.append(f"record {idx}: no strategy applicable")
            continue
        fallback = produced.kind != assigned
        if produced.kind == EXTRINSIC:
            summary.realized_extrinsic += 1
            summary.fallback_to_extrinsic += fallback
        else:
            summary.realized_intrinsic += 1
            summary.fallback_to_intrinsic += fallback
        out.append(produced)

    if not out:
        raise AllRecordsDropped(f"all {n} records dropped")
    logger.info(
        "corrupted %d/%d records (%d extrinsic, %d intrinsic, %d dropped)",
        len(out), n, summary.realized_extrinsic, summary.realized_intrinsic,
        summary.dropped,
    )
    return out, summary
