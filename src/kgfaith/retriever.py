"""Entity retrieval and response refinement.

For every mention the critic flagged, build a d-dimensional query
vector (three modes: the grounding triple's relation, a relation
inferred by exhaustive scoring, or externally supplied vectors), rank
the entities of the local subgraph against the anchor with the
trilinear scorer, and splice the winner's surface form over the span.
Retrieved entities can chain: each one joins the anchor set used for
the mentions that follow, so later queries see an enlarged
neighborhood and earlier picks are excluded from later candidate sets.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from .critic import CriticReport, check_anchor_source, derive_anchors
from .dialogue import DialogueRecord, splice
from .embeddings import EmbeddingTable, trilinear
from .errors import (
    DimensionMismatch,
    EmptySubgraph,
    MalformedLine,
    NoGroundingRelation,
    RetrievalImpossible,
    SourceExhausted,
    UnknownAnchor,
)
from .kg import AliasTable, KnowledgeGraph, Subgraph, Triple, check_radius, read_lines

logger = logging.getLogger(__name__)

QUERY_MODES = ("oracle", "inferred", "external")


@dataclass
class RankedCandidates:
    """(entity, score) pairs, scores nonincreasing, ties by ascending id."""

    candidates: list[tuple[int, float]]
    anchor: int

    @property
    def top(self) -> tuple[int, float]:
        return self.candidates[0]


class ExternalQueries:
    """A finite supply of query vectors, consumed one per flagged mention."""

    def __init__(self, vectors: Iterable[np.ndarray]):
        self._vectors = [np.asarray(v, dtype=np.float64) for v in vectors]
        self._cursor = 0

    def take(self, dim: int) -> np.ndarray:
        if self._cursor >= len(self._vectors):
            raise SourceExhausted(
                f"query source drained after {self._cursor} vectors"
            )
        vec = self._vectors[self._cursor]
        if vec.shape != (dim,):
            raise DimensionMismatch(
                f"query vector {self._cursor} has shape {vec.shape}, expected ({dim},)"
            )
        self._cursor += 1
        return vec


def load_query_vectors(path: str | Path) -> ExternalQueries:
    """One whitespace-separated vector per line; # comments skipped.

    A token that is not a finite number raises MalformedLine with its
    1-based line number.
    """
    vectors = []
    for lineno, raw in read_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            vec = np.array([float(x) for x in line.split()])
            if not np.isfinite(vec).all():
                raise ValueError("non-finite value")
        except ValueError:
            raise MalformedLine(
                lineno, "finite numbers separated by whitespace"
            ) from None
        vectors.append(vec)
    return ExternalQueries(vectors)


def oracle_grounding_triple(
    record: DialogueRecord,
    graph: KnowledgeGraph,
    anchors: Iterable[int],
) -> Triple:
    """The grounding triple that anchors the oracle query.

    Among the record's triples that touch the current anchor set (and
    resolve against the graph), pick the lowest relation id, breaking
    remaining ties by (subject, object) id.
    """
    anchor_set = set(anchors)
    touching: list[Triple] = []
    for s, p, o in record.triples:
        sid = graph.entities.get(s)
        oid = graph.entities.get(o)
        pid = graph.relations.get(p)
        if sid is None or oid is None or pid is None:
            continue
        if sid in anchor_set or oid in anchor_set:
            touching.append(Triple(sid, pid, oid))
    if not touching:
        raise NoGroundingRelation(
            "no grounding triple touches the current anchor set"
        )
    return min(touching, key=lambda t: (t.p, t.s, t.o))


def infer_relation(
    sub: Subgraph,
    table: EmbeddingTable,
    anchor: int,
    exclude: frozenset[int] = frozenset(),
) -> int:
    """Relation r* whose best candidate score from the anchor is highest.

    Relations are those appearing on subgraph edges; candidates are the
    subgraph nodes minus the anchor and the exclusion set. Ties go to
    the lowest relation id.
    """
    if not sub.triples:
        raise EmptySubgraph("subgraph has no edges to infer a relation from")
    cand = sorted(sub.nodes - {anchor} - exclude)
    if not cand:
        raise EmptySubgraph("no candidate entities to infer against")
    rels = np.array(sorted({t.p for t in sub.triples}), dtype=np.int64)
    # (relations, candidates) scores; argmax keeps the first, lowest-id best.
    scores = trilinear(
        table.entities[anchor],
        table.relations[rels][:, None, :],
        table.entities[np.array(cand, dtype=np.int64)],
    )
    return int(rels[np.argmax(scores.max(axis=1))])


def build_query(
    mode: str,
    record: DialogueRecord,
    sub: Subgraph,
    table: EmbeddingTable,
    graph: KnowledgeGraph,
    anchors: Iterable[int],
    external: ExternalQueries | None = None,
    exclude: frozenset[int] = frozenset(),
) -> np.ndarray:
    """Craft the query vector for one flagged mention.

    oracle uses the relation of the grounding triple selected by
    oracle_grounding_triple; inferred maximizes the best candidate
    score over the subgraph's relations; external takes the next
    supplied vector, dimension-checked.
    """
    if mode not in QUERY_MODES:
        raise ValueError(f"mode must be one of {QUERY_MODES}, got {mode!r}")
    if mode == "oracle":
        return table.relations[oracle_grounding_triple(record, graph, anchors).p].copy()
    if mode == "inferred":
        anchor = scoring_anchor("inferred", record, graph, anchors)
        return table.relations[infer_relation(sub, table, anchor, exclude)].copy()
    if external is None:
        raise ValueError("external mode needs a query-vector source")
    return external.take(table.dim)


def scoring_anchor(
    mode: str,
    record: DialogueRecord,
    graph: KnowledgeGraph,
    anchors: Iterable[int],
) -> int:
    """The entity the ranking scores against.

    oracle: the anchor-side endpoint of the selected grounding triple
    (subject preferred). Other modes: the lowest-id current anchor.
    """
    anchor_list = list(anchors)
    if not anchor_list:
        raise RetrievalImpossible("anchor set is empty")
    if mode == "oracle":
        sel = oracle_grounding_triple(record, graph, anchor_list)
        anchor_set = set(anchor_list)
        return sel.s if sel.s in anchor_set else sel.o
    return min(anchor_list)


def rank_candidates(
    query: np.ndarray,
    anchor: int,
    sub: Subgraph,
    table: EmbeddingTable,
    exclude: frozenset[int] = frozenset(),
) -> RankedCandidates:
    """Score every subgraph entity against the anchor with the query.

    Candidates are nodes(sub) minus the anchor minus the exclusion set;
    each scores as the trilinear product of (anchor, query, candidate),
    which is symmetric in anchor and candidate, so it serves either slot.
    """
    if not sub.has_node(anchor):
        raise UnknownAnchor(f"anchor {anchor} is not a subgraph node")
    cand = sorted(sub.nodes - {anchor} - exclude)
    if not cand:
        raise EmptySubgraph("subgraph has no candidate entities besides the anchor")
    vec = np.asarray(query, dtype=np.float64)
    if vec.shape != (table.dim,):
        raise DimensionMismatch(
            f"query has shape {vec.shape}, table dimension is {table.dim}"
        )
    ids = np.array(cand, dtype=np.int64)
    scores = trilinear(table.entities[anchor], vec, table.entities[ids])
    order = np.lexsort((ids, -scores))
    return RankedCandidates(
        candidates=list(zip(ids[order].tolist(), scores[order].tolist())),
        anchor=anchor,
    )


@dataclass(frozen=True)
class RefineConfig:
    k: int = 2
    mode: str = "oracle"
    chain: bool = True
    anchor_source: str = "kn"

    def __post_init__(self) -> None:
        check_radius(self.k)
        if self.mode not in QUERY_MODES:
            raise ValueError(f"mode must be one of {QUERY_MODES}, got {self.mode!r}")
        check_anchor_source(self.anchor_source)


@dataclass
class Edit:
    """One successful span replacement, in refined-text coordinates."""

    begin: int
    end: int
    old: str
    new_entity: str
    rank1_score: float

    def to_json(self) -> dict[str, Any]:
        return asdict(self)


@dataclass
class Failure:
    """A flagged span left unchanged, in refined-text coordinates."""

    begin: int
    end: int
    reason: str

    def to_json(self) -> dict[str, Any]:
        return asdict(self)


@dataclass
class RefinementOutcome:
    response: str
    edits: list[Edit]
    failures: list[Failure]
    anchor_trace: list[tuple[int, ...]] = field(default_factory=list)

    def merged_json(self, record: DialogueRecord) -> dict[str, Any]:
        out = record.to_json()
        out["refined_response"] = self.response
        out["edits"] = [e.to_json() for e in self.edits]
        out["failures"] = [f.to_json() for f in self.failures]
        return out


def refine_response(
    record: DialogueRecord,
    report: CriticReport,
    graph: KnowledgeGraph,
    table: EmbeddingTable,
    cfg: RefineConfig,
    aliases: AliasTable,
    external: ExternalQueries | None = None,
) -> RefinementOutcome:
    """Replace every flagged mention with its top-ranked subgraph entity.

    Mentions are processed left to right. Each one gets a fresh k-hop
    subgraph around the current anchor set, a query vector, and a
    ranking over the subgraph nodes minus the anchors; the winner's
    preferred surface is spliced over the span and (with chaining on)
    the winner joins the anchor set for the following mentions. A span
    whose retrieval is impossible (no anchors, no grounding relation,
    no candidates) is kept unchanged and reported under failures; the
    external-mode supply errors propagate instead, since they mean the
    vector file does not match the flagged mentions.
    """
    flagged = sorted(report.flagged_spans, key=lambda lab: lab.begin)
    anchors = list(derive_anchors(record, graph, aliases, cfg.anchor_source))
    trace: list[tuple[int, ...]] = [tuple(anchors)]
    replaced: list[tuple[int, int, str]] = []  # (begin, end, new text) per flagged span
    outcomes: list[Edit | Failure] = []  # original-text offsets until the splice below
    for lab in flagged:
        old = record.response[lab.begin:lab.end]
        try:
            anchor = scoring_anchor(cfg.mode, record, graph, anchors)
            sub = graph.khop_subgraph(anchors, cfg.k)
            exclude = frozenset(anchors)
            query = build_query(
                cfg.mode, record, sub, table, graph, anchors,
                external=external, exclude=exclude,
            )
            ranked = rank_candidates(query, anchor, sub, table, exclude=exclude)
        except (NoGroundingRelation, EmptySubgraph, UnknownAnchor, RetrievalImpossible) as err:
            logger.debug("span [%d, %d): %s", lab.begin, lab.end, err)
            replaced.append((lab.begin, lab.end, old))
            outcomes.append(Failure(lab.begin, lab.end, str(err) or type(err).__name__))
        else:
            top_id, top_score = ranked.top
            entity_name = graph.entities.name_of(top_id)
            replaced.append((lab.begin, lab.end, aliases.preferred(entity_name)))
            outcomes.append(Edit(lab.begin, lab.end, old, entity_name, top_score))
            if cfg.chain and top_id not in anchors:
                anchors.append(top_id)
        trace.append(tuple(anchors))

    refined, new_spans = splice(record.response, replaced)
    for outcome, (begin, end) in zip(outcomes, new_spans):
        outcome.begin, outcome.end = begin, end
    return RefinementOutcome(
        response=refined,
        edits=[o for o in outcomes if isinstance(o, Edit)],
        failures=[o for o in outcomes if isinstance(o, Failure)],
        anchor_trace=trace,
    )
