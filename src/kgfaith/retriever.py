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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from .critic import CriticReport, derive_anchors
from .dialogue import DialogueRecord, splice
from .embeddings import EmbeddingTable
from .errors import (
    DimensionMismatch,
    EmptySubgraph,
    MalformedLine,
    NoGroundingRelation,
    RetrievalImpossible,
    SourceExhausted,
    UnknownAnchor,
)
from .kg import AliasTable, KnowledgeGraph, Subgraph, Triple

logger = logging.getLogger(__name__)

QUERY_MODES = ("oracle", "inferred", "external")


@dataclass(frozen=True)
class QueryVector:
    """A query embedding plus where it came from."""

    vector: np.ndarray
    provenance: str
    relation_id: int | None = None


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

    def __len__(self) -> int:
        return len(self._vectors)

    @property
    def remaining(self) -> int:
        return len(self._vectors) - self._cursor

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
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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
    cand_vecs = table.entities[np.array(cand, dtype=np.int64)]
    anchor_vec = table.entities[anchor]
    best_rel = -1
    best = -np.inf
    for rel in sorted({t.p for t in sub.triples}):
        scores = np.sum((anchor_vec * cand_vecs) * table.relations[rel], axis=1)
        top = float(scores.max())
        if top > best:
            best = top
            best_rel = rel
    return best_rel


def build_query(
    mode: str,
    record: DialogueRecord,
    sub: Subgraph,
    table: EmbeddingTable,
    graph: KnowledgeGraph,
    anchors: Iterable[int],
    external: ExternalQueries | None = None,
    exclude: frozenset[int] = frozenset(),
) -> QueryVector:
    """Craft the query vector for one flagged mention.

    oracle uses the relation of the grounding triple selected by
    oracle_grounding_triple; inferred maximizes the best candidate
    score over the subgraph's relations; external takes the next
    supplied vector, dimension-checked.
    """
    if mode not in QUERY_MODES:
        raise ValueError(f"mode must be one of {QUERY_MODES}, got {mode!r}")
    if mode == "oracle":
        sel = oracle_grounding_triple(record, graph, anchors)
        return QueryVector(
            vector=table.relations[sel.p].copy(),
            provenance="oracle-relation",
            relation_id=sel.p,
        )
    if mode == "inferred":
        anchor = scoring_anchor("inferred", record, graph, anchors, sub)
        rel = infer_relation(sub, table, anchor, exclude)
        return QueryVector(
            vector=table.relations[rel].copy(),
            provenance="inferred-relation",
            relation_id=rel,
        )
    if external is None:
        raise ValueError("external mode needs a query-vector source")
    return QueryVector(vector=external.take(table.dim), provenance="external")


def scoring_anchor(
    mode: str,
    record: DialogueRecord,
    graph: KnowledgeGraph,
    anchors: Iterable[int],
    sub: Subgraph,
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
    query: QueryVector,
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
    vec = np.asarray(query.vector, dtype=np.float64)
    if vec.shape != (table.dim,):
        raise DimensionMismatch(
            f"query has shape {vec.shape}, table dimension is {table.dim}"
        )
    ids = np.array(cand, dtype=np.int64)
    # Same multiplication grouping as distmult_score, so each entry is
    # bitwise equal to scoring the candidate individually.
    scores = np.sum((table.entities[anchor] * table.entities[ids]) * vec, axis=1)
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    return RankedCandidates(
        candidates=[(int(ids[i]), float(scores[i])) for i in order],
        anchor=anchor,
    )


@dataclass(frozen=True)
class RefineConfig:
    k: int = 2
    mode: str = "oracle"
    chain: bool = True
    anchor_source: str = "kn"

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if self.mode not in QUERY_MODES:
            raise ValueError(f"mode must be one of {QUERY_MODES}, got {self.mode!r}")
        if self.anchor_source not in ("kn", "history"):
            raise ValueError(
                f"anchor source must be kn or history, got {self.anchor_source!r}"
            )


@dataclass
class Edit:
    """One successful span replacement, in refined-text coordinates."""

    begin: int
    end: int
    old: str
    new_entity: str
    rank1_score: float

    def to_json(self) -> dict[str, Any]:
        return {
            "begin": self.begin,
            "end": self.end,
            "old": self.old,
            "new_entity": self.new_entity,
            "rank1_score": self.rank1_score,
        }


@dataclass
class Failure:
    """A flagged span left unchanged, in refined-text coordinates."""

    begin: int
    end: int
    reason: str

    def to_json(self) -> dict[str, Any]:
        return {"begin": self.begin, "end": self.end, "reason": self.reason}


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
    cfg: RefineConfig = RefineConfig(),
    aliases: AliasTable | None = None,
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
    flagged = sorted(
        (lab for lab in report.labels if lab.label != "faithful"),
        key=lambda lab: lab.begin,
    )
    if not flagged:
        return RefinementOutcome(
            response=record.response, edits=[], failures=[],
            anchor_trace=[tuple(report.anchors)],
        )

    anchors: list[int] = list(
        derive_anchors(record, graph, aliases, cfg.anchor_source)
    )
    trace: list[tuple[int, ...]] = [tuple(anchors)]
    replacements: list[str | None] = []  # None marks a failed span
    details: list[tuple[str, float] | str] = []  # (entity, score) or reason

    for lab in flagged:
        try:
            if not anchors:
                raise RetrievalImpossible("anchor set is empty")
            sub = graph.khop_subgraph(anchors, cfg.k)
            exclude = frozenset(anchors)
            anchor = scoring_anchor(cfg.mode, record, graph, anchors, sub)
            query = build_query(
                cfg.mode, record, sub, table, graph, anchors,
                external=external, exclude=exclude,
            )
            ranked = rank_candidates(query, anchor, sub, table, exclude=exclude)
        except (NoGroundingRelation, EmptySubgraph, UnknownAnchor, RetrievalImpossible) as err:
            logger.debug("span [%d, %d): %s", lab.begin, lab.end, err)
            replacements.append(None)
            details.append(str(err) or type(err).__name__)
            trace.append(tuple(anchors))
            continue
        top_id, top_score = ranked.top
        entity_name = graph.entities.name_of(top_id)
        surface = aliases.preferred(entity_name) if aliases else entity_name
        replacements.append(surface)
        details.append((entity_name, top_score))
        if cfg.chain and top_id not in anchors:
            anchors.append(top_id)
        trace.append(tuple(anchors))

    edits_in = [
        (lab.begin, lab.end,
         repl if repl is not None else record.response[lab.begin:lab.end])
        for lab, repl in zip(flagged, replacements)
    ]
    refined, new_spans = splice(record.response, edits_in)

    edits: list[Edit] = []
    failures: list[Failure] = []
    for lab, repl, detail, (nb, ne) in zip(flagged, replacements, details, new_spans):
        if repl is None:
            failures.append(Failure(begin=nb, end=ne, reason=str(detail)))
        else:
            entity_name, score = detail  # type: ignore[misc]
            edits.append(
                Edit(
                    begin=nb,
                    end=ne,
                    old=record.response[lab.begin:lab.end],
                    new_entity=entity_name,
                    rank1_score=score,
                )
            )
    return RefinementOutcome(
        response=refined, edits=edits, failures=failures, anchor_trace=trace
    )
