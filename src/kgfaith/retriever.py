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
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Collection, Sequence

import numpy as np

from .choices import QUERY_MODES
from .critic import CriticReport, check_anchor_source, derive_anchors
from .dialogue import DialogueRecord, splice
from .embeddings import EmbeddingTable, parse_vector, trilinear
from .errors import DimensionMismatch, LengthMismatch, RetrievalImpossible
from .kg import AliasTable, KnowledgeGraph, Triple, check_radius, read_lines

logger = logging.getLogger(__name__)


@dataclass
class RankedCandidates:
    """(entity, score) pairs, scores nonincreasing, ties by ascending id."""

    candidates: list[tuple[int, float]]


def load_query_vectors(path: str | Path, dim: int) -> list[np.ndarray]:
    """One whitespace-separated (dim,) vector per line; # comments skipped.

    A line that is not dim finite numbers raises MalformedLine with its
    1-based line number.
    """
    vectors = []
    for lineno, raw in read_lines(path):
        line = raw.strip()
        if line and not line.startswith("#"):
            vectors.append(parse_vector(line.split(), dim, lineno))
    return vectors


def oracle_grounding_triple(
    record: DialogueRecord,
    graph: KnowledgeGraph,
    anchors: Collection[int],
) -> Triple:
    """The grounding triple that anchors the oracle query.

    Among the record's triples that touch the current anchor set (and
    resolve against the graph), pick the lowest relation id, breaking
    remaining ties by (subject, object) id.
    """
    touching: list[Triple] = []
    for s, p, o in record.triples:
        sid = graph.entities.get(s)
        oid = graph.entities.get(o)
        pid = graph.relations.get(p)
        if sid is None or oid is None or pid is None:
            continue
        if sid in anchors or oid in anchors:
            touching.append(Triple(sid, pid, oid))
    if not touching:
        raise RetrievalImpossible("no grounding triple touches the current anchor set")
    return min(touching, key=lambda t: (t.p, t.s, t.o))


def scoring_anchor(
    mode: str,
    record: DialogueRecord,
    graph: KnowledgeGraph,
    anchors: Collection[int],
) -> tuple[int, Triple | None]:
    """The entity the ranking scores against, with the oracle's grounding triple.

    oracle: the anchor-side endpoint of the triple oracle_grounding_triple
    selects (subject preferred), and that triple. Other modes: the
    lowest-id current anchor, and None.
    """
    if not anchors:
        raise RetrievalImpossible("anchor set is empty")
    if mode != "oracle":
        return min(anchors), None
    sel = oracle_grounding_triple(record, graph, anchors)
    return (sel.s if sel.s in anchors else sel.o), sel


def infer_relation(
    graph: KnowledgeGraph, ball: frozenset[int], table: EmbeddingTable, anchor: int,
    candidates: np.ndarray,
) -> int:
    """Relation r* whose best candidate score from the anchor is highest.

    Relations are those on edges joining two ball nodes, frontier ones
    too; candidates are the entity ids to score. Ties go to the lowest id.
    """
    rels = sorted({t.p for v in ball for t in graph.out_edges(v) if t.o in ball})
    if not rels:
        raise RetrievalImpossible("subgraph has no edges to infer a relation from")
    if not len(candidates):
        raise RetrievalImpossible("no candidate entities to infer against")
    # (relations, candidates) scores; argmax keeps the first, lowest-id best.
    scores = trilinear(
        table.entities[anchor],
        table.relations[rels][:, None, :],
        table.entities[candidates],
    )
    return rels[int(np.argmax(scores.max(axis=1)))]


def build_query(
    table: EmbeddingTable, graph: KnowledgeGraph, ball: frozenset[int], anchor: int,
    candidates: np.ndarray, grounding: Triple | None, supplied: np.ndarray | None,
) -> np.ndarray:
    """Craft the query vector for one flagged mention.

    external: the supplied vector; oracle: the relation of the grounding
    triple; inferred: the relation infer_relation picks from the edges
    of ``graph`` inside ``ball``, which only this mode reads.
    """
    if supplied is not None:
        return supplied
    if grounding is not None:
        return table.relations[grounding.p].copy()
    return table.relations[infer_relation(graph, ball, table, anchor, candidates)].copy()


def rank_candidates(
    query: np.ndarray, anchor: int, candidates: np.ndarray, table: EmbeddingTable
) -> RankedCandidates:
    """Score every candidate entity against the anchor with the query.

    Each scores as the trilinear product of (anchor, query, candidate),
    which is symmetric in anchor and candidate, so it serves either slot.
    """
    if not len(candidates):
        raise RetrievalImpossible("subgraph has no candidate entities besides the anchor")
    vec = np.asarray(query, dtype=np.float64)
    if vec.shape != (table.dim,):
        raise DimensionMismatch(
            f"query has shape {vec.shape}, table dimension is {table.dim}"
        )
    ids = np.asarray(candidates, dtype=np.int64)
    scores = trilinear(table.entities[anchor], vec, table.entities[ids])
    order = np.lexsort((ids, -scores))
    return RankedCandidates(list(zip(ids[order].tolist(), scores[order].tolist())))


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
        return {
            "begin": self.begin, "end": self.end, "old": self.old,
            "new_entity": self.new_entity, "rank1_score": self.rank1_score,
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
    queries: Sequence[np.ndarray] | None = None,
) -> RefinementOutcome:
    """Replace every flagged mention with its top-ranked subgraph entity.

    Mentions go left to right, each in one step: the scoring anchor (in
    oracle mode with its grounding triple), the k-hop ball around the
    current anchor set, the candidates (ball minus anchors, ascending),
    the query (inferred mode reads the ball's edges), the ranking. The
    winner's preferred surface is spliced over the span and, with
    chaining on, the winner joins the anchors.
    External mode, and only it, takes ``queries``: this record's vectors,
    one per flagged span in text order, whatever the span's outcome; a
    wrong count raises LengthMismatch and a wrong shape DimensionMismatch,
    before any span. A span whose retrieval is impossible is kept
    unchanged and reported under failures.
    """
    if (cfg.mode == "external") != (queries is not None):
        raise ValueError("query vectors go with the external mode, and only with it")
    flagged = sorted(report.flagged_spans, key=lambda lab: lab.begin)
    if queries is not None:
        if len(queries) != len(flagged):
            raise LengthMismatch(
                f"{len(queries)} query vector(s), {len(flagged)} flagged span(s)"
            )
        for i, vec in enumerate(queries):
            if np.shape(vec) != (table.dim,):
                raise DimensionMismatch(
                    f"query vector {i} has shape {np.shape(vec)}, expected ({table.dim},)"
                )
    anchors = list(derive_anchors(record, graph, aliases, cfg.anchor_source))
    replaced: list[tuple[int, int, str]] = []  # (begin, end, new text) per flagged span
    outcomes: list[Edit | Failure] = []  # original-text offsets until the splice below
    for lab, supplied in zip(flagged, [None] * len(flagged) if queries is None else queries):
        old = record.response[lab.begin:lab.end]
        try:
            anchor, grounding = scoring_anchor(cfg.mode, record, graph, anchors)
            ball = graph.ball(anchors, cfg.k)
            candidates = np.array(sorted(ball.difference(anchors)), dtype=np.int64)
            query = build_query(table, graph, ball, anchor, candidates, grounding, supplied)
            ranked = rank_candidates(query, anchor, candidates, table)
        except RetrievalImpossible as err:
            logger.debug("span [%d, %d): %s", lab.begin, lab.end, err)
            replaced.append((lab.begin, lab.end, old))
            outcomes.append(Failure(lab.begin, lab.end, str(err)))
        else:
            top_id, top_score = ranked.candidates[0]
            entity_name = graph.entities.name_of(top_id)
            replaced.append((lab.begin, lab.end, aliases.preferred(entity_name)))
            outcomes.append(Edit(lab.begin, lab.end, old, entity_name, top_score))
            if cfg.chain and top_id not in anchors:
                anchors.append(top_id)

    refined, new_spans = splice(record.response, replaced)
    for outcome, (begin, end) in zip(outcomes, new_spans):
        outcome.begin, outcome.end = begin, end
    return RefinementOutcome(
        response=refined,
        edits=[o for o in outcomes if isinstance(o, Edit)],
        failures=[o for o in outcomes if isinstance(o, Failure)],
    )
