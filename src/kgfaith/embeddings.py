"""Entity memory: bilinear triple scoring, NCE training, link prediction.

Entities and relations live in one d-dimensional space. A triple
(u, r, v) scores as the trilinear form sum_i u_i r_i v_i, which is
symmetric in u and v. Training and link prediction score a row's
candidate objects with one product (u * r) @ E.T; trilinear scores single
triples and retrieval's candidates. Training minimizes a sampled-softmax
contrastive loss: the positive competes against n corrupted triples drawn
by one of three strategies (uniform over the vocabulary, from the
positive's neighborhood subgraph, or from the other positives in the batch).

A filtered/raw link-prediction evaluator reports Hits@k, MR, and MRR.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .choices import OPTIMIZERS, RANK_MODES
from .errors import (
    DimensionMismatch,
    DivergenceDetected,
    EmptyHoldout,
    EmptyPool,
    MalformedLine,
    ZeroDimension,
)
from .kg import KnowledgeGraph, Subgraph, Triple, check_radius, read_lines
from .metrics import RankingSummary, ranking_metrics

logger = logging.getLogger(__name__)

SAMPLERS = ("uniform", "sans", "in_batch")

SNAPSHOT_MAGIC = "pathhunter-emb"
SNAPSHOT_VERSION = "v1"

# Link prediction scores this many (held-out row, entity) cells per
# matrix product, about 1 MB of float64, at any vocabulary size.
_BLOCK_CELLS = 1 << 17


@dataclass
class EmbeddingTable:
    """Entity and relation vectors, one row per vocabulary id."""

    entities: np.ndarray
    relations: np.ndarray
    entity_names: list[str] | None = None
    relation_names: list[str] | None = None

    def __post_init__(self) -> None:
        self.entities = np.asarray(self.entities, dtype=np.float64)
        self.relations = np.asarray(self.relations, dtype=np.float64)
        if self.entities.ndim != 2 or self.relations.ndim != 2:
            raise ValueError("embedding matrices must be 2-dimensional")
        if self.entities.shape[1] != self.relations.shape[1]:
            raise DimensionMismatch(
                f"entity dim {self.entities.shape[1]} != relation dim "
                f"{self.relations.shape[1]}"
            )
        if not np.isfinite(self.entities).all() or not np.isfinite(self.relations).all():
            raise ValueError("embedding tables must be finite")

    @property
    def dim(self) -> int:
        return int(self.entities.shape[1])


def init_embeddings(
    n_entities: int, n_relations: int, d: int, seed: int
) -> EmbeddingTable:
    """Fresh table with entries uniform on [-sqrt(6/d), +sqrt(6/d)].

    The entity matrix is drawn before the relation matrix from a single
    seeded stream, so equal seeds give bitwise-equal tables.
    """
    if d < 1:
        raise ZeroDimension(f"dimension must be >= 1, got {d}")
    if n_entities < 1 or n_relations < 1:
        raise ValueError(
            f"need at least one entity and one relation, got {n_entities}/{n_relations}"
        )
    bound = math.sqrt(6.0 / d)
    rng = np.random.default_rng(seed)
    ent = rng.uniform(-bound, bound, size=(n_entities, d))
    rel = rng.uniform(-bound, bound, size=(n_relations, d))
    return EmbeddingTable(entities=ent, relations=rel)


def trilinear(u: np.ndarray, r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Trilinear scores sum_i u_i * r_i * v_i over the last axis, broadcasting.

    The scorer of single triples (nce_loss_and_grad) and of retrieval;
    training batches and link prediction use a matrix product instead.
    The two entity vectors are multiplied first, so swapping u and v
    gives a bitwise-identical result (elementwise products commute; a
    different grouping would only be equal up to rounding), and each
    row of a batched call equals the same row scored alone.
    """
    return np.sum((u * v) * r, axis=-1)


RowKey = tuple[str, int]  # ("e", entity id) or ("r", relation id)


def nce_loss_and_grad(
    pos: Triple,
    negs: Sequence[Triple],
    table: EmbeddingTable,
) -> tuple[float, dict[RowKey, np.ndarray]]:
    """Sampled-softmax contrastive loss and its exact gradients.

    loss = -s(pos) + log(exp s(pos) + sum_j exp s(neg_j)), with the
    log-sum-exp max-shifted for stability. Gradients are returned per
    touched row, keyed ("e", id) / ("r", id), and accumulate correctly
    when one row appears in several triples.
    """
    if not negs:
        raise ValueError("need at least one negative")
    subjects, predicates, objects = np.array([pos, *negs], dtype=np.int64).T
    U = table.entities[subjects]
    R = table.relations[predicates]
    V = table.entities[objects]
    scores = trilinear(U, R, V)
    m = float(scores.max())
    shifted = np.exp(scores - m)
    total = float(shifted.sum())
    loss = -float(scores[0]) + m + math.log(total)
    p = shifted / total
    coeff = p.copy()
    coeff[0] -= 1.0

    dU = coeff[:, None] * (R * V)
    dR = coeff[:, None] * (U * V)
    dV = coeff[:, None] * (U * R)
    grads: dict[RowKey, np.ndarray] = {}
    for i in range(len(coeff)):
        for key, g in (
            (("e", int(subjects[i])), dU[i]),
            (("r", int(predicates[i])), dR[i]),
            (("e", int(objects[i])), dV[i]),
        ):
            acc = grads.get(key)
            if acc is None:
                grads[key] = g.copy()
            else:
                acc += g
    return loss, grads


def group_negatives(
    strategy: str, golds: np.ndarray, n: int, rng: np.random.Generator | None,
    n_entities: int, pool: np.ndarray | None, batch: int,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Corrupted objects for consecutive batches of ``batch`` rows, in one pass.

    Returns (R, k) ids and an (R, k + 1) mask for the R golds: column 0
    stands for the gold, a masked-out cell holds the row's gold, and a
    mask of None keeps every cell. uniform: n draws from the n_entities
    ids other than the gold. sans: n draws from the row's ball in
    ``pool`` (padded with -1) minus the gold; without replacement (the
    top n of random keys) when that leaves n ids, with replacement
    otherwise. in_batch: its batch's gold objects, one ``pool`` row per
    batch (the batches equal in size), masked where they equal the
    row's gold; it reads no generator.

    The last batch may be shorter. The generator is read as one call per
    batch would read it, so the group gets those draws, row for row, and
    leaves the generator in their state: uniform makes one rng.integers
    call (a draw of R rows equals its row chunks drawn in turn); sans
    makes each batch's rng.random call for its keys, then its
    rng.integers call for its rows whose pool is shorter than n. A row
    without an alternative raises EmptyPool before anything is drawn.
    """
    rows = len(golds)
    if strategy == "uniform":
        if n_entities < 2:
            raise EmptyPool("vocabulary has no alternative entity")
        # Uniform over the n_entities - 1 ids other than gold: draw from
        # 0..n_entities-2 and shift the draws at or above gold up by one.
        draws = rng.integers(0, n_entities - 1, size=(rows, n))
        draws += draws >= golds[:, None]
        return draws, None

    if strategy == "sans":
        valid = (pool >= 0) & (pool != golds[:, None])
        sizes = valid.sum(axis=1)
        if not sizes.all():
            raise EmptyPool("subgraph offers no alternative entity")
        keys = np.empty(pool.shape)
        cols = np.arange(n)[None].repeat(rows, axis=0)
        short = sizes < n
        for start in range(0, rows, batch):
            rng.random(out=keys[start : start + batch])
            drawn = np.flatnonzero(short[start : start + batch]) + start
            if len(drawn):
                logger.debug("%d of %d pools smaller than n=%d; drawing with replacement",
                             len(drawn), min(batch, rows - start), n)
                cols[drawn] = rng.integers(0, sizes[drawn, None], size=(len(drawn), n))
        keys[~valid] = np.inf
        starts = np.arange(rows)[:, None] * pool.shape[1]  # row starts in the flat pool
        # The first sizes[i] cells of row i hold its pool in random order.
        shuffled = pool.ravel()[np.argsort(keys, axis=1) + starts]
        return shuffled.ravel()[cols + starts], None

    # in_batch
    batches, width = pool.shape
    if width < 2:
        raise EmptyPool("in-batch sampling needs a batch of at least 2")
    keep = pool[:, None, :] != golds.reshape(batches, -1)[:, :, None]
    mask = np.ones((rows, width + 1), dtype=bool)
    mask[:, 1:] = keep.reshape(rows, width)
    if not mask[:, 1:].any(axis=1).all():
        raise EmptyPool("no distinct gold entities in the batch")
    return pool.repeat(rows // batches, axis=0), mask


def sample_negatives(
    pos: Triple,
    strategy: str,
    n: int = 50,
    rng: np.random.Generator | None = None,
    graph: KnowledgeGraph | None = None,
    sub: Subgraph | None = None,
    batch: Sequence[Triple] | None = None,
) -> list[Triple]:
    """Draw corrupted triples for one positive by replacing its object.

    One group_negatives call over a single one-row batch. uniform: n
    draws from the full entity vocabulary minus the gold object. sans: n
    draws from the positive's subgraph nodes minus the gold; without
    replacement when the pool is large enough, otherwise with
    replacement. in_batch: the other batch members' gold objects, giving
    batch-size - 1 negatives (duplicate golds filtered).
    """
    if strategy not in SAMPLERS:
        raise ValueError(f"strategy must be one of {SAMPLERS}, got {strategy!r}")
    if strategy != "in_batch" and rng is None:
        raise ValueError(f"{strategy} sampling needs an rng")
    if strategy == "uniform" and graph is None:
        raise ValueError("uniform sampling needs the graph")
    if strategy == "sans" and sub is None:
        raise ValueError("sans sampling needs a subgraph")
    if strategy == "sans":
        pool = np.array([sorted(sub.nodes)], dtype=np.int64)
    else:  # the batch's golds; uniform reads none
        pool = np.array([[t.o for t in batch or ()]], dtype=np.int64)
    n_entities = len(graph.entities) if graph is not None else 0
    negs, mask = group_negatives(strategy, np.array([pos.o]), n, rng, n_entities, pool, 1)
    kept = negs[0] if mask is None else negs[0][mask[0, 1:]]
    return [Triple(pos.s, pos.p, int(o)) for o in kept]


class TouchedRows:
    """The batch's distinct ids, ascending, and each id's place among them.

    What np.unique(ids, return_inverse=True) returns for ids below n, at a
    cost that follows len(ids) and not n: the ids are sorted, the first of
    each run kept, and each kept id's place written into an array of n
    slots that the inverse is read back from. The array is kept across
    calls and never cleared, because a call reads only the slots it has
    just written. (np.unique also argsorts and scatters for the inverse;
    a vocabulary-sized mask would cost O(n) per call.)
    """

    def __init__(self, n: int) -> None:
        self._place = np.empty(n, dtype=np.intp)

    def __call__(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ordered = np.sort(ids)
        first = np.ones(len(ordered), dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        distinct = ordered[first]
        self._place[distinct] = np.arange(len(distinct))
        return distinct, self._place[ids]


def batch_nce_loss_and_grad(
    subjects: np.ndarray, predicates: np.ndarray, objects: np.ndarray,
    mask: np.ndarray | None, table: EmbeddingTable,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The loss of nce_loss_and_grad for every row of a batch, in one pass.

    Row i scores (subjects[i], predicates[i], objects[i, j]) for each
    column j that ``mask`` keeps (every column when it is None); column 0
    is the positive, and masked cells must hold it. Returns the per-row
    losses and, for the entity and the relation matrix, the ascending
    touched row ids with their gradients summed over the batch. One call
    of the kernel train() steps with, split at the first relation row.
    """
    n_e = len(table.entities)
    losses, ids, grad = _nce_batch(
        subjects, predicates, objects, mask, table.entities, table.relations,
        TouchedRows(n_e + len(table.relations)),
    )
    n_ent = int(np.searchsorted(ids, n_e))
    return losses, (ids[:n_ent], grad[:n_ent]), (ids[n_ent:] - n_e, grad[n_ent:])


def _nce_batch(
    subjects: np.ndarray, predicates: np.ndarray, objects: np.ndarray,
    mask: np.ndarray | None, entities: np.ndarray, relations: np.ndarray,
    touched: TouchedRows,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The batch's losses, touched rows and their gradients, in one parameter space.

    Row ids count the entities first and then the relations, offset by
    len(entities), as train() stacks the two matrices; one ``touched``
    call finds both kinds. The scores are read from one (rows, touched
    entities) product (u * r) @ E.T, so no candidate vector is gathered.
    With C the softmax coefficients on the same grid, sum_j c_ij v_ij =
    C @ E and the object gradients are C.T @ (u * r); one-hot products
    sum the subject and relation rows.
    """
    rows, n_e = len(subjects), len(entities)
    ids, inv = touched(np.concatenate([subjects, objects.ravel(), predicates + n_e]))
    n_ent = int(np.searchsorted(ids, n_e))
    subj, obj = inv[:rows], inv[rows:-rows].reshape(objects.shape)
    E = entities[ids[:n_ent]]
    U, R = E[subj], relations[predicates]
    UR = U * R
    # Each (row, candidate) cell's offset in the flattened (rows, touched) grid.
    cells = np.arange(rows)[:, None] * n_ent + obj
    scores = (UR @ E.T).ravel()[cells]
    if mask is not None:
        scores = np.where(mask, scores, -np.inf)
    m = scores.max(axis=1, keepdims=True)
    shifted = np.exp(scores - m)
    total = shifted.sum(axis=1, keepdims=True)
    losses = (m - scores[:, :1] + np.log(total))[:, 0]
    coeff = shifted / total
    coeff[:, 0] -= 1.0

    C = np.bincount(cells.ravel(), coeff.ravel(), rows * n_ent).reshape(rows, -1)
    CV = C @ E
    S = np.zeros_like(C)
    S[np.arange(rows), subj] = 1.0
    ent_grad = C.T @ UR
    ent_grad += S.T @ (R * CV)
    P = np.zeros((rows, len(ids) - n_ent))
    P[np.arange(rows), inv[-rows:] - n_ent] = 1.0
    rel_grad = P.T @ (U * CV)
    return losses, ids, np.concatenate([ent_grad, rel_grad])


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters for contrastive training."""

    d: int = 64
    lr: float = 1e-2
    epochs: int = 50
    batch_size: int = 32
    negatives: int = 50
    sampler: str = "uniform"
    sans_k: int = 1
    seed: int = 0
    optimizer: str = "sgd"
    l2: float = 1e-4

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ZeroDimension(f"dimension must be >= 1, got {self.d}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"learning rate must be finite and > 0, got {self.lr}")
        if self.negatives < 1:
            raise ValueError(f"negatives must be >= 1, got {self.negatives}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if self.sampler not in SAMPLERS:
            raise ValueError(f"sampler must be one of {SAMPLERS}, got {self.sampler!r}")
        check_radius(self.sans_k)
        if self.sampler == "in_batch" and self.batch_size < 2:
            raise ValueError(
                f"the in-batch sampler needs batch size >= 2, got {self.batch_size}"
            )
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(
                f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}"
            )
        if not (math.isfinite(self.l2) and self.l2 >= 0):
            raise ValueError(f"l2 must be finite and >= 0, got {self.l2}")


class _SgdStep:
    def __init__(self, lr: float, shape: tuple[int, int]):
        self.lr = lr

    def apply(self, params: np.ndarray, rows: np.ndarray, grad: np.ndarray) -> None:
        params[rows] -= self.lr * grad


class _AdamStep:
    """Adaptive-moments update of the touched rows of one matrix.

    The moments are dense arrays shaped like the matrix; each row keeps
    its own step count, which advances only when the row is touched.
    ``rows`` must be distinct. The bias corrections 1 - beta**t are read
    from tables indexed by t, computed by the same elementwise power and
    doubled in length when the steps taken reach it (no row's count
    exceeds them). The gathered moments are updated in place, in the
    order of operations of m * beta1 + (1 - beta1) * grad.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, lr: float, shape: tuple[int, int]):
        self.lr = lr
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = np.zeros(shape[0], dtype=np.int64)
        self.steps = 0
        self._tabulate(64)

    def _tabulate(self, size: int) -> None:
        t = np.arange(size)
        self.corr1 = 1 - self.beta1**t
        self.corr2 = 1 - self.beta2**t

    def apply(self, params: np.ndarray, rows: np.ndarray, grad: np.ndarray) -> None:
        self.steps += 1
        if self.steps == len(self.corr1):
            self._tabulate(2 * self.steps)
        t = self.t[rows] + 1
        self.t[rows] = t
        m = self.m[rows]
        m *= self.beta1
        m += (1 - self.beta1) * grad
        self.m[rows] = m
        v = self.v[rows]
        v *= self.beta2
        v += (1 - self.beta2) * grad * grad
        self.v[rows] = v
        # m and v now hold copies; the step lr * m_hat / (sqrt(v_hat) + eps) reuses them.
        m /= self.corr1[t, None]
        m *= self.lr
        v /= self.corr2[t, None]
        np.sqrt(v, out=v)
        v += self.eps
        m /= v
        params[rows] -= m


def _ball_rows(graph: KnowledgeGraph, k: int) -> np.ndarray:
    """Every subject's k-hop ball as one row of ascending ids, padded with -1."""
    subjects = sorted({t.s for t in graph.triples})
    balls = [sorted(graph.ball([s], k)) for s in subjects]
    out = np.full((len(graph.entities), max(map(len, balls), default=0)), -1, dtype=np.int64)
    for s, ball in zip(subjects, balls):
        out[s, : len(ball)] = ball
    return out


def _batch_groups(n: int, batch: int, width: int) -> list[tuple[int, int]]:
    """The (start, stop) rows of an epoch's batch groups.

    A group holds as many whole batches as keep its (rows, width)
    matrices within _BLOCK_CELLS cells, at least one; the short last
    batch, if any, is a group of its own.
    """
    full = n - n % batch
    span = max(1, _BLOCK_CELLS // (width * batch)) * batch
    groups = [(start, min(start + span, full)) for start in range(0, full, span)]
    if full < n:
        groups.append((full, n))
    return groups


def train(graph: KnowledgeGraph, cfg: TrainingConfig) -> tuple[EmbeddingTable, list[float]]:
    """Mini-batch contrastive training over the graph's triples.

    Triples are shuffled each epoch. Each mini-batch scores and
    differentiates all its rows at once, adds an L2 pull of 2*l2*row to
    every touched row, and takes one optimizer step on the touched rows.
    The entity and relation matrices are the two row blocks of one
    parameter matrix, so a batch finds its touched rows, pulls them and
    steps them once. The negatives depend on no parameter, so they are
    drawn for a group of consecutive batches at once (group_negatives),
    with the draws and generator order of one draw per batch; a group
    spans as many batches as keep its largest per-row matrix (the
    candidates, or the sans keys) within _BLOCK_CELLS cells. The
    per-epoch mean loss is returned as the trace. An epoch that trains
    no triple raises EmptyPool, as does a row without an alternative
    object (before its group's first step); a non-finite mean raises
    DivergenceDetected. Single-worker, fully seeded: identical config
    gives identical tables and traces. The sans sampler draws from the
    sans_k-hop ball around each triple's subject, built once per run for
    every subject.
    """
    n_e = len(graph.entities)
    table = init_embeddings(n_e, len(graph.relations), cfg.d, cfg.seed)
    params = np.concatenate([table.entities, table.relations])
    table.entities, table.relations = params[:n_e], params[n_e:]
    table.entity_names = graph.entities.names
    table.relation_names = graph.relations.names
    triples = np.array(graph.triples, dtype=np.int64).reshape(-1, 3)
    rng = np.random.default_rng([cfg.seed, 1])
    balls = _ball_rows(graph, cfg.sans_k) if cfg.sampler == "sans" else None
    step = _SgdStep if cfg.optimizer == "sgd" else _AdamStep
    stepper = step(cfg.lr, params.shape)
    touched = TouchedRows(len(params))
    trace: list[float] = []
    n = len(triples)
    width = cfg.batch_size + 1 if cfg.sampler == "in_batch" else cfg.negatives + 1
    if balls is not None:
        width = max(width, balls.shape[1])
    groups = _batch_groups(n, cfg.batch_size, width)
    for epoch in range(1, cfg.epochs + 1):
        shuffled = triples[rng.permutation(n)].T
        epoch_loss = 0.0
        seen = 0
        for start, stop in groups:
            s, p, o = shuffled[:, start:stop]
            if cfg.sampler == "in_batch" and len(o) < 2:
                logger.debug("skipping remainder batch of 1 (in-batch sampler)")
                continue
            batch = min(cfg.batch_size, len(o))
            # sans draws from the subjects' balls, in_batch from each
            # batch's golds; uniform reads no pool.
            pool = o.reshape(-1, batch) if balls is None else balls[s]
            negs, mask = group_negatives(cfg.sampler, o, cfg.negatives, rng, n_e, pool, batch)
            objects = np.concatenate([o[:, None], negs], axis=1)
            for first in range(0, len(o), batch):
                rows = slice(first, first + batch)
                losses, ids, grad = _nce_batch(
                    s[rows], p[rows], objects[rows], None if mask is None else mask[rows],
                    table.entities, table.relations, touched,
                )
                epoch_loss += float(losses.sum())
                seen += len(losses)
                if cfg.l2 > 0:
                    grad += 2.0 * cfg.l2 * params[ids]
                stepper.apply(params, ids, grad)
        if not seen:
            raise EmptyPool(f"epoch {epoch} trained no triple")
        mean_loss = epoch_loss / seen
        if not math.isfinite(mean_loss):
            raise DivergenceDetected(epoch)
        trace.append(mean_loss)
    logger.info(
        "trained %d epochs on %d triples (d=%d, %s): loss %.4f -> %.4f",
        cfg.epochs, n, cfg.d, cfg.sampler, trace[0], trace[-1],
    )
    return table, trace


@dataclass
class LinkPredictionReport(RankingSummary):
    """The aggregates of the per-triple ranks, plus the ranks themselves."""

    ranks: list[int]
    mode: str


def rank_of_gold(
    scores: np.ndarray, candidate_ids: np.ndarray, gold: int
) -> int:
    """Rank of the gold candidate: 1 + better scores + equal-score lower ids.

    The tie rule (ascending entity id) makes the rank independent of the
    order candidates were scored in.
    """
    pos = np.nonzero(candidate_ids == gold)[0]
    if pos.size != 1:
        raise ValueError("gold entity must appear exactly once among candidates")
    gold_score = scores[pos[0]]
    better = int(np.sum(scores > gold_score))
    tied_lower = int(np.sum((scores == gold_score) & (candidate_ids < gold)))
    return 1 + better + tied_lower


def _link_prediction_plan(
    heldout: list[Triple], graph: KnowledgeGraph, rows: int
) -> tuple[list[tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]], int]:
    """Each block of ``rows`` held-out rows as (ids, cells), and the number
    of held-out triples that are also graph triples.

    A block's ids are its subject, relation and object ids as the rows of
    one array. A row's cells are the objects completing a known-true triple
    (training or held-out) with its subject and relation, its gold included.
    """
    # (subject, relation) -> every object completing a known-true
    # triple, for the held-out pairs only: read from the subject's
    # out-edges, so the cost follows its degree, not the graph's size.
    held: dict[tuple[int, int], set[int]] = {}
    for s, p, o in heldout:
        held.setdefault((s, p), set()).add(o)
    known: dict[tuple[int, int], set[int]] = {}
    overlap = 0
    for pair, objects in held.items():
        known[pair] = graph.objects(*pair)
        overlap += len(objects & known[pair])
        known[pair] |= objects
    blocks = []
    for start in range(0, len(heldout), rows):
        block = heldout[start : start + rows]
        flat = np.fromiter(chain.from_iterable(block), np.int32, 3 * len(block))
        objects = [known[t[0], t[1]] for t in block]
        counts = [len(k) for k in objects]
        columns = np.fromiter(chain.from_iterable(objects), np.intp, sum(counts))
        cells = (np.repeat(np.arange(len(counts)), counts), columns)
        blocks.append((flat.reshape(-1, 3).T.copy(), cells))
    return blocks, overlap


def evaluate_link_prediction(
    table: EmbeddingTable,
    heldout: Sequence[Triple],
    graph: KnowledgeGraph,
    mode: str = "filtered",
) -> LinkPredictionReport:
    """Rank the gold object of each held-out triple against every entity.

    Each triple (s, p, o) scores every entity e as the object of
    (s, p, e). The filtered mode drops the entities that complete
    another known-true triple (training or held-out) before ranking;
    the gold itself always stays, and a held-out triple that is also a
    graph triple raises ValueError. A triple's rank is 1 plus the number
    of entities scoring above the gold plus those tying it with a lower
    entity id, so it does not depend on the order entities are scored in.

    A block of held-out rows is scored by one matrix product. In the
    filtered mode each row's filtered-out cells are set to NaN, which is
    never ahead of the gold and never tied with it, whatever the gold
    score is; a row's rank counts the entities ahead of the gold. Each
    block's ids and filtered-out cells, and the overlap count, depend only
    on the graph, the held-out list and the block height, so the graph keeps
    them in one slot (KnowledgeGraph.memo) for both modes: a later call with
    an equal held-out list and table size reuses them.
    """
    if mode not in RANK_MODES:
        raise ValueError(f"mode must be raw or filtered, got {mode!r}")
    heldout = list(heldout)
    if not heldout:
        raise EmptyHoldout("no held-out triples to evaluate")
    E = table.entities
    # With 32-bit ids the id compare below runs about 3x faster than with 64-bit.
    ids = np.arange(len(E), dtype=np.int32)
    rows = max(1, _BLOCK_CELLS // len(E))
    blocks, overlap = graph.memo(
        "link_prediction", (tuple(heldout), rows), lambda: _link_prediction_plan(heldout, graph, rows)
    )
    if mode == "filtered" and overlap:
        raise ValueError(f"{overlap} held-out triples also appear in the graph")
    ranks: list[int] = []
    for (s, p, o), cells in blocks:
        scores = (E[s] * table.relations[p]) @ E.T
        r = np.arange(len(o))
        gold = scores[r, o][:, None]
        if mode == "filtered":
            # A row's known objects include its gold, whose cell never
            # counts: nothing is ahead of itself, and its tie is cleared.
            scores[cells] = np.nan
        ahead = scores > gold
        ties = scores == gold
        ties[r, o] = False
        if ties.any():  # only an entity that ties the gold with a lower id is ahead
            ahead |= ties & (ids < o[:, None])
        ranks.extend((1 + ahead.sum(axis=1, dtype=np.int32)).tolist())
        del scores, ahead, ties  # before the next block's product is allocated

    summary = ranking_metrics(ranks)
    return LinkPredictionReport(
        hits=summary.hits, mr=summary.mr, mrr=summary.mrr, ranks=ranks, mode=mode
    )


# --- snapshots ------------------------------------------------------------

def save_embeddings(path: str | Path, table: EmbeddingTable) -> None:
    """Write the documented snapshot: header line, then one row per vector."""
    if table.entity_names is None or table.relation_names is None:
        raise ValueError("snapshot needs entity and relation names on the table")
    if len(table.entity_names) != len(table.entities) or len(
        table.relation_names
    ) != len(table.relations):
        raise ValueError("name lists must match matrix row counts")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"{SNAPSHOT_MAGIC} {SNAPSHOT_VERSION} "
            f"{len(table.entities)} {len(table.relations)} {table.dim}\n"
        )
        vector = " ".join(["%.17g"] * table.dim)  # format(x, ".17g") for each entry
        for name, row in zip(table.entity_names, table.entities.tolist()):
            fh.write(f"E\t{name}\t{vector % tuple(row)}\n")
        for name, row in zip(table.relation_names, table.relations.tolist()):
            fh.write(f"R\t{name}\t{vector % tuple(row)}\n")


def parse_vector(tokens: list[str], dim: int, lineno: int) -> np.ndarray:
    """The (dim,) vector the tokens spell, or MalformedLine naming the line."""
    try:
        vec = np.array([float(x) for x in tokens], dtype=np.float64)
    except ValueError:
        vec = None
    if vec is None or vec.shape != (dim,) or not np.isfinite(vec).all():
        raise MalformedLine(lineno, f"a vector of {dim} finite numbers")
    return vec


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Read a snapshot back, validating counts, dimensions, names and finiteness.

    Every count in the header is at least 1, and a name is given once per kind.
    """
    lines = read_lines(path)
    header = next(lines, (1, ""))[1].rstrip("\r\n").split(" ")
    if len(header) != 5 or header[0] != SNAPSHOT_MAGIC or header[1] != SNAPSHOT_VERSION:
        raise MalformedLine(1, f"a '{SNAPSHOT_MAGIC} {SNAPSHOT_VERSION}' header")
    try:
        n_ent, n_rel, d = (int(x) for x in header[2:])
    except ValueError:
        raise MalformedLine(1, "integer entity, relation and dimension counts") from None
    if min(n_ent, n_rel, d) < 1:
        raise MalformedLine(1, "entity, relation and dimension counts of at least 1")
    rows: dict[str, dict[str, np.ndarray]] = {"E": {}, "R": {}}  # kind -> name -> vector
    for lineno, raw in lines:
        line = raw.rstrip("\r\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3 or parts[0] not in rows:
            raise MalformedLine(lineno, "E or R, name and vector, tab-separated")
        kind, name, values = parts
        if name in rows[kind]:
            raise MalformedLine(lineno, f"an {kind} name not given on an earlier row")
        rows[kind][name] = parse_vector(values.split(" "), d, lineno)
    ents, rels = rows["E"], rows["R"]
    if len(ents) != n_ent or len(rels) != n_rel:
        raise MalformedLine(
            1,
            f"entity/relation counts {len(ents)}/{len(rels)} to match "
            f"the rows below it, not {n_ent}/{n_rel}",
        )
    return EmbeddingTable(
        entities=np.vstack(list(ents.values())),
        relations=np.vstack(list(rels.values())),
        entity_names=list(ents),
        relation_names=list(rels),
    )


def align_table(table: EmbeddingTable, graph: KnowledgeGraph) -> EmbeddingTable:
    """Reorder snapshot rows to the graph's vocabulary ids.

    Every graph entity and relation must be present by name; extra rows
    in the snapshot are dropped.
    """
    if table.entity_names is None or table.relation_names is None:
        raise ValueError("table has no names to align by")
    ent_pos = {name: i for i, name in enumerate(table.entity_names)}
    rel_pos = {name: i for i, name in enumerate(table.relation_names)}
    missing = [n for n in graph.entities.names if n not in ent_pos]
    missing += [n for n in graph.relations.names if n not in rel_pos]
    if missing:
        raise ValueError(f"snapshot lacks vectors for: {', '.join(missing[:5])}")
    return EmbeddingTable(
        entities=table.entities[[ent_pos[n] for n in graph.entities.names]],
        relations=table.relations[[rel_pos[n] for n in graph.relations.names]],
        entity_names=graph.entities.names,
        relation_names=graph.relations.names,
    )


def save_loss_trace(path: str | Path, trace: Sequence[float]) -> None:
    """CSV with header epoch,mean_loss; epochs are 1-based."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss"])
        for i, loss in enumerate(trace, start=1):
            writer.writerow([i, format(loss, ".17g")])
