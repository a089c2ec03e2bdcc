"""What the traced run wraps, and the per-layer metrics computed from its spans.

Layers are the package modules. Wrapped are the public functions that
mark a layer boundary, plus KnowledgeGraph.khop_subgraph and
Critic.critique. Tiny helpers called once per candidate entity
(``canonical``, ``round_half_up``, ``stage_seed``) are left unwrapped: a
wrapper costs about a microsecond, which would dwarf them and inflate
the corruptor's traced time.
"""

from __future__ import annotations

import importlib
from statistics import median

from tracer import Span, Tracer, self_times

LAYERS = ("kg", "dialogue", "critic", "corruptor", "embeddings", "retriever", "metrics", "cli")
MODULES = tuple(f"kgfaith.{m}" for m in LAYERS) + ("kgfaith",)

LOADERS = ("kgfaith.kg.load_triples", "kgfaith.kg.load_aliases", "kgfaith.kg.load_entity_types")
KHOP = "kgfaith.kg.KnowledgeGraph.khop_subgraph"
CRITIQUE = "kgfaith.critic.Critic.critique"
CLI_COMMANDS = ("corrupt", "train", "critique", "refine", "eval")


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _sans_pool(args, kwargs, result) -> dict:
    if _arg(args, kwargs, 1, "strategy") != "sans":
        return {}
    gold = args[0].o if _arg(args, kwargs, 7, "slot", "object") == "object" else args[0].s
    nodes = _arg(args, kwargs, 5, "sub").nodes
    pool = len(nodes) - (gold in nodes)
    return {"sans": 1, "short": int(pool < _arg(args, kwargs, 2, "n", 50))}


def _dataset(args, kwargs, result) -> dict:
    out, summary = result
    return {
        "records": summary.records,
        "realized": len(out),
        "fallbacks": summary.fallback_to_extrinsic + summary.fallback_to_intrinsic,
    }


def _cli_command(args, kwargs, result) -> dict:
    argv = _arg(args, kwargs, 0, "argv") or []
    return {"command": argv[0] if argv else ""}


FUNCTIONS = {
    **{name: ("kg", None) for name in LOADERS},
    "kgfaith.dialogue.read_dialogues": ("dialogue", lambda a, k, r: {"records": len(r)}),
    "kgfaith.dialogue.write_dialogues": ("dialogue", None),
    "kgfaith.dialogue.splice": ("dialogue", None),
    "kgfaith.critic.link_mentions": ("critic", lambda a, k, r: {"mentions": len(r)}),
    "kgfaith.critic.derive_anchors": ("critic", None),
    "kgfaith.critic.critique_response": ("critic", None),
    "kgfaith.critic.load_relation_phrases": ("critic", None),
    "kgfaith.corruptor.build_synthetic_dataset": ("corruptor", _dataset),
    "kgfaith.corruptor.replacement_pool": ("corruptor", lambda a, k, r: {"size": len(r)}),
    "kgfaith.corruptor.corrupt_extrinsic": ("corruptor", None),
    "kgfaith.corruptor.corrupt_intrinsic": ("corruptor", None),
    "kgfaith.embeddings.init_embeddings": ("embeddings", None),
    "kgfaith.embeddings.sample_negatives": ("embeddings", _sans_pool),
    "kgfaith.embeddings.nce_loss_and_grad": ("embeddings", None),
    "kgfaith.embeddings.train": ("embeddings", lambda a, k, r: {"sampler": _arg(a, k, 1, "cfg").sampler}),
    "kgfaith.embeddings.evaluate_link_prediction": (
        "embeddings", lambda a, k, r: {"mode": r.mode, "triples": len(r.ranks)}
    ),
    "kgfaith.embeddings.rank_of_gold": ("embeddings", None),
    "kgfaith.embeddings.save_embeddings": ("embeddings", None),
    "kgfaith.embeddings.load_embeddings": ("embeddings", None),
    "kgfaith.embeddings.align_table": ("embeddings", None),
    "kgfaith.embeddings.save_loss_trace": ("embeddings", None),
    "kgfaith.retriever.load_query_vectors": ("retriever", None),
    "kgfaith.retriever.oracle_grounding_triple": ("retriever", None),
    "kgfaith.retriever.infer_relation": ("retriever", None),
    "kgfaith.retriever.build_query": ("retriever", None),
    "kgfaith.retriever.scoring_anchor": ("retriever", None),
    "kgfaith.retriever.rank_candidates": (
        "retriever", lambda a, k, r: {"candidates": len(r.candidates)}
    ),
    "kgfaith.retriever.refine_response": (
        "retriever", lambda a, k, r: {"edits": len(r.edits), "failures": len(r.failures)}
    ),
    "kgfaith.metrics.ranking_metrics": ("metrics", None),
    "kgfaith.metrics.bleu": ("metrics", None),
    "kgfaith.metrics.hallucination_rate": ("metrics", None),
    "kgfaith.cli.main": ("cli", _cli_command),
}


def install(tracer: Tracer) -> None:
    """Wrap the catalogue above into the imported kgfaith modules."""
    modules = [importlib.import_module(name) for name in MODULES]
    from kgfaith.critic import Critic
    from kgfaith.kg import KnowledgeGraph

    methods = {
        KHOP: (
            KnowledgeGraph, "khop_subgraph", "kg",
            lambda a, k, r: {"nodes": len(r.nodes), "edges": len(r.triples)},
        ),
        CRITIQUE: (Critic, "critique", "critic", lambda a, k, r: {"flagged": int(r.flagged)}),
    }
    tracer.install(modules, FUNCTIONS, methods)


# --- metrics ---------------------------------------------------------------


class _Group:
    """Spans of one repeat (plus, for loads, the set-up spans) with self times."""

    def __init__(self, spans: list[Span], setup: list[Span], selfs: dict[int, float]):
        self.spans = spans
        self.selfs = selfs
        self._by_name: dict[str, list[Span]] = {}
        self._setup_by_name: dict[str, list[Span]] = {}
        for pool, index in ((spans, self._by_name), (setup, self._setup_by_name)):
            for s in pool:
                index.setdefault(s.name, []).append(s)

    def named(self, name: str, with_setup: bool = False) -> list[Span]:
        spans = self._by_name.get(name, [])
        return spans + self._setup_by_name.get(name, []) if with_setup else spans

    def total(self, name: str, with_setup: bool = False) -> float:
        return sum(s.duration for s in self.named(name, with_setup))

    def mean_ms(self, name: str, with_setup: bool = False) -> float:
        spans = self.named(name, with_setup)
        return 1e3 * sum(s.duration for s in spans) / len(spans) if spans else 0.0

    def count_sum(self, name: str, key: str, with_setup: bool = False) -> float:
        return sum(s.counts.get(key, 0) for s in self.named(name, with_setup))

    def count_mean(self, name: str, key: str) -> float:
        spans = self.named(name)
        return self.count_sum(name, key) / len(spans) if spans else 0.0

    def self_of(self, spans) -> float:
        return sum(self.selfs[s.id] for s in spans)

    def layer_self(self, layer: str) -> float:
        return self.self_of(s for s in self.spans if s.layer == layer)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _group_metrics(g: _Group) -> dict[str, float]:
    m: dict[str, float] = {}
    khop = g.named(KHOP)
    m["kg.load_ms"] = 1e3 * sum(g.total(n, True) for n in LOADERS)
    m["kg.khop_calls"] = len(khop)
    m["kg.khop_ms_mean"] = g.mean_ms(KHOP)
    m["kg.khop_self_s"] = g.self_of(khop)
    m["kg.khop_nodes_mean"] = g.count_mean(KHOP, "nodes")
    m["kg.khop_edges_mean"] = g.count_mean(KHOP, "edges")

    read = "kgfaith.dialogue.read_dialogues"
    splice = g.named("kgfaith.dialogue.splice")
    m["dialogue.read_ms"] = 1e3 * g.total(read, True)
    m["dialogue.records_read"] = g.count_sum(read, "records", True)
    m["dialogue.splice_calls"] = len(splice)
    m["dialogue.splice_self_s"] = g.self_of(splice)

    link = "kgfaith.critic.link_mentions"
    links = g.named(link)
    critiques = g.named(CRITIQUE)
    m["critic.link_calls"] = len(links)
    m["critic.link_ms_mean"] = g.mean_ms(link)
    m["critic.link_self_s"] = g.self_of(links)
    m["critic.mentions_per_link"] = g.count_mean(link, "mentions")
    m["critic.critique_calls"] = len(critiques)
    m["critic.critique_self_s"] = g.self_of(
        s for s in g.spans if s.layer == "critic" and s.name != link
    )
    m["critic.flag_ratio"] = _ratio(g.count_sum(CRITIQUE, "flagged"), len(critiques))

    build = "kgfaith.corruptor.build_synthetic_dataset"
    pool = "kgfaith.corruptor.replacement_pool"
    intrinsic = "kgfaith.corruptor.corrupt_intrinsic"
    m["corruptor.records"] = g.count_sum(build, "records")
    m["corruptor.realized_ratio"] = _ratio(g.count_sum(build, "realized"), m["corruptor.records"])
    m["corruptor.fallbacks"] = g.count_sum(build, "fallbacks")
    m["corruptor.pool_calls"] = len(g.named(pool))
    m["corruptor.pool_ms_mean"] = g.mean_ms(pool)
    m["corruptor.pool_size_mean"] = g.count_mean(pool, "size")
    m["corruptor.intrinsic_calls"] = len(g.named(intrinsic))
    m["corruptor.intrinsic_ms_mean"] = g.mean_ms(intrinsic)

    loss = "kgfaith.embeddings.nce_loss_and_grad"
    sample = "kgfaith.embeddings.sample_negatives"
    trains = g.named("kgfaith.embeddings.train")
    positives = len(g.named(loss))
    m["embeddings.positives"] = positives
    m["embeddings.sample_us_per_pos"] = 1e6 * _ratio(g.total(sample), positives)
    m["embeddings.loss_us_per_pos"] = 1e6 * _ratio(g.total(loss), positives)
    m["embeddings.step_us_per_pos"] = 1e6 * _ratio(g.self_of(trains), positives)
    per_train = {}
    for s in g.named(loss):
        per_train[s.parent] = per_train.get(s.parent, 0) + 1
    for sampler in ("uniform", "sans", "in_batch"):
        runs = [s for s in trains if s.counts.get("sampler") == sampler]
        m[f"embeddings.train_us_per_pos.{sampler}"] = 1e6 * _ratio(
            sum(s.duration for s in runs), sum(per_train.get(s.id, 0) for s in runs)
        )
    m["embeddings.sans_short_pool_ratio"] = _ratio(
        g.count_sum(sample, "short"), g.count_sum(sample, "sans")
    )
    for mode in ("filtered", "raw"):
        runs = [
            s for s in g.named("kgfaith.embeddings.evaluate_link_prediction")
            if s.counts.get("mode") == mode
        ]
        m[f"embeddings.lp_ms_per_triple.{mode}"] = 1e3 * _ratio(
            sum(s.duration for s in runs), sum(s.counts["triples"] for s in runs)
        )
    m["embeddings.snapshot_save_ms"] = g.mean_ms("kgfaith.embeddings.save_embeddings")
    m["embeddings.snapshot_load_ms"] = g.mean_ms("kgfaith.embeddings.load_embeddings", True)

    refine = "kgfaith.retriever.refine_response"
    rank = "kgfaith.retriever.rank_candidates"
    spans = g.count_sum(refine, "edits") + g.count_sum(refine, "failures")
    m["retriever.refine_calls"] = len(g.named(refine))
    m["retriever.spans"] = spans
    m["retriever.edit_ratio"] = _ratio(g.count_sum(refine, "edits"), spans)
    m["retriever.rank_calls"] = len(g.named(rank))
    m["retriever.rank_ms_mean"] = g.mean_ms(rank)
    m["retriever.candidates_mean"] = g.count_mean(rank, "candidates")
    m["retriever.query_ms_mean"] = g.mean_ms("kgfaith.retriever.build_query")
    m["retriever.refine_self_s"] = g.self_of(g.named(refine))

    m["metrics.bleu_ms"] = 1e3 * g.total("kgfaith.metrics.bleu")
    m["metrics.ranking_ms"] = 1e3 * g.total("kgfaith.metrics.ranking_metrics")
    m["metrics.hallucination_ms"] = 1e3 * g.total("kgfaith.metrics.hallucination_rate")

    mains = g.named("kgfaith.cli.main")
    for command in CLI_COMMANDS:
        m[f"cli.{command}_s"] = sum(
            s.duration for s in mains if s.counts.get("command") == command
        )
    for layer in LAYERS:
        m[f"{layer}.self_s"] = g.layer_self(layer)
    return m


def repeat_of(span: Span) -> str:
    """Request ids read "setup" or "rep<i>:<stage>[:<record>]"."""
    return (span.request or "setup").split(":", 1)[0]


def layer_metrics(processes: list[list[Span]]) -> tuple[dict[str, float], int]:
    """Median over repeats of every per-layer metric.

    ``processes`` holds the spans of each traced process; self times are
    computed per process, then spans are grouped by repeat. Returns the
    metrics and the number of repeats.
    """
    selfs: dict[int, float] = {}
    setup: list[Span] = []
    repeats: dict[str, list[Span]] = {}
    offset = 0
    for spans in processes:
        by_id = self_times(spans)
        for span in spans:
            # Span ids restart in every process; shift them to stay unique.
            selfs[span.id + offset] = by_id[span.id]
            span.id += offset
            if span.parent is not None:
                span.parent += offset
            key = repeat_of(span)
            (setup if key == "setup" else repeats.setdefault(key, [])).append(span)
        offset += len(spans)
    per_repeat = [_group_metrics(_Group(spans, setup, selfs)) for spans in repeats.values()]
    return {name: median(r[name] for r in per_repeat) for name in per_repeat[0]}, len(per_repeat)
