"""In-process worker for the train-block and corpus-6k workloads.

Usage: python3 bench/worker.py SPEC.json SPAWNED

The spec names the workload, its input files, the seed, the seconds to
measure and whether to trace; SPAWNED is the CLOCK_MONOTONIC time at
which the parent started this process. The worker sets up (imports, loads the
files through the package loaders, builds its objects), then repeats
the workload's timed phase until the seconds are used up, and writes
timings, output digests, check results and (when traced) its spans to
the spec's result path.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
from pathlib import Path
from statistics import median

# Library calls go through module attributes, so the wrappers a traced
# run installs into these modules are the ones called.
from kgfaith import corruptor, critic, dialogue, embeddings, kg, retriever
from kgfaith.errors import KgFaithError

import hostspeed
import layers
from child import now
from tracer import Tracer, tail_percentile


def digest(blob) -> str:
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode("utf-8")).hexdigest()


def load_heldout(path: str, graph):
    """Held-out triples, loaded as a graph and resolved against the training vocabulary."""
    held = kg.load_triples(path)
    return [
        kg.Triple(graph.resolve_entity(s), graph.resolve_relation(p), graph.resolve_entity(o))
        for s, p, o in map(held.name_triple, held.triples)
    ]


def filtered_le_raw(filtered, raw) -> bool:
    """Filtering only removes candidates, so no filtered rank may exceed its raw rank."""
    return all(f <= r for f, r in zip(filtered.ranks, raw.ranks))


# --- train-block -----------------------------------------------------------

# (name, TrainingConfig fields). The uniform run is the gate-1 config.
TRAIN_RUNS = (
    ("uniform", {"sampler": "uniform", "optimizer": "sgd"}),
    ("sans", {"sampler": "sans", "sans_k": 2, "optimizer": "adam"}),
    ("in_batch", {"sampler": "in_batch", "optimizer": "sgd"}),
)
TRAIN_EPOCHS = 10


def setup_train(files: dict, seed: int) -> dict:
    graph = kg.load_triples(files["kg"])
    return {"graph": graph, "held": load_heldout(files["heldout"], graph), "seed": seed}


def repeat_train(state: dict, tracer, rep: int) -> dict:
    graph, held = state["graph"], state["held"]
    meter = hostspeed.Meter()
    positives = 0
    results = {}
    for name, fields in TRAIN_RUNS:
        cfg = embeddings.TrainingConfig(
            d=32, epochs=TRAIN_EPOCHS, negatives=50, batch_size=32, lr=8e-2,
            seed=state["seed"], **fields,
        )
        if tracer:
            tracer.request = f"rep{rep}:train-{name}"
        start = now()
        table, trace = embeddings.train(graph, cfg)
        trained = now()
        filtered = embeddings.evaluate_link_prediction(table, held, graph, mode="filtered")
        ranked = now()
        raw = embeddings.evaluate_link_prediction(table, held, graph, mode="raw")
        meter.add(train=trained - start, linkpred=ranked - trained, linkpred_raw=now() - ranked)
        positives += len(graph.triples) * cfg.epochs
        results[name] = (table, trace, filtered, raw)

    checks: dict[str, bool] = {}
    hashes = {}
    for name, (table, trace, filtered, raw) in results.items():
        hashes[name] = hashlib.sha256(
            table.entities.tobytes() + table.relations.tobytes()
            + json.dumps([trace, filtered.ranks, raw.ranks]).encode("utf-8")
        ).hexdigest()
        checks[f"{name}.filtered_rank_le_raw"] = filtered_le_raw(filtered, raw)
    gate = results["uniform"][2]
    checks["gate1.uniform_mrr_ge_0.5"] = gate.mrr >= 0.5
    checks["gate1.uniform_hits10_ge_0.9"] = gate.hits[10] >= 0.9

    def figures(times: dict) -> dict:
        return {
            "wall_s": sum(times.values()),
            "train_pos_per_s": positives / times["train"],
            "linkpred_triples_per_s": len(held) * len(results) / times["linkpred"],
        }

    return {
        "figures": figures(meter.times),
        "speed": meter.factor(),
        "quality": {"uniform_filtered_mrr": gate.mrr, "uniform_filtered_hits10": gate.hits[10]},
        "attempted": len(results) + 2 * len(held) * len(results),
        "failed": 0,
        "checks": checks,
        "hashes": hashes,
    }


# --- corpus-6k -------------------------------------------------------------


# Records per critique segment: the host-speed reference is sampled between segments.
CRITIQUE_SEGMENT = 20


def setup_corpus(files: dict, seed: int) -> dict:
    graph = kg.load_triples(files["kg"])
    aliases = kg.load_aliases(files["aliases"])
    return {
        "graph": graph,
        "aliases": aliases,
        "types": kg.load_entity_types(files["types"]),
        "records": dialogue.read_dialogues(files["records"]),
        "held": load_heldout(files["heldout"], graph),
        "critic": critic.Critic(graph, aliases, k=2),
        "table": embeddings.init_embeddings(len(graph.entities), len(graph.relations), 32, seed),
        "seed": seed,
    }


def repeat_corpus(state: dict, tracer, rep: int) -> dict:
    graph, aliases, records, the_critic = (
        state["graph"], state["aliases"], state["records"], state["critic"]
    )
    cfg = corruptor.CorruptionConfig(fraction=0.6, seed=state["seed"], policy="fallback", k=2)

    def tag(stage: str) -> None:
        if tracer:
            tracer.request = f"rep{rep}:{stage}"

    meter = hostspeed.Meter()
    tag("corrupt")
    start = now()
    corrupted, summary = corruptor.build_synthetic_dataset(
        records, graph, state["types"], cfg, aliases=aliases
    )
    meter.add(corrupt=now() - start)

    # Each original is followed by its corruption, when one was produced.
    by_original = {id(c.original): c for c in corrupted}
    mixed = []
    for rec in records:
        mixed.append((rec, None))
        c = by_original.get(id(rec))
        if c is not None:
            mixed.append((c.as_record(), c))
    latencies = []
    reports = []
    raised = 0
    for first in range(0, len(mixed), CRITIQUE_SEGMENT):
        chunk = []
        for i in range(first, min(first + CRITIQUE_SEGMENT, len(mixed))):
            tag(f"critique:{i}")
            t = now()
            try:
                report = the_critic.critique(mixed[i][0])
            except KgFaithError:
                report = None
                raised += 1
            chunk.append(now() - t)
            reports.append(report)
        meter.add(critique=sum(chunk))
        latencies += chunk

    start = now()
    refine_cfg = retriever.RefineConfig(k=2, mode="oracle")
    refined = []
    for i, ((rec, _), report) in enumerate(zip(mixed, reports)):
        if report is None or not report.flagged:
            continue
        tag(f"refine:{i}")
        refined.append((rec, retriever.refine_response(
            rec, report, graph, state["table"], refine_cfg, aliases=aliases
        )))
    meter.add(refine=now() - start)

    tag("linkpred")
    start = now()
    filtered = embeddings.evaluate_link_prediction(
        state["table"], state["held"], graph, mode="filtered"
    )
    ranked = now()
    raw = embeddings.evaluate_link_prediction(state["table"], state["held"], graph, mode="raw")
    meter.add(linkpred=ranked - start, linkpred_raw=now() - ranked)

    recall_total = recall_hit = originals_flagged = 0
    for (rec, c), report in zip(mixed, reports):
        if report is None:
            continue
        if c is None:
            originals_flagged += int(report.flagged)
        elif c.kind == "extrinsic":
            extrinsic = {(s.begin, s.end) for s in report.labels if s.label == "extrinsic"}
            recall_total += len(c.labels)
            recall_hit += sum(1 for b, e in c.labels if (b, e) in extrinsic)
    spans = sum(len(o.edits) + len(o.failures) for _, o in refined)
    failures = sum(len(o.failures) for _, o in refined)
    checks = {
        "gate4.extrinsic_recall_eq_1": recall_hit == recall_total > 0,
        "faithful_originals_unflagged": originals_flagged == 0,
        "filtered_rank_le_raw": filtered_le_raw(filtered, raw),
    }
    labels = [[s.to_json() for s in r.labels] if r else None for r in reports]

    def figures(times: dict) -> dict:
        return {
            "wall_s": sum(times.values()),
            "corrupt_rec_per_s": len(records) / times["corrupt"],
            "critique_rec_per_s": len(mixed) / times["critique"],
            "critique_ms_p50": 1e3 * median(latencies),
            "critique_ms_p95": 1e3 * tail_percentile(latencies, 95),
            "refine_rec_per_s": len(refined) / times["refine"],
            "linkpred_triples_per_s": len(state["held"]) / times["linkpred"],
        }

    return {
        "figures": figures(meter.times),
        "speed": meter.factor(),
        "quality": {"extrinsic_recall": recall_hit / recall_total if recall_total else 0.0},
        "attempted": len(records) + len(mixed) + spans + 2 * len(state["held"]),
        "failed": summary.dropped + raised + failures,
        "checks": checks,
        "hashes": {
            "corrupt": digest([c.to_json() for c in corrupted]),
            "critique": digest(labels),
            "refine": digest([o.merged_json(rec) for rec, o in refined]),
            "linkpred": digest([filtered.ranks, raw.ranks]),
        },
    }


WORKLOADS = {
    "train-block": (setup_train, repeat_train),
    "corpus-6k": (setup_corpus, repeat_corpus),
}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    setup, repeat = WORKLOADS[spec["workload"]]
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.request = "setup"
        layers.install(tracer)
    state = setup(spec["files"], spec["seed"])
    setup_s = now() - float(sys.argv[2])
    result: dict = {"setup_s": setup_s, "package": kg.__file__}
    if not spec["setup_only"]:
        repeats = []
        begin = now()
        while not repeats or now() - begin < spec["seconds"]:
            repeats.append(repeat(state, tracer, len(repeats)))
        result["repeats"] = repeats
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        result["spans"] = [s.to_json() for s in tracer.spans]
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
