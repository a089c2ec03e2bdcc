"""Command-line pipeline: graph inspection, corruption, training,
critique, refinement, and evaluation.

Exit codes: 0 success, 1 validation problem (bad flag, bad config
value, missing input file, unknown subcommand), 2 runtime failure
while processing valid inputs.

A JSON config file (--config) supplies defaults that explicit flags
override. Randomized stages derive their working seed from the root
--seed hashed with the stage name, so each stage is independently
reproducible from one number.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from .corruptor import CorruptionConfig, build_synthetic_dataset
from .critic import ANCHOR_SOURCES, Critic, INTRINSIC_MODES, load_relation_phrases
from .dialogue import DialogueRecord, read_dialogues
from .embeddings import (
    OPTIMIZERS,
    EmbeddingTable,
    TrainingConfig,
    align_table,
    evaluate_link_prediction,
    load_embeddings,
    save_embeddings,
    save_loss_trace,
    train,
)
from .errors import ConfigValidation, KgFaithError, MalformedLine, UnknownCommand
from .kg import Triple, _read_tsv, load_aliases, load_entity_types, load_triples
from .metrics import EvalSummary, bleu, hallucination_rate
from .retriever import QUERY_MODES, RefineConfig, load_query_vectors, refine_response


def stage_seed(root: int, stage: str) -> int:
    """Derive a stage's working seed from the root seed.

    The stage name is hashed together with the root, so stages never
    share a stream yet each is reproducible from the root alone.
    """
    digest = hashlib.sha256(f"{root}:{stage}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main() owns exit codes."""

    def error(self, message: str) -> None:  # type: ignore[override]
        if "invalid choice" in message:
            raise UnknownCommand(message)
        raise ConfigValidation(message)


def _require_file(path: str | None, flag: str) -> Path:
    if path is None:
        raise ConfigValidation(f"{flag} is required")
    p = Path(path)
    if not p.is_file():
        raise ConfigValidation(f"{flag}: no such file: {path}")
    return p


def _load_config(argv: list[str]) -> dict[str, Any]:
    """Pull --config FILE out of argv (without consuming it) and load it."""
    path: str | None = None
    for i, tok in enumerate(argv):
        if tok == "--config":
            if i + 1 >= len(argv):
                raise ConfigValidation("--config needs a file path")
            path = argv[i + 1]
            break
        if tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            break
    if path is None:
        return {}
    try:
        blob = json.loads(_require_file(path, "--config").read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigValidation(f"--config: not valid JSON: {err}") from err
    if not isinstance(blob, dict):
        raise ConfigValidation("--config: top level must be a JSON object")
    return blob


class _Options:
    """add_argument wrapper that folds config values in as defaults.

    A key present in the config file replaces the built-in default and
    lifts any required flag, so explicit command-line flags always win.
    """

    def __init__(self, config: dict[str, Any]):
        self.config = config
        self.known: set[str] = {"config"}

    def add(
        self,
        parser: argparse.ArgumentParser,
        *flags: str,
        required: bool = False,
        **kwargs: Any,
    ) -> None:
        dest = kwargs.get("dest") or flags[0].lstrip("-").replace("-", "_")
        self.known.add(dest)
        if dest in self.config:
            kwargs["default"] = self.config[dest]
            required = False
        if required:
            kwargs["required"] = True
        else:
            kwargs.setdefault("default", None)
        parser.add_argument(*flags, **kwargs)

    def validate_keys(self) -> None:
        unknown = sorted(set(self.config) - self.known)
        if unknown:
            raise ConfigValidation(f"--config: unknown keys: {', '.join(unknown)}")


def _emit(blob: Any, out: Path | None) -> None:
    text = json.dumps(blob, indent=2) + "\n"
    if out:
        out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


@contextmanager
def _atomic_outputs(*paths: str | None) -> Iterator[list[Path | None]]:
    """Temp paths beside the given outputs, moved over them when the block succeeds.

    An output given as None stays None. A block that raises leaves every
    output as it was (absent, or its old content) and removes the temp
    files.
    """
    temps = [
        None if p is None else Path(p).with_name(f".{Path(p).name}.{os.getpid()}.tmp")
        for p in paths
    ]
    moves = [(tmp, p) for tmp, p in zip(temps, paths) if tmp is not None]
    try:
        yield temps
        for tmp, target in moves:
            os.replace(tmp, target)
    finally:
        for tmp, _ in moves:
            tmp.unlink(missing_ok=True)


def _load_heldout_triples(path: Path, graph) -> list[Triple]:
    """Read name triples and resolve them against the graph vocabulary."""
    return [
        Triple(
            graph.resolve_entity(s),
            graph.resolve_relation(p),
            graph.resolve_entity(o),
        )
        for _, (s, p, o) in _read_tsv(path, 3)
    ]


def _load_table(path: str | None, graph) -> EmbeddingTable:
    """Load the --emb snapshot aligned to the graph.

    A malformed line stays a runtime error; a snapshot that parses but
    does not fit (row counts, missing names) is a validation error.
    """
    snapshot = _require_file(path, "--emb")
    try:
        return align_table(load_embeddings(snapshot), graph)
    except MalformedLine:
        raise
    except ValueError as err:
        raise ConfigValidation(str(err)) from err


def _parse_sampler(value: str) -> tuple[str, int]:
    """Turn a sampler argument (uniform | sans[:K] | inbatch) into config fields."""
    if value == "uniform":
        return "uniform", 1
    if value == "inbatch":
        return "in_batch", 1
    if value == "sans":
        return "sans", 1
    if value.startswith("sans:"):
        try:
            hops = int(value.split(":", 1)[1])
        except ValueError:
            raise ConfigValidation(f"bad sans radius in sampler argument {value!r}")
        return "sans", hops
    raise ConfigValidation(
        f"sampler must be uniform, sans[:K], or inbatch, got {value!r}"
    )


# --- subcommands -----------------------------------------------------------


def _cmd_kg_stats(args: argparse.Namespace) -> int:
    graph = load_triples(_require_file(args.kg, "--kg"))
    s = graph.stats()
    if args.json:
        print(
            json.dumps(
                {
                    "entities": s.entities,
                    "relations": s.relations,
                    "triples": s.triples,
                    "mean_degree": s.mean_degree,
                    "max_degree": s.max_degree,
                }
            )
        )
    else:
        print(f"{{entities: {s.entities}, relations: {s.relations}, triples: {s.triples}}}")
    return 0


def _cmd_subgraph(args: argparse.Namespace) -> int:
    graph = load_triples(_require_file(args.kg, "--kg"))
    centers = [c.strip() for c in (args.center or "").split(",") if c.strip()]
    if not centers:
        raise ConfigValidation("--center needs at least one entity name")
    if args.k < 0:
        raise ConfigValidation(f"--k must be >= 0, got {args.k}")
    sub = graph.khop_subgraph(centers, args.k)
    blob = {
        "centers": centers,
        "k": args.k,
        "nodes": [graph.entities.name_of(i) for i in sorted(sub.nodes)],
        "triples": [list(graph.name_triple(t)) for t in sub.triples],
    }
    with _atomic_outputs(args.out) as (out,):
        _emit(blob, out)
    return 0


def _cmd_corrupt(args: argparse.Namespace) -> int:
    graph = load_triples(_require_file(args.kg, "--kg"))
    types = load_entity_types(_require_file(args.types, "--types"))
    aliases = (
        load_aliases(_require_file(args.aliases, "--aliases")) if args.aliases else None
    )
    records = read_dialogues(_require_file(args.input, "--in"))
    seed = stage_seed(args.seed, "corrupt")
    print(f"corrupt: root seed {args.seed}, stage seed {seed}", file=sys.stderr)
    try:
        cfg = CorruptionConfig(
            fraction=args.frac, seed=seed, policy=args.policy, k=args.k
        )
    except ValueError as err:
        raise ConfigValidation(str(err)) from err
    corrupted, summary = build_synthetic_dataset(
        records, graph, types, cfg, aliases=aliases
    )
    if args.out is None:
        raise ConfigValidation("--out is required")
    text = json.dumps(summary.to_json(), indent=2)
    with _atomic_outputs(args.out, args.summary) as (out, summary_out):
        with open(out, "w", encoding="utf-8") as fh:
            for rec in corrupted:
                fh.write(json.dumps(rec.to_json()) + "\n")
        if summary_out:
            summary_out.write_text(text + "\n", encoding="utf-8")
    if not args.summary:
        print(text, file=sys.stderr)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    graph = load_triples(_require_file(args.kg, "--kg"))
    sampler, sans_hops = _parse_sampler(args.sampler)
    seed = stage_seed(args.seed, "train")
    print(f"train: root seed {args.seed}, stage seed {seed}", file=sys.stderr)
    try:
        cfg = TrainingConfig(
            d=args.dim,
            lr=args.lr,
            epochs=args.epochs,
            batch_size=args.batch,
            negatives=args.neg,
            sampler=sampler,
            sans_k=sans_hops,
            seed=seed,
            optimizer=args.optimizer,
            l2=args.l2,
        )
    except ValueError as err:
        raise ConfigValidation(str(err)) from err
    if args.out is None:
        raise ConfigValidation("--out is required")
    table, trace = train(graph, cfg)
    with _atomic_outputs(args.out, args.trace) as (out, trace_out):
        save_embeddings(out, table)
        if trace_out:
            save_loss_trace(trace_out, trace)
    print(
        f"train: {len(trace)} epochs, final mean loss {trace[-1]:.6g}",
        file=sys.stderr,
    )
    return 0


def _cmd_critique(args: argparse.Namespace) -> int:
    graph = load_triples(_require_file(args.kg, "--kg"))
    aliases = load_aliases(_require_file(args.aliases, "--aliases"))
    phrases = (
        load_relation_phrases(_require_file(args.phrases, "--phrases"))
        if args.phrases
        else None
    )
    try:
        critic = Critic(
            graph,
            aliases,
            k=args.k,
            mode=args.mode,
            relation_phrases=phrases,
            anchor_source=args.anchors,
        )
    except ValueError as err:
        raise ConfigValidation(str(err)) from err
    records = read_dialogues(_require_file(args.input, "--in"))
    if args.out is None:
        raise ConfigValidation("--out is required")
    flagged = 0
    with _atomic_outputs(args.out) as (out,), open(out, "w", encoding="utf-8") as fh:
        for record in records:
            report = critic.critique(record)
            blob = record.to_json()
            blob["labels"] = [lab.to_json() for lab in report.labels]
            blob["flagged"] = report.flagged
            fh.write(json.dumps(blob) + "\n")
            flagged += int(report.flagged)
    print(f"critique: {len(records)} records, {flagged} flagged", file=sys.stderr)
    return 0


def _cmd_refine(args: argparse.Namespace) -> int:
    graph = load_triples(_require_file(args.kg, "--kg"))
    aliases = load_aliases(_require_file(args.aliases, "--aliases"))
    table = _load_table(args.emb, graph)
    external = (
        load_query_vectors(_require_file(args.queries, "--queries"))
        if args.queries
        else None
    )
    if args.mode == "external" and external is None:
        raise ConfigValidation("external query mode needs --queries")
    try:
        cfg = RefineConfig(
            k=args.k,
            mode=args.mode,
            chain=args.chain == "on",
            anchor_source=args.anchors,
        )
        critic = Critic(graph, aliases, k=args.k, anchor_source=args.anchors)
    except ValueError as err:
        raise ConfigValidation(str(err)) from err
    records = read_dialogues(_require_file(args.input, "--in"))
    if args.out is None:
        raise ConfigValidation("--out is required")
    n_edits = n_failures = 0
    with _atomic_outputs(args.out) as (out,), open(out, "w", encoding="utf-8") as fh:
        for record in records:
            report = critic.critique(record)
            outcome = refine_response(
                record, report, graph, table, cfg, aliases=aliases, external=external
            )
            n_edits += len(outcome.edits)
            n_failures += len(outcome.failures)
            fh.write(json.dumps(outcome.merged_json(record)) + "\n")
    print(
        f"refine: {len(records)} records, {n_edits} edits, {n_failures} failures",
        file=sys.stderr,
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    want_ranking = args.emb is not None or args.heldout is not None
    if want_ranking and (args.emb is None or args.heldout is None):
        raise ConfigValidation("link prediction needs both --emb and --heldout")
    if not want_ranking and args.refined is None:
        raise ConfigValidation(
            "nothing to evaluate: pass --refined and/or --emb with --heldout"
        )
    if args.ranks_csv is not None and not want_ranking:
        raise ConfigValidation("--ranks-csv needs --emb and --heldout")
    graph = load_triples(_require_file(args.kg, "--kg"))
    counts: dict[str, int] = {}
    ranking = None
    bleu_score = None
    rate = None

    if want_ranking:
        table = _load_table(args.emb, graph)
        heldout = _load_heldout_triples(_require_file(args.heldout, "--heldout"), graph)
        try:
            ranking = evaluate_link_prediction(table, heldout, graph, mode=args.rank_mode)
        except ValueError as err:
            raise ConfigValidation(str(err)) from err
        counts["ranks"] = len(ranking.ranks)

    if args.refined is not None:
        records = read_dialogues(_require_file(args.refined, "--refined"))
        counts["records"] = len(records)
        hyps = []
        refs = []
        for rec in records:
            if rec.gold_response is None:
                continue
            hyps.append(rec.extra.get("refined_response", rec.response))
            refs.append(rec.gold_response)
        if hyps:
            bleu_score = bleu(hyps, refs, level=args.bleu_level)
        else:
            print("eval: no gold responses, skipping BLEU", file=sys.stderr)
        if args.aliases:
            aliases = load_aliases(_require_file(args.aliases, "--aliases"))
            try:
                critic = Critic(graph, aliases, k=args.k)
            except ValueError as err:
                raise ConfigValidation(str(err)) from err
            flags = []
            for rec in records:
                probe = DialogueRecord(
                    history=rec.history,
                    triples=rec.triples,
                    response=rec.extra.get("refined_response", rec.response),
                    gold_response=rec.gold_response,
                )
                flags.append(critic.critique(probe).flagged)
            rate = hallucination_rate(flags)

    summary = EvalSummary(
        counts=counts, ranking=ranking, bleu_score=bleu_score, hallucination=rate
    )
    with _atomic_outputs(args.ranks_csv, args.out) as (ranks_out, out):
        if ranks_out:
            with open(ranks_out, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["item", "rank"])
                for i, rank in enumerate(ranking.ranks, start=1):
                    writer.writerow([i, rank])
        _emit(summary.to_json(), out)
    return 0


# --- parser ----------------------------------------------------------------


def build_parser(config: dict[str, Any] | None = None) -> _Parser:
    opts = _Options(config or {})
    parser = _Parser(
        prog="kgfaith",
        description=(
            "Knowledge-graph faithfulness pipeline: corrupt grounded "
            "dialogues, train a trilinear entity memory, flag hallucinated "
            "mentions, and splice in supported entities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def common(p: argparse.ArgumentParser) -> None:
        opts.add(p, "--config", default=None, help="JSON file with flag defaults; explicit flags win")

    kg = sub.add_parser("kg", help="triple-store inspection")
    kg_sub = kg.add_subparsers(dest="kg_command", required=True, metavar="SUBCOMMAND")
    stats = kg_sub.add_parser("stats", help="print graph size counters")
    common(stats)
    opts.add(stats, "--kg", required=True, help="triple file (TSV)")
    opts.add(stats, "--json", action="store_true", default=False, help="emit full stats as JSON")
    stats.set_defaults(func=_cmd_kg_stats)

    sg = sub.add_parser("subgraph", help="extract a k-hop neighborhood as JSON")
    common(sg)
    opts.add(sg, "--kg", required=True, help="triple file (TSV)")
    opts.add(sg, "--center", required=True, help="comma-separated center entity names")
    opts.add(sg, "--k", type=int, default=2, help="hop radius (method default 2)")
    opts.add(sg, "--out", default=None, help="output JSON path (default stdout)")
    sg.set_defaults(func=_cmd_subgraph)

    co = sub.add_parser("corrupt", help="generate labeled hallucinated responses")
    common(co)
    opts.add(co, "--in", dest="input", required=True, help="dialogue JSONL input")
    opts.add(co, "--kg", required=True, help="triple file (TSV)")
    opts.add(co, "--types", required=True, help="entity-type TSV (entity<TAB>type)")
    opts.add(co, "--aliases", default=None, help="alias TSV for mention linking (optional)")
    opts.add(co, "--frac", type=float, default=0.6, help="extrinsic share of records (method default 0.6)")
    opts.add(co, "--seed", type=int, default=0, help="root seed (tool default 0)")
    opts.add(co, "--policy", choices=("fallback", "drop"), default="fallback", help="when the assigned strategy does not apply (tool default fallback)")
    opts.add(co, "--k", type=int, default=2, help="exclusion-subgraph radius (method default 2)")
    opts.add(co, "--out", required=True, help="corrupted JSONL output")
    opts.add(co, "--summary", default=None, help="summary JSON path (default stderr)")
    co.set_defaults(func=_cmd_corrupt)

    tr = sub.add_parser("train", help="train the entity/relation embedding table")
    common(tr)
    opts.add(tr, "--kg", required=True, help="triple file (TSV)")
    opts.add(tr, "--dim", type=int, default=64, help="embedding dimension (tool default 64)")
    opts.add(tr, "--sampler", default="uniform", help="negative sampler: uniform | sans[:K] | inbatch (tool default uniform)")
    opts.add(tr, "--neg", type=int, default=50, help="negatives per positive (method default 50)")
    opts.add(tr, "--epochs", type=int, default=50, help="training epochs (tool default 50)")
    opts.add(tr, "--batch", type=int, default=32, help="mini-batch size (tool default 32)")
    opts.add(tr, "--lr", type=float, default=1e-2, help="learning rate (tool default 0.01)")
    opts.add(tr, "--optimizer", choices=tuple(OPTIMIZERS), default="sgd", help="update rule (tool default sgd)")
    opts.add(tr, "--l2", type=float, default=1e-4, help="L2 coefficient on touched rows (tool default 1e-4)")
    opts.add(tr, "--seed", type=int, default=0, help="root seed (tool default 0)")
    opts.add(tr, "--out", required=True, help="embedding snapshot output path")
    opts.add(tr, "--trace", default=None, help="loss-trace CSV output path (optional)")
    tr.set_defaults(func=_cmd_train)

    cr = sub.add_parser("critique", help="label hallucinated mentions in responses")
    common(cr)
    opts.add(cr, "--in", dest="input", required=True, help="dialogue JSONL input")
    opts.add(cr, "--kg", required=True, help="triple file (TSV)")
    opts.add(cr, "--aliases", required=True, help="alias TSV for mention linking")
    opts.add(cr, "--k", type=int, default=2, help="neighborhood radius (method default 2)")
    opts.add(cr, "--mode", choices=INTRINSIC_MODES, default="undirected", help="in-graph pair check (tool default undirected)")
    opts.add(cr, "--phrases", default=None, help="relation-phrase TSV for the directed mode")
    opts.add(cr, "--anchors", choices=ANCHOR_SOURCES, default="kn", help="anchor entities from grounding triples (kn) or history (tool default kn)")
    opts.add(cr, "--out", required=True, help="labeled JSONL output")
    cr.set_defaults(func=_cmd_critique)

    rf = sub.add_parser("refine", help="replace flagged mentions with supported entities")
    common(rf)
    opts.add(rf, "--in", dest="input", required=True, help="dialogue JSONL input")
    opts.add(rf, "--kg", required=True, help="triple file (TSV)")
    opts.add(rf, "--emb", required=True, help="embedding snapshot")
    opts.add(rf, "--aliases", required=True, help="alias TSV for linking and surface forms")
    opts.add(rf, "--k", type=int, default=2, help="neighborhood radius (method default 2)")
    opts.add(rf, "--mode", choices=QUERY_MODES, default="oracle", help="query construction (tool default oracle)")
    opts.add(rf, "--queries", default=None, help="external query-vector file (one per flagged mention)")
    opts.add(rf, "--chain", choices=("on", "off"), default="on", help="retrieved entities join the anchor set (method default on)")
    opts.add(rf, "--anchors", choices=ANCHOR_SOURCES, default="kn", help="anchor source (tool default kn)")
    opts.add(rf, "--out", required=True, help="refined JSONL output")
    rf.set_defaults(func=_cmd_refine)

    ev = sub.add_parser("eval", help="aggregate ranking and text metrics")
    common(ev)
    opts.add(ev, "--kg", required=True, help="triple file (TSV)")
    opts.add(ev, "--emb", default=None, help="embedding snapshot (enables link prediction)")
    opts.add(ev, "--heldout", default=None, help="held-out triple TSV (enables link prediction)")
    opts.add(ev, "--rank-mode", choices=("raw", "filtered"), default="filtered", help="candidate filtering (method default filtered)")
    opts.add(ev, "--refined", default=None, help="refined JSONL (enables text metrics)")
    opts.add(ev, "--aliases", default=None, help="alias TSV (enables hallucination rate on refined text)")
    opts.add(ev, "--bleu-level", choices=("corpus", "sentence"), default="corpus", help="BLEU pooling (tool default corpus)")
    opts.add(ev, "--k", type=int, default=2, help="critic radius for the hallucination rate on --refined (method default 2)")
    opts.add(ev, "--ranks-csv", default=None, help="per-item rank CSV output path")
    opts.add(ev, "--out", default=None, help="summary JSON path (default stdout)")
    ev.set_defaults(func=_cmd_eval)

    opts.validate_keys()
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config = _load_config(argv)
        parser = build_parser(config)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help exits 0; anything else is misuse
            return 0 if exc.code in (0, None) else 1
        return args.func(args)
    except ConfigValidation as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except KgFaithError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
