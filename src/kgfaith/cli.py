"""Command-line pipeline: graph inspection, corruption, training,
critique, refinement, and evaluation.

Exit codes: 0 success, 1 validation problem (bad flag, bad config
value, missing input file, unknown subcommand), 2 runtime failure
while processing valid inputs. main() owns the run's boundary: after
parsing it refuses two outputs naming one file, checks each input file
given, and runs BLAS on one thread unless the environment names a count
(so trained bytes do not depend on the host's core count); the command
then checks the flag values it uses before it reads any file, and
writes each output to a temp file moved into place on success.

A JSON config file (--config) supplies values for the command's flags;
each is parsed like the flag itself, and explicit flags override it.
Randomized stages derive their working seed from the root
--seed hashed with the stage name, so each stage is independently
reproducible from one number.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

# Each command imports the modules it runs, so kg stats and subgraph load
# only kg. corruptor, embeddings and retriever import numpy; main() sets
# the BLAS thread variables before any command imports them, and kg stats,
# subgraph, critique and an eval without --emb start without numpy.
from .choices import ANCHOR_SOURCES, BLEU_LEVELS, OPTIMIZERS, POLICIES, QUERY_MODES, RANK_MODES
from .errors import ConfigValidation, KgFaithError, LengthMismatch, MalformedLabels, UnknownCommand
from .kg import AliasTable, Triple, _read_tsv, check_radius, load_aliases, load_entity_types, load_triples

if TYPE_CHECKING:
    from .critic import Critic, CriticReport
    from .dialogue import DialogueRecord


def _numpy_on_one_thread() -> None:
    """Set each unset BLAS thread variable to 1, if numpy is not loaded yet.

    BLAS reads them once, when numpy first loads it. Left unset, it runs
    one thread per core, and batch products round differently on another
    count. A process that imported numpy before calling main() keeps its
    own settings.
    """
    if "numpy" not in sys.modules:
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(name, "1")


def stage_seed(root: int, stage: str) -> int:
    """Derive a stage's working seed from the root seed.

    The stage name is hashed together with the root, so stages never
    share a stream yet each is reproducible from the root alone.
    """
    import hashlib

    digest = hashlib.sha256(f"{root}:{stage}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main() owns exit codes."""

    def error(self, message: str) -> None:  # type: ignore[override]
        if message.startswith(("argument COMMAND:", "argument SUBCOMMAND:")):
            raise UnknownCommand(message)
        raise ConfigValidation(message)


def _require_file(path: str, flag: str) -> Path:
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
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ConfigValidation(f"--config: not valid UTF-8 JSON: {err}") from err
    if not isinstance(blob, dict):
        raise ConfigValidation("--config: top level must be a JSON object")
    return blob


class _Options:
    """add_argument wrapper that records each command's flags by config key."""

    def __init__(self) -> None:
        self.commands: dict[tuple[str, ...], dict[str, argparse.Action]] = {}

    def add(self, parser: argparse.ArgumentParser, *flags: str, **kwargs: Any) -> None:
        action = parser.add_argument(*flags, **kwargs)
        command = tuple(parser.prog.split()[1:])
        self.commands.setdefault(command, {})[action.dest] = action

    def with_config(self, argv: list[str], config: dict[str, Any]) -> list[str]:
        """argv with its command's config values as flags after the command words.

        argparse then checks them like typed flags, and an explicit flag,
        parsed later, wins. null is absent; a boolean sets a store_true
        flag. Keys that only other commands read are ignored.
        """
        unknown = sorted(set(config).difference(*self.commands.values()))
        if unknown:
            raise ConfigValidation(f"--config: unknown keys: {', '.join(unknown)}")
        for command, actions in self.commands.items():
            if tuple(argv[: len(command)]) == command:
                break
        else:
            return argv
        tokens = []
        for key, value in config.items():
            action = actions.get(key)
            if action is None or value is None:
                continue
            flag = action.option_strings[0]
            if action.nargs == 0 and isinstance(value, bool):
                tokens += [flag] if value else []
            elif isinstance(value, (bool, list, dict)):
                raise ConfigValidation(
                    f"--config: {key}: {flag} takes one value, got {json.dumps(value)}"
                )
            else:
                tokens.append(f"{flag}={value}")
        return argv[: len(command)] + tokens + argv[len(command) :]


# The file flags main() handles for every command, by dest: the flag is
# --in for input and --<dest> for the rest.
_INPUT_FILES = ("kg", "input", "types", "aliases", "phrases", "emb", "queries", "heldout", "refined")
_OUTPUT_FILES = ("out", "summary", "trace", "ranks_csv")


def _emit(blob: Any, out: Path | None) -> None:
    text = json.dumps(blob, indent=2) + "\n"
    if out:
        out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


@contextmanager
def _atomic_outputs(*paths: str | None) -> Iterator[list[Path | None]]:
    """Temp paths beside the given outputs, moved over them when the block succeeds.

    An output given as None stays None. Two outputs that resolve to one
    file are refused on entry; main() enters this before any command's
    work, so such a run does none. A block that raises
    leaves every output as it was (absent, or its old content) and
    removes the temp files.
    """
    resolved = [Path(p).resolve() for p in paths if p is not None]
    for i, target in enumerate(resolved):
        if target in resolved[:i]:
            raise ConfigValidation(f"two outputs name one file: {target}")
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


def _load_table(path: Path, graph):
    """Load the --emb snapshot aligned to the graph.

    A malformed line stays a runtime error; a snapshot that parses but
    does not fit (missing names) is a validation error.
    """
    from .embeddings import align_table, load_embeddings

    return align_table(load_embeddings(path), graph)


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
    s = load_triples(args.kg).stats()
    if args.json:
        print(json.dumps(dataclasses.asdict(s)))
    else:
        print(f"{{entities: {s.entities}, relations: {s.relations}, triples: {s.triples}}}")
    return 0


def _cmd_subgraph(args: argparse.Namespace) -> int:
    centers = [c.strip() for c in args.center.split(",") if c.strip()]
    if not centers:
        raise ConfigValidation("--center needs at least one entity name")
    check_radius(args.k)
    graph = load_triples(args.kg)
    sub = graph.khop_subgraph(centers, args.k)
    blob = {
        "centers": centers,
        "k": args.k,
        "nodes": [graph.entities.name_of(i) for i in sorted(sub.nodes)],
        "triples": [list(graph.name_triple(t)) for t in sub.triples],
    }
    _emit(blob, args.out)
    return 0


def _cmd_corrupt(args: argparse.Namespace) -> int:
    from .corruptor import CorruptionConfig, build_synthetic_dataset
    from .dialogue import read_dialogues, write_dialogues

    seed = stage_seed(args.seed, "corrupt")
    cfg = CorruptionConfig(fraction=args.frac, seed=seed, policy=args.policy, k=args.k)
    graph = load_triples(args.kg)
    types = load_entity_types(args.types)
    aliases = (
        load_aliases(args.aliases) if args.aliases else AliasTable.from_names(graph.entities.names)
    )
    records = read_dialogues(args.input)
    print(f"corrupt: root seed {args.seed}, stage seed {seed}", file=sys.stderr)
    corrupted, summary = build_synthetic_dataset(records, graph, types, cfg, aliases=aliases)
    text = json.dumps(dataclasses.asdict(summary), indent=2)
    write_dialogues(args.out, (rec.to_json() for rec in corrupted))
    if args.summary:
        args.summary.write_text(text + "\n", encoding="utf-8")
    else:
        print(text, file=sys.stderr)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from .embeddings import TrainingConfig, save_embeddings, save_loss_trace, train

    sampler, sans_hops = _parse_sampler(args.sampler)
    seed = stage_seed(args.seed, "train")
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
    graph = load_triples(args.kg)
    print(f"train: root seed {args.seed}, stage seed {seed}", file=sys.stderr)
    table, trace = train(graph, cfg)
    save_embeddings(args.out, table)
    if args.trace:
        save_loss_trace(args.trace, trace)
    print(
        f"train: {len(trace)} epochs, final mean loss {trace[-1]:.6g}",
        file=sys.stderr,
    )
    return 0


def _critic_flags(opts: _Options, p: argparse.ArgumentParser) -> None:
    """Declare the flags that _critic reads besides --aliases (critique and eval)."""
    opts.add(p, "--k", type=int, default=2, help="neighborhood radius (method default 2)")
    opts.add(p, "--phrases", default=None, help="relation-phrase TSV; turns on the orientation check (optional)")
    opts.add(p, "--anchors", choices=ANCHOR_SOURCES, default="kn", help="anchor entities from grounding triples (kn) or history (tool default kn)")


def _critic(args: argparse.Namespace, graph) -> Critic:
    """The critic of --aliases, --k, --phrases and --anchors (critique and eval)."""
    from .critic import Critic, load_relation_phrases

    aliases = load_aliases(args.aliases)
    phrases = load_relation_phrases(args.phrases) if args.phrases else None
    return Critic(
        graph,
        aliases,
        k=args.k,
        relation_phrases=phrases,
        anchor_source=args.anchors,
    )


def _cmd_critique(args: argparse.Namespace) -> int:
    from .dialogue import read_dialogues, write_dialogues

    check_radius(args.k)
    graph = load_triples(args.kg)
    critic = _critic(args, graph)
    records = read_dialogues(args.input)
    flagged = 0

    def labelled() -> Iterator[dict[str, Any]]:
        nonlocal flagged
        for record in records:
            report = critic.critique(record)
            flagged += report.flagged
            labels = [lab.to_json() for lab in report.labels]
            yield {**record.to_json(), "labels": labels, "flagged": report.flagged}

    write_dialogues(args.out, labelled())
    print(f"critique: {len(records)} records, {flagged} flagged", file=sys.stderr)
    return 0


def _critic_reports(records: list[DialogueRecord]) -> list[CriticReport]:
    """The report each record carries as the ``labels`` that ``critique`` wrote."""
    from .critic import CriticReport

    reports = []
    for number, record in enumerate(records, start=1):
        if "labels" not in record.extra:
            raise MalformedLabels(number, "no labels")
        try:
            reports.append(CriticReport.from_json(record.extra["labels"], record.response))
        except ValueError as err:
            raise MalformedLabels(number, str(err)) from err
    return reports


def _cmd_refine(args: argparse.Namespace) -> int:
    from .dialogue import read_dialogues, write_dialogues
    from .retriever import RefineConfig, load_query_vectors, refine_response

    if (args.mode == "external") != (args.queries is not None):
        raise ConfigValidation("--queries goes with --mode external, and only with it")
    cfg = RefineConfig(
        k=args.k, mode=args.mode, chain=args.chain == "on", anchor_source=args.anchors
    )
    graph = load_triples(args.kg)
    aliases = load_aliases(args.aliases)
    table = _load_table(args.emb, graph)
    queries = (
        load_query_vectors(args.queries, table.dim) if args.queries is not None else None
    )
    records = read_dialogues(args.input)
    reports = _critic_reports(records)
    spans = sum(len(report.flagged_spans) for report in reports)
    if queries is not None and len(queries) != spans:
        raise LengthMismatch(f"--queries: {len(queries)} vector(s), {spans} flagged span(s)")
    n_edits = n_failures = 0

    def refined() -> Iterator[dict[str, Any]]:
        nonlocal n_edits, n_failures
        taken = 0
        for record, report in zip(records, reports):
            n = len(report.flagged_spans)
            mine = None if queries is None else queries[taken : taken + n]
            taken += n
            outcome = refine_response(
                record, report, graph, table, cfg, aliases=aliases, queries=mine
            )
            n_edits += len(outcome.edits)
            n_failures += len(outcome.failures)
            yield outcome.merged_json(record)

    write_dialogues(args.out, refined())
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
        raise ConfigValidation("nothing to evaluate: pass --refined and/or --emb with --heldout")
    if args.ranks_csv is not None and not want_ranking:
        raise ConfigValidation("--ranks-csv needs --emb and --heldout")
    if args.refined is not None and args.aliases is not None:  # the critic runs
        check_radius(args.k)
    graph = load_triples(args.kg)
    counts: dict[str, int] = {}
    ranking = None
    bleu_score = None
    rate = None

    if want_ranking:
        from .embeddings import evaluate_link_prediction

        table = _load_table(args.emb, graph)
        heldout = _load_heldout_triples(args.heldout, graph)
        ranking = evaluate_link_prediction(table, heldout, graph, mode=args.rank_mode)
        counts["ranks"] = len(ranking.ranks)
        if args.ranks_csv:
            import csv

            with open(args.ranks_csv, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["item", "rank"])
                for i, rank in enumerate(ranking.ranks, start=1):
                    writer.writerow([i, rank])

    if args.refined is not None:
        from .dialogue import read_dialogues
        from .metrics import bleu, hallucination_rate

        records = read_dialogues(args.refined)
        counts["records"] = len(records)
        texts = [rec.extra.get("refined_response", rec.response) for rec in records]
        golds = [(text, rec.gold_response) for text, rec in zip(texts, records)
                 if rec.gold_response is not None]
        if golds:
            hyps, refs = zip(*golds)
            bleu_score = bleu(hyps, refs, level=args.bleu_level)
        else:
            print("eval: no gold responses, skipping BLEU", file=sys.stderr)
        if args.aliases is not None:
            critic = _critic(args, graph)
            probes = (dataclasses.replace(rec, response=text, spans=None, extra={})
                      for rec, text in zip(records, texts))
            rate = hallucination_rate([critic.critique(p).flagged for p in probes])

    # A block that was not asked for is null.
    blob = ranking.to_json() if ranking else dict.fromkeys(("hits", "mr", "mrr"))
    blob.update(bleu=bleu_score, hallucination_rate=rate, counts=counts)
    _emit(blob, args.out)
    return 0


# --- parser ----------------------------------------------------------------


def build_parser(opts: _Options) -> _Parser:
    parser = _Parser(
        prog="kgfaith",
        description=(
            "Knowledge-graph faithfulness pipeline: corrupt grounded "
            "dialogues, train a trilinear entity memory, flag hallucinated "
            "mentions, and splice in supported entities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def common(p: argparse.ArgumentParser, source: str | None) -> None:
        """--config, --in (help ``source``, if given) and --kg, the order argparse reports them in."""
        opts.add(p, "--config", default=None, help="JSON file of flag values; explicit flags win")
        if source:
            opts.add(p, "--in", dest="input", required=True, help=source)
        opts.add(p, "--kg", required=True, help="triple file (TSV)")

    kg = sub.add_parser("kg", help="triple-store inspection")
    kg_sub = kg.add_subparsers(dest="kg_command", required=True, metavar="SUBCOMMAND")
    stats = kg_sub.add_parser("stats", help="print graph size counters")
    common(stats, None)
    opts.add(stats, "--json", action="store_true", default=False, help="emit full stats as JSON")
    stats.set_defaults(func=_cmd_kg_stats)

    sg = sub.add_parser("subgraph", help="extract a k-hop neighborhood as JSON")
    common(sg, None)
    opts.add(sg, "--center", required=True, help="comma-separated center entity names")
    opts.add(sg, "--k", type=int, default=2, help="hop radius (method default 2)")
    opts.add(sg, "--out", default=None, help="output JSON path (default stdout)")
    sg.set_defaults(func=_cmd_subgraph)

    co = sub.add_parser("corrupt", help="generate labeled hallucinated responses")
    common(co, "dialogue JSONL input")
    opts.add(co, "--types", required=True, help="entity-type TSV (entity<TAB>type)")
    opts.add(co, "--aliases", default=None, help="alias TSV for mention linking (optional)")
    opts.add(co, "--frac", type=float, default=0.6, help="extrinsic share of records (method default 0.6)")
    opts.add(co, "--seed", type=int, default=0, help="root seed (tool default 0)")
    opts.add(co, "--policy", choices=POLICIES, default="fallback", help="when the assigned strategy does not apply (tool default fallback)")
    opts.add(co, "--k", type=int, default=2, help="exclusion-subgraph radius (method default 2)")
    opts.add(co, "--out", required=True, help="corrupted JSONL output")
    opts.add(co, "--summary", default=None, help="summary JSON path (default stderr)")
    co.set_defaults(func=_cmd_corrupt)

    tr = sub.add_parser("train", help="train the entity/relation embedding table")
    common(tr, None)
    opts.add(tr, "--dim", type=int, default=64, help="embedding dimension (tool default 64)")
    opts.add(tr, "--sampler", default="uniform", help="negative sampler: uniform | sans[:K] | inbatch (tool default uniform)")
    opts.add(tr, "--neg", type=int, default=50, help="negatives per positive (method default 50)")
    opts.add(tr, "--epochs", type=int, default=50, help="training epochs (tool default 50)")
    opts.add(tr, "--batch", type=int, default=32, help="mini-batch size (tool default 32)")
    opts.add(tr, "--lr", type=float, default=1e-2, help="learning rate (tool default 0.01)")
    opts.add(tr, "--optimizer", choices=OPTIMIZERS, default="sgd", help="update rule (tool default sgd)")
    opts.add(tr, "--l2", type=float, default=1e-4, help="L2 coefficient on touched rows (tool default 1e-4)")
    opts.add(tr, "--seed", type=int, default=0, help="root seed (tool default 0)")
    opts.add(tr, "--out", required=True, help="embedding snapshot output path")
    opts.add(tr, "--trace", default=None, help="loss-trace CSV output path (optional)")
    tr.set_defaults(func=_cmd_train)

    cr = sub.add_parser("critique", help="label hallucinated mentions in responses")
    common(cr, "dialogue JSONL input")
    opts.add(cr, "--aliases", required=True, help="alias TSV for mention linking")
    _critic_flags(opts, cr)
    opts.add(cr, "--out", required=True, help="labeled JSONL output")
    cr.set_defaults(func=_cmd_critique)

    rf = sub.add_parser("refine", help="replace flagged mentions with supported entities")
    common(rf, "labelled JSONL input, as critique writes it")
    opts.add(rf, "--emb", required=True, help="embedding snapshot")
    opts.add(rf, "--aliases", required=True, help="alias TSV for linking and surface forms")
    opts.add(rf, "--k", type=int, default=2, help="neighborhood radius (method default 2)")
    opts.add(rf, "--mode", choices=QUERY_MODES, default="oracle", help="query construction (tool default oracle)")
    opts.add(rf, "--queries", default=None, help="query-vector file, read only with --mode external (one per flagged mention)")
    opts.add(rf, "--chain", choices=("on", "off"), default="on", help="retrieved entities join the anchor set (method default on)")
    opts.add(rf, "--anchors", choices=ANCHOR_SOURCES, default="kn", help="anchor source (tool default kn)")
    opts.add(rf, "--out", required=True, help="refined JSONL output")
    rf.set_defaults(func=_cmd_refine)

    ev = sub.add_parser("eval", help="aggregate ranking and text metrics")
    common(ev, None)
    opts.add(ev, "--emb", default=None, help="embedding snapshot (enables link prediction)")
    opts.add(ev, "--heldout", default=None, help="held-out triple TSV (enables link prediction)")
    opts.add(ev, "--rank-mode", choices=RANK_MODES, default="filtered", help="candidate filtering (method default filtered)")
    opts.add(ev, "--refined", default=None, help="refined JSONL (enables text metrics)")
    opts.add(ev, "--aliases", default=None, help="alias TSV (enables hallucination rate on refined text)")
    opts.add(ev, "--bleu-level", choices=BLEU_LEVELS, default="corpus", help="BLEU pooling (tool default corpus)")
    _critic_flags(opts, ev)
    opts.add(ev, "--ranks-csv", default=None, help="per-item rank CSV output path")
    opts.add(ev, "--out", default=None, help="summary JSON path (default stdout)")
    ev.set_defaults(func=_cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        opts = _Options()
        parser = build_parser(opts)
        argv = opts.with_config(argv, _load_config(argv))
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help exits 0; anything else is misuse
            return 0 if exc.code in (0, None) else 1
        with _atomic_outputs(*(getattr(args, dest, None) for dest in _OUTPUT_FILES)) as temps:
            vars(args).update(zip(_OUTPUT_FILES, temps))
            for dest in _INPUT_FILES:
                path = getattr(args, dest, None)
                if path is not None:
                    setattr(args, dest, _require_file(path, "--in" if dest == "input" else f"--{dest}"))
            _numpy_on_one_thread()
            return args.func(args)
    except ConfigValidation as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except KgFaithError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
