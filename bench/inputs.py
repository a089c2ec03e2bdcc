"""Seeded input files for the benchmark workloads.

Inputs come from the generators in tests/synthetic.py and reach the
program only as files: a triple TSV, a held-out triple TSV, and for the
corpus workloads an alias TSV, a type TSV and a dialogue JSONL.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from synthetic import block_split, sparse_corpus

from kgfaith.dialogue import DialogueRecord

# Size of each workload. corpus-6k critiques its CORPUS_RECORDS originals
# plus their corruptions, so a repeat has at least 200 critique latencies
# and the p95 has ten samples beyond it.
CORPUS_6K = {"n_entities": 6000, "n_triples": 9000}
CORPUS_600 = {"n_entities": 600, "n_triples": 900}
CORPUS_RECORDS = 100
# Held-out triples per corpus: enough for about a second of filtered
# link prediction at 6k entities; the 600-entity graph has room for fewer.
HELDOUT = {6000: 150, 600: 50}


def hold_out(triples: list, size: int, seed: int) -> set[int]:
    """Indexes of a seeded held-out slice whose endpoints keep training edges.

    Same rule as block_split: a triple is held out only while each
    endpoint keeps at least two other training triples, so every entity
    of a held-out triple stays in the training graph's vocabulary.
    """
    degree: dict[int, int] = {}
    for t in triples:
        degree[t.s] = degree.get(t.s, 0) + 1
        degree[t.o] = degree.get(t.o, 0) + 1
    held: set[int] = set()
    for idx in np.random.default_rng(seed).permutation(len(triples)):
        if len(held) == size:
            break
        t = triples[int(idx)]
        if degree[t.s] > 2 and degree[t.o] > 2:
            degree[t.s] -= 1
            degree[t.o] -= 1
            held.add(int(idx))
    return held


def refinable(triples: list, k: int = 2) -> list[bool]:
    """Whether each triple's k-hop ball holds two entities besides its endpoints.

    Refinement ranks the ball's entities other than the anchors, so a
    record grounded on an isolated edge has no candidate at all and its
    flagged spans end as retrieval failures by design. Two candidates
    cover both mentions of a record even after the first winner joins
    the anchors.
    """
    adjacent: dict[int, set[int]] = {}
    for t in triples:
        adjacent.setdefault(t.s, set()).add(t.o)
        adjacent.setdefault(t.o, set()).add(t.s)
    out = []
    for t in triples:
        ball = frontier = {t.s, t.o}
        for _ in range(k):
            frontier = {n for v in frontier for n in adjacent[v]} - ball
            ball = ball | frontier
        out.append(len(ball) - 2 >= 2)
    return out


def _write_lines(path: Path, rows) -> None:
    path.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")


def _write_records(path: Path, records: list[DialogueRecord]) -> None:
    path.write_text(
        "".join(json.dumps(r.to_json()) + "\n" for r in records), encoding="utf-8"
    )


def block_inputs(workdir: Path, seed: int) -> dict[str, str]:
    """block_split(seed): 270 training triples and 30 held out."""
    graph, held = block_split(seed=seed, holdout_size=30)
    files = {"kg": workdir / "kg.tsv", "heldout": workdir / "heldout.tsv"}
    _write_lines(files["kg"], (graph.name_triple(t) for t in graph.triples))
    _write_lines(files["heldout"], (graph.name_triple(t) for t in held))
    return {k: str(v) for k, v in files.items()}


def corpus_inputs(
    workdir: Path, seed: int, size: dict[str, int], n_records: int | None
) -> tuple[dict[str, str], list[DialogueRecord]]:
    """sparse_corpus files: training KG, held-out slice, aliases, types, records.

    Records are those grounded on refinable training triples (the
    first ``n_records`` of them when given), so every faithful original
    has its grounding edge in the graph and every flagged span has a
    candidate. Returns the file map and the records written.
    """
    graph, types, aliases, records = sparse_corpus(seed=seed, **size)
    triples = list(graph.triples)
    held = hold_out(triples, HELDOUT[size["n_entities"]], seed)
    keep = [i for i in range(len(triples)) if i not in held]
    usable = refinable([triples[i] for i in keep])
    chosen = [records[i] for i, ok in zip(keep, usable) if ok][:n_records]
    files = {
        name: workdir / f"{name}{ext}"
        for name, ext in (
            ("kg", ".tsv"), ("heldout", ".tsv"), ("aliases", ".tsv"),
            ("types", ".tsv"), ("records", ".jsonl"),
        )
    }
    _write_lines(files["kg"], (graph.name_triple(triples[i]) for i in keep))
    _write_lines(files["heldout"], (graph.name_triple(triples[i]) for i in sorted(held)))
    _write_lines(files["aliases"], aliases.items())
    _write_lines(files["types"], types.items())
    _write_records(files["records"], chosen)
    return {k: str(v) for k, v in files.items()}, chosen
