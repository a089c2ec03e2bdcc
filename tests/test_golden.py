"""Byte-for-byte golden outputs of the CLI stages that compute no floats.

``subgraph``, ``corrupt`` and ``critique`` only parse, link mentions,
walk the graph and draw seeded integers, so every byte they write is
pinned here by sha256: on the toy data and on a small sparse corpus
whose records mix pre-linked spans (listed out of text order) with
spans the linker has to find. A digest may change only on purpose,
with the reason recorded in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from synthetic import sparse_corpus

from kgfaith.cli import main
from kgfaith.dialogue import write_dialogues

GOLDEN = {
    "toy": {
        "subgraph-k2.json": "8e44f1fcafc668c4c78a22cac00fd7b8eaa47a2f78fe59302fa99bcc5e2b0c88",
        "subgraph-k1.json": "9c831d724233045fd83f8ea855bea5a4ee40ca8e4bca479582b99389f083df34",
        "corrupt.jsonl": "c325b557eea075952226329d0ef42a4643f3c19e84401e718e0d667ed2c54487",
        "corrupt-summary.json": "bc6c2993c6cffe1aa155a5bb00a366f3579e8cdb6786216f8f68217f8978f310",
        "corrupt-drop.jsonl": "e59f526650fb2c19b6775c58c4e7835ae44cb111e864752190bd146556209737",
        "corrupt-drop-summary.json": "db64d7018a910d10818a50248463ec7ab1c2f31669cb5de43e1692f81c55d2ae",
        "critique.jsonl": "44209552c8e4d6ca0ee76789a225454c5c4c2c23400ed11f003afb51aa766e87",
        "critique-directed.jsonl": "3d3a3e67a6fcd1d74eedb3f973f78b2ff272cacdd13477e00ed1f07f2937148c",
        "critique-history.jsonl": "44209552c8e4d6ca0ee76789a225454c5c4c2c23400ed11f003afb51aa766e87",
        "critique-corrupted.jsonl": "8cfdf649e72745cbf6a0c386744bd2105ff6924dbd744a50e42afc6f3bc39e52",
    },
    "sparse": {
        "subgraph-k2.json": "39098136187c85c57554c086d345fdc6c5571fdf45af8562418d0da274032c70",
        "corrupt.jsonl": "e75317e5c1d1c60a10ce15e5af1ac24f2e97f1f465b76fac53276ade9abbea69",
        "corrupt-summary.json": "92807f8022d10de399354ebaeed32f94cb3057eeae810961cb5b03ebd639ebad",
        "corrupt-drop.jsonl": "d515a475fc091588386624e1bd19818ced5a400750fd0f6244edbe4992c1cf8b",
        "corrupt-drop-summary.json": "0070878fe2a3d0fbf1bde951f7cacaec1d4fe14874f5590c28bf907c9dcdfbae",
        "critique.jsonl": "771c38aa05e3ac757367639046a67466b0ddd5b95d92d447a87bb7dc5d1fe1d8",
        "critique-history.jsonl": "771c38aa05e3ac757367639046a67466b0ddd5b95d92d447a87bb7dc5d1fe1d8",
        "critique-corrupted.jsonl": "f10cc0c2e12abb55c2baf692168458d3655b325d23343001bbb6924a4a6f2c7a",
        "corrupt-identity.jsonl": "e75317e5c1d1c60a10ce15e5af1ac24f2e97f1f465b76fac53276ade9abbea69",
        "corrupt-identity-summary.json": "92807f8022d10de399354ebaeed32f94cb3057eeae810961cb5b03ebd639ebad",
        "corrupt-untyped.jsonl": "9a1492293bd10b1bf1414fa301d84b694aef0a2f4ee95aaf9fd11cd5cbc20a80",
        "corrupt-untyped-summary.json": "92807f8022d10de399354ebaeed32f94cb3057eeae810961cb5b03ebd639ebad",
    },
}


def _sparse_inputs(workdir: Path) -> dict[str, Path]:
    """Sparse corpus files; every second record carries pre-linked spans."""
    graph, types, aliases, records = sparse_corpus(
        n_entities=120, n_triples=160, seed=5
    )
    records = records[:40]
    for rec in records[::2]:
        (s, _, o), text = rec.triples[0], rec.response
        # Subject span first although the object comes first in the text.
        rec.spans = [
            (s, text.index(f" {s} ") + 1, text.index(f" {s} ") + 1 + len(s)),
            (o, text.index(f" {o} ") + 1, text.index(f" {o} ") + 1 + len(o)),
        ]
    files = {
        "kg": workdir / "kg.tsv",
        "aliases": workdir / "aliases.tsv",
        "types": workdir / "types.tsv",
        "no-types": workdir / "no-types.tsv",
        "records": workdir / "records.jsonl",
    }
    files["kg"].write_text(
        "".join("\t".join(graph.name_triple(t)) + "\n" for t in graph.triples),
        encoding="utf-8",
    )
    files["aliases"].write_text(
        "".join(f"{e}\t{s}\n" for e, s in aliases.items()), encoding="utf-8"
    )
    files["types"].write_text(
        "".join(f"{e}\t{t}\n" for e, t in types.items()), encoding="utf-8"
    )
    files["no-types"].write_text("", encoding="utf-8")
    write_dialogues(files["records"], (r.to_json() for r in records))
    return files


def _toy_inputs(data_dir: Path) -> dict[str, Path]:
    return {
        "kg": data_dir / "toy_kg.tsv",
        "aliases": data_dir / "toy_aliases.tsv",
        "types": data_dir / "toy_types.tsv",
        "records": data_dir / "toy_dialogues.jsonl",
        "phrases": data_dir / "toy_relation_phrases.tsv",
    }


def _steps(files: dict[str, Path], out: Path, corpus: str) -> list[list]:
    centers = "roald_dahl,fantasy" if corpus == "toy" else "e0,e7"
    kg, aliases, records = files["kg"], files["aliases"], files["records"]
    steps = [
        ["subgraph", "--kg", kg, "--center", centers, "--k", "2",
         "--out", out / "subgraph-k2.json"],
        ["corrupt", "--in", records, "--kg", kg, "--types", files["types"],
         "--aliases", aliases, "--seed", "3", "--out", out / "corrupt.jsonl",
         "--summary", out / "corrupt-summary.json"],
        ["corrupt", "--in", records, "--kg", kg, "--types", files["types"],
         "--aliases", aliases, "--seed", "4", "--frac", "1.0", "--policy", "drop",
         "--k", "1", "--out", out / "corrupt-drop.jsonl",
         "--summary", out / "corrupt-drop-summary.json"],
        ["critique", "--in", records, "--kg", kg, "--aliases", aliases,
         "--out", out / "critique.jsonl"],
        ["critique", "--in", records, "--kg", kg, "--aliases", aliases,
         "--anchors", "history", "--k", "1", "--out", out / "critique-history.jsonl"],
        ["critique", "--in", out / "corrupt.jsonl", "--kg", kg, "--aliases", aliases,
         "--out", out / "critique-corrupted.jsonl"],
    ]
    if corpus == "sparse":
        # Without --aliases, corrupt links through the identity table it
        # builds from the graph's names; with an empty type map every
        # mention takes the positional fallback.
        steps += [
            ["corrupt", "--in", records, "--kg", kg, "--types", files["types"],
             "--seed", "3", "--out", out / "corrupt-identity.jsonl",
             "--summary", out / "corrupt-identity-summary.json"],
            ["corrupt", "--in", records, "--kg", kg, "--types", files["no-types"],
             "--aliases", aliases, "--seed", "3", "--out", out / "corrupt-untyped.jsonl",
             "--summary", out / "corrupt-untyped-summary.json"],
        ]
    if corpus == "toy":
        steps += [
            ["subgraph", "--kg", kg, "--center", "the_hobbit", "--k", "1",
             "--out", out / "subgraph-k1.json"],
            ["critique", "--in", records, "--kg", kg, "--aliases", aliases,
             "--phrases", files["phrases"],
             "--out", out / "critique-directed.jsonl"],
        ]
    return steps


@pytest.mark.parametrize("corpus", sorted(GOLDEN))
def test_cli_outputs_match_golden_digests(corpus, data_dir, tmp_path):
    files = _toy_inputs(data_dir) if corpus == "toy" else _sparse_inputs(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    for argv in _steps(files, out, corpus):
        assert main([str(a) for a in argv]) == 0, argv
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in GOLDEN[corpus]
    }
    assert digests == GOLDEN[corpus], json.dumps(digests, indent=2)
