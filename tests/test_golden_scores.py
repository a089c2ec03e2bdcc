"""Byte-for-byte golden outputs of the CLI stages that score with embeddings.

``refine`` (oracle, inferred and external queries, on the labels
``critique`` writes) and ``eval`` (filtered and raw link prediction: the summary JSON
and the per-item ranks CSV) run on the toy data with a snapshot written
by ``init_embeddings`` and ``save_embeddings`` at a fixed seed. Nothing
is trained. Two more ``eval`` summaries pin the text block: one with
both blocks on the oracle refinement, one text-only (``hits``, ``mr``
and ``mrr`` null). The bytes hold across machines because:

- the table comes from numpy's seeded PCG64 stream, and the snapshot's
  ``.17g`` text round-trips every float64 exactly;
- scoring only multiplies and adds. Elementwise products are correctly
  rounded and numpy sums a row in a fixed pairwise order, so every
  ``rank1_score`` that ``refine`` prints is the same float everywhere;
- ``eval`` prints integer ranks and Hits@k, MR and MRR derived from them
  by exact integer counts and one division per rank, so a different
  BLAS could change them only by reordering two scores equal to the
  last bit, which random vectors do not produce;
- no exp or log reaches these files except BLEU's. Its value is one
  ``math.exp`` of a mean of ``math.log``s of exact fractions, which the
  platform's C library rounds the same way run to run (the text-only
  summary is the one ``TestWithoutNumpy`` pins as well).

A digest may change only on purpose, with the reason in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from kgfaith.cli import main
from kgfaith.embeddings import init_embeddings, save_embeddings
from kgfaith.kg import load_triples

GOLDEN = {
    "refine-oracle.jsonl": "14cf5eaddb19346936bebc13a60f06e2f3e92b0d0792397a05d46cb773752256",
    "refine-inferred.jsonl": "3be673dffd2257b3e985cf283788938da6de20abdcf9a948243a9ba12b04fdf7",
    "refine-external.jsonl": "9f56aaf7466745969c15caee440a748e7a22a9be962bfa6fdde7ed207d6ebdde",
    "eval-filtered.json": "f2e75a02b8bae37c386aba15869b843d334f3d8abb1b3bc5d9de89bf2b6b8cc3",
    "eval-filtered-ranks.csv": "008c793fdf5719b32d504da7423dffd18cb47a6cb4f1436de1b9e9663e6de6bb",
    "eval-raw.json": "90fbd1c78ad6102a0d8abb7b9b444856e6c07d0edc7cefaad37eae7c3c0a0c0e",
    "eval-raw-ranks.csv": "06fe8f4c15374de6387ffba18af2ba91fd05b8c1a11de43208d5eabe1f01456e",
    "eval-both.json": "ce42e193e34363289a0b1fbac5d8e13031b1342dd93b82021b75fbe0dd7515f1",
    "eval-text.json": "4a51ce9e2bef5e5133c15f4fe0682feedf7b625a3d7489a0021db39b582d2c2c",
}

# Not in toy_kg.tsv; (roald_dahl, wrote) and (the_witches, has_genre)
# have other known objects, so the filter drops candidates.
HELDOUT = [
    ("roald_dahl", "wrote", "the_hobbit"),
    ("jrr_tolkien", "wrote", "the_witches"),
    ("the_bfg", "has_genre", "fantasy"),
    ("quentin_blake", "illustrated", "the_witches"),
    ("the_witches", "has_genre", "the_hobbit"),
]

# One dim-8 query vector per span the toy critique flags (two of them),
# each a short binary fraction so the text parses to the same float.
QUERIES = "0.5 -1 0.25 2 -0.75 1 0 -0.5\n-2 0.5 1.5 -0.25 0.75 -1 1 0.125\n"


def test_cli_outputs_match_golden_digests(data_dir: Path, tmp_path: Path):
    kg = data_dir / "toy_kg.tsv"
    graph = load_triples(kg)
    table = init_embeddings(len(graph.entities), len(graph.relations), 8, seed=11)
    table.entity_names = graph.entities.names
    table.relation_names = graph.relations.names
    emb = tmp_path / "emb.txt"
    save_embeddings(emb, table)
    heldout = tmp_path / "heldout.tsv"
    heldout.write_text("".join("\t".join(t) + "\n" for t in HELDOUT), encoding="utf-8")

    labelled = tmp_path / "labelled.jsonl"
    argv = ["critique", "--in", data_dir / "toy_dialogues.jsonl", "--kg", kg,
            "--aliases", data_dir / "toy_aliases.tsv", "--out", labelled]
    assert main([str(a) for a in argv]) == 0, argv

    queries = tmp_path / "queries.txt"
    queries.write_text(QUERIES, encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    for mode in ("oracle", "inferred", "external"):
        argv = ["refine", "--in", labelled, "--kg", kg,
                "--emb", emb, "--aliases", data_dir / "toy_aliases.tsv",
                "--mode", mode, "--out", out / f"refine-{mode}.jsonl"]
        if mode == "external":
            argv += ["--queries", queries]
        assert main([str(a) for a in argv]) == 0, argv
    for mode in ("filtered", "raw"):
        argv = ["eval", "--kg", kg, "--emb", emb, "--heldout", heldout,
                "--rank-mode", mode, "--ranks-csv", out / f"eval-{mode}-ranks.csv",
                "--out", out / f"eval-{mode}.json"]
        assert main([str(a) for a in argv]) == 0, argv
    aliases = data_dir / "toy_aliases.tsv"
    argv = ["eval", "--kg", kg, "--emb", emb, "--heldout", heldout,
            "--refined", out / "refine-oracle.jsonl", "--aliases", aliases,
            "--out", out / "eval-both.json"]
    assert main([str(a) for a in argv]) == 0, argv
    argv = ["eval", "--kg", kg, "--refined", data_dir / "toy_dialogues.jsonl",
            "--aliases", aliases, "--out", out / "eval-text.json"]
    assert main([str(a) for a in argv]) == 0, argv

    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN
    }
    assert digests == GOLDEN, json.dumps(digests, indent=2)
