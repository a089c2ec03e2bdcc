"""The cli-chain-600 workload: the user's CLI chain, one process per command.

corrupt -> train -> critique -> refine -> eval (filtered ranks) -> eval
(BLEU and hallucination rate). Link prediction and the text metrics run
as two eval commands so that each has its own process time.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import hostspeed
from child import Child, now, run_child

TRAIN_EPOCHS = 2
TIMEOUT_S = 170.0


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def _key(blob: dict) -> str:
    return json.dumps([blob["history"], blob["triples"]])


class Chain:
    """Files and argument lists of one cli-chain-600 run."""

    def __init__(self, files: dict, originals: list, workdir: Path, seed: int, env: dict, root: Path):
        self.files = files
        self.workdir = workdir
        self.seed = str(seed)
        self.env = env
        self.root = root
        # corrupt drops gold_response, so refine's input gets each
        # faithful original back as its gold response (BLEU needs it).
        self.gold = {_key(r.to_json()): r.response for r in originals}
        self.n_records = len(originals)
        self.n_train = sum(1 for line in Path(files["kg"]).read_text().splitlines() if line)
        self.n_held = sum(1 for line in Path(files["heldout"]).read_text().splitlines() if line)
        self.out = {
            name: workdir / name
            for name in (
                "corrupted.jsonl", "corrupt_summary.json", "emb.txt", "loss.csv",
                "critiqued.jsonl", "refine_in.jsonl", "refined.jsonl", "ranks.csv",
                "eval_rank.json", "eval_text.json",
            )
        }

    def commands(self) -> list[tuple[str, list[str]]]:
        f, o = self.files, {k: str(v) for k, v in self.out.items()}
        return [
            ("corrupt", [
                "corrupt", "--in", f["records"], "--kg", f["kg"], "--types", f["types"],
                "--aliases", f["aliases"], "--frac", "0.6", "--seed", self.seed,
                "--policy", "fallback", "--k", "2", "--out", o["corrupted.jsonl"],
                "--summary", o["corrupt_summary.json"],
            ]),
            ("train", [
                "train", "--kg", f["kg"], "--dim", "32", "--epochs", str(TRAIN_EPOCHS),
                "--sampler", "uniform", "--neg", "50", "--batch", "32", "--lr", "0.08",
                "--seed", self.seed, "--out", o["emb.txt"], "--trace", o["loss.csv"],
            ]),
            ("critique", [
                "critique", "--in", o["corrupted.jsonl"], "--kg", f["kg"],
                "--aliases", f["aliases"], "--k", "2", "--out", o["critiqued.jsonl"],
            ]),
            ("refine", [
                "refine", "--in", o["refine_in.jsonl"], "--kg", f["kg"], "--emb", o["emb.txt"],
                "--aliases", f["aliases"], "--k", "2", "--mode", "oracle",
                "--out", o["refined.jsonl"],
            ]),
            ("eval-rank", [
                "eval", "--kg", f["kg"], "--emb", o["emb.txt"], "--heldout", f["heldout"],
                "--rank-mode", "filtered", "--ranks-csv", o["ranks.csv"],
                "--out", o["eval_rank.json"],
            ]),
            ("eval-text", [
                "eval", "--kg", f["kg"], "--refined", o["refined.jsonl"],
                "--aliases", f["aliases"], "--out", o["eval_text.json"],
            ]),
        ]

    def _launcher(self, traced: bool, rep: int, stage: str) -> list[str]:
        if not traced:
            return [sys.executable, "-m", "kgfaith.cli"]
        spans = self.workdir / f"spans-{stage}.json"
        return [sys.executable, str(self.root / "bench" / "traced_cli.py"), str(spans), f"rep{rep}:{stage}", "--"]

    def setup_probe(self) -> Child:
        """``kg stats`` on the workload's KG: the fixed cost every command pays."""
        argv = [sys.executable, "-m", "kgfaith.cli", "kg", "stats", "--kg", self.files["kg"]]
        return run_child(argv, self.env, self.workdir / "stats.log", TIMEOUT_S)

    def _write_refine_input(self) -> None:
        lines = []
        for blob in _read_jsonl(self.out["critiqued.jsonl"]):
            blob["gold_response"] = self.gold[_key(blob)]
            lines.append(json.dumps(blob) + "\n")
        self.out["refine_in.jsonl"].write_text("".join(lines), encoding="utf-8")

    def repeat(self, rep: int, traced: bool) -> dict:
        children: dict[str, Child] = {}
        meter = hostspeed.Meter()
        for stage, args in self.commands():
            glue = 0.0
            if stage == "refine":
                start = now()
                self._write_refine_input()
                glue = now() - start
            child = run_child(
                self._launcher(traced, rep, stage) + args, self.env,
                self.workdir / f"{stage}.log", TIMEOUT_S,
            )
            meter.add(**{"glue": glue, stage: child.wall_s})
            children[stage] = child
            if child.code != 0:
                break
        times = meter.times
        result = {
            "figures": {"wall_s": sum(times.values())},
            "speed": meter.factor(),
            "maxrss_kb": max(c.maxrss_kb for c in children.values()),
            "process_s": {stage: c.wall_s for stage, c in children.items()},
        }
        if child.code != 0:
            result.update(
                attempted=len(children), failed=1, hashes={},
                checks={"commands_exit_0": False}, log=f"{stage}: {child.log[-2000:]}",
            )
            return result
        if traced:
            result["spans"] = [
                json.loads((self.workdir / f"spans-{stage}.json").read_text()) for stage in children
            ]
        result.update(self._check())
        result["figures"].update({
            "corrupt_rec_per_s": self.n_records / times["corrupt"],
            "train_pos_per_s": self.n_train * TRAIN_EPOCHS / times["train"],
            "critique_rec_per_s": result["counts"]["critiqued"] / times["critique"],
            "refine_rec_per_s": result["counts"]["refined"] / times["refine"],
            "linkpred_triples_per_s": self.n_held / times["eval-rank"],
        })
        return result

    def _check(self) -> dict:
        o = self.out
        summary = json.loads(o["corrupt_summary.json"].read_text())
        corrupted = _read_jsonl(o["corrupted.jsonl"])
        critiqued = _read_jsonl(o["critiqued.jsonl"])
        refined = _read_jsonl(o["refined.jsonl"])
        eval_rank = json.loads(o["eval_rank.json"].read_text())
        eval_text = json.loads(o["eval_text.json"].read_text())

        recall_total = recall_hit = 0
        for c, r in zip(corrupted, critiqued):
            if c["kind"] != "extrinsic":
                continue
            flagged = {(x["begin"], x["end"]) for x in r["labels"] if x["label"] == "extrinsic"}
            recall_total += len(c["labels"])
            recall_hit += sum(1 for b, e in c["labels"] if (b, e) in flagged)
        spans = sum(len(r["edits"]) + len(r["failures"]) for r in refined)
        failures = sum(len(r["failures"]) for r in refined)
        checks = {
            "commands_exit_0": True,
            "gate4.extrinsic_recall_eq_1": recall_hit == recall_total > 0,
            "critique_kept_every_record": len(critiqued) == len(corrupted),
            "eval_ranked_every_heldout": eval_rank["counts"].get("ranks") == self.n_held,
            "eval_scored_bleu_and_hallucination": (
                eval_text["bleu"] is not None and eval_text["hallucination_rate"] is not None
            ),
        }
        hashes = {
            name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in o.items()
        }
        return {
            "attempted": self.n_records + len(corrupted) + len(refined) + spans
            + self.n_held + len(self.commands()),
            "failed": summary["dropped"] + failures,
            "checks": checks,
            "hashes": hashes,
            "counts": {"critiqued": len(critiqued), "refined": len(refined)},
            "quality": {
                "filtered_mrr": eval_rank["mrr"],
                "bleu": eval_text["bleu"],
                "hallucination_rate": eval_text["hallucination_rate"],
            },
        }
