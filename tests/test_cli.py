"""Command dispatch, exit codes, artifacts, and reproducibility."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from kgfaith.cli import _parse_sampler, main, stage_seed
from kgfaith.errors import ConfigValidation


def run(argv):
    return main([str(a) for a in argv])


class TestDispatch:
    def test_kg_stats_line(self, data_dir, capsys):
        assert run(["kg", "stats", "--kg", data_dir / "toy_kg.tsv"]) == 0
        assert capsys.readouterr().out == "{entities: 8, relations: 3, triples: 7}\n"

    def test_kg_stats_json(self, data_dir, capsys):
        assert run(["kg", "stats", "--kg", data_dir / "toy_kg.tsv", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["entities"] == 8
        assert blob["max_degree"] == 3
        assert blob["mean_degree"] == pytest.approx(14 / 8)

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_no_command(self):
        assert run([]) == 1

    def test_missing_required_flag(self):
        assert run(["kg", "stats"]) == 1

    def test_missing_input_file(self, capsys):
        assert run(["kg", "stats", "--kg", "/nonexistent/toy.tsv"]) == 1
        assert "no such file" in capsys.readouterr().err

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0
        assert run(["train", "--help"]) == 0

    def test_bad_hyperparameter(self, data_dir, tmp_path):
        code = run(
            ["train", "--kg", data_dir / "toy_kg.tsv", "--dim", "-1",
             "--out", tmp_path / "emb.tsv"]
        )
        assert code == 1

    def test_subgraph_output(self, data_dir, capsys):
        code = run(
            ["subgraph", "--kg", data_dir / "toy_kg.tsv",
             "--center", "roald_dahl", "--k", "1"]
        )
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["nodes"] == [
            "roald_dahl", "the_witches", "the_bfg",
            "charlie_and_the_chocolate_factory",
        ]
        assert len(blob["triples"]) == 3

    def test_subgraph_unknown_center(self, data_dir):
        code = run(
            ["subgraph", "--kg", data_dir / "toy_kg.tsv", "--center", "mars"]
        )
        assert code == 2

    def test_subgraph_negative_k(self, data_dir):
        code = run(
            ["subgraph", "--kg", data_dir / "toy_kg.tsv",
             "--center", "roald_dahl", "--k", "-1"]
        )
        assert code == 1

    def test_module_entry_point(self, data_dir):
        proc = subprocess.run(
            [sys.executable, "-m", "kgfaith.cli", "kg", "stats",
             "--kg", str(data_dir / "toy_kg.tsv")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "{entities: 8, relations: 3, triples: 7}"


class TestStageSeed:
    def test_deterministic(self):
        assert stage_seed(7, "train") == stage_seed(7, "train")

    def test_stages_do_not_collide(self):
        assert stage_seed(7, "train") != stage_seed(7, "corrupt")

    def test_roots_do_not_collide(self):
        assert stage_seed(7, "train") != stage_seed(8, "train")

    def test_fits_in_uint64(self):
        for root in range(20):
            assert 0 <= stage_seed(root, "corrupt") < 2**64


class TestSamplerArgument:
    def test_known_forms(self):
        assert _parse_sampler("uniform") == ("uniform", 1)
        assert _parse_sampler("sans") == ("sans", 1)
        assert _parse_sampler("sans:3") == ("sans", 3)
        assert _parse_sampler("inbatch") == ("in_batch", 1)

    def test_bad_forms(self):
        with pytest.raises(ConfigValidation):
            _parse_sampler("nearest")
        with pytest.raises(ConfigValidation):
            _parse_sampler("sans:two")


class TestConfigFile:
    def test_config_supplies_required_flag(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"kg": str(data_dir / "toy_kg.tsv")}))
        assert run(["kg", "stats", "--config", cfg]) == 0
        assert "entities: 8" in capsys.readouterr().out

    def test_explicit_flag_beats_config(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"kg": "/nonexistent/other.tsv"}))
        code = run(
            ["kg", "stats", "--config", cfg, "--kg", data_dir / "toy_kg.tsv"]
        )
        assert code == 0
        assert "entities: 8" in capsys.readouterr().out

    def test_unknown_config_key(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"warp_speed": 9}))
        assert run(["kg", "stats", "--config", cfg,
                    "--kg", data_dir / "toy_kg.tsv"]) == 1
        assert "warp_speed" in capsys.readouterr().err

    def test_config_must_be_object(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1, 2, 3]")
        assert run(["kg", "stats", "--config", cfg]) == 1

    def test_config_bad_json(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("{nope")
        assert run(["kg", "stats", "--config", cfg]) == 1

    def test_config_missing_value(self):
        assert run(["kg", "stats", "--config"]) == 1


class TestTrainCommand:
    def train_args(self, data_dir, out, trace=None, seed=0, extra=()):
        argv = ["train", "--kg", data_dir / "toy_kg.tsv", "--dim", "4",
                "--epochs", "3", "--neg", "4", "--batch", "4",
                "--seed", seed, "--out", out]
        if trace is not None:
            argv += ["--trace", trace]
        return argv + list(extra)

    def test_writes_snapshot_and_trace(self, data_dir, tmp_path):
        out = tmp_path / "emb.tsv"
        trace = tmp_path / "loss.csv"
        assert run(self.train_args(data_dir, out, trace)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "pathhunter-emb v1 8 3 4"
        assert len(lines) == 1 + 8 + 3
        rows = trace.read_text().splitlines()
        assert rows[0] == "epoch,mean_loss"
        assert len(rows) == 4

    def test_byte_identical_across_runs(self, data_dir, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert run(self.train_args(data_dir, a, seed=9)) == 0
        assert run(self.train_args(data_dir, b, seed=9)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, data_dir, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert run(self.train_args(data_dir, a, seed=1)) == 0
        assert run(self.train_args(data_dir, b, seed=2)) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_sans_sampler_argument(self, data_dir, tmp_path):
        out = tmp_path / "emb.tsv"
        argv = self.train_args(data_dir, out, extra=["--sampler", "sans:2"])
        assert run(argv) == 0

    def test_bad_sampler_argument(self, data_dir, tmp_path):
        argv = self.train_args(data_dir, tmp_path / "e.tsv",
                               extra=["--sampler", "nearest"])
        assert run(argv) == 1


class TestCorruptCommand:
    def corrupt_args(self, data_dir, out, summary, seed=5):
        return ["corrupt", "--in", data_dir / "toy_dialogues.jsonl",
                "--kg", data_dir / "toy_kg.tsv",
                "--types", data_dir / "toy_types.tsv",
                "--aliases", data_dir / "toy_aliases.tsv",
                "--seed", seed, "--out", out, "--summary", summary]

    def test_writes_dataset_and_summary(self, data_dir, tmp_path):
        out, summary = tmp_path / "c.jsonl", tmp_path / "s.json"
        assert run(self.corrupt_args(data_dir, out, summary)) == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert rows
        for row in rows:
            assert row["kind"] in ("extrinsic", "intrinsic")
            assert row["labels"] and row["replacements"]
        blob = json.loads(summary.read_text())
        assert blob["records"] == 3
        assert blob["assigned_extrinsic"] + blob["assigned_intrinsic"] == 3
        realized = blob["realized_extrinsic"] + blob["realized_intrinsic"]
        assert realized + blob["dropped"] == 3

    def test_byte_identical_across_runs(self, data_dir, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run(self.corrupt_args(data_dir, a, tmp_path / "sa.json")) == 0
        assert run(self.corrupt_args(data_dir, b, tmp_path / "sb.json")) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_input_not_mutated(self, data_dir, tmp_path):
        src = data_dir / "toy_dialogues.jsonl"
        before = src.read_bytes()
        run(self.corrupt_args(data_dir, tmp_path / "c.jsonl", tmp_path / "s.json"))
        assert src.read_bytes() == before

    def test_bad_fraction(self, data_dir, tmp_path):
        argv = self.corrupt_args(data_dir, tmp_path / "c.jsonl", tmp_path / "s.json")
        assert run(argv + ["--frac", "1.5"]) == 1


class TestCritiqueCommand:
    def test_labels_toy_corpus(self, data_dir, tmp_path):
        out = tmp_path / "crit.jsonl"
        code = run(["critique", "--in", data_dir / "toy_dialogues.jsonl",
                    "--kg", data_dir / "toy_kg.tsv",
                    "--aliases", data_dir / "toy_aliases.tsv", "--out", out])
        assert code == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(rows) == 3
        assert rows[0]["flagged"] is True
        assert [lab["label"] for lab in rows[0]["labels"]] == ["extrinsic"] * 2
        assert [(lab["begin"], lab["end"]) for lab in rows[0]["labels"]] == [
            (26, 42), (47, 64),
        ]
        assert rows[1]["flagged"] is False
        assert rows[2]["flagged"] is False

    def test_negative_k_is_validation_error(self, data_dir, tmp_path, capsys):
        code = run(["critique", "--in", data_dir / "toy_dialogues.jsonl",
                    "--kg", data_dir / "toy_kg.tsv",
                    "--aliases", data_dir / "toy_aliases.tsv", "--k", "-1",
                    "--out", tmp_path / "crit.jsonl"])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == ["error: k must be >= 0, got -1"]

    def test_directed_mode_needs_phrases(self, data_dir, tmp_path, capsys):
        out = tmp_path / "crit.jsonl"
        code = run(["critique", "--in", data_dir / "toy_dialogues.jsonl",
                    "--kg", data_dir / "toy_kg.tsv",
                    "--aliases", data_dir / "toy_aliases.tsv", "--mode", "directed",
                    "--out", out])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: the directed mode needs relation phrases"
        ]
        assert not out.exists()


@pytest.fixture()
def trained_snapshot(data_dir, tmp_path):
    path = tmp_path / "emb.tsv"
    code = main(["train", "--kg", str(data_dir / "toy_kg.tsv"), "--dim", "8",
                 "--epochs", "40", "--neg", "6", "--batch", "4",
                 "--seed", "3", "--out", str(path)])
    assert code == 0
    return path


class TestRefineCommand:
    def test_refines_toy_corpus(self, data_dir, tmp_path, trained_snapshot):
        out = tmp_path / "refined.jsonl"
        code = run(["refine", "--in", data_dir / "toy_dialogues.jsonl",
                    "--kg", data_dir / "toy_kg.tsv", "--emb", trained_snapshot,
                    "--aliases", data_dir / "toy_aliases.tsv", "--out", out])
        assert code == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(rows) == 3
        assert len(rows[0]["edits"]) == 2
        assert rows[0]["failures"] == []
        assert rows[0]["refined_response"] != rows[0]["response"]
        for row in rows[1:]:
            assert row["refined_response"] == row["response"]
            assert row["edits"] == []

    def test_input_not_mutated(self, data_dir, tmp_path, trained_snapshot):
        src = data_dir / "toy_dialogues.jsonl"
        before = src.read_bytes()
        run(["refine", "--in", src, "--kg", data_dir / "toy_kg.tsv",
             "--emb", trained_snapshot,
             "--aliases", data_dir / "toy_aliases.tsv",
             "--out", tmp_path / "r.jsonl"])
        assert src.read_bytes() == before

    def test_external_mode_needs_queries(self, data_dir, tmp_path, trained_snapshot):
        code = run(["refine", "--in", data_dir / "toy_dialogues.jsonl",
                    "--kg", data_dir / "toy_kg.tsv", "--emb", trained_snapshot,
                    "--aliases", data_dir / "toy_aliases.tsv",
                    "--mode", "external", "--out", tmp_path / "r.jsonl"])
        assert code == 1

    @pytest.mark.parametrize("bad", ["0.5 half", "0.5 nan"])
    def test_bad_query_file_is_runtime_error(
        self, data_dir, tmp_path, trained_snapshot, capsys, bad
    ):
        queries = tmp_path / "queries.txt"
        queries.write_text("# one vector per flagged mention\n" + "0.5 " * 8 + f"\n{bad}\n")
        code = run(["refine", "--in", data_dir / "toy_dialogues.jsonl",
                    "--kg", data_dir / "toy_kg.tsv", "--emb", trained_snapshot,
                    "--aliases", data_dir / "toy_aliases.tsv",
                    "--mode", "external", "--queries", queries,
                    "--out", tmp_path / "r.jsonl"])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: MalformedLine: line 3: expected finite numbers separated by whitespace"
        ]


class TestAtomicOutputs:
    """A run that fails part-way leaves --out as it found it."""

    @pytest.fixture()
    def failing_input(self, data_dir, tmp_path):
        # The second record is grounded but its response links no mention.
        first = (data_dir / "toy_dialogues.jsonl").read_text().splitlines()[0]
        second = json.dumps({
            "history": ["Who wrote The BFG?"],
            "triples": [["roald_dahl", "wrote", "the_bfg"]],
            "response": "Nobody I know of.",
        })
        path = tmp_path / "in.jsonl"
        path.write_text(first + "\n" + second + "\n")
        return path

    def argv(self, command, data_dir, src, out, snapshot):
        argv = [command, "--in", src, "--kg", data_dir / "toy_kg.tsv",
                "--aliases", data_dir / "toy_aliases.tsv", "--out", out]
        return argv + (["--emb", snapshot] if command == "refine" else [])

    @pytest.mark.parametrize("command", ["critique", "refine"])
    def test_failed_run_writes_nothing(
        self, data_dir, tmp_path, failing_input, trained_snapshot, capsys, command
    ):
        out = tmp_path / "out" / "result.jsonl"
        out.parent.mkdir()
        argv = self.argv(command, data_dir, failing_input, out, trained_snapshot)
        assert run(argv) == 2
        assert "UnlinkedResponse" in capsys.readouterr().err
        assert list(out.parent.iterdir()) == []

        out.write_text("earlier result\n")
        assert run(argv) == 2
        assert out.read_text() == "earlier result\n"
        assert list(out.parent.iterdir()) == [out]

    @pytest.mark.parametrize("command", ["critique", "refine"])
    def test_successful_run_replaces_output(
        self, data_dir, tmp_path, trained_snapshot, command
    ):
        out = tmp_path / "out" / "result.jsonl"
        out.parent.mkdir()
        out.write_text("earlier result\n")
        src = data_dir / "toy_dialogues.jsonl"
        assert run(self.argv(command, data_dir, src, out, trained_snapshot)) == 0
        assert len(out.read_text().splitlines()) == 3
        assert list(out.parent.iterdir()) == [out]

    def test_failed_eval_writes_nothing(self, data_dir, tmp_path, trained_snapshot, capsys):
        # Ranking succeeds; the --refined file read afterwards does not parse.
        heldout = tmp_path / "held.tsv"
        heldout.write_text("roald_dahl\twrote\tthe_hobbit\n")
        refined = tmp_path / "refined.jsonl"
        refined.write_text("not a record\n")
        out = tmp_path / "out"
        out.mkdir()
        code = run(["eval", "--kg", data_dir / "toy_kg.tsv", "--emb", trained_snapshot,
                    "--heldout", heldout, "--refined", refined,
                    "--ranks-csv", out / "ranks.csv", "--out", out / "summary.json"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: MalformedLine: line 1: ")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["train", "corrupt"])
    def test_unwritable_second_output_writes_neither(self, data_dir, tmp_path, command):
        # --out can be written; the directory of the second output does not exist.
        out = tmp_path / "out"
        out.mkdir()
        missing = tmp_path / "missing"
        if command == "train":
            argv = ["train", "--kg", data_dir / "toy_kg.tsv", "--dim", "4",
                    "--epochs", "2", "--out", out / "emb.txt",
                    "--trace", missing / "loss.csv"]
        else:
            argv = ["corrupt", "--in", data_dir / "toy_dialogues.jsonl",
                    "--kg", data_dir / "toy_kg.tsv", "--types", data_dir / "toy_types.tsv",
                    "--aliases", data_dir / "toy_aliases.tsv",
                    "--out", out / "corrupted.jsonl", "--summary", missing / "summary.json"]
        assert run(argv) == 2
        assert list(out.iterdir()) == []


class TestSnapshotErrors:
    """A snapshot line that does not parse is a runtime error naming the line."""

    @pytest.fixture(params=["non-numeric", "non-finite", "bad-count", "truncated"])
    def broken_snapshot(self, request, tmp_path, trained_snapshot):
        lines = trained_snapshot.read_text().splitlines()
        if request.param == "bad-count":
            lines[0] = lines[0].rsplit(" ", 1)[0] + " eight"
            line = 1
        elif request.param == "truncated":
            # The header promises 8 entity and 3 relation rows; 4 and 0 remain.
            lines = lines[:5]
            line = 1
        else:
            kind, name, vec = lines[3].split("\t")
            bad = "bogus" if request.param == "non-numeric" else "nan"
            lines[3] = "\t".join([kind, name, bad + vec[vec.index(" "):]])
            line = 4
        path = tmp_path / "broken.tsv"
        path.write_text("\n".join(lines) + "\n")
        return path, line

    def test_refine_exits_2(self, data_dir, tmp_path, broken_snapshot, capsys):
        path, line = broken_snapshot
        code = run(["refine", "--in", data_dir / "toy_dialogues.jsonl",
                    "--kg", data_dir / "toy_kg.tsv", "--emb", path,
                    "--aliases", data_dir / "toy_aliases.tsv",
                    "--out", tmp_path / "r.jsonl"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: MalformedLine: line {line}: expected ")
        assert not (tmp_path / "r.jsonl").exists()

    def test_eval_exits_2(self, data_dir, tmp_path, broken_snapshot, capsys):
        path, line = broken_snapshot
        heldout = tmp_path / "held.tsv"
        heldout.write_text("roald_dahl\twrote\tthe_hobbit\n")
        code = run(["eval", "--kg", data_dir / "toy_kg.tsv", "--emb", path,
                    "--heldout", heldout])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: MalformedLine: line {line}: expected ")


class TestEvalCommand:
    def test_needs_some_input(self, data_dir):
        assert run(["eval", "--kg", data_dir / "toy_kg.tsv"]) == 1

    def test_link_prediction_needs_both_flags(self, data_dir, trained_snapshot):
        assert run(["eval", "--kg", data_dir / "toy_kg.tsv",
                    "--emb", trained_snapshot]) == 1

    def test_full_summary(self, data_dir, tmp_path, trained_snapshot):
        refined = tmp_path / "refined.jsonl"
        assert run(["refine", "--in", data_dir / "toy_dialogues.jsonl",
                    "--kg", data_dir / "toy_kg.tsv", "--emb", trained_snapshot,
                    "--aliases", data_dir / "toy_aliases.tsv",
                    "--out", refined]) == 0
        heldout = tmp_path / "held.tsv"
        heldout.write_text("roald_dahl\twrote\tthe_hobbit\n")
        summary = tmp_path / "summary.json"
        ranks = tmp_path / "ranks.csv"
        code = run(["eval", "--kg", data_dir / "toy_kg.tsv",
                    "--emb", trained_snapshot, "--heldout", heldout,
                    "--refined", refined,
                    "--aliases", data_dir / "toy_aliases.tsv",
                    "--ranks-csv", ranks, "--out", summary])
        assert code == 0
        blob = json.loads(summary.read_text())
        assert set(blob) == {"hits", "mr", "mrr", "bleu", "hallucination_rate", "counts"}
        assert blob["counts"] == {"ranks": 1, "records": 3}
        assert blob["mr"] >= 1.0
        assert 0.0 <= blob["bleu"] <= 1.0
        assert 0.0 <= blob["hallucination_rate"] <= 1.0
        rows = ranks.read_text().splitlines()
        assert rows[0] == "item,rank"
        assert len(rows) == 2

    def test_ranks_csv_needs_link_prediction(self, data_dir, tmp_path, capsys):
        ranks = tmp_path / "ranks.csv"
        code = run(["eval", "--kg", data_dir / "toy_kg.tsv",
                    "--refined", data_dir / "toy_dialogues.jsonl",
                    "--ranks-csv", ranks])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: --ranks-csv needs --emb and --heldout"
        ]
        assert not ranks.exists()

    def test_negative_k_is_validation_error(self, data_dir, capsys):
        code = run(["eval", "--kg", data_dir / "toy_kg.tsv",
                    "--refined", data_dir / "toy_dialogues.jsonl",
                    "--aliases", data_dir / "toy_aliases.tsv", "--k", "-1"])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == ["error: k must be >= 0, got -1"]

    def test_overlapping_heldout_rejected(self, data_dir, tmp_path, trained_snapshot):
        code = run(["eval", "--kg", data_dir / "toy_kg.tsv",
                    "--emb", trained_snapshot,
                    "--heldout", data_dir / "toy_kg.tsv"])
        assert code == 1
