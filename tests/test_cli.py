"""Command dispatch, exit codes, artifacts, and reproducibility."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from synthetic import sparse_corpus

import kgfaith
from kgfaith.cli import (
    _INPUT_FILES,
    _OUTPUT_FILES,
    _load_config,
    _Options,
    _parse_sampler,
    build_parser,
    main,
    stage_seed,
)
from kgfaith.errors import ConfigValidation, UnknownCommand


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


# main() on its arguments in a fresh interpreter where numpy cannot be
# imported: a None entry in sys.modules makes `import numpy` raise.
WITHOUT_NUMPY = (
    "import sys; sys.modules['numpy'] = None; "
    "from kgfaith.cli import main; sys.exit(main(sys.argv[1:]))"
)


def run_without_numpy(argv, code=WITHOUT_NUMPY):
    env = {**os.environ, "PYTHONPATH": str(Path(kgfaith.__file__).parents[1]), "COLUMNS": "80"}
    return subprocess.run(
        [sys.executable, "-c", code, *[str(a) for a in argv]], capture_output=True, env=env
    )


# main() as WITHOUT_NUMPY runs it, then one more stdout line: the
# kgfaith modules it loaded, and hashlib and csv if it loaded them.
LOADED = (
    "import json, sys; sys.modules['numpy'] = None; "
    "from kgfaith.cli import main; code = main(sys.argv[1:]); "
    "names = ('kgfaith', 'hashlib', 'csv'); "
    "print(json.dumps(sorted(m for m in sys.modules if m.startswith(names)))); "
    "sys.exit(code)"
)


class TestImportsOnlyWhatItRuns:
    """A command loads the package modules it runs and no others.

    A fresh process again: pytest has imported every module by now.
    """

    def test_kg_stats_loads_only_kg(self, data_dir):
        proc = run_without_numpy(["kg", "stats", "--kg", data_dir / "toy_kg.tsv"], LOADED)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [
            "kgfaith", "kgfaith.choices", "kgfaith.cli", "kgfaith.errors", "kgfaith.kg"
        ]

    def test_critique_leaves_metrics_out(self, data_dir, tmp_path):
        proc = run_without_numpy(
            ["critique", "--in", data_dir / "toy_dialogues.jsonl", "--kg", data_dir / "toy_kg.tsv",
             "--aliases", data_dir / "toy_aliases.tsv", "--out", tmp_path / "out"],
            LOADED,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert "kgfaith.critic" in loaded
        assert "kgfaith.metrics" not in loaded


class TestWithoutNumpy:
    """kg stats, subgraph, critique and a text-only eval never import numpy.

    Only a fresh process can show it: pytest has imported numpy by now.
    Each command must still write the bytes it wrote when the CLI
    imported numpy at the top (the digests of test_golden.py and the
    parent's eval summary).
    """

    def test_importing_the_cli_leaves_numpy_out(self):
        proc = run_without_numpy(
            [], "import sys, kgfaith.cli; print('numpy' in sys.modules)"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"False\n"

    @pytest.mark.parametrize(
        "case", ["kg-stats", "subgraph", "critique", "critique-phrases", "eval-text"]
    )
    def test_command_runs_and_writes_the_same_bytes(self, case, data_dir, tmp_path):
        kg, aliases = data_dir / "toy_kg.tsv", data_dir / "toy_aliases.tsv"
        records = data_dir / "toy_dialogues.jsonl"
        out = tmp_path / "out"
        crit = ["critique", "--in", records, "--kg", kg, "--aliases", aliases]
        argv, written, digest, err = {
            "kg-stats": (
                ["kg", "stats", "--kg", kg, "--json"], False,
                "e864a3881573ce8b2eb4e01477895ed601ed555149518aa1463a12cc5f2cdee2", b"",
            ),
            "subgraph": (
                ["subgraph", "--kg", kg, "--center", "roald_dahl,fantasy", "--k", "2",
                 "--out", out], True,
                "8e44f1fcafc668c4c78a22cac00fd7b8eaa47a2f78fe59302fa99bcc5e2b0c88", b"",
            ),
            "critique": (
                crit + ["--out", out], True,
                "44209552c8e4d6ca0ee76789a225454c5c4c2c23400ed11f003afb51aa766e87",
                b"critique: 3 records, 1 flagged\n",
            ),
            "critique-phrases": (
                crit + ["--phrases", data_dir / "toy_relation_phrases.tsv", "--out", out],
                True,
                "3d3a3e67a6fcd1d74eedb3f973f78b2ff272cacdd13477e00ed1f07f2937148c",
                b"critique: 3 records, 2 flagged\n",
            ),
            "eval-text": (
                ["eval", "--kg", kg, "--refined", records, "--aliases", aliases], False,
                "4a51ce9e2bef5e5133c15f4fe0682feedf7b625a3d7489a0021db39b582d2c2c", b"",
            ),
        }[case]
        proc = run_without_numpy(argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == err
        data = out.read_bytes() if written else proc.stdout
        assert hashlib.sha256(data).hexdigest() == digest

    def test_the_block_holds(self, data_dir, tmp_path):
        # train needs numpy, so under the same block it cannot run.
        proc = run_without_numpy(["train", "--kg", data_dir / "toy_kg.tsv", "--epochs", "1",
                                  "--out", tmp_path / "emb.txt"])
        assert proc.returncode != 0
        assert b"import of numpy halted" in proc.stderr
        assert not (tmp_path / "emb.txt").exists()

    @pytest.mark.parametrize("case", ["kg-stats", "subgraph", "critique", "eval-text"])
    def test_every_command_sets_unset_thread_variables(self, case, data_dir, tmp_path):
        # main() sets the three variables for every command, numpy-free
        # ones too, and keeps the count the environment names. numpy is
        # not blocked here (a blocked numpy counts as loaded), only
        # checked for afterwards.
        kg, aliases = data_dir / "toy_kg.tsv", data_dir / "toy_aliases.tsv"
        records = data_dir / "toy_dialogues.jsonl"
        argv = {
            "kg-stats": ["kg", "stats", "--kg", kg],
            "subgraph": ["subgraph", "--kg", kg, "--center", "roald_dahl", "--out", tmp_path / "o"],
            "critique": ["critique", "--in", records, "--kg", kg, "--aliases", aliases,
                         "--out", tmp_path / "o"],
            "eval-text": ["eval", "--kg", kg, "--refined", records, "--aliases", aliases],
        }[case]
        code = (
            "import os, sys; "
            "names = ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS'); "
            "[os.environ.pop(name, None) for name in names]; os.environ['OMP_NUM_THREADS'] = '3'; "
            "from kgfaith.cli import main; code = main(sys.argv[1:]); "
            "print(*(os.environ.get(name) for name in names), 'numpy' in sys.modules); "
            "sys.exit(code)"
        )
        proc = run_without_numpy(argv, code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == b"1 3 1 False"

    @pytest.mark.parametrize(
        "argv",
        [["train", "--kg", "kg.tsv", "--out", "emb.txt", "--optimizer", "bogus"],
         ["refine", "--mode", "bogus"]],
        ids=["train-optimizer", "refine-mode"],
    )
    def test_bad_choice_is_refused_before_numpy(self, argv, capsys):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: argument {argv[-2]}: invalid choice: 'bogus'")
        assert len(err.splitlines()) == 1
        proc = run_without_numpy(argv)
        assert proc.returncode == 1
        assert proc.stderr.decode() == err

    @pytest.mark.parametrize(
        "command, choices", [("train", "{sgd,adam}"), ("refine", "{oracle,inferred,external}")]
    )
    def test_help_needs_no_numpy(self, command, choices, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert run([command, "--help"]) == 0
        text = capsys.readouterr().out
        assert choices in text
        proc = run_without_numpy([command, "--help"])
        assert proc.returncode == 0
        assert proc.stdout.decode() == text


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

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_bytes(b'{"kg": "\xff"}')
        assert run(["kg", "stats", "--config", cfg]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: --config: not valid UTF-8 JSON: ")

    def test_config_missing_value(self):
        assert run(["kg", "stats", "--config"]) == 1


class TestConfigValuesParseLikeFlags:
    """A config value goes through its flag's type, choices and required checks."""

    def run_with(self, tmp_path, blob, argv):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(blob))
        return run([*argv, "--config", cfg])

    def critique_argv(self, data_dir, out):
        return ["critique", "--in", data_dir / "toy_dialogues.jsonl",
                "--kg", data_dir / "toy_kg.tsv",
                "--aliases", data_dir / "toy_aliases.tsv", "--out", out]

    def assert_one_error(self, capsys, *needles):
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        for needle in needles:
            assert needle in err[0]

    def test_bad_choice(self, data_dir, tmp_path, trained_snapshot, capsys):
        out = tmp_path / "r.jsonl"
        code = self.run_with(
            tmp_path, {"chain": "maybe"},
            ["refine", "--in", data_dir / "toy_dialogues.jsonl",
             "--kg", data_dir / "toy_kg.tsv", "--emb", trained_snapshot,
             "--aliases", data_dir / "toy_aliases.tsv", "--out", out],
        )
        assert code == 1
        self.assert_one_error(capsys, "--chain", "maybe")
        assert not out.exists()

    @pytest.mark.parametrize("value", [[1], {"hops": 1}, True], ids=["list", "object", "bool"])
    def test_not_one_value_for_a_value_flag(self, data_dir, tmp_path, capsys, value):
        out = tmp_path / "c.jsonl"
        assert self.run_with(tmp_path, {"k": value}, self.critique_argv(data_dir, out)) == 1
        self.assert_one_error(capsys, "--config", "--k")
        assert not out.exists()

    def test_float_for_an_int_flag(self, data_dir, tmp_path, capsys):
        out = tmp_path / "emb.tsv"
        code = self.run_with(
            tmp_path, {"dim": 2.5}, ["train", "--kg", data_dir / "toy_kg.tsv", "--out", out]
        )
        assert code == 1
        self.assert_one_error(capsys, "--dim", "2.5")
        assert not out.exists()

    def test_bad_choice_in_eval(self, data_dir, tmp_path, capsys):
        code = self.run_with(
            tmp_path, {"bleu_level": "bogus"},
            ["eval", "--kg", data_dir / "toy_kg.tsv",
             "--refined", data_dir / "toy_dialogues.jsonl"],
        )
        assert code == 1
        self.assert_one_error(capsys, "--bleu-level", "bogus")

    def test_null_is_absent(self, data_dir, tmp_path, capsys):
        argv = self.critique_argv(data_dir, tmp_path / "c.jsonl")[:-2]
        assert run(argv) == 1
        without_config = capsys.readouterr().err
        assert self.run_with(tmp_path, {"out": None}, argv) == 1
        assert capsys.readouterr().err == without_config
        assert without_config.splitlines() == [
            "error: the following arguments are required: --out"
        ]

    def test_values_typed_like_flags(self, data_dir, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run(self.critique_argv(data_dir, a) + ["--k", "1"]) == 0
        assert self.run_with(tmp_path, {"k": 1, "mode": None},
                             self.critique_argv(data_dir, b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_boolean_sets_store_true_flag(self, data_dir, tmp_path, capsys):
        argv = ["kg", "stats", "--kg", data_dir / "toy_kg.tsv"]
        assert self.run_with(tmp_path, {"json": True}, argv) == 0
        assert json.loads(capsys.readouterr().out)["entities"] == 8
        assert self.run_with(tmp_path, {"json": False}, argv) == 0
        assert capsys.readouterr().out == "{entities: 8, relations: 3, triples: 7}\n"

    def test_key_of_another_command_ignored(self, data_dir, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run(self.critique_argv(data_dir, a)) == 0
        # "mode" is refine's query construction; critique has no --mode.
        for blob in ({"dim": 32}, {"mode": "oracle"}):
            assert self.run_with(tmp_path, blob, self.critique_argv(data_dir, b)) == 0
            assert a.read_bytes() == b.read_bytes()


def parse(argv):
    """What main() does before dispatching: merge --config values, then parse."""
    argv = [str(a) for a in argv]
    opts = _Options()
    return build_parser(opts).parse_args(opts.with_config(argv, _load_config(argv)))


class TestParseErrorTypes:
    """Only an unknown command or subcommand raises UnknownCommand."""

    @pytest.mark.parametrize(
        "argv", [["frobnicate"], ["kg", "frobnicate"]], ids=["command", "subcommand"]
    )
    def test_unknown_command(self, argv, capsys):
        with pytest.raises(UnknownCommand, match="invalid choice: 'frobnicate'"):
            parse(argv)
        assert run(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: argument ")

    def test_bad_flag_choice(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"chain": "maybe"}))
        for argv in (["refine", "--chain", "maybe"], ["refine", "--config", cfg]):
            with pytest.raises(ConfigValidation, match="argument --chain: invalid choice") as err:
                parse(argv)
            assert type(err.value) is ConfigValidation
            assert run(argv) == 1
            assert capsys.readouterr().err.splitlines() == [f"error: {err.value}"]


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

    @pytest.mark.parametrize(
        "extra",
        [
            ["--sampler", "uniform"],
            ["--sampler", "sans:2", "--optimizer", "adam"],
            ["--sampler", "inbatch"],
        ],
        ids=["uniform", "sans-adam", "inbatch"],
    )
    def test_byte_identical_across_processes(self, data_dir, tmp_path, extra):
        """Two processes write the same snapshot and loss trace.

        No sha256 is pinned: exp and log reach both files, and
        test_golden_scores.py names them as what makes bytes differ from
        host to host.
        """
        package_root = str(Path(kgfaith.__file__).resolve().parent.parent)
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])),
        )
        outputs = []
        for name in ("a", "b"):
            out, trace = tmp_path / f"{name}.tsv", tmp_path / f"{name}.csv"
            argv = self.train_args(data_dir, out, trace, seed=4, extra=extra)
            proc = subprocess.run(
                [sys.executable, "-m", "kgfaith.cli", *map(str, argv)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append((out.read_bytes(), trace.read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs two CPUs that a child process can be pinned to",
    )
    def test_snapshot_does_not_depend_on_the_core_count(self, tmp_path):
        """A host with two cores writes the snapshot OPENBLAS_NUM_THREADS=1 writes.

        The second process has no thread variable set and two CPUs in its
        affinity mask, which is what OpenBLAS counts as the cores it may
        use. Left to pick its own count, it scores each batch with two
        threads, which round this graph's batch products otherwise.
        """
        graph = sparse_corpus(600, 4, 900)[0]
        kg = tmp_path / "kg.tsv"
        kg.write_text("".join("\t".join(graph.name_triple(t)) + "\n" for t in graph.triples))
        package_root = str(Path(kgfaith.__file__).resolve().parent.parent)
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        two_cpus = sorted(os.sched_getaffinity(0))[:2]
        snapshots = []
        for name, threads in (("pinned", {"OPENBLAS_NUM_THREADS": "1"}), ("unpinned", {})):
            out = tmp_path / f"{name}.tsv"
            proc = subprocess.run(
                [sys.executable, "-m", "kgfaith.cli", "train", "--kg", str(kg),
                 "--sampler", "uniform", "--dim", "32", "--epochs", "2", "--seed", "1",
                 "--out", str(out)],
                env={**env, **threads}, capture_output=True, text=True, timeout=120,
                preexec_fn=lambda: os.sched_setaffinity(0, two_cpus),
            )
            assert proc.returncode == 0, proc.stderr
            snapshots.append(out.read_bytes())
        assert snapshots[0] == snapshots[1]

    def test_numpy_loaded_first_keeps_the_thread_settings(self, data_dir, tmp_path, monkeypatch):
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        for name in names:
            monkeypatch.delenv(name, raising=False)
        assert run(self.train_args(data_dir, tmp_path / "emb.tsv")) == 0
        assert [name for name in names if name in os.environ] == []

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

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "key, rule", [("lr", "learning rate must be finite and > 0"),
                      ("l2", "l2 must be finite and >= 0")], ids=["lr", "l2"],
    )
    def test_non_finite_rate_refused(
        self, data_dir, tmp_path, capsys, source, value, key, rule
    ):
        out = tmp_path / "emb.tsv"
        if source == "flag":
            extra = [f"--{key}", value]
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({key: float(value)}))  # NaN / Infinity tokens
            extra = ["--config", cfg]
        assert run(self.train_args(data_dir, out, extra=extra)) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {rule}, got {value}"]
        assert not out.exists()

    def test_negative_sans_radius_refused(self, data_dir, tmp_path, capsys):
        # Refused with the config, before the stage-seed line and any work.
        out, trace = tmp_path / "emb.tsv", tmp_path / "loss.csv"
        argv = self.train_args(data_dir, out, trace, extra=["--sampler", "sans:-1"])
        assert run(argv) == 1
        assert capsys.readouterr().err.splitlines() == ["error: k must be >= 0, got -1"]
        assert not out.exists() and not trace.exists()

    def test_in_batch_sampler_with_batch_of_one_refused(self, data_dir, tmp_path, capsys):
        # Every batch would be skipped: nothing trains.
        out, trace = tmp_path / "emb.tsv", tmp_path / "loss.csv"
        argv = self.train_args(data_dir, out, trace, extra=["--sampler", "inbatch", "--batch", "1"])
        assert run(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: the in-batch sampler needs batch size >= 2, got 1"
        ]
        assert not out.exists() and not trace.exists()


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

    def test_bad_fraction(self, data_dir, tmp_path, capsys):
        argv = self.corrupt_args(data_dir, tmp_path / "c.jsonl", tmp_path / "s.json")
        assert run(argv + ["--frac", "1.5"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "c.jsonl").exists()


class TestNonUtf8Input:
    """A data file that is not UTF-8 is a runtime error naming the line."""

    @pytest.mark.parametrize("flag", ["--kg", "--in"])
    def test_exits_2(self, data_dir, tmp_path, capsys, flag):
        files = {"--kg": data_dir / "toy_kg.tsv", "--in": data_dir / "toy_dialogues.jsonl"}
        bad = tmp_path / "bad"
        bad.write_bytes(files[flag].read_bytes() + b"\xff\xfe\n")
        files[flag] = bad
        out = tmp_path / "crit.jsonl"
        code = run(["critique", "--in", files["--in"], "--kg", files["--kg"],
                    "--aliases", data_dir / "toy_aliases.tsv", "--out", out])
        assert code == 2
        lines = files[flag].read_bytes().count(b"\n")
        assert capsys.readouterr().err.splitlines() == [
            f"error: MalformedLine: line {lines}: expected UTF-8 text"
        ]
        assert not out.exists()

    def test_kg_stats_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "kg.tsv"
        bad.write_bytes(b"\xff\xfea\tr\tb\n")
        assert run(["kg", "stats", "--kg", bad]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: MalformedLine: line 1: expected UTF-8 text"
        ]


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
        # A --phrases file with no data lines would turn the orientation
        # check on with nothing to check, so it is refused.
        phrases = tmp_path / "phrases.tsv"
        phrases.write_text("# relation<TAB>phrase\n\n")
        out = tmp_path / "crit.jsonl"
        code = run(["critique", "--in", data_dir / "toy_dialogues.jsonl",
                    "--kg", data_dir / "toy_kg.tsv",
                    "--aliases", data_dir / "toy_aliases.tsv", "--phrases", phrases,
                    "--out", out])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: the relation-phrase table is empty"
        ]
        assert not out.exists()

    def test_triple_part_not_a_string_exits_2(self, data_dir, tmp_path, capsys):
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps({
            "history": [], "triples": [["roald_dahl", None, "the_bfg"]],
            "response": "Roald Dahl wrote The BFG.",
        }) + "\n")
        out = tmp_path / "crit.jsonl"
        code = run(["critique", "--in", src, "--kg", data_dir / "toy_kg.tsv",
                    "--aliases", data_dir / "toy_aliases.tsv", "--out", out])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: MalformedLine: line 1: expected a JSON dialogue record "
            "(triple parts must be non-empty strings, got ['roald_dahl', None, 'the_bfg'])"
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


def critique(data_dir, out, *flags):
    """The toy dialogues with the labels critique writes: refine's input."""
    code = run(["critique", "--in", data_dir / "toy_dialogues.jsonl",
                "--kg", data_dir / "toy_kg.tsv",
                "--aliases", data_dir / "toy_aliases.tsv", *flags, "--out", out])
    assert code == 0
    return out


@pytest.fixture()
def labelled(data_dir, tmp_path):
    return critique(data_dir, tmp_path / "labelled.jsonl")


class TestRefineCommand:
    def refine_argv(self, data_dir, src, snapshot, out):
        return ["refine", "--in", src, "--kg", data_dir / "toy_kg.tsv", "--emb", snapshot,
                "--aliases", data_dir / "toy_aliases.tsv", "--out", out]

    def test_refines_toy_corpus(self, data_dir, tmp_path, trained_snapshot, labelled):
        out = tmp_path / "refined.jsonl"
        assert run(self.refine_argv(data_dir, labelled, trained_snapshot, out)) == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(rows) == 3
        assert len(rows[0]["edits"]) == 2
        assert rows[0]["failures"] == []
        assert rows[0]["refined_response"] != rows[0]["response"]
        for row in rows[1:]:
            assert row["refined_response"] == row["response"]
            assert row["edits"] == []

    def test_input_not_mutated(self, data_dir, tmp_path, trained_snapshot, labelled):
        before = labelled.read_bytes()
        run(self.refine_argv(data_dir, labelled, trained_snapshot, tmp_path / "r.jsonl"))
        assert labelled.read_bytes() == before

    def test_directed_only_flag_is_refined(self, data_dir, tmp_path, trained_snapshot, labelled):
        # Only the directed check flags record 2: "illustrated" runs from
        # The BFG to Quentin Blake, against the graph's edge.
        directed = critique(
            data_dir, tmp_path / "directed.jsonl",
            "--phrases", data_dir / "toy_relation_phrases.tsv",
        )
        for src, repaired in ((labelled, False), (directed, True)):
            out = tmp_path / "refined.jsonl"
            assert run(self.refine_argv(data_dir, src, trained_snapshot, out)) == 0
            row = [json.loads(l) for l in out.read_text().splitlines()][1]
            assert row["response"] == "The BFG was illustrated by Quentin Blake."
            assert row["flagged"] is repaired
            assert bool(row["edits"]) is repaired
            assert (row["refined_response"] != row["response"]) is repaired

    @pytest.mark.parametrize(
        "labels, reason",
        [
            (None, "no labels"),
            ({"begin": 0, "end": 7, "label": "faithful"}, "labels must be a list"),
            ([{"begin": 0, "end": 7}], "label must be a {begin, end, label} object"),
            ([{"begin": 0.0, "end": 7, "label": "faithful"}], "JSON integers"),
            ([{"begin": False, "end": 7, "label": "faithful"}], "JSON integers"),
            ([{"begin": "0", "end": 7, "label": "faithful"}], "JSON integers"),
            ([{"begin": 27, "end": 42, "label": "faithful"}], "span [27, 42) out of range"),
            ([{"begin": 0, "end": 7, "label": "made_up"}], "label must be one of"),
            (
                [{"begin": 0, "end": 7, "label": "faithful"},
                 {"begin": 4, "end": 11, "label": "extrinsic"}],
                "spans [0, 7) and [4, 11) overlap",
            ),
        ],
        ids=["missing", "not-a-list", "missing-key", "float", "bool", "string",
             "out-of-range", "unknown-label", "overlap"],
    )
    def test_bad_labels_exit_2(
        self, data_dir, tmp_path, trained_snapshot, labelled, capsys, labels, reason
    ):
        rows = [json.loads(l) for l in labelled.read_text().splitlines()]
        if labels is None:
            del rows[1]["labels"]
        else:
            rows[1]["labels"] = labels
        src = tmp_path / "in.jsonl"
        src.write_text("".join(json.dumps(row) + "\n" for row in rows))
        out = tmp_path / "r.jsonl"
        capsys.readouterr()
        assert run(self.refine_argv(data_dir, src, trained_snapshot, out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: MalformedLabels: record 2: ")
        assert reason in err[0]
        assert err[0].endswith("; run critique on the input first")
        assert not out.exists()

    def test_overlapping_spans_exit_2(self, data_dir, tmp_path, trained_snapshot, capsys):
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps({
            "history": [], "triples": [],
            "response": "Yes he did. He also wrote The Time Machine.",
            "spans": [["ghost_a", 7, 14], ["ghost_b", 10, 21]],
        }) + "\n")
        out = tmp_path / "r.jsonl"
        code = run(["refine", "--in", src, "--kg", data_dir / "toy_kg.tsv",
                    "--emb", trained_snapshot,
                    "--aliases", data_dir / "toy_aliases.tsv", "--out", out])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: MalformedLine: line 1: expected a JSON dialogue record "
            "(spans [7, 14) and [10, 21) overlap)"
        ]
        assert not out.exists()

    def test_external_mode_needs_queries(self, data_dir, tmp_path, trained_snapshot):
        code = run(["refine", "--in", data_dir / "toy_dialogues.jsonl",
                    "--kg", data_dir / "toy_kg.tsv", "--emb", trained_snapshot,
                    "--aliases", data_dir / "toy_aliases.tsv",
                    "--mode", "external", "--out", tmp_path / "r.jsonl"])
        assert code == 1

    def refine_external(self, data_dir, tmp_path, snapshot, rows, vectors):
        """refine --mode external on the rows, each vector an 8-fold repeated number."""
        src = tmp_path / "in.jsonl"
        src.write_text("".join(json.dumps(row) + "\n" for row in rows))
        queries = tmp_path / "queries.txt"
        queries.write_text("".join(f"{v} " * 8 + "\n" for v in vectors))
        out = tmp_path / "r.jsonl"
        argv = self.refine_argv(data_dir, src, snapshot, out)
        code = run(argv + ["--mode", "external", "--queries", queries])
        rows = [json.loads(l) for l in out.read_text().splitlines()] if out.exists() else None
        return code, rows

    # One flagged span each; the first record has no grounding triple, so
    # no anchor either, and its span fails before a query is built.
    ANCHORLESS = {"history": [], "triples": [], "response": "He also wrote The Hobbit.",
                  "labels": [{"begin": 14, "end": 24, "label": "extrinsic"}]}
    ANCHORED = {**ANCHORLESS, "triples": [["roald_dahl", "wrote", "the_witches"]]}

    def test_each_flagged_span_takes_one_vector(self, data_dir, tmp_path, trained_snapshot):
        code, alone = self.refine_external(
            data_dir, tmp_path, trained_snapshot, [self.ANCHORED], [-1.0]
        )
        assert code == 0 and len(alone[0]["edits"]) == 1
        code, rows = self.refine_external(
            data_dir, tmp_path, trained_snapshot, [self.ANCHORLESS, self.ANCHORED], [1.0, -1.0]
        )
        assert code == 0
        assert [f["reason"] for f in rows[0]["failures"]] == ["anchor set is empty"]
        assert rows[1]["edits"] == alone[0]["edits"]

    @pytest.mark.parametrize("vectors", [[1.0], [1.0, -1.0, 1.0]], ids=["short", "long"])
    def test_vector_count_must_match_flagged_spans(
        self, data_dir, tmp_path, trained_snapshot, capsys, vectors
    ):
        capsys.readouterr()
        code, rows = self.refine_external(
            data_dir, tmp_path, trained_snapshot, [self.ANCHORLESS, self.ANCHORED], vectors
        )
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: LengthMismatch: --queries: {len(vectors)} vector(s), 2 flagged span(s)"
        ]
        assert rows is None

    @pytest.mark.parametrize(
        "bad", ["0.5 half", "0.5 nan", "0.5 " * 7], ids=["0.5 half", "0.5 nan", "seven numbers"]
    )
    def test_bad_query_file_is_runtime_error(
        self, data_dir, tmp_path, trained_snapshot, capsys, bad
    ):
        queries = tmp_path / "queries.txt"
        queries.write_text("# one vector per flagged mention\n" + "0.5 " * 8 + f"\n{bad}\n")
        out = tmp_path / "r.jsonl"
        code = run(["refine", "--in", data_dir / "toy_dialogues.jsonl",
                    "--kg", data_dir / "toy_kg.tsv", "--emb", trained_snapshot,
                    "--aliases", data_dir / "toy_aliases.tsv",
                    "--mode", "external", "--queries", queries, "--out", out])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: MalformedLine: line 3: expected a vector of 8 finite numbers"
        ]
        assert not out.exists()

    def test_queries_outside_external_mode_refused(
        self, data_dir, tmp_path, trained_snapshot, labelled, capsys
    ):
        # Refused before the file is read: this one is not even a vector.
        queries = tmp_path / "queries.txt"
        queries.write_text("bogus\n")
        out = tmp_path / "r.jsonl"
        capsys.readouterr()
        code = run(self.refine_argv(data_dir, labelled, trained_snapshot, out)
                   + ["--mode", "oracle", "--queries", queries])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: --queries goes with --mode external, and only with it"
        ]
        assert not out.exists()


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

    @pytest.fixture()
    def unlabelled_second(self, tmp_path, labelled):
        # The first record as critique wrote it, then one without labels.
        first = labelled.read_text().splitlines()[0]
        second = json.dumps({"history": [], "triples": [], "response": "Nothing here."})
        path = tmp_path / "unlabelled.jsonl"
        path.write_text(first + "\n" + second + "\n")
        return path

    def argv(self, command, data_dir, src, out, snapshot):
        argv = [command, "--in", src, "--kg", data_dir / "toy_kg.tsv",
                "--aliases", data_dir / "toy_aliases.tsv", "--out", out]
        return argv + (["--emb", snapshot] if command == "refine" else [])

    @pytest.mark.parametrize(
        "command, src, error",
        [("critique", "failing_input", "UnlinkedResponse"),
         ("refine", "unlabelled_second", "MalformedLabels")],
        ids=["critique", "refine"],
    )
    def test_failed_run_writes_nothing(
        self, data_dir, tmp_path, trained_snapshot, capsys, request, command, src, error
    ):
        out = tmp_path / "out" / "result.jsonl"
        out.parent.mkdir()
        src = request.getfixturevalue(src)
        argv = self.argv(command, data_dir, src, out, trained_snapshot)
        assert run(argv) == 2
        assert error in capsys.readouterr().err
        assert list(out.parent.iterdir()) == []

        out.write_text("earlier result\n")
        assert run(argv) == 2
        assert out.read_text() == "earlier result\n"
        assert list(out.parent.iterdir()) == [out]

    @pytest.mark.parametrize("command", ["critique", "refine"])
    def test_successful_run_replaces_output(
        self, data_dir, tmp_path, trained_snapshot, labelled, command
    ):
        out = tmp_path / "out" / "result.jsonl"
        out.parent.mkdir()
        out.write_text("earlier result\n")
        src = labelled if command == "refine" else data_dir / "toy_dialogues.jsonl"
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

    @pytest.mark.parametrize("command", ["train", "corrupt", "eval"])
    def test_two_outputs_naming_one_file(
        self, data_dir, tmp_path, trained_snapshot, capsys, command
    ):
        out = tmp_path / "out"
        out.mkdir()
        target = out / "result"
        target.write_text("old\n")
        same = out / ".." / "out" / "result"
        if command == "train":
            argv = ["train", "--kg", data_dir / "toy_kg.tsv", "--dim", "4",
                    "--epochs", "2", "--out", target, "--trace", same]
        elif command == "corrupt":
            argv = ["corrupt", "--in", data_dir / "toy_dialogues.jsonl",
                    "--kg", data_dir / "toy_kg.tsv", "--types", data_dir / "toy_types.tsv",
                    "--aliases", data_dir / "toy_aliases.tsv",
                    "--out", target, "--summary", target]
        else:
            heldout = tmp_path / "held.tsv"
            heldout.write_text("roald_dahl\twrote\tthe_hobbit\n")
            argv = ["eval", "--kg", data_dir / "toy_kg.tsv", "--emb", trained_snapshot,
                    "--heldout", heldout, "--ranks-csv", target, "--out", target]
        capsys.readouterr()
        assert run(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: two outputs name one file: {target.resolve()}"
        ]
        assert target.read_bytes() == b"old\n"
        assert list(out.iterdir()) == [target]


# Every command's flags, by the dest main() reads them under.
OPTS = _Options()
build_parser(OPTS)
INPUT_FLAGS = [
    (command, dest) for command, actions in OPTS.commands.items()
    for dest in actions if dest in _INPUT_FILES
]
# An existing file for each input flag. The boundary tests stop before
# any read, so emb, queries and heldout need not be of their kind.
TOY_FILES = {
    "kg": "toy_kg.tsv", "input": "toy_dialogues.jsonl", "types": "toy_types.tsv",
    "aliases": "toy_aliases.tsv", "phrases": "toy_relation_phrases.tsv", "emb": "toy_kg.tsv",
    "queries": "toy_kg.tsv", "heldout": "toy_kg.tsv", "refined": "toy_dialogues.jsonl",
}
# The value flags; --config names a file, which _load_config checks
# before parsing.
VALUE_DESTS = {
    "config", "json", "center", "k", "frac", "seed", "policy", "dim", "sampler", "neg",
    "epochs", "batch", "lr", "optimizer", "l2", "anchors", "mode", "chain", "rank_mode",
    "bleu_level",
}


class TestRunBoundary:
    """main() refuses two outputs naming one file, then a missing input
    file, before the command's own checks; a command checks the flag
    values it uses before it reads any file."""

    def test_every_flag_is_a_file_or_a_value(self):
        # A new path flag must join _INPUT_FILES or _OUTPUT_FILES, or main() would
        # neither check it nor make it atomic.
        for command, actions in OPTS.commands.items():
            for dest in actions:
                kinds = (dest in _INPUT_FILES, dest in _OUTPUT_FILES, dest in VALUE_DESTS)
                assert sum(kinds) == 1, (command, dest)
        declared = set().union(*OPTS.commands.values())
        assert declared.issuperset(_INPUT_FILES + _OUTPUT_FILES)

    @pytest.mark.parametrize(
        "command, dest", INPUT_FLAGS, ids=[f"{'-'.join(c)}-{d}" for c, d in INPUT_FLAGS]
    )
    def test_missing_input_file(self, data_dir, tmp_path, capsys, command, dest):
        actions = OPTS.commands[command]
        out = tmp_path / "out"
        out.mkdir()
        missing = tmp_path / "missing" / "file"
        argv = list(command) + {
            ("subgraph",): ["--center", "roald_dahl"], ("refine",): ["--mode", "external"],
        }.get(command, [])
        for name, action in actions.items():
            if name in _INPUT_FILES:
                argv += [action.option_strings[0],
                         missing if name == dest else data_dir / TOY_FILES[name]]
            elif name in _OUTPUT_FILES:
                argv += [action.option_strings[0], out / name]
        capsys.readouterr()
        assert run(argv) == 1
        flag = actions[dest].option_strings[0]
        assert capsys.readouterr().err == f"error: {flag}: no such file: {missing}\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "case", ["eval-empty-heldout", "corrupt-malformed-kg", "refine-malformed-emb",
                 "refine-oracle-queries"],
    )
    def test_missing_input_comes_first(self, data_dir, tmp_path, capsys, request, case):
        # Each run has a later input missing and would otherwise fail, or
        # (eval) rank every held-out triple, on what it reads first. The
        # oracle refine is refused --queries only after the file check.
        out = tmp_path / "out"
        out.mkdir()
        missing = tmp_path / "missing.jsonl"
        bad = tmp_path / "bad.tsv"
        bad.write_text("roald_dahl\twrote\n")
        kg, aliases = data_dir / "toy_kg.tsv", data_dir / "toy_aliases.tsv"
        if case == "eval-empty-heldout":
            heldout = tmp_path / "held.tsv"
            heldout.write_text("# nothing held out\n")
            flag, argv = "--refined", [
                "eval", "--kg", kg, "--emb", request.getfixturevalue("trained_snapshot"),
                "--heldout", heldout, "--refined", missing,
                "--ranks-csv", out / "ranks.csv", "--out", out / "summary.json"]
        elif case == "corrupt-malformed-kg":
            flag, argv = "--in", [
                "corrupt", "--in", missing, "--kg", bad, "--types", data_dir / "toy_types.tsv",
                "--aliases", aliases, "--out", out / "c.jsonl", "--summary", out / "s.json"]
        elif case == "refine-malformed-emb":
            flag, argv = "--in", [
                "refine", "--in", missing, "--kg", kg, "--emb", bad, "--aliases", aliases,
                "--out", out / "r.jsonl"]
        else:
            flag, argv = "--queries", [
                "refine", "--in", data_dir / "toy_dialogues.jsonl", "--kg", kg, "--emb", bad,
                "--aliases", aliases, "--mode", "oracle", "--queries", missing,
                "--out", out / "r.jsonl"]
        capsys.readouterr()
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {flag}: no such file: {missing}\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "case", ["subgraph-center", "subgraph-k", "critique-k", "refine-k", "eval-critic-k"],
    )
    def test_flag_values_come_before_any_read(self, data_dir, tmp_path, capsys, case):
        # Each run's --kg does not parse, so reading it first would exit 2
        # with MalformedLine; the bad value exits 1 before any file is read.
        out = tmp_path / "out"
        out.mkdir()
        bad = tmp_path / "bad.tsv"
        bad.write_text("roald_dahl\twrote\n")
        dialogues, aliases = data_dir / "toy_dialogues.jsonl", data_dir / "toy_aliases.tsv"
        argv = {
            "subgraph-center": ["subgraph", "--center", ","],
            "subgraph-k": ["subgraph", "--center", "roald_dahl", "--k", "-1"],
            "critique-k": ["critique", "--in", dialogues, "--aliases", aliases, "--k", "-1"],
            "refine-k": ["refine", "--in", dialogues, "--emb", bad, "--aliases", aliases,
                         "--k", "-1"],
            "eval-critic-k": ["eval", "--refined", dialogues, "--aliases", aliases,
                              "--k", "-1"],
        }[case]
        message = (
            "--center needs at least one entity name" if case == "subgraph-center"
            else "k must be >= 0, got -1"
        )
        capsys.readouterr()
        assert run(argv + ["--kg", bad, "--out", out / "result"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(out.iterdir()) == []

    def test_eval_without_the_critic_ignores_k(self, data_dir, tmp_path, trained_snapshot):
        # Only the critic reads --k, so a value shared through a config
        # with other commands does not stop an eval that does not run it.
        heldout = tmp_path / "held.tsv"
        heldout.write_text("roald_dahl\twrote\tthe_hobbit\n")
        kg = data_dir / "toy_kg.tsv"
        assert run(["eval", "--kg", kg, "--emb", trained_snapshot, "--heldout", heldout,
                    "--aliases", data_dir / "toy_aliases.tsv", "--k", "-1",
                    "--out", tmp_path / "ranking.json"]) == 0
        assert run(["eval", "--kg", kg, "--refined", data_dir / "toy_dialogues.jsonl",
                    "--k", "-1", "--out", tmp_path / "text.json"]) == 0

    def test_two_outputs_reported_before_a_missing_input(self, tmp_path, capsys):
        target = tmp_path / "emb.txt"
        assert run(["train", "--kg", tmp_path / "missing.tsv", "--out", target,
                    "--trace", target]) == 1
        assert capsys.readouterr().err == (
            f"error: two outputs name one file: {target.resolve()}\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_empty_path_is_a_missing_file(self, data_dir, tmp_path, capsys):
        # An optional input given as "" is checked like any other path.
        out = tmp_path / "labelled.jsonl"
        assert run(["critique", "--in", data_dir / "toy_dialogues.jsonl",
                    "--kg", data_dir / "toy_kg.tsv", "--aliases", data_dir / "toy_aliases.tsv",
                    "--phrases", "", "--out", out]) == 1
        assert capsys.readouterr().err == "error: --phrases: no such file: \n"
        assert not out.exists()

    def test_eval_checks_critic_files_it_does_not_read(
        self, data_dir, tmp_path, trained_snapshot, capsys
    ):
        # Ranking alone reads neither --aliases nor --phrases, yet checks
        # them: files that exist (say, from a config shared with critique)
        # still run, and a missing one exits 1.
        heldout = tmp_path / "held.tsv"
        heldout.write_text("roald_dahl\twrote\tthe_hobbit\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "aliases": str(data_dir / "toy_aliases.tsv"),
            "phrases": str(data_dir / "toy_relation_phrases.tsv"),
        }))
        argv = ["eval", "--kg", data_dir / "toy_kg.tsv", "--emb", trained_snapshot,
                "--heldout", heldout]
        assert run(argv + ["--config", config]) == 0
        capsys.readouterr()
        missing = tmp_path / "missing.tsv"
        assert run(argv + ["--aliases", missing]) == 1
        assert capsys.readouterr().err == f"error: --aliases: no such file: {missing}\n"


class TestSnapshotErrors:
    """A snapshot line that does not parse is a runtime error naming the line."""

    @pytest.fixture(params=[
        "non-numeric", "non-finite", "bad-count", "truncated", "zero-relations",
        "duplicate-name", "bad-kind",
    ])
    def broken_snapshot(self, request, tmp_path, trained_snapshot):
        lines = trained_snapshot.read_text().splitlines()
        assert lines[0] == "pathhunter-emb v1 8 3 8"
        if request.param == "bad-count":
            lines[0] = lines[0].rsplit(" ", 1)[0] + " eight"
            line = 1
        elif request.param == "truncated":
            # The header promises 8 entity and 3 relation rows; 4 and 0 remain.
            lines = lines[:5]
            line = 1
        elif request.param == "zero-relations":
            # Header and rows agree on 0 relation rows; no table has none.
            lines = ["pathhunter-emb v1 8 0 8", *lines[1:9]]
            line = 1
        elif request.param == "duplicate-name":
            # A second roald_dahl row, counted in the header, on line 13.
            lines = ["pathhunter-emb v1 9 3 8", *lines[1:], lines[1]]
            line = 13
        elif request.param == "bad-kind":
            lines[3] = "X" + lines[3][1:]
            line = 4
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

    def test_full_summary(self, data_dir, tmp_path, trained_snapshot, labelled):
        refined = tmp_path / "refined.jsonl"
        assert run(["refine", "--in", labelled,
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

    def test_phrases_judge_refined_text_as_critique_does(self, data_dir, tmp_path):
        # critique --phrases flags 2 toy records; refine rewrites them with a
        # 2-epoch snapshot, and critique --phrases on the refined responses
        # still flags 2 of 3. eval's critic takes the same flags.
        kg, aliases = data_dir / "toy_kg.tsv", data_dir / "toy_aliases.tsv"
        phrases = data_dir / "toy_relation_phrases.tsv"
        labelled = critique(data_dir, tmp_path / "labelled.jsonl", "--phrases", phrases)
        emb, refined = tmp_path / "emb.txt", tmp_path / "refined.jsonl"
        assert run(["train", "--kg", kg, "--epochs", "2", "--dim", "4", "--out", emb]) == 0
        assert run(["refine", "--in", labelled, "--kg", kg, "--emb", emb,
                    "--aliases", aliases, "--out", refined]) == 0

        def rate(*flags):
            out = tmp_path / "summary.json"
            assert run(["eval", "--kg", kg, "--refined", refined, "--aliases", aliases,
                        *flags, "--out", out]) == 0
            return json.loads(out.read_text())["hallucination_rate"]

        assert rate() == pytest.approx(1 / 3)
        assert rate("--phrases", phrases) == pytest.approx(2 / 3)

    def test_anchors_judge_text_as_critique_does(self, data_dir, tmp_path):
        # The Hobbit is three hops from the grounding triple's entities but
        # one from J. R. R. Tolkien in the history: kn flags the response,
        # history does not, in critique and in eval alike.
        kg, aliases = data_dir / "toy_kg.tsv", data_dir / "toy_aliases.tsv"
        path = tmp_path / "in.jsonl"
        path.write_text(json.dumps({
            "history": ["Tell me about J. R. R. Tolkien."],
            "triples": [["roald_dahl", "wrote", "the_bfg"]],
            "response": "He wrote The Hobbit.",
        }) + "\n")
        for anchors, want in (("kn", 1.0), ("history", 0.0)):
            labelled, out = tmp_path / f"{anchors}.jsonl", tmp_path / f"{anchors}.json"
            assert run(["critique", "--in", path, "--kg", kg, "--aliases", aliases,
                        "--anchors", anchors, "--out", labelled]) == 0
            flagged = json.loads(labelled.read_text())["flagged"]
            assert run(["eval", "--kg", kg, "--refined", path, "--aliases", aliases,
                        "--anchors", anchors, "--out", out]) == 0
            assert json.loads(out.read_text())["hallucination_rate"] == float(flagged) == want

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

    def test_empty_heldout_exits_2(self, data_dir, tmp_path, trained_snapshot, capsys):
        heldout = tmp_path / "held.tsv"
        heldout.write_text("# nothing held out\n")
        code = run(["eval", "--kg", data_dir / "toy_kg.tsv",
                    "--emb", trained_snapshot, "--heldout", heldout])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: EmptyHoldout: no held-out triples to evaluate"
        ]

    @pytest.mark.parametrize("field", ["gold_response", "refined_response"])
    def test_non_string_text_exits_2(self, data_dir, tmp_path, capsys, field):
        blob = json.loads((data_dir / "toy_dialogues.jsonl").read_text().splitlines()[0])
        blob[field] = 7
        refined = tmp_path / "refined.jsonl"
        refined.write_text(json.dumps(blob) + "\n")
        code = run(["eval", "--kg", data_dir / "toy_kg.tsv", "--refined", refined])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: MalformedLine: line 1: expected a JSON dialogue record "
            f"({field} must be a string)"
        ]


# --- malformed input ----------------------------------------------------------

# Values a mutated JSON field takes: wrong types, empty and out-of-range ones.
ODD_VALUES = (None, 7, -1, 1.5, "", "x", [], {}, [[0, 1]], [[-1, 99, "x"]], [["a", "b"]], ["e", 1, 2])
# Values a mutated TSV or snapshot field takes.
ODD_FIELDS = ("", "x", "nan", "inf", "1e999", "-0", "the_bfg", "\u00e9")
# Text a mutated line may gain: delimiters, digits, a non-ASCII letter, a carriage return.
ODD_TEXT = st.text(alphabet="\t,:[]{}\"\\ 019e\u00e9\r#", max_size=6)


@st.composite
def mutated(draw, lines: list[str], borrowed: list[str]) -> list[str]:
    """The lines with one of them dropped, repeated, cut short, grown, with a
    field replaced, or (when ``borrowed`` has lines) replaced by one of those."""
    lines = list(lines)
    i = draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    op = draw(st.sampled_from(["drop", "repeat", "cut", "insert", "field"] + ["borrow"] * bool(borrowed)))
    if op == "borrow":
        lines[i] = draw(st.sampled_from(borrowed))
    elif op == "drop":
        del lines[i]
    elif op == "repeat":
        lines.insert(i, line)
    elif op == "cut":
        lines[i] = line[: draw(st.integers(0, len(line)))]
    elif op == "insert":
        at = draw(st.integers(0, len(line)))
        lines[i] = line[:at] + draw(ODD_TEXT) + line[at:]
    elif line.startswith("{"):
        blob = json.loads(line)
        blob[draw(st.sampled_from(sorted(blob)))] = draw(st.sampled_from(ODD_VALUES))
        lines[i] = json.dumps(blob)
    else:
        fields = line.split("\t")
        fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(ODD_FIELDS))
        lines[i] = "\t".join(fields)
    return lines


def fuzz_argv(command: str, inputs: dict[str, Path], out: Path) -> list:
    kg, aliases = inputs["kg"], inputs["aliases"]
    if command == "kg stats":
        return ["kg", "stats", "--kg", kg, "--json"]
    if command == "critique":
        return ["critique", "--in", inputs["records"], "--kg", kg, "--aliases", aliases,
                "--out", out / "labelled.jsonl"]
    if command == "corrupt":
        return ["corrupt", "--in", inputs["records"], "--kg", kg, "--types", inputs["types"],
                "--aliases", aliases, "--config", inputs["config"],
                "--out", out / "corrupt.jsonl", "--summary", out / "summary.json"]
    if command == "train":
        return ["train", "--kg", kg, "--dim", "4", "--epochs", "1", "--out", out / "emb.tsv"]
    if command.startswith("refine"):
        return ["refine", "--in", inputs["labelled"], "--kg", kg, "--emb", inputs["snapshot"],
                "--aliases", aliases, "--mode", command.split()[1], "--out", out / "refined.jsonl"]
    return ["eval", "--kg", kg, "--emb", inputs["snapshot"], "--heldout", inputs["heldout"],
            "--ranks-csv", out / "ranks.csv", "--out", out / "eval.json"]


# The input a run mutates -> the commands that read it.
FUZZ_CASES = {
    "records": ("critique", "corrupt"),
    "labelled": ("refine oracle", "refine inferred"),
    "snapshot": ("refine oracle", "eval"),
    "kg": ("kg stats", "critique", "train", "refine oracle", "eval"),
    "aliases": ("critique", "corrupt"),
    "types": ("corrupt",),
    "heldout": ("eval",),
    "config": ("corrupt",),
}
# The input a run mutates -> the input whose lines may replace one of its
# lines: a held-out line that repeats a graph triple fails validation.
BORROWED = {"heldout": "kg"}


class TestMalformedInput:
    """Any one mutated input line ends in exit 0, 1 or 2, never in an
    escaped exception, and a failed run leaves no output behind. Some
    mutations must fail validation (exit 1): a held-out triple the graph
    holds, or an out-of-range config value such as a frac of 7."""

    @pytest.fixture(scope="class")
    def inputs(self, data_dir, tmp_path_factory) -> dict[str, Path]:
        base = tmp_path_factory.mktemp("fuzz")
        inputs = {
            "records": data_dir / "toy_dialogues.jsonl",
            "kg": data_dir / "toy_kg.tsv",
            "aliases": data_dir / "toy_aliases.tsv",
            "types": data_dir / "toy_types.tsv",
            "labelled": critique(data_dir, base / "labelled.jsonl"),
            "snapshot": base / "emb.tsv",
            "heldout": base / "heldout.tsv",
            "config": base / "corrupt-config.json",
        }
        inputs["config"].write_text('{"frac": 0.5, "seed": 3}\n', encoding="utf-8")
        assert run(["train", "--kg", inputs["kg"], "--dim", "4", "--epochs", "2",
                    "--out", inputs["snapshot"]]) == 0
        inputs["heldout"].write_text(
            "roald_dahl\twrote\tthe_hobbit\njrr_tolkien\twrote\tthe_witches\n", encoding="utf-8"
        )
        return inputs

    def test_exit_code_and_no_partial_output(self, inputs):
        codes = []

        @settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @given(
            case=st.sampled_from([(name, c) for name, commands in FUZZ_CASES.items() for c in commands]),
            data=st.data(),
        )
        def fuzz(case, data):
            name, command = case
            lines = inputs[name].read_text(encoding="utf-8").splitlines()
            borrowed = inputs[BORROWED[name]].read_text(encoding="utf-8").splitlines() if name in BORROWED else []
            work = Path(tempfile.mkdtemp(dir=inputs["snapshot"].parent))
            source, out = work / f"in-{inputs[name].name}", work / "out"
            out.mkdir()
            source.write_text("".join(f"{line}\n" for line in data.draw(mutated(lines, borrowed))), encoding="utf-8")
            code = run(fuzz_argv(command, {**inputs, name: source}, out))
            assert code in (0, 1, 2)
            if code:
                assert list(out.iterdir()) == []
            codes.append(code)

        fuzz()
        assert 1 in codes, codes

    @pytest.mark.parametrize(
        "name, text",
        [("heldout", "roald_dahl\twrote\tthe_bfg\njrr_tolkien\twrote\tthe_witches\n"),
         ("config", '{"frac": 2, "seed": 3}\n')],
        ids=["heldout-in-graph", "frac-out-of-range"],
    )
    def test_validation_mutation_exits_1(self, inputs, name, text):
        """The two mutations the fuzz draws that must fail validation, each once."""
        work = Path(tempfile.mkdtemp(dir=inputs["snapshot"].parent))
        source, out = work / f"in-{inputs[name].name}", work / "out"
        out.mkdir()
        source.write_text(text, encoding="utf-8")
        assert run(fuzz_argv(FUZZ_CASES[name][0], {**inputs, name: source}, out)) == 1
        assert list(out.iterdir()) == []
