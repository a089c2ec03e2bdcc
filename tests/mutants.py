"""Mutation runner: each mutant is a one-text edit of the package that named tests must catch.

Usage (from the root of a checkout):

    python tests/mutants.py

Each entry names a file under src/, an exact old text, the new text that
replaces it, and the test ids that must each fail on the result. For
each entry the runner copies src/ to a temporary directory, replaces the
old text (which must occur exactly once) and runs each named test in a
fresh pytest process whose PYTHONPATH puts that copy first. First the
named tests of every entry run once on an unchanged copy, where they must
pass. The runner prints one line per mutant, and under a survivor the
tests that passed; it exits 1 when a test fails on the unchanged copy,
an old text is not found, or a named test passes on its mutant, and 0
when every mutant is killed by every test it names.

The file is not named test_*.py, so the tier-1 suite does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]


BALL_SCAN = "tests/test_properties.py::test_ball_matches_full_scan"
EDITED_TABLES = "tests/test_properties.py::test_corruption_after_table_edits_matches_fresh_tables"
GROUP_DRAWS = "tests/test_properties.py::test_group_draws_equal_per_batch_draws"
KEPT = "tests/test_kg.py::TestKeptBalls"
INFER_READS = "tests/test_retriever.py::TestInferRelation::test_reads_only_the_balls_out_edges"
POOL_LOOKUP = "tests/test_properties.py::test_pool_lookup_matches_brute_force"
POOL_SCAN = "tests/test_properties.py::test_replacement_pool_matches_scan"
EXTRINSIC = "tests/test_corruptor.py::TestCorruptExtrinsic"
DATASET = "tests/test_corruptor.py::TestBuildSyntheticDataset"
ALIASES = "tests/test_kg.py::TestAliasTable"
ALIAS_SCAN = "tests/test_properties.py::test_alias_lookups_match_pair_scans"
MASKED_ORACLE = "tests/test_properties.py::test_masked_ranks_match_bincount_oracle"

MUTANTS = (
    Mutant(
        "filtered cells masked with -inf, which ties a -inf gold",
        "kgfaith/embeddings.py",
        "scores[cells] = np.nan",
        "scores[cells] = -np.inf",
        (MASKED_ORACLE,),
    ),
    Mutant(
        "filtered cells not masked",
        "kgfaith/embeddings.py",
        "scores[cells] = np.nan",
        "scores[cells] = scores[cells]",
        ("tests/test_properties.py::test_filtered_ranks_match_per_candidate_scan", MASKED_ORACLE),
    ),
    Mutant(
        "a row's known set leaves out the held-out objects",
        "kgfaith/embeddings.py",
        "        known[pair] |= objects\n",
        "",
        (MASKED_ORACLE,),
    ),
    Mutant(
        "raw mode rejects held-out graph triples too",
        "kgfaith/embeddings.py",
        "if mode == \"filtered\" and overlap:",
        "if overlap:",
        ("tests/test_embeddings.py::TestLinkPrediction::test_raw_mode_ranks_an_overlapping_list",),
    ),
    Mutant(
        "a memo that ignores its key",
        "kgfaith/kg.py",
        "if slot is not None and slot[0] == key:",
        "if slot is not None:",
        (
            "tests/test_kg.py::TestMemo::test_slot_rebuilt_only_when_its_key_differs",
            "tests/test_properties.py::test_filter_rebuilt_when_its_key_changes",
        ),
    ),
    Mutant(
        "corruption's memo key holds the caller's type map, not a copy",
        "kgfaith/corruptor.py",
        "else dict(types)",
        "else types",
        (EDITED_TABLES,),
    ),
    Mutant(
        "corruption's memo key without the links-back set",
        "kgfaith/corruptor.py",
        "(aliases.links_back, kept_types),",
        "(kept_types,),",
        (EDITED_TABLES,),
    ),
    Mutant(
        "corruption's memo key copies a read-only type map",
        "kgfaith/corruptor.py",
        "kept_types = types if isinstance(types, MappingProxyType) else dict(types)",
        "kept_types = dict(types)",
        (f"{DATASET}::test_loaded_type_map_is_its_own_key",),
    ),
    Mutant(
        "kept pool positions one place off",
        "kgfaith/corruptor.py",
        "{i: p for p, i in enumerate(ids)}",
        "{i: p + 1 for p, i in enumerate(ids)}",
        (POOL_LOOKUP, POOL_SCAN),
    ),
    Mutant(
        "a pool that keeps its own mention",
        "kgfaith/corruptor.py",
        "        if own in position:\n            hits.add(own)\n",
        "",
        (POOL_LOOKUP, POOL_SCAN),
    ),
    Mutant(
        "a pool adds its mention to the record's shared exclusions",
        "kgfaith/corruptor.py",
        "        hits = position.keys() & excluded\n"
        "        if own in position:\n"
        "            hits.add(own)\n",
        "        excluded.add(own)\n"
        "        hits = position.keys() & excluded\n",
        (
            POOL_LOOKUP,
            f"{EXTRINSIC}::test_a_mention_stays_a_candidate_for_the_others",
        ),
    ),
    Mutant(
        "each mention scans the history again",
        "kgfaith/corruptor.py",
        "    excluded = excluded_ids(record.history, ball, graph, aliases)\n"
        "    edits: list[tuple[int, int, str]] = []\n"
        "    replacements: list[tuple[str, str]] = []\n"
        "    for m in mentions:\n",
        "    edits: list[tuple[int, int, str]] = []\n"
        "    replacements: list[tuple[str, str]] = []\n"
        "    for m in mentions:\n"
        "        excluded = excluded_ids(record.history, ball, graph, aliases)\n",
        (f"{EXTRINSIC}::test_history_scanned_once_per_record",),
    ),
    Mutant(
        "the critic's pair check resolves the ids it holds",
        "kgfaith/critic.py",
        "forward = [t for t in graph.out_edges(a) if t.o == b]",
        "forward = [t for t in graph.out_edges(graph.resolve_entity(a)) if t.o == b]",
        ("tests/test_critic.py::TestIntrinsicLabels::test_pair_check_resolves_no_id",),
    ),
    Mutant(
        "corrupt without --aliases links through an empty table",
        "kgfaith/cli.py",
        "else AliasTable.from_names(graph.entities.names)",
        "else AliasTable([])",
        ("tests/test_golden.py::test_cli_outputs_match_golden_digests[sparse]",),
    ),
    Mutant(
        "a failed command leaves its temp files",
        "kgfaith/cli.py",
        "tmp.unlink(missing_ok=True)",
        "pass",
        ("tests/test_cli.py::TestMalformedInput::test_exit_code_and_no_partial_output",),
    ),
    Mutant(
        "main() without its ValueError branch",
        "kgfaith/cli.py",
        "    except ValueError as err:\n"
        "        print(f\"error: {err}\", file=sys.stderr)\n"
        "        return 1\n",
        "",
        (
            "tests/test_cli.py::TestMalformedInput::test_exit_code_and_no_partial_output",
            "tests/test_cli.py::TestMalformedInput::test_validation_mutation_exits_1",
        ),
    ),
    Mutant(
        "main() does not check --refined",
        "kgfaith/cli.py",
        '"heldout", "refined")',
        '"heldout")',
        ("tests/test_cli.py::TestRunBoundary::test_missing_input_file[eval-refined]",),
    ),
    Mutant(
        "main() does not make --summary atomic",
        "kgfaith/cli.py",
        '_OUTPUT_FILES = ("out", "summary", "trace", "ranks_csv")',
        '_OUTPUT_FILES = ("out", "trace", "ranks_csv")',
        ("tests/test_cli.py::TestAtomicOutputs::test_two_outputs_naming_one_file[corrupt]",),
    ),
    Mutant(
        "main() does not make --ranks-csv atomic",
        "kgfaith/cli.py",
        '_OUTPUT_FILES = ("out", "summary", "trace", "ranks_csv")',
        '_OUTPUT_FILES = ("out", "summary", "trace")',
        ("tests/test_cli.py::TestAtomicOutputs::test_failed_eval_writes_nothing",),
    ),
    Mutant(
        "a group's uniform draws in another layout",
        "kgfaith/embeddings.py",
        "draws = rng.integers(0, n_entities - 1, size=(rows, n))",
        "draws = rng.integers(0, n_entities - 1, size=(n, rows)).T",
        (GROUP_DRAWS,),
    ),
    Mutant(
        "in-batch masks compare each row with another batch's golds",
        "kgfaith/embeddings.py",
        "golds.reshape(batches, -1)[:, :, None]",
        "golds.reshape(-1, batches).T[:, :, None]",
        (GROUP_DRAWS,),
    ),
    Mutant(
        "a group's SANS keys drawn in one call",
        "kgfaith/embeddings.py",
        "        for start in range(0, rows, batch):\n"
        "            rng.random(out=keys[start : start + batch])\n",
        "        rng.random(out=keys)\n"
        "        for start in range(0, rows, batch):\n",
        (GROUP_DRAWS,),
    ),
    Mutant(
        "Adam's bias-correction table shifted by one step",
        "kgfaith/embeddings.py",
        "t = np.arange(size)",
        "t = np.arange(1, size + 1)",
        ("tests/test_embeddings.py::TestAdamState::test_table_equals_power_past_growth",),
    ),
    Mutant(
        "Adam's bias-correction table never grown",
        "kgfaith/embeddings.py",
        "self._tabulate(2 * self.steps)",
        "self._tabulate(len(self.corr1))",
        ("tests/test_embeddings.py::TestAdamState::test_table_equals_power_past_growth",),
    ),
    Mutant(
        "MRR summed in sorted order",
        "kgfaith/metrics.py",
        "mrr = sum(map(truediv, repeat(1.0), ranks)) / n",
        "mrr = sum(map(truediv, repeat(1.0), ordered)) / n",
        ("tests/test_metrics.py::TestRankingMetrics::test_same_floats_as_generator_passes",),
    ),
    Mutant(
        "an epoch's short last batch dropped",
        "kgfaith/embeddings.py",
        "    if full < n:\n        groups.append((full, n))\n",
        "",
        ("tests/test_properties.py::test_train_in_groups_gives_per_batch_bytes",),
    ),
    Mutant(
        "a ball expands over out-edges only",
        "kgfaith/kg.py",
        "                found.update(t.s for t in self._in.get(v, ()))\n",
        "",
        (BALL_SCAN, "tests/test_properties.py::test_khop_matches_full_scan"),
    ),
    Mutant(
        "balls looked up without their radius",
        "kgfaith/kg.py",
        "kept = self._balls.get((ids, k))",
        "kept = self._balls.get((ids, 0))",
        (BALL_SCAN, f"{KEPT}::test_each_center_set_and_radius_keeps_its_own_ball"),
    ),
    Mutant(
        "a multi-center call reads the ball kept for one of its centers",
        "kgfaith/kg.py",
        "kept = self._balls.get((ids, k))",
        "kept = self._balls.get((frozenset(sorted(ids)[:1]), k))",
        (BALL_SCAN, f"{KEPT}::test_each_center_set_and_radius_keeps_its_own_ball"),
    ),
    Mutant(
        "a budget that never shrinks",
        "kgfaith/kg.py",
        "self._ball_room -= len(near)",
        "self._ball_room -= 0",
        (BALL_SCAN, f"{KEPT}::test_star_stays_within_budget"),
    ),
    Mutant(
        "a ball that does not fit ends all keeping",
        "kgfaith/kg.py",
        "            self._ball_room -= len(near)\n        return near\n",
        "            self._ball_room -= len(near)\n"
        "        else:\n"
        "            self._ball_room = 0\n"
        "        return near\n",
        (
            f"{KEPT}::test_star_stays_within_budget",
            f"{KEPT}::test_each_center_set_and_radius_keeps_its_own_ball",
        ),
    ),
    Mutant(
        "entities_in reads only a surface's first owner",
        "kgfaith/kg.py",
        "                        found.update(later.get(key, ()))\n",
        "",
        (f"{ALIASES}::test_entities_in_takes_raw_substrings_and_every_owner", ALIAS_SCAN),
    ),
    Mutant(
        "the constructor drops a shared key's later owners",
        "kgfaith/kg.py",
        "                self._later.setdefault(key, []).append(entity)\n",
        "",
        (f"{ALIASES}::test_entities_in_takes_raw_substrings_and_every_owner", ALIAS_SCAN),
    ),
    Mutant(
        "a later pair overwrites a surface's owner",
        "kgfaith/kg.py",
        "owner = self._entity_of.setdefault(key, entity)",
        "owner = self._entity_of[key] = entity",
        ("tests/test_properties.py::test_later_claim_on_a_surface_is_ignored",),
    ),
    Mutant(
        "links_back reads an entity's last surface",
        "kgfaith/kg.py",
        "if entity_of[canonical(forms[0])] == entity",
        "if entity_of[canonical(forms[-1])] == entity",
        ("tests/test_properties.py::test_links_back_matches_preferred_surface_scan",),
    ),
    Mutant(
        "infer_relation reads only the anchor's out-edges",
        "kgfaith/retriever.py",
        "{t.p for v in ball for t in graph.out_edges(v) if t.o in ball}",
        "{t.p for t in graph.out_edges(anchor) if t.o in ball}",
        ("tests/test_retriever.py::TestInferRelation::test_edge_between_frontier_nodes_counts",),
    ),
    Mutant(
        "objects() scans the triple list",
        "kgfaith/kg.py",
        "return {t.o for t in self._out.get(subject, ()) if t.p == relation}",
        "return {t.o for t in self.triples if t.s == subject and t.p == relation}",
        ("tests/test_embeddings.py::TestLinkPredictionCost",),
    ),
    Mutant(
        "infer_relation scans the triple list",
        "kgfaith/retriever.py",
        "{t.p for v in ball for t in graph.out_edges(v) if t.o in ball}",
        "{t.p for t in graph.triples if t.s in ball and t.o in ball}",
        (INFER_READS,),
    ),
    Mutant(
        "infer_relation reads in-edges",
        "kgfaith/retriever.py",
        "{t.p for v in ball for t in graph.out_edges(v) if t.o in ball}",
        "{t.p for v in ball for t in graph.in_edges(v) if t.s in ball}",
        (INFER_READS,),
    ),
    Mutant(
        "infer_relation keeps edges that leave the ball",
        "kgfaith/retriever.py",
        "{t.p for v in ball for t in graph.out_edges(v) if t.o in ball}",
        "{t.p for v in ball for t in graph.out_edges(v)}",
        (INFER_READS,),
    ),
)


def run_tests(src: Path, tests: tuple[str, ...]) -> bool:
    """Whether the tests pass with the package imported from ``src``."""
    # No bytecode: a mutant of the same size written within the same second
    # would otherwise load the unchanged module's cached bytecode, or back.
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(src), str(ROOT / "tests")]),
        PYTHONDONTWRITEBYTECODE="1",
    )
    origin = subprocess.run(
        [sys.executable, "-c", "import kgfaith; print(kgfaith.__file__)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(origin).is_relative_to(src):
        raise RuntimeError(f"kgfaith imported from {origin}, not from {src}")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return result.returncode == 0


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        every_test = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        if not run_tests(src, every_test):
            print("unchanged source: the named tests fail")
            return 1
        for m in MUTANTS:
            target = src / m.path
            original = target.read_text(encoding="utf-8")
            if original.count(m.old) != 1:
                print(f"NOT FOUND  {m.name}: old text occurs {original.count(m.old)} times")
                bad += 1
                continue
            target.write_text(original.replace(m.old, m.new), encoding="utf-8")
            try:
                passed = [test for test in m.tests if run_tests(src, (test,))]
            finally:
                target.write_text(original, encoding="utf-8")
            print(f"{'SURVIVED' if passed else 'killed':<10} {m.name}", *passed, sep="\n  ")
            bad += bool(passed)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
