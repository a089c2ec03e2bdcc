"""kgfaith benchmark: one seeded workload per call, metrics on the last line.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {train-block,corpus-6k,cli-chain-600} \
        --seed N --seconds S --trace {0,1}

Inputs are generated from --seed with the generators in
tests/synthetic.py and written under bench/.work/; the package under
src/ only ever sees those files. Every process runs alone, one after
another, with BLAS/OpenMP pinned to one thread.

The machines this runs on are shared and change speed by up to 1.7
times within a minute, so timings are rescaled to a reference host
speed (see hostspeed.py); the raw figures are printed beside them.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1
also runs the workload with the tracer wrapped around every layer's
public functions and reports the per-layer metrics, the tracing
overhead, and the traced wall time not covered by any layer.

Outputs are checked on every repeat; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}. A failed check
prints that line with "correct": false and exits 1. Details (per-repeat
figures, checks, environment) go to bench/results/, spans of a traced
run to a gzipped JSON-lines file beside them.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

from child import PINNED_ENV, child_env, now, run_child

os.environ.update(PINNED_ENV)  # before numpy is imported below

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train-block", "corpus-6k", "cli-chain-600")
# The set-up metric is the median of this many set-ups per run.
SETUPS = 5
WORKER_TIMEOUT_S = 170.0

# Units of the metrics each workload prints; the JSON line carries the
# subset named in BENCHMARK.json. Timings of the repeats are rescaled to
# the reference host speed (see hostspeed.py): times are multiplied by a
# repeat's host-speed factor, rates divided by it. Raw figures are
# printed beside.
TIMES = ("setup_s", "wall_s", "critique_ms_p50", "critique_ms_p95")
UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio",
    "train_pos_per_s": "1/s", "corrupt_rec_per_s": "1/s", "critique_rec_per_s": "1/s",
    "critique_ms_p50": "ms", "critique_ms_p95": "ms", "refine_rec_per_s": "1/s",
    "linkpred_triples_per_s": "1/s",
}


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def environment() -> dict:
    import numpy

    def git(*args: str) -> str:
        try:
            out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        except OSError:
            return ""
        return out.stdout.strip() if out.returncode == 0 else ""

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kgfaith").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": git("rev-parse", "HEAD") or "unknown (not a git checkout)",
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


# --- workloads ---------------------------------------------------------------


def run_worker(workload: str, files: dict, seed: int, seconds: float, workdir: Path,
               trace: bool, setup_only: bool, tag: str) -> dict:
    spec_path = workdir / f"spec-{tag}.json"
    result_path = workdir / f"result-{tag}.json"
    spec_path.write_text(json.dumps({
        "workload": workload, "files": files, "seed": seed, "seconds": seconds,
        "trace": trace, "setup_only": setup_only, "result": str(result_path),
    }))
    argv = [sys.executable, str(ROOT / "bench" / "worker.py"), str(spec_path), repr(now())]
    child = run_child(argv, child_env(ROOT), workdir / f"{tag}.log", WORKER_TIMEOUT_S)
    if child.code != 0:
        raise RuntimeError(f"worker {tag} exited {child.code}:\n{child.log[-3000:]}")
    result = json.loads(result_path.read_text())
    if not Path(result["package"]).is_relative_to(ROOT / "src"):
        raise RuntimeError(f"worker {tag} imported kgfaith from {result['package']}")
    return result


def in_process(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    import inputs

    if workload == "train-block":
        files = inputs.block_inputs(workdir, seed)
    else:
        files, _ = inputs.corpus_inputs(workdir, seed, inputs.CORPUS_6K, inputs.CORPUS_RECORDS)
    setups = []
    if not trace:
        for i in range(SETUPS):
            setups.append(run_worker(workload, files, seed, 0.0, workdir, False, True, f"setup{i}")["setup_s"])
    main = run_worker(workload, files, seed, seconds, workdir, False, False, "main")
    out = {"setups": setups, "repeats": main["repeats"], "maxrss_kb": main["maxrss_kb"]}
    if trace:
        traced = run_worker(workload, files, seed, seconds, workdir, True, False, "traced")
        out["traced_repeats"] = traced["repeats"]
        out["spans"] = [traced["spans"]]
        out["startup_s"] = 0.0
    return out


def cli_chain(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    import inputs
    from chain import Chain

    files, originals = inputs.corpus_inputs(workdir, seed, inputs.CORPUS_600, None)
    chain = Chain(files, originals, workdir, seed, child_env(ROOT), ROOT)
    setups = []
    maxrss = 0
    if not trace:
        for _ in range(SETUPS):
            probe = chain.setup_probe()
            if probe.code != 0:
                raise RuntimeError(f"kg stats exited {probe.code}:\n{probe.log[-3000:]}")
            setups.append(probe.wall_s)
            maxrss = max(maxrss, probe.maxrss_kb)

    def repeats(traced: bool) -> list[dict]:
        done: list[dict] = []
        begin = now()
        while not done or now() - begin < seconds:
            done.append(chain.repeat(len(done), traced))
            if done[-1]["checks"].get("commands_exit_0") is False:
                break
        return done

    out = {"setups": setups, "repeats": repeats(False)}
    out["maxrss_kb"] = max([maxrss] + [r["maxrss_kb"] for r in out["repeats"]])
    if trace:
        traced = repeats(True)
        out["traced_repeats"] = traced
        out["spans"] = [spans for r in traced for spans in r.get("spans", [])]
        # Process time outside cli.main: interpreter start and imports.
        startup = []
        for r in traced:
            mains = [s for spans in r.get("spans", []) for s in spans if s["name"] == "kgfaith.cli.main"]
            startup.append(sum(r["process_s"].values()) - sum(s["end"] - s["start"] for s in mains))
        out["startup_s"] = median(startup)
    return out


# --- results -----------------------------------------------------------------


def summarize(run: dict) -> tuple[dict, dict, dict, dict]:
    """Rescaled and raw metrics, the checks, and the operation counts."""
    repeats = run["repeats"] + run.get("traced_repeats", [])
    checks: dict[str, bool] = {}
    for r in repeats:
        for name, ok in r["checks"].items():
            checks[name] = checks.get(name, True) and ok
    digests = {json.dumps(r["hashes"], sort_keys=True) for r in repeats}
    checks["outputs_identical_across_repeats"] = len(digests) == 1 and bool(repeats[0]["hashes"])
    failed_checks = sum(1 for ok in checks.values() if not ok)
    attempted = sum(r["attempted"] for r in repeats) + len(checks)
    failed = sum(r["failed"] for r in repeats) + failed_checks

    # A set-up is too short to carry its own host-speed samples; set-ups
    # are rescaled by the run's median factor.
    speed = median(r["speed"] for r in run["repeats"])
    samples = {"setup_s": [(v, speed) for v in run["setups"]]}
    for r in run["repeats"]:
        for name, value in r["figures"].items():
            samples.setdefault(name, []).append((value, r["speed"]))
    metrics: dict[str, float] = {}
    raw: dict[str, float] = {}
    for name in UNITS:
        if samples.get(name):
            metrics[name] = median(rescale(name, v, f) for v, f in samples[name])
            raw[name] = median(v for v, _ in samples[name])
    metrics["peak_rss_mb"] = raw["peak_rss_mb"] = run["maxrss_kb"] / 1024.0
    metrics["error_rate"] = raw["error_rate"] = failed / attempted
    return metrics, raw, checks, {"attempted": attempted, "failed": failed}


def rescale(name: str, value: float, factor: float) -> float:
    if name in TIMES:
        return value * factor
    return value / factor if name.endswith("_per_s") else value


def layer_report(run: dict, untraced_wall: float) -> tuple[dict, int]:
    import layers
    from tracer import Span

    per_layer, n = layers.layer_metrics([[Span(**s) for s in spans] for spans in run["spans"]])
    traced_wall = median(r["figures"]["wall_s"] for r in run["traced_repeats"])
    attributed = sum(per_layer[f"{layer}.self_s"] for layer in layers.LAYERS)
    per_layer["cli.startup_s"] = run["startup_s"]
    per_layer["trace.wall_s"] = traced_wall
    # Both walls rescaled to the reference host speed, so that a change
    # of host speed between the two phases does not read as overhead.
    per_layer["trace.overhead_s"] = (
        median(r["figures"]["wall_s"] * r["speed"] for r in run["traced_repeats"]) - untraced_wall
    )
    per_layer["trace.unattributed_s"] = traced_wall - attributed - run["startup_s"]
    return per_layer, n


def benchmark_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and of the per-layer metrics named in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    for needed in (ROOT / "src" / "kgfaith" / "__init__.py", ROOT / "tests" / "synthetic.py"):
        if not needed.is_file():
            return fail(f"not a kgfaith checkout: {needed.relative_to(ROOT)} is missing")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    # One CPU for this process and every child it starts: the host-speed
    # samples taken here then see the same CPU as the measured work.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    trace = bool(args.trace)
    end_to_end, layer_units = benchmark_metrics()

    work_root = ROOT / "bench" / ".work"
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.workload == "cli-chain-600":
            run = cli_chain(args.seed, args.seconds, trace, workdir)
        else:
            run = in_process(args.workload, args.seed, args.seconds, trace, workdir)
    except RuntimeError as err:
        return fail(str(err))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()

    metrics, raw, checks, ops = summarize(run)
    env = environment()
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload} seed {args.seed}: {len(run['repeats'])} repeats, "
          f"{len(run['setups'])} set-ups")
    print(f"  {'metric':<24} {'value':>14} {'unit':<6} {'raw':>14}")
    for name, value in metrics.items():
        print(f"  {name:<24} {value:>14.6g} {UNITS[name]:<6} {raw[name]:>14.6g}")
    per_layer = {}
    if trace:
        per_layer, n = layer_report(run, metrics["wall_s"])
        print(f"traced: {n} repeats")
        for name, value in per_layer.items():
            print(f"  {name:<38} {value:>14.6g} {layer_units[name]}")
    for name, ok in checks.items():
        print(f"check {name}: {'pass' if ok else 'FAIL'}")
    for r in run["repeats"] + run.get("traced_repeats", []):
        if "log" in r:
            print(f"bench: command failed: {r['log']}", file=sys.stderr)
    correct = all(checks.values())

    results = ROOT / "bench" / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps({
        "env": env, "args": vars(args), "metrics": metrics, "raw": raw, "per_layer": per_layer,
        "checks": checks, **ops, "setups": run["setups"],
        "repeats": [{k: v for k, v in r.items() if k != "spans"} for r in run["repeats"]],
    }, indent=1))
    if trace:
        with gzip.open(results / f"{stem}-spans.jsonl.gz", "wt") as fh:
            for spans in run["spans"]:
                for span in spans:
                    fh.write(json.dumps(span) + "\n")

    units = layer_units if trace else end_to_end
    chosen = per_layer if trace else metrics
    print(json.dumps({
        "correct": correct,
        "attempted": ops["attempted"],
        "failed": ops["failed"],
        "metrics": {
            name: {"value": chosen[name], "unit": unit}
            for name, unit in units.items() if name in chosen
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
