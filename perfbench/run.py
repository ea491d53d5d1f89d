#!/usr/bin/env python3
"""The repository's benchmark: builds perfbench, runs one workload, checks
its outputs and prints every metric of BENCHMARK.json with its unit.

    python3 perfbench/run.py --workload paper-table2 --seed 0 --seconds 30 --trace 0

Run it from the repository root. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. The lines before it are
the same numbers for people, with the run manifest and every check. The exit
code is 0 only when every check passed. README.md defines each metric.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
GOLDEN_FILE = HERE / "golden.json"
EXPERIMENTS_FILE = ROOT / "EXPERIMENTS.md"
BUILD_TIMEOUT_S = 840
# The harness may overrun --seconds by up to half a pass and makes at least
# three passes when traced; the floor covers the longest pass at the default
# run length.
RUN_TIMEOUT_FLOOR_S = 170
# Seed 0 is the paper run itself; the golden checks apply there.
DEFAULT_SEED = 0
# Outer layers must cover the pass wall to within this share (ROADMAP).
ATTRIBUTION_TOLERANCE = 0.05
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
# Workload and metric names and units; README.md defines each metric.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and run.

def run_child(command, timeout, stdout):
    """Runs `command` in its own process group and waits for it; on timeout or
    interruption the whole group (compilers under the build too) is killed
    and reaped before the error propagates."""
    with subprocess.Popen(command, stdout=stdout, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"{Path(command[0]).name} exited with code "
                           f"{proc.returncode}")
    return out


def build():
    """Configures (once) and builds the perfbench target; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"repository sources not found under {ROOT}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        BUILD_DIR.mkdir(parents=True, exist_ok=True)
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_child(configure, BUILD_TIMEOUT_S, sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_child(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
               "-j", jobs], BUILD_TIMEOUT_S, sys.stderr)
    return BUILD_DIR / "perfbench"


def run_workload(binary, args, spans_path):
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if spans_path is not None:
        command += ["--spans-out", str(spans_path)]
    timeout = max(RUN_TIMEOUT_FLOOR_S, 3 * args.seconds + 80)
    stdout = run_child(command, timeout, subprocess.PIPE)
    return json.loads(stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Golden checks.

def experiments_table2_rows(text):
    """Row lines of the verbatim Table 2 block, keyed ("a"|"b", code)."""
    rows = {}
    section = text.split("### Table 2", 1)
    if len(section) < 2:
        return rows
    block = section[1].split("```")[1]
    part = None
    for line in block.splitlines():
        if line.startswith("Table 2(a)"):
            part = "a"
        elif line.startswith("Table 2(b)"):
            part = "b"
        elif part and line.startswith("| ") and not line.startswith("|  "):
            rows[(part, line.split("|")[1].strip())] = line
    return rows


def check_table2_rows(produced, experiments_text):
    """Failures of the byte comparison of produced "a|<row>" lines with
    EXPERIMENTS.md; empty when every row matches."""
    expected = experiments_table2_rows(experiments_text)
    failures = []
    if not produced:
        failures.append("table2: no rows produced")
    for tagged in produced:
        part, line = tagged.split("|", 1)
        code = line.split("|")[1].strip()
        want = expected.get((part, code))
        if want != line:
            failures.append(f"table2({part}) {code}: got {line!r}, "
                            f"EXPERIMENTS.md has {want!r}")
    return failures


def check_digest(workload, digest, golden):
    want = golden.get(workload)
    if want != digest:
        return [f"golden digest {workload}: got {digest}, expected {want}"]
    return []


# ---------------------------------------------------------------------------
# Metrics.

def median(values):
    return statistics.median(values) if values else float("nan")


def ratio(num, den):
    return num / den if den else 0.0


def tail(latencies, floor_count):
    """The highest ladder percentile with at least ten samples beyond it in
    `floor_count` samples, the count of the two passes every run makes (so
    every run of a workload reports the same percentile), taken over all
    samples by nearest rank."""
    for p in TAIL_LADDER:
        if floor_count - math.ceil(p / 100 * floor_count) >= 10:
            ordered = sorted(latencies)
            rank = math.ceil(p / 100 * len(ordered))
            return p, ordered[rank - 1], len(ordered) - rank
    return None, float("nan"), 0


def end_to_end(result, untraced):
    lat = result["latencies_ms"]
    p, tail_value, beyond = tail(lat, 2 * len(lat) // max(1, len(untraced)))
    notes = {"record_tail_ms": f"p{p:g} of n={len(lat)}, {beyond} beyond",
             "record_p50_ms": f"p50 of n={len(lat)}"}
    values = {
        "wall_s": median([x["wall_s"] for x in untraced]),
        "setup_s": median([x["datagen_s"] + x["train_s"] for x in untraced]),
        "explain_records_per_s": median(
            [ratio(x["records_explained"], x["engine_s"]) for x in untraced]),
        "cpu_ms_per_record": median(
            [1e3 * ratio(x["engine_process_cpu_s"], x["records_explained"])
             for x in untraced]),
        "record_p50_ms": statistics.median(lat) if lat else float("nan"),
        "record_tail_ms": tail_value,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return values, notes


def per_layer(result, untraced, traced):
    threads = result["manifest"]["engine_threads"]

    def layer(fn):
        return median([fn(x) for x in traced])

    def stage_cpu(x):
        return (x["plan_cpu_s"] + x["reconstruct_cpu_s"] + x["query_cpu_s"]
                + x["fit_cpu_s"])

    def unprobed_wall(x):
        # Traced passes of interactive-small also run stats probes, which
        # are extra work rather than tracing cost.
        return x["wall_s"] - x["stats_probe_s"]

    values = {
        "datagen.wall_s": layer(lambda x: x["self_s"].get("datagen", 0.0)),
        "datagen.pairs": layer(lambda x: x["datagen_pairs"]),
        "em.train_wall_s": layer(lambda x: x["self_s"].get("em.train", 0.0)),
        "em.train_pairs": layer(lambda x: x["train_pairs"]),
        "engine.wall_s": layer(lambda x: x["self_s"].get("engine", 0.0)),
        "engine.batches": layer(lambda x: x["batches"]),
        "engine.units": layer(lambda x: x["units"]),
        "engine.plan_cpu_s": layer(lambda x: x["plan_cpu_s"]),
        "engine.reconstruct_cpu_s": layer(lambda x: x["reconstruct_cpu_s"]),
        "engine.query_cpu_s": layer(lambda x: x["query_cpu_s"]),
        "engine.fit_cpu_s": layer(lambda x: x["fit_cpu_s"]),
        "engine.masks": layer(lambda x: x["masks"]),
        "engine.model_queries": layer(lambda x: x["model_queries"]),
        "engine.memo_hit_ratio": layer(lambda x: ratio(x["cache_hits"], x["masks"])),
        "text.token_cache_misses": layer(lambda x: x["token_cache_misses"]),
        "text.token_cache_hit_ratio": layer(lambda x: ratio(
            x["token_cache_hits"], x["token_cache_hits"] + x["token_cache_misses"])),
        "engine.critical_path_s": layer(lambda x: x["critical_path_s"]),
        # Over the ExplainBatch calls, whose EngineStats give the stage CPU.
        "engine.parallel_efficiency": layer(
            lambda x: ratio(stage_cpu(x), x["stats_wall_s"] * threads)),
        "engine.failed_records": layer(lambda x: x["failed_records"]),
        "eval.wall_s": layer(lambda x: x["self_s"].get("eval", 0.0)),
        "eval.model_calls": layer(lambda x: x["eval_model_calls"]),
        "bench.unattributed_s": layer(lambda x: x["self_s"].get("bench.pass", 0.0)),
        # The first pass is untraced and cold; it is left out.
        "bench.trace_overhead_s": (median([unprobed_wall(x) for x in traced])
                                   - median([x["wall_s"] for x in untraced[1:]])),
    }
    return values


# ---------------------------------------------------------------------------
# Report.

def source_identity():
    """git sha when the tree is a git checkout, and a digest of the sources
    either way (benchmark checkouts need not be git repositories)."""
    sha = "unavailable"
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if done.returncode == 0:
            sha = done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")) + [ROOT / "CMakeLists.txt"]:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return sha, digest.hexdigest()[:16]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
        spans_path = None
        if args.trace:
            spans_path = (BUILD_DIR / "spans"
                          / f"{args.workload}-seed{args.seed}.jsonl")
            spans_path.parent.mkdir(parents=True, exist_ok=True)
        result = run_workload(binary, args, spans_path)
    except (RuntimeError, OSError, ValueError, IndexError,
            subprocess.SubprocessError) as error:
        log(f"perfbench: {error}")
        return 2

    passes = result["passes"]
    untraced = [x for x in passes if not x["traced"]]
    traced = [x for x in passes if x["traced"]]
    failures = list(result["failures"])
    if result["check_failures"] > len(failures):
        failures.append(f"... {result['check_failures'] - len(failures)} more")
    if args.seed == DEFAULT_SEED:
        golden = json.loads(GOLDEN_FILE.read_text())
        failures += check_digest(args.workload, passes[0]["digest"], golden)
        if args.workload == "paper-table2":
            failures += check_table2_rows(result["table2_rows"],
                                          EXPERIMENTS_FILE.read_text())

    attempted = sum(x["records_attempted"] for x in passes)
    failed = sum(x["failed_records"] + x["eval_errors"] for x in passes)
    sha, source_digest = source_identity()
    manifest = dict(result["manifest"], git_sha=sha, source_digest=source_digest,
                    workload=args.workload, seed=args.seed, seconds=args.seconds,
                    trace=args.trace, passes=len(passes))
    print("manifest " + json.dumps(manifest, sort_keys=True))
    print(f"checks   {'all passed' if not failures else 'FAILED'}"
          f" (attempted={attempted} failed={failed}"
          f" failed_frac={ratio(failed, attempted):.6g})")
    for failure in failures:
        print(f"  FAIL {failure}")

    if args.trace:
        values, notes = per_layer(result, untraced, traced), {}
        section = "per_layer"
        walls = median([x["wall_s"] for x in traced])
        share = ratio(values["bench.unattributed_s"], walls)
        print(f"attribution: layers cover {100 * (1 - share):.2f}% of traced wall"
              + ("" if abs(share) <= ATTRIBUTION_TOLERANCE else
                 f"  FLAG: unattributed {100 * share:.2f}% > "
                 f"{100 * ATTRIBUTION_TOLERANCE:.0f}%"))
        print(f"spans: {spans_path.relative_to(ROOT)}")
    else:
        values, notes = end_to_end(result, untraced)
        section = "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in BENCHMARK[section]}
    for name, metric in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:28s} {metric['value']:14.6g} {metric['unit']}{note}")

    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    # A terminated benchmark still reaps its children (see run_child).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
