#!/usr/bin/env python3
"""Validates telemetry output files (stdlib-only, no pip dependencies).

Usage:
    scripts/validate_trace.py [TRACE.json [METRICS.json]] [--audit AUDIT.jsonl]
                              [--profile PROFILE.folded]

TRACE.json may be omitted when the --audit or --profile validation is
requested on its own.

Checks that TRACE.json is a loadable Chrome trace-event file — a JSON object
with a `traceEvents` list whose entries carry the keys chrome://tracing and
Perfetto require (`ph`, `pid`, `tid`, plus `name`/`ts`/`dur` for complete
events, with `dur >= 0`) — and that spans nest properly per thread: within
one `(pid, tid)` track, two complete spans either nest or are disjoint;
partial overlap means the recorder emitted garbage. When given, METRICS.json
must be a metrics snapshot with `counters`/`gauges`/`histograms` keys and
internally consistent histograms (count/bucket agreement, p50 <= p95 <=
p99), and AUDIT.jsonl must be an engine flight-recorder stream: one JSON
object per line, every `unit` record carrying the schema fields with a
globally monotone unit ordinal (the append-order determinism contract), and
`weighted_r2` either a number or null (NaN serializes as null, never 0).
PROFILE.folded must be flamegraph-compatible folded-stack text: at least
one `frame;frame;... COUNT` line with non-empty semicolon-separated frames
and a positive integer count.

Exit code 0 when everything holds; 1 with a message on the first violation.
"""

import json
import sys


def fail(message: str) -> None:
    print(f"validate_trace: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_span_nesting(path: str, events) -> None:
    """Within a (pid, tid) track, complete spans must nest or be disjoint."""
    tracks = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        tracks.setdefault((event["pid"], event["tid"]), []).append(event)
    for (pid, tid), spans in tracks.items():
        # Sort by start time, longest first on ties, so a parent precedes
        # the children it encloses.
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for span in spans:
            begin, end = span["ts"], span["ts"] + span["dur"]
            while stack and begin >= stack[-1][1]:
                stack.pop()
            if stack and end > stack[-1][1]:
                fail(f"{path}: span '{span['name']}' [{begin}, {end}) on "
                     f"track ({pid}, {tid}) partially overlaps enclosing "
                     f"'{stack[-1][0]}' ending at {stack[-1][1]}")
            stack.append((span["name"], end))


def validate_trace(path: str) -> None:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not loadable JSON: {e}")

    if not isinstance(doc, dict):
        fail(f"{path}: top level must be an object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(f"{path}: missing 'traceEvents' list")

    complete = 0
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            fail(f"{path}: traceEvents[{i}] is not an object")
        for key in ("ph", "pid", "tid"):
            if key not in event:
                fail(f"{path}: traceEvents[{i}] missing '{key}'")
        if event["ph"] == "X":
            complete += 1
            for key in ("name", "ts", "dur"):
                if key not in event:
                    fail(f"{path}: complete event [{i}] missing '{key}'")
            if not isinstance(event["name"], str) or not event["name"]:
                fail(f"{path}: complete event [{i}] has an empty name")
            if event["dur"] < 0:
                fail(f"{path}: traceEvents[{i}] has negative dur")
            if event["ts"] < 0:
                fail(f"{path}: traceEvents[{i}] has negative ts")
    check_span_nesting(path, events)
    print(f"validate_trace: {path}: ok "
          f"({len(events)} events, {complete} complete spans)")


def validate_metrics(path: str) -> None:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not loadable JSON: {e}")

    for key in ("counters", "gauges", "histograms"):
        if key not in doc:
            fail(f"{path}: missing '{key}'")
    if not isinstance(doc["counters"], dict):
        fail(f"{path}: 'counters' must be an object")
    for name, value in doc["counters"].items():
        if not isinstance(value, int) or value < 0:
            fail(f"{path}: counter '{name}' must be a non-negative integer")

    histograms = doc["histograms"]
    if not isinstance(histograms, dict):
        fail(f"{path}: 'histograms' must be an object")
    for name, h in histograms.items():
        for key in ("count", "sum", "min", "max", "p50", "p95", "p99",
                    "buckets"):
            if key not in h:
                fail(f"{path}: histogram '{name}' missing '{key}'")
        if h["count"] < 0:
            fail(f"{path}: histogram '{name}' has negative count")
        if h["count"] > 0:
            if not h["min"] <= h["p50"] <= h["p95"] <= h["p99"] <= h["max"]:
                fail(f"{path}: histogram '{name}' percentiles out of order: "
                     f"min={h['min']} p50={h['p50']} p95={h['p95']} "
                     f"p99={h['p99']} max={h['max']}")
            bucket_total = sum(b["count"] for b in h["buckets"])
            if bucket_total != h["count"]:
                fail(f"{path}: histogram '{name}' bucket counts sum to "
                     f"{bucket_total}, expected count={h['count']}")
    print(f"validate_trace: {path}: ok "
          f"({len(doc['counters'])} counters, {len(histograms)} histograms)")


# Fields every successful audit unit record must carry (failed units carry
# `error` instead of the quality block). Mirrors AuditSink::UnitToJson.
AUDIT_UNIT_FIELDS = (
    "record_id", "record_index", "explainer", "landmark_side",
    "model_prediction", "weighted_r2", "intercept", "match_fraction",
    "top_weight_share", "interesting_tokens", "low_r2",
    "degenerate_neighborhood", "num_masks", "num_model_queries",
    "cache_hits", "top_tokens",
)

AUDIT_BATCH_FIELDS = (
    "num_records", "num_failed_records", "num_units", "num_masks",
    "num_model_queries", "cache_hits", "plan_seconds",
    "reconstruct_seconds", "query_seconds", "fit_seconds", "num_stalls",
)


def validate_audit(path: str) -> None:
    units = 0
    batches = 0
    expected_ordinal = 0
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as e:
        fail(f"{path}: unreadable: {e}")
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{path}:{lineno}: not valid JSON: {e}")
        if not isinstance(record, dict) or "type" not in record:
            fail(f"{path}:{lineno}: every line must be an object with 'type'")
        if record["type"] == "unit":
            units += 1
            if record.get("unit") != expected_ordinal:
                fail(f"{path}:{lineno}: unit ordinal {record.get('unit')} "
                     f"breaks the monotone append order "
                     f"(expected {expected_ordinal})")
            expected_ordinal += 1
            if "error" in record:
                continue
            for key in AUDIT_UNIT_FIELDS:
                if key not in record:
                    fail(f"{path}:{lineno}: unit record missing '{key}'")
            r2 = record["weighted_r2"]
            if r2 is not None and not isinstance(r2, (int, float)):
                fail(f"{path}:{lineno}: weighted_r2 must be a number or "
                     f"null, got {r2!r}")
            if not isinstance(record["top_tokens"], list):
                fail(f"{path}:{lineno}: top_tokens must be a list")
            if not 0.0 <= record["match_fraction"] <= 1.0:
                fail(f"{path}:{lineno}: match_fraction out of [0, 1]")
        elif record["type"] == "batch":
            batches += 1
            for key in AUDIT_BATCH_FIELDS:
                if key not in record:
                    fail(f"{path}:{lineno}: batch record missing '{key}'")
        else:
            fail(f"{path}:{lineno}: unknown record type {record['type']!r}")
    if units == 0:
        fail(f"{path}: no unit records (the run explained nothing?)")
    print(f"validate_trace: {path}: ok "
          f"({units} unit records, {batches} batch records)")


def validate_profile(path: str) -> None:
    """Folded-stack profile: `frame;frame;... COUNT` lines, nothing else."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as e:
        fail(f"{path}: unreadable: {e}")
    stacks = 0
    total_samples = 0
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        stack, sep, count_text = line.rpartition(" ")
        if not sep or not stack:
            fail(f"{path}:{lineno}: expected 'frames COUNT', got {line!r}")
        if not count_text.isdigit() or int(count_text) <= 0:
            fail(f"{path}:{lineno}: count must be a positive integer, "
                 f"got {count_text!r}")
        for frame in stack.split(";"):
            if not frame:
                fail(f"{path}:{lineno}: empty frame in stack {stack!r}")
        stacks += 1
        total_samples += int(count_text)
    if stacks == 0:
        fail(f"{path}: no folded stacks (the profiler sampled nothing?)")
    print(f"validate_trace: {path}: ok "
          f"({stacks} folded stacks, {total_samples} samples)")


def main(argv) -> int:
    args = list(argv[1:])
    audit_path = None
    profile_path = None
    if "--audit" in args:
        at = args.index("--audit")
        if at + 1 >= len(args):
            print(__doc__, file=sys.stderr)
            return 2
        audit_path = args[at + 1]
        del args[at:at + 2]
    if "--profile" in args:
        at = args.index("--profile")
        if at + 1 >= len(args):
            print(__doc__, file=sys.stderr)
            return 2
        profile_path = args[at + 1]
        del args[at:at + 2]
    flags_only = audit_path is not None or profile_path is not None
    if len(args) > 2 or (len(args) < 1 and not flags_only):
        print(__doc__, file=sys.stderr)
        return 2
    if args:
        validate_trace(args[0])
    if len(args) == 2:
        validate_metrics(args[1])
    if audit_path is not None:
        validate_audit(audit_path)
    if profile_path is not None:
        validate_profile(profile_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
