#!/usr/bin/env python3
"""Telemetry-shape gate: validate a radiocast-telemetry-v1 JSONL document.

`radiocast run` (telemetry enabled) and `radiocast trace` promise a stable
per-packet telemetry layout (docs/observability.md). The document's FNV
digest in the manifest pins the *values* — this script pins the *shape*,
which a digest cannot: renaming a key changes every digest equally.

Checks, line by line:

  * every line is a JSON object with a known "type";
  * the first line is the header (format "radiocast-telemetry-v1") and the
    last line is the summary — nothing before or after them;
  * each line type carries exactly its required keys with the right JSON
    types (see SCHEMAS below); "cell" lines come in two shapes — the
    closed-run grid cell (algo/placement/k/loss/cd) and the stream-mode
    cell (rate/buffer/policy), picked by which keys are present;
  * cross-line invariants: the summary packet count reconciles against
    the cells (sum of k for closed cells, delivered latency counts for
    stream cells), "latency"/"packet"/"queue"/"queue_round" lines only
    appear after a "cell" line, ledger rows never report more busy slots
    than awake nodes, queue counters never admit more than was offered,
    and flight lines only appear when the header enabled them.

Usage:
    check_telemetry_schema.py out/ci_smoke.telemetry.jsonl

Exit codes: 0 ok, 1 shape violation, 2 usage or malformed input.
"""

from __future__ import annotations

import json
import pathlib
import sys

FORMAT = "radiocast-telemetry-v1"

NUMBER = (int, float)
LATENCY_STATS = {
    "count": NUMBER,
    "mean": NUMBER,
    "p50": NUMBER,
    "p90": NUMBER,
    "p99": NUMBER,
    "min": NUMBER,
    "max": NUMBER,
}
LEDGER_COUNTS = {
    "awake": NUMBER,
    "transmissions": NUMBER,
    "deliveries": NUMBER,
    "collisions": NUMBER,
    "deaf": NUMBER,
    "faults": NUMBER,
    "silent": NUMBER,
}

# type -> {key: allowed python type(s)}; every key is required and no
# other key is allowed, so both drift directions are caught.
SCHEMAS = {
    "header": {
        "type": str,
        "format": str,
        "scenario": str,
        "spec_digest": str,
        "trials": NUMBER,
        "flight_paths": bool,
    },
    "cell": {
        "type": str,
        "algo": str,
        "placement": str,
        "k": NUMBER,
        "loss": NUMBER,
        "cd": bool,
    },
    # Stream-mode (open system) grid cell; distinguished from the closed
    # cell by its "rate" key.
    "cell_stream": {
        "type": str,
        "rate": NUMBER,
        "buffer": NUMBER,
        "policy": str,
    },
    # Whole-cell source-buffer totals (stream mode; exact past any cap).
    "queue": {
        "type": str,
        "offered": NUMBER,
        "admitted": NUMBER,
        "dropped": NUMBER,
        "backpressured": NUMBER,
        "peak_depth": NUMBER,
        "saturated_trials": NUMBER,
    },
    # Trial-0 backlog timeline, one row per epoch boundary (stream mode).
    # Counter columns are cumulative run totals as of the sampled round.
    "queue_round": {
        "type": str,
        "round": NUMBER,
        "buffered": NUMBER,
        "held_back": NUMBER,
        "in_flight": NUMBER,
        "offered": NUMBER,
        "admitted": NUMBER,
        "dropped": NUMBER,
        "backpressured": NUMBER,
        "delivered": NUMBER,
    },
    "latency": {"type": str, "buckets": list, **LATENCY_STATS},
    "packet": {
        "type": str,
        "index": NUMBER,
        "undelivered": NUMBER,
        "max_depth": NUMBER,
        **LATENCY_STATS,
    },
    "ledger": {"type": str, "stage": str, "epoch": str, "rounds": NUMBER,
               **LEDGER_COUNTS},
    "ledger_round": {"type": str, "round": NUMBER, "stage": str, "epoch": str,
                     **LEDGER_COUNTS},
    "flight": {
        "type": str,
        "packet": NUMBER,
        "node": NUMBER,
        "from": NUMBER,
        "latency": NUMBER,
        "depth": NUMBER,
        "via": str,
    },
    "summary": {
        "type": str,
        "packets": NUMBER,
        "dropped_flight_events": NUMBER,
        "dropped_ledger_rows": NUMBER,
    },
}

VIA_NAMES = {"origin", "data", "plain", "decode"}


def check_line(lineno: int, obj: dict, problems: list[str]) -> str | None:
    """Validates one parsed line against SCHEMAS; returns its type."""
    t = obj.get("type")
    if t == "cell" and "rate" in obj:
        t = "cell_stream"  # the stream-mode cell shape (same "type" tag)
    if t not in SCHEMAS:
        problems.append(f"line {lineno}: unknown type {t!r}")
        return None
    schema = SCHEMAS[t]
    for key, want in schema.items():
        if key not in obj:
            problems.append(f"line {lineno} ({t}): missing key {key!r}")
            continue
        ok = isinstance(obj[key], want)
        # bool is an int subclass in Python — a bool where a number is
        # expected is still a writer bug.
        if ok and want is not bool and isinstance(obj[key], bool):
            ok = False
        if not ok:
            problems.append(
                f"line {lineno} ({t}): {key!r} has type "
                f"{type(obj[key]).__name__}, expected {want}"
            )
    for key in sorted(obj.keys() - schema.keys()):
        problems.append(f"line {lineno} ({t}): unexpected key {key!r}")
    return t


def main() -> int:
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    path = pathlib.Path(sys.argv[1])
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        return 2
    lines = [ln for ln in lines if ln.strip()]
    if not lines:
        print(f"error: {path} is empty", file=sys.stderr)
        return 2

    problems: list[str] = []
    header = None
    expected_packets = 0         # closed cells: sum of k (has packet lines)
    expected_stream_packets = 0  # stream cells: delivered latency counts
    packet_lines = 0
    seen_cell = False
    in_stream_cell = False
    stream_latency_pending = False
    seen_summary = False
    counts: dict[str, int] = {}

    for lineno, raw in enumerate(lines, start=1):
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as e:
            print(f"error: line {lineno} is not JSON: {e}", file=sys.stderr)
            return 2
        if not isinstance(obj, dict):
            problems.append(f"line {lineno}: not a JSON object")
            continue
        t = check_line(lineno, obj, problems)
        if t is None:
            continue
        counts[t] = counts.get(t, 0) + 1
        if seen_summary:
            problems.append(f"line {lineno}: {t!r} after the summary line")

        if lineno == 1:
            if t != "header":
                problems.append(f"line 1: expected header, got {t!r}")
            elif obj.get("format") != FORMAT:
                problems.append(
                    f"line 1: format {obj.get('format')!r}, expected {FORMAT!r}"
                )
            header = obj if t == "header" else None
            continue
        if t == "header":
            problems.append(f"line {lineno}: duplicate header")
        elif t == "cell":
            seen_cell = True
            in_stream_cell = False
            if isinstance(obj.get("k"), NUMBER):
                expected_packets += int(obj["k"])
        elif t == "cell_stream":
            seen_cell = True
            in_stream_cell = True
            # The cell's (single) latency line carries the delivered count
            # that the summary reconciles against.
            stream_latency_pending = True
        elif t in ("latency", "packet", "queue", "queue_round") and not seen_cell:
            problems.append(f"line {lineno}: {t!r} line before any cell line")
        elif t == "flight" and header and header.get("flight_paths") is False:
            problems.append(
                f"line {lineno}: flight line but header says flight_paths=false"
            )
        elif t == "summary":
            seen_summary = True
            want = expected_packets + expected_stream_packets
            if obj.get("packets") != want:
                problems.append(
                    f"line {lineno}: summary.packets={obj.get('packets')} but "
                    f"cell lines sum to {want}"
                )
        if t == "packet":
            packet_lines += 1
        if t == "latency" and in_stream_cell and stream_latency_pending:
            stream_latency_pending = False
            if isinstance(obj.get("count"), NUMBER):
                expected_stream_packets += int(obj["count"])
        if t in ("queue", "queue_round"):
            offered = obj.get("offered")
            admitted = obj.get("admitted")
            if isinstance(offered, NUMBER) and isinstance(admitted, NUMBER):
                if admitted > offered:
                    problems.append(
                        f"line {lineno}: admitted ({admitted}) exceeds "
                        f"offered ({offered})"
                    )
        if t in ("ledger", "ledger_round"):
            busy = sum(
                obj.get(k, 0)
                for k in ("transmissions", "silent")
                if isinstance(obj.get(k), NUMBER)
            )
            rounds = obj.get("rounds", 1) if t == "ledger" else 1
            if isinstance(obj.get("awake"), NUMBER) and isinstance(rounds, NUMBER):
                if busy > obj["awake"]:
                    problems.append(
                        f"line {lineno}: transmissions+silent ({busy}) exceed "
                        f"awake slots ({obj['awake']})"
                    )
        if t == "flight" and obj.get("via") not in VIA_NAMES:
            problems.append(
                f"line {lineno}: via {obj.get('via')!r} not in {sorted(VIA_NAMES)}"
            )

    if not seen_summary:
        problems.append("missing summary line")
    if packet_lines != expected_packets:
        problems.append(
            f"{packet_lines} packet line(s) but cell lines sum to "
            f"k={expected_packets}"
        )

    if problems:
        for p in problems:
            print(f"DRIFT: {p}")
        print(
            f"\n{path} violates the {FORMAT} shape ({len(problems)} problem(s))"
        )
        return 1
    summary = ", ".join(f"{counts.get(t, 0)} {t}" for t in SCHEMAS)
    print(f"ok: {path} matches {FORMAT} ({summary})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
