// Exporters for the flight recorder: JSONL (one record per line, easy to
// grep/jq) and Chrome trace_event JSON (open in chrome://tracing or
// https://ui.perfetto.dev). See docs/observability.md for the formats.
#pragma once

#include <ostream>
#include <vector>

#include "obs/recorder.hpp"

namespace radiocast::obs {

class PacketTracer;
class RunObserver;

/// JSONL: one `{"type":"span",...}` line per span (in snapshot order).
void write_spans_jsonl(std::ostream& out, const std::vector<Span>& spans);

/// Everything the observer captured: a `{"type":"run",...}` header line
/// carrying `total_rounds`, the spans, then one `{"type":"ledger",...}`
/// line per channel-ledger aggregate (first-seen order).
void write_run_jsonl(std::ostream& out, const RunObserver& observer,
                     std::uint64_t total_rounds);

/// Chrome trace_event format: each span becomes a complete ("ph":"X")
/// event with ts/dur in simulation rounds (1 round = 1 "microsecond");
/// span attributes land in "args". One metadata event names the process
/// "radiocast". The file opens directly in chrome://tracing and Perfetto.
void write_chrome_trace(std::ostream& out, const std::vector<Span>& spans);

/// Chrome trace_event export of one PacketTracer's flight log: every
/// first-hold record becomes an instant event ("ph":"i") at its latency
/// round on a per-packet thread track (tid = packet index + 1), with the
/// receiving node, delivering neighbor, hop depth and mechanism in "args".
/// Empty flight log (flight paths disabled) yields a valid empty trace.
void write_flight_chrome_trace(std::ostream& out, const PacketTracer& tracer);

}  // namespace radiocast::obs
