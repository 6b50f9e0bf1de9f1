// StreamDriver — the open-system harness: arrivals through bounded source
// buffers over the pipelined collect→disseminate epochs of
// core::KBroadcastNode (whose static run is epoch 0 of the same loop; see
// core/protocol.hpp), run to a round budget on stream::StreamNode. It
// serves both open scenario modes: stream mode materializes an arrival
// schedule from a dedicated RNG stream, and dynamic mode hands in its
// finite arrival list (make_arrivals) with an unbounded buffer, both from
// stream/arrivals.hpp. The driver
//
//   * routes every arrival through a per-node SourceQueue with a
//     configurable full-buffer policy (stream/queue.hpp),
//   * consumes, after every round, the first-hold events the nodes logged
//     during it (stream::HoldLog), so per-packet delivery latencies are
//     round-exact, cost O(events) rather than O(n) per round, and fold
//     into an obs::LogHistogram (thread-invariant percentiles),
//   * samples the number in system — buffered + backpressure-held +
//     in-flight packets — at every epoch boundary into an obs::QueueLedger
//     and a SaturationDetector (a growing number in system is the
//     queueing-theoretic signature of offered load beyond capacity; source
//     depth alone would miss backlog parked in the root's queue), and
//   * reports achieved throughput both raw (delivered packets per round)
//     and normalized by log2(n̂) — the Θ(1/log n) achievable-throughput
//     bound of Ghaffari–Haeupler–Khabbazian (arXiv:1302.0264) makes the
//     normalized figure the natural "fraction of optimal" scale.
//
// Attach-an-auditor support: with StreamConfig::audit the run carries an
// audit::ChannelAuditor that independently re-derives every reception
// outcome from the topology (read-only — audited runs are bit-identical
// to unaudited ones).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "audit/violation.hpp"
#include "core/protocol.hpp"
#include "graph/graph.hpp"
#include "obs/histogram.hpp"
#include "obs/queue_ledger.hpp"
#include "radio/trace.hpp"
#include "stream/arrivals.hpp"
#include "stream/queue.hpp"

namespace radiocast::stream {

struct StreamConfig {
  core::DynamicConfig dyn;
  /// Arrival process; `arrivals.rate` is per node per round (use
  /// per_node_rate to derive it from a capacity-relative offered load).
  ArrivalConfig arrivals;
  /// Bounded source-buffer capacity per node (packets).
  std::uint32_t buffer_capacity = 64;
  BufferPolicy policy = BufferPolicy::kDropNew;
  SaturationConfig saturation;
  /// Round budget (the run always executes exactly this many rounds).
  std::uint64_t horizon = 0;
  /// Master seed of the per-node protocol RNGs (split in node order).
  std::uint64_t seed = 0;
  /// Exists only so benchmark/runner.cpp, which sets it to 1, keeps
  /// building; run_stream rejects any other value.
  std::uint32_t shards = 1;
  /// Attach an audit::ChannelAuditor for the whole run.
  bool audit = false;
  /// Row cap of the backlog ledger (totals stay exact past it).
  std::size_t ledger_max_rows = 4096;
};

struct StreamResult {
  std::uint32_t n = 0;
  std::uint64_t horizon = 0;
  /// Nominal rounds of one epoch (first-phase collection + dissemination
  /// window) — the load-normalization denominator.
  std::uint64_t epoch_estimate = 0;
  std::uint64_t arrivals_scheduled = 0;  ///< schedule size over the horizon
  /// Source-buffer counters aggregated over all nodes.
  QueueStats queue;
  /// Packets held by every node by the end of the run.
  std::uint64_t delivered_everywhere = 0;
  double throughput = 0;             ///< delivered_everywhere / horizon
  /// throughput × log2(n̂): fraction of the Θ(1/log n) capacity bound.
  double normalized_throughput = 0;
  /// Arrival → held-everywhere latency (rounds), queueing delay included.
  obs::LogHistogram latency;
  /// Number in system (buffered + held back + in flight) at the horizon —
  /// the backlog a longer run would have had to drain.
  std::uint64_t in_system_end = 0;
  bool saturated = false;
  std::uint64_t saturation_onset_round = 0;  ///< valid iff saturated
  std::uint32_t epochs_completed = 0;        ///< max over nodes
  /// Backlog samples, one per epoch boundary plus the final round.
  obs::QueueLedger ledger{0};
  radio::TraceCounters counters;
  bool audited = false;
  std::uint64_t audit_violations = 0;
  std::string audit_summary;  ///< "clean" or first violation (audited only)
};

/// Nominal epoch length: first-phase collection rounds + dissemination
/// window. The steady-state epoch is usually shorter (collection is
/// alarm-synchronized), so capacity normalized by this is conservative.
std::uint64_t epoch_estimate_rounds(const core::DynamicConfig& dyn);

/// Per-node per-round arrival rate for a capacity-relative offered load:
/// `load` = 1.0 means the pipeline's batch capacity arrives network-wide
/// per nominal epoch.
double per_node_rate(const core::DynamicConfig& dyn, std::uint32_t n,
                     double load);

/// Runs the open system for exactly cfg.horizon rounds over the schedule
/// make_arrival_schedule(n, cfg.arrivals, cfg.horizon). Deterministic:
/// the result is a pure function of (g, cfg), independent of wall clock
/// or host.
StreamResult run_stream(const graph::Graph& g, const StreamConfig& cfg);

/// The same run over an explicit arrival list, sorted by round (ids
/// unique; arrivals at or past cfg.horizon never arrive); cfg.arrivals is
/// not read. A pure function of (g, cfg, schedule).
StreamResult run_stream(const graph::Graph& g, const StreamConfig& cfg,
                        std::vector<Arrival> schedule);

}  // namespace radiocast::stream
