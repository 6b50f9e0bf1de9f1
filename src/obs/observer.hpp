// RunObserver — the flight recorder's sink, a core::RunAuditor subscriber
// wired through an end-to-end run (core::run_kbroadcast) when
// observability is requested.
//
// It listens to both halves of the run's one event model:
//   * the engine's slot events (radio::NetworkAuditHook): the observer
//     counts each round's transmissions, deliveries, collision, deaf and
//     fault slots and wake-ups into a RoundStats and folds it into the
//     open stage at on_round_end;
//   * the protocol's boundary reports (core::ProtocolAuditSink) — stage
//     transitions, collection-phase boundaries (each doubling of the
//     estimate x), and OSPG/MSPG/ALARM epoch boundaries. Every node
//     reports them; the observer keeps only the expected leader's (the
//     origin of the largest truth id): stage schedules are global, so one
//     node's view is the run's view.
//
// The observer turns these into (a) a hierarchical span tree
// stage > phase > epoch whose sibling spans tile their parent exactly —
// per-epoch round counts sum to the run's total_rounds — and (b) labelled
// metrics: per-stage round/transmission/delivery/collision counters split
// by message kind, plus per-round activity histograms.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace radiocast::obs {

/// One round's channel activity, counted by RunObserver from the engine's
/// slot events.
struct RoundStats {
  std::uint64_t round = 0;
  /// Nodes awake when the round's transmission decisions were made.
  std::uint32_t awake = 0;
  std::uint32_t transmissions = 0;
  std::uint32_t deliveries = 0;
  std::uint32_t collision_slots = 0;
  std::uint32_t deaf_slots = 0;
  std::uint32_t fault_drops = 0;
  std::uint32_t wakeups = 0;
};

/// Channel-utilization ledger: how every round's slot budget was spent,
/// attributed to the protocol stage (and collection epoch) open when the
/// round ran. Fed by RunObserver at every round end when enabled.
///
/// Slot taxonomy per round (counts straight from RoundStats):
///   transmissions | deliveries (single-transmit successes) | collisions |
///   deaf (half-duplex losses at transmitters) | faults (erased
///   successes) | silent — awake listeners that heard nothing, derived as
///   (awake - transmissions) - ((deliveries - wakeups) + collisions +
///   faults) clamped at zero. The derivation is a lower bound: collision
///   and fault slots at still-sleeping nodes are indistinguishable from
///   awake-listener ones in the per-round deltas, and under the CD
///   ablation wake-ups can stem from collisions. Per-round rows are kept
///   up to `max_rounds` (drops counted, never silent); per-(stage, epoch)
///   aggregates always cover the whole run.
class ChannelLedger {
 public:
  struct Row {
    std::uint64_t round = 0;
    std::uint32_t stage = 0;  ///< index into stage_names()
    std::uint32_t epoch = 0;  ///< index into epoch_names(); 0 = none
    std::uint32_t awake = 0;
    std::uint32_t transmissions = 0;
    std::uint32_t deliveries = 0;
    std::uint32_t collisions = 0;
    std::uint32_t deaf = 0;
    std::uint32_t faults = 0;
    std::uint32_t silent = 0;
  };
  /// Whole-run totals for one (stage, epoch-kind) slice, in first-seen
  /// (i.e. chronological) order.
  struct Aggregate {
    std::string stage;
    std::string epoch;  ///< "" outside collection epochs
    std::uint64_t rounds = 0;
    std::uint64_t awake = 0;  ///< sum of per-round awake counts
    std::uint64_t transmissions = 0;
    std::uint64_t deliveries = 0;
    std::uint64_t collisions = 0;
    std::uint64_t deaf = 0;
    std::uint64_t faults = 0;
    std::uint64_t silent = 0;
  };

  explicit ChannelLedger(std::size_t max_rounds) : max_rounds_(max_rounds) {}

  /// The derived silent-slot count (see the class comment).
  static std::uint32_t silent_slots(const RoundStats& stats);

  void on_round(const RoundStats& stats, const std::string& stage,
                const std::string& epoch);

  const std::vector<Row>& rows() const { return rows_; }
  std::uint64_t dropped_rows() const { return dropped_rows_; }
  const std::vector<std::string>& stage_names() const { return stage_names_; }
  const std::vector<std::string>& epoch_names() const { return epoch_names_; }
  const std::vector<Aggregate>& aggregates() const { return aggregates_; }

 private:
  std::uint32_t intern(std::vector<std::string>& names, const std::string& name);

  std::size_t max_rounds_;
  std::vector<Row> rows_;
  std::uint64_t dropped_rows_ = 0;
  std::vector<std::string> stage_names_;
  std::vector<std::string> epoch_names_{""};  ///< index 0 = "no epoch"
  std::vector<Aggregate> aggregates_;
  /// Cache of the aggregate slot the last round landed in (rounds switch
  /// stage/epoch rarely, so the linear re-scan is off the common path).
  std::size_t last_aggregate_ = SIZE_MAX;
};

/// The flight recorder's sink: slot events + protocol boundaries in, span
/// tree + labelled metrics out (see the file comment).
class RunObserver final : public core::RunAuditor {
 public:
  /// Knobs for what gets recorded (all on by default).
  struct Options {
    SpanRecorder::Options recorder;
    /// Split per-stage transmission/delivery counters by message kind.
    bool per_kind_metrics = true;
    /// Record per-round transmission/delivery histograms per stage.
    bool round_histograms = true;
    /// Keep a per-round channel-utilization ledger (off by default: the
    /// per-round rows are telemetry-sized, not metrics-sized).
    bool channel_ledger = false;
    /// Per-round row cap for the ledger (aggregates are never capped).
    std::size_t ledger_max_rounds = 1u << 16;
  };

  RunObserver() : RunObserver(Options{}) {}
  explicit RunObserver(Options opts);

  // --- core::RunAuditor ---
  /// Picks the observed node: the expected leader.
  void begin_run(const graph::Graph& g, const core::ResolvedConfig& rc,
                 const std::vector<radio::Packet>& truth,
                 const radio::FaultModel& faults, bool collision_detection) override;
  /// Closes every span still open (the run is over at total_rounds).
  void end_run(const radio::Network& net, const core::RunResult& result) override;

  // --- radio::NetworkAuditHook: counted into the round's RoundStats ---
  void on_sim_start(const std::vector<radio::NodeId>& initially_awake) override;
  void on_transmissions(radio::Round round,
                        const std::vector<radio::Message>& txs) override;
  void on_deliver(radio::Round round, radio::NodeId receiver, std::uint32_t tx_index,
                  const radio::Message& msg) override;
  void on_collision_slot(radio::Round, radio::NodeId, std::uint32_t, bool) override {
    ++round_.collision_slots;
  }
  void on_deaf_slot(radio::Round, radio::NodeId, std::uint32_t) override {
    ++round_.deaf_slots;
  }
  void on_fault_drop(radio::Round, radio::NodeId, std::uint32_t) override {
    ++round_.fault_drops;
  }
  void on_node_wake(radio::Round, radio::NodeId) override {
    ++awake_;
    ++round_.wakeups;
  }
  /// Folds the round's channel activity into the current stage's metrics.
  void on_round_end(radio::Round round) override;

  // --- core::ProtocolAuditSink (the expected leader's reports only) ---
  /// A new stage begins at `boundary_round`; closes the previous stage
  /// (and any open phase/epoch spans). `stage_index` is 1-based.
  void on_stage_enter(radio::NodeId node, std::uint32_t stage_index,
                      radio::Round boundary_round) override;
  /// A Stage-3 collection phase begins with estimate x.
  void on_collection_phase_begin(radio::NodeId node, std::uint32_t phase_index,
                                 std::uint64_t estimate, radio::Round round) override;
  /// An epoch within the current phase begins ("ospg", "mspg", "alarm");
  /// closes the previous epoch. `slots`/`copies` describe the gather
  /// window (0 for alarm epochs).
  void on_collection_epoch(radio::NodeId node, const char* kind, std::uint64_t slots,
                           std::uint32_t copies, radio::Round round) override;
  /// The current phase ends; `alarmed` is the alarm outcome that decides
  /// between doubling and finishing.
  void on_collection_phase_end(radio::NodeId node, radio::Round round,
                               bool alarmed) override;

  // --- Results ---
  /// Live access to the underlying registry / recorder.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  SpanRecorder& recorder() { return recorder_; }
  const SpanRecorder& recorder() const { return recorder_; }

  /// Point-in-time copies, safe to keep after the observer is destroyed.
  std::vector<Span> spans() const { return recorder_.snapshot(); }
  MetricsSnapshot metrics_snapshot() const { return metrics_.snapshot(); }

  /// Name of the stage currently open ("" before the first stage report).
  const std::string& current_stage() const { return stage_name_; }

  /// The channel-utilization ledger (nullptr unless Options enabled it).
  const ChannelLedger* ledger() const { return ledger_.get(); }

 private:
  /// Re-resolves the cached per-stage instrument pointers (called on every
  /// stage transition; lookups are off the per-round hot path).
  void rebind_stage_instruments();
  void close_epoch(std::uint64_t round);
  void close_phase(std::uint64_t round);
  void close_stage(std::uint64_t round);

  Options opts_;
  /// The node whose protocol reports are recorded (set by begin_run).
  radio::NodeId leader_ = 0;
  /// Nodes awake so far: the initial wake set plus every wake event.
  std::uint32_t awake_ = 0;
  /// The current round's channel activity, reset after each fold.
  RoundStats round_;
  std::array<std::uint32_t, radio::kNumMessageKinds> round_tx_by_kind_{};
  std::array<std::uint32_t, radio::kNumMessageKinds> round_rx_by_kind_{};
  MetricsRegistry metrics_;
  SpanRecorder recorder_;

  std::string stage_name_;
  std::string epoch_name_;  ///< open collection epoch ("" outside epochs)
  std::unique_ptr<ChannelLedger> ledger_;
  std::uint64_t stage_span_ = 0;
  std::uint64_t phase_span_ = 0;
  std::uint64_t epoch_span_ = 0;

  // Hot-path instrument cache, rebound per stage.
  Counter* rounds_ = nullptr;
  Counter* transmissions_ = nullptr;
  Counter* deliveries_ = nullptr;
  Counter* collisions_ = nullptr;
  Counter* deaf_ = nullptr;
  Counter* fault_drops_ = nullptr;
  Counter* wakeups_ = nullptr;
  Histogram* tx_per_round_ = nullptr;
  Histogram* rx_per_round_ = nullptr;
  std::vector<Counter*> tx_by_kind_;
  std::vector<Counter*> rx_by_kind_;
};

}  // namespace radiocast::obs
