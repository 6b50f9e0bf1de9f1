// RunObserver — the flight recorder's sink, a core::RunAuditor subscriber
// wired through an end-to-end run (core::run_kbroadcast) when
// observability is requested.
//
// It listens to both halves of the run's one event model:
//   * the engine's slot events (radio::NetworkAuditHook): the observer
//     counts each round's transmissions, deliveries, collision, deaf and
//     fault slots and wake-ups into a RoundStats and folds it into the
//     channel ledger at on_round_end;
//   * the protocol's boundary reports (core::ProtocolAuditSink) — stage
//     transitions, collection-phase boundaries (each doubling of the
//     estimate x), and OSPG/MSPG/ALARM epoch boundaries. Every node
//     reports them; the observer keeps only the expected leader's (the
//     origin of the largest truth id): stage schedules are global, so one
//     node's view is the run's view.
//
// The observer turns these into (a) a hierarchical span tree
// stage > phase > epoch whose sibling spans tile their parent exactly —
// per-epoch round counts sum to the run's total_rounds — and (b) the
// channel ledger, the run's one per-stage account: what every stage, and
// every Stage-3 epoch kind, spent of the channel.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/audit.hpp"
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
/// round ran. Fed by RunObserver at every round end.
///
/// Stages and epoch kinds are fixed indices into one static name table:
/// stage 0 is "unattributed" (rounds before the first stage report),
/// 1–4 are the paper's stages; epoch kind 0 is "" (outside collection
/// epochs), then ospg, mspg, alarm.
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
  static constexpr std::uint32_t kNumStages = 5;
  static constexpr std::uint32_t kNumEpochKinds = 4;

  /// Name of stage index `stage` ("unattributed", "stage1.leader", ...).
  static const char* stage_name(std::uint32_t stage);
  /// Name of epoch kind `epoch` ("", "ospg", "mspg", "alarm").
  static const char* epoch_name(std::uint32_t epoch);
  /// Index of an epoch kind as the protocol reports it.
  static std::uint32_t epoch_index(std::string_view kind);

  struct Row {
    std::uint64_t round = 0;
    std::uint32_t stage = 0;  ///< stage index (see stage_name)
    std::uint32_t epoch = 0;  ///< epoch kind (see epoch_name); 0 = none
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
    std::uint32_t stage = 0;
    std::uint32_t epoch = 0;
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

  void on_round(const RoundStats& stats, std::uint32_t stage, std::uint32_t epoch);

  const std::vector<Row>& rows() const { return rows_; }
  std::uint64_t dropped_rows() const { return dropped_rows_; }
  const std::vector<Aggregate>& aggregates() const { return aggregates_; }

 private:
  std::size_t max_rounds_;
  std::vector<Row> rows_;
  std::uint64_t dropped_rows_ = 0;
  std::vector<Aggregate> aggregates_;
  /// 1 + the position in aggregates_ of each (stage, epoch) slice, by
  /// stage * kNumEpochKinds + epoch; 0 until the slice is first seen.
  std::array<std::uint8_t, kNumStages * kNumEpochKinds> slot_{};
};

/// The flight recorder's sink: slot events + protocol boundaries in, span
/// tree + channel ledger out (see the file comment).
class RunObserver final : public core::RunAuditor {
 public:
  struct Options {
    /// Per-round row cap for the ledger (aggregates are never capped).
    std::size_t ledger_max_rounds = 1u << 16;
  };

  RunObserver() : RunObserver(Options{}) {}
  explicit RunObserver(Options opts) : ledger_(opts.ledger_max_rounds) {}

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
  void on_deliver(radio::Round, radio::NodeId, std::uint32_t,
                  const radio::Message&) override {
    ++round_.deliveries;
  }
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
  /// Folds the round's channel activity into the ledger.
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
  const SpanRecorder& recorder() const { return recorder_; }
  /// Point-in-time copy, safe to keep after the observer is destroyed.
  std::vector<Span> spans() const { return recorder_.snapshot(); }
  const ChannelLedger& ledger() const { return ledger_; }

 private:
  void close_epoch(std::uint64_t round);
  void close_phase(std::uint64_t round);
  void close_stage(std::uint64_t round);

  /// The node whose protocol reports are recorded (set by begin_run).
  radio::NodeId leader_ = 0;
  /// Nodes awake so far: the initial wake set plus every wake event.
  std::uint32_t awake_ = 0;
  /// The current round's channel activity, reset after each fold.
  RoundStats round_;
  SpanRecorder recorder_;
  ChannelLedger ledger_;

  std::uint32_t stage_ = 0;  ///< open stage (ChannelLedger stage index)
  std::uint32_t epoch_ = 0;  ///< open epoch kind (0 outside epochs)
  std::uint64_t stage_span_ = 0;
  std::uint64_t phase_span_ = 0;
  std::uint64_t epoch_span_ = 0;
};

}  // namespace radiocast::obs
