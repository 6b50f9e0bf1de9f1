// The run tap interfaces: every subscriber to a k-broadcast run implements
// RunAuditor.
//
// Two producers feed a subscriber during an end-to-end run:
//   * radio::NetworkAuditHook (radio/audit_hook.hpp) — the engine reports
//     the raw transmission set and every reception outcome, slot by slot;
//   * ProtocolAuditSink (below) — every KBroadcastNode reports its stage
//     transitions, and each node's CollectionState reports its phase and
//     epoch boundaries.
//
// RunAuditor bundles both plus begin/end hooks; core::run_kbroadcast wires
// one RunAuditor through the network and every node. Every hook of the
// three interfaces defaults to a no-op, so a subscriber overrides only the
// events it reads. Several subscribers share that slot through a TapList.
// The subscribers are audit::ModelAuditor (src/audit/model_auditor.hpp),
// which checks the run against the paper's model, and the flight
// recorder's obs::RunObserver and obs::PacketTracer (src/obs/). Keeping
// the interfaces here lets core stay independent of both subsystems.
#pragma once

#include <cstdint>
#include <vector>

#include "core/params.hpp"
#include "graph/graph.hpp"
#include "radio/audit_hook.hpp"
#include "radio/message.hpp"
#include "radio/network.hpp"

namespace radiocast::core {

struct RunResult;

/// Protocol-discipline events reported by the k-broadcast state machines.
/// Every callback carries the reporting node, so the auditor can check
/// cross-node schedule agreement as well as per-node budgets. All rounds
/// are absolute (run-global), stamped with the schedule boundary rather
/// than the observation round.
class ProtocolAuditSink {
 public:
  virtual ~ProtocolAuditSink() = default;

  /// Node `node` enters stage `stage_index` (1-based, 1 = leader election
  /// ... 4 = dissemination) whose schedule boundary is `boundary_round`.
  virtual void on_stage_enter(radio::NodeId /*node*/, std::uint32_t /*stage_index*/,
                              radio::Round /*boundary_round*/) {}

  /// Node `node` begins Stage-3 collection phase `phase_index` with
  /// estimate x at `round`.
  virtual void on_collection_phase_begin(radio::NodeId /*node*/,
                                         std::uint32_t /*phase_index*/,
                                         std::uint64_t /*estimate*/,
                                         radio::Round /*round*/) {}

  /// An epoch within the node's current phase begins ("ospg", "mspg",
  /// "alarm"); `slots`/`copies` describe the gather window (0 for alarm).
  virtual void on_collection_epoch(radio::NodeId /*node*/, const char* /*kind*/,
                                   std::uint64_t /*slots*/, std::uint32_t /*copies*/,
                                   radio::Round /*round*/) {}

  /// The node's current phase ends; `alarmed` decides doubling vs finish.
  virtual void on_collection_phase_end(radio::NodeId /*node*/, radio::Round /*round*/,
                                       bool /*alarmed*/) {}
};

/// The one subscriber interface of a run_kbroadcast run: both event taps
/// plus run-scoped setup and final-state hooks.
class RunAuditor : public radio::NetworkAuditHook, public ProtocolAuditSink {
 public:
  /// Called once before the network is built. `truth` is the ground-truth
  /// packet set (sorted by id — the same order Stage 4 groups them in);
  /// `collision_detection` reports the engine ablation flag.
  virtual void begin_run(const graph::Graph& /*g*/, const ResolvedConfig& /*rc*/,
                         const std::vector<radio::Packet>& /*truth*/,
                         const radio::FaultModel& /*faults*/,
                         bool /*collision_detection*/) {}

  /// Called once after the run, with the verified result. `net` still owns
  /// every protocol, so the auditor may inspect final per-node state (BFS
  /// distances, delivered packet sets, done() claims).
  virtual void end_run(const radio::Network& /*net*/, const RunResult& /*result*/) {}
};

/// Fan-out: forwards every event to its subscribers, in registration
/// order. The engine and each node have one tap slot (one null check on the
/// hot path); composing subscribers is the list's job.
class TapList final : public RunAuditor {
 public:
  /// Appends `tap` (ignored when null).
  void add(RunAuditor* tap) {
    if (tap != nullptr) taps_.push_back(tap);
  }
  /// What to attach to a run: nothing when empty, the only subscriber
  /// directly, else this list.
  RunAuditor* as_tap() {
    if (taps_.size() <= 1) return taps_.empty() ? nullptr : taps_.front();
    return this;
  }

  void begin_run(const graph::Graph& g, const ResolvedConfig& rc,
                 const std::vector<radio::Packet>& truth,
                 const radio::FaultModel& faults, bool collision_detection) override {
    for (RunAuditor* t : taps_) t->begin_run(g, rc, truth, faults, collision_detection);
  }
  void end_run(const radio::Network& net, const RunResult& result) override {
    for (RunAuditor* t : taps_) t->end_run(net, result);
  }

  void on_sim_start(const std::vector<radio::NodeId>& initially_awake) override {
    for (RunAuditor* t : taps_) t->on_sim_start(initially_awake);
  }
  void on_transmissions(radio::Round round,
                        const std::vector<radio::Message>& txs) override {
    for (RunAuditor* t : taps_) t->on_transmissions(round, txs);
  }
  void on_deliver(radio::Round round, radio::NodeId receiver, std::uint32_t tx_index,
                  const radio::Message& msg) override {
    for (RunAuditor* t : taps_) t->on_deliver(round, receiver, tx_index, msg);
  }
  void on_collision_slot(radio::Round round, radio::NodeId receiver,
                         std::uint32_t reached, bool cd_callback) override {
    for (RunAuditor* t : taps_) t->on_collision_slot(round, receiver, reached, cd_callback);
  }
  void on_deaf_slot(radio::Round round, radio::NodeId receiver,
                    std::uint32_t reached) override {
    for (RunAuditor* t : taps_) t->on_deaf_slot(round, receiver, reached);
  }
  void on_fault_drop(radio::Round round, radio::NodeId receiver,
                     std::uint32_t tx_index) override {
    for (RunAuditor* t : taps_) t->on_fault_drop(round, receiver, tx_index);
  }
  void on_node_wake(radio::Round round, radio::NodeId node) override {
    for (RunAuditor* t : taps_) t->on_node_wake(round, node);
  }
  void on_round_end(radio::Round round) override {
    for (RunAuditor* t : taps_) t->on_round_end(round);
  }

  void on_stage_enter(radio::NodeId node, std::uint32_t stage_index,
                      radio::Round boundary_round) override {
    for (RunAuditor* t : taps_) t->on_stage_enter(node, stage_index, boundary_round);
  }
  void on_collection_phase_begin(radio::NodeId node, std::uint32_t phase_index,
                                 std::uint64_t estimate, radio::Round round) override {
    for (RunAuditor* t : taps_) {
      t->on_collection_phase_begin(node, phase_index, estimate, round);
    }
  }
  void on_collection_epoch(radio::NodeId node, const char* kind, std::uint64_t slots,
                           std::uint32_t copies, radio::Round round) override {
    for (RunAuditor* t : taps_) t->on_collection_epoch(node, kind, slots, copies, round);
  }
  void on_collection_phase_end(radio::NodeId node, radio::Round round,
                               bool alarmed) override {
    for (RunAuditor* t : taps_) t->on_collection_phase_end(node, round, alarmed);
  }

 private:
  std::vector<RunAuditor*> taps_;
};

}  // namespace radiocast::core
