// Protocol-side audit interfaces for the model-conformance auditor.
//
// Two taps feed an auditor during an end-to-end run:
//   * radio::NetworkAuditHook (radio/audit_hook.hpp) — the engine reports
//     the raw transmission set and every reception outcome;
//   * ProtocolAuditSink (below) — every KBroadcastNode reports its stage
//     transitions, and each node's CollectionState reports its phase and
//     epoch boundaries, so the auditor can check the GRAB/OSPG/MSPG/ALARM
//     round budgets of core::params against what the protocol actually
//     executed.
//
// RunAuditor bundles both plus begin/end hooks; core::run_kbroadcast wires
// a RunAuditor through the network and every node. The concrete
// implementation is audit::ModelAuditor (src/audit/model_auditor.hpp),
// which forwards the NetworkAuditHook half to an audit::ChannelAuditor and
// checks the protocol half itself; keeping the interfaces here lets core
// stay independent of the audit subsystem.
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
  virtual void on_stage_enter(radio::NodeId node, std::uint32_t stage_index,
                              radio::Round boundary_round) = 0;

  /// Node `node` begins Stage-3 collection phase `phase_index` with
  /// estimate x at `round`.
  virtual void on_collection_phase_begin(radio::NodeId node,
                                         std::uint32_t phase_index,
                                         std::uint64_t estimate,
                                         radio::Round round) = 0;

  /// An epoch within the node's current phase begins ("ospg", "mspg",
  /// "alarm"); `slots`/`copies` describe the gather window (0 for alarm).
  virtual void on_collection_epoch(radio::NodeId node, const char* kind,
                                   std::uint64_t slots, std::uint32_t copies,
                                   radio::Round round) = 0;

  /// The node's current phase ends; `alarmed` decides doubling vs finish.
  virtual void on_collection_phase_end(radio::NodeId node, radio::Round round,
                                       bool alarmed) = 0;
};

/// The full auditor contract used by run_kbroadcast: both event taps plus
/// run-scoped setup and final-state checks.
class RunAuditor : public radio::NetworkAuditHook, public ProtocolAuditSink {
 public:
  /// Called once before the network is built. `truth` is the ground-truth
  /// packet set (sorted by id — the same order Stage 4 groups them in);
  /// `collision_detection` reports the engine ablation flag.
  virtual void begin_run(const graph::Graph& g, const ResolvedConfig& rc,
                         const std::vector<radio::Packet>& truth,
                         const radio::FaultModel& faults,
                         bool collision_detection) = 0;

  /// Called once after the run, with the verified result. `net` still owns
  /// every protocol, so the auditor may inspect final per-node state (BFS
  /// distances, delivered packet sets, done() claims).
  virtual void end_run(const radio::Network& net, const RunResult& result) = 0;
};

}  // namespace radiocast::core
