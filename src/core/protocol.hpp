// The complete multiple-message broadcast protocol — one state machine per
// node, sequencing the paper's four stages:
//
//   Stage 1  [0, L1)              leader election (binary search + alarms)
//   Stage 2  [L1, L1+L2)          distributed BFS construction
//   Stage 3  [L12, L12+T3(node))  packet collection (variable length: ends
//                                 with the first alarm-free phase; all
//                                 nodes agree on T3 w.h.p.)
//   Stage 4  [stage-3 end, ...)   coded (or plain) dissemination
//
// All stage lengths are functions of the shared Knowledge (and, for Stage
// 3, of the alarm history), so nodes stay synchronized with no control
// traffic beyond the protocol's own messages. Nodes woken after round 0
// infer their position in the schedule from the global round number (the
// model is synchronous).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "core/collection.hpp"
#include "core/dissemination.hpp"
#include "core/params.hpp"
#include "protocols/bfs_construction.hpp"
#include "protocols/leader_election.hpp"
#include "radio/node.hpp"

namespace radiocast::core {

class ProtocolAuditSink;

class KBroadcastNode final : public radio::NodeProtocol {
 public:
  /// Test-only protocol mutations. Each field seeds one deliberate protocol
  /// bug so the audit tests can prove the ModelAuditor catches it (see
  /// tests/audit/mutation_test.cpp). All zero in production.
  struct TestMutations {
    /// "Skipped Decay phase": the node silently drops every Stage-2 BFS
    /// construction transmission it was scheduled to make.
    bool suppress_bfs_transmit = false;
    /// Premature stage advance: the node enters Stage 4 this many rounds
    /// before its collection schedule actually ended.
    std::uint64_t early_stage4_rounds = 0;
    /// Unsound coding: flip the first payload bit of every CodedMsg this
    /// node transmits.
    bool corrupt_coded_payload = false;
  };

  KBroadcastNode(const ResolvedConfig& rc, radio::NodeId self,
                 std::vector<radio::Packet> own_packets, Rng rng);

  std::optional<radio::MessageBody> on_transmit(radio::Round round) override;
  void on_receive(radio::Round round, const radio::Message& msg) override;
  void on_collision(radio::Round /*round*/) override { ++collisions_observed_; }
  bool done() const override;

  // --- Introspection for runners, tests and benches ---
  bool is_participant() const { return !own_packets_.empty(); }
  /// Valid after Stage 1 for nodes awake from round 0.
  bool is_leader() const;
  radio::NodeId leader_id() const;

  bool has_bfs_distance() const;
  std::uint32_t bfs_distance() const;
  radio::NodeId bfs_parent() const;

  const CollectionState* collection() const { return collection_ ? &*collection_ : nullptr; }
  const DisseminationState* dissemination() const {
    return dissemination_ ? &*dissemination_ : nullptr;
  }

  /// Absolute round at which this node's Stage 3 ended (0 if not yet).
  radio::Round stage3_end() const { return stage3_end_; }

  /// Attaches the run's protocol sink (nullptr detaches): this node
  /// reports its stage transitions and, via CollectionState, its phase and
  /// epoch boundaries. The runner wires it on *every* node, so an auditor
  /// can check cross-node schedule agreement. Must be set before the run
  /// starts; the sink must outlive the node.
  void set_audit_sink(ProtocolAuditSink* sink) { audit_ = sink; }

  /// Installs test-only protocol mutations. Must be set before the run
  /// starts.
  void set_test_mutations(const TestMutations& mutations) { mutations_ = mutations; }

  /// Number of on_collision callbacks this node received (nonzero only
  /// under the collision-detection ablation).
  std::uint64_t collisions_observed() const { return collisions_observed_; }

  /// All packets this node holds at the moment of the call.
  std::vector<radio::Packet> delivered_packets() const;

 private:
  enum class Stage { kLeader, kBfs, kCollection, kDissemination };
  Stage stage_for(radio::Round round) const;
  /// The transmit decision itself (on_transmit wraps it with the hint).
  std::optional<radio::MessageBody> transmit(radio::Round round);
  /// Absolute poll hint after transmit(round): the open stage's own
  /// next_poll, capped at that stage's end (Stage 4 has none), so every
  /// lazy stage switch and stage report happens in exactly the round it
  /// would without hints.
  radio::Round next_poll(radio::Round round) const;
  /// Creates stage state lazily when the schedule crosses a boundary.
  void ensure_stage(radio::Round round);
  /// Reports a stage transition to the audit sink, once per stage, stamped
  /// with the schedule's boundary round (not the observation round) so
  /// stage spans tile the run exactly.
  void report_stage(radio::Round round);
  /// Applies test-only outgoing-message mutations (no-op in production).
  std::optional<radio::MessageBody> apply_mutations(
      std::optional<radio::MessageBody> msg) const;

  ResolvedConfig rc_;
  radio::NodeId self_;
  std::vector<radio::Packet> own_packets_;
  Rng rng_;

  radio::Round stage2_start_ = 0;
  radio::Round stage3_start_ = 0;
  radio::Round stage3_end_ = 0;  // 0 until collection finishes

  protocols::LeaderElectionState leader_;
  std::optional<protocols::BfsBuildState> bfs_;
  std::optional<CollectionState> collection_;
  std::optional<DisseminationState> dissemination_;

  ProtocolAuditSink* audit_ = nullptr;
  TestMutations mutations_;
  std::uint64_t collisions_observed_ = 0;
  /// Last stage reported to the audit sink (none before the first
  /// report).
  std::optional<Stage> reported_stage_;
};

}  // namespace radiocast::core
