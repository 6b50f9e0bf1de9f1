// The complete multiple-message broadcast protocol — the one state machine
// per node that sequences the paper's four stages, for the static
// k-broadcast and for packets that arrive over time alike:
//
//   Stage 1  [0, L1)              leader election (binary search + alarms)
//   Stage 2  [L1, L1+L2)          distributed BFS construction
//   Stage 3  [S, S+T3(node))      packet collection (variable length: ends
//                                 with the first alarm-free phase; all
//                                 nodes agree on T3 w.h.p.)
//   Stage 4  [stage-3 end, E)     coded (or plain) dissemination
//
// Stages 3-4 form an epoch. A static run is epoch 0 and nothing more:
// S = L1+L2, the nodes holding a packet take part in the election, the
// root disseminates everything it collected, and Stage 4 never closes
// (E = ∞).
//
// The open system — the paper's conclusion: "in a more practical scenario,
// packets appear at nodes dynamically; a challenging direction would be to
// adapt 'static' solutions ... to such a more dynamic setting" — repeats
// the epoch, the most direct adaptation that keeps the stages'
// guarantees. Every node is on from round 0 and takes part in the
// election. Stage 4 is a window of DynamicConfig::dissemination_window()
// rounds sized for `batch_capacity` packets; at its end every node
// harvests what it decoded and re-enters Stage 3 (the next epoch's S = E)
// with its unacknowledged packets plus the fresh ones take_epoch_packets()
// hands in. The root queues what it collects, deduplicated by id, and
// disseminates at most `batch_capacity` packets per window; the excess
// waits for a later window (it is already acked, so sources do not
// retransmit). Packets arriving mid-epoch wait for the next Stage 3.
//
// All stage lengths are functions of the shared Knowledge (and, for Stage
// 3, of the alarm history) and the window has a fixed, capacity-derived
// length, so nodes stay synchronized — every node computes the next
// epoch's start locally — with no control traffic beyond the protocol's
// own messages. Nodes woken after round 0 infer their position in the
// schedule from the global round number (the model is synchronous).
//
// In the open system the amortized cost per packet stays O(logΔ) whenever
// arrivals keep epochs near capacity, and a packet's latency is bounded
// by two epochs (one to be collected, one to be disseminated);
// stream::run_stream measures both over stream::StreamNode, the
// open-system node.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_set>
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

/// The open system's pipeline: the protocol's configuration plus the
/// number of packets one dissemination window carries.
struct DynamicConfig {
  ResolvedConfig rc;
  /// Maximum packets disseminated per epoch; the dissemination window is
  /// sized for exactly this many.
  std::uint32_t batch_capacity = 0;  ///< 0 => initial estimate of rc

  std::uint32_t resolved_capacity() const {
    return batch_capacity != 0 ? batch_capacity
                               : static_cast<std::uint32_t>(rc.initial_estimate);
  }
  /// Rounds of one dissemination window.
  std::uint64_t dissemination_window() const;
};

class KBroadcastNode : public radio::NodeProtocol {
 public:
  /// Test-only protocol mutations. Each field seeds one deliberate protocol
  /// bug so the audit tests can prove the ModelAuditor catches it (see
  /// tests/audit/mutation_test.cpp). All zero in production.
  struct TestMutations {
    /// "Skipped Decay phase": the node silently drops every Stage-2 BFS
    /// construction transmission it was scheduled to make.
    bool suppress_bfs_transmit = false;
    /// Unsound coding: flip the first payload bit of every CodedMsg this
    /// node transmits.
    bool corrupt_coded_payload = false;
    /// Premature stage advance: the node enters Stage 4 this many rounds
    /// before its collection schedule actually ended.
    std::uint64_t early_stage4_rounds = 0;
  };

  /// Static k-broadcast: `own_packets` are this node's packets, and it
  /// takes part in the election iff it holds one.
  KBroadcastNode(const ResolvedConfig& rc, radio::NodeId self,
                 std::vector<radio::Packet> own_packets, Rng rng);

  // The stage states point at rc_, so a node never copies or moves.
  KBroadcastNode(const KBroadcastNode&) = delete;
  KBroadcastNode& operator=(const KBroadcastNode&) = delete;

  std::optional<radio::MessageBody> on_transmit(radio::Round round) override;
  void on_receive(radio::Round round, const radio::Message& msg) override;
  void on_collision(radio::Round /*round*/) override { ++collisions_observed_; }
  /// True once this node holds every packet of a Stage 4 that never
  /// closes; an open-system node is never done.
  bool done() const override;

  // --- Introspection for runners, tests and benches ---
  bool is_participant() const { return leader_.participant(); }
  /// Valid after Stage 1 for nodes awake from round 0.
  bool is_leader() const;
  radio::NodeId leader_id() const;

  bool has_bfs_distance() const;
  std::uint32_t bfs_distance() const;
  radio::NodeId bfs_parent() const;

  /// The latest Stage 3 and Stage 4 states (null before the first).
  const CollectionState* collection() const { return collection_ ? &*collection_ : nullptr; }
  const DisseminationState* dissemination() const {
    return dissemination_ ? &*dissemination_ : nullptr;
  }

  /// Absolute round at which this node's Stage 3 ended (0 if not yet; in
  /// the open system, the current epoch's).
  radio::Round stage3_end() const { return stage3_end_; }

  /// Dissemination windows this node has closed (always 0 in a static
  /// run).
  std::uint32_t epochs_completed() const { return epoch_; }

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

 protected:
  /// Open system: every node takes part in the election, and each Stage 4
  /// is a window of cfg.dissemination_window() rounds carrying at most
  /// cfg.resolved_capacity() packets. Packets come from
  /// take_epoch_packets().
  KBroadcastNode(const DynamicConfig& cfg, radio::NodeId self, Rng rng);

  // --- Epoch hooks -----------------------------------------------------

  /// Called at every Stage 3 start: returns the fresh packets joining this
  /// epoch's collection, after the carry-over of the previous epoch's
  /// unacked packets. Each must name this node as its origin
  /// (radio::make_packet_id(self, seq)); the node asserts it, and reports
  /// each through on_packet_delivered() as it takes it. By default the
  /// constructor's packets in epoch 0 and none later. It runs inside the
  /// first callback at or past the epoch start, to which every poll hint
  /// is capped, so packets that arrive out of band during a quiet spell
  /// are picked up in exactly the round they would be without hints.
  virtual std::vector<radio::Packet> take_epoch_packets();

  /// Fired exactly once for every packet the node comes to hold: its own
  /// packets when take_epoch_packets() hands them in, the root's harvest
  /// from other origins when a Stage 4 starts (an id re-collected after a
  /// lost ack is held already), and what a non-root decoded from other
  /// origins when a window closes. A static run's window never closes, so
  /// there a non-root's decoded packets are never reported. Does nothing
  /// by default.
  virtual void on_packet_delivered(const radio::Packet& /*packet*/) {}

 private:
  enum class Stage : std::uint8_t { kLeader, kBfs, kCollection, kDissemination };
  /// Stage 4 length of a static run.
  static constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
  /// Open-system root only: collected packets awaiting a window, and every
  /// id ever queued, so a packet re-collected after a lost ack is neither
  /// sent nor reported twice.
  struct RootQueue {
    std::deque<radio::Packet> packets;
    std::unordered_set<radio::PacketId> queued;
  };

  /// `own_packets` binds by reference, so the static constructor can read
  /// it for `participant` in the same argument list.
  KBroadcastNode(const ResolvedConfig& rc, radio::NodeId self,
                 std::vector<radio::Packet>&& own_packets, Rng rng, bool participant,
                 std::uint64_t window, std::uint32_t capacity);

  Stage stage_for(radio::Round round) const;
  /// The transmit decision itself (on_transmit wraps it with the hint).
  std::optional<radio::MessageBody> transmit(radio::Round round);
  /// Absolute poll hint after transmit(round): the open stage's own
  /// next_poll, capped at that stage's end (the window end in Stage 4),
  /// so every lazy stage switch, epoch re-entry and stage report happens
  /// in exactly the round it would without hints.
  radio::Round next_poll(radio::Round round) const;
  /// Creates stage state lazily when the schedule crosses a boundary, and
  /// opens the next epoch when a window closes.
  void ensure_stage(radio::Round round);
  void begin_collection();
  void begin_dissemination();
  /// Reports a stage transition to the audit sink, once per stage, stamped
  /// with the schedule's boundary round (not the observation round) so
  /// stage spans tile the run exactly.
  void report_stage(radio::Round round);
  /// Applies test-only mutations to an outgoing Stage-4 message in place
  /// (no-op in production; in place, so the hot path moves nothing).
  void apply_mutations(std::optional<radio::MessageBody>& msg) const;

  // Members are ordered to keep padding out of the node: a run keeps one
  // node per vertex live, thousands of them on large graphs.
  ResolvedConfig rc_;
  radio::NodeId self_;
  /// Packets per Stage 4 window (unbounded in a static run).
  std::uint32_t capacity_;
  std::vector<radio::Packet> own_packets_;
  Rng rng_;
  /// Stage 4 length in rounds (kNever: a static run's never closes).
  std::uint64_t window_;

  radio::Round stage3_start_ = 0;  // the current epoch's
  radio::Round stage3_end_ = 0;    // 0 while Stage 3 runs

  protocols::LeaderElectionState leader_;
  std::optional<protocols::BfsBuildState> bfs_;
  std::optional<CollectionState> collection_;
  std::optional<DisseminationState> dissemination_;
  /// Allocated when the root first queues, so other nodes, and every node
  /// of a static run, carry a null pointer.
  std::unique_ptr<RootQueue> root_queue_;

  ProtocolAuditSink* audit_ = nullptr;
  TestMutations mutations_;
  std::uint64_t collisions_observed_ = 0;
  std::uint32_t epoch_ = 0;
  /// Last stage reported to the audit sink (none before the first
  /// report).
  std::optional<Stage> reported_stage_;
};

}  // namespace radiocast::core
