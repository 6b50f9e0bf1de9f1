// Stage 3 — packet collection at the root (the paper's Section 2.3).
//
// The stage is a sequence of phases; each phase is a grabbing epoch (the
// GRAB(x) cascade of OSPG/MSPG windows) followed by an alarming epoch (a
// one-bit BGI flood by every node still holding an unacknowledged packet).
// The estimate x of the unknown packet count k starts at (D̂+log n̂)·log n̂
// and doubles after every phase whose alarm was positive; the stage ends
// with the first alarm-free phase, at which point the root holds all
// packets w.h.p. (Lemmas 4 and 5).
//
// Within an OSPG(y) window:
//  * every non-root node draws, for each of its unacknowledged packets, a
//    uniform start slot in [1, 6y] (MSPG: `copies` slots) and unicasts the
//    packet towards the root along BFS parent pointers, one hop per round;
//  * relays forward a packet exactly one round after receiving it; there
//    is no retransmission — collided copies are simply lost;
//  * after the up window, the root acknowledges every packet received in
//    this window, spacing acknowledgments 3 rounds apart; relays route
//    each acknowledgment to the child that delivered the packet.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "core/schedule.hpp"
#include "protocols/alarm.hpp"
#include "radio/knowledge.hpp"
#include "radio/node.hpp"

namespace radiocast::core {

class ProtocolAuditSink;

class CollectionState {
 public:
  struct Config {
    /// The node's configuration; must outlive the state.
    const ResolvedConfig* rc = nullptr;
    /// Absolute round of this stage's start — converts the relative rounds
    /// this state machine runs on into run-global rounds for the audit
    /// sink.
    std::uint64_t round_offset = 0;
    /// Optional audit sink fed at phase and epoch boundaries, tagged with
    /// `audit_node`.
    ProtocolAuditSink* audit = nullptr;
    radio::NodeId audit_node = 0;
  };

  /// `parent` is this node's BFS parent (nullopt if the node never joined
  /// the tree — it then neither sources nor relays, but still follows the
  /// phase schedule and participates in alarm floods).
  CollectionState(const Config& cfg, radio::NodeId self, bool is_root,
                  std::optional<radio::NodeId> parent,
                  std::vector<radio::Packet> own_packets, Rng* rng);

  std::optional<radio::MessageBody> on_transmit(std::uint64_t rel_round);
  void on_receive(std::uint64_t rel_round, const radio::Message& msg);

  /// Poll hint after on_transmit(rel_round): the next round on_transmit
  /// must see. Pending relays, a non-empty root ack queue and a held alarm
  /// are served round by round; otherwise the node is due at its next own
  /// start slot, and never later than the current gather window's end
  /// (or, in the alarm window, the phase end) — the boundaries where
  /// advance() draws start slots and reports epochs and phases. Receptions
  /// are the only other state changes, and they re-arm polling themselves.
  std::uint64_t next_poll(std::uint64_t rel_round) const;

  /// Optional payload-buffer pool for outgoing DataMsg copies (usually the
  /// owning node's NodeProtocol::payload_arena). Null => heap-allocate,
  /// byte-identical either way.
  void set_payload_arena(radio::PayloadArena* arena) { arena_ = arena; }

  /// True once the stage ended (first alarm-free phase completed). The
  /// caller must keep driving on_transmit until this flips.
  bool finished() const { return finished_; }
  /// Stage length in rounds (valid once finished()).
  std::uint64_t finished_at() const { return finished_at_; }

  /// Root only: all collected packets (includes the root's own packets).
  const std::vector<radio::Packet>& collected() const { return collected_; }

  /// True iff all of this node's own packets were acknowledged.
  bool all_acked() const { return acked_count_ == own_packets_.size(); }
  std::size_t unacked_count() const { return own_packets_.size() - acked_count_; }

  /// The own packets that were never acknowledged (used by the dynamic
  /// variant to carry them into the next epoch).
  std::vector<radio::Packet> unacked_packets() const;

  std::uint32_t phases_run() const { return phase_index_; }
  std::uint64_t estimate() const { return estimate_; }

 private:
  struct OwnPacket {
    radio::Packet packet;
    bool acked = false;
  };

  void advance(std::uint64_t rel_round);
  void begin_phase(std::uint64_t phase_start);
  void begin_window(std::size_t window_index);
  /// Index of the gather window containing `offset` (relative to the
  /// grabbing epoch), or npos if `offset` is in the alarm window.
  static constexpr std::size_t kAlarm = static_cast<std::size_t>(-1);

  Config cfg_;
  radio::NodeId self_;
  bool is_root_;
  std::optional<radio::NodeId> parent_;
  Rng* rng_;
  radio::PayloadArena* arena_ = nullptr;

  std::vector<OwnPacket> own_packets_;
  std::size_t acked_count_ = 0;

  // Phase machinery.
  std::uint32_t phase_index_ = 0;
  std::uint64_t estimate_ = 0;
  std::uint64_t phase_start_ = 0;
  std::uint64_t grab_end_ = 0;   // rel round where the alarm window starts
  std::uint64_t phase_end_ = 0;
  std::vector<GatherWindow> windows_;
  std::size_t window_index_ = 0;
  bool alarm_started_ = false;
  bool finished_ = false;
  std::uint64_t finished_at_ = 0;

  // Per-window state.
  /// start slot (rel round, absolute within stage) -> own packet index.
  std::unordered_map<std::uint64_t, std::size_t> start_schedule_;
  /// In-flight relay forward: packet to send at `relay_round`.
  std::optional<radio::Packet> relay_packet_;
  std::uint64_t relay_round_ = 0;
  /// In-flight ack forward.
  std::optional<radio::AckMsg> relay_ack_;
  std::uint64_t relay_ack_round_ = 0;

  // Root state.
  std::vector<radio::Packet> collected_;
  std::unordered_map<radio::PacketId, bool> collected_ids_;
  /// Acks the root owes for packets received in the current window.
  std::vector<radio::AckMsg> ack_queue_;

  /// Persistent routing memory: packet id -> child that delivered it (the
  /// BFS path is fixed, so the child never changes).
  std::unordered_map<radio::PacketId, radio::NodeId> child_of_packet_;

  protocols::AlarmWindow alarm_;
};

}  // namespace radiocast::core
