// Dynamic multiple-message broadcast — the extension the paper's
// conclusion poses as an open direction: "in a more practical scenario,
// packets appear at nodes dynamically; a challenging direction would be to
// adapt 'static' solutions ... to such a more dynamic setting".
//
// This module adapts the static pipeline in the most direct way that
// preserves its guarantees:
//
//   Setup (once):  Stage 1 leader election (all nodes participate — in the
//                  dynamic setting every node is on from round 0) and
//                  Stage 2 BFS construction, exactly as in the paper.
//   Epoch e >= 0:  a collection sub-stage (the paper's Stage 3, over the
//                  packets that arrived before the epoch and are not yet
//                  delivered) followed by a dissemination window (the
//                  paper's Stage 4) sized for `batch_capacity` packets.
//
// Synchronization carries over unchanged: collection length is
// alarm-synchronized, and the dissemination window has a fixed,
// capacity-derived length so every node can compute the next epoch's start
// locally. If more than `batch_capacity` packets were collected, the root
// defers the excess to the next epoch's window (they are already acked, so
// sources do not retransmit). Packets arriving mid-epoch simply wait for
// the next collection sub-stage.
//
// The amortized cost per packet remains O(logΔ) whenever the arrival rate
// keeps epochs near capacity; the per-packet *latency* is bounded by two
// epoch lengths (one to be collected, one to be disseminated) — both
// measured by stream::run_stream, whose stream::StreamNode is the concrete
// node: it supplies the arrivals and observes the first holds through the
// two hooks below.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "core/collection.hpp"
#include "core/dissemination.hpp"
#include "core/params.hpp"
#include "protocols/bfs_construction.hpp"
#include "protocols/leader_election.hpp"
#include "radio/network.hpp"
#include "radio/node.hpp"

namespace radiocast::core {

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

class DynamicBroadcastNode : public radio::NodeProtocol {
 public:
  DynamicBroadcastNode(const DynamicConfig& cfg, radio::NodeId self, Rng rng);

  /// The transmit decision, followed by the poll hint (next_poll).
  std::optional<radio::MessageBody> on_transmit(radio::Round round) override;
  void on_receive(radio::Round round, const radio::Message& msg) override;

  /// All packets this node has delivered so far (own + decoded), keyed by id.
  const std::unordered_map<radio::PacketId, radio::Packet>& delivered() const {
    return delivered_;
  }

  bool is_leader() const { return leader_.is_leader(); }
  std::uint32_t epochs_completed() const { return epoch_; }

 protected:
  // --- Epoch re-entry hooks ---------------------------------------------

  /// Called at every collection re-entry (epoch start): returns the fresh
  /// application packets joining this epoch's collection sub-stage, after
  /// the carry-over of the previous epoch's unacked packets. This is the
  /// only reader of out-of-band arrivals, and it runs inside on_transmit
  /// at the epoch boundary, which every poll hint is capped at — so
  /// arrivals that land during a quiet spell are picked up in exactly the
  /// round they would be without hints.
  virtual std::vector<radio::Packet> take_epoch_packets() = 0;

  /// Fired exactly once per packet the first time this node holds it —
  /// its own admission (deliver() on a packet take_epoch_packets hands
  /// in), root harvest at the collect→disseminate boundary, or a Stage-4
  /// decode at the epoch close.
  virtual void on_packet_delivered(const radio::Packet& packet) = 0;

  /// Records `packet` as held by this node and fires on_packet_delivered
  /// on first sight. Subclasses use this to seed their own admissions.
  void deliver(radio::Packet packet);

 private:
  enum class Phase { kSetup, kCollect, kDisseminate };
  /// The transmit decision itself (on_transmit wraps it with the hint).
  std::optional<radio::MessageBody> transmit(radio::Round round);
  /// Absolute poll hint after transmit(round): the open phase's own
  /// next_poll, capped where advance() does lazy work — leader election
  /// at bfs_start_, BFS at setup_end_, collection at its phase end (its
  /// own next_poll already stops there), dissemination at the window end
  /// where the next epoch opens. So every phase switch, epoch re-entry
  /// and first-hold report happens in exactly the round it would without
  /// hints.
  radio::Round next_poll(radio::Round round) const;
  void advance(radio::Round round);
  void start_collect(radio::Round round);
  void start_disseminate(radio::Round round);

  DynamicConfig cfg_;
  radio::NodeId self_;
  Rng rng_;

  protocols::LeaderElectionState leader_;
  std::optional<protocols::BfsBuildState> bfs_;
  radio::Round setup_end_ = 0;
  radio::Round bfs_start_ = 0;
  /// cfg_.dissemination_window(), computed once: advance() reads it on
  /// every callback of the dissemination window.
  std::uint64_t dissem_window_ = 0;

  Phase phase_ = Phase::kSetup;
  std::uint32_t epoch_ = 0;
  radio::Round phase_start_ = 0;

  std::optional<CollectionState> collect_;
  std::optional<DisseminationState> dissem_;

  /// Root only: collected packets awaiting a dissemination slot.
  std::deque<radio::Packet> root_queue_;
  /// Root only: ids already disseminated (avoid re-sending re-collected
  /// duplicates).
  std::unordered_map<radio::PacketId, bool> root_sent_;

  std::unordered_map<radio::PacketId, radio::Packet> delivered_;
};

/// One packet arrival event: `packet` reaches `node` at `round`.
struct Arrival {
  radio::Round round = 0;
  radio::NodeId node = 0;
  radio::Packet packet;
};

/// Dynamic mode's finite arrival list: `k` packets at uniform random rounds
/// in [0, spread_rounds) and uniform random nodes, sorted by round.
std::vector<Arrival> make_arrivals(std::uint32_t n, std::uint32_t k,
                                   std::uint64_t spread_rounds,
                                   std::uint32_t payload_bytes, Rng& rng);

}  // namespace radiocast::core
