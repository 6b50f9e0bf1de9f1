// The open-system node: core::KBroadcastNode's epoch loop fed through a
// bounded, policy-governed source buffer, with offer() the one way in for
// arrivals.
//
// Every arrival goes through a SourceQueue (dynamic mode gives it an
// unbounded one), and the node appends every first-hold event and epoch
// re-entry to the run's HoldLog in the round it happens, so the driver can
// compute exact per-packet delivery latencies without visiting every node
// every round. It keeps what only the open system reads — the buffer and
// the first-hold map — so a static run's nodes carry neither.
//
// StreamNode inherits KBroadcastNode's poll hint unchanged: offer() needs
// no re-arm, because only take_epoch_packets() reads the buffer and it
// runs at an epoch boundary, where every hint is capped.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/protocol.hpp"
#include "stream/queue.hpp"

namespace radiocast::stream {

/// Per-run event log shared by every StreamNode of one run. Nodes append
/// during Network::step; the driver consumes `held` right after each step,
/// so every event is accounted in the round it happened.
struct HoldLog {
  /// Packet ids first held by some node since the driver last cleared
  /// this, in callback order (one entry per (packet, node) first hold).
  std::vector<radio::PacketId> held;
  /// Highest epoch any node has entered (a node's epochs_completed() at
  /// its latest epoch re-entry).
  std::uint32_t epoch = 0;
};

class StreamNode final : public core::KBroadcastNode {
 public:
  /// `log` must outlive the node; every node of a run shares one.
  StreamNode(const core::DynamicConfig& cfg, radio::NodeId self, Rng rng,
             std::uint32_t buffer_capacity, BufferPolicy policy, HoldLog* log)
      : core::KBroadcastNode(cfg, self, rng),
        queue_(buffer_capacity, policy),
        log_(log) {}

  /// Application-side arrival: the packet goes through the bounded buffer,
  /// NOT directly into the pipeline. Returns true if buffered immediately.
  /// Safe during a quiet spell with no re-arm: nothing reads the buffer
  /// before the next epoch re-entry (take_epoch_packets).
  bool offer(radio::Packet packet) { return queue_.offer(std::move(packet)); }

  const SourceQueue& queue() const { return queue_; }

  /// All packets this node has held so far (own admissions + decoded),
  /// keyed by id.
  const std::unordered_map<radio::PacketId, radio::Packet>& delivered() const {
    return delivered_;
  }

 protected:
  /// Epoch re-entry drains the buffer (which refills from any
  /// backpressure holdback) and logs the epoch just entered. Runs inside
  /// on_transmit at the epoch boundary, never inside a quiet spell.
  std::vector<radio::Packet> take_epoch_packets() override {
    log_->epoch = std::max(log_->epoch, epochs_completed());
    std::vector<radio::Packet> out = queue_.drain();
    // Admitted packets count as held by their source the moment they
    // enter the pipeline (a buffered-then-dropped packet is never "held").
    for (const radio::Packet& p : out) on_packet_delivered(p);
    return out;
  }

  /// Keeps the first hold of each packet and logs it.
  void on_packet_delivered(const radio::Packet& packet) override {
    if (delivered_.try_emplace(packet.id, packet).second) log_->held.push_back(packet.id);
  }

 private:
  SourceQueue queue_;
  HoldLog* log_;
  std::unordered_map<radio::PacketId, radio::Packet> delivered_;
};

}  // namespace radiocast::stream
