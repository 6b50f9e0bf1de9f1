// The open-system node: core::KBroadcastNode's epoch loop fed through a
// bounded, policy-governed source buffer, with offer() the one way in for
// arrivals.
//
// Every arrival goes through a SourceQueue (dynamic mode gives it an
// unbounded one), and the node appends every first-hold event and epoch
// re-entry to the run's HoldLog in the round it happens, so the driver can
// compute exact per-packet delivery latencies without visiting every node
// every round. KBroadcastNode reports each packet the node comes to hold
// exactly once, so the node keeps no record of what it holds: it keeps
// only what the open system reads, the buffer and the log pointer.
//
// StreamNode inherits KBroadcastNode's poll hint unchanged: offer() needs
// no re-arm, because only take_epoch_packets() reads the buffer and it
// runs at an epoch boundary, where every hint is capped.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/protocol.hpp"
#include "stream/queue.hpp"

namespace radiocast::stream {

/// Per-run event log shared by every StreamNode of one run. Nodes append
/// during Network::step; the driver consumes `held` right after each step,
/// so every event is accounted in the round it happened.
struct HoldLog {
  /// Packet ids first held by some node since the driver last cleared
  /// this, in callback order: one entry per (packet, node) first hold, as
  /// the node reports each packet it comes to hold once.
  std::vector<radio::PacketId> held;
  /// Highest epoch any node has entered (a node's epochs_completed() at
  /// its latest epoch re-entry).
  std::uint32_t epoch = 0;
};

class StreamNode : public core::KBroadcastNode {
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

 protected:
  /// Epoch re-entry drains the buffer (which refills from any
  /// backpressure holdback) and logs the epoch just entered. Runs inside
  /// on_transmit at the epoch boundary, never inside a quiet spell. The
  /// drained packets are held from here on (a buffered-then-dropped
  /// packet never is).
  std::vector<radio::Packet> take_epoch_packets() override {
    log_->epoch = std::max(log_->epoch, epochs_completed());
    return queue_.drain();
  }

  /// Logs the first hold: KBroadcastNode reports each packet once.
  void on_packet_delivered(const radio::Packet& packet) override {
    log_->held.push_back(packet.id);
  }

 private:
  SourceQueue queue_;
  HoldLog* log_;
};

}  // namespace radiocast::stream
