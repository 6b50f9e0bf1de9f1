// Test helper shared by the open-system tests: a stream::StreamNode that
// records every on_packet_delivered report, with the bytes it carried,
// before passing it on. The node keeps no copy of what it holds — it
// reports each first hold once, and the run's HoldLog counts holders — so
// tests read the packets a node holds, and their payloads, from here.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "stream/stream_node.hpp"

namespace radiocast::audit {

class HoldRecorder final : public stream::StreamNode {
 public:
  using stream::StreamNode::StreamNode;

  /// Every report of each packet id, in callback order: the payload each
  /// report carried.
  const std::unordered_map<radio::PacketId, std::vector<gf2::Payload>>& reports() const {
    return reports_;
  }
  /// Packets this node holds (each reported at least once).
  std::size_t held() const { return reports_.size(); }
  /// The payload `id` was first reported with; null if it never was.
  const gf2::Payload* payload(radio::PacketId id) const {
    const auto it = reports_.find(id);
    return it == reports_.end() ? nullptr : &it->second.front();
  }

 protected:
  void on_packet_delivered(const radio::Packet& packet) override {
    reports_[packet.id].push_back(packet.payload);
    stream::StreamNode::on_packet_delivered(packet);
  }

 private:
  std::unordered_map<radio::PacketId, std::vector<gf2::Payload>> reports_;
};

}  // namespace radiocast::audit
