// Test helper shared by the lock-step tests: an audit hook that keeps the
// transmitter ids and message kinds of the latest round, so two networks
// stepped in lock step can be compared round by round.
#pragma once

#include <cstddef>
#include <vector>

#include "radio/network.hpp"

namespace radiocast::audit {

class TransmitRecorder final : public radio::NetworkAuditHook {
 public:
  void on_transmissions(radio::Round /*round*/,
                        const std::vector<radio::Message>& txs) override {
    senders.clear();
    kinds.clear();
    for (const radio::Message& m : txs) {
      senders.push_back(m.from);
      kinds.push_back(radio::message_kind_index(m.body));
    }
  }

  std::vector<radio::NodeId> senders;
  std::vector<std::size_t> kinds;  ///< message_kind_index, one per sender
};

}  // namespace radiocast::audit
