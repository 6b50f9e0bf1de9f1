// Test helper shared by the radio tests: an audit hook that records every
// reception outcome the engine reports, in report order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "radio/network.hpp"

namespace radiocast::radio {

class SlotRecorder final : public NetworkAuditHook {
 public:
  enum class Outcome { kDelivered, kCollision, kDeaf, kFaultDrop };
  struct Slot {
    Round round = 0;
    NodeId node = 0;  ///< the receiver
    Outcome outcome = Outcome::kDelivered;
    std::string message_kind;  ///< delivered slots only
    NodeId from = 0;           ///< delivered slots only
  };

  void on_deliver(Round round, NodeId receiver, std::uint32_t,
                  const Message& msg) override {
    slots.push_back({round, receiver, Outcome::kDelivered, message_kind(msg.body),
                     msg.from});
  }
  void on_collision_slot(Round round, NodeId receiver, std::uint32_t, bool) override {
    slots.push_back({round, receiver, Outcome::kCollision, {}, 0});
  }
  void on_deaf_slot(Round round, NodeId receiver, std::uint32_t) override {
    slots.push_back({round, receiver, Outcome::kDeaf, {}, 0});
  }
  void on_fault_drop(Round round, NodeId receiver, std::uint32_t) override {
    slots.push_back({round, receiver, Outcome::kFaultDrop, {}, 0});
  }

  std::vector<Slot> slots;
};

}  // namespace radiocast::radio
