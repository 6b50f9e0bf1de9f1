// Simulation trace: the engine's run-wide channel counters. They are always
// on (they are what runs digest and benches report); per-slot events go to
// an attached NetworkAuditHook instead (radio/audit_hook.hpp).
#pragma once

#include <array>
#include <cstdint>

#include "radio/message.hpp"

namespace radiocast::radio {

struct TraceCounters {
  std::uint64_t rounds = 0;
  std::uint64_t transmissions = 0;
  /// Successful deliveries (node-rounds with exactly one reaching message).
  std::uint64_t deliveries = 0;
  /// Node-rounds where >= 2 neighbors transmitted (lost to collision).
  std::uint64_t collision_slots = 0;
  /// Node-rounds where a message reached a node that was itself
  /// transmitting (lost to half-duplex deafness).
  std::uint64_t deaf_slots = 0;
  /// Receptions erased by the injected fault model (0 without faults).
  std::uint64_t fault_drops = 0;
  /// Total bits put on the air.
  std::uint64_t bits_transmitted = 0;
  /// Total bits successfully delivered (summed over receivers).
  std::uint64_t bits_delivered = 0;
  std::uint64_t wakeups = 0;
  /// on_transmit calls the engine actually made (awake node-rounds minus
  /// the rounds skipped on a protocol's poll hint). A work counter, not a
  /// result: it stays out of every digest and report.
  std::uint64_t polls = 0;
  /// Per-message-kind breakdowns (indexed by message_kind_index).
  std::array<std::uint64_t, kNumMessageKinds> transmissions_by_kind{};
  std::array<std::uint64_t, kNumMessageKinds> deliveries_by_kind{};

  bool operator==(const TraceCounters&) const = default;
};

class Trace {
 public:
  const TraceCounters& counters() const { return counters_; }
  TraceCounters& counters() { return counters_; }

 private:
  TraceCounters counters_;
};

}  // namespace radiocast::radio
