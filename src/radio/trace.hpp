// Simulation trace: counters and (optionally) per-round event records.
//
// Counters are always on (they are what benches report); the event log is
// opt-in because end-to-end runs span millions of node-rounds.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

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
  /// the rounds skipped on a protocol's poll hint; 0 for rounds a packed
  /// source decided). A work counter, not a result: it stays out of every
  /// digest and report.
  std::uint64_t polls = 0;
  /// Per-message-kind breakdowns (indexed by message_kind_index).
  std::array<std::uint64_t, kNumMessageKinds> transmissions_by_kind{};
  std::array<std::uint64_t, kNumMessageKinds> deliveries_by_kind{};

  bool operator==(const TraceCounters&) const = default;
};

/// One delivered-or-lost reception opportunity, recorded only when event
/// logging is enabled.
struct TraceEvent {
  std::uint64_t round = 0;
  NodeId node = 0;  // the receiver-side node
  enum class Kind : std::uint8_t { kDelivered, kCollision, kDeaf } kind = Kind::kDelivered;
  std::string message_kind;  // empty for collisions
  NodeId from = 0;
};

class Trace {
 public:
  /// Default cap on the event log. A long end-to-end run produces one
  /// event per reception opportunity, so an unbounded log is an OOM risk;
  /// events past the cap are counted in dropped_events() instead of kept.
  static constexpr std::size_t kDefaultMaxEvents = 1u << 20;

  const TraceCounters& counters() const { return counters_; }
  TraceCounters& counters() { return counters_; }

  void enable_events(bool on) { events_enabled_ = on; }
  bool events_enabled() const { return events_enabled_; }
  /// Caps the event log at `cap` entries (0 keeps the current events but
  /// drops all further ones). Configuration, like enable_events.
  void set_max_events(std::size_t cap) { max_events_ = cap; }
  std::size_t max_events() const { return max_events_; }
  /// Events discarded because the log was full.
  std::uint64_t dropped_events() const { return dropped_events_; }

  void record(TraceEvent event);
  const std::vector<TraceEvent>& events() const { return events_; }
  void clear();

 private:
  TraceCounters counters_;
  bool events_enabled_ = false;
  std::size_t max_events_ = kDefaultMaxEvents;
  std::uint64_t dropped_events_ = 0;
  std::vector<TraceEvent> events_;
};

}  // namespace radiocast::radio
