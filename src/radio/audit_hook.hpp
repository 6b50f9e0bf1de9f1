// NetworkAuditHook — the engine-side tap of the model-conformance auditor.
//
// A hook installed via Network::set_auditor sees, every round, the raw
// transmission set (after the engine collected all on_transmit decisions)
// followed by one event per reception outcome the engine produced, in the
// scalar sweep's receiver-touch order: an installed hook sends every
// round to that sweep, under every engine mode. The hook is strictly an
// observer: it owns no RNG draws and cannot alter the round, so an audited
// run is bit-identical to an unaudited one. When no hook is installed the
// only per-round cost is a handful of null checks.
//
// The consumers are audit::ChannelAuditor — attached directly, or through
// the audit::ModelAuditor that forwards every event to one — which
// recomputes every outcome independently from the transmission set and
// the topology and cross-checks the engine (see src/audit/), and the
// flight recorder's obs::RunObserver and obs::PacketTracer. Several of
// them share the engine's one slot through a core::TapList. The interface
// lives in the radio layer so the engine never depends on either
// subsystem.
#pragma once

#include <cstdint>
#include <vector>

#include "radio/message.hpp"
#include "radio/node.hpp"

namespace radiocast::radio {

/// Every event defaults to a no-op, so a hook overrides only what it reads.
class NetworkAuditHook {
 public:
  virtual ~NetworkAuditHook() = default;

  /// Fired once, inside the first step() before any protocol callback,
  /// with the ids flagged by wake_at_start (ascending order not
  /// guaranteed). All other nodes are asleep at this point.
  virtual void on_sim_start(const std::vector<NodeId>& /*initially_awake*/) {}

  /// The complete transmission set of round `round`, in ascending
  /// transmitter-id order, exactly as the engine will apply the collision
  /// rule to it. The vector is owned by the engine and valid until the
  /// end of the current step() only.
  virtual void on_transmissions(Round /*round*/, const std::vector<Message>& /*txs*/) {}

  /// Node `receiver` got `msg` delivered (`tx_index` indexes into this
  /// round's transmission set). Fired before the receiver's wake /
  /// on_receive callbacks.
  virtual void on_deliver(Round /*round*/, NodeId /*receiver*/,
                          std::uint32_t /*tx_index*/, const Message& /*msg*/) {}

  /// Node `receiver` was reached by `reached` >= 2 transmissions and lost
  /// the slot to collision. `cd_callback` reports whether the engine is
  /// about to fire on_collision (true only under the collision-detection
  /// ablation).
  virtual void on_collision_slot(Round /*round*/, NodeId /*receiver*/,
                                 std::uint32_t /*reached*/, bool /*cd_callback*/) {}

  /// Node `receiver` was reached while itself transmitting (half-duplex
  /// deafness; `reached` >= 1).
  virtual void on_deaf_slot(Round /*round*/, NodeId /*receiver*/,
                            std::uint32_t /*reached*/) {}

  /// A successful slot at `receiver` was erased by the fault model
  /// (`tx_index` is the transmission that would have been delivered).
  virtual void on_fault_drop(Round /*round*/, NodeId /*receiver*/,
                             std::uint32_t /*tx_index*/) {}

  /// Node `node` transitions from asleep to awake this round (first
  /// reception, or first collision under the CD ablation). Initial wakes
  /// are reported via on_sim_start, not here.
  virtual void on_node_wake(Round /*round*/, NodeId /*node*/) {}

  /// All outcomes of round `round` have been reported.
  virtual void on_round_end(Round /*round*/) {}
};

}  // namespace radiocast::radio
