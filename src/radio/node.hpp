// Per-node protocol interface.
//
// A NodeProtocol is a synchronous state machine driven by the Network: at
// every round the engine first collects transmission decisions from the
// awake nodes that are due a poll (on_transmit; see quiet_until), then
// applies the radio collision rule and delivers at most one message per
// listening node (on_receive).
//
// Model contract (matches the paper's Section 1 model):
//  * a node that transmits in a round hears nothing that round;
//  * a node receives iff exactly one of its neighbors transmits;
//  * there is no collision detection — a node cannot distinguish silence
//    from collision, and the engine never exposes that difference;
//  * sleeping nodes never transmit but do receive; the first successful
//    reception wakes them (on_wake fires before on_receive).
#pragma once

#include <cstdint>
#include <optional>

#include "radio/message.hpp"
#include "radio/payload_arena.hpp"

namespace radiocast::radio {

using Round = std::uint64_t;

class NodeProtocol {
 public:
  virtual ~NodeProtocol() = default;

  /// Payload-buffer recycling pool, wired by Network::set_protocol (null
  /// for protocols driven outside a Network). Purely an allocation hint:
  /// message bytes are identical with or without it, so protocols use it
  /// opportunistically — `arena ? arena->acquire_copy(p) : p`.
  void set_payload_arena(PayloadArena* arena) { payload_arena_ = arena; }
  PayloadArena* payload_arena() const { return payload_arena_; }

  /// Fired when the node wakes: either at round 0 (initially awake nodes)
  /// or on first reception. Guaranteed to fire before any other callback.
  virtual void on_wake(Round /*round*/) {}

  /// Transmission decision for the current round. Called at most once per
  /// round for an awake node: every round by default, but a protocol may
  /// declare (set_quiet_until, from inside this call) the first round at
  /// which it needs the next call, and the engine skips it until then
  /// unless another callback reaches the node first. Returning a message
  /// transmits it to all neighbors (subject to collisions at each
  /// receiver).
  virtual std::optional<MessageBody> on_transmit(Round round) = 0;

  /// Delivery of a successfully received message (exactly one transmitting
  /// neighbor, and this node did not transmit this round).
  virtual void on_receive(Round /*round*/, const Message& /*msg*/) {}

  /// Fired instead of on_receive when >= 2 neighbors transmitted AND the
  /// network was built with collision detection enabled (an ablation of
  /// the paper's model, which explicitly has no such feedback — see
  /// Network::enable_collision_detection). Never fired in the default
  /// model.
  virtual void on_collision(Round /*round*/) {}

  /// Optional completion signal used by runners to stop the simulation
  /// early once all nodes report done. Must be monotone (once true, stays
  /// true).
  virtual bool done() const { return false; }

  /// The poll hint the last on_transmit left: the engine's next on_transmit
  /// call for this node comes no earlier than this round, unless on_wake,
  /// on_receive or on_collision fires first (each of which re-arms polling
  /// from the next round). 0, the default, means "poll next round".
  Round quiet_until() const { return quiet_until_; }

 protected:
  /// Declares, from inside on_transmit, that this node needs no on_transmit
  /// call before `round`. Sound only if, until then, the protocol would
  /// stay silent, draw no randomness and change no state anyone can
  /// observe (done(), introspection, observer and audit reports) on every
  /// skipped call. A protocol that sets a hint must set it on every call:
  /// the engine reads it after each one.
  void set_quiet_until(Round round) { quiet_until_ = round; }

 private:
  PayloadArena* payload_arena_ = nullptr;
  Round quiet_until_ = 0;
};

}  // namespace radiocast::radio
