// InterceptingProtocol — a transparent NodeProtocol wrapper for testing
// and instrumentation.
//
// Wraps an inner protocol and invokes user callbacks on every transmit
// decision and delivery, without changing behaviour. Tests use it to
// assert message discipline (e.g. "no Stage-3 unicast traffic during
// dissemination"), build per-round histograms, or inject observation
// points into end-to-end runs that the runners set up.
//
// The wrapper never forwards the inner protocol's poll hint
// (NodeProtocol::quiet_until), so a wrapped node is polled every round it
// is awake: the transmit hook sees every round, including those the bare
// protocol would have skipped. The inner hint stays readable through
// inner().quiet_until().
#pragma once

#include <functional>
#include <memory>
#include <utility>

#include "radio/node.hpp"

namespace radiocast::radio {

class InterceptingProtocol final : public NodeProtocol {
 public:
  /// Called after the inner protocol's transmit decision; may observe (not
  /// alter) the outcome.
  using TransmitHook =
      std::function<void(Round, const std::optional<MessageBody>&)>;
  /// Called before the inner protocol's on_receive.
  using ReceiveHook = std::function<void(Round, const Message&)>;
  using WakeHook = std::function<void(Round)>;
  /// Called before the inner protocol's on_collision (fires only under the
  /// collision-detection ablation, like the callback it observes).
  using CollisionHook = std::function<void(Round)>;

  explicit InterceptingProtocol(std::unique_ptr<NodeProtocol> inner)
      : inner_(std::move(inner)) {
    RC_ASSERT(inner_ != nullptr);
  }

  void set_transmit_hook(TransmitHook hook) { on_transmit_ = std::move(hook); }
  void set_receive_hook(ReceiveHook hook) { on_receive_ = std::move(hook); }
  void set_wake_hook(WakeHook hook) { on_wake_ = std::move(hook); }
  void set_collision_hook(CollisionHook hook) { on_collision_ = std::move(hook); }

  void on_wake(Round round) override {
    if (on_wake_) on_wake_(round);
    inner_->on_wake(round);
  }

  std::optional<MessageBody> on_transmit(Round round) override {
    std::optional<MessageBody> out = inner_->on_transmit(round);
    if (on_transmit_) on_transmit_(round, out);
    return out;
  }

  void on_receive(Round round, const Message& msg) override {
    if (on_receive_) on_receive_(round, msg);
    inner_->on_receive(round, msg);
  }

  void on_collision(Round round) override {
    if (on_collision_) on_collision_(round);
    inner_->on_collision(round);
  }

  bool done() const override { return inner_->done(); }

  NodeProtocol& inner() { return *inner_; }
  const NodeProtocol& inner() const { return *inner_; }

 private:
  std::unique_ptr<NodeProtocol> inner_;
  TransmitHook on_transmit_;
  ReceiveHook on_receive_;
  WakeHook on_wake_;
  CollisionHook on_collision_;
};

}  // namespace radiocast::radio
