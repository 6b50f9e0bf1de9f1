#include "protocols/bfs_construction.hpp"

#include <algorithm>

namespace radiocast::protocols {

BfsBuildState::BfsBuildState(const Config& cfg, radio::NodeId self, bool is_root,
                             Rng* rng)
    : cfg_(cfg),
      self_(self),
      rng_(rng),
      decay_(cfg.know.log_delta()),
      parent_(self) {
  RC_ASSERT(rng != nullptr);
  RC_ASSERT(cfg.epochs_per_phase >= 1);
  phase_rounds_ =
      static_cast<std::uint64_t>(cfg.epochs_per_phase) * cfg_.know.log_delta();
  phases_ = cfg.know.d_hat + cfg.extra_phases;
  total_rounds_ = phases_ * phase_rounds_;
  if (is_root) dist_ = 0;
}

std::optional<radio::MessageBody> BfsBuildState::on_transmit(std::uint64_t rel_round) {
  if (!dist_.has_value() || rel_round >= total_rounds_) return std::nullopt;
  const std::uint64_t phase = rel_round / phase_rounds_;
  // In phase d, exactly the distance-d layer transmits.
  if (phase != *dist_) return std::nullopt;
  if (!decay_.decide(rel_round, *rng_)) return std::nullopt;
  return radio::BfsConstructMsg{self_, *dist_};
}

std::uint64_t BfsBuildState::next_poll(std::uint64_t rel_round) const {
  if (!dist_.has_value()) return total_rounds_;
  const std::uint64_t begin = std::min(*dist_ * phase_rounds_, total_rounds_);
  const std::uint64_t end = std::min(begin + phase_rounds_, total_rounds_);
  const std::uint64_t next = rel_round + 1;
  if (next < begin) return begin;
  return next < end ? next : total_rounds_;
}

void BfsBuildState::on_receive(std::uint64_t /*rel_round*/, const radio::Message& msg) {
  if (dist_.has_value()) return;  // first construction message wins
  const auto* construct = std::get_if<radio::BfsConstructMsg>(&msg.body);
  if (construct == nullptr) return;
  dist_ = construct->dist + 1;
  parent_ = construct->id;
}

}  // namespace radiocast::protocols
