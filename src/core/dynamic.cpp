#include "core/dynamic.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/math_util.hpp"

namespace radiocast::core {

namespace {
protocols::LeaderElectionState::Config leader_config(const ResolvedConfig& rc) {
  protocols::LeaderElectionState::Config cfg;
  cfg.know = rc.know;
  cfg.probe_epochs = rc.leader_probe_epochs;
  return cfg;
}
}  // namespace

std::uint64_t DynamicConfig::dissemination_window() const {
  const std::uint64_t groups = ceil_div(resolved_capacity(), rc.group_size);
  const std::uint64_t phases = rc.group_spacing * groups + rc.know.d_hat + 4;
  return phases * rc.dissem_phase_rounds;
}

DynamicBroadcastNode::DynamicBroadcastNode(const DynamicConfig& cfg,
                                           radio::NodeId self, Rng rng)
    : cfg_(cfg),
      self_(self),
      rng_(rng),
      leader_(leader_config(cfg.rc), self, /*participant=*/true, &rng_) {
  bfs_start_ = cfg_.rc.stage1_rounds;
  setup_end_ = cfg_.rc.stage1_rounds + cfg_.rc.stage2_rounds;
  dissem_window_ = cfg_.dissemination_window();
}

void DynamicBroadcastNode::deliver(radio::Packet packet) {
  const auto [it, fresh] = delivered_.emplace(packet.id, std::move(packet));
  if (fresh) on_packet_delivered(it->second);
}

void DynamicBroadcastNode::start_collect(radio::Round round) {
  phase_ = Phase::kCollect;
  phase_start_ = round;
  std::vector<radio::Packet> own;
  // Carry over anything the previous epoch failed to acknowledge, then the
  // fresh arrivals.
  if (collect_.has_value() && !leader_.is_leader()) {
    own = collect_->unacked_packets();
  }
  for (radio::Packet& p : take_epoch_packets()) own.push_back(std::move(p));

  std::optional<radio::NodeId> parent;
  const bool is_root = leader_.is_leader();
  if (!is_root && bfs_.has_value() && bfs_->has_distance()) parent = bfs_->parent();
  collect_.emplace(CollectionState::Config{cfg_.rc}, self_, is_root, parent,
                   std::move(own), &rng_);
  collect_->set_payload_arena(payload_arena());
}

void DynamicBroadcastNode::start_disseminate(radio::Round round) {
  // Harvest the finished collection first.
  RC_ASSERT(collect_.has_value());
  if (leader_.is_leader()) {
    for (const radio::Packet& p : collect_->collected()) {
      if (root_sent_.emplace(p.id, false).second) {
        root_queue_.push_back(p);
      }
      deliver(p);
    }
  }
  phase_ = Phase::kDisseminate;
  phase_start_ = round;
  std::optional<std::uint32_t> dist;
  if (bfs_.has_value() && bfs_->has_distance()) dist = bfs_->distance();
  dissem_.emplace(DisseminationState::Config{cfg_.rc}, self_, leader_.is_leader(),
                  dist, &rng_);
  dissem_->set_payload_arena(payload_arena());
  if (leader_.is_leader()) {
    std::vector<radio::Packet> batch;
    const std::uint32_t capacity = cfg_.resolved_capacity();
    while (!root_queue_.empty() && batch.size() < capacity) {
      batch.push_back(std::move(root_queue_.front()));
      root_queue_.pop_front();
      root_sent_[batch.back().id] = true;
    }
    dissem_->set_root_packets(std::move(batch));
  }
}

void DynamicBroadcastNode::advance(radio::Round round) {
  for (bool changed = true; changed;) {
    changed = false;
    switch (phase_) {
      case Phase::kSetup:
        if (round >= bfs_start_ && !bfs_.has_value()) {
          leader_.finalize();
          protocols::BfsBuildState::Config cfg;
          cfg.know = cfg_.rc.know;
          cfg.epochs_per_phase = cfg_.rc.bfs_epochs_per_phase;
          cfg.extra_phases = cfg_.rc.bfs_phases - cfg_.rc.know.d_hat;
          bfs_.emplace(cfg, self_, leader_.is_leader(), &rng_);
        }
        if (round >= setup_end_) {
          start_collect(setup_end_);
          changed = true;
        }
        break;
      case Phase::kCollect:
        if (collect_->finished()) {
          start_disseminate(phase_start_ + collect_->finished_at());
          changed = true;
        }
        break;
      case Phase::kDisseminate:
        if (round >= phase_start_ + dissem_window_) {
          // Harvest whatever decoded and begin the next epoch.
          if (dissem_.has_value()) {
            for (radio::Packet& p : dissem_->packets()) {
              deliver(std::move(p));
            }
          }
          ++epoch_;
          start_collect(phase_start_ + dissem_window_);
          changed = true;
        }
        break;
    }
  }
}

std::optional<radio::MessageBody> DynamicBroadcastNode::on_transmit(
    radio::Round round) {
  std::optional<radio::MessageBody> msg = transmit(round);
  set_quiet_until(next_poll(round));
  return msg;
}

radio::Round DynamicBroadcastNode::next_poll(radio::Round round) const {
  switch (phase_) {
    case Phase::kSetup:
      if (round < bfs_start_) return std::min(leader_.next_poll(round), bfs_start_);
      return std::min(bfs_start_ + bfs_->next_poll(round - bfs_start_), setup_end_);
    case Phase::kCollect:
      // Capped at the phase end, where collection may finish.
      return phase_start_ + collect_->next_poll(round - phase_start_);
    case Phase::kDisseminate:
      return phase_start_ +
             std::min(dissem_->next_poll(round - phase_start_), dissem_window_);
  }
  return round + 1;
}

std::optional<radio::MessageBody> DynamicBroadcastNode::transmit(radio::Round round) {
  advance(round);
  switch (phase_) {
    case Phase::kSetup:
      if (round < bfs_start_) return leader_.on_transmit(round);
      return bfs_->on_transmit(round - bfs_start_);
    case Phase::kCollect: {
      auto msg = collect_->on_transmit(round - phase_start_);
      advance(round);
      if (phase_ == Phase::kDisseminate) {
        return dissem_->on_transmit(round - phase_start_);
      }
      return msg;
    }
    case Phase::kDisseminate:
      return dissem_->on_transmit(round - phase_start_);
  }
  return std::nullopt;
}

void DynamicBroadcastNode::on_receive(radio::Round round, const radio::Message& msg) {
  advance(round);
  switch (phase_) {
    case Phase::kSetup:
      if (round < bfs_start_) {
        leader_.on_receive(round, msg);
      } else {
        bfs_->on_receive(round - bfs_start_, msg);
      }
      return;
    case Phase::kCollect:
      collect_->on_receive(round - phase_start_, msg);
      advance(round);
      if (phase_ == Phase::kDisseminate) {
        dissem_->on_receive(round - phase_start_, msg);
      }
      return;
    case Phase::kDisseminate:
      dissem_->on_receive(round - phase_start_, msg);
      return;
  }
}

std::vector<Arrival> make_arrivals(std::uint32_t n, std::uint32_t k,
                                   std::uint64_t spread_rounds,
                                   std::uint32_t payload_bytes, Rng& rng) {
  std::vector<Arrival> arrivals;
  std::vector<std::uint32_t> seq(n, 0);
  arrivals.reserve(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    Arrival a;
    a.round = rng.next_below(std::max<std::uint64_t>(1, spread_rounds));
    a.node = static_cast<radio::NodeId>(rng.next_below(n));
    a.packet.id = radio::make_packet_id(a.node, seq[a.node]++);
    a.packet.payload.resize(payload_bytes);
    for (auto& b : a.packet.payload) b = static_cast<std::uint8_t>(rng() & 0xff);
    arrivals.push_back(std::move(a));
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& x, const Arrival& y) { return x.round < y.round; });
  return arrivals;
}

}  // namespace radiocast::core
