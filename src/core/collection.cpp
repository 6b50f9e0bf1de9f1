#include "core/collection.hpp"

#include <utility>

#include "common/assert.hpp"
#include "core/audit.hpp"

namespace radiocast::core {

CollectionState::CollectionState(const Config& cfg, radio::NodeId self, bool is_root,
                                 std::optional<radio::NodeId> parent,
                                 std::vector<radio::Packet> own_packets, Rng* rng)
    : cfg_(cfg),
      self_(self),
      is_root_(is_root),
      parent_(parent),
      rng_(rng),
      alarm_(cfg.rc->know.log_delta(), rng) {
  RC_ASSERT(rng != nullptr);
  for (radio::Packet& p : own_packets) {
    own_packets_.push_back(OwnPacket{std::move(p), false});
  }
  if (is_root_) {
    // The root's own packets are collected by definition (and acked: the
    // root never alarms for them).
    for (OwnPacket& op : own_packets_) {
      op.acked = true;
      ++acked_count_;
      collected_ids_.emplace(op.packet.id, true);
      collected_.push_back(op.packet);
    }
  }
  estimate_ = cfg_.rc->initial_estimate;
  begin_phase(0);
}

std::vector<radio::Packet> CollectionState::unacked_packets() const {
  std::vector<radio::Packet> out;
  for (const OwnPacket& op : own_packets_) {
    if (!op.acked) out.push_back(op.packet);
  }
  return out;
}

void CollectionState::begin_phase(std::uint64_t phase_start) {
  phase_start_ = phase_start;
  windows_ = grab_windows(estimate_, *cfg_.rc);
  grab_end_ = phase_start_ + windows_.back().end();
  phase_end_ = grab_end_ + cfg_.rc->alarm_rounds;
  window_index_ = 0;
  alarm_started_ = false;
  if (cfg_.audit != nullptr) {
    cfg_.audit->on_collection_phase_begin(cfg_.audit_node, phase_index_, estimate_,
                                          cfg_.round_offset + phase_start_);
  }
  begin_window(0);
}

void CollectionState::begin_window(std::size_t window_index) {
  RC_ASSERT(window_index < windows_.size());
  const GatherWindow& w = windows_[window_index];
  if (cfg_.audit != nullptr) {
    cfg_.audit->on_collection_epoch(
        cfg_.audit_node, w.copies > 1 ? "mspg" : "ospg", w.slots, w.copies,
        cfg_.round_offset + phase_start_ + w.start);
  }
  start_schedule_.clear();
  relay_packet_.reset();
  relay_ack_.reset();
  ack_queue_.clear();
  if (is_root_) return;
  // Draw start slots for every unacknowledged own packet (one per copy).
  const std::uint64_t window_start = phase_start_ + w.start;
  for (std::size_t i = 0; i < own_packets_.size(); ++i) {
    if (own_packets_[i].acked) continue;
    for (std::uint32_t c = 0; c < w.copies; ++c) {
      const std::uint64_t slot = 1 + rng_->next_below(w.slots);
      // First packet assigned to a slot keeps it ("the node unicasts only
      // one of them, selected arbitrarily").
      start_schedule_.emplace(window_start + (slot - 1), i);
    }
  }
}

void CollectionState::advance(std::uint64_t rel_round) {
  while (!finished_) {
    if (rel_round >= phase_end_) {
      // Phase boundary: alarm outcome decides between doubling and ending.
      const bool alarmed = alarm_started_ && alarm_.positive();
      if (cfg_.audit != nullptr) {
        cfg_.audit->on_collection_phase_end(cfg_.audit_node,
                                            cfg_.round_offset + phase_end_, alarmed);
      }
      if (alarmed) {
        estimate_ *= 2;
        ++phase_index_;
        begin_phase(phase_end_);
        continue;
      }
      finished_ = true;
      finished_at_ = phase_end_;
      ++phase_index_;
      return;
    }
    if (rel_round >= grab_end_) {
      if (!alarm_started_) {
        alarm_started_ = true;
        alarm_.reset(!is_root_ && acked_count_ < own_packets_.size());
        if (cfg_.audit != nullptr) {
          cfg_.audit->on_collection_epoch(cfg_.audit_node, "alarm", 0, 0,
                                          cfg_.round_offset + grab_end_);
        }
      }
      return;
    }
    // Inside the grabbing epoch: step the window pointer forward.
    while (window_index_ + 1 < windows_.size() &&
           rel_round >= phase_start_ + windows_[window_index_].end()) {
      ++window_index_;
      begin_window(window_index_);
    }
    return;
  }
}

std::optional<radio::MessageBody> CollectionState::on_transmit(std::uint64_t rel_round) {
  advance(rel_round);
  if (finished_) return std::nullopt;

  if (rel_round >= grab_end_) {
    return alarm_.on_transmit(rel_round - grab_end_);
  }

  const GatherWindow& w = windows_[window_index_];
  const std::uint64_t window_start = phase_start_ + w.start;
  if (rel_round < window_start) return std::nullopt;  // between windows (cannot happen)
  const std::uint64_t off = rel_round - window_start;

  if (off < w.up_rounds) {
    // Upstream unicast window. A pending relay forward takes priority over
    // starting an own packet (dropping a half-delivered packet wastes the
    // path progress already made; the skipped own start is retried by a
    // later window or phase).
    if (relay_packet_.has_value() && relay_round_ == rel_round) {
      radio::Packet packet = std::move(*relay_packet_);
      relay_packet_.reset();
      RC_ASSERT(parent_.has_value());  // only tree members schedule relays
      return radio::DataMsg{std::move(packet), *parent_};
    }
    const auto it = start_schedule_.find(rel_round);
    if (it != start_schedule_.end() && parent_.has_value()) {
      const OwnPacket& op = own_packets_[it->second];
      if (!op.acked) {
        radio::Packet copy;
        copy.id = op.packet.id;
        copy.payload = arena_ != nullptr ? arena_->acquire_copy(op.packet.payload)
                                         : op.packet.payload;
        return radio::DataMsg{std::move(copy), *parent_};
      }
    }
    return std::nullopt;
  }

  // Acknowledgment window.
  const std::uint64_t ack_off = off - w.up_rounds;
  if (is_root_) {
    if (ack_off % 3 == 0) {
      const std::size_t index = static_cast<std::size_t>(ack_off / 3);
      if (index < ack_queue_.size()) return ack_queue_[index];
    }
    return std::nullopt;
  }
  if (relay_ack_.has_value() && relay_ack_round_ == rel_round) {
    radio::AckMsg ack = *relay_ack_;
    relay_ack_.reset();
    return ack;
  }
  return std::nullopt;
}

std::uint64_t CollectionState::next_poll(std::uint64_t rel_round) const {
  const std::uint64_t next = rel_round + 1;
  if (finished_) return next;
  if (rel_round >= grab_end_) return alarm_.positive() ? next : phase_end_;
  if (relay_packet_.has_value() || relay_ack_.has_value() || !ack_queue_.empty()) {
    return next;
  }
  // The last window ends at grab_end_, so this also caps at the alarm start.
  std::uint64_t due = phase_start_ + windows_[window_index_].end();
  for (const auto& entry : start_schedule_) {
    if (entry.first > rel_round && entry.first < due) due = entry.first;
  }
  return due;
}

void CollectionState::on_receive(std::uint64_t rel_round, const radio::Message& msg) {
  advance(rel_round);
  if (finished_) return;

  if (rel_round >= grab_end_) {
    alarm_.on_receive(msg.body);
    return;
  }

  const GatherWindow& w = windows_[window_index_];
  const std::uint64_t window_start = phase_start_ + w.start;
  if (rel_round < window_start) return;
  const std::uint64_t off = rel_round - window_start;
  const std::uint64_t window_end = window_start + w.total_rounds();

  if (const auto* data = std::get_if<radio::DataMsg>(&msg.body)) {
    if (data->to != self_ || off >= w.up_rounds) return;
    // The BFS path of a packet is fixed, so the delivering child never
    // changes; remember it for routing the acknowledgment downwards.
    child_of_packet_[data->packet.id] = msg.from;
    if (is_root_) {
      if (collected_ids_.emplace(data->packet.id, true).second) {
        collected_.push_back(data->packet);
      }
      // Re-acknowledge duplicates too: the origin may have missed an
      // earlier acknowledgment.
      ack_queue_.push_back(radio::AckMsg{data->packet.id, msg.from});
      return;
    }
    // Relay: forward one round later if that round is still inside the up
    // window; otherwise the copy dies here (no recovery, per the paper).
    if (rel_round + 1 < window_start + w.up_rounds && !relay_packet_.has_value()) {
      radio::Packet copy;
      copy.id = data->packet.id;
      copy.payload = arena_ != nullptr ? arena_->acquire_copy(data->packet.payload)
                                       : data->packet.payload;
      relay_packet_ = std::move(copy);
      relay_round_ = rel_round + 1;
    }
    return;
  }

  if (const auto* ack = std::get_if<radio::AckMsg>(&msg.body)) {
    if (ack->to != self_) return;
    // Own packet acknowledged? (linear scan: a node holds few packets)
    for (std::size_t i = 0; i < own_packets_.size(); ++i) {
      if (own_packets_[i].packet.id == ack->packet_id) {
        if (!own_packets_[i].acked) {
          own_packets_[i].acked = true;
          ++acked_count_;
        }
        return;
      }
    }
    // Route towards the packet's origin.
    const auto child = child_of_packet_.find(ack->packet_id);
    if (child != child_of_packet_.end() && rel_round + 1 < window_end &&
        !relay_ack_.has_value()) {
      relay_ack_ = radio::AckMsg{ack->packet_id, child->second};
      relay_ack_round_ = rel_round + 1;
    }
    return;
  }
}

}  // namespace radiocast::core
