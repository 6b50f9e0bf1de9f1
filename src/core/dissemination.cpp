#include "core/dissemination.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "common/math_util.hpp"

namespace radiocast::core {

gf2::Payload packet_wire_image(const radio::Packet& packet) {
  gf2::Payload wire;
  packet_wire_image_into(packet, wire);
  return wire;
}

void packet_wire_image_into(const radio::Packet& packet, gf2::Payload& out) {
  out.resize(8 + packet.payload.size());
  for (int b = 0; b < 8; ++b) {
    out[b] = static_cast<std::uint8_t>((packet.id >> (8 * b)) & 0xff);
  }
  std::copy(packet.payload.begin(), packet.payload.end(), out.begin() + 8);
}

namespace {

/// Copy of `src` whose payload buffer comes from `arena` when available
/// (byte-identical either way; see radio::PayloadArena).
radio::Packet copy_packet(const radio::Packet& src, radio::PayloadArena* arena) {
  radio::Packet out;
  out.id = src.id;
  out.payload = arena != nullptr ? arena->acquire_copy(src.payload) : src.payload;
  return out;
}

}  // namespace

radio::Packet packet_from_wire_image(const gf2::Payload& wire) {
  RC_ASSERT(wire.size() >= 8);
  radio::Packet packet;
  packet.id = 0;
  for (int b = 0; b < 8; ++b) {
    packet.id |= static_cast<radio::PacketId>(wire[b]) << (8 * b);
  }
  packet.payload.assign(wire.begin() + 8, wire.end());
  return packet;
}

DisseminationState::DisseminationState(const Config& cfg, radio::NodeId self,
                                       bool is_root, std::optional<std::uint32_t> dist,
                                       Rng* rng)
    : cfg_(cfg),
      self_(self),
      is_root_(is_root),
      dist_(dist),
      rng_(rng),
      decay_(cfg.rc->know.log_delta()) {
  RC_ASSERT(rng != nullptr);
  if (is_root_) {
    RC_ASSERT(!dist.has_value() || *dist == 0);
    dist_ = 0;
  }
  forward_rounds_ =
      static_cast<std::uint64_t>(cfg_.rc->forward_epochs) * decay_.epoch_length();
  slot_base_ = is_root_ ? 0 : (dist_.has_value() ? *dist_ : 0);
}

void DisseminationState::set_root_packets(std::vector<radio::Packet> packets) {
  RC_ASSERT(is_root_);
  std::sort(packets.begin(), packets.end(),
            [](const radio::Packet& a, const radio::Packet& b) { return a.id < b.id; });
  const std::uint32_t s = cfg_.rc->group_size;
  group_count_ = packets.empty()
                     ? 0
                     : static_cast<std::uint32_t>(ceil_div(packets.size(), s));
  group_count_known_ = true;
  groups_.clear();
  groups_.resize(group_count_);
  for (std::uint32_t j = 0; j < group_count_; ++j) {
    GroupState& gs = groups_[j];
    const std::size_t begin = static_cast<std::size_t>(j) * s;
    const std::size_t end = std::min(packets.size(), begin + s);
    gs.size = static_cast<std::uint16_t>(end - begin);
    gs.packets.assign(packets.begin() + begin, packets.begin() + end);
    gs.complete = true;
  }
  refresh_complete();
}

void DisseminationState::ensure_groups(std::uint32_t group_count) {
  if (!group_count_known_) {
    group_count_ = group_count;
    group_count_known_ = true;
    groups_.resize(group_count);
    refresh_complete();
  }
  RC_ASSERT_MSG(group_count_ == group_count, "inconsistent group_count in headers");
}

DisseminationState::GroupState& DisseminationState::group(std::uint32_t group_id,
                                                          std::uint16_t group_size) {
  RC_ASSERT(group_id < groups_.size());
  GroupState& gs = groups_[group_id];
  if (gs.size == 0) gs.size = group_size;
  RC_ASSERT(gs.size == group_size);
  if (!gs.decoder.has_value() && !gs.complete) {
    gs.decoder.emplace(gs.size);
  }
  return gs;
}

void DisseminationState::maybe_finish_group(GroupState& gs) {
  if (gs.complete || !gs.decoder.has_value() || !gs.decoder->complete()) return;
  // Drain the decoder by move (the basis buffers become the wire images
  // here — no copies) and hand the spent wires back to the arena once the
  // packets are parsed out of them.
  std::vector<gf2::Payload> wires = gs.decoder->take_packets();
  gs.packets.clear();
  gs.packets.reserve(gs.size);
  for (const gf2::Payload& wire : wires) {
    gs.packets.push_back(packet_from_wire_image(wire));
  }
  if (arena_ != nullptr) arena_->recycle_all(std::move(wires));
  gs.decoder.reset();
  gs.complete = true;
  refresh_complete();
}

void DisseminationState::refresh_complete() {
  if (!group_count_known_) {
    complete_ = false;
    return;
  }
  complete_ = std::all_of(groups_.begin(), groups_.end(),
                          [](const GroupState& gs) { return gs.complete; });
}

void DisseminationState::refresh_phase_slot() {
  const std::uint32_t spacing = cfg_.rc->group_spacing;
  const std::uint64_t rel_phase = phase_ - slot_base_;
  phase_slot_ = rel_phase % spacing;
  phase_group_ = rel_phase / spacing;
  phase_dirty_ = false;
}

std::optional<radio::MessageBody> DisseminationState::on_transmit(
    std::uint64_t rel_round) {
  // Advance the incremental round clock (see the header): divisions only
  // happen on a non-consecutive rel_round and once per phase change.
  const std::uint64_t phase_len = cfg_.rc->dissem_phase_rounds;
  if (clock_valid_ && rel_round == clock_round_ + 1) {
    if (++off_ == phase_len) {
      off_ = 0;
      epoch_off_ = 0;  // phase_len need not be a multiple of the epoch
      ++phase_;
      phase_dirty_ = true;
    } else if (++epoch_off_ == decay_.epoch_length()) {
      epoch_off_ = 0;
    }
  } else if (!clock_valid_ || rel_round != clock_round_) {
    phase_ = rel_round / phase_len;
    off_ = rel_round % phase_len;
    epoch_off_ = static_cast<std::uint32_t>(off_ % decay_.epoch_length());
    phase_dirty_ = true;
    clock_valid_ = true;
  }
  clock_round_ = rel_round;

  if (is_root_) {
    // Injection phase for group j = phase / spacing.
    if (!group_count_known_) return std::nullopt;
    if (phase_dirty_) refresh_phase_slot();
    if (phase_slot_ != 0) return std::nullopt;
    const std::uint64_t j = phase_group_;
    if (j >= group_count_) return std::nullopt;
    const GroupState& gs = groups_[j];
    if (off_ >= gs.size) return std::nullopt;
    radio::PlainPacketMsg msg;
    msg.packet = copy_packet(gs.packets[off_], arena_);
    msg.group_id = static_cast<std::uint32_t>(j);
    msg.group_count = group_count_;
    msg.index_in_group = static_cast<std::uint16_t>(off_);
    msg.group_size = gs.size;
    return msg;
  }

  // Non-root layers forward group j in phase spacing*j + dist.
  if (!dist_.has_value() || *dist_ == 0 || !group_count_known_) return std::nullopt;
  if (phase_ < *dist_) return std::nullopt;
  if (phase_dirty_) refresh_phase_slot();
  if (phase_slot_ != 0) return std::nullopt;
  const std::uint64_t j = phase_group_;
  if (j >= group_count_) return std::nullopt;
  GroupState& gs = groups_[j];
  if (!gs.complete) return std::nullopt;  // failed to decode in time: sit out

  // FORWARD: Decay-paced coded (or plain) transmission.
  if (off_ >= forward_rounds_) return std::nullopt;
  if (!rng_->next_bool(decay_.slot_probability(epoch_off_))) return std::nullopt;

  if (cfg_.rc->coded) {
    if (!encoder_.has_value() || encoder_group_ != j) {
      std::vector<gf2::Payload> wires;
      wires.reserve(gs.packets.size());
      for (const radio::Packet& p : gs.packets) wires.push_back(packet_wire_image(p));
      encoder_.emplace(std::move(wires));
      encoder_group_ = j;
    }
    radio::CodedMsg msg;
    msg.group_id = static_cast<std::uint32_t>(j);
    msg.group_count = group_count_;
    msg.group_size = gs.size;
    msg.payload = arena_ != nullptr ? arena_->acquire() : gf2::Payload();
    msg.coeffs = encoder_->encode_random_word_into(*rng_, msg.payload);
    return msg;
  }

  // Uncoded baseline: one uniformly chosen plain packet of the group.
  const auto index = static_cast<std::size_t>(rng_->next_below(gs.size));
  radio::PlainPacketMsg msg;
  msg.packet = copy_packet(gs.packets[index], arena_);
  msg.group_id = static_cast<std::uint32_t>(j);
  msg.group_count = group_count_;
  msg.index_in_group = static_cast<std::uint16_t>(index);
  msg.group_size = gs.size;
  return msg;
}

std::uint64_t DisseminationState::next_poll(std::uint64_t rel_round) const {
  const std::uint64_t phase_len = cfg_.rc->dissem_phase_rounds;
  const std::uint32_t spacing = cfg_.rc->group_spacing;
  const std::uint64_t phase = rel_round / phase_len;
  if (phase >= slot_base_ && (phase - slot_base_) % spacing == 0) {
    // Rounds of this slot-0 phase in which on_transmit may still speak.
    const std::uint64_t j = (phase - slot_base_) / spacing;
    std::uint64_t active = 0;
    if (group_count_known_ && j < group_count_) {
      if (is_root_) {
        active = groups_[j].size;
      } else if (dist_.has_value() && *dist_ != 0 && groups_[j].complete) {
        active = forward_rounds_;
      }
    }
    if (rel_round % phase_len + 1 < active) return rel_round + 1;
  }
  const std::uint64_t next_phase =
      phase < slot_base_ ? slot_base_
                         : slot_base_ + ((phase - slot_base_) / spacing + 1) * spacing;
  return next_phase * phase_len;
}

void DisseminationState::on_receive(std::uint64_t /*rel_round*/,
                                    const radio::Message& msg) {
  if (is_root_) return;  // the root already owns everything

  if (const auto* plain = std::get_if<radio::PlainPacketMsg>(&msg.body)) {
    if (plain->group_count == 0) return;
    ensure_groups(plain->group_count);
    GroupState& gs = group(plain->group_id, plain->group_size);
    if (gs.complete) return;
    ++rows_received_;
    gf2::Payload wire = arena_ != nullptr ? arena_->acquire() : gf2::Payload();
    packet_wire_image_into(plain->packet, wire);
    if (!gs.decoder->add_row_packed(1ULL << plain->index_in_group, wire)) {
      ++redundant_rows_;
      if (arena_ != nullptr) arena_->recycle(std::move(wire));
    }
    maybe_finish_group(gs);
    return;
  }

  if (const auto* coded = std::get_if<radio::CodedMsg>(&msg.body)) {
    if (coded->group_count == 0) return;
    ensure_groups(coded->group_count);
    GroupState& gs = group(coded->group_id, coded->group_size);
    if (gs.complete) return;
    ++rows_received_;
    // Same low-`size`-bits view BitVec::from_word takes of the header.
    const std::uint64_t mask = gs.size == 64 ? ~0ULL : (1ULL << gs.size) - 1;
    gf2::Payload buf =
        arena_ != nullptr ? arena_->acquire_copy(coded->payload) : coded->payload;
    if (!gs.decoder->add_row_packed(coded->coeffs & mask, buf)) {
      ++redundant_rows_;
      if (arena_ != nullptr) arena_->recycle(std::move(buf));
    }
    maybe_finish_group(gs);
    return;
  }
}

std::vector<radio::Packet> DisseminationState::packets() const {
  std::vector<radio::Packet> out;
  for_each_packet([&](const radio::Packet& p) { out.push_back(p); });
  std::sort(out.begin(), out.end(),
            [](const radio::Packet& a, const radio::Packet& b) { return a.id < b.id; });
  return out;
}

}  // namespace radiocast::core
