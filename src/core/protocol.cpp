#include "core/protocol.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/assert.hpp"
#include "common/math_util.hpp"
#include "core/audit.hpp"

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

KBroadcastNode::KBroadcastNode(const ResolvedConfig& rc, radio::NodeId self,
                               std::vector<radio::Packet> own_packets, Rng rng)
    : KBroadcastNode(rc, self, std::move(own_packets), rng,
                     /*participant=*/!own_packets.empty(), kNever,
                     std::numeric_limits<std::uint32_t>::max()) {}

KBroadcastNode::KBroadcastNode(const DynamicConfig& cfg, radio::NodeId self, Rng rng)
    : KBroadcastNode(cfg.rc, self, {}, rng, /*participant=*/true,
                     cfg.dissemination_window(), cfg.resolved_capacity()) {}

KBroadcastNode::KBroadcastNode(const ResolvedConfig& rc, radio::NodeId self,
                               std::vector<radio::Packet>&& own_packets, Rng rng,
                               bool participant, std::uint64_t window,
                               std::uint32_t capacity)
    : rc_(rc),
      self_(self),
      capacity_(capacity),
      own_packets_(std::move(own_packets)),
      rng_(rng),
      window_(window),
      leader_(leader_config(rc), self, participant, &rng_) {
  stage3_start_ = rc_.stage1_rounds + rc_.stage2_rounds;
  RC_ASSERT(leader_.total_rounds() == rc_.stage1_rounds);
}

std::vector<radio::Packet> KBroadcastNode::take_epoch_packets() {
  return epoch_ == 0 ? own_packets_ : std::vector<radio::Packet>{};
}

KBroadcastNode::Stage KBroadcastNode::stage_for(radio::Round round) const {
  if (round < rc_.stage1_rounds) return Stage::kLeader;
  if (round < stage3_start_) return Stage::kBfs;
  if (stage3_end_ == 0 || round < stage3_end_) return Stage::kCollection;
  return Stage::kDissemination;
}

void KBroadcastNode::ensure_stage(radio::Round round) {
  if (stage3_end_ != 0) {
    // Stage 4 runs. Nothing changes inside its window, and a static run's
    // never closes. This fast-out matters: ensure_stage runs on every
    // callback, and Stage 4 dominates a long run's node-rounds.
    if (round - stage3_end_ < window_) return;
    // The window closed: a non-root harvests what it decoded, and every
    // node opens the next epoch. Only packets of other origins are new
    // holds: a node's own were reported when they joined a collection, and
    // the root's batch when it was first queued. The state stays until the
    // next Stage 4 replaces it in place, which reuses its memory.
    if (!leader_.is_leader()) {
      dissemination_->for_each_packet([&](const radio::Packet& p) {
        if (radio::packet_origin(p.id) != self_) on_packet_delivered(p);
      });
    }
    ++epoch_;
    stage3_start_ = stage3_end_ + window_;
    stage3_end_ = 0;
    report_stage(round);
    begin_collection();
  }
  if (round >= rc_.stage1_rounds && !bfs_.has_value()) {
    leader_.finalize();
    protocols::BfsBuildState::Config cfg;
    cfg.know = rc_.know;
    cfg.epochs_per_phase = rc_.bfs_epochs_per_phase;
    cfg.extra_phases = rc_.bfs_phases - rc_.know.d_hat;
    bfs_.emplace(cfg, self_, /*is_root=*/leader_.is_leader(), &rng_);
  }
  if (round >= stage3_start_ && !collection_.has_value()) begin_collection();
  if (collection_.has_value() && stage3_end_ == 0 && collection_->finished()) {
    // Collection ends at a phase end no later than `round`, so Stage 4
    // starts in this call.
    stage3_end_ = stage3_start_ + collection_->finished_at();
    if (mutations_.early_stage4_rounds != 0) {
      // Seeded bug: pretend collection ended earlier than its schedule says.
      const std::uint64_t cut =
          std::min(mutations_.early_stage4_rounds, collection_->finished_at() - 1);
      stage3_end_ -= cut;
    }
    begin_dissemination();
  }
}

void KBroadcastNode::begin_collection() {
  const bool is_root = leader_.is_leader();
  // The previous epoch's unacknowledged packets first, then the fresh ones.
  // Only the fresh ones are new holds: the carry-over was reported when it
  // was fresh.
  std::vector<radio::Packet> own = take_epoch_packets();
  for (const radio::Packet& p : own) {
    RC_ASSERT_MSG(radio::packet_origin(p.id) == self_,
                  "own packet must name its node: radio::make_packet_id(node, seq)");
    on_packet_delivered(p);
  }
  if (collection_.has_value() && !is_root) {
    std::vector<radio::Packet> carry = collection_->unacked_packets();
    own.insert(own.begin(), std::make_move_iterator(carry.begin()),
               std::make_move_iterator(carry.end()));
  }
  CollectionState::Config cfg{&rc_};
  cfg.round_offset = stage3_start_;
  cfg.audit = audit_;
  cfg.audit_node = self_;
  std::optional<radio::NodeId> parent;
  if (!is_root && bfs_.has_value() && bfs_->has_distance()) parent = bfs_->parent();
  collection_.emplace(cfg, self_, is_root, parent, std::move(own), &rng_);
  collection_->set_payload_arena(payload_arena());
}

void KBroadcastNode::begin_dissemination() {
  const bool is_root = leader_.is_leader();
  std::optional<std::uint32_t> dist;
  if (bfs_.has_value() && bfs_->has_distance()) dist = bfs_->distance();
  dissemination_.emplace(DisseminationState::Config{&rc_}, self_, is_root, dist, &rng_);
  dissemination_->set_payload_arena(payload_arena());
  if (!is_root) return;
  RC_ASSERT(collection_.has_value());
  // The harvest's new holds are the packets of other origins: the root's
  // own were reported when they joined the collection.
  const std::vector<radio::Packet>& harvest = collection_->collected();
  if (window_ == kNever) {
    // A Stage 4 that never closes is the last: it carries the whole
    // harvest, and no later window reads a queue.
    for (const radio::Packet& p : harvest) {
      if (radio::packet_origin(p.id) != self_) on_packet_delivered(p);
    }
    dissemination_->set_root_packets(harvest);
    return;
  }
  // Queue the harvest, then disseminate the oldest window's worth. An id
  // queued before was re-collected after a lost ack, and is held already.
  if (root_queue_ == nullptr) root_queue_ = std::make_unique<RootQueue>();
  std::deque<radio::Packet>& queue = root_queue_->packets;
  for (const radio::Packet& p : harvest) {
    if (!root_queue_->queued.insert(p.id).second) continue;
    if (radio::packet_origin(p.id) != self_) on_packet_delivered(p);
    queue.push_back(p);
  }
  const auto take = static_cast<std::ptrdiff_t>(
      std::min<std::size_t>(queue.size(), capacity_));
  std::vector<radio::Packet> batch(std::make_move_iterator(queue.begin()),
                                   std::make_move_iterator(queue.begin() + take));
  queue.erase(queue.begin(), queue.begin() + take);
  dissemination_->set_root_packets(std::move(batch));
}

void KBroadcastNode::report_stage(radio::Round round) {
  if (audit_ == nullptr) return;
  const Stage s = stage_for(round);
  if (reported_stage_.has_value() && *reported_stage_ == s) return;
  reported_stage_ = s;
  std::uint32_t index = 0;
  radio::Round boundary = 0;
  switch (s) {
    case Stage::kLeader:
      index = 1, boundary = 0;
      break;
    case Stage::kBfs:
      index = 2, boundary = rc_.stage1_rounds;
      break;
    case Stage::kCollection:
      index = 3, boundary = stage3_start_;
      break;
    case Stage::kDissemination:
      index = 4, boundary = stage3_end_;
      break;
  }
  audit_->on_stage_enter(self_, index, boundary);
}

void KBroadcastNode::apply_mutations(std::optional<radio::MessageBody>& msg) const {
  if (mutations_.corrupt_coded_payload && msg.has_value()) {
    if (auto* coded = std::get_if<radio::CodedMsg>(&*msg);
        coded != nullptr && !coded->payload.empty()) {
      coded->payload[0] ^= 1;  // seeded bug: transmit an unsound combination
    }
  }
}

std::optional<radio::MessageBody> KBroadcastNode::on_transmit(radio::Round round) {
  std::optional<radio::MessageBody> msg = transmit(round);
  set_quiet_until(next_poll(round));
  return msg;
}

radio::Round KBroadcastNode::next_poll(radio::Round round) const {
  switch (stage_for(round)) {
    case Stage::kLeader:
      return std::min(leader_.next_poll(round), rc_.stage1_rounds);
    case Stage::kBfs:
      return std::min(rc_.stage1_rounds + bfs_->next_poll(round - rc_.stage1_rounds),
                      stage3_start_);
    case Stage::kCollection:
      // Capped at the phase end, where the stage may finish.
      return stage3_start_ + collection_->next_poll(round - stage3_start_);
    case Stage::kDissemination:
      // Capped at the window end, where the next epoch opens.
      return stage3_end_ +
             std::min(dissemination_->next_poll(round - stage3_end_), window_);
  }
  return round + 1;
}

std::optional<radio::MessageBody> KBroadcastNode::transmit(radio::Round round) {
  // Report before ensure_stage: entering Stage 3 constructs CollectionState,
  // whose phase/epoch hooks must nest inside the already-open stage span.
  report_stage(round);
  ensure_stage(round);
  switch (stage_for(round)) {
    case Stage::kLeader:
      return leader_.on_transmit(round);
    case Stage::kBfs: {
      auto msg = bfs_->on_transmit(round - rc_.stage1_rounds);
      // Seeded bug: drop every scheduled BFS transmission (the state
      // machine still advances, so the node believes it participated).
      if (mutations_.suppress_bfs_transmit) return std::nullopt;
      return msg;
    }
    case Stage::kCollection: {
      auto msg = collection_->on_transmit(round - stage3_start_);
      // Collection may have just flipped to finished at exactly this round;
      // if so, this round is already Stage 4's round 0.
      ensure_stage(round);
      if (stage_for(round) == Stage::kDissemination) {
        RC_ASSERT(!msg.has_value());
        report_stage(round);
        msg = dissemination_->on_transmit(round - stage3_end_);
        apply_mutations(msg);
      }
      return msg;
    }
    case Stage::kDissemination: {
      auto msg = dissemination_->on_transmit(round - stage3_end_);
      apply_mutations(msg);
      return msg;
    }
  }
  return std::nullopt;
}

void KBroadcastNode::on_receive(radio::Round round, const radio::Message& msg) {
  report_stage(round);
  ensure_stage(round);
  switch (stage_for(round)) {
    case Stage::kLeader:
      leader_.on_receive(round, msg);
      return;
    case Stage::kBfs:
      bfs_->on_receive(round - rc_.stage1_rounds, msg);
      return;
    case Stage::kCollection:
      collection_->on_receive(round - stage3_start_, msg);
      ensure_stage(round);
      // Boundary round: the message kinds of the two stages are disjoint,
      // so re-offering the message to Stage 4 cannot double-process it.
      if (stage_for(round) == Stage::kDissemination) {
        report_stage(round);
        dissemination_->on_receive(round - stage3_end_, msg);
      }
      return;
    case Stage::kDissemination:
      dissemination_->on_receive(round - stage3_end_, msg);
      return;
  }
}

bool KBroadcastNode::done() const {
  return window_ == kNever && stage3_end_ != 0 && dissemination_->complete();
}

bool KBroadcastNode::is_leader() const { return leader_.is_leader(); }

radio::NodeId KBroadcastNode::leader_id() const { return leader_.leader_id(); }

bool KBroadcastNode::has_bfs_distance() const {
  return bfs_.has_value() && bfs_->has_distance();
}

std::uint32_t KBroadcastNode::bfs_distance() const {
  RC_ASSERT(has_bfs_distance());
  return bfs_->distance();
}

radio::NodeId KBroadcastNode::bfs_parent() const {
  RC_ASSERT(has_bfs_distance());
  return bfs_->parent();
}

std::vector<radio::Packet> KBroadcastNode::delivered_packets() const {
  if (dissemination_.has_value()) {
    if (leader_.is_leader() && collection_.has_value()) {
      return collection_->collected();
    }
    return dissemination_->packets();
  }
  return own_packets_;
}

}  // namespace radiocast::core
