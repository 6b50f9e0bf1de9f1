#include "obs/observer.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "core/runner.hpp"

namespace radiocast::obs {

namespace {

constexpr const char* kStageNames[ChannelLedger::kNumStages] = {
    "unattributed", "stage1.leader", "stage2.bfs", "stage3.collection",
    "stage4.dissemination"};
constexpr const char* kEpochNames[ChannelLedger::kNumEpochKinds] = {"", "ospg", "mspg",
                                                                    "alarm"};

}  // namespace

const char* ChannelLedger::stage_name(std::uint32_t stage) {
  RC_ASSERT(stage < kNumStages);
  return kStageNames[stage];
}

const char* ChannelLedger::epoch_name(std::uint32_t epoch) {
  RC_ASSERT(epoch < kNumEpochKinds);
  return kEpochNames[epoch];
}

std::uint32_t ChannelLedger::epoch_index(std::string_view kind) {
  for (std::uint32_t i = 1; i < kNumEpochKinds; ++i) {
    if (kind == kEpochNames[i]) return i;
  }
  RC_ASSERT_MSG(false, "unknown collection epoch kind");
  return 0;
}

std::uint32_t ChannelLedger::silent_slots(const RoundStats& stats) {
  // Awake listeners minus the listener slots with a known outcome; see
  // the class comment for why this is a (clamped) lower bound. Wake-up
  // deliveries landed at nodes that were *asleep*, so they don't consume
  // listener slots — but the wakeups counter can exceed deliveries (the
  // first round folds the initial wake_at_start wakes in; CD collision
  // wakes have no delivery at all), so the correction is clamped.
  const std::int64_t listeners =
      static_cast<std::int64_t>(stats.awake) - stats.transmissions;
  const std::int64_t awake_deliveries = std::max<std::int64_t>(
      0, static_cast<std::int64_t>(stats.deliveries) - stats.wakeups);
  const std::int64_t silent = listeners - awake_deliveries -
                              stats.collision_slots - stats.fault_drops;
  return silent > 0 ? static_cast<std::uint32_t>(silent) : 0;
}

void ChannelLedger::on_round(const RoundStats& stats, std::uint32_t stage,
                             std::uint32_t epoch) {
  RC_ASSERT(stage < kNumStages && epoch < kNumEpochKinds);
  const std::uint32_t silent = silent_slots(stats);
  if (rows_.size() < max_rounds_) {
    rows_.push_back({stats.round, stage, epoch, stats.awake, stats.transmissions,
                     stats.deliveries, stats.collision_slots, stats.deaf_slots,
                     stats.fault_drops, silent});
  } else {
    ++dropped_rows_;
  }

  std::uint8_t& slot = slot_[stage * kNumEpochKinds + epoch];
  if (slot == 0) {
    aggregates_.push_back({stage, epoch, 0, 0, 0, 0, 0, 0, 0, 0});
    slot = static_cast<std::uint8_t>(aggregates_.size());
  }
  Aggregate& agg = aggregates_[slot - 1];
  ++agg.rounds;
  agg.awake += stats.awake;
  agg.transmissions += stats.transmissions;
  agg.deliveries += stats.deliveries;
  agg.collisions += stats.collision_slots;
  agg.deaf += stats.deaf_slots;
  agg.faults += stats.fault_drops;
  agg.silent += silent;
}

void RunObserver::begin_run(const graph::Graph& /*g*/,
                            const core::ResolvedConfig& /*rc*/,
                            const std::vector<radio::Packet>& truth,
                            const radio::FaultModel& /*faults*/,
                            bool /*collision_detection*/) {
  // Truth is sorted by id and ids lead with the origin, so the last packet
  // belongs to the max-id packet holder.
  RC_ASSERT(!truth.empty());
  leader_ = radio::packet_origin(truth.back().id);
}

void RunObserver::end_run(const radio::Network& /*net*/,
                          const core::RunResult& result) {
  close_stage(result.total_rounds);
}

void RunObserver::on_sim_start(const std::vector<radio::NodeId>& initially_awake) {
  awake_ = static_cast<std::uint32_t>(initially_awake.size());
  round_.wakeups += awake_;
}

void RunObserver::on_transmissions(radio::Round /*round*/,
                                   const std::vector<radio::Message>& txs) {
  // Wake-ups happen after the transmit decisions, so this is the awake
  // count Phase 1 saw.
  round_.awake = awake_;
  round_.transmissions = static_cast<std::uint32_t>(txs.size());
}

void RunObserver::on_round_end(radio::Round round) {
  // Rounds before the first stage report (e.g. no reporting protocol) go
  // to stage 0, "unattributed", so nothing is silently lost.
  round_.round = round;
  ledger_.on_round(round_, stage_, epoch_);
  round_ = RoundStats{};
}

void RunObserver::close_epoch(std::uint64_t round) {
  if (epoch_span_ != 0) {
    recorder_.close(epoch_span_, round);
    epoch_span_ = 0;
  }
  epoch_ = 0;
}

void RunObserver::close_phase(std::uint64_t round) {
  close_epoch(round);
  if (phase_span_ != 0) {
    recorder_.close(phase_span_, round);
    phase_span_ = 0;
  }
}

void RunObserver::close_stage(std::uint64_t round) {
  close_phase(round);
  if (stage_span_ != 0) {
    recorder_.close(stage_span_, round);
    stage_span_ = 0;
  }
}

void RunObserver::on_stage_enter(radio::NodeId node, std::uint32_t stage_index,
                                 radio::Round boundary_round) {
  if (node != leader_) return;
  RC_ASSERT(stage_index >= 1 && stage_index < ChannelLedger::kNumStages);
  close_stage(boundary_round);
  stage_ = stage_index;
  stage_span_ = recorder_.open(ChannelLedger::stage_name(stage_), "stage",
                               boundary_round, {{"stage", stage_index}});
}

void RunObserver::on_collection_phase_begin(radio::NodeId node,
                                            std::uint32_t phase_index,
                                            std::uint64_t estimate,
                                            radio::Round round) {
  if (node != leader_) return;
  close_phase(round);
  phase_span_ = recorder_.open("phase", "phase", round,
                               {{"phase", phase_index}, {"estimate", estimate}});
}

void RunObserver::on_collection_epoch(radio::NodeId node, const char* kind,
                                      std::uint64_t slots, std::uint32_t copies,
                                      radio::Round round) {
  if (node != leader_) return;
  close_epoch(round);
  std::vector<SpanAttr> attrs;
  if (slots != 0) attrs.push_back({"slots", slots});
  if (copies > 1) attrs.push_back({"copies", copies});
  epoch_ = ChannelLedger::epoch_index(kind);
  epoch_span_ = recorder_.open(kind, "epoch", round, std::move(attrs));
}

void RunObserver::on_collection_phase_end(radio::NodeId node, radio::Round round,
                                          bool alarmed) {
  if (node != leader_) return;
  if (phase_span_ != 0) {
    recorder_.add_attr(phase_span_, "alarmed", alarmed ? 1 : 0);
  }
  close_phase(round);
}

}  // namespace radiocast::obs
