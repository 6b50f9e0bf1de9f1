#include "obs/observer.hpp"

#include <utility>

#include "common/assert.hpp"
#include "core/runner.hpp"

namespace radiocast::obs {

namespace {

/// Span name and metric label of each paper stage, by 1-based index.
const char* stage_name(std::uint32_t stage_index) {
  static constexpr const char* kNames[] = {"stage1.leader", "stage2.bfs",
                                           "stage3.collection",
                                           "stage4.dissemination"};
  RC_ASSERT(stage_index >= 1 && stage_index <= 4);
  return kNames[stage_index - 1];
}

}  // namespace

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

std::uint32_t ChannelLedger::intern(std::vector<std::string>& names,
                                    const std::string& name) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<std::uint32_t>(i);
  }
  names.push_back(name);
  return static_cast<std::uint32_t>(names.size() - 1);
}

void ChannelLedger::on_round(const RoundStats& stats, const std::string& stage,
                             const std::string& epoch) {
  const std::uint32_t silent = silent_slots(stats);
  const std::uint32_t stage_id = intern(stage_names_, stage);
  const std::uint32_t epoch_id = intern(epoch_names_, epoch);
  if (rows_.size() < max_rounds_) {
    rows_.push_back({stats.round, stage_id, epoch_id, stats.awake,
                     stats.transmissions, stats.deliveries, stats.collision_slots,
                     stats.deaf_slots, stats.fault_drops, silent});
  } else {
    ++dropped_rows_;
  }

  if (last_aggregate_ >= aggregates_.size() ||
      aggregates_[last_aggregate_].stage != stage ||
      aggregates_[last_aggregate_].epoch != epoch) {
    last_aggregate_ = SIZE_MAX;
    for (std::size_t i = 0; i < aggregates_.size(); ++i) {
      if (aggregates_[i].stage == stage && aggregates_[i].epoch == epoch) {
        last_aggregate_ = i;
        break;
      }
    }
    if (last_aggregate_ == SIZE_MAX) {
      aggregates_.push_back({stage, epoch, 0, 0, 0, 0, 0, 0, 0, 0});
      last_aggregate_ = aggregates_.size() - 1;
    }
  }
  Aggregate& agg = aggregates_[last_aggregate_];
  ++agg.rounds;
  agg.awake += stats.awake;
  agg.transmissions += stats.transmissions;
  agg.deliveries += stats.deliveries;
  agg.collisions += stats.collision_slots;
  agg.deaf += stats.deaf_slots;
  agg.faults += stats.fault_drops;
  agg.silent += silent;
}

RunObserver::RunObserver(Options opts)
    : opts_(std::move(opts)), recorder_(opts_.recorder) {
  if (opts_.channel_ledger) {
    ledger_ = std::make_unique<ChannelLedger>(opts_.ledger_max_rounds);
  }
}

void RunObserver::rebind_stage_instruments() {
  const LabelSet stage_label = {{"stage", stage_name_}};
  rounds_ = &metrics_.counter("sim.rounds", stage_label);
  transmissions_ = &metrics_.counter("sim.transmissions", stage_label);
  deliveries_ = &metrics_.counter("sim.deliveries", stage_label);
  collisions_ = &metrics_.counter("sim.collision_slots", stage_label);
  deaf_ = &metrics_.counter("sim.deaf_slots", stage_label);
  fault_drops_ = &metrics_.counter("sim.fault_drops", stage_label);
  wakeups_ = &metrics_.counter("sim.wakeups", stage_label);
  if (opts_.round_histograms) {
    tx_per_round_ = &metrics_.histogram("sim.transmissions_per_round", stage_label,
                                        Histogram::pow2_bounds());
    rx_per_round_ = &metrics_.histogram("sim.deliveries_per_round", stage_label,
                                        Histogram::pow2_bounds());
  }
  tx_by_kind_.clear();
  rx_by_kind_.clear();
  if (opts_.per_kind_metrics) {
    for (const char* kind : radio::message_kind_names()) {
      const LabelSet kl = {{"stage", stage_name_}, {"kind", kind}};
      tx_by_kind_.push_back(&metrics_.counter("sim.transmissions", kl));
      rx_by_kind_.push_back(&metrics_.counter("sim.deliveries", kl));
    }
  }
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
  for (const radio::Message& m : txs) {
    ++round_tx_by_kind_[radio::message_kind_index(m.body)];
  }
}

void RunObserver::on_deliver(radio::Round /*round*/, radio::NodeId /*receiver*/,
                             std::uint32_t /*tx_index*/, const radio::Message& msg) {
  ++round_.deliveries;
  ++round_rx_by_kind_[radio::message_kind_index(msg.body)];
}

void RunObserver::on_round_end(radio::Round round) {
  round_.round = round;
  if (stage_name_.empty()) {
    // Rounds before the first stage report (e.g. no reporting protocol):
    // attribute to a catch-all stage so nothing is silently lost.
    stage_name_ = "unattributed";
    rebind_stage_instruments();
  }
  rounds_->inc();
  transmissions_->inc(round_.transmissions);
  deliveries_->inc(round_.deliveries);
  collisions_->inc(round_.collision_slots);
  deaf_->inc(round_.deaf_slots);
  fault_drops_->inc(round_.fault_drops);
  wakeups_->inc(round_.wakeups);
  if (tx_per_round_ != nullptr) {
    tx_per_round_->observe(static_cast<double>(round_.transmissions));
    rx_per_round_->observe(static_cast<double>(round_.deliveries));
  }
  if (!tx_by_kind_.empty()) {
    for (std::size_t i = 0; i < radio::kNumMessageKinds; ++i) {
      // Skip untouched kinds: most rounds carry one kind of traffic.
      if (round_tx_by_kind_[i] != 0) tx_by_kind_[i]->inc(round_tx_by_kind_[i]);
      if (round_rx_by_kind_[i] != 0) rx_by_kind_[i]->inc(round_rx_by_kind_[i]);
    }
  }
  if (ledger_) ledger_->on_round(round_, stage_name_, epoch_name_);
  round_ = RoundStats{};
  round_tx_by_kind_.fill(0);
  round_rx_by_kind_.fill(0);
}

void RunObserver::close_epoch(std::uint64_t round) {
  if (epoch_span_ != 0) {
    recorder_.close(epoch_span_, round);
    epoch_span_ = 0;
  }
  epoch_name_.clear();
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
  close_stage(boundary_round);
  stage_name_ = stage_name(stage_index);
  stage_span_ = recorder_.open(stage_name_, "stage", boundary_round,
                               {{"stage", stage_index}});
  rebind_stage_instruments();
}

void RunObserver::on_collection_phase_begin(radio::NodeId node,
                                            std::uint32_t phase_index,
                                            std::uint64_t estimate,
                                            radio::Round round) {
  if (node != leader_) return;
  close_phase(round);
  phase_span_ = recorder_.open("phase", "phase", round,
                               {{"phase", phase_index}, {"estimate", estimate}});
  metrics_.gauge("collection.estimate").set(static_cast<double>(estimate));
  metrics_.counter("collection.phases").inc();
}

void RunObserver::on_collection_epoch(radio::NodeId node, const char* kind,
                                      std::uint64_t slots, std::uint32_t copies,
                                      radio::Round round) {
  if (node != leader_) return;
  close_epoch(round);
  std::vector<SpanAttr> attrs;
  if (slots != 0) attrs.push_back({"slots", slots});
  if (copies > 1) attrs.push_back({"copies", copies});
  epoch_span_ = recorder_.open(kind, "epoch", round, std::move(attrs));
  epoch_name_ = kind;
  metrics_.counter("collection.epochs", {{"epoch", kind}}).inc();
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
