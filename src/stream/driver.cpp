#include "stream/driver.hpp"

#include <memory>
#include <unordered_map>
#include <vector>

#include "audit/channel_auditor.hpp"
#include "common/assert.hpp"
#include "core/schedule.hpp"
#include "radio/network.hpp"
#include "radio/protocol_slab.hpp"
#include "stream/stream_node.hpp"

namespace radiocast::stream {

std::uint64_t epoch_estimate_rounds(const core::DynamicConfig& dyn) {
  return core::collection_phase_rounds(dyn.rc.initial_estimate, dyn.rc) +
         dyn.dissemination_window();
}

double per_node_rate(const core::DynamicConfig& dyn, std::uint32_t n,
                     double load) {
  RC_ASSERT(n > 0);
  const double epoch = static_cast<double>(epoch_estimate_rounds(dyn));
  const double capacity = static_cast<double>(dyn.resolved_capacity());
  return load * capacity / (epoch * static_cast<double>(n));
}

StreamResult run_stream(const graph::Graph& g, const StreamConfig& cfg) {
  return run_stream(g, cfg,
                    make_arrival_schedule(g.num_nodes(), cfg.arrivals, cfg.horizon));
}

StreamResult run_stream(const graph::Graph& g, const StreamConfig& cfg,
                        std::vector<Arrival> schedule) {
  RC_ASSERT(g.finalized());
  RC_ASSERT(cfg.horizon > 0);
  RC_ASSERT_MSG(cfg.shards == 1, "intra-run sharding was removed; shards must be 1");

  StreamResult result;
  result.n = g.num_nodes();
  result.horizon = cfg.horizon;
  result.epoch_estimate = epoch_estimate_rounds(cfg.dyn);
  result.ledger = obs::QueueLedger(cfg.ledger_max_rows);
  result.arrivals_scheduled = schedule.size();

  radio::ProtocolSlab<StreamNode> slab(g.num_nodes());
  radio::Network net(g);

  std::unique_ptr<audit::ChannelAuditor> auditor;
  if (cfg.audit) {
    audit::ChannelAuditor::Options opts;
    opts.expect_all_awake = true;  // the dynamic setting: everyone is on
    auditor = std::make_unique<audit::ChannelAuditor>(g, opts);
    net.set_auditor(auditor.get());
  }

  HoldLog log;
  Rng master(cfg.seed);
  std::vector<StreamNode*> nodes(g.num_nodes());
  for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
    StreamNode& node = slab.emplace(cfg.dyn, v, master.split(),
                                    cfg.buffer_capacity, cfg.policy, &log);
    nodes[v] = &node;
    net.set_protocol(v, &node);
    net.wake_at_start(v);
  }

  struct Tracking {
    std::uint64_t arrival_round = 0;
    std::uint32_t holders = 0;
  };
  std::unordered_map<radio::PacketId, Tracking> tracking;
  tracking.reserve(schedule.size());

  SaturationDetector detector(cfg.saturation);
  std::uint64_t in_flight = 0;  ///< packets some node holds, not yet all

  // `boundary` samples (taken right after an epoch drained the source
  // buffers) feed the saturation detector: they are phase-aligned, so
  // window-over-window growth means the system genuinely cannot keep up.
  // The final-round sample is off-phase (mid-epoch, buffers partly full)
  // and is recorded in the ledger only.
  const auto sample_backlog = [&](std::uint64_t round, bool boundary) {
    obs::QueueLedger::Row row;
    row.round = round;
    QueueStats agg;
    for (const StreamNode* node : nodes) {
      row.buffered += node->queue().buffered();
      row.held_back += node->queue().held_back();
      agg.merge(node->queue().stats());
    }
    row.in_flight = in_flight;
    row.offered = agg.offered;
    row.admitted = agg.admitted;
    row.dropped = agg.dropped;
    row.backpressured = agg.backpressured;
    row.delivered = result.delivered_everywhere;
    result.ledger.sample(row);
    result.in_system_end = row.buffered + row.held_back + row.in_flight;
    if (!boundary) return;
    const bool was_saturated = detector.saturated();
    detector.sample(result.in_system_end);
    if (!was_saturated && detector.saturated()) {
      result.saturated = true;
      result.saturation_onset_round = round;
    }
  };

  std::size_t next_arrival = 0;
  std::uint32_t last_epoch = 0;
  for (std::uint64_t round = 0; round < cfg.horizon; ++round) {
    while (next_arrival < schedule.size() &&
           schedule[next_arrival].round <= round) {
      Arrival& a = schedule[next_arrival++];
      tracking.emplace(a.packet.id, Tracking{round, 0});
      nodes[a.node]->offer(std::move(a.packet));
    }
    net.step();

    // Round-exact delivery accounting: the nodes logged every first-hold
    // event of this step, so the cost is O(events), not O(n), per round.
    // The updates commute, so callback order within the round is moot.
    for (const radio::PacketId id : log.held) {
      const auto it = tracking.find(id);
      RC_ASSERT_MSG(it != tracking.end(), "held packet was never offered");
      RC_ASSERT_MSG(it->second.holders < g.num_nodes(),
                    "packet reported held by more nodes than the network has");
      if (it->second.holders == 0) ++in_flight;
      if (++it->second.holders == g.num_nodes()) {
        --in_flight;
        ++result.delivered_everywhere;
        result.latency.add(round - it->second.arrival_round);
      }
    }
    log.held.clear();

    // One backlog sample per epoch boundary, plus the final round.
    if (log.epoch > last_epoch || round + 1 == cfg.horizon) {
      const bool boundary = log.epoch > last_epoch;
      last_epoch = log.epoch;
      sample_backlog(round, boundary);
    }
  }

  for (const StreamNode* node : nodes) result.queue.merge(node->queue().stats());
  result.epochs_completed = last_epoch;
  result.throughput =
      static_cast<double>(result.delivered_everywhere) / cfg.horizon;
  result.normalized_throughput =
      result.throughput * cfg.dyn.rc.know.log_n();
  result.counters = net.trace().counters();
  if (auditor != nullptr) {
    result.audited = true;
    result.audit_violations = auditor->report().total();
    result.audit_summary = auditor->summary();
  }
  return result;
}

}  // namespace radiocast::stream
