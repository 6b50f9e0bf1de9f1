// Unit and integration tests of the ModelAuditor plumbing: clean runs
// audit clean, auditing is wired through run_kbroadcast and the Monte
// Carlo sweep driver, auditors are reusable across runs, and the network
// attachment rules fail loudly when misused. A scripted table then trips
// every `radio.*` check (and run.initial_wake_set) through a bare
// ChannelAuditor and through a ModelAuditor, which forwards to one.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "audit/channel_auditor.hpp"
#include "audit/corpus.hpp"
#include "audit/model_auditor.hpp"
#include "core/montecarlo.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "radio/network.hpp"

namespace radiocast {
namespace {

core::Placement placement_for(const graph::Graph& g, std::uint32_t k,
                              std::uint64_t seed) {
  Rng rng(seed);
  return core::make_placement(g.num_nodes(), k, core::PlacementMode::kRandom,
                              /*payload_bytes=*/16, rng);
}

TEST(ModelAuditor, CleanRunAuditsClean) {
  const graph::Graph g = graph::make_path(16);
  core::KBroadcastConfig cfg;
  cfg.know = radio::Knowledge::exact(g);
  const core::Placement placement = placement_for(g, 4, 42);

  audit::ModelAuditor auditor;
  const core::RunResult result =
      core::run_kbroadcast(g, cfg, placement, /*seed=*/7, /*max_rounds=*/0, {},
                           /*observer=*/nullptr, &auditor);
  EXPECT_TRUE(result.delivered_all);
  EXPECT_TRUE(auditor.clean()) << auditor.summary();
  EXPECT_EQ(auditor.summary(), "clean");
}

TEST(ModelAuditor, AuditedRunIsBitIdenticalToUnaudited) {
  const graph::Graph g = graph::make_star(20);
  core::KBroadcastConfig cfg;
  cfg.know = radio::Knowledge::exact(g);
  const core::Placement placement = placement_for(g, 5, 43);

  audit::ModelAuditor auditor;
  const core::RunResult audited =
      core::run_kbroadcast(g, cfg, placement, 9, 0, {}, nullptr, &auditor);
  const core::RunResult plain = core::run_kbroadcast(g, cfg, placement, 9);
  EXPECT_TRUE(auditor.clean()) << auditor.summary();
  EXPECT_TRUE(audit::results_identical(audited, plain));
}

TEST(ModelAuditor, ReusableAcrossSequentialRuns) {
  const graph::Graph g = graph::make_cycle(12);
  core::KBroadcastConfig cfg;
  cfg.know = radio::Knowledge::exact(g);
  audit::ModelAuditor auditor;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const core::Placement placement = placement_for(g, 3, seed);
    const core::RunResult result =
        core::run_kbroadcast(g, cfg, placement, seed, 0, {}, nullptr, &auditor);
    EXPECT_TRUE(result.delivered_all) << "seed " << seed;
    EXPECT_TRUE(auditor.clean()) << "seed " << seed << ": " << auditor.summary();
  }
}

TEST(ModelAuditor, AuditsLossyAndCollisionDetectionRuns) {
  const graph::Graph g = graph::make_grid(5, 5);
  core::KBroadcastConfig cfg;
  cfg.know = radio::Knowledge::exact(g);
  const core::Placement placement = placement_for(g, 6, 44);
  radio::FaultModel faults;
  faults.reception_loss_probability = 0.05;

  audit::ModelAuditor auditor;
  const core::RunResult result = core::run_kbroadcast(
      g, cfg, placement, 11, 0, faults, nullptr, &auditor,
      /*collision_detection=*/true);
  EXPECT_TRUE(result.delivered_all);
  EXPECT_GT(result.counters.fault_drops, 0u);
  EXPECT_TRUE(auditor.clean()) << auditor.summary();
}

TEST(ModelAuditor, MonteCarloSweepWiresPerTrialAuditors) {
  const graph::Graph g = graph::make_cluster_chain(4, 5);
  constexpr int kTrials = 4;
  std::vector<audit::ModelAuditor> auditors(kTrials);

  core::montecarlo::KBroadcastSweep sweep;
  sweep.graph = &g;
  sweep.cfg.know = radio::Knowledge::exact(g);
  sweep.k = 5;
  sweep.placement_seed = [](int t) { return 1000 + t; };
  sweep.run_seed = [](int t) { return 2000 + t; };
  sweep.taps = [&auditors](int t) { return &auditors[t]; };

  const std::vector<core::RunResult> audited =
      core::montecarlo::run_kbroadcast_sweep(sweep, kTrials);
  sweep.taps = nullptr;
  const std::vector<core::RunResult> plain =
      core::montecarlo::run_kbroadcast_sweep(sweep, kTrials);

  ASSERT_EQ(audited.size(), plain.size());
  for (int t = 0; t < kTrials; ++t) {
    EXPECT_TRUE(audited[t].delivered_all) << "trial " << t;
    EXPECT_TRUE(auditors[t].clean())
        << "trial " << t << ": " << auditors[t].summary();
    EXPECT_TRUE(audit::results_identical(audited[t], plain[t])) << "trial " << t;
  }
}

TEST(ModelAuditor, NetworkAttachmentRules) {
  const graph::Graph g = graph::make_path(2);
  radio::Network net(g);
  EXPECT_EQ(net.auditor(), nullptr);

  audit::ModelAuditor auditor;
  net.set_auditor(&auditor);
  EXPECT_EQ(net.auditor(), &auditor);
  net.set_auditor(nullptr);
  EXPECT_EQ(net.auditor(), nullptr);
}

/// One scripted audit-hook sequence on the path 0-1-2-3 and the check it
/// must trip. "" marks the control script, which must audit clean.
struct ChannelScript {
  const char* check;
  std::function<void(radio::NetworkAuditHook&)> run;
};

std::vector<ChannelScript> channel_scripts() {
  using radio::Message;
  using radio::NetworkAuditHook;
  const auto tx = [](radio::NodeId from) { return Message{from, radio::AlarmMsg{}}; };
  // Every script starts from the run's legal initial state: all four
  // nodes awake (the bare auditor expects that, and the ModelAuditor's
  // ground truth has one packet per node).
  const auto start = [](NetworkAuditHook& h) { h.on_sim_start({0, 1, 2, 3}); };
  return {
      {"", [=](NetworkAuditHook& h) {
         start(h);
         h.on_transmissions(0, {tx(1)});
         h.on_deliver(0, 0, 0, tx(1));
         h.on_deliver(0, 2, 0, tx(1));
         h.on_round_end(0);
       }},
      {"radio.tx_order", [=](NetworkAuditHook& h) {
         start(h);
         h.on_transmissions(0, {tx(2), tx(0)});
       }},
      {"radio.tx_range", [=](NetworkAuditHook& h) {
         start(h);
         h.on_transmissions(0, {tx(7)});
       }},
      {"radio.sleeping_transmitter", [=](NetworkAuditHook& h) {
         h.on_sim_start({0, 1, 2});
         h.on_transmissions(0, {tx(3)});
       }},
      {"radio.round_sequence", [=](NetworkAuditHook& h) {
         start(h);
         h.on_transmissions(0, {});
         h.on_transmissions(1, {});
       }},
      {"radio.deliver_on_collision", [=](NetworkAuditHook& h) {
         start(h);
         h.on_transmissions(0, {tx(0), tx(2)});
         h.on_deliver(0, 1, 0, tx(0));
       }},
      {"radio.deliver_while_transmitting", [=](NetworkAuditHook& h) {
         start(h);
         h.on_transmissions(0, {tx(0), tx(1)});
         h.on_deliver(0, 1, 0, tx(0));
       }},
      {"radio.deliver_source", [=](NetworkAuditHook& h) {
         start(h);
         h.on_transmissions(0, {tx(1)});
         h.on_deliver(0, 0, 5, tx(1));
       }},
      {"radio.collision_count", [=](NetworkAuditHook& h) {
         start(h);
         h.on_transmissions(0, {tx(1)});
         h.on_collision_slot(0, 0, 2, false);
       }},
      {"radio.collision_while_transmitting", [=](NetworkAuditHook& h) {
         start(h);
         h.on_transmissions(0, {tx(0), tx(1), tx(2)});
         h.on_collision_slot(0, 1, 2, false);
       }},
      {"radio.cd_ablation", [=](NetworkAuditHook& h) {
         start(h);
         h.on_transmissions(0, {tx(0), tx(2)});
         h.on_collision_slot(0, 1, 2, /*cd_callback=*/true);
       }},
      {"radio.deaf_not_transmitting", [=](NetworkAuditHook& h) {
         start(h);
         h.on_transmissions(0, {tx(1)});
         h.on_deaf_slot(0, 0, 1);
       }},
      {"radio.deaf_count", [=](NetworkAuditHook& h) {
         start(h);
         h.on_transmissions(0, {tx(0), tx(1)});
         h.on_deaf_slot(0, 1, 2);
       }},
      {"radio.fault_without_model", [=](NetworkAuditHook& h) {
         start(h);
         h.on_transmissions(0, {tx(1)});
         h.on_fault_drop(0, 0, 0);
       }},
      {"radio.fault_slot", [=](NetworkAuditHook& h) {
         start(h);
         h.on_transmissions(0, {tx(0), tx(2)});
         h.on_fault_drop(0, 1, 0);
       }},
      {"radio.fault_source", [=](NetworkAuditHook& h) {
         start(h);
         h.on_transmissions(0, {tx(1)});
         h.on_fault_drop(0, 0, 3);
       }},
      {"radio.double_wake", [=](NetworkAuditHook& h) {
         start(h);
         h.on_node_wake(0, 2);
       }},
      {"radio.initial_wake_range", [=](NetworkAuditHook& h) {
         h.on_sim_start({0, 1, 2, 3, 9});
       }},
      {"radio.outcome", [=](NetworkAuditHook& h) {
         start(h);
         h.on_transmissions(0, {tx(1)});
         h.on_round_end(0);
       }},
      {"radio.wake_on_reception", [=](NetworkAuditHook& h) {
         h.on_sim_start({1});
         h.on_transmissions(0, {tx(1)});
         h.on_deliver(0, 0, 0, tx(1));
         h.on_deliver(0, 2, 0, tx(1));
         h.on_round_end(0);
       }},
      {"run.initial_wake_set", [=](NetworkAuditHook& h) {
         h.on_sim_start({0, 1, 2});
       }},
  };
}

bool reports(const audit::AuditReport& report, const std::string& check) {
  for (const audit::Violation& v : report.violations()) {
    if (v.check == check) return true;
  }
  return false;
}

TEST(ChannelAuditor, EveryRadioCheckFiresThroughBothAuditors) {
  const graph::Graph g = graph::make_path(4);
  core::KBroadcastConfig cfg;
  cfg.know = radio::Knowledge::exact(g);
  const core::ResolvedConfig rc = core::resolve(cfg);
  std::vector<radio::Packet> truth;
  for (radio::NodeId v = 0; v < 4; ++v) {
    truth.push_back({radio::make_packet_id(v, 0), {}});
  }

  for (const ChannelScript& script : channel_scripts()) {
    const std::string check = script.check;
    SCOPED_TRACE(check.empty() ? "control" : check);

    audit::ChannelAuditor::Options opts;
    opts.expect_all_awake = true;
    audit::ChannelAuditor channel(g, opts);
    script.run(channel);

    // The ModelAuditor sees the same script after a legal Stage-1 entry
    // on every node, so the control's alarm passes its kind check.
    audit::ModelAuditor model;
    model.begin_run(g, rc, truth, {}, /*collision_detection=*/false);
    for (radio::NodeId v = 0; v < 4; ++v) model.on_stage_enter(v, 1, 0);
    script.run(model);

    if (check.empty()) {
      EXPECT_TRUE(channel.clean()) << channel.summary();
      EXPECT_TRUE(model.clean()) << model.summary();
    } else {
      EXPECT_TRUE(reports(channel.report(), check)) << channel.summary();
      EXPECT_TRUE(reports(model.report(), check)) << model.summary();
    }
  }
}

}  // namespace
}  // namespace radiocast
