// Engine-level property tests under random traffic: accounting identities,
// determinism, neighbor-only propagation — parameterized over graph
// families.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "radio/network.hpp"
#include "slot_recorder.hpp"

namespace radiocast::radio {
namespace {

/// Transmits an AlarmMsg with a fixed probability every round.
class RandomChatter final : public NodeProtocol {
 public:
  RandomChatter(double p, Rng rng) : p_(p), rng_(rng) {}
  std::optional<MessageBody> on_transmit(Round) override {
    if (rng_.next_bool(p_)) return MessageBody{AlarmMsg{}};
    return std::nullopt;
  }
  void on_receive(Round, const Message& msg) override {
    ++receptions_;
    last_from_ = msg.from;
  }
  std::uint64_t receptions_ = 0;
  NodeId last_from_ = 0;

 private:
  double p_;
  Rng rng_;
};

struct RunStats {
  TraceCounters counters;
  std::vector<std::uint64_t> receptions;
};

RunStats run_chatter(const graph::Graph& g, double p, std::uint64_t seed,
                     int rounds) {
  Network net(g);
  Rng master(seed);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    net.set_protocol(v, std::make_unique<RandomChatter>(p, master.split()));
    net.wake_at_start(v);
  }
  for (int i = 0; i < rounds; ++i) net.step();
  RunStats out;
  out.counters = net.trace().counters();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    out.receptions.push_back(static_cast<RandomChatter&>(net.protocol(v)).receptions_);
  }
  return out;
}

class EngineProperties : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineProperties, AccountingIdentitiesHold) {
  Rng grng(5);
  const graph::Graph g = graph::make_named(GetParam(), 32, grng);
  const RunStats s = run_chatter(g, 0.2, 77, 500);

  // Every delivery was recorded by exactly one protocol.
  std::uint64_t total_receptions = 0;
  for (std::uint64_t r : s.receptions) total_receptions += r;
  EXPECT_EQ(total_receptions, s.counters.deliveries);

  // Reception opportunities cannot exceed transmission reach:
  // deliveries + collision slots + deaf slots <= sum of transmitter degrees
  // <= transmissions * maxdeg.
  EXPECT_LE(s.counters.deliveries + s.counters.collision_slots +
                s.counters.deaf_slots,
            s.counters.transmissions * g.max_degree());

  // Per-kind breakdown sums to the totals.
  std::uint64_t tx_by_kind = 0, rx_by_kind = 0;
  for (std::size_t k = 0; k < kNumMessageKinds; ++k) {
    tx_by_kind += s.counters.transmissions_by_kind[k];
    rx_by_kind += s.counters.deliveries_by_kind[k];
  }
  EXPECT_EQ(tx_by_kind, s.counters.transmissions);
  EXPECT_EQ(rx_by_kind, s.counters.deliveries);

  // Bits follow messages (alarms are 1 bit).
  EXPECT_EQ(s.counters.bits_transmitted, s.counters.transmissions);
  EXPECT_EQ(s.counters.bits_delivered, s.counters.deliveries);

  EXPECT_EQ(s.counters.rounds, 500u);
  EXPECT_EQ(s.counters.wakeups, g.num_nodes());
}

TEST_P(EngineProperties, DeterministicAcrossRuns) {
  Rng grng(6);
  const graph::Graph g = graph::make_named(GetParam(), 24, grng);
  const RunStats a = run_chatter(g, 0.3, 99, 300);
  const RunStats b = run_chatter(g, 0.3, 99, 300);
  EXPECT_EQ(a.counters.transmissions, b.counters.transmissions);
  EXPECT_EQ(a.counters.deliveries, b.counters.deliveries);
  EXPECT_EQ(a.counters.collision_slots, b.counters.collision_slots);
  EXPECT_EQ(a.receptions, b.receptions);
}

INSTANTIATE_TEST_SUITE_P(Families, EngineProperties,
                         ::testing::Values("path", "star", "grid", "gnp",
                                           "geometric", "cluster_chain"));

TEST(EngineProperties, IsolatedNodeNeverReceives) {
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.finalize();
  Network net(g);
  Rng master(1);
  for (NodeId v = 0; v < 3; ++v) {
    net.set_protocol(v, std::make_unique<RandomChatter>(0.5, master.split()));
    net.wake_at_start(v);
  }
  for (int i = 0; i < 200; ++i) net.step();
  EXPECT_EQ(static_cast<RandomChatter&>(net.protocol(2)).receptions_, 0u);
}

TEST(EngineProperties, FromFieldIsAlwaysANeighbor) {
  Rng grng(2);
  const graph::Graph g = graph::make_random_geometric(24, 0.35, grng);
  Network net(g);
  Rng master(3);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    net.set_protocol(v, std::make_unique<RandomChatter>(0.15, master.split()));
    net.wake_at_start(v);
  }
  SlotRecorder hook;
  net.set_auditor(&hook);
  for (int i = 0; i < 200; ++i) net.step();
  std::uint64_t delivered = 0;
  for (const SlotRecorder::Slot& s : hook.slots) {
    if (s.outcome == SlotRecorder::Outcome::kDelivered) {
      ++delivered;
      EXPECT_TRUE(g.has_edge(s.node, s.from));
    }
  }
  EXPECT_EQ(delivered, net.trace().counters().deliveries);
  EXPECT_GT(delivered, 0u);
}

TEST(EngineProperties, HighLoadMostlyCollides) {
  // Everyone transmits every round on a complete graph: no one ever
  // receives (all deaf) — the degenerate saturation case.
  const graph::Graph g = graph::make_complete(8);
  Network net(g);
  Rng master(4);
  for (NodeId v = 0; v < 8; ++v) {
    net.set_protocol(v, std::make_unique<RandomChatter>(1.0, master.split()));
    net.wake_at_start(v);
  }
  for (int i = 0; i < 50; ++i) net.step();
  EXPECT_EQ(net.trace().counters().deliveries, 0u);
  EXPECT_EQ(net.trace().counters().deaf_slots, 50u * 8);
}

}  // namespace
}  // namespace radiocast::radio
