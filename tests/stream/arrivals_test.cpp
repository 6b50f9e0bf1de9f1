// Arrival-schedule determinism and process statistics. The key discipline
// under test: schedules are a pure function of (n, config, horizon), and
// each node's schedule comes from its own child stream, so a node's
// arrivals do not move when the network around it changes size. Dynamic
// mode's finite list (make_arrivals) is tested at the end.
#include "stream/arrivals.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "radio/message.hpp"

namespace radiocast::stream {
namespace {

ArrivalConfig poisson_cfg(double rate, std::uint64_t seed) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kPoisson;
  cfg.rate = rate;
  cfg.seed = seed;
  return cfg;
}

std::map<radio::NodeId, std::vector<Arrival>> by_node(
    const std::vector<Arrival>& schedule) {
  std::map<radio::NodeId, std::vector<Arrival>> out;
  for (const Arrival& a : schedule) out[a.node].push_back(a);
  return out;
}

TEST(Arrivals, DeterministicGivenConfig) {
  const ArrivalConfig cfg = poisson_cfg(0.05, 7);
  const auto a = make_arrival_schedule(8, cfg, 500);
  const auto b = make_arrival_schedule(8, cfg, 500);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].round, b[i].round);
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].packet.id, b[i].packet.id);
    EXPECT_EQ(a[i].packet.payload, b[i].packet.payload);
  }
}

TEST(Arrivals, SeedChangesSchedule) {
  const auto a = make_arrival_schedule(8, poisson_cfg(0.05, 7), 500);
  const auto b = make_arrival_schedule(8, poisson_cfg(0.05, 8), 500);
  bool differs = a.size() != b.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i)
    differs = a[i].round != b[i].round || a[i].node != b[i].node;
  EXPECT_TRUE(differs);
}

TEST(Arrivals, SortedByRoundWithStableNodeOrderTies) {
  const auto schedule = make_arrival_schedule(16, poisson_cfg(0.2, 3), 300);
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    EXPECT_LE(schedule[i - 1].round, schedule[i].round);
    if (schedule[i - 1].round == schedule[i].round) {
      EXPECT_LE(schedule[i - 1].node, schedule[i].node);
    }
  }
}

TEST(Arrivals, IdsUniqueAndEncodeOrigin) {
  const auto schedule = make_arrival_schedule(6, poisson_cfg(0.1, 11), 400);
  std::set<radio::PacketId> ids;
  for (const Arrival& a : schedule) {
    EXPECT_TRUE(ids.insert(a.packet.id).second) << "duplicate id";
    EXPECT_EQ(radio::packet_origin(a.packet.id), a.node);
    EXPECT_LT(a.round, 400u);
    EXPECT_EQ(a.packet.payload.size(), 16u);
  }
}

TEST(Arrivals, ZeroRateAndZeroHorizonAreEmpty) {
  EXPECT_TRUE(make_arrival_schedule(8, poisson_cfg(0.0, 1), 100).empty());
  EXPECT_TRUE(make_arrival_schedule(8, poisson_cfg(0.5, 1), 0).empty());
}

TEST(Arrivals, NodeStreamsIndependentOfNetworkSize) {
  // Node v's schedule is drawn from its own split child, so growing the
  // network must not move any existing node's arrivals. This is the
  // property that keeps per-node workloads comparable across topologies.
  const ArrivalConfig cfg = poisson_cfg(0.08, 21);
  const auto small = by_node(make_arrival_schedule(4, cfg, 600));
  const auto big = by_node(make_arrival_schedule(12, cfg, 600));
  for (radio::NodeId v = 0; v < 4; ++v) {
    const auto& s = small.at(v);
    const auto& b = big.at(v);
    ASSERT_EQ(s.size(), b.size()) << "node " << v;
    for (std::size_t i = 0; i < s.size(); ++i) {
      EXPECT_EQ(s[i].round, b[i].round);
      EXPECT_EQ(s[i].packet.id, b[i].packet.id);
    }
  }
}

TEST(Arrivals, PoissonCountNearExpectation) {
  // n * rate * horizon = 16 * 0.05 * 2000 = 1600 expected arrivals;
  // the std dev is ~40, so +-12.5% is a >5-sigma band.
  const auto schedule = make_arrival_schedule(16, poisson_cfg(0.05, 33), 2000);
  const double expected = 16 * 0.05 * 2000;
  EXPECT_GT(static_cast<double>(schedule.size()), expected * 0.875);
  EXPECT_LT(static_cast<double>(schedule.size()), expected * 1.125);
}

TEST(Arrivals, PeriodicSpacingIsExact) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kPeriodic;
  cfg.rate = 0.1;  // period 10
  cfg.seed = 5;
  const auto per_node = by_node(make_arrival_schedule(6, cfg, 500));
  ASSERT_EQ(per_node.size(), 6u);
  for (const auto& [node, list] : per_node) {
    ASSERT_GE(list.size(), 2u) << "node " << node;
    EXPECT_LT(list.front().round, 10u);  // phase within one period
    for (std::size_t i = 1; i < list.size(); ++i)
      EXPECT_EQ(list[i].round - list[i - 1].round, 10u);
  }
}

TEST(Arrivals, KindNamesRoundTrip) {
  for (ArrivalKind kind : {ArrivalKind::kPoisson, ArrivalKind::kPeriodic}) {
    ArrivalKind parsed{};
    ASSERT_TRUE(arrival_kind_from_string(arrival_kind_name(kind), parsed));
    EXPECT_EQ(parsed, kind);
  }
  ArrivalKind unused{};
  EXPECT_FALSE(arrival_kind_from_string("uniform", unused));
  EXPECT_FALSE(arrival_kind_from_string("", unused));
}

TEST(MakeArrivals, CountAndRange) {
  Rng rng(1);
  const auto arrivals = make_arrivals(10, 50, 1000, 8, rng);
  EXPECT_EQ(arrivals.size(), 50u);
  for (const Arrival& a : arrivals) {
    EXPECT_LT(a.round, 1000u);
    EXPECT_LT(a.node, 10u);
    EXPECT_EQ(a.packet.payload.size(), 8u);
  }
}

TEST(MakeArrivals, SortedByRound) {
  Rng rng(2);
  const auto arrivals = make_arrivals(6, 80, 5000, 4, rng);
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_LE(arrivals[i - 1].round, arrivals[i].round);
  }
}

TEST(MakeArrivals, PacketIdsUniqueAndMatchNode) {
  Rng rng(3);
  const auto arrivals = make_arrivals(5, 60, 200, 4, rng);
  std::set<radio::PacketId> ids;
  for (const Arrival& a : arrivals) {
    EXPECT_TRUE(ids.insert(a.packet.id).second) << "duplicate id";
    EXPECT_EQ(radio::packet_origin(a.packet.id), a.node);
  }
}

TEST(MakeArrivals, ZeroSpreadAllAtRoundZero) {
  Rng rng(4);
  const auto arrivals = make_arrivals(4, 10, 0, 4, rng);
  for (const Arrival& a : arrivals) EXPECT_EQ(a.round, 0u);
}

TEST(MakeArrivals, DeterministicGivenRng) {
  Rng a(5), b(5);
  const auto x = make_arrivals(8, 30, 100, 4, a);
  const auto y = make_arrivals(8, 30, 100, 4, b);
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(x[i].round, y[i].round);
    EXPECT_EQ(x[i].node, y[i].node);
    EXPECT_EQ(x[i].packet.id, y[i].packet.id);
    EXPECT_EQ(x[i].packet.payload, y[i].packet.payload);
  }
}

}  // namespace
}  // namespace radiocast::stream
