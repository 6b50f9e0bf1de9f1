// Truth-table tests of the radio model semantics: receive iff exactly one
// neighbor transmits; transmitters are deaf; no collision detection signal;
// sleeping nodes wake on first reception.
#include "radio/network.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "graph/generators.hpp"
#include "slot_recorder.hpp"

namespace radiocast::radio {
namespace {

/// Transmits scripted messages at scripted rounds; records every delivery.
class ScriptNode final : public NodeProtocol {
 public:
  explicit ScriptNode(std::map<Round, MessageBody> script = {})
      : script_(std::move(script)) {}

  void on_wake(Round round) override {
    woke_ = true;
    wake_round_ = round;
  }

  std::optional<MessageBody> on_transmit(Round round) override {
    ++transmit_polls_;
    const auto it = script_.find(round);
    if (it == script_.end()) return std::nullopt;
    return it->second;
  }

  void on_receive(Round round, const Message& msg) override {
    received_.emplace_back(round, msg);
  }

  bool woke_ = false;
  Round wake_round_ = 0;
  std::uint64_t transmit_polls_ = 0;
  std::vector<std::pair<Round, Message>> received_;

 private:
  std::map<Round, MessageBody> script_;
};

ScriptNode& node_at(Network& net, NodeId id) {
  return static_cast<ScriptNode&>(net.protocol(id));
}

/// Star with center 0 and `leaves` leaves.
Network make_star_net(graph::Graph& g, NodeId leaves,
                      const std::map<NodeId, std::map<Round, MessageBody>>& scripts,
                      bool wake_all = true) {
  g = graph::make_star(leaves + 1);
  Network net(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto it = scripts.find(v);
    net.set_protocol(v, std::make_unique<ScriptNode>(
                            it == scripts.end() ? std::map<Round, MessageBody>{}
                                                : it->second));
    if (wake_all) net.wake_at_start(v);
  }
  return net;
}

TEST(Network, SingleTransmitterDelivers) {
  graph::Graph g;
  Network net = make_star_net(g, 3, {{1, {{0, AlarmMsg{}}}}});
  net.step();
  // Center hears leaf 1; other leaves are not adjacent to leaf 1.
  ASSERT_EQ(node_at(net, 0).received_.size(), 1u);
  EXPECT_EQ(node_at(net, 0).received_[0].second.from, 1u);
  EXPECT_TRUE(node_at(net, 2).received_.empty());
  EXPECT_TRUE(node_at(net, 3).received_.empty());
  EXPECT_EQ(net.trace().counters().deliveries, 1u);
  EXPECT_EQ(net.trace().counters().transmissions, 1u);
}

TEST(Network, TwoTransmittersCollideAtCommonNeighbor) {
  graph::Graph g;
  Network net = make_star_net(g, 3, {{1, {{0, AlarmMsg{}}}}, {2, {{0, AlarmMsg{}}}}});
  net.step();
  EXPECT_TRUE(node_at(net, 0).received_.empty());  // collision at center
  EXPECT_EQ(net.trace().counters().collision_slots, 1u);
  EXPECT_EQ(net.trace().counters().deliveries, 0u);
}

TEST(Network, NoCollisionDetectionSignal) {
  // A node cannot distinguish silence from collision: in both cases it
  // simply gets no on_receive callback.
  graph::Graph g;
  Network silent = make_star_net(g, 2, {});
  silent.step();
  graph::Graph g2;
  Network collided = make_star_net(g2, 2,
                                   {{1, {{0, AlarmMsg{}}}}, {2, {{0, AlarmMsg{}}}}});
  collided.step();
  EXPECT_TRUE(node_at(silent, 0).received_.empty());
  EXPECT_TRUE(node_at(collided, 0).received_.empty());
}

TEST(Network, TransmitterIsDeaf) {
  // Center and leaf both transmit; leaf 1 would be the center's only
  // transmitting neighbor, but the center is itself transmitting.
  graph::Graph g;
  Network net = make_star_net(g, 2, {{0, {{0, AlarmMsg{}}}}, {1, {{0, AlarmMsg{}}}}});
  net.step();
  EXPECT_TRUE(node_at(net, 0).received_.empty());
  EXPECT_TRUE(node_at(net, 1).received_.empty());
  // Both the center and leaf 1 were reached while transmitting.
  EXPECT_EQ(net.trace().counters().deaf_slots, 2u);
  // Leaf 2 hears the center alone (leaf 1 is not its neighbor).
  ASSERT_EQ(node_at(net, 2).received_.size(), 1u);
  EXPECT_EQ(node_at(net, 2).received_[0].second.from, 0u);
}

TEST(Network, MessageReachesOnlyNeighbors) {
  graph::Graph g = graph::make_path(4);
  Network net(g);
  for (NodeId v = 0; v < 4; ++v) {
    net.set_protocol(v, std::make_unique<ScriptNode>(
                            v == 0 ? std::map<Round, MessageBody>{{0, AlarmMsg{}}}
                                   : std::map<Round, MessageBody>{}));
    net.wake_at_start(v);
  }
  net.step();
  EXPECT_EQ(node_at(net, 1).received_.size(), 1u);
  EXPECT_TRUE(node_at(net, 2).received_.empty());
  EXPECT_TRUE(node_at(net, 3).received_.empty());
}

TEST(Network, SleepingNodeDoesNotTransmitButWakesOnReception) {
  graph::Graph g = graph::make_path(3);
  Network net(g);
  net.set_protocol(0, std::make_unique<ScriptNode>(
                          std::map<Round, MessageBody>{{0, AlarmMsg{}}}));
  // Node 1 sleeps but has a script for round 1; it must not fire... it
  // wakes at round 0 via reception, so its round-1 script does fire.
  net.set_protocol(1, std::make_unique<ScriptNode>(
                          std::map<Round, MessageBody>{{1, AlarmMsg{}}}));
  net.set_protocol(2, std::make_unique<ScriptNode>(
                          std::map<Round, MessageBody>{{0, AlarmMsg{}}, {1, AlarmMsg{}}}));
  net.wake_at_start(0);
  // Nodes 1, 2 sleep. Round 0: only node 0 transmits (node 2's script is
  // ignored while asleep); node 1 receives and wakes.
  net.step();
  EXPECT_TRUE(node_at(net, 1).woke_);
  EXPECT_EQ(node_at(net, 1).wake_round_, 0u);
  ASSERT_EQ(node_at(net, 1).received_.size(), 1u);
  EXPECT_FALSE(node_at(net, 2).woke_);
  EXPECT_EQ(node_at(net, 2).transmit_polls_, 0u);
  // Round 1: node 1 (now awake) transmits per script; node 2 wakes.
  net.step();
  EXPECT_TRUE(node_at(net, 2).woke_);
  EXPECT_EQ(node_at(net, 2).wake_round_, 1u);
}

TEST(Network, InitialWakeFiresOnWakeAtRoundZero) {
  graph::Graph g = graph::make_path(2);
  Network net(g);
  net.set_protocol(0, std::make_unique<ScriptNode>());
  net.set_protocol(1, std::make_unique<ScriptNode>());
  net.wake_at_start(0);
  net.step();
  EXPECT_TRUE(node_at(net, 0).woke_);
  EXPECT_EQ(node_at(net, 0).wake_round_, 0u);
  EXPECT_FALSE(node_at(net, 1).woke_);
  EXPECT_EQ(net.trace().counters().wakeups, 1u);
}

TEST(Network, AwakeNodesArePolledEveryRound) {
  graph::Graph g = graph::make_path(2);
  Network net(g);
  net.set_protocol(0, std::make_unique<ScriptNode>());
  net.set_protocol(1, std::make_unique<ScriptNode>());
  net.wake_at_start(0);
  net.wake_at_start(1);
  for (int i = 0; i < 10; ++i) net.step();
  EXPECT_EQ(node_at(net, 0).transmit_polls_, 10u);
  EXPECT_EQ(node_at(net, 1).transmit_polls_, 10u);
  EXPECT_EQ(net.current_round(), 10u);
  EXPECT_EQ(net.trace().counters().rounds, 10u);
}

TEST(Network, BitCountersTrackSizes) {
  graph::Graph g;
  Network net = make_star_net(g, 2, {{0, {{0, AlarmMsg{}}}}});
  net.step();
  EXPECT_EQ(net.trace().counters().bits_transmitted, 1u);
  EXPECT_EQ(net.trace().counters().bits_delivered, 2u);  // both leaves hear
}

TEST(Network, EventLogRecordsKinds) {
  // The audit hook's slot events carry the outcome, receiver, sender and
  // message kind of every reception opportunity.
  graph::Graph g;
  Network net = make_star_net(g, 2, {{1, {{0, AlarmMsg{}}}}});
  SlotRecorder hook;
  net.set_auditor(&hook);
  net.step();
  ASSERT_EQ(hook.slots.size(), 1u);
  EXPECT_EQ(hook.slots[0].outcome, SlotRecorder::Outcome::kDelivered);
  EXPECT_EQ(hook.slots[0].message_kind, "alarm");
  EXPECT_EQ(hook.slots[0].node, 0u);
  EXPECT_EQ(hook.slots[0].from, 1u);
}

// Configuration-after-start and out-of-range misuse must die loudly:
// silently accepting a protocol swap or fault-model change mid-run would
// invalidate every invariant the auditor checks.
using NetworkDeathTest = ::testing::Test;

TEST(NetworkDeathTest, ConfigurationAfterFirstStepAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  graph::Graph g = graph::make_path(2);
  Network net(g);
  net.set_protocol(0, std::make_unique<ScriptNode>());
  net.set_protocol(1, std::make_unique<ScriptNode>());
  net.wake_at_start(0);
  net.step();
  EXPECT_DEATH(net.set_protocol(0, std::make_unique<ScriptNode>()),
               "set_protocol after the simulation started");
  EXPECT_DEATH(net.wake_at_start(1),
               "wake_at_start after the simulation started");
  EXPECT_DEATH(net.set_fault_model({0.1, 1}),
               "set_fault_model after the simulation started");
  EXPECT_DEATH(net.enable_collision_detection(true),
               "enable_collision_detection after the simulation started");
}

TEST(NetworkDeathTest, OutOfRangeIdsAbort) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  graph::Graph g = graph::make_path(2);
  Network net(g);
  EXPECT_DEATH(net.set_protocol(2, std::make_unique<ScriptNode>()),
               "set_protocol on an out-of-range id");
  EXPECT_DEATH(net.wake_at_start(2), "wake_at_start on an out-of-range id");
}

TEST(NetworkDeathTest, InvalidFaultProbabilityAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  graph::Graph g = graph::make_path(2);
  Network net(g);
  EXPECT_DEATH(net.set_fault_model({1.5, 1}), "reception_loss_probability");
}

TEST(Network, PayloadIntegrityThroughDelivery) {
  DataMsg data;
  data.packet.id = make_packet_id(1, 7);
  data.packet.payload = {1, 2, 3, 4};
  data.to = 0;
  graph::Graph g;
  Network net = make_star_net(g, 1, {{1, {{0, data}}}});
  net.step();
  ASSERT_EQ(node_at(net, 0).received_.size(), 1u);
  const auto& body = node_at(net, 0).received_[0].second.body;
  const auto* got = std::get_if<DataMsg>(&body);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->packet.id, data.packet.id);
  EXPECT_EQ(got->packet.payload, data.packet.payload);
}

}  // namespace
}  // namespace radiocast::radio
