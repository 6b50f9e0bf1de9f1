// core::TapList — the fan-out every run's taps share: a scripted run of
// all 14 RunAuditor events must reach each subscriber, in registration
// order, with its arguments intact.
#include "core/audit.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/runner.hpp"
#include "graph/generators.hpp"

namespace radiocast::core {
namespace {

/// Appends "<name>:<event> <args>" to a log shared by every subscriber.
class LoggingTap final : public RunAuditor {
 public:
  LoggingTap(std::string name, std::vector<std::string>* log)
      : name_(std::move(name)), log_(log) {}

  void begin_run(const graph::Graph& g, const ResolvedConfig& rc,
                 const std::vector<radio::Packet>& truth, const radio::FaultModel& faults,
                 bool cd) override {
    add("begin_run", {g.num_nodes(), rc.group_size, truth.size(),
                      faults.seed, cd ? 1u : 0u});
  }
  void end_run(const radio::Network& net, const RunResult& result) override {
    add("end_run", {net.num_nodes(), result.total_rounds});
  }
  void on_sim_start(const std::vector<radio::NodeId>& awake) override {
    add("on_sim_start", {awake.size()});
  }
  void on_transmissions(radio::Round round, const std::vector<radio::Message>& txs) override {
    add("on_transmissions", {round, txs.size()});
  }
  void on_deliver(radio::Round round, radio::NodeId receiver, std::uint32_t tx_index,
                  const radio::Message& msg) override {
    add("on_deliver", {round, receiver, tx_index, msg.from});
  }
  void on_collision_slot(radio::Round round, radio::NodeId receiver,
                         std::uint32_t reached, bool cd) override {
    add("on_collision_slot", {round, receiver, reached, cd ? 1u : 0u});
  }
  void on_deaf_slot(radio::Round round, radio::NodeId receiver,
                    std::uint32_t reached) override {
    add("on_deaf_slot", {round, receiver, reached});
  }
  void on_fault_drop(radio::Round round, radio::NodeId receiver,
                     std::uint32_t tx_index) override {
    add("on_fault_drop", {round, receiver, tx_index});
  }
  void on_node_wake(radio::Round round, radio::NodeId node) override {
    add("on_node_wake", {round, node});
  }
  void on_round_end(radio::Round round) override { add("on_round_end", {round}); }
  void on_stage_enter(radio::NodeId node, std::uint32_t stage,
                      radio::Round boundary) override {
    add("on_stage_enter", {node, stage, boundary});
  }
  void on_collection_phase_begin(radio::NodeId node, std::uint32_t phase,
                                 std::uint64_t estimate, radio::Round round) override {
    add("on_collection_phase_begin", {node, phase, estimate, round});
  }
  void on_collection_epoch(radio::NodeId node, const char* kind, std::uint64_t slots,
                           std::uint32_t copies, radio::Round round) override {
    add(std::string("on_collection_epoch ") + kind, {node, slots, copies, round});
  }
  void on_collection_phase_end(radio::NodeId node, radio::Round round,
                               bool alarmed) override {
    add("on_collection_phase_end", {node, round, alarmed ? 1u : 0u});
  }

 private:
  void add(const std::string& event, std::initializer_list<std::uint64_t> args) {
    std::string line = name_ + ":" + event;
    for (const std::uint64_t a : args) line += " " + std::to_string(a);
    log_->push_back(std::move(line));
  }

  std::string name_;
  std::vector<std::string>* log_;
};

TEST(TapList, EveryEventReachesEverySubscriberInRegistrationOrder) {
  std::vector<std::string> log;
  LoggingTap a("a", &log), b("b", &log), c("c", &log);
  TapList taps;
  taps.add(&a);
  taps.add(nullptr);  // ignored
  taps.add(&b);
  taps.add(&c);
  RunAuditor* const tap = taps.as_tap();
  ASSERT_EQ(tap, &taps);

  const graph::Graph g = graph::make_path(3);
  const radio::Network net(g);
  ResolvedConfig rc;
  rc.group_size = 2;
  const std::vector<radio::Packet> truth = {{radio::make_packet_id(1, 0), {}}};
  radio::FaultModel faults;
  faults.seed = 9;
  const std::vector<radio::Message> txs = {{1, radio::AlarmMsg{}}, {2, radio::AlarmMsg{}}};
  RunResult result;
  result.total_rounds = 17;

  // The script: one call per event, each with distinct arguments.
  tap->begin_run(g, rc, truth, faults, true);
  tap->on_sim_start({1, 2});
  tap->on_stage_enter(1, 3, 40);
  tap->on_collection_phase_begin(2, 1, 64, 41);
  tap->on_collection_epoch(0, "mspg", 12, 3, 42);
  tap->on_transmissions(5, txs);
  tap->on_deliver(5, 0, 1, txs[1]);
  tap->on_collision_slot(5, 1, 2, true);
  tap->on_deaf_slot(5, 2, 1);
  tap->on_fault_drop(5, 0, 0);
  tap->on_node_wake(5, 0);
  tap->on_round_end(5);
  tap->on_collection_phase_end(2, 43, true);
  tap->end_run(net, result);

  const std::vector<std::string> events = {
      "begin_run 3 2 1 9 1",
      "on_sim_start 2",
      "on_stage_enter 1 3 40",
      "on_collection_phase_begin 2 1 64 41",
      "on_collection_epoch mspg 0 12 3 42",
      "on_transmissions 5 2",
      "on_deliver 5 0 1 2",
      "on_collision_slot 5 1 2 1",
      "on_deaf_slot 5 2 1",
      "on_fault_drop 5 0 0",
      "on_node_wake 5 0",
      "on_round_end 5",
      "on_collection_phase_end 2 43 1",
      "end_run 3 17",
  };
  std::vector<std::string> want;
  for (const std::string& e : events) {
    for (const char* name : {"a", "b", "c"}) want.push_back(std::string(name) + ":" + e);
  }
  EXPECT_EQ(log, want);
}

TEST(TapList, AsTapAttachesNothingOrTheOnlySubscriberDirectly) {
  std::vector<std::string> log;
  LoggingTap a("a", &log);
  TapList taps;
  EXPECT_EQ(taps.as_tap(), nullptr);
  taps.add(nullptr);
  EXPECT_EQ(taps.as_tap(), nullptr);
  taps.add(&a);
  EXPECT_EQ(taps.as_tap(), &a);
}

}  // namespace
}  // namespace radiocast::core
