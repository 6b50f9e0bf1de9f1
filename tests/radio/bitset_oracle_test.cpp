// Differential oracle: the bitset reception sweep against the scalar one.
//
// Every test runs two identically seeded simulations lock-step — one
// Network forced to each sweep — and compares them after every round:
// full trace counters, the awake set, and per-protocol observations
// (transmit calls, receive count, last sender, wake round). The scalar
// sweep is the reference semantics (every historical digest was produced
// by it), so any divergence is a bitset-sweep bug by definition.
//
// Both sweeps share Phase 1 (every due node's on_transmit); they differ
// only in Phases 2-3. The bitset sweep runs only rounds with nothing
// order-sensitive attached; a fault model, an audit hook or an engine
// mutation sends every round to the scalar sweep under every mode. The
// plain tests cover the word sweep, collision detection and
// wake-on-first-reception from a single seed node. The fault, audit-hook
// and mutation tests pin that dispatch: with faults on, a wrongly taken
// word-parallel round would show fault_drops == 0 (it has no erasure
// step). The SweepRule tests pin the default mode's per-round choice
// (Network::bitset_rounds()) and, on a schedule that alternates dense and
// sparse rounds, that switching sweeps mid-run changes nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "radio/network.hpp"

namespace radiocast::radio {
namespace {

/// Probabilistic flood (the engine_equivalence_test idiom): once awake,
/// transmits an alarm with probability `p` each round from its own Rng
/// stream — deterministic given the seed, so two engines fed the same
/// seeds see the same decisions as long as they fire the same callbacks.
/// With a `sparse_p`, blocks of four rounds at `p` alternate with blocks
/// at `sparse_p`.
class FloodNode final : public NodeProtocol {
 public:
  FloodNode(Rng rng, double p) : FloodNode(rng, p, p) {}
  FloodNode(Rng rng, double p, double sparse_p) : rng_(rng), p_(p), sparse_p_(sparse_p) {}

  std::optional<MessageBody> on_transmit(Round round) override {
    ++transmit_calls;
    if (rng_.next_bool(dense_block(round) ? p_ : sparse_p_)) {
      last_tx_round = round;
      return AlarmMsg{};
    }
    return std::nullopt;
  }
  void on_receive(Round /*round*/, const Message& msg) override {
    ++receives;
    last_from = msg.from;
  }
  void on_collision(Round /*round*/) override { ++collisions_seen; }
  void on_wake(Round round) override { woke_at = round; }

  static bool dense_block(Round round) { return (round / 4) % 2 == 0; }

  std::uint64_t transmit_calls = 0;
  std::uint64_t receives = 0;
  std::uint64_t collisions_seen = 0;
  NodeId last_from = 0;
  std::optional<Round> woke_at;
  std::optional<Round> last_tx_round;

 private:
  Rng rng_;
  double p_;
  double sparse_p_;
};

struct EnginePair {
  Network scalar_net;
  Network other_net;
  std::vector<FloodNode*> scalar_nodes;
  std::vector<FloodNode*> other_nodes;

  /// The scalar sweep against `other` (default: the forced bitset sweep).
  EnginePair(const graph::Graph& g, std::uint64_t seed, double p,
             EngineMode other = EngineMode::kBitset, double sparse_p = -1.0)
      : scalar_net(g), other_net(g) {
    scalar_net.set_engine(EngineMode::kScalar);
    other_net.set_engine(other);
    if (sparse_p < 0.0) sparse_p = p;
    Rng master_a(seed);
    Rng master_b(seed);
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      auto a = std::make_unique<FloodNode>(master_a.split(), p, sparse_p);
      auto b = std::make_unique<FloodNode>(master_b.split(), p, sparse_p);
      scalar_nodes.push_back(a.get());
      other_nodes.push_back(b.get());
      scalar_net.set_protocol(v, std::move(a));
      other_net.set_protocol(v, std::move(b));
    }
  }

  void wake_all() {
    for (graph::NodeId v = 0; v < scalar_net.num_nodes(); ++v) {
      scalar_net.wake_at_start(v);
      other_net.wake_at_start(v);
    }
  }

  /// Steps both engines once and compares every observable.
  void step_and_compare() {
    scalar_net.step();
    other_net.step();
    const TraceCounters& a = scalar_net.trace().counters();
    const TraceCounters& b = other_net.trace().counters();
    ASSERT_EQ(a, b) << "counters diverged at round " << scalar_net.current_round();
    ASSERT_EQ(scalar_net.num_awake(), other_net.num_awake());
    for (graph::NodeId v = 0; v < scalar_net.num_nodes(); ++v) {
      ASSERT_EQ(scalar_net.is_awake(v), other_net.is_awake(v)) << "node " << v;
      ASSERT_EQ(scalar_nodes[v]->transmit_calls, other_nodes[v]->transmit_calls)
          << "node " << v;
      ASSERT_EQ(scalar_nodes[v]->receives, other_nodes[v]->receives) << "node " << v;
      ASSERT_EQ(scalar_nodes[v]->last_from, other_nodes[v]->last_from) << "node " << v;
      ASSERT_EQ(scalar_nodes[v]->collisions_seen, other_nodes[v]->collisions_seen)
          << "node " << v;
      ASSERT_EQ(scalar_nodes[v]->woke_at, other_nodes[v]->woke_at) << "node " << v;
    }
  }
};

TEST(BitsetOracle, DenseGnpAllAwake) {
  Rng grng(101);
  const graph::Graph g = graph::make_gnp_connected(96, 0.2, grng);
  EnginePair pair(g, 42, 0.3);
  pair.wake_all();
  for (int r = 0; r < 200; ++r) pair.step_and_compare();
  EXPECT_GT(pair.scalar_net.trace().counters().deliveries, 0u);
  EXPECT_GT(pair.scalar_net.trace().counters().collision_slots, 0u);
}

TEST(BitsetOracle, SparseBoundedDegreeAllAwake) {
  Rng grng(7);
  const graph::Graph g = graph::make_bounded_degree(200, 4, 0.5, grng);
  EnginePair pair(g, 9001, 0.05);
  pair.wake_all();
  for (int r = 0; r < 300; ++r) pair.step_and_compare();
  EXPECT_GT(pair.scalar_net.trace().counters().deliveries, 0u);
}

TEST(BitsetOracle, GeometricWakeOnFirstReception) {
  Rng grng(31);
  const graph::Graph g = graph::make_random_geometric(80, 0.25, grng);
  EnginePair pair(g, 777, 0.25);
  pair.scalar_net.wake_at_start(0);
  pair.other_net.wake_at_start(0);
  for (int r = 0; r < 400; ++r) pair.step_and_compare();
  EXPECT_GT(pair.scalar_net.trace().counters().wakeups, 1u);
}

TEST(BitsetOracle, CollisionDetectionAblation) {
  Rng grng(55);
  const graph::Graph g = graph::make_gnp_connected(64, 0.25, grng);
  EnginePair pair(g, 314, 0.35);
  pair.scalar_net.enable_collision_detection(true);
  pair.other_net.enable_collision_detection(true);
  pair.scalar_net.wake_at_start(0);
  pair.other_net.wake_at_start(0);
  for (int r = 0; r < 250; ++r) pair.step_and_compare();
  std::uint64_t cd_callbacks = 0;
  for (const FloodNode* n : pair.scalar_nodes) cd_callbacks += n->collisions_seen;
  EXPECT_GT(cd_callbacks, 0u);  // CD wakes + on_collision actually exercised
}

TEST(BitsetOracle, FaultErasuresConsumeIdenticalRngStream) {
  // Faults send every round to the scalar kernel: the erasure RNG is
  // consumed one draw per successful slot in receiver-touch order, which
  // only that kernel defines.
  Rng grng(13);
  const graph::Graph g = graph::make_gnp_connected(72, 0.15, grng);
  EnginePair pair(g, 2718, 0.2);
  FaultModel fm;
  fm.reception_loss_probability = 0.3;
  fm.seed = 0xfa7155eedULL;
  pair.scalar_net.set_fault_model(fm);
  pair.other_net.set_fault_model(fm);
  pair.wake_all();
  for (int r = 0; r < 300; ++r) pair.step_and_compare();
  EXPECT_GT(pair.scalar_net.trace().counters().fault_drops, 0u);
}

/// Serialises every NetworkAuditHook callback into one string per event.
/// Attaching it sends the bitset engine's rounds to the scalar kernel, and
/// the resulting log pins the complete callback stream — ordering included
/// — against the scalar engine's. (ModelAuditor-level certification under
/// the bitset engine lives in tests/audit/bitset_corpus_test.cpp, where
/// the full k-broadcast run context it requires exists.)
class RecordingHook final : public NetworkAuditHook {
 public:
  void on_sim_start(const std::vector<NodeId>& initially_awake) override {
    std::uint64_t acc = 0;
    for (const NodeId id : initially_awake) acc += id;
    log_.push_back("start n=" + std::to_string(initially_awake.size()) +
                   " sum=" + std::to_string(acc));
  }
  void on_transmissions(Round round, const std::vector<Message>& txs) override {
    std::string entry = "tx r" + std::to_string(round) + ":";
    for (const Message& m : txs) entry += " " + std::to_string(m.from);
    log_.push_back(std::move(entry));
  }
  void on_deliver(Round round, NodeId receiver, std::uint32_t tx_index,
                  const Message& msg) override {
    log_.push_back("deliver r" + std::to_string(round) + " v" +
                   std::to_string(receiver) + " tx" + std::to_string(tx_index) +
                   " from" + std::to_string(msg.from));
  }
  void on_collision_slot(Round round, NodeId receiver, std::uint32_t reached,
                         bool cd_callback) override {
    log_.push_back("collision r" + std::to_string(round) + " v" +
                   std::to_string(receiver) + " k" + std::to_string(reached) +
                   (cd_callback ? " cd" : ""));
  }
  void on_deaf_slot(Round round, NodeId receiver, std::uint32_t reached) override {
    log_.push_back("deaf r" + std::to_string(round) + " v" +
                   std::to_string(receiver) + " k" + std::to_string(reached));
  }
  void on_fault_drop(Round round, NodeId receiver, std::uint32_t tx_index) override {
    log_.push_back("drop r" + std::to_string(round) + " v" +
                   std::to_string(receiver) + " tx" + std::to_string(tx_index));
  }
  void on_node_wake(Round round, NodeId node) override {
    log_.push_back("wake r" + std::to_string(round) + " v" + std::to_string(node));
  }
  void on_round_end(Round round) override {
    log_.push_back("end r" + std::to_string(round));
  }

  const std::vector<std::string>& log() const { return log_; }

 private:
  std::vector<std::string> log_;
};

TEST(BitsetOracle, AuditHookStreamsAreIdentical) {
  // The strongest lock-step check: the full serialized callback stream —
  // per-slot outcomes in receiver-touch order, transmission sets, wakes,
  // round ends — must match entry for entry. An attached hook also sends
  // the bitset engine's rounds to the scalar kernel.
  Rng grng(67);
  const graph::Graph g = graph::make_random_geometric(60, 0.3, grng);
  EnginePair pair(g, 5555, 0.25);
  RecordingHook hook_a;
  RecordingHook hook_b;
  pair.scalar_net.set_auditor(&hook_a);
  pair.other_net.set_auditor(&hook_b);
  pair.scalar_net.wake_at_start(0);
  pair.other_net.wake_at_start(0);
  for (int r = 0; r < 200; ++r) pair.step_and_compare();

  const auto& la = hook_a.log();
  const auto& lb = hook_b.log();
  ASSERT_GT(la.size(), 200u);
  ASSERT_EQ(la.size(), lb.size());
  for (std::size_t i = 0; i < la.size(); ++i) {
    ASSERT_EQ(la[i], lb[i]) << "audit stream diverged at entry " << i;
  }
}

TEST(BitsetOracle, SeededMutationReplaysIdenticallyOnBothEngines) {
  // A deliberate model violation (deliver on collision) must be replayed
  // bit for bit by the bitset engine: the mutated callback stream differs
  // from the clean one, but is identical across engines. This pins the
  // scalar-kernel dispatch under EngineMutations, which the corpus
  // (mutation-free) cannot reach.
  Rng grng(67);
  const graph::Graph g = graph::make_gnp_connected(40, 0.3, grng);

  auto run = [&](EngineMode mode, bool mutate) {
    Network net(g);
    net.set_engine(mode);
    if (mutate) {
      EngineMutations mut;
      mut.deliver_on_collision = true;
      net.set_test_mutations(mut);
    }
    RecordingHook hook;
    net.set_auditor(&hook);
    Rng master(31337);
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      net.set_protocol(v, std::make_unique<FloodNode>(master.split(), 0.4));
      net.wake_at_start(v);
    }
    for (int r = 0; r < 60; ++r) net.step();
    return hook.log();
  };

  const std::vector<std::string> scalar_mut = run(EngineMode::kScalar, true);
  const std::vector<std::string> bitset_mut = run(EngineMode::kBitset, true);
  const std::vector<std::string> scalar_clean = run(EngineMode::kScalar, false);
  ASSERT_NE(scalar_mut, scalar_clean) << "mutation had no observable effect";
  EXPECT_EQ(scalar_mut, bitset_mut);
}

TEST(BitsetOracle, DefaultRuleSwitchesSweepsMidRun) {
  // Four dense rounds (p = 0.4: the transmitters reach every node several
  // times over) alternate with four sparse ones (p = 0.01), so the default
  // mode switches sweeps with the blocks; it must still match the forced
  // scalar sweep round for round, and each round's choice must be the
  // rule recomputed from that round's transmitters.
  Rng grng(101);
  const graph::Graph g = graph::make_gnp_connected(96, 0.2, grng);
  EnginePair pair(g, 4242, 0.4, EngineMode::kAuto, /*sparse_p=*/0.01);
  pair.wake_all();
  std::uint64_t dense_bitset = 0;
  std::uint64_t sparse_scalar = 0;
  for (Round r = 0; r < 240; ++r) {
    const std::uint64_t before = pair.other_net.bitset_rounds();
    pair.step_and_compare();
    const bool took_bitset = pair.other_net.bitset_rounds() != before;
    std::size_t degree_sum = 0;
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      if (pair.other_nodes[v]->last_tx_round == r) degree_sum += g.degree(v);
    }
    ASSERT_EQ(took_bitset, degree_sum >= g.num_nodes()) << "round " << r;
    if (FloodNode::dense_block(r)) {
      dense_bitset += took_bitset ? 1 : 0;
    } else {
      sparse_scalar += took_bitset ? 0 : 1;
    }
  }
  EXPECT_EQ(dense_bitset, 120u);
  EXPECT_GT(sparse_scalar, 100u);
  EXPECT_GT(pair.scalar_net.trace().counters().deliveries, 0u);
  EXPECT_GT(pair.scalar_net.trace().counters().collision_slots, 0u);
}

/// Transmits an alarm every round iff constructed with `transmits`.
class FixedNode final : public NodeProtocol {
 public:
  explicit FixedNode(bool transmits) : transmits_(transmits) {}
  std::optional<MessageBody> on_transmit(Round /*round*/) override {
    if (transmits_) return AlarmMsg{};
    return std::nullopt;
  }
  void on_receive(Round /*round*/, const Message& /*msg*/) override {}

 private:
  bool transmits_;
};

/// Runs one round of the default mode on `g` with exactly `senders`
/// transmitting (every node awake) and returns whether it took the bitset
/// sweep.
bool first_round_takes_bitset(const graph::Graph& g, const std::vector<NodeId>& senders,
                              NetworkAuditHook* hook = nullptr, double loss = 0.0) {
  Network net(g);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const bool sends = std::find(senders.begin(), senders.end(), v) != senders.end();
    net.set_protocol(v, std::make_unique<FixedNode>(sends));
    net.wake_at_start(v);
  }
  if (hook != nullptr) net.set_auditor(hook);
  if (loss > 0.0) net.set_fault_model({loss, 99});
  net.step();
  EXPECT_EQ(net.trace().counters().transmissions, senders.size());
  return net.bitset_rounds() == 1;
}

std::vector<NodeId> all_nodes(const graph::Graph& g) {
  std::vector<NodeId> ids(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) ids[v] = v;
  return ids;
}

TEST(SweepRule, DenseRoundTakesTheBitsetSweep) {
  Rng grng(55);
  const graph::Graph g = graph::make_gnp_connected(64, 0.25, grng);
  EXPECT_TRUE(first_round_takes_bitset(g, all_nodes(g)));
  // The threshold itself: on a star of n nodes the hub and one leaf reach
  // (n - 1) + 1 = n neighbor slots.
  const graph::Graph star = graph::make_star(40);
  EXPECT_TRUE(first_round_takes_bitset(star, {0, 7}));
}

TEST(SweepRule, SparseRoundTakesTheScalarSweep) {
  // The hub alone reaches n - 1 slots, one short of the threshold.
  const graph::Graph star = graph::make_star(40);
  EXPECT_FALSE(first_round_takes_bitset(star, {0}));
  EXPECT_FALSE(first_round_takes_bitset(star, {3, 9, 21}));
  EXPECT_FALSE(first_round_takes_bitset(star, {}));
}

TEST(SweepRule, OrderSensitiveDenseRoundTakesTheScalarSweep) {
  Rng grng(55);
  const graph::Graph g = graph::make_gnp_connected(64, 0.25, grng);
  RecordingHook hook;
  EXPECT_FALSE(first_round_takes_bitset(g, all_nodes(g), &hook));
  EXPECT_FALSE(first_round_takes_bitset(g, all_nodes(g), nullptr, /*loss=*/0.1));
}

TEST(BitsetOracle, EngineModeNamesRoundTrip) {
  // bench_engine_step keys its rows by these names, and parameterised test
  // names print them.
  EXPECT_STREQ(engine_mode_name(EngineMode::kScalar), "scalar");
  EXPECT_STREQ(engine_mode_name(EngineMode::kBitset), "bitset");
  EXPECT_STREQ(engine_mode_name(EngineMode::kAuto), "auto");
  const graph::Graph g = graph::make_path(4);
  EXPECT_EQ(Network(g).engine(), EngineMode::kAuto);
}

}  // namespace
}  // namespace radiocast::radio
