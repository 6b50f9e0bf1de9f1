// Poll-hint soundness for the open-system node.
//
// stream::StreamNode declares quiet spells (radio::NodeProtocol::
// quiet_until) like KBroadcastNode, while arrivals reach it out of band —
// offer() — with no engine re-arm. That is sound because nothing reads an
// arrival before the node's next epoch re-entry, where every hint is
// capped. The network runs twice in lock step on the same arrivals, under
// each engine mode (both forced sweeps and the default per-round rule):
// bare, so the engine skips nodes on their hints, and with
// every node wrapped in an InterceptingProtocol, which never forwards the
// hint and so is polled on every awake round. Two arrival regimes feed
// it: dynamic mode's finite make_arrivals list through an unbounded
// buffer, and stream mode's Poisson schedule through a backpressure
// buffer of 2. Per run this pins:
//
//   1. identical transmitter sets, first holds and epochs in every round,
//      and a hold log that is exactly each round's new holds;
//   2. no transmission in a round the inner node had declared quiet since
//      its last callback;
//   3. the poll accounting: the wrapped run polls every awake node-round,
//      the bare run strictly fewer, and the difference is exactly the
//      quiet rounds the wrapped run observed;
//   4. arrivals do land on quiet nodes, so the no-re-arm argument is
//      exercised rather than assumed;
//   5. every packet a node holds carries the bytes it arrived with;
//   6. the bare mirror equals stream::run_stream over the same arrival
//      list, poll counter included.
//
// The ReportsEachFirstHoldOnce tests pin the node's hold report: over
// both regimes and every engine mode, and over the dynamic regime at loss
// 0.05, every (node, packet) first hold is reported exactly once, with the
// bytes the packet arrived with, and each packet's reporters are exactly
// the holders run_stream's accounting counts from the hold log. A lone
// root driven by hand pins the one path those runs do not reach: a packet
// collected again in a later epoch is not reported again.
//
// The EpochZero tests pin that the open system's epoch 0 is the static
// k-broadcast: with k = n packets placed spread_even, every static node
// holds one packet, takes part in the election and wakes at round 0, as
// every open-system node does. Offered its packet before the first step
// (unbounded buffer, a window that carries all k, the same master seed),
// the open network transmits the same senders and message kinds, with the
// same TraceCounters (polls included), in every round until each static
// node is done, and that happens before the first window closes.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "baselines/uncoded_pipeline.hpp"
#include "core/protocol.hpp"
#include "core/runner.hpp"
#include "core/schedule.hpp"
#include "graph/generators.hpp"
#include "obs/histogram.hpp"
#include "radio/interceptor.hpp"
#include "radio/network.hpp"
#include "stream/arrivals.hpp"
#include "stream/driver.hpp"
#include "stream/stream_node.hpp"
#include "hold_recorder.hpp"
#include "transmit_recorder.hpp"

namespace radiocast::audit {
namespace {

/// Dynamic mode's arrival list, or stream mode's arrival process.
enum class Regime { kDynamic, kStream };

/// What both sides of a lock step share — graph, run config and arrivals,
/// built exactly as the scenario mode builds them.
struct Inputs {
  graph::Graph g;
  stream::StreamConfig cfg;
  std::vector<stream::Arrival> arrivals;  ///< sorted by round
};

Inputs make_inputs(Regime regime) {
  Inputs s;
  Rng grng(21);
  s.g = graph::make_random_geometric(24, 0.4, grng);
  core::KBroadcastConfig kcfg;
  kcfg.know = radio::Knowledge::exact(s.g);
  s.cfg.dyn.rc = core::resolve(kcfg);
  s.cfg.dyn.batch_capacity = 8;
  s.cfg.horizon =
      s.cfg.dyn.rc.stage3_start() + 4 * stream::epoch_estimate_rounds(s.cfg.dyn);
  s.cfg.seed = 23;
  if (regime == Regime::kStream) {
    // Above the knee with a tiny backpressure buffer: drains refill from
    // the holdback list at every epoch re-entry.
    s.cfg.arrivals.rate = stream::per_node_rate(s.cfg.dyn, s.g.num_nodes(), 1.5);
    s.cfg.arrivals.seed = 29;
    s.cfg.buffer_capacity = 2;
    s.cfg.policy = stream::BufferPolicy::kBackpressure;
    s.arrivals =
        stream::make_arrival_schedule(s.g.num_nodes(), s.cfg.arrivals, s.cfg.horizon);
  } else {
    // 40 packets over the first half of the run, 8 per window: the root
    // collects more than one window carries and holds the rest over.
    s.cfg.buffer_capacity = UINT32_MAX;
    Rng arng(31);
    s.arrivals = stream::make_arrivals(s.g.num_nodes(), 40, s.cfg.horizon / 2,
                                     /*payload_bytes=*/8, arng);
  }
  return s;
}

/// One side of the lock step, its nodes seeded as run_stream seeds them;
/// with `wrap`, each node sits in an InterceptingProtocol that tracks the
/// inner node's hint.
struct Side {
  Side(const Inputs& s, radio::EngineMode engine, bool wrap)
      : net(s.g), due(s.g.num_nodes(), 0) {
    net.set_engine(engine);
    net.set_auditor(&recorder);
    Rng master(s.cfg.seed);
    for (radio::NodeId v = 0; v < s.g.num_nodes(); ++v) {
      auto node = std::make_unique<HoldRecorder>(
          s.cfg.dyn, v, master.split(), s.cfg.buffer_capacity, s.cfg.policy, &log);
      HoldRecorder* inner = node.get();
      nodes.push_back(inner);
      if (wrap) {
        auto w = std::make_unique<radio::InterceptingProtocol>(std::move(node));
        w->set_transmit_hook(
            [this, v, inner](radio::Round round, const std::optional<radio::MessageBody>& out) {
              if (round < due[v]) {
                ++quiet_polls;
                if (out.has_value()) ++early_transmissions;
              }
              due[v] = inner->quiet_until();
            });
        w->set_receive_hook([this, v](radio::Round, const radio::Message&) { due[v] = 0; });
        w->set_wake_hook([this, v](radio::Round) { due[v] = 0; });
        w->set_collision_hook([this, v](radio::Round) { due[v] = 0; });
        net.set_protocol(v, std::move(w));
      } else {
        net.set_protocol(v, std::move(node));
      }
      net.wake_at_start(v);
    }
  }

  stream::HoldLog log;
  TransmitRecorder recorder;
  radio::Network net;
  std::vector<HoldRecorder*> nodes;  ///< inner nodes
  /// Wrapped side only: the inner node's hint since its last callback.
  std::vector<radio::Round> due;
  std::uint64_t quiet_polls = 0;
  std::uint64_t early_transmissions = 0;
};

/// Per-packet accounting of the bare mirror, as run_stream keeps it.
struct Track {
  radio::Round arrived = 0;
  std::uint32_t holders = 0;
};

using Param = std::tuple<Regime, radio::EngineMode>;

class OpenSystemLockstep : public ::testing::TestWithParam<Param> {};

TEST_P(OpenSystemLockstep, WrappedRunMatchesBareRoundByRound) {
  const auto& [regime, engine] = GetParam();
  const Inputs s = make_inputs(regime);
  const std::uint32_t n = s.g.num_nodes();
  const std::uint64_t horizon = s.cfg.horizon;
  Side bare(s, engine, /*wrap=*/false);
  Side wrapped(s, engine, /*wrap=*/true);

  std::unordered_map<radio::PacketId, Track> tracking;
  obs::LogHistogram latency;
  std::uint64_t delivered = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t quiet_arrivals = 0;
  std::uint64_t awake_node_rounds = 0;
  std::uint64_t prev_holds = 0;
  std::size_t next_arrival = 0;
  for (std::uint64_t round = 0; round < horizon; ++round) {
    for (; next_arrival < s.arrivals.size() && s.arrivals[next_arrival].round <= round;
         ++next_arrival) {
      const stream::Arrival& a = s.arrivals[next_arrival];
      if (wrapped.due[a.node] > round) ++quiet_arrivals;
      tracking.emplace(a.packet.id, Track{round});
      bare.nodes[a.node]->offer(a.packet);
      wrapped.nodes[a.node]->offer(a.packet);
    }
    awake_node_rounds += wrapped.net.num_awake();
    bare.net.step();
    wrapped.net.step();
    ASSERT_EQ(bare.recorder.senders, wrapped.recorder.senders) << "round " << round;
    ASSERT_EQ(bare.log.held, wrapped.log.held) << "round " << round;
    ASSERT_EQ(bare.log.epoch, wrapped.log.epoch) << "round " << round;
    std::uint64_t holds = 0;
    std::uint32_t epoch = 0;
    for (radio::NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(bare.nodes[v]->held(), wrapped.nodes[v]->held())
          << "node " << v << " round " << round;
      ASSERT_EQ(bare.nodes[v]->epochs_completed(), wrapped.nodes[v]->epochs_completed())
          << "node " << v << " round " << round;
      holds += bare.nodes[v]->held();
      epoch = std::max(epoch, bare.nodes[v]->epochs_completed());
    }
    // The log is exactly this round's new holds and the highest epoch.
    ASSERT_EQ(bare.log.held.size(), holds - prev_holds) << "round " << round;
    ASSERT_EQ(bare.log.epoch, epoch) << "round " << round;
    prev_holds = holds;

    // run_stream's accounting, from the bare side's hold log.
    for (const radio::PacketId id : bare.log.held) {
      Track& t = tracking.at(id);
      if (t.holders == 0) ++in_flight;
      if (++t.holders == n) {
        --in_flight;
        ++delivered;
        latency.add(round - t.arrived);
      }
    }
    bare.log.held.clear();
    wrapped.log.held.clear();
  }

  EXPECT_EQ(wrapped.early_transmissions, 0u);
  EXPECT_GT(quiet_arrivals, 0u);
  const radio::TraceCounters& bare_counters = bare.net.trace().counters();
  radio::TraceCounters wrapped_counters = wrapped.net.trace().counters();
  EXPECT_EQ(wrapped_counters.polls, awake_node_rounds);
  EXPECT_LT(bare_counters.polls, wrapped_counters.polls);
  EXPECT_EQ(wrapped_counters.polls - bare_counters.polls, wrapped.quiet_polls);
  wrapped_counters.polls = bare_counters.polls;
  EXPECT_EQ(bare_counters, wrapped_counters);

  std::uint64_t buffered = 0;
  stream::QueueStats queue;
  for (const HoldRecorder* node : bare.nodes) {
    buffered += node->queue().buffered() + node->queue().held_back();
    queue.merge(node->queue().stats());
  }
  for (const stream::Arrival& a : s.arrivals) {
    std::uint32_t holders = 0;
    for (const HoldRecorder* node : bare.nodes) {
      const gf2::Payload* payload = node->payload(a.packet.id);
      if (payload == nullptr) continue;
      ++holders;
      EXPECT_EQ(*payload, a.packet.payload) << "packet " << a.packet.id;
    }
    ASSERT_EQ(tracking.at(a.packet.id).holders, holders) << "packet " << a.packet.id;
  }
  const stream::StreamResult r = stream::run_stream(s.g, s.cfg, s.arrivals);
  EXPECT_GT(r.delivered_everywhere, 0u);
  EXPECT_EQ(r.arrivals_scheduled, s.arrivals.size());
  EXPECT_EQ(r.delivered_everywhere, delivered);
  EXPECT_EQ(r.latency.count(), latency.count());
  EXPECT_EQ(r.latency.sum(), latency.sum());
  EXPECT_EQ(r.latency.max(), latency.max());
  EXPECT_EQ(r.epochs_completed, bare.log.epoch);
  EXPECT_EQ(r.in_system_end, buffered + in_flight);
  EXPECT_EQ(r.queue.offered, queue.offered);
  EXPECT_EQ(r.queue.admitted, queue.admitted);
  EXPECT_EQ(r.queue.dropped, queue.dropped);
  EXPECT_EQ(r.queue.backpressured, queue.backpressured);
  EXPECT_EQ(r.queue.peak_depth, queue.peak_depth);
  EXPECT_EQ(r.counters, bare_counters);
}

/// Steps `side` over the arrivals to the horizon, counting each packet's
/// holders from the hold log as run_stream's accounting does. Requires
/// every (node, packet) first hold to be reported exactly once, with the
/// bytes the packet arrived with, and each packet's reporters to be
/// exactly the holders counted. Returns how many packets every node holds.
std::uint64_t expect_one_report_per_first_hold(const Inputs& s, Side& side) {
  std::unordered_map<radio::PacketId, std::uint32_t> holders;
  std::size_t next_arrival = 0;
  for (std::uint64_t round = 0; round < s.cfg.horizon; ++round) {
    for (; next_arrival < s.arrivals.size() && s.arrivals[next_arrival].round <= round;
         ++next_arrival) {
      const stream::Arrival& a = s.arrivals[next_arrival];
      side.nodes[a.node]->offer(a.packet);
    }
    side.net.step();
    for (const radio::PacketId id : side.log.held) ++holders[id];
    side.log.held.clear();
  }

  std::unordered_map<radio::PacketId, const gf2::Payload*> arrived;
  for (const stream::Arrival& a : s.arrivals) arrived.emplace(a.packet.id, &a.packet.payload);
  std::unordered_map<radio::PacketId, std::uint32_t> reporters;
  std::uint64_t repeats = 0;
  for (const HoldRecorder* node : side.nodes) {
    for (const auto& [id, payloads] : node->reports()) {
      ++reporters[id];
      repeats += payloads.size() - 1;
      const auto it = arrived.find(id);
      if (it == arrived.end()) {
        ADD_FAILURE() << "packet " << id << " was never offered";
        continue;
      }
      for (const gf2::Payload& payload : payloads) {
        EXPECT_EQ(payload, *it->second) << "packet " << id;
      }
    }
  }
  EXPECT_EQ(repeats, 0u) << "reports of packets a node already held";
  EXPECT_EQ(reporters, holders);
  std::uint64_t everywhere = 0;
  for (const auto& entry : reporters) {
    if (entry.second == s.g.num_nodes()) ++everywhere;
  }
  return everywhere;
}

TEST_P(OpenSystemLockstep, ReportsEachFirstHoldOnce) {
  const auto& [regime, engine] = GetParam();
  const Inputs s = make_inputs(regime);
  Side side(s, engine, /*wrap=*/false);
  const std::uint64_t everywhere = expect_one_report_per_first_hold(s, side);
  EXPECT_GT(everywhere, 0u);
  EXPECT_EQ(stream::run_stream(s.g, s.cfg, s.arrivals).delivered_everywhere, everywhere);
}

TEST(OpenSystemLockstep, ReportsEachFirstHoldOnceUnderLoss) {
  // run_stream has no fault hook, so the hold log's count alone stands in
  // for its accounting.
  const Inputs s = make_inputs(Regime::kDynamic);
  Side side(s, radio::EngineMode::kScalar, /*wrap=*/false);
  side.net.set_fault_model({0.05, 17});
  EXPECT_GT(expect_one_report_per_first_hold(s, side), 0u);
}

TEST(OpenSystemLockstep, ReportsARecollectedPacketOnce) {
  // The runs above never lose the last ack of a packet the root already
  // collected, so drive that path directly. A lone node elects itself and
  // is the root; a child's packet reaches it in epoch 0's collection and
  // again in epoch 1's, as it does after an ack lost on the way back. The
  // root queued the id in epoch 0, so it holds the packet already.
  const core::DynamicConfig dyn = make_inputs(Regime::kDynamic).cfg.dyn;
  const std::uint64_t collect = core::collection_phase_rounds(dyn.rc.initial_estimate, dyn.rc);
  const radio::Round epoch0 = dyn.rc.stage3_start();
  const radio::Round epoch1 = epoch0 + collect + dyn.dissemination_window();
  stream::HoldLog log;
  HoldRecorder root(dyn, 3, Rng(41), UINT32_MAX, stream::BufferPolicy::kDropNew, &log);
  radio::Packet p;
  p.id = radio::make_packet_id(7, 0);
  p.payload = {5, 6};
  radio::Message msg;
  msg.from = 7;
  msg.body = radio::DataMsg{p, 3};
  for (radio::Round r = 0; r <= epoch1 + collect; ++r) {
    root.on_transmit(r);
    // Inside the up window of each epoch's first gather window.
    if (r == epoch0 + 1 || r == epoch1 + 1) root.on_receive(r, msg);
  }
  ASSERT_TRUE(root.is_leader());
  ASSERT_EQ(root.epochs_completed(), 1u);
  // Epoch 1's collection took the packet again, and its Stage 4 began.
  ASSERT_EQ(root.stage3_end(), epoch1 + collect);
  EXPECT_EQ(root.collection()->collected(), std::vector<radio::Packet>{p});
  ASSERT_EQ(root.reports().count(p.id), 1u);
  EXPECT_EQ(root.reports().at(p.id).size(), 1u);
  EXPECT_EQ(std::count(log.held.begin(), log.held.end(), p.id), 1);
}

INSTANTIATE_TEST_SUITE_P(
    Harnesses, OpenSystemLockstep,
    ::testing::Combine(::testing::Values(Regime::kDynamic, Regime::kStream),
                       ::testing::Values(radio::EngineMode::kScalar,
                                         radio::EngineMode::kBitset,
                                         radio::EngineMode::kAuto)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::string(std::get<0>(info.param) == Regime::kStream ? "stream"
                                                                     : "dynamic") +
             "_" + radio::engine_mode_name(std::get<1>(info.param));
    });

/// Steps the static k-broadcast and the open system side by side (see the
/// file comment) until every static node is done.
void expect_epoch_zero_is_the_static_run(std::uint32_t n, double radius,
                                         std::uint64_t graph_seed, bool coded) {
  Rng grng(graph_seed);
  const graph::Graph g = graph::make_random_geometric(n, radius, grng);
  const radio::Knowledge know = radio::Knowledge::exact(g);
  const core::KBroadcastConfig kcfg = coded ? baselines::coded_config(know)
                                            : baselines::uncoded_pipeline_config(know);
  const core::ResolvedConfig rc = core::resolve(kcfg);
  Rng prng(graph_seed + 1);
  const core::Placement placement =
      core::make_placement(n, n, core::PlacementMode::kSpreadEven, 16, prng);
  const std::uint64_t seed = graph_seed + 2;
  const core::DynamicConfig dyn{rc, /*batch_capacity=*/n};

  radio::Network closed(g);
  radio::Network open(g);
  TransmitRecorder closed_tx;
  TransmitRecorder open_tx;
  closed.set_auditor(&closed_tx);
  open.set_auditor(&open_tx);
  stream::HoldLog log;
  std::vector<const core::KBroadcastNode*> closed_nodes;
  std::vector<const stream::StreamNode*> open_nodes;
  Rng closed_master(seed);
  Rng open_master(seed);
  for (radio::NodeId v = 0; v < n; ++v) {
    ASSERT_EQ(placement[v].size(), 1u) << "node " << v;
    auto c = std::make_unique<core::KBroadcastNode>(rc, v, placement[v],
                                                    closed_master.split());
    closed_nodes.push_back(c.get());
    closed.set_protocol(v, std::move(c));
    closed.wake_at_start(v);
    auto o = std::make_unique<stream::StreamNode>(dyn, v, open_master.split(), UINT32_MAX,
                                                  stream::BufferPolicy::kDropNew, &log);
    ASSERT_TRUE(o->offer(placement[v].front()));
    open_nodes.push_back(o.get());
    open.set_protocol(v, std::move(o));
    open.wake_at_start(v);
  }

  const std::uint64_t bound = core::total_rounds_bound(n, rc);
  const auto all_done = [&closed_nodes] {
    return std::all_of(closed_nodes.begin(), closed_nodes.end(),
                       [](const core::KBroadcastNode* node) { return node->done(); });
  };
  while (!all_done()) {
    const radio::Round round = closed.current_round();
    ASSERT_LT(round, bound);
    closed.step();
    open.step();
    ASSERT_EQ(closed_tx.senders, open_tx.senders) << "round " << round;
    ASSERT_EQ(closed_tx.kinds, open_tx.kinds) << "round " << round;
    ASSERT_EQ(closed.trace().counters(), open.trace().counters()) << "round " << round;
  }

  // The static run ended inside the open system's first window.
  const auto leader = std::find_if(closed_nodes.begin(), closed_nodes.end(),
                                   [](const core::KBroadcastNode* node) {
                                     return node->is_leader();
                                   });
  ASSERT_NE(leader, closed_nodes.end());
  ASSERT_NE((*leader)->stage3_end(), 0u);
  EXPECT_LT(closed.current_round(), (*leader)->stage3_end() + dyn.dissemination_window());
  for (const stream::StreamNode* node : open_nodes) {
    EXPECT_EQ(node->epochs_completed(), 0u);
  }

  // The static side is run_kbroadcast's run.
  const core::RunResult r = core::run_kbroadcast(g, kcfg, placement, seed);
  EXPECT_TRUE(r.delivered_all);
  EXPECT_EQ(r.total_rounds, closed.current_round());
  EXPECT_EQ(r.counters, closed.trace().counters());
}

TEST(OpenSystemLockstep, EpochZeroIsTheStaticRunCodedN24) {
  expect_epoch_zero_is_the_static_run(24, 0.45, 3, /*coded=*/true);
}

TEST(OpenSystemLockstep, EpochZeroIsTheStaticRunUncodedN24) {
  expect_epoch_zero_is_the_static_run(24, 0.45, 3, /*coded=*/false);
}

TEST(OpenSystemLockstep, EpochZeroIsTheStaticRunCodedN48) {
  expect_epoch_zero_is_the_static_run(48, 0.3, 91, /*coded=*/true);
}

TEST(OpenSystemLockstep, EpochZeroIsTheStaticRunUncodedN48) {
  expect_epoch_zero_is_the_static_run(48, 0.3, 91, /*coded=*/false);
}

}  // namespace
}  // namespace radiocast::audit
