// Poll hints of the four stage state machines (next_poll) at their
// boundary rounds, plus a reception-free lock step per state machine: one
// copy driven every round, a twin with the same seed driven only on its
// own hints. The twin must be polled at every round the first copy
// transmits, agree with it there, and end on the same RNG position — so a
// skipped round never hid a transmission or a random draw. Last, the
// open-system node (stream::StreamNode, core::KBroadcastNode's epoch loop)
// driven alone on its hints must be polled at each boundary where it
// switches stage or epoch.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "core/collection.hpp"
#include "core/dissemination.hpp"
#include "core/protocol.hpp"
#include "core/params.hpp"
#include "core/schedule.hpp"
#include "protocols/bfs_construction.hpp"
#include "protocols/leader_election.hpp"
#include "stream/stream_node.hpp"
#include "../audit/hold_recorder.hpp"

namespace radiocast {
namespace {

// log n̂ = 4, log Δ̂ = 2, D̂ = 3.
radio::Knowledge small_knowledge() {
  radio::Knowledge know;
  know.n_hat = 16;
  know.delta_hat = 4;
  know.d_hat = 3;
  return know;
}

core::ResolvedConfig small_config() {
  core::KBroadcastConfig cfg;
  cfg.know = small_knowledge();
  return core::resolve(cfg);
}

radio::Message message(radio::NodeId from, radio::MessageBody body) {
  radio::Message m;
  m.from = from;
  m.body = std::move(body);
  return m;
}

/// The reception-free lock step described in the file comment, over
/// rounds [0, rounds). Returns the number of polls the hinted twin took.
template <typename State>
std::uint64_t expect_hints_hide_nothing(State& every, Rng& every_rng, State& hinted,
                                        Rng& hinted_rng, std::uint64_t rounds) {
  std::uint64_t due = 0;
  std::uint64_t polls = 0;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const std::optional<radio::MessageBody> a = every.on_transmit(r);
    if (r < due) {
      EXPECT_FALSE(a.has_value()) << "transmission hidden at round " << r;
      continue;
    }
    const std::optional<radio::MessageBody> b = hinted.on_transmit(r);
    ++polls;
    EXPECT_EQ(a.has_value(), b.has_value()) << "round " << r;
    due = hinted.next_poll(r);
    EXPECT_GT(due, r);
  }
  if (due >= rounds) {
    EXPECT_EQ(every_rng(), hinted_rng()) << "RNG streams diverged";
  }
  return polls;
}

TEST(PollHint, LeaderSilentNodeWaitsForTheProbeWindowEnd) {
  protocols::LeaderElectionState::Config cfg{small_knowledge(), /*probe_epochs=*/2};
  Rng rng(1);
  // Id 3 is no participant: it never arms a probe.
  protocols::LeaderElectionState s(cfg, 3, /*participant=*/false, &rng);
  const std::uint64_t window = 2 * 2;  // probe_epochs · log Δ̂
  s.on_transmit(0);
  EXPECT_EQ(s.next_poll(0), window);
  s.on_transmit(window - 1);
  EXPECT_EQ(s.next_poll(window - 1), window);
  s.on_transmit(window);  // folds probe 0
  EXPECT_EQ(s.next_poll(window), 2 * window);
  // Hearing the alarm makes it a flooder until the window closes.
  s.on_receive(window + 1, message(7, radio::AlarmMsg{}));
  EXPECT_EQ(s.next_poll(window + 1), window + 2);
  s.on_transmit(2 * window - 1);
  EXPECT_EQ(s.next_poll(2 * window - 1), 2 * window);
  s.on_transmit(2 * window);  // the fold re-arms silence
  EXPECT_EQ(s.next_poll(2 * window), 3 * window);
}

TEST(PollHint, LeaderArmedNodeIsPolledEveryRound) {
  protocols::LeaderElectionState::Config cfg{small_knowledge(), 2};
  Rng rng(1);
  // Id 15 >= mid = 8: armed in the first probe.
  protocols::LeaderElectionState s(cfg, 15, /*participant=*/true, &rng);
  s.on_transmit(0);
  EXPECT_EQ(s.next_poll(0), 1u);
  s.on_transmit(3);
  EXPECT_EQ(s.next_poll(3), 4u);
}

TEST(PollHint, LeaderLockStepOverTheStage) {
  protocols::LeaderElectionState::Config cfg{small_knowledge(), 2};
  for (const radio::NodeId self : {3u, 9u, 12u, 15u}) {
    Rng ra(40 + self), rb(40 + self);
    protocols::LeaderElectionState a(cfg, self, true, &ra);
    protocols::LeaderElectionState b(cfg, self, true, &rb);
    const std::uint64_t polls = expect_hints_hide_nothing(a, ra, b, rb, a.total_rounds());
    if (self == 3) {
      EXPECT_LT(polls, a.total_rounds());  // armed in two probes of four
    }
  }
}

TEST(PollHint, BfsNodeIsDueOnlyInItsLayersPhase) {
  protocols::BfsBuildState::Config cfg{small_knowledge(), /*epochs_per_phase=*/1,
                                       /*extra_phases=*/2};
  // phase_rounds = 2, phases = 5, total = 10.
  Rng rng(2);
  protocols::BfsBuildState root(cfg, 0, /*is_root=*/true, &rng);
  EXPECT_EQ(root.next_poll(0), 1u);
  EXPECT_EQ(root.next_poll(1), 10u);

  protocols::BfsBuildState node(cfg, 5, /*is_root=*/false, &rng);
  EXPECT_EQ(node.next_poll(0), 10u);  // no layer yet: only a reception helps
  node.on_receive(1, message(4, radio::BfsConstructMsg{4, 1}));  // layer 2
  EXPECT_EQ(node.next_poll(1), 4u);
  EXPECT_EQ(node.next_poll(3), 4u);
  EXPECT_EQ(node.next_poll(4), 5u);
  EXPECT_EQ(node.next_poll(5), 10u);

  protocols::BfsBuildState deep(cfg, 6, /*is_root=*/false, &rng);
  deep.on_receive(0, message(4, radio::BfsConstructMsg{4, 5}));  // layer 6 > phases
  EXPECT_EQ(deep.next_poll(0), 10u);
}

TEST(PollHint, BfsLockStepOverTheStage) {
  protocols::BfsBuildState::Config cfg{small_knowledge(), 2, 2};
  Rng ra(3), rb(3);
  protocols::BfsBuildState a(cfg, 0, true, &ra);
  protocols::BfsBuildState b(cfg, 0, true, &rb);
  EXPECT_LT(expect_hints_hide_nothing(a, ra, b, rb, a.total_rounds()), a.total_rounds());
}

struct CollectionFixture {
  core::ResolvedConfig rc = small_config();
  core::CollectionState::Config cfg{&rc};
  std::vector<core::GatherWindow> windows = core::grab_windows(rc.initial_estimate, rc);
  std::uint64_t grab_end = core::grab_rounds(rc.initial_estimate, rc);
  std::uint64_t phase_end = core::collection_phase_rounds(rc.initial_estimate, rc);
};

TEST(PollHint, CollectionCapsAtWindowAndPhaseBoundaries) {
  CollectionFixture f;
  Rng rng(4);
  radio::Packet own;
  own.id = radio::make_packet_id(5, 0);
  own.payload = {1, 2, 3};
  core::CollectionState s(f.cfg, 5, /*is_root=*/false, /*parent=*/2, {own}, &rng);
  // Every start slot lies in the up window, so after the window's last
  // round the hint is the next window's start.
  const std::uint64_t w0_end = f.windows[0].end();
  s.on_transmit(0);
  EXPECT_LE(s.next_poll(0), w0_end);
  s.on_transmit(w0_end - 1);
  EXPECT_EQ(s.next_poll(w0_end - 1), w0_end);
  // The last window ends at the alarm window; the unacked packet arms the
  // alarm there, so the node floods (polled every round).
  s.on_transmit(f.grab_end - 1);
  EXPECT_EQ(s.next_poll(f.grab_end - 1), f.grab_end);
  s.on_transmit(f.grab_end);
  EXPECT_EQ(s.next_poll(f.grab_end), f.grab_end + 1);

  // The root never arms the alarm: silent until the phase end.
  Rng root_rng(5);
  core::CollectionState root(f.cfg, 0, /*is_root=*/true, std::nullopt, {}, &root_rng);
  root.on_transmit(f.grab_end);
  EXPECT_EQ(root.next_poll(f.grab_end), f.phase_end);
}

TEST(PollHint, CollectionRelaysAndAcksArePolledEveryRound) {
  CollectionFixture f;
  radio::Packet p;
  p.id = radio::make_packet_id(9, 0);
  p.payload = {7};

  // A relay forwards one round after receiving.
  Rng rng(6);
  core::CollectionState relay(f.cfg, 5, /*is_root=*/false, /*parent=*/2, {}, &rng);
  relay.on_transmit(0);
  EXPECT_EQ(relay.next_poll(0), f.windows[0].end());
  relay.on_receive(3, message(9, radio::DataMsg{p, 5}));
  EXPECT_EQ(relay.next_poll(3), 4u);
  EXPECT_TRUE(relay.on_transmit(4).has_value());
  EXPECT_EQ(relay.next_poll(4), f.windows[0].end());

  // The root serves its ack queue round by round through the window.
  Rng root_rng(7);
  core::CollectionState root(f.cfg, 0, /*is_root=*/true, std::nullopt, {}, &root_rng);
  root.on_transmit(0);
  EXPECT_EQ(root.next_poll(0), f.windows[0].end());
  root.on_receive(3, message(9, radio::DataMsg{p, 0}));
  root.on_transmit(4);
  EXPECT_EQ(root.next_poll(4), 5u);
}

TEST(PollHint, CollectionLockStepOverOnePhase) {
  CollectionFixture f;
  std::vector<radio::Packet> own;
  for (std::uint32_t i = 0; i < 3; ++i) {
    radio::Packet p;
    p.id = radio::make_packet_id(5, i);
    p.payload = {static_cast<std::uint8_t>(i)};
    own.push_back(p);
  }
  Rng ra(8), rb(8);
  core::CollectionState a(f.cfg, 5, false, 2, own, &ra);
  core::CollectionState b(f.cfg, 5, false, 2, own, &rb);
  // One round past the phase end: the alarm-positive phase doubles the
  // estimate and draws the next phase's first start slots.
  const std::uint64_t rounds = f.phase_end + 1;
  EXPECT_LT(expect_hints_hide_nothing(a, ra, b, rb, rounds), rounds);
}

std::vector<radio::Packet> root_packets(std::uint32_t count) {
  std::vector<radio::Packet> out;
  for (std::uint32_t i = 0; i < count; ++i) {
    radio::Packet p;
    p.id = radio::make_packet_id(0, i);
    p.payload = {static_cast<std::uint8_t>(i), 0x5a};
    out.push_back(p);
  }
  return out;
}

TEST(PollHint, DisseminationRootIsDueInItsInjectionPhases) {
  const core::ResolvedConfig rc = small_config();
  // group_size 4, spacing 3, phase = 80 rounds.
  ASSERT_EQ(rc.dissem_phase_rounds, 80u);
  Rng rng(9);
  core::DisseminationState root({&rc}, 0, /*is_root=*/true, 0, &rng);
  root.set_root_packets(root_packets(8));  // two groups
  EXPECT_EQ(root.next_poll(0), 1u);
  EXPECT_EQ(root.next_poll(2), 3u);
  EXPECT_EQ(root.next_poll(3), 240u);  // group 1 is injected in phase 3
  EXPECT_EQ(root.next_poll(240), 241u);
  EXPECT_EQ(root.next_poll(243), 480u);
}

/// Delivers the first `groups` groups of `packets` (4 per group) to `s` as
/// plain injections, so it decodes them.
void decode_groups(core::DisseminationState& s, const std::vector<radio::Packet>& packets,
                   std::uint32_t groups) {
  const auto group_count = static_cast<std::uint32_t>((packets.size() + 3) / 4);
  for (std::uint32_t j = 0; j < groups; ++j) {
    for (std::uint16_t i = 0; i < 4 && 4 * j + i < packets.size(); ++i) {
      radio::PlainPacketMsg m;
      m.packet = packets[4 * j + i];
      m.group_id = j;
      m.group_count = group_count;
      m.index_in_group = i;
      m.group_size = static_cast<std::uint16_t>(
          std::min<std::size_t>(4, packets.size() - 4 * j));
      s.on_receive(0, message(0, m));
    }
  }
}

TEST(PollHint, DisseminationForwarderIsDueInItsLayersSlotZeroPhases) {
  const core::ResolvedConfig rc = small_config();
  Rng rng(10);
  core::DisseminationState far({&rc}, 6, /*is_root=*/false, 2, &rng);
  EXPECT_EQ(far.next_poll(0), 160u);    // phase 2 = layer 2's first slot
  EXPECT_EQ(far.next_poll(160), 400u);  // no header yet: sits phase 2 out

  core::DisseminationState near({&rc}, 5, /*is_root=*/false, 1, &rng);
  decode_groups(near, root_packets(8), 1);
  EXPECT_EQ(near.next_poll(3), 80u);
  EXPECT_EQ(near.next_poll(80), 81u);    // FORWARD for group 0
  EXPECT_EQ(near.next_poll(159), 320u);  // window over: phase 4 is next
  EXPECT_EQ(near.next_poll(320), 560u);  // group 1 not decoded: sit it out
}

TEST(PollHint, DisseminationLockStepOverTheRootSchedule) {
  const core::ResolvedConfig rc = small_config();
  Rng ra(11), rb(11);
  core::DisseminationState a({&rc}, 0, true, 0, &ra);
  core::DisseminationState b({&rc}, 0, true, 0, &rb);
  a.set_root_packets(root_packets(10));
  b.set_root_packets(root_packets(10));
  const std::uint64_t rounds = 10 * rc.dissem_phase_rounds;
  EXPECT_LT(expect_hints_hide_nothing(a, ra, b, rb, rounds), rounds);
}

TEST(PollHint, DisseminationLockStepOverAForwardersSchedule) {
  // Layer 1 holding all three groups: Decay draws in every FORWARD round
  // of phases 1, 4 and 7.
  const core::ResolvedConfig rc = small_config();
  const std::vector<radio::Packet> packets = root_packets(10);
  Rng ra(12), rb(12);
  core::DisseminationState a({&rc}, 5, false, 1, &ra);
  core::DisseminationState b({&rc}, 5, false, 1, &rb);
  decode_groups(a, packets, 3);
  decode_groups(b, packets, 3);
  ASSERT_TRUE(a.complete());
  const std::uint64_t rounds = 10 * rc.dissem_phase_rounds;
  EXPECT_LT(expect_hints_hide_nothing(a, ra, b, rb, rounds), rounds);
}

/// Rounds a lone open-system node is polled at, and transmits at, when
/// driven from `from` to `to` (exclusive) on its own hints, receptions
/// aside.
struct HintedDrive {
  std::vector<std::uint64_t> polled;
  std::vector<std::uint64_t> sent;
};

HintedDrive drive_on_hints(core::KBroadcastNode& node, std::uint64_t from,
                           std::uint64_t to) {
  HintedDrive out;
  for (std::uint64_t r = from; r < to; r = node.quiet_until()) {
    if (node.on_transmit(r).has_value()) out.sent.push_back(r);
    out.polled.push_back(r);
    if (node.quiet_until() <= r) {
      ADD_FAILURE() << "hint " << node.quiet_until() << " at round " << r;
      break;
    }
  }
  return out;
}

bool contains(const std::vector<std::uint64_t>& rounds, std::uint64_t round) {
  return std::find(rounds.begin(), rounds.end(), round) != rounds.end();
}

/// The dynamic node's boundaries: BFS start, setup end, the end of a
/// single-phase (alarm-free) first collection, and the first window end.
struct DynamicFixture {
  core::ResolvedConfig rc = small_config();
  core::DynamicConfig cfg{rc, /*batch_capacity=*/4};
  std::uint64_t bfs_start = rc.stage1_rounds;
  std::uint64_t setup_end = rc.stage3_start();
  std::uint64_t collect_end =
      setup_end + core::collection_phase_rounds(rc.initial_estimate, rc);
  std::uint64_t window_end = collect_end + cfg.dissemination_window();
  stream::HoldLog log;
};

TEST(PollHint, DynamicRootIsDueAtEveryPhaseAndEpochBoundary) {
  DynamicFixture f;
  // One group: 3 + D̂ + 4 = 10 phases of 80 rounds.
  ASSERT_EQ(f.cfg.dissemination_window(), 10 * f.rc.dissem_phase_rounds);
  // A lone node elects itself, so it is the root throughout.
  audit::HoldRecorder node(f.cfg, 3, Rng(13), /*buffer_capacity=*/1,
                           stream::BufferPolicy::kDropNew, &f.log);
  node.on_transmit(0);
  ASSERT_GT(node.quiet_until(), 1u);
  // Offered inside a quiet spell: buffered, and held only once the first
  // collection takes it at setup end.
  radio::Packet p;
  p.id = radio::make_packet_id(3, 0);
  p.payload = {4, 2};
  node.offer(p);
  EXPECT_EQ(node.payload(p.id), nullptr);

  const HintedDrive d = drive_on_hints(node, node.quiet_until(), f.window_end + 1);
  EXPECT_TRUE(node.is_leader());
  ASSERT_NE(node.payload(p.id), nullptr);
  EXPECT_EQ(*node.payload(p.id), p.payload);
  for (const std::uint64_t boundary : {f.bfs_start, f.setup_end, f.collect_end, f.window_end}) {
    EXPECT_TRUE(contains(d.polled, boundary)) << "boundary " << boundary;
  }
  // The collection ends and the root injects its group in the same call.
  EXPECT_TRUE(contains(d.sent, f.collect_end));
  // The root's next slot-0 phase after phase 9 would be phase 12: the
  // window end caps the hint, and the next epoch opens there.
  const auto last = std::find(d.polled.begin(), d.polled.end(), f.window_end);
  ASSERT_NE(last, d.polled.begin());
  EXPECT_EQ(*(last - 1), f.collect_end + 9 * f.rc.dissem_phase_rounds);
  EXPECT_EQ(node.epochs_completed(), 1u);
}

TEST(PollHint, DynamicNodeWithoutLayerSleepsToSetupEnd) {
  DynamicFixture f;
  stream::StreamNode node(f.cfg, 3, Rng(14), /*buffer_capacity=*/1,
                          stream::BufferPolicy::kDropNew, &f.log);
  node.on_transmit(0);
  // A probe-0 alarm means some id >= 8 exists: id 3 neither leads nor,
  // hearing no construction message, joins a BFS layer.
  node.on_receive(0, message(8, radio::AlarmMsg{}));
  const HintedDrive d = drive_on_hints(node, 1, f.window_end + 1);
  EXPECT_FALSE(node.is_leader());
  const auto bfs = std::find(d.polled.begin(), d.polled.end(), f.bfs_start);
  ASSERT_NE(bfs, d.polled.end());
  ASSERT_NE(bfs + 1, d.polled.end());
  EXPECT_EQ(*(bfs + 1), f.setup_end);
  EXPECT_TRUE(contains(d.polled, f.collect_end));
  EXPECT_TRUE(contains(d.polled, f.window_end));
  // It relays the alarm it heard through probe 0, then never speaks.
  ASSERT_FALSE(d.sent.empty());
  EXPECT_LT(d.sent.back(), f.bfs_start);
  EXPECT_EQ(node.epochs_completed(), 1u);
}

}  // namespace
}  // namespace radiocast
