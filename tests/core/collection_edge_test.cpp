// Additional Stage-3 edge cases: MSPG copy draws, window boundaries,
// conflict accounting, stray-message robustness.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/collection.hpp"
#include "core/schedule.hpp"
#include "graph/generators.hpp"

namespace radiocast::core {
namespace {

ResolvedConfig rc_for(const graph::Graph& g, std::uint32_t grab_c = 3) {
  KBroadcastConfig kcfg;
  kcfg.know = radio::Knowledge::exact(g);
  kcfg.grab_c = grab_c;
  return resolve(kcfg);
}

radio::Packet pkt(radio::NodeId origin, std::uint32_t seq) {
  radio::Packet p;
  p.id = radio::make_packet_id(origin, seq);
  p.payload = {static_cast<std::uint8_t>(seq)};
  return p;
}

TEST(CollectionEdge, SourceStartsEveryUnackedPacketInOspg) {
  // Over the first OSPG window a source with m packets must transmit at
  // least one start (slots are drawn for every packet; collisions within
  // the node can only merge them).
  const graph::Graph g = graph::make_path(3);
  const ResolvedConfig rc = rc_for(g);
  const CollectionState::Config cfg{&rc};
  Rng rng(1);
  CollectionState source(cfg, 2, false, radio::NodeId{1}, {pkt(2, 0), pkt(2, 1)},
                         &rng);
  const GatherWindow w0 = grab_windows(rc.initial_estimate, rc)[0];
  int starts = 0;
  for (std::uint64_t r = 0; r < w0.up_rounds; ++r) {
    const auto out = source.on_transmit(r);
    if (out.has_value() && std::holds_alternative<radio::DataMsg>(*out)) ++starts;
  }
  EXPECT_GE(starts, 1);
  EXPECT_LE(starts, 2);
}

TEST(CollectionEdge, DataMsgOutsideUpWindowIgnored) {
  const graph::Graph g = graph::make_path(3);
  const ResolvedConfig rc = rc_for(g);
  const CollectionState::Config cfg{&rc};
  Rng rng(2);
  CollectionState relay(cfg, 1, false, radio::NodeId{0}, {}, &rng);
  const GatherWindow w0 = grab_windows(rc.initial_estimate, rc)[0];
  // Deliver a data message during the ACK window: must not schedule a
  // relay forward.
  radio::Message msg{2, radio::DataMsg{pkt(2, 0), 1}};
  relay.on_receive(w0.up_rounds + 5, msg);
  for (std::uint64_t r = w0.up_rounds + 5; r < w0.up_rounds + 10; ++r) {
    const auto out = relay.on_transmit(r);
    EXPECT_TRUE(!out.has_value() || !std::holds_alternative<radio::DataMsg>(*out));
  }
}

TEST(CollectionEdge, RelayDropsPacketAtUpWindowBoundary) {
  const graph::Graph g = graph::make_path(3);
  const ResolvedConfig rc = rc_for(g);
  const CollectionState::Config cfg{&rc};
  Rng rng(3);
  CollectionState relay(cfg, 1, false, radio::NodeId{0}, {}, &rng);
  const GatherWindow w0 = grab_windows(rc.initial_estimate, rc)[0];
  // Received on the last up-window round: forwarding would land outside,
  // so the copy dies (the paper's no-recovery rule).
  radio::Message msg{2, radio::DataMsg{pkt(2, 0), 1}};
  relay.on_receive(w0.up_rounds - 1, msg);
  const auto out = relay.on_transmit(w0.up_rounds);
  EXPECT_TRUE(!out.has_value() || !std::holds_alternative<radio::DataMsg>(*out));
}

TEST(CollectionEdge, AckForUnknownPacketIsIgnored) {
  const graph::Graph g = graph::make_path(3);
  const ResolvedConfig rc = rc_for(g);
  const CollectionState::Config cfg{&rc};
  Rng rng(4);
  CollectionState relay(cfg, 1, false, radio::NodeId{0}, {}, &rng);
  const GatherWindow w0 = grab_windows(rc.initial_estimate, rc)[0];
  radio::Message ack{0, radio::AckMsg{radio::make_packet_id(9, 9), 1}};
  relay.on_receive(w0.up_rounds + 1, ack);  // no child recorded for it
  for (std::uint64_t r = w0.up_rounds + 1; r < w0.up_rounds + 6; ++r) {
    EXPECT_FALSE(relay.on_transmit(r).has_value());
  }
}

TEST(CollectionEdge, DuplicateDeliveryReAcked) {
  // The root re-acknowledges a packet it already has (the origin may have
  // missed the first ack).
  const graph::Graph g = graph::make_path(3);
  const ResolvedConfig rc = rc_for(g);
  const CollectionState::Config cfg{&rc};
  Rng rng(5);
  CollectionState root(cfg, 0, true, std::nullopt, {}, &rng);
  const radio::Packet p = pkt(2, 0);
  root.on_receive(3, radio::Message{1, radio::DataMsg{p, 0}});
  root.on_receive(5, radio::Message{1, radio::DataMsg{p, 0}});
  EXPECT_EQ(root.collected().size(), 1u);  // deduplicated
  const GatherWindow w0 = grab_windows(rc.initial_estimate, rc)[0];
  int acks = 0;
  for (std::uint64_t r = w0.up_rounds; r < w0.total_rounds(); ++r) {
    const auto out = root.on_transmit(r);
    if (out.has_value() && std::holds_alternative<radio::AckMsg>(*out)) ++acks;
  }
  EXPECT_EQ(acks, 2);  // one ack per received copy
}

TEST(CollectionEdge, AcksSpacedThreeApart) {
  const graph::Graph g = graph::make_path(3);
  const ResolvedConfig rc = rc_for(g);
  const CollectionState::Config cfg{&rc};
  Rng rng(6);
  CollectionState root(cfg, 0, true, std::nullopt, {}, &rng);
  // Three distinct packets delivered in consecutive rounds.
  for (std::uint32_t i = 0; i < 3; ++i) {
    root.on_receive(3 + i, radio::Message{1, radio::DataMsg{pkt(2, i), 0}});
  }
  const GatherWindow w0 = grab_windows(rc.initial_estimate, rc)[0];
  std::vector<std::uint64_t> ack_rounds;
  for (std::uint64_t r = w0.up_rounds; r < w0.total_rounds(); ++r) {
    const auto out = root.on_transmit(r);
    if (out.has_value() && std::holds_alternative<radio::AckMsg>(*out)) {
      ack_rounds.push_back(r);
    }
  }
  ASSERT_EQ(ack_rounds.size(), 3u);
  EXPECT_EQ(ack_rounds[1] - ack_rounds[0], 3u);
  EXPECT_EQ(ack_rounds[2] - ack_rounds[1], 3u);
}

TEST(CollectionEdge, MspgDrawsMultipleCopies) {
  // In the MSPG window a source's packet gets c·log n slot draws; over the
  // window it should be transmitted several times (distinct slots whp).
  const graph::Graph g = graph::make_star(8);
  const ResolvedConfig rc = rc_for(g);
  const CollectionState::Config cfg{&rc};
  Rng rng(7);
  CollectionState source(cfg, 2, false, radio::NodeId{0}, {pkt(2, 0)}, &rng);
  const auto windows = grab_windows(rc.initial_estimate, rc);
  const GatherWindow& mspg = windows.back();
  ASSERT_GT(mspg.copies, 1u);
  int copies_sent = 0;
  for (std::uint64_t r = mspg.start; r < mspg.start + mspg.up_rounds; ++r) {
    const auto out = source.on_transmit(r);
    if (out.has_value() && std::holds_alternative<radio::DataMsg>(*out)) {
      ++copies_sent;
    }
  }
  EXPECT_GE(copies_sent, static_cast<int>(mspg.copies) / 2);
  EXPECT_LE(copies_sent, static_cast<int>(mspg.copies));
}

TEST(CollectionEdge, NodeWithoutParentNeverSendsData) {
  const graph::Graph g = graph::make_path(3);
  const ResolvedConfig rc = rc_for(g);
  const CollectionState::Config cfg{&rc};
  Rng rng(8);
  CollectionState orphan(cfg, 2, false, std::nullopt, {pkt(2, 0)}, &rng);
  const std::uint64_t grab = grab_rounds(rc.initial_estimate, rc);
  for (std::uint64_t r = 0; r < grab; ++r) {
    const auto out = orphan.on_transmit(r);
    EXPECT_TRUE(!out.has_value() || !std::holds_alternative<radio::DataMsg>(*out));
  }
  // But it still alarms: its packet is unacked.
  bool alarmed = false;
  for (std::uint64_t r = grab; r < grab + rc.alarm_rounds; ++r) {
    const auto out = orphan.on_transmit(r);
    if (out.has_value() && std::holds_alternative<radio::AlarmMsg>(*out)) {
      alarmed = true;
    }
  }
  EXPECT_TRUE(alarmed);
}

TEST(CollectionEdge, UnackedPacketsAccessor) {
  const graph::Graph g = graph::make_path(3);
  const ResolvedConfig rc = rc_for(g);
  const CollectionState::Config cfg{&rc};
  Rng rng(9);
  CollectionState source(cfg, 2, false, radio::NodeId{1}, {pkt(2, 0), pkt(2, 1)},
                         &rng);
  EXPECT_EQ(source.unacked_packets().size(), 2u);
  const GatherWindow w0 = grab_windows(rc.initial_estimate, rc)[0];
  source.on_receive(w0.up_rounds + 1,
                    radio::Message{1, radio::AckMsg{pkt(2, 0).id, 2}});
  const auto unacked = source.unacked_packets();
  ASSERT_EQ(unacked.size(), 1u);
  EXPECT_EQ(unacked[0].id, pkt(2, 1).id);
}

TEST(CollectionEdge, GrabConstantAffectsCascadeFloor) {
  const graph::Graph g = graph::make_path(8);
  const ResolvedConfig rc1 = rc_for(g, 1);
  const ResolvedConfig rc4 = rc_for(g, 4);
  EXPECT_EQ(rc1.c_log_n, rc1.log_n);
  EXPECT_EQ(rc4.c_log_n, 4ull * rc4.log_n);
  EXPECT_LT(grab_rounds(rc1.initial_estimate, rc1),
            grab_rounds(rc4.initial_estimate, rc4));
}

}  // namespace
}  // namespace radiocast::core
