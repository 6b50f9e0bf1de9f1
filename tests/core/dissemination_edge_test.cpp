// Additional Stage-4 edge cases: header bookkeeping, decoder accounting,
// group boundaries and scheduling invariants.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/dissemination.hpp"
#include "graph/generators.hpp"

namespace radiocast::core {
namespace {

ResolvedConfig rc_for(const graph::Graph& g) {
  KBroadcastConfig kcfg;
  kcfg.know = radio::Knowledge::exact(g);
  return resolve(kcfg);
}

std::vector<radio::Packet> packets(std::uint32_t k, Rng& rng) {
  std::vector<radio::Packet> out;
  for (std::uint32_t i = 0; i < k; ++i) {
    radio::Packet p;
    p.id = radio::make_packet_id(7, i);
    p.payload.resize(4);
    for (auto& b : p.payload) b = static_cast<std::uint8_t>(rng() & 0xff);
    out.push_back(std::move(p));
  }
  return out;
}

TEST(DissemEdge, LastGroupMayBeSmaller) {
  const graph::Graph g = graph::make_path(40);  // log n = 6
  const ResolvedConfig rc = rc_for(g);
  Rng rng(1), prng(2);
  DisseminationState root(DisseminationState::Config{&rc}, 0, true, 0u, &rng);
  const std::uint32_t k = rc.group_size * 2 + 1;  // last group size 1
  root.set_root_packets(packets(k, prng));
  EXPECT_EQ(root.group_count(), 3u);
  // Scan the injection phase of group 2: exactly one packet is sent.
  const std::uint64_t phase = 2ull * rc.group_spacing;
  int sent = 0;
  for (std::uint64_t off = 0; off < rc.dissem_phase_rounds; ++off) {
    const auto out = root.on_transmit(phase * rc.dissem_phase_rounds + off);
    if (out.has_value()) {
      ++sent;
      const auto* plain = std::get_if<radio::PlainPacketMsg>(&*out);
      ASSERT_NE(plain, nullptr);
      EXPECT_EQ(plain->group_size, 1u);
      EXPECT_EQ(plain->group_count, 3u);
    }
  }
  EXPECT_EQ(sent, 1);
}

TEST(DissemEdge, ReceiverCountsRedundantRows) {
  const graph::Graph g = graph::make_path(8);
  const ResolvedConfig rc = rc_for(g);
  Rng rng(3);
  DisseminationState node(DisseminationState::Config{&rc}, 2, false, 1u, &rng);
  radio::PlainPacketMsg m;
  m.packet.id = radio::make_packet_id(0, 0);
  m.packet.payload = {1};
  m.group_id = 0;
  m.group_count = 1;
  m.index_in_group = 0;
  m.group_size = 2;
  node.on_receive(0, radio::Message{1, m});
  node.on_receive(1, radio::Message{1, m});  // duplicate => redundant row
  EXPECT_EQ(node.rows_received(), 2u);
  EXPECT_EQ(node.redundant_rows(), 1u);
  EXPECT_FALSE(node.complete());  // one of two packets known
  m.index_in_group = 1;
  m.packet.id = radio::make_packet_id(0, 1);
  node.on_receive(2, radio::Message{1, m});
  EXPECT_TRUE(node.complete());
}

TEST(DissemEdge, CompleteNodeIgnoresFurtherRows) {
  const graph::Graph g = graph::make_path(8);
  const ResolvedConfig rc = rc_for(g);
  Rng rng(4);
  DisseminationState node(DisseminationState::Config{&rc}, 2, false, 1u, &rng);
  radio::PlainPacketMsg m;
  m.packet.id = radio::make_packet_id(0, 0);
  m.packet.payload = {5};
  m.group_id = 0;
  m.group_count = 1;
  m.index_in_group = 0;
  m.group_size = 1;
  node.on_receive(0, radio::Message{1, m});
  ASSERT_TRUE(node.complete());
  const std::uint64_t rows = node.rows_received();
  node.on_receive(1, radio::Message{1, m});
  EXPECT_EQ(node.rows_received(), rows);  // not even counted
}

TEST(DissemEdge, ForwarderSendsOnlyDuringItsPhase) {
  const graph::Graph g = graph::make_path(16);
  const ResolvedConfig rc = rc_for(g);
  Rng rng(5);
  const std::uint32_t dist = 2;
  DisseminationState node(DisseminationState::Config{&rc}, 3, false, dist, &rng);
  // Hand it a complete single group via a plain row.
  radio::PlainPacketMsg m;
  m.packet.id = radio::make_packet_id(0, 0);
  m.packet.payload = {1};
  m.group_id = 0;
  m.group_count = 1;
  m.index_in_group = 0;
  m.group_size = 1;
  node.on_receive(0, radio::Message{1, m});
  ASSERT_TRUE(node.complete());

  for (std::uint64_t ph = 0; ph < 8; ++ph) {
    bool sent = false;
    for (std::uint64_t off = 0; off < rc.dissem_phase_rounds; ++off) {
      sent |= node.on_transmit(ph * rc.dissem_phase_rounds + off).has_value();
    }
    if (ph == dist) {
      EXPECT_TRUE(sent) << "phase " << ph;  // whp over forward_epochs draws
    } else {
      EXPECT_FALSE(sent) << "phase " << ph;
    }
  }
}

TEST(DissemEdge, CodedHeadersCarryConsistentMetadata) {
  const graph::Graph g = graph::make_path(16);
  const ResolvedConfig rc = rc_for(g);
  Rng rng(6);
  DisseminationState node(DisseminationState::Config{&rc}, 3, false, 1u, &rng);
  radio::PlainPacketMsg m;
  m.packet.id = radio::make_packet_id(0, 0);
  m.packet.payload = {1, 2};
  m.group_id = 0;
  m.group_count = 2;
  m.index_in_group = 0;
  m.group_size = 1;
  node.on_receive(0, radio::Message{1, m});
  int coded_seen = 0;
  for (std::uint64_t off = 0; off < rc.dissem_phase_rounds * 2; ++off) {
    const auto out = node.on_transmit(rc.dissem_phase_rounds + off);
    if (!out.has_value()) continue;
    if (const auto* coded = std::get_if<radio::CodedMsg>(&*out)) {
      EXPECT_EQ(coded->group_id, 0u);
      EXPECT_EQ(coded->group_count, 2u);
      EXPECT_EQ(coded->group_size, 1u);
      ++coded_seen;
    }
  }
  EXPECT_GT(coded_seen, 0);
}

TEST(DissemEdge, PacketsBeforeAnyHeaderIsEmpty) {
  const graph::Graph g = graph::make_path(8);
  const ResolvedConfig rc = rc_for(g);
  Rng rng(7);
  DisseminationState node(DisseminationState::Config{&rc}, 1, false, 1u, &rng);
  EXPECT_FALSE(node.complete());
  EXPECT_EQ(node.group_count(), 0u);
  EXPECT_TRUE(node.packets().empty());
}

TEST(DissemEdge, EmptyRootBatchIsCompleteWithZeroGroups) {
  const graph::Graph g = graph::make_path(8);
  const ResolvedConfig rc = rc_for(g);
  Rng rng(8);
  DisseminationState root(DisseminationState::Config{&rc}, 0, true, 0u, &rng);
  root.set_root_packets({});
  EXPECT_TRUE(root.complete());
  EXPECT_EQ(root.group_count(), 0u);
  for (std::uint64_t r = 0; r < 100; ++r) {
    EXPECT_FALSE(root.on_transmit(r).has_value());
  }
}

TEST(DissemEdge, UncodedForwarderEmitsOnlyGroupMembers) {
  const graph::Graph g = graph::make_path(16);
  KBroadcastConfig kcfg;
  kcfg.know = radio::Knowledge::exact(g);
  kcfg.coded = false;
  kcfg.group_size = 2;
  const ResolvedConfig rc = resolve(kcfg);
  Rng rng(9);
  DisseminationState node(DisseminationState::Config{&rc}, 3, false, 1u, &rng);
  radio::PlainPacketMsg m;
  m.group_id = 0;
  m.group_count = 1;
  m.group_size = 2;
  for (std::uint16_t i = 0; i < 2; ++i) {
    m.packet.id = radio::make_packet_id(0, i);
    m.packet.payload = {static_cast<std::uint8_t>(i)};
    m.index_in_group = i;
    node.on_receive(i, radio::Message{1, m});
  }
  ASSERT_TRUE(node.complete());
  for (std::uint64_t off = 0; off < rc.dissem_phase_rounds; ++off) {
    const auto out = node.on_transmit(rc.dissem_phase_rounds + off);
    if (!out.has_value()) continue;
    const auto* plain = std::get_if<radio::PlainPacketMsg>(&*out);
    ASSERT_NE(plain, nullptr);  // uncoded mode sends plain packets only
    EXPECT_LT(plain->index_in_group, 2u);
    EXPECT_EQ(radio::packet_origin(plain->packet.id), 0u);
  }
}

}  // namespace
}  // namespace radiocast::core
