// PacketTracer unit tests over hand-built delivery streams, plus the
// property the decode tap rests on: gf2::MaskRank fed the same row stream
// as gf2::IncrementalDecoder reaches completeness at the same step.
#include "obs/packet_trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/params.hpp"
#include "gf2/solver.hpp"
#include "graph/generators.hpp"
#include "radio/message.hpp"

namespace radiocast::obs {
namespace {

using radio::make_packet_id;
using Via = PacketTracer::Via;

constexpr std::uint64_t kNever = ~std::uint64_t{0};

/// One packet per entry of `origins` (nondecreasing), numbered per origin,
/// so the truth is sorted by id as core::placement_packets guarantees.
std::vector<radio::Packet> make_truth(const std::vector<radio::NodeId>& origins) {
  std::vector<radio::Packet> truth;
  std::uint32_t seq = 0;
  for (std::size_t i = 0; i < origins.size(); ++i) {
    seq = i > 0 && origins[i] == origins[i - 1] ? seq + 1 : 0;
    truth.push_back({make_packet_id(origins[i], seq), {}});
  }
  return truth;
}

/// Arms `t` for a run over an n-node path with coding groups of
/// `group_size`; every packet starts at its origin.
void begin_run(PacketTracer& t, std::uint32_t n,
               const std::vector<radio::Packet>& truth, std::uint32_t group_size) {
  const graph::Graph g = graph::make_path(n);
  core::ResolvedConfig rc;
  rc.group_size = group_size;
  t.begin_run(g, rc, truth, {}, false);
}

radio::Message plain_msg(radio::NodeId from, const radio::Packet& pkt,
                         std::uint32_t group_id, std::uint16_t index_in_group,
                         std::uint16_t group_size) {
  return {from, radio::PlainPacketMsg{pkt, group_id, /*group_count=*/1,
                                      index_in_group, group_size}};
}

radio::Message coded_msg(radio::NodeId from, std::uint32_t group_id,
                         std::uint16_t group_size, std::uint64_t coeffs) {
  return {from, radio::CodedMsg{group_id, /*group_count=*/1, group_size,
                                coeffs, {}}};
}

radio::Message data_msg(radio::NodeId from, const radio::Packet& pkt,
                        radio::NodeId to) {
  return {from, radio::DataMsg{pkt, to}};
}

TEST(PacketTracer, OriginSeedsHoldAtLatencyZero) {
  PacketTracer t;
  const auto truth = make_truth({0, 1});
  begin_run(t, 4, truth, 2);

  EXPECT_TRUE(t.held(0, 0));
  EXPECT_EQ(t.latency(0, 0), 0u);
  EXPECT_EQ(t.via(0, 0), Via::kOrigin);
  EXPECT_EQ(t.delivered_by(0, 0), 0u);
  EXPECT_EQ(t.hop_depth(0, 0), 0u);
  EXPECT_FALSE(t.held(0, 2));
  EXPECT_EQ(t.latency(0, 2), kNever);
  EXPECT_EQ(t.undelivered(0), 3u);
  EXPECT_EQ(t.undelivered(1), 3u);
  ASSERT_EQ(t.flight_events().size(), 2u);
  EXPECT_EQ(t.flight_events()[0].via, Via::kOrigin);
  // Origin latencies never enter the latency histograms.
  EXPECT_TRUE(t.packet_latencies(0).empty());
  EXPECT_TRUE(t.all_latencies().empty());
}

TEST(PacketTracer, PlainDeliveryRecordsOnlyTheFirstHold) {
  PacketTracer t;
  const auto truth = make_truth({0, 0});
  begin_run(t, 4, truth, 2);

  // Reception in round 3 => latency 4.
  t.on_deliver(3, 2, 0, plain_msg(0, truth[0], 0, 0, 2));
  EXPECT_TRUE(t.held(0, 2));
  EXPECT_EQ(t.latency(0, 2), 4u);
  EXPECT_EQ(t.via(0, 2), Via::kPlain);
  EXPECT_EQ(t.delivered_by(0, 2), 0u);
  EXPECT_EQ(t.hop_depth(0, 2), 1u);

  // A later duplicate (different sender) must not overwrite the record.
  t.on_deliver(7, 2, 0, plain_msg(1, truth[0], 0, 0, 2));
  EXPECT_EQ(t.latency(0, 2), 4u);
  EXPECT_EQ(t.delivered_by(0, 2), 0u);

  const LogHistogram h = t.packet_latencies(0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 4u);
  EXPECT_EQ(h.max(), 4u);
}

TEST(PacketTracer, DataDeliveriesChainHopDepth) {
  PacketTracer t;
  const auto truth = make_truth({0});
  begin_run(t, 5, truth, 1);

  t.on_deliver(0, 1, 0, data_msg(0, truth[0], 1));  // 0 -> 1, depth 1
  t.on_deliver(4, 2, 0, data_msg(1, truth[0], 2));  // 1 -> 2, depth 2
  EXPECT_EQ(t.latency(0, 1), 1u);
  EXPECT_EQ(t.hop_depth(0, 1), 1u);
  EXPECT_EQ(t.via(0, 1), Via::kData);
  EXPECT_EQ(t.latency(0, 2), 5u);
  EXPECT_EQ(t.hop_depth(0, 2), 2u);

  // Sender that never held the packet: defensive depth fallback of 1.
  t.on_deliver(6, 4, 0, data_msg(3, truth[0], 4));
  EXPECT_EQ(t.hop_depth(0, 4), 1u);
  EXPECT_EQ(t.undelivered(0), 1u);  // only node 3 still missing
}

TEST(PacketTracer, CodedRowsFireDecodeAtRankCompleteness) {
  PacketTracer t;
  const auto truth = make_truth({0, 0});
  begin_run(t, 2, truth, 2);

  // Node 1: rank 1 after the first row — nothing decodable yet.
  t.on_deliver(0, 1, 0, coded_msg(0, 0, 2, 0b01));
  EXPECT_FALSE(t.held(0, 1));
  EXPECT_FALSE(t.held(1, 1));
  // A redundant row must not advance the rank.
  t.on_deliver(1, 1, 0, coded_msg(0, 0, 2, 0b01));
  EXPECT_FALSE(t.held(0, 1));
  // Rank completes in round 2: every packet of the group decodes with
  // latency 3, attributed to the sender of the completing row.
  t.on_deliver(2, 1, 0, coded_msg(0, 0, 2, 0b11));
  EXPECT_TRUE(t.held(0, 1));
  EXPECT_TRUE(t.held(1, 1));
  EXPECT_EQ(t.latency(0, 1), 3u);
  EXPECT_EQ(t.latency(1, 1), 3u);
  EXPECT_EQ(t.via(0, 1), Via::kDecode);
  EXPECT_EQ(t.via(1, 1), Via::kDecode);
  EXPECT_EQ(t.delivered_by(0, 1), 0u);
  EXPECT_EQ(t.undelivered(0), 0u);
}

TEST(PacketTracer, PlainReceptionsDoubleAsUnitDecoderRows) {
  PacketTracer t;
  const auto truth = make_truth({0, 0});
  begin_run(t, 2, truth, 2);

  // Plain packet 0 in round 0: direct hold AND unit row e0.
  t.on_deliver(0, 1, 0, plain_msg(0, truth[0], 0, 0, 2));
  EXPECT_EQ(t.via(0, 1), Via::kPlain);
  EXPECT_EQ(t.latency(0, 1), 1u);
  EXPECT_FALSE(t.held(1, 1));
  // The mixed row {p0, p1} now completes the group; only packet 1 is new.
  t.on_deliver(2, 1, 0, coded_msg(0, 0, 2, 0b11));
  EXPECT_EQ(t.via(0, 1), Via::kPlain);  // first hold preserved
  EXPECT_EQ(t.latency(0, 1), 1u);
  EXPECT_EQ(t.via(1, 1), Via::kDecode);
  EXPECT_EQ(t.latency(1, 1), 3u);
}

TEST(PacketTracer, TailGroupUsesItsNarrowWidth) {
  // k=3, group_size=2: group 1 holds only packet 2 (width 1), and
  // coefficient bits beyond the width are clamped off the wire mask.
  PacketTracer t;
  const auto truth = make_truth({0, 0, 0});
  begin_run(t, 2, truth, 2);

  t.on_deliver(0, 1, 0, coded_msg(0, 1, 2, 0b11));
  EXPECT_TRUE(t.held(2, 1));
  EXPECT_EQ(t.via(2, 1), Via::kDecode);
  EXPECT_EQ(t.latency(2, 1), 1u);
  EXPECT_FALSE(t.held(0, 1));
  EXPECT_FALSE(t.held(1, 1));
}

TEST(PacketTracer, FlightLogCapCountsDroppedEvents) {
  PacketTracer::Options opts;
  opts.flight_paths = true;
  opts.max_flight_events = 2;
  PacketTracer t(opts);
  const auto truth = make_truth({0, 1});
  begin_run(t, 4, truth, 2);
  t.on_deliver(0, 2, 0, plain_msg(0, truth[0], 0, 0, 2));

  EXPECT_EQ(t.flight_events().size(), 2u);
  EXPECT_EQ(t.dropped_flight_events(), 1u);
  // The latency cell is recorded even when the log entry is dropped.
  EXPECT_TRUE(t.held(0, 2));
  EXPECT_EQ(t.latency(0, 2), 1u);
}

TEST(PacketTracer, FlightPathsCanBeDisabled) {
  PacketTracer::Options opts;
  opts.flight_paths = false;
  PacketTracer t(opts);
  const auto truth = make_truth({0});
  begin_run(t, 3, truth, 1);
  t.on_deliver(0, 1, 0, plain_msg(0, truth[0], 0, 0, 1));

  EXPECT_TRUE(t.flight_events().empty());
  EXPECT_EQ(t.dropped_flight_events(), 0u);
  EXPECT_TRUE(t.held(0, 1));
}

TEST(PacketTracer, FlightPathFiltersOnePacketInChronologicalOrder) {
  PacketTracer t;
  const auto truth = make_truth({0, 1});
  begin_run(t, 4, truth, 2);
  t.on_deliver(1, 2, 0, data_msg(0, truth[0], 2));
  t.on_deliver(2, 3, 0, data_msg(1, truth[1], 3));
  t.on_deliver(5, 3, 0, data_msg(2, truth[0], 3));

  const auto path = t.flight_path(0);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0].via, Via::kOrigin);
  EXPECT_EQ(path[1].latency, 2u);
  EXPECT_EQ(path[1].node, 2u);
  EXPECT_EQ(path[2].latency, 6u);
  EXPECT_EQ(path[2].node, 3u);
  EXPECT_EQ(path[2].depth, 2u);
  for (const auto& e : path) EXPECT_EQ(e.packet, 0u);
  EXPECT_EQ(t.flight_path(1).size(), 2u);
}

TEST(PacketTracer, BeginTrialResetsAllState) {
  PacketTracer::Options opts;
  opts.max_flight_events = 2;
  PacketTracer t(opts);
  const auto truth = make_truth({0, 0});
  begin_run(t, 3, truth, 2);
  t.on_deliver(0, 1, 0, plain_msg(0, truth[0], 0, 0, 2));
  ASSERT_EQ(t.dropped_flight_events(), 1u);

  // A new run keeps only its own origin seeds.
  begin_run(t, 3, truth, 2);
  EXPECT_EQ(t.flight_events().size(), 2u);
  EXPECT_EQ(t.dropped_flight_events(), 0u);
  EXPECT_TRUE(t.held(0, 0));
  EXPECT_FALSE(t.held(0, 1));
  EXPECT_EQ(t.undelivered(0), 2u);
}

TEST(PacketTracer, ViaNamesMatchTelemetrySchema) {
  EXPECT_STREQ(PacketTracer::via_name(Via::kOrigin), "origin");
  EXPECT_STREQ(PacketTracer::via_name(Via::kData), "data");
  EXPECT_STREQ(PacketTracer::via_name(Via::kPlain), "plain");
  EXPECT_STREQ(PacketTracer::via_name(Via::kDecode), "decode");
}

// The decode tap is only sound if MaskRank agrees with IncrementalDecoder
// row for row. Feed both the same random mask stream and require identical
// innovative verdicts, ranks, and completion steps.
TEST(PacketTracer, MaskRankMirrorsIncrementalDecoder) {
  Rng rng(0xdec0de);
  for (std::size_t width = 1; width <= 16; ++width) {
    for (int trial = 0; trial < 8; ++trial) {
      gf2::MaskRank mask_rank(width);
      gf2::IncrementalDecoder decoder(width);
      for (int step = 0; step < 200 && !decoder.complete(); ++step) {
        const std::uint64_t mask = rng.next_below(std::uint64_t{1} << width);
        gf2::BitVec coeffs(width);
        for (std::size_t i = 0; i < width; ++i)
          if ((mask >> i) & 1) coeffs.set(i, true);
        const bool mask_innovative = mask_rank.add(mask);
        const bool dec_innovative = decoder.add_row({coeffs, {}});
        ASSERT_EQ(mask_innovative, dec_innovative)
            << "width=" << width << " trial=" << trial << " mask=" << mask;
        ASSERT_EQ(mask_rank.rank(), decoder.rank());
        ASSERT_EQ(mask_rank.complete(), decoder.complete());
      }
      EXPECT_TRUE(decoder.complete()) << "width=" << width;
    }
  }
}

}  // namespace
}  // namespace radiocast::obs
