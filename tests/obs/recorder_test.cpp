#include "obs/recorder.hpp"

#include <gtest/gtest.h>

namespace radiocast::obs {
namespace {

TEST(Recorder, NestingTracksDepthAndParent) {
  SpanRecorder rec;
  const std::uint64_t a = rec.open("stage3", "stage", 100);
  const std::uint64_t b = rec.open("phase", "phase", 100, {{"x", 64}});
  const std::uint64_t c = rec.open("ospg", "epoch", 100);
  EXPECT_EQ(rec.open_depth(), 3u);
  rec.close(c, 150);
  rec.close(b, 180);
  rec.close(a, 200);
  EXPECT_EQ(rec.open_depth(), 0u);

  const std::vector<Span> spans = rec.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // Closed spans come back in close order: innermost first.
  EXPECT_EQ(spans[0].name, "ospg");
  EXPECT_EQ(spans[0].depth, 2u);
  EXPECT_EQ(spans[0].parent_id, b);
  EXPECT_EQ(spans[1].name, "phase");
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[1].parent_id, a);
  ASSERT_EQ(spans[1].attrs.size(), 1u);
  EXPECT_EQ(spans[1].attrs[0].key, "x");
  EXPECT_EQ(spans[1].attrs[0].value, 64u);
  EXPECT_EQ(spans[2].name, "stage3");
  EXPECT_EQ(spans[2].depth, 0u);
  EXPECT_EQ(spans[2].parent_id, 0u);
  EXPECT_EQ(spans[2].begin_round, 100u);
  EXPECT_EQ(spans[2].end_round, 200u);
  EXPECT_EQ(spans[2].duration(), 100u);
  EXPECT_TRUE(spans[2].closed);
}

TEST(Recorder, SnapshotIncludesStillOpenSpans) {
  SpanRecorder rec;
  rec.open("outer", "stage", 5);
  const std::vector<Span> spans = rec.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_FALSE(spans[0].closed);
  EXPECT_EQ(spans[0].begin_round, 5u);
  EXPECT_EQ(spans[0].end_round, 5u);
}

TEST(Recorder, AddAttrOnOpenSpan) {
  SpanRecorder rec;
  const std::uint64_t id = rec.open("phase", "phase", 0);
  rec.add_attr(id, "alarmed", 1);
  rec.close(id, 10);
  const std::vector<Span> spans = rec.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].attrs.size(), 1u);
  EXPECT_EQ(spans[0].attrs[0].key, "alarmed");
  EXPECT_EQ(spans[0].attrs[0].value, 1u);
}

TEST(Recorder, RingBufferEvictsOldestClosedSpans) {
  constexpr std::size_t kCap = SpanRecorder::kCapacity;
  SpanRecorder rec;
  for (std::uint64_t i = 0; i < kCap + 7; ++i) {
    const std::uint64_t id = rec.open("s" + std::to_string(i), "epoch", i);
    rec.close(id, i + 1);
  }
  EXPECT_EQ(rec.dropped_spans(), 7u);
  const std::vector<Span> spans = rec.snapshot();
  ASSERT_EQ(spans.size(), kCap);
  EXPECT_EQ(spans.front().name, "s7");
  EXPECT_EQ(spans[1].name, "s8");
  EXPECT_EQ(spans.back().name, "s" + std::to_string(kCap + 6));
  // Ids keep counting across evictions.
  EXPECT_EQ(spans.back().id, kCap + 7);
}

}  // namespace
}  // namespace radiocast::obs
