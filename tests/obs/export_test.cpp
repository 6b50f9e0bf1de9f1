#include "obs/export.hpp"

#include <sstream>

#include <gtest/gtest.h>

#include "obs/json.hpp"
#include "obs/observer.hpp"

namespace radiocast::obs {
namespace {

TEST(Json, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(Json, WriterEmitsStableScalars) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object()
      .kv("i", std::uint64_t{42})
      .kv("neg", std::int64_t{-7})
      .kv("whole", 3.0)
      .kv("frac", 1.5)
      .kv("b", true)
      .kv("s", "x")
      .end_object();
  EXPECT_EQ(out.str(),
            R"({"i":42,"neg":-7,"whole":3,"frac":1.5,"b":true,"s":"x"})");
}

TEST(Export, SpanJsonlGolden) {
  SpanRecorder rec;
  const std::uint64_t id = rec.open("stage1.leader", "stage", 0, {{"x", 64}});
  rec.close(id, 10);

  std::ostringstream out;
  write_spans_jsonl(out, rec.snapshot());
  EXPECT_EQ(out.str(),
            "{\"type\":\"span\",\"id\":1,\"parent\":0,\"depth\":0,"
            "\"cat\":\"stage\",\"name\":\"stage1.leader\",\"begin\":0,"
            "\"end\":10,\"rounds\":10,\"closed\":true,\"attrs\":{\"x\":64}}\n");
}

TEST(Export, RunJsonlLedgerGolden) {
  // Node 0 reports: round 0 precedes its first stage report, round 1 runs
  // in a Stage-3 OSPG epoch. Neither span is closed yet.
  RunObserver observer;
  observer.on_sim_start({0, 1, 2});
  observer.on_transmissions(0, std::vector<radio::Message>(1));
  observer.on_deliver(0, 1, 0, radio::Message{});
  observer.on_round_end(0);
  observer.on_stage_enter(0, 3, 1);
  observer.on_collection_epoch(0, "ospg", 4, 1, 1);
  observer.on_transmissions(1, {});
  observer.on_collision_slot(1, 2, 0, false);
  observer.on_round_end(1);

  std::ostringstream out;
  write_run_jsonl(out, observer, 2);
  EXPECT_EQ(out.str(),
            "{\"type\":\"run\",\"total_rounds\":2,\"dropped_spans\":0}\n"
            "{\"type\":\"span\",\"id\":1,\"parent\":0,\"depth\":0,"
            "\"cat\":\"stage\",\"name\":\"stage3.collection\",\"begin\":1,"
            "\"end\":1,\"rounds\":0,\"closed\":false,\"attrs\":{\"stage\":3}}\n"
            "{\"type\":\"span\",\"id\":2,\"parent\":1,\"depth\":1,"
            "\"cat\":\"epoch\",\"name\":\"ospg\",\"begin\":1,"
            "\"end\":1,\"rounds\":0,\"closed\":false,\"attrs\":{\"slots\":4}}\n"
            "{\"type\":\"ledger\",\"stage\":\"unattributed\",\"epoch\":\"\","
            "\"rounds\":1,\"awake\":3,\"transmissions\":1,\"deliveries\":1,"
            "\"collisions\":0,\"deaf\":0,\"faults\":0,\"silent\":2}\n"
            "{\"type\":\"ledger\",\"stage\":\"stage3.collection\",\"epoch\":\"ospg\","
            "\"rounds\":1,\"awake\":3,\"transmissions\":0,\"deliveries\":0,"
            "\"collisions\":1,\"deaf\":0,\"faults\":0,\"silent\":2}\n");
}

TEST(Export, ChromeTraceShape) {
  SpanRecorder rec;
  const std::uint64_t a = rec.open("stage3.collection", "stage", 100);
  const std::uint64_t b = rec.open("phase", "phase", 100, {{"x", 8}});
  rec.close(b, 150);
  rec.close(a, 200);

  std::ostringstream out;
  write_chrome_trace(out, rec.snapshot());
  const std::string s = out.str();
  // One metadata event + two complete events, valid trace_event fields.
  EXPECT_EQ(s.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(s.find("\"name\":\"process_name\",\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(s.find("\"name\":\"phase\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":100,"
                   "\"dur\":50"),
            std::string::npos);
  EXPECT_NE(s.find("\"name\":\"stage3.collection\""), std::string::npos);
  EXPECT_NE(s.find("\"args\":{\"x\":8}"), std::string::npos);
  EXPECT_NE(s.find("\"displayTimeUnit\":\"ms\"}"), std::string::npos);
}

}  // namespace
}  // namespace radiocast::obs
