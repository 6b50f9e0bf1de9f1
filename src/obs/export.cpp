#include "obs/export.hpp"

#include <string>

#include "obs/json.hpp"
#include "obs/observer.hpp"
#include "obs/packet_trace.hpp"

namespace radiocast::obs {

namespace {

void write_attrs(JsonWriter& w, std::string_view key,
                 const std::vector<SpanAttr>& attrs) {
  w.key(key).begin_object();
  for (const SpanAttr& a : attrs) w.kv(a.key, a.value);
  w.end_object();
}

}  // namespace

void write_spans_jsonl(std::ostream& out, const std::vector<Span>& spans) {
  for (const Span& s : spans) {
    JsonWriter w(out);
    w.begin_object()
        .kv("type", "span")
        .kv("id", s.id)
        .kv("parent", s.parent_id)
        .kv("depth", s.depth)
        .kv("cat", s.category)
        .kv("name", s.name)
        .kv("begin", s.begin_round)
        .kv("end", s.end_round)
        .kv("rounds", s.duration())
        .kv("closed", s.closed);
    write_attrs(w, "attrs", s.attrs);
    w.end_object().newline();
  }
}

void write_run_jsonl(std::ostream& out, const RunObserver& observer,
                     std::uint64_t total_rounds) {
  {
    JsonWriter w(out);
    w.begin_object()
        .kv("type", "run")
        .kv("total_rounds", total_rounds)
        .kv("dropped_spans", observer.recorder().dropped_spans())
        .end_object()
        .newline();
  }
  write_spans_jsonl(out, observer.spans());
  for (const ChannelLedger::Aggregate& a : observer.ledger().aggregates()) {
    JsonWriter w(out);
    w.begin_object()
        .kv("type", "ledger")
        .kv("stage", ChannelLedger::stage_name(a.stage))
        .kv("epoch", ChannelLedger::epoch_name(a.epoch))
        .kv("rounds", a.rounds)
        .kv("awake", a.awake)
        .kv("transmissions", a.transmissions)
        .kv("deliveries", a.deliveries)
        .kv("collisions", a.collisions)
        .kv("deaf", a.deaf)
        .kv("faults", a.faults)
        .kv("silent", a.silent)
        .end_object()
        .newline();
  }
}

void write_chrome_trace(std::ostream& out, const std::vector<Span>& spans) {
  JsonWriter w(out);
  w.begin_object().key("traceEvents").begin_array();
  // Process-name metadata event, so the track has a readable title.
  w.begin_object()
      .kv("name", "process_name")
      .kv("ph", "M")
      .kv("pid", std::uint64_t{1})
      .key("args")
      .begin_object()
      .kv("name", "radiocast")
      .end_object()
      .end_object();
  for (const Span& s : spans) {
    w.begin_object()
        .kv("name", s.name)
        .kv("cat", s.category)
        .kv("ph", "X")
        .kv("ts", s.begin_round)
        .kv("dur", s.duration())
        .kv("pid", std::uint64_t{1})
        .kv("tid", std::uint64_t{1});
    // trace_event puts per-event payload under "args".
    write_attrs(w, "args", s.attrs);
    w.end_object();
  }
  w.end_array().kv("displayTimeUnit", "ms").end_object();
  out << '\n';
}

void write_flight_chrome_trace(std::ostream& out, const PacketTracer& tracer) {
  JsonWriter w(out);
  w.begin_object().key("traceEvents").begin_array();
  w.begin_object()
      .kv("name", "process_name")
      .kv("ph", "M")
      .kv("pid", std::uint64_t{1})
      .key("args")
      .begin_object()
      .kv("name", "radiocast packet flights")
      .end_object()
      .end_object();
  // One thread track per packet that actually flew; named lazily at its
  // first event so an untouched packet leaves no empty track behind.
  std::vector<bool> named(tracer.num_packets(), false);
  for (const PacketTracer::FlightEvent& e : tracer.flight_events()) {
    const std::uint64_t tid = static_cast<std::uint64_t>(e.packet) + 1;
    if (!named[e.packet]) {
      named[e.packet] = true;
      w.begin_object()
          .kv("name", "thread_name")
          .kv("ph", "M")
          .kv("pid", std::uint64_t{1})
          .kv("tid", tid)
          .key("args")
          .begin_object()
          .kv("name", "packet " + std::to_string(e.packet))
          .end_object()
          .end_object();
    }
    w.begin_object()
        .kv("name", PacketTracer::via_name(e.via))
        .kv("cat", "flight")
        .kv("ph", "i")
        .kv("s", "t")
        .kv("ts", e.latency)
        .kv("pid", std::uint64_t{1})
        .kv("tid", tid)
        .key("args")
        .begin_object()
        .kv("node", e.node)
        .kv("from", e.from)
        .kv("depth", static_cast<std::uint64_t>(e.depth))
        .end_object()
        .end_object();
  }
  w.end_array().kv("displayTimeUnit", "ms").end_object();
  out << '\n';
}

}  // namespace radiocast::obs
