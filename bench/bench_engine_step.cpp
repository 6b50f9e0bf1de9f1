// Engine microbenchmark: isolates radio::Network::step from all protocol
// logic (ISSUE 4 satellite; ISSUE 7 added the engine axis).
//
// Every node runs a fixed per-node 64-bit transmission schedule — no RNG
// draws, no protocol state, no decoding — so the measured cost is the
// engine itself. Each workload runs once per selected engine mode
// (--engine scalar|bitset|auto|all, default all): the two forced sweeps
// and the default per-round rule. Every row carries an `engine` column;
// the deterministic counter columns must agree between the three rows of
// a workload (same model, same schedule), which the pinned baseline
// enforces. The deterministic `bitset_rounds` column counts the rounds
// that took the bitset sweep, so the baseline also pins every choice the
// auto rule makes.
//
// Workload families:
//
//   dense / sparse      generic PlainPacketMsg protocols on a gnp graph
//                       (p=1/4 resp. 1/64 transmit probability) — the
//                       virtual on_transmit path under every mode.
//   alarm               one-bit AlarmMsg schedule on the same graph (p=1/4):
//                       no payload, so reception dominates the message
//                       cost; every mode polls on_transmit in Phase 1.
//   alarm_dense_100k    full mode only: n=10^5, degree~16 locality-window
//                       graph at p=3/8 — the collision-dominated row.
//   alarm_sparse_1m     full mode only: n=10^6 sparse window graph — the
//                       million-node completion row.
//
// Each row reports rounds/sec (best of `reps` timed repetitions, measured
// on the process CPU clock so shared/noisy-neighbor machines don't skew
// the number — the bench is single-threaded, so CPU time is honest
// throughput) and an analytic bytes-touched-per-round estimate derived
// from the run's exact counters (see touched_bytes_model below).
//
// `--smoke` shrinks the grid for CI; rows land in BENCH_engine_step.json
// when RADIOCAST_BENCH_JSON_DIR is set. All counter columns are
// deterministic (fixed seeds, no wall-clock dependence) — only the
// time-derived columns vary between machines, which is what
// scripts/bench_compare.py's tolerance applies to.
#include <ctime>
#include <cstring>
#include <string>

#include "bench_util.hpp"
#include "radio/network.hpp"
#include "radio/node.hpp"

using namespace radiocast;

namespace {

/// Process CPU time in seconds (immune to scheduler preemption by other
/// tenants of the machine; the bench is single-threaded).
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Fixed-schedule protocol: transmits iff bit (round mod 64) of `pattern`
/// is set; the message is a 1-group plain packet with a 16-byte payload,
/// mirroring what the dissemination stages put on the air.
class ScheduledNode final : public radio::NodeProtocol {
 public:
  ScheduledNode(radio::NodeId self, std::uint64_t pattern, const radio::Packet& packet)
      : pattern_(pattern), packet_(packet) {
    (void)self;
  }

  std::optional<radio::MessageBody> on_transmit(radio::Round round) override {
    if (((pattern_ >> (round & 63)) & 1) == 0) return std::nullopt;
    radio::PlainPacketMsg msg;
    msg.packet.id = packet_.id;
    if (radio::PayloadArena* arena = payload_arena()) {
      msg.packet.payload = arena->acquire_copy(packet_.payload);
    } else {
      msg.packet.payload = packet_.payload;
    }
    msg.group_id = 0;
    msg.group_count = 1;
    msg.group_size = 1;
    return msg;
  }

  void on_receive(radio::Round /*round*/, const radio::Message& /*msg*/) override {
    ++receptions_;
  }

 private:
  std::uint64_t pattern_ = 0;
  radio::Packet packet_;
  std::uint64_t receptions_ = 0;
};

/// One-bit variant of ScheduledNode: same schedule semantics, AlarmMsg on
/// the air.
class ScheduledAlarmNode final : public radio::NodeProtocol {
 public:
  explicit ScheduledAlarmNode(std::uint64_t pattern) : pattern_(pattern) {}

  std::optional<radio::MessageBody> on_transmit(radio::Round round) override {
    if (((pattern_ >> (round & 63)) & 1) == 0) return std::nullopt;
    return radio::AlarmMsg{};
  }

  void on_receive(radio::Round /*round*/, const radio::Message& /*msg*/) override {
    ++receptions_;
  }

 private:
  std::uint64_t pattern_ = 0;
  std::uint64_t receptions_ = 0;
};

/// A pattern word with exactly `ones` bits set, placed by the rng — the
/// per-round transmit probability is ones/64, identical across reps.
std::uint64_t make_pattern(std::uint32_t ones, Rng& rng) {
  std::uint64_t word = 0;
  while (static_cast<std::uint32_t>(__builtin_popcountll(word)) < ones) {
    word |= 1ULL << rng.next_below(64);
  }
  return word;
}

/// Ring + random chords within a +-`window` id window (wraparound), target
/// degree ~`deg`. Built in O(n * deg): the bounded window keeps every
/// neighbor row inside at most ceil(2*window/64)+1 words, so the bitset
/// kernel's word-group index (graph::PackedRows) holds a few groups per
/// row where a gnp row needs about one per neighbor — and a plausible
/// stand-in for the unit-disk topologies the paper's model targets.
graph::Graph make_window_graph(graph::NodeId n, std::uint32_t window, std::uint32_t deg,
                               Rng& rng) {
  graph::Graph g(n);
  for (graph::NodeId v = 0; v < n; ++v) g.add_edge(v, (v + 1) % n);
  const std::uint64_t chords = static_cast<std::uint64_t>(n) * (deg > 2 ? (deg - 2) / 2 : 0);
  for (std::uint64_t i = 0; i < chords; ++i) {
    const auto u = static_cast<graph::NodeId>(rng.next_below(n));
    const auto off = static_cast<std::uint32_t>(2 + rng.next_below(window - 1));
    g.add_edge(u, (u + off) % n);
  }
  g.finalize();
  return g;
}

struct Workload {
  std::string name;
  std::uint32_t pattern_ones;  // transmit probability = ones/64
  bool alarm = false;          // AlarmMsg schedule instead of plain packets
};

struct RowResult {
  std::uint64_t rounds = 0;
  std::uint64_t bitset_rounds = 0;
  double best_seconds = 0.0;
  radio::TraceCounters counters;
  std::uint64_t sum_tx_degree = 0;  // Σ over transmissions of deg(sender)
  std::uint32_t n = 0;
  std::uint32_t payload_bytes = 0;
};

/// Analytic bytes-touched-per-round: 4B per awake-list slot scanned, per
/// transmission the neighbor id walk (4B each) plus the message body
/// (struct + payload), and per touched node the reach_count/reach_source
/// bookkeeping plus the Phase-3 revisit (~24B). An estimate, not a
/// hardware counter — but it moves exactly when the engine's memory
/// layout does.
double touched_bytes_model(const RowResult& r) {
  const radio::TraceCounters& c = r.counters;
  const std::uint64_t touched =
      c.deliveries + c.collision_slots + c.deaf_slots + c.fault_drops;
  const double per_tx_body = sizeof(radio::Message) + static_cast<double>(r.payload_bytes);
  const double total = 4.0 * static_cast<double>(r.n) * static_cast<double>(r.rounds) +
                       4.0 * static_cast<double>(r.sum_tx_degree) +
                       per_tx_body * static_cast<double>(c.transmissions) +
                       24.0 * static_cast<double>(touched);
  return total / static_cast<double>(r.rounds);
}

RowResult run_workload(const graph::Graph& g, const Workload& w, std::uint64_t rounds,
                       int reps, radio::EngineMode engine) {
  const std::uint32_t n = g.num_nodes();
  // Deterministic per-node schedule + payloads (fixed seed, shared by the
  // accounting pass, every timed rep, and every engine mode).
  Rng pattern_rng(0xe57a6eull * (w.pattern_ones + 1));
  std::vector<std::uint64_t> patterns(n);
  std::vector<radio::Packet> packets(w.alarm ? 0 : n);
  for (radio::NodeId v = 0; v < n; ++v) {
    patterns[v] = make_pattern(w.pattern_ones, pattern_rng);
    if (w.alarm) continue;
    packets[v].id = radio::make_packet_id(v, 0);
    packets[v].payload.resize(16);
    for (auto& byte : packets[v].payload) {
      byte = static_cast<std::uint8_t>(pattern_rng() & 0xff);
    }
  }

  RowResult row;
  row.rounds = rounds;
  row.n = n;
  row.payload_bytes = w.alarm ? 0 : 16;

  // Accounting pass (untimed): Σ deg(sender) over the fixed schedule.
  // Per-phase transmit-degree sums, then one pass over the rounds.
  std::uint64_t phase_deg[64] = {};
  for (radio::NodeId v = 0; v < n; ++v) {
    for (std::uint32_t p = 0; p < 64; ++p) {
      if ((patterns[v] >> p) & 1) phase_deg[p] += g.degree(v);
    }
  }
  for (std::uint64_t r = 0; r < rounds; ++r) row.sum_tx_degree += phase_deg[r & 63];

  row.best_seconds = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    radio::Network net(g);
    net.set_engine(engine);
    for (radio::NodeId v = 0; v < n; ++v) {
      if (w.alarm) {
        net.set_protocol(v, std::make_unique<ScheduledAlarmNode>(patterns[v]));
      } else {
        net.set_protocol(v, std::make_unique<ScheduledNode>(v, patterns[v], packets[v]));
      }
      net.wake_at_start(v);
    }
    const double start = cpu_seconds();
    for (std::uint64_t r = 0; r < rounds; ++r) net.step();
    const double seconds = cpu_seconds() - start;
    if (seconds < row.best_seconds) row.best_seconds = seconds;
    if (rep == 0) {
      row.counters = net.trace().counters();
      row.bitset_rounds = net.bitset_rounds();
    }
  }
  return row;
}

void emit_row(radiocast::Table& table, benchutil::JsonReport& json, const Workload& w,
              radio::EngineMode engine, const RowResult& row) {
  const radio::TraceCounters& c = row.counters;
  const std::uint64_t touched =
      c.deliveries + c.collision_slots + c.deaf_slots + c.fault_drops;
  const double rps = static_cast<double>(row.rounds) / row.best_seconds;
  const double tx_per_round =
      static_cast<double>(c.transmissions) / static_cast<double>(row.rounds);
  const double touched_per_round =
      static_cast<double>(touched) / static_cast<double>(row.rounds);
  const double bytes_per_round = touched_bytes_model(row);
  table.row()
      .add(w.name)
      .add(radio::engine_mode_name(engine))
      .add(row.n)
      .add(row.rounds)
      .add(row.bitset_rounds)
      .add(tx_per_round, 1)
      .add(touched_per_round, 1)
      .add(rps, 0)
      .add(bytes_per_round, 0);
  json.row()
      .col("workload", w.name)
      .col("engine", radio::engine_mode_name(engine))
      .col("n", row.n)
      .col("rounds", row.rounds)
      .col("bitset_rounds", row.bitset_rounds)
      .col("transmissions", c.transmissions)
      .col("deliveries", c.deliveries)
      .col("collision_slots", c.collision_slots)
      .col("deaf_slots", c.deaf_slots)
      .col("tx_per_round", tx_per_round)
      .col("touched_per_round", touched_per_round)
      .col("rounds_per_sec", rps)
      .col("est_bytes_per_round", bytes_per_round);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string engine_arg = "all";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--engine") == 0 && i + 1 < argc) {
      engine_arg = argv[++i];
    }
  }
  std::vector<radio::EngineMode> engines;
  for (const radio::EngineMode mode :
       {radio::EngineMode::kScalar, radio::EngineMode::kBitset, radio::EngineMode::kAuto}) {
    if (engine_arg == "all" || engine_arg == radio::engine_mode_name(mode)) {
      engines.push_back(mode);
    }
  }
  if (engines.empty()) {
    std::cerr << "usage: bench_engine_step [--smoke] [--engine scalar|bitset|auto|all]\n";
    return 1;
  }

  benchutil::banner("engine_step",
                    "Network::step in isolation: rounds/sec and bytes-touched/round "
                    "on fixed dense/sparse transmission schedules, per engine mode");
  benchutil::JsonReport json("engine_step");
  json.meta("smoke", smoke ? "1" : "0");
  json.meta("engines", engine_arg);

  const std::uint32_t n = smoke ? 512 : 2048;
  const std::uint64_t rounds = smoke ? 1024 : 4096;
  // A smoke rep of the sparse rows lasts a few milliseconds, so best-of-2
  // swung past the CI gate's 15% on host noise alone; best-of-10 does not.
  const int reps = smoke ? 10 : 3;

  // Average degree ~16 random connected topology, fixed seed.
  Rng graph_rng(0xc5a11ull);
  const double p = 16.0 / static_cast<double>(n - 1);
  const graph::Graph g = graph::make_gnp_connected(n, p, graph_rng);
  print_meta(std::cout, "graph", "gnp " + g.summary());
  json.meta("graph", g.summary());

  radiocast::Table table({"workload", "engine", "n", "rounds", "bitset rounds", "tx/round",
                          "touched/round", "rounds/sec", "est bytes/round"});
  const std::vector<Workload> workloads = {
      {"dense", 16}, {"sparse", 1}, {"alarm", 16, /*alarm=*/true}};
  for (const Workload& w : workloads) {
    for (const radio::EngineMode engine : engines) {
      emit_row(table, json, w, engine, run_workload(g, w, rounds, reps, engine));
    }
  }

  if (!smoke) {
    // Scale rows: a 10^5-node dense alarm schedule, where the bitset
    // engine's popcounted collisions pay most, and a 10^6-node sparse
    // sweep that must simply complete. Window topologies keep graph
    // construction O(n * deg) and neighbor rows within a few words.
    Rng big_rng(0xb16b00b5ull);
    const graph::Graph g100k = make_window_graph(100000, 64, 16, big_rng);
    print_meta(std::cout, "graph_100k", "window " + g100k.summary());
    const graph::Graph g1m = make_window_graph(1000000, 64, 4, big_rng);
    print_meta(std::cout, "graph_1m", "window " + g1m.summary());

    // p = 24/64: the collision-dominated regime (the one the Decay
    // analysis lives in) — most slots carry >= 2 transmitters, which the
    // bitset engine classifies by popcount instead of per-node walks.
    const Workload dense_big{"alarm_dense_100k", 24, /*alarm=*/true};
    const Workload sparse_big{"alarm_sparse_1m", 1, /*alarm=*/true};
    for (const radio::EngineMode engine : engines) {
      emit_row(table, json, dense_big, engine,
               run_workload(g100k, dense_big, /*rounds=*/256, /*reps=*/1, engine));
    }
    for (const radio::EngineMode engine : engines) {
      emit_row(table, json, sparse_big, engine,
               run_workload(g1m, sparse_big, /*rounds=*/64, /*reps=*/1, engine));
    }
  }

  table.print(std::cout);
  return 0;
}
