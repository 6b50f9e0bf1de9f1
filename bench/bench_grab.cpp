// E7 — Lemma 4: the GRAB(x) cascade collects all packets w.h.p. when
// x >= k, and each OSPG(y) halves (at least) the remaining packets.
//
// We run Stage 3 in isolation (BFS tree precomputed) and sample the root's
// collected count at every gather-window boundary of the first phase.
//
// Expected shape: the "remaining" column decays at least geometrically
// down the cascade; the MSPG row clears what is left; success column all
// "yes" for k <= x0.
#include <memory>

#include "bench_util.hpp"
#include "core/collection.hpp"
#include "core/schedule.hpp"
#include "radio/network.hpp"

namespace {

using namespace radiocast;

class CollectionOnlyNode final : public radio::NodeProtocol {
 public:
  CollectionOnlyNode(const core::CollectionState::Config& cfg, radio::NodeId self,
                     bool is_root, std::optional<radio::NodeId> parent,
                     std::vector<radio::Packet> packets, Rng rng)
      : rng_(rng), state_(cfg, self, is_root, parent, std::move(packets), &rng_) {}

  std::optional<radio::MessageBody> on_transmit(radio::Round round) override {
    return state_.on_transmit(round);
  }
  void on_receive(radio::Round round, const radio::Message& msg) override {
    state_.on_receive(round, msg);
  }
  bool done() const override { return state_.finished(); }
  core::CollectionState& state() { return state_; }

 private:
  Rng rng_;
  core::CollectionState state_;
};

}  // namespace

int main() {
  using namespace radiocast::benchutil;
  const int seeds = seeds_from_env();

  banner("E7 bench_grab",
         "Lemma 4: GRAB(x) collects all packets whp when x >= k; OSPG halves");

  Rng grng(31);
  const graph::Graph g = graph::make_random_geometric(64, 0.25, grng);
  core::KBroadcastConfig kcfg;
  kcfg.know = radio::Knowledge::exact(g);
  const core::ResolvedConfig rc = core::resolve(kcfg);
  print_meta(std::cout, "graph", g.summary() + " D=" + std::to_string(rc.know.d_hat));
  print_meta(std::cout, "x0", std::to_string(rc.initial_estimate));

  const graph::BfsResult tree = graph::bfs(g, 0);

  JsonReport json("E7_grab");
  json.meta("claim", "GRAB(x) collects all packets whp when x >= k")
      .meta("graph", g.summary());

  for (const std::uint32_t k :
       {static_cast<std::uint32_t>(rc.initial_estimate / 2),
        static_cast<std::uint32_t>(rc.initial_estimate)}) {
    print_meta(std::cout, "k", std::to_string(k));
    Table t({"window", "slots", "copies", "collected", "remaining", "frac left"});
    const auto windows = core::grab_windows(rc.initial_estimate, rc);

    // One trial = one isolated network stepped through the cascade,
    // sampling the root's collected count at every window boundary.
    // Trials fan out over the Monte Carlo driver; each owns its Network
    // and Rngs, so the per-window samples are thread-count independent.
    struct TrialOut {
      std::vector<double> remaining;
      bool all_collected = false;
    };
    const std::vector<TrialOut> trials = core::montecarlo::run(seeds, [&](int s) {
      Rng prng(40 + s);
      const core::Placement placement = core::make_placement(
          g.num_nodes(), k, core::PlacementMode::kRandom, 16, prng);
      radio::Network net(g);
      Rng master(90 + s);
      for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
        std::optional<radio::NodeId> parent;
        if (v != 0 && tree.dist[v] != graph::kUnreachable) parent = tree.parent[v];
        net.set_protocol(v, std::make_unique<CollectionOnlyNode>(
                                core::CollectionState::Config{&rc}, v, v == 0, parent,
                                placement[v], master.split()));
        net.wake_at_start(v);
      }
      auto& root = static_cast<CollectionOnlyNode&>(net.protocol(0));
      TrialOut out;
      for (std::size_t w = 0; w < windows.size(); ++w) {
        while (net.current_round() < windows[w].end()) net.step();
        out.remaining.push_back(static_cast<double>(k) -
                                static_cast<double>(root.state().collected().size()));
      }
      out.all_collected = root.state().collected().size() == k;
      return out;
    });

    // Aggregate per-window remaining over seeds, in trial order.
    std::vector<SampleSet> remaining(windows.size());
    int all_collected = 0;
    for (const TrialOut& out : trials) {
      for (std::size_t w = 0; w < windows.size(); ++w) remaining[w].add(out.remaining[w]);
      if (out.all_collected) ++all_collected;
    }
    for (std::size_t w = 0; w < windows.size(); ++w) {
      const double rem = remaining[w].median();
      t.row()
          .add(windows[w].copies > 1 ? "MSPG" : ("OSPG(" + std::to_string(windows[w].slots / 6) + ")"))
          .add(windows[w].slots)
          .add(windows[w].copies)
          .add(static_cast<double>(k) - rem, 0)
          .add(rem, 0)
          .add(rem / k, 3);
      json.row()
          .col("k", k)
          .col("window", windows[w].copies > 1 ? "mspg" : "ospg")
          .col("slots", windows[w].slots)
          .col("copies", windows[w].copies)
          .col("remaining", rem);
    }
    t.print(std::cout);
    std::cout << "# runs with all " << k << " packets collected after GRAB(x0): "
              << all_collected << "/" << seeds << "\n\n";
  }
  std::cout << "# expected: remaining decays >= geometrically down the cascade;\n"
               "# the MSPG row reaches remaining = 0 in every run (Lemma 4).\n";
  return 0;
}
