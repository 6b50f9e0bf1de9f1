// Parameterized invariants across every generator family and several
// sizes: handshake lemma, adjacency symmetry, BFS-tree structure,
// diameter/eccentricity consistency, generator determinism.
#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"

namespace radiocast::graph {
namespace {

class FamilySizeGrid
    : public ::testing::TestWithParam<std::tuple<std::string, NodeId>> {
 protected:
  Graph make() const {
    Rng rng(std::get<1>(GetParam()) * 31 + 7);
    return make_named(std::get<0>(GetParam()), std::get<1>(GetParam()), rng);
  }
};

TEST_P(FamilySizeGrid, HandshakeLemma) {
  const Graph g = make();
  std::size_t degree_sum = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) degree_sum += g.degree(v);
  EXPECT_EQ(degree_sum, 2 * g.num_edges());
}

TEST_P(FamilySizeGrid, AdjacencySymmetricAndLoopFree) {
  const Graph g = make();
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.neighbors(u)) {
      EXPECT_NE(u, v);
      EXPECT_TRUE(g.has_edge(v, u));
    }
  }
}

TEST_P(FamilySizeGrid, BfsTreeSpansAndIsValid) {
  const Graph g = make();
  const BfsResult r = bfs(g, 0);
  std::size_t reachable = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (r.dist[v] != kUnreachable) ++reachable;
  }
  EXPECT_EQ(reachable, g.num_nodes());  // all families are connected
  EXPECT_TRUE(is_valid_bfs_tree(g, 0, r.parent, r.dist));
}

TEST_P(FamilySizeGrid, DiameterBoundsEccentricity) {
  const Graph g = make();
  if (g.num_nodes() > 120) GTEST_SKIP() << "diameter is O(nm); keep tests fast";
  const std::uint32_t diam = diameter(g);
  std::uint32_t max_ecc = 0;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    const BfsResult r = bfs(g, s);
    EXPECT_LE(r.eccentricity, diam);
    EXPECT_GE(2 * r.eccentricity + 1, diam);  // ecc >= diam/2
    max_ecc = std::max(max_ecc, r.eccentricity);
  }
  EXPECT_EQ(diam, max_ecc);
}

TEST_P(FamilySizeGrid, GeneratorDeterministicGivenSeed) {
  const auto& [family, n] = GetParam();
  Rng a(1234), b(1234);
  const Graph g1 = make_named(family, n, a);
  const Graph g2 = make_named(family, n, b);
  EXPECT_EQ(g1.edges(), g2.edges());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FamilySizeGrid,
    ::testing::Combine(::testing::ValuesIn(named_families()),
                       ::testing::Values<NodeId>(12, 40, 90)));

}  // namespace
}  // namespace radiocast::graph
