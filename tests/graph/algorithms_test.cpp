#include "graph/algorithms.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "graph/generators.hpp"

namespace radiocast::graph {
namespace {

TEST(Bfs, PathDistances) {
  const Graph g = make_path(5);
  const BfsResult r = bfs(g, 0);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(r.dist[v], v);
  EXPECT_EQ(r.eccentricity, 4u);
  EXPECT_EQ(r.parent[0], 0u);
  for (NodeId v = 1; v < 5; ++v) EXPECT_EQ(r.parent[v], v - 1);
}

TEST(Bfs, DisconnectedMarksUnreachable) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.finalize();
  const BfsResult r = bfs(g, 0);
  EXPECT_EQ(r.dist[1], 1u);
  EXPECT_EQ(r.dist[2], kUnreachable);
  EXPECT_EQ(r.dist[3], kUnreachable);
  EXPECT_FALSE(is_connected(g));
  EXPECT_EQ(num_components(g), 2u);
}

TEST(Connectivity, SingleVertexConnected) {
  Graph g(1);
  g.finalize();
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(num_components(g), 1u);
}

TEST(Diameter, KnownFamilies) {
  EXPECT_EQ(diameter(make_path(10)), 9u);
  EXPECT_EQ(diameter(make_cycle(10)), 5u);
  EXPECT_EQ(diameter(make_cycle(11)), 5u);
  EXPECT_EQ(diameter(make_star(10)), 2u);
  EXPECT_EQ(diameter(make_complete(10)), 1u);
  EXPECT_EQ(diameter(make_grid(4, 6)), 8u);
}

TEST(Diameter, EndpointsOutsideTheFirstSourceWord) {
  // diameter() runs 64 sources per sweep. A 200-vertex path whose middle
  // holds ids 0..63 and whose ends hold ids 64..199: every source of the
  // first sweep has eccentricity < 199, so the answer needs later sweeps.
  std::vector<NodeId> order;
  for (NodeId v = 64; v < 132; ++v) order.push_back(v);
  for (NodeId v = 0; v < 64; ++v) order.push_back(v);
  for (NodeId v = 132; v < 200; ++v) order.push_back(v);
  Graph g(200);
  for (std::size_t i = 0; i + 1 < order.size(); ++i) g.add_edge(order[i], order[i + 1]);
  g.finalize();
  EXPECT_EQ(diameter(g), 199u);
}

TEST(AllPairs, MatchesBfsAndIsSymmetric) {
  Rng rng(1);
  const Graph g = make_gnp_connected(24, 0.2, rng);
  const auto d = all_pairs_distances(g);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(d[u][v], d[v][u]);
    }
    EXPECT_EQ(d[u][u], 0u);
  }
  // Triangle inequality.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      for (NodeId w = 0; w < g.num_nodes(); ++w) {
        EXPECT_LE(d[u][w], d[u][v] + d[v][w]);
      }
    }
  }
}

TEST(BfsTreeValidation, AcceptsTrueBfsTree) {
  Rng rng(2);
  const Graph g = make_random_geometric(40, 0.35, rng);
  const BfsResult r = bfs(g, 3);
  EXPECT_TRUE(is_valid_bfs_tree(g, 3, r.parent, r.dist));
}

TEST(BfsTreeValidation, RejectsWrongDistance) {
  const Graph g = make_path(5);
  BfsResult r = bfs(g, 0);
  r.dist[3] = 7;
  EXPECT_FALSE(is_valid_bfs_tree(g, 0, r.parent, r.dist));
}

TEST(BfsTreeValidation, RejectsNonNeighborParent) {
  const Graph g = make_path(5);
  BfsResult r = bfs(g, 0);
  r.parent[4] = 0;  // not adjacent to 4
  EXPECT_FALSE(is_valid_bfs_tree(g, 0, r.parent, r.dist));
}

TEST(BfsTreeValidation, RejectsWrongSizes) {
  const Graph g = make_path(3);
  const BfsResult r = bfs(g, 0);
  std::vector<NodeId> short_parent(r.parent.begin(), r.parent.end() - 1);
  EXPECT_FALSE(is_valid_bfs_tree(g, 0, short_parent, r.dist));
}

// Property sweep: on every named family, BFS distances from node 0 respect
// the edge relaxation property (|d(u) - d(v)| <= 1 for every edge).
class BfsFamilyProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(BfsFamilyProperty, EdgeRelaxation) {
  Rng rng(7);
  const Graph g = make_named(GetParam(), 48, rng);
  ASSERT_TRUE(is_connected(g));
  const BfsResult r = bfs(g, 0);
  for (const auto& [u, v] : g.edges()) {
    const auto du = static_cast<std::int64_t>(r.dist[u]);
    const auto dv = static_cast<std::int64_t>(r.dist[v]);
    EXPECT_LE(std::abs(du - dv), 1);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, BfsFamilyProperty,
                         ::testing::ValuesIn(named_families()));

}  // namespace
}  // namespace radiocast::graph
