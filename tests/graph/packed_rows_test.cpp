// Word-group adjacency index (graph/packed.hpp) against the CSR oracle.
//
// Every test reconstructs neighbor sets from (word, mask) groups and
// compares them with Graph::neighbors — the groups are just a re-encoding,
// so the round trip must be exact on any finalized graph.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/packed.hpp"

namespace radiocast::graph {
namespace {

std::vector<NodeId> expand_groups(std::span<const WordGroup> groups) {
  std::vector<NodeId> ids;
  std::uint32_t prev_word = 0;
  bool first = true;
  for (const WordGroup& grp : groups) {
    EXPECT_NE(grp.mask, 0u);
    if (!first) {
      EXPECT_GT(grp.word, prev_word) << "groups not ascending";
    }
    first = false;
    prev_word = grp.word;
    std::uint64_t m = grp.mask;
    while (m != 0) {
      ids.push_back(static_cast<NodeId>(grp.word) * 64 +
                    static_cast<NodeId>(std::countr_zero(m)));
      m &= m - 1;
    }
  }
  return ids;
}

void expect_rows_match(const Graph& g, const PackedRows& rows) {
  ASSERT_TRUE(rows.built());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto nbrs = g.neighbors(u);
    const std::vector<NodeId> expect(nbrs.begin(), nbrs.end());
    EXPECT_EQ(expand_groups(rows.row(u)), expect) << "row " << u;
  }
}

TEST(PackedRows, BuildAlwaysReconstructsNeighborsOnRandomGraph) {
  Rng rng(0x9acced1ULL);
  const Graph g = make_gnp_connected(300, 0.05, rng);
  expect_rows_match(g, PackedRows::build(g));
}

TEST(PackedRows, BuildAlwaysReconstructsNeighborsOnStructuredGraphs) {
  const Graph grid = make_grid(12, 17);
  expect_rows_match(grid, PackedRows::build(grid));
  const Graph chain = make_cluster_chain(8, 20);
  expect_rows_match(chain, PackedRows::build(chain));
  const Graph star = make_star(130);
  expect_rows_match(star, PackedRows::build(star));
}

TEST(PackedRows, OneIndexPerGraphThatCopiesShare) {
  Rng rng(0x9acced5ULL);
  const Graph g = make_gnp_connected(200, 0.05, rng);
  expect_rows_match(g, g.packed_rows());
  const Graph copy = g;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(&copy.packed_rows(), &g.packed_rows());
  // A copy taken before the first build shares the index it builds.
  Rng rng2(0x9acced5ULL);
  const Graph fresh = make_gnp_connected(200, 0.05, rng2);
  const Graph fresh_copy = fresh;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(&fresh_copy.packed_rows(), &fresh.packed_rows());
}

TEST(PackedRows, ForEachWordGroupMatchesIndexOnEveryRow) {
  Rng rng(0x9acced3ULL);
  const Graph g = make_bounded_degree(400, 6, 0.7, rng);
  const PackedRows rows = PackedRows::build(g);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    std::vector<WordGroup> streamed;
    for_each_word_group(g.neighbors(u), [&](std::uint32_t word, std::uint64_t mask) {
      streamed.push_back(WordGroup{word, mask});
    });
    const auto indexed = rows.row(u);
    ASSERT_EQ(streamed.size(), indexed.size()) << "row " << u;
    for (std::size_t i = 0; i < streamed.size(); ++i) {
      EXPECT_EQ(streamed[i].word, indexed[i].word) << "row " << u << " group " << i;
      EXPECT_EQ(streamed[i].mask, indexed[i].mask) << "row " << u << " group " << i;
    }
  }
}

TEST(PackedRows, EmptyRowsYieldNoGroups) {
  // Star: every leaf row is exactly one group (the hub's word), and the
  // hub's row spans ceil((n-1)/64)-ish groups of consecutive ids.
  const Graph g = make_star(200);
  const PackedRows rows = PackedRows::build(g);
  for (NodeId leaf = 1; leaf < g.num_nodes(); ++leaf) {
    EXPECT_EQ(rows.row(leaf).size(), 1u);
  }
  std::size_t hub_bits = 0;
  for (const WordGroup& grp : rows.row(0)) {
    hub_bits += static_cast<std::size_t>(std::popcount(grp.mask));
  }
  EXPECT_EQ(hub_bits, g.num_nodes() - 1);
}

}  // namespace
}  // namespace radiocast::graph
