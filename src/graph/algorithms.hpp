// Graph algorithms: BFS layering, distances, diameter, connectivity.
//
// These are the centralized reference computations the simulator and the
// benches use to (a) parameterize protocol schedules with the true D and Δ,
// and (b) verify distributed results (e.g. Stage 2's distributed BFS tree)
// against ground truth.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.hpp"

namespace radiocast::graph {

/// Sentinel distance for unreachable vertices.
inline constexpr std::uint32_t kUnreachable = std::numeric_limits<std::uint32_t>::max();

/// Single-source BFS result.
struct BfsResult {
  /// dist[v] = hop distance from the source (kUnreachable if disconnected).
  std::vector<std::uint32_t> dist;
  /// parent[v] = BFS-tree parent (source's parent is itself; unreachable
  /// vertices point to themselves).
  std::vector<NodeId> parent;
  /// Largest finite distance found.
  std::uint32_t eccentricity = 0;
};

BfsResult bfs(const Graph& g, NodeId source);

/// True iff the graph is connected (vacuously true for n <= 1).
bool is_connected(const Graph& g);

/// Number of connected components.
std::size_t num_components(const Graph& g);

/// Exact diameter via BFS from every vertex, 64 sources per word-parallel
/// sweep — O(⌈n/64⌉·D·m). Returns 0 for graphs with fewer than two
/// vertices; the graph must be connected.
std::uint32_t diameter(const Graph& g);

/// All-pairs shortest-path distances via repeated BFS (n x n matrix).
std::vector<std::vector<std::uint32_t>> all_pairs_distances(const Graph& g);

/// Validates that `parent`/`dist` arrays describe a correct BFS tree rooted
/// at `root`: every reachable non-root node has a parent that is a
/// neighbor at distance dist-1 and distances match the true BFS layering.
/// Used by tests of the distributed Stage 2.
bool is_valid_bfs_tree(const Graph& g, NodeId root, const std::vector<NodeId>& parent,
                       const std::vector<std::uint32_t>& dist);

}  // namespace radiocast::graph
