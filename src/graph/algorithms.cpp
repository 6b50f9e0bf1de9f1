#include "graph/algorithms.hpp"

#include <algorithm>
#include <vector>

#include "common/assert.hpp"

namespace radiocast::graph {

BfsResult bfs(const Graph& g, NodeId source) {
  RC_ASSERT(source < g.num_nodes());
  BfsResult result;
  result.dist.assign(g.num_nodes(), kUnreachable);
  result.parent.resize(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) result.parent[v] = v;

  // Flat FIFO: every node enters the frontier at most once, so a plain
  // vector with a head cursor replaces std::queue (same visit order, one
  // contiguous allocation instead of deque chunks).
  std::vector<NodeId> frontier;
  frontier.reserve(g.num_nodes());
  result.dist[source] = 0;
  frontier.push_back(source);
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const NodeId u = frontier[head];
    for (NodeId v : g.neighbors(u)) {
      if (result.dist[v] == kUnreachable) {
        result.dist[v] = result.dist[u] + 1;
        result.parent[v] = u;
        result.eccentricity = std::max(result.eccentricity, result.dist[v]);
        frontier.push_back(v);
      }
    }
  }
  return result;
}

bool is_connected(const Graph& g) {
  if (g.num_nodes() <= 1) return true;
  const BfsResult r = bfs(g, 0);
  return std::none_of(r.dist.begin(), r.dist.end(),
                      [](std::uint32_t d) { return d == kUnreachable; });
}

std::size_t num_components(const Graph& g) {
  std::vector<bool> seen(g.num_nodes(), false);
  std::size_t components = 0;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (seen[s]) continue;
    ++components;
    const BfsResult r = bfs(g, s);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (r.dist[v] != kUnreachable) seen[v] = true;
    }
  }
  return components;
}

std::uint32_t diameter(const Graph& g) {
  const NodeId n = g.num_nodes();
  if (n < 2) return 0;
  RC_ASSERT_MSG(is_connected(g), "diameter requires a connected graph");
  // BFS from 64 sources at once: bit i of reached[v] says source base+i has
  // reached v, so one sweep over the adjacency advances 64 searches by a
  // level. The last level that reaches a new node is the batch's largest
  // eccentricity.
  std::vector<std::uint64_t> reached(n), frontier(n), next(n);
  std::uint32_t best = 0;
  for (NodeId base = 0; base < n; base += 64) {
    std::fill(reached.begin(), reached.end(), 0);
    std::fill(frontier.begin(), frontier.end(), 0);
    for (NodeId s = base; s < std::min<NodeId>(n, base + 64); ++s) {
      reached[s] = frontier[s] = 1ULL << (s - base);
    }
    for (std::uint32_t level = 1;; ++level) {
      bool grew = false;
      for (NodeId v = 0; v < n; ++v) {
        std::uint64_t heard = 0;
        for (const NodeId u : g.neighbors(v)) heard |= frontier[u];
        next[v] = heard & ~reached[v];
        grew = grew || next[v] != 0;
      }
      if (!grew) break;
      best = std::max(best, level);
      for (NodeId v = 0; v < n; ++v) reached[v] |= next[v];
      frontier.swap(next);
    }
  }
  return best;
}

std::vector<std::vector<std::uint32_t>> all_pairs_distances(const Graph& g) {
  std::vector<std::vector<std::uint32_t>> out;
  out.reserve(g.num_nodes());
  for (NodeId s = 0; s < g.num_nodes(); ++s) out.push_back(bfs(g, s).dist);
  return out;
}

bool is_valid_bfs_tree(const Graph& g, NodeId root, const std::vector<NodeId>& parent,
                       const std::vector<std::uint32_t>& dist) {
  if (parent.size() != g.num_nodes() || dist.size() != g.num_nodes()) return false;
  const BfsResult truth = bfs(g, root);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (truth.dist[v] == kUnreachable) continue;  // ignore unreachable nodes
    if (dist[v] != truth.dist[v]) return false;
    if (v == root) {
      if (parent[v] != root) return false;
      continue;
    }
    const NodeId p = parent[v];
    if (p >= g.num_nodes()) return false;
    if (!g.has_edge(v, p)) return false;
    if (dist[p] + 1 != dist[v]) return false;
  }
  return true;
}

}  // namespace radiocast::graph
