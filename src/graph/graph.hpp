// Undirected simple graphs — the reachability topology of a radio network.
//
// The simulator only needs adjacency iteration and degree queries. The
// structure has two phases: an edge-insertion builder phase backed by
// per-vertex lists, and — after `finalize()` — an immutable CSR layout
// (one `offsets_` array of n+1 cursors into one flat `targets_` array of
// 2m neighbor ids). The round loop's Phase 2 walks neighbor lists of many
// senders per round; CSR keeps those walks on a single contiguous
// allocation instead of one heap block per vertex, which is what makes
// the walk cache-friendly at sweep scale. Edge queries stay O(log deg)
// (lists are sorted), `degree()` is O(1), and the `neighbors()` span API
// is unchanged, so consumers are layout-agnostic. The word-group index the
// bit-parallel reception sweep reads (graph/packed.hpp) is built at most
// once per finalized graph, on first use.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/assert.hpp"

namespace radiocast::graph {

using NodeId = std::uint32_t;

class PackedRows;

class Graph {
 public:
  Graph() = default;
  /// Creates a graph with `n` isolated vertices (ids 0..n-1).
  explicit Graph(NodeId n) : num_nodes_(n), build_adjacency_(n) {}

  NodeId num_nodes() const { return num_nodes_; }
  std::size_t num_edges() const { return num_edges_; }

  /// Adds the undirected edge {u, v}. Self-loops are rejected; duplicate
  /// edges are ignored. Only valid before finalize().
  void add_edge(NodeId u, NodeId v);

  /// Sorts adjacency, compacts it into the CSR arrays, and freezes the
  /// graph (the builder lists are released).
  void finalize();
  bool finalized() const { return finalized_; }

  /// Neighbor ids of `u`, ascending after finalize(). The span points
  /// into the CSR arena and stays valid for the graph's lifetime.
  std::span<const NodeId> neighbors(NodeId u) const {
    RC_DCHECK(u < num_nodes());
    if (finalized_) {
      return {targets_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
    }
    return build_adjacency_[u];
  }

  std::size_t degree(NodeId u) const {
    RC_DCHECK(u < num_nodes());
    if (finalized_) return offsets_[u + 1] - offsets_[u];
    return build_adjacency_[u].size();
  }

  /// Raw CSR arrays for hot loops that hoist them once instead of paying
  /// neighbors()'s finalized branch per call: neighbors of u are
  /// csr_targets()[csr_offsets()[u] .. csr_offsets()[u+1]). Requires
  /// finalize(); valid for the graph's lifetime.
  const std::size_t* csr_offsets() const {
    RC_DCHECK(finalized_);
    return offsets_.data();
  }
  const NodeId* csr_targets() const {
    RC_DCHECK(finalized_);
    return targets_.data();
  }

  /// Word-group index of every neighbor row (graph/packed.hpp). The first
  /// call builds it (thread-safe); every radio::Network on this graph, on
  /// any thread, and every copy of the graph then reads that one copy. A
  /// graph no bitset round runs on never builds it. Requires finalize().
  const PackedRows& packed_rows() const;

  /// Maximum degree Δ (0 for an empty or edgeless graph).
  std::size_t max_degree() const;

  /// True iff the undirected edge {u, v} exists. Requires finalize().
  bool has_edge(NodeId u, NodeId v) const;

  /// All edges as (u, v) with u < v. Requires finalize().
  std::vector<std::pair<NodeId, NodeId>> edges() const;

  /// Human-readable summary ("n=32 m=64 maxdeg=5").
  std::string summary() const;

 private:
  NodeId num_nodes_ = 0;
  std::size_t num_edges_ = 0;
  bool finalized_ = false;

  /// Builder phase only; cleared by finalize().
  std::vector<std::vector<NodeId>> build_adjacency_;

  /// CSR after finalize(): neighbors of u are
  /// targets_[offsets_[u] .. offsets_[u+1]), sorted ascending.
  /// offsets_ has num_nodes_+1 entries; targets_ has 2*num_edges_.
  std::vector<std::size_t> offsets_;
  std::vector<NodeId> targets_;
  /// The lazily built index, shared by copies of the graph (made by
  /// finalize()).
  struct PackedIndex;
  std::shared_ptr<PackedIndex> packed_;
};

}  // namespace radiocast::graph
