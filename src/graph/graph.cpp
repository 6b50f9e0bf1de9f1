#include "graph/graph.hpp"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <utility>

#include "graph/packed.hpp"

namespace radiocast::graph {

void Graph::add_edge(NodeId u, NodeId v) {
  RC_ASSERT_MSG(!finalized_, "add_edge after finalize()");
  RC_ASSERT(u < num_nodes() && v < num_nodes());
  RC_ASSERT_MSG(u != v, "self-loops are not allowed in a radio network graph");
  // Reject duplicates (linear scan is fine at build time; generators never
  // produce heavy duplication).
  const auto& list = build_adjacency_[u];
  if (std::find(list.begin(), list.end(), v) != list.end()) return;
  build_adjacency_[u].push_back(v);
  build_adjacency_[v].push_back(u);
  ++num_edges_;
}

void Graph::finalize() {
  if (finalized_) return;
  offsets_.assign(num_nodes_ + 1, 0);
  for (NodeId u = 0; u < num_nodes_; ++u) {
    offsets_[u + 1] = offsets_[u] + build_adjacency_[u].size();
  }
  targets_.resize(offsets_[num_nodes_]);
  for (NodeId u = 0; u < num_nodes_; ++u) {
    auto& list = build_adjacency_[u];
    std::sort(list.begin(), list.end());
    std::copy(list.begin(), list.end(), targets_.begin() + offsets_[u]);
  }
  build_adjacency_.clear();
  build_adjacency_.shrink_to_fit();
  finalized_ = true;
  packed_ = std::make_shared<PackedIndex>();
}

struct Graph::PackedIndex {
  std::once_flag built;
  PackedRows rows;
};

const PackedRows& Graph::packed_rows() const {
  RC_DCHECK(finalized_);
  std::call_once(packed_->built, [this] { packed_->rows = PackedRows::build(*this); });
  return packed_->rows;
}

std::size_t Graph::max_degree() const {
  std::size_t best = 0;
  for (NodeId u = 0; u < num_nodes_; ++u) best = std::max(best, degree(u));
  return best;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  RC_ASSERT_MSG(finalized_, "has_edge requires finalize()");
  RC_ASSERT(u < num_nodes() && v < num_nodes());
  const std::span<const NodeId> list = neighbors(u);
  return std::binary_search(list.begin(), list.end(), v);
}

std::vector<std::pair<NodeId, NodeId>> Graph::edges() const {
  RC_ASSERT_MSG(finalized_, "edges() requires finalize()");
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(num_edges_);
  for (NodeId u = 0; u < num_nodes_; ++u) {
    for (NodeId v : neighbors(u)) {
      if (u < v) out.emplace_back(u, v);
    }
  }
  return out;
}

std::string Graph::summary() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "n=%u m=%zu maxdeg=%zu", num_nodes(), num_edges_,
                max_degree());
  return buf;
}

}  // namespace radiocast::graph
