#include "graph/packed.hpp"

namespace radiocast::graph {

PackedRows PackedRows::build(const Graph& g) {
  RC_ASSERT(g.finalized());
  PackedRows idx;
  const NodeId n = g.num_nodes();
  idx.offsets_.resize(static_cast<std::size_t>(n) + 1, 0);
  // Count first, so the group array is allocated once at its exact size.
  std::size_t total = 0;
  for (NodeId u = 0; u < n; ++u) {
    for_each_word_group(g.neighbors(u), [&](std::uint32_t, std::uint64_t) { ++total; });
  }
  idx.groups_.reserve(total);
  for (NodeId u = 0; u < n; ++u) {
    idx.offsets_[u] = static_cast<std::uint32_t>(idx.groups_.size());
    for_each_word_group(g.neighbors(u), [&](std::uint32_t word, std::uint64_t mask) {
      idx.groups_.push_back({word, mask});
    });
  }
  idx.offsets_[n] = static_cast<std::uint32_t>(idx.groups_.size());
  return idx;
}

}  // namespace radiocast::graph
