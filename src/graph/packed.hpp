// Word-grouped adjacency index for bit-parallel reception sweeps.
//
// The bitset round engine intersects each receiver's neighborhood with a
// packed transmit set (one bit per node). Walking the CSR neighbor list and
// testing bits one at a time costs one load per neighbor; grouping the
// sorted neighbor ids of a row by 64-aligned word gives a list of
// (word index, bit mask) pairs so the intersection is one AND per *word*
// the row touches. On graphs with id locality (geometric layouts, cluster
// chains, spatially-sorted meshes) a degree-16 row collapses to one or two
// groups.
//
// The index is the bitset sweep's only row format. Graph::packed_rows()
// builds it once per graph, on first use, and every Network on that graph
// reads the one copy. A group is 16 bytes against 4 per CSR entry, so
// on an id-scattered graph (one neighbor per word) it is about 4x the CSR
// target array; it is still faster to read than re-grouping the CSR row
// every round.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace radiocast::graph {

/// One 64-node-aligned chunk of a neighbor row: the neighbors of the row's
/// vertex whose ids fall in [word*64, word*64+64), as a bit mask.
struct WordGroup {
  std::uint32_t word = 0;
  std::uint64_t mask = 0;
};

/// Immutable per-row word-group index over a finalized graph.
class PackedRows {
 public:
  /// Builds the index of every row of `g`.
  static PackedRows build(const Graph& g);

  /// False only for a default-constructed (never built) index.
  bool built() const { return !offsets_.empty(); }

  /// Word groups of row `u`, ascending by word index. Requires built().
  std::span<const WordGroup> row(NodeId u) const {
    RC_DCHECK(built() && u + 1 < offsets_.size());
    return {groups_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }

 private:
  /// offsets_[u] .. offsets_[u+1]) indexes groups_; n+1 entries when built.
  std::vector<std::uint32_t> offsets_;
  std::vector<WordGroup> groups_;
};

/// Streams the word groups of one sorted neighbor row without an index:
/// calls `fn(word, mask)` once per 64-aligned chunk, ascending. `row` must
/// be sorted ascending (CSR rows after finalize() are).
template <typename Fn>
inline void for_each_word_group(std::span<const NodeId> row, Fn&& fn) {
  std::size_t i = 0;
  const std::size_t len = row.size();
  while (i < len) {
    const std::uint32_t word = row[i] >> 6;
    std::uint64_t mask = 0;
    do {
      mask |= 1ULL << (row[i] & 63);
      ++i;
    } while (i < len && (row[i] >> 6) == word);
    fn(word, mask);
  }
}

}  // namespace radiocast::graph
