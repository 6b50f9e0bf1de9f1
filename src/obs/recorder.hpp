// Hierarchical span recorder — the span tree of the flight recorder
// (docs/observability.md).
//
// A span is a named interval of simulation rounds with a category
// ("stage", "phase", "epoch", ...), numeric attributes (e.g. the Stage-3
// estimate x), and a parent: spans open and close strictly LIFO, so the
// recorder maintains a single stack and every closed span knows its depth
// and parent id.
//
// Long runs stay cheap through a ring buffer: at most kCapacity closed
// spans are retained; older spans are evicted oldest-first and counted in
// dropped_spans().
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace radiocast::obs {

/// One numeric key/value attached to a span (e.g. {"estimate", x}).
struct SpanAttr {
  std::string key;
  std::uint64_t value = 0;
};

/// A named interval of simulation rounds in the span tree.
struct Span {
  std::uint64_t id = 0;         ///< 1-based; 0 means "no span"
  std::uint64_t parent_id = 0;  ///< 0 for root spans
  std::uint32_t depth = 0;      ///< 0 for root spans
  std::string name;
  std::string category;
  std::uint64_t begin_round = 0;
  std::uint64_t end_round = 0;  ///< exclusive; == begin while still open
  bool closed = false;
  std::vector<SpanAttr> attrs;

  std::uint64_t duration() const { return end_round - begin_round; }
};

/// LIFO span stack + bounded retention (see the file comment).
class SpanRecorder {
 public:
  /// Max closed spans retained (ring buffer); older spans are evicted.
  static constexpr std::size_t kCapacity = 8192;

  /// Opens a child of the innermost open span. Returns the span id.
  std::uint64_t open(std::string_view name, std::string_view category,
                     std::uint64_t round, std::vector<SpanAttr> attrs = {});

  /// Closes the innermost open span; `id` must match it (LIFO discipline).
  void close(std::uint64_t id, std::uint64_t end_round);

  /// Adds an attribute to a still-open span.
  void add_attr(std::uint64_t id, std::string_view key, std::uint64_t value);

  /// Currently open (unclosed) spans.
  std::size_t open_depth() const { return stack_.size(); }
  /// Closed spans evicted by the ring buffer.
  std::uint64_t dropped_spans() const { return dropped_; }

  /// All retained spans — closed ones in close order, then any still-open
  /// ones outermost-first. Open spans report end_round == begin_round.
  std::vector<Span> snapshot() const;

 private:
  std::vector<Span> stack_;
  std::deque<Span> closed_;
  std::uint64_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
};

}  // namespace radiocast::obs
