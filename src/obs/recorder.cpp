#include "obs/recorder.hpp"

#include <utility>

#include "common/assert.hpp"

namespace radiocast::obs {

std::uint64_t SpanRecorder::open(std::string_view name, std::string_view category,
                                 std::uint64_t round, std::vector<SpanAttr> attrs) {
  Span span;
  span.id = next_id_++;
  span.name = std::string(name);
  span.category = std::string(category);
  span.begin_round = round;
  span.end_round = round;
  span.attrs = std::move(attrs);
  if (!stack_.empty()) {
    span.parent_id = stack_.back().id;
    span.depth = stack_.back().depth + 1;
  }
  stack_.push_back(std::move(span));
  return stack_.back().id;
}

void SpanRecorder::close(std::uint64_t id, std::uint64_t end_round) {
  RC_ASSERT_MSG(!stack_.empty(), "close with no open span");
  RC_ASSERT_MSG(stack_.back().id == id, "spans must close LIFO");
  Span span = std::move(stack_.back());
  stack_.pop_back();
  RC_ASSERT(end_round >= span.begin_round);
  span.end_round = end_round;
  span.closed = true;
  if (closed_.size() == kCapacity) {
    closed_.pop_front();
    ++dropped_;
  }
  closed_.push_back(std::move(span));
}

void SpanRecorder::add_attr(std::uint64_t id, std::string_view key,
                            std::uint64_t value) {
  for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
    if (it->id == id) {
      it->attrs.push_back({std::string(key), value});
      return;
    }
  }
  RC_ASSERT_MSG(false, "add_attr on a span that is not open");
}

std::vector<Span> SpanRecorder::snapshot() const {
  std::vector<Span> out(closed_.begin(), closed_.end());
  out.insert(out.end(), stack_.begin(), stack_.end());
  return out;
}

}  // namespace radiocast::obs
